import dataclasses
import zlib

import numpy as np
import pytest
from scipy import optimize

from structprox import (
    Dataset,
    GroupStructure,
    Hyperparameters,
    ParameterSet,
    SolverFailure,
    SyntheticSpec,
    fit,
    generate,
    screen_lambda_max,
)
from structprox import VARIANTS, solver
from structprox.objective import (
    Design,
    log_posterior_unnormalized,
    margins,
    objective,
    risk,
    risk_gradient,
    sigmoid,
)
from structprox.preprocessing import fit_scaler, make_design
from structprox.solver import BACKTRACK_FACTOR, STEP_INIT, prox_group, prox_ridge

from structprox.synthetic import reference_solve

from conftest import (
    count_calls,
    default_hyper,
    mid_instance,
    random_instance,
    random_params,
    synthetic_instance,
)


def group_prox_oracle(omega, threshold):
    """Numerically minimize 0.5||x-w||^2 + t*||x||_2 via its 1-D radial form.

    The minimizer is collinear with omega, so the search reduces to the radius.
    """
    r = float(np.linalg.norm(omega))
    if r == 0.0:
        return np.zeros_like(omega)
    res = optimize.minimize_scalar(
        lambda u: 0.5 * (u - r) ** 2 + threshold * u,
        bounds=(0.0, r),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return (float(res.x) / r) * omega


def ridge_prox_oracle(omega, step, lam):
    # the objective separates per coordinate, so minimize each 1-D section
    out = np.empty_like(omega)
    for j, w in enumerate(omega):
        lo, hi = min(0.0, w) - 1e-9, max(0.0, w) + 1e-9
        res = optimize.minimize_scalar(
            lambda x: 0.5 * (x - w) ** 2 + step * lam * x * x,
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-13},
        )
        out[j] = res.x
    return out


def full_step(p, grad, step, gs, h):
    """One line-search trial on every entry, from the public proximal
    operators: the gradient step ``flat(p) - step * grad``, then
    :func:`prox_group` on every (imaging row, group) block and genetic group
    with threshold ``step * lambda * weight``, :func:`prox_ridge` on the
    imaging block and the plain step on the intercept.  The blocks
    ``h.variant`` pins are zero."""
    v = ParameterSet.from_flat(p.flat() - step * grad, p.n_imaging, p.expanded_size)
    out = ParameterSet.zeros(p.n_imaging, p.expanded_size)
    out.intercept = v.intercept
    for l in range(gs.n_groups):
        blk, weight = gs.block(l), gs.weights[l]
        if h.variant != "additive":
            for i in range(p.n_imaging):
                out.interaction[i, blk] = prox_group(
                    v.interaction[i, blk], step * h.lambda_interaction * weight)
        if h.variant != "multiplicative":
            out.genetic[blk] = prox_group(v.genetic[blk], step * h.lambda_genetic * weight)
    if h.variant != "multiplicative":
        out.imaging = prox_ridge(v.imaging, step, h.lambda_imaging)
    return out


def line_search(p, design, h, grad, start=STEP_INIT):
    """The fit's line search from ``p`` on every entry, starting at the
    trial step ``start``; returns ``(candidate, step, shrinks, risk)``."""
    gs = design.groups
    entries = solver._set_entries(np.ones((design.n_imaging, gs.n_groups), dtype=bool), gs, h)
    return solver._line_search(p, design, h, grad, risk(p, design, h.variant), start, entries)


def first_trial(p, design, h, grad, step):
    """The candidate of the line search's first trial from ``p`` at ``step``,
    accepted whatever its risk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "risk", lambda *args: -np.inf)
        candidate, accepted, shrinks, _ = line_search(p, design, h, grad, step)
    assert (accepted, shrinks) == (step, 0)
    return candidate


def raw_design(seed, gs, n_imaging):
    """A raw design of 12 random samples over the groups ``gs``."""
    rng = np.random.default_rng(seed)
    d = Dataset(rng.binomial(2, 0.4, size=(12, gs.n_features)).astype(float),
                rng.normal(size=(12, n_imaging)), rng.integers(0, 2, 12))
    return Design.from_dataset(d, gs)


class TestProxGroup:
    def test_zero_input(self):
        np.testing.assert_array_equal(prox_group(np.zeros(3), 1.7), np.zeros(3))

    def test_three_four_block(self):
        # ||(3,4)|| = 5, threshold 2.5 -> factor 0.5
        np.testing.assert_allclose(
            prox_group(np.array([3.0, 4.0]), 2.5), [1.5, 2.0]
        )

    def test_threshold_equal_to_norm_zeroes(self):
        out = prox_group(np.array([3.0, 4.0]), 5.0)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_threshold_above_norm_zeroes(self):
        out = prox_group(np.array([3.0, 4.0]), 5.01)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        omega = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(prox_group(omega, 0.0), omega)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prox_group(np.ones(2), -0.1)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="^threshold must be >= 0, got nan$"):
            prox_group(np.ones(2), np.nan)

    def test_empty_block_gives_empty_array(self):
        out = prox_group(np.zeros(0), 0.3)
        assert out.shape == (0,) and out.dtype == float

    def test_matrix_block_keeps_shape_and_input(self):
        # the block norm of a matrix is its Frobenius norm, in any memory order
        omega = np.asfortranarray(np.arange(1.0, 7.0).reshape(2, 3))
        before = omega.copy()
        out = prox_group(omega, 0.5)
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out.ravel(), prox_group(omega.ravel(), 0.5))
        np.testing.assert_array_equal(omega, before)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_parameter_update_bit_for_bit(self, seed):
        # the genetic blocks of the fit's zero-gradient, unit-step trial are
        # the soft-thresholds of omega's blocks at lambda_genetic * weight
        rng = np.random.default_rng(900 + seed)
        gs = GroupStructure(
            [[0, 1, 2], [3, 4], [5, 6, 7, 8]], n_features=9, weights=rng.uniform(0.5, 2.0, 3)
        )
        omega = rng.normal(0, 1, size=9)
        norms = [np.linalg.norm(omega[gs.block(l)]) / gs.weights[l] for l in range(3)]
        # between the smallest and largest weighted norm: one block survives, one is zeroed
        t = float(np.mean([min(norms), max(norms)]))
        p = ParameterSet.zeros(2, gs.expanded_size)
        p.genetic = omega
        h = Hyperparameters(1.0, 1.0, t)
        candidate = first_trial(p, raw_design(seed, gs, 2), h, np.zeros(p.flat().size), 1.0)
        survived = []
        for l in range(gs.n_groups):
            blk = gs.block(l)
            ours = prox_group(omega[blk], t * gs.weights[l])
            assert ours.tobytes() == candidate.genetic[blk].tobytes()
            survived.append(bool(ours.any()))
        assert True in survived and False in survived

    def test_matches_numerical_oracle(self):
        for seed in range(30):
            rng = np.random.default_rng(700 + seed)
            omega = rng.normal(0, 2, size=int(rng.integers(1, 9)))
            thr = float(rng.uniform(0, 1.2) * np.linalg.norm(omega) + 1e-6)
            np.testing.assert_allclose(
                prox_group(omega, thr), group_prox_oracle(omega, thr), atol=1e-6
            )

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(41)
        omega = rng.normal(0, 2, size=5)
        thr = 1.3
        out = prox_group(omega, thr)

        def f(x):
            return 0.5 * np.sum((x - omega) ** 2) + thr * np.linalg.norm(x)

        base = f(out)
        for scale in (1e-4, 1e-2, 1e-1):
            for _ in range(200):
                assert base <= f(out + rng.normal(0, scale, size=5)) + 1e-12


class TestProxRidge:
    def test_unit_vector_half(self):
        # eps * lambda_I = 0.5 -> divide by (1 + 2*0.5) = 2
        np.testing.assert_allclose(
            prox_ridge(np.array([1.0, 0.0]), 1.0, 0.5), [0.5, 0.0]
        )

    def test_lambda_zero_limit_is_identity(self):
        omega = np.array([2.0, -1.0])
        np.testing.assert_allclose(prox_ridge(omega, 1.0, 1e-300), omega, rtol=1e-12)

    def test_matches_numerical_oracle(self):
        for seed in range(30):
            rng = np.random.default_rng(800 + seed)
            omega = rng.normal(0, 2, size=int(rng.integers(1, 9)))
            step = float(rng.uniform(0.05, 1.5))
            lam = float(rng.uniform(0.01, 2.0))
            np.testing.assert_allclose(
                prox_ridge(omega, step, lam),
                ridge_prox_oracle(omega, step, lam),
                atol=1e-8,
            )

    @pytest.mark.parametrize("step, lam, message", [
        (np.nan, 0.5, "step must be > 0, got nan"),
        (0.0, 0.5, "step must be > 0, got 0.0"),
        (1.0, np.nan, "lam must be >= 0, got nan"),
        (1.0, -0.5, "lam must be >= 0, got -0.5"),
    ])
    def test_nan_or_out_of_range_argument_rejected(self, step, lam, message):
        with pytest.raises(ValueError) as err:
            prox_ridge(np.ones(2), step, lam)
        assert str(err.value) == message

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_parameter_update_bit_for_bit(self, seed):
        # the imaging block of the fit's zero-gradient trial is omega's ridge shrink
        rng = np.random.default_rng(950 + seed)
        gs = GroupStructure([[0, 1], [1, 2]], n_features=3)
        step, lam = float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.01, 2.0))
        p = ParameterSet.zeros(4, gs.expanded_size)
        p.imaging = omega = rng.normal(0, 2, size=4)
        candidate = first_trial(p, raw_design(seed, gs, 4), Hyperparameters(1.0, lam, 1.0),
                                np.zeros(p.flat().size), step)
        assert prox_ridge(omega, step, lam).tobytes() == candidate.imaging.tobytes()


class TestForeignGroups:
    """A same-size group layout that is not the design's own is rejected:
    its groups cut the design's expanded columns in other places."""

    @staticmethod
    def instance():
        data = generate(SyntheticSpec(n_samples=30, n_imaging=2, n_groups=3, group_size=3,
                                      seed=1))
        design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
        foreign = GroupStructure([[0, 1, 2, 3, 4], [5, 6, 7, 8]], 9)
        assert foreign.expanded_size == design.expanded_size == 9
        return design, foreign

    @pytest.mark.parametrize("call", [
        pytest.param(lambda design, gs, h: fit(design, gs, h), id="fit"),
        pytest.param(lambda design, gs, h: screen_lambda_max(design, gs), id="screen"),
        pytest.param(lambda design, gs, h: objective(ParameterSet.zeros(2, 9), design, gs, h),
                     id="objective"),
        pytest.param(lambda design, gs, h: log_posterior_unnormalized(
            ParameterSet.zeros(2, 9), design, gs, h), id="log_posterior"),
    ])
    def test_rejected(self, call):
        design, foreign = self.instance()
        with pytest.raises(ValueError) as err:
            call(design, foreign, default_hyper())
        assert str(err.value) == "groups must be the design's own GroupStructure"


class TestParameterUpdate:
    """The candidate of one line-search trial: the fit's parameter update at
    one step size."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_rejected(self, bad):
        d, gs, design = random_instance(52)
        p = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        grad = np.zeros(p.flat().size)
        grad[3] = bad
        with pytest.raises(ValueError) as err:
            line_search(p, design, default_hyper(), grad)
        assert str(err.value) == "gradient contains non-finite entries"

    def test_zero_gradient_zero_thresholds_is_fixed_point(self):
        d, gs, design = random_instance(50)
        p = random_params(51, design.n_imaging, gs.expanded_size)
        h = default_hyper(lambda_imaging=1e-300, lambda_genetic=1e-300,
                          lambda_interaction=1e-300)
        candidate = first_trial(p, design, h, np.zeros(p.flat().size), 1.0)
        np.testing.assert_allclose(candidate.flat(), p.flat(), rtol=1e-12)

    def test_zero_block_with_zero_thresholds_divides_nothing(self):
        # zero norms against zero thresholds must not be divided (0/0)
        gs = GroupStructure([[0, 1], [2]], n_features=3)
        p = ParameterSet.zeros(2, 3)
        h = default_hyper()
        # Hyperparameters rejects zero strengths, so zero them after construction.
        h.lambda_interaction = h.lambda_genetic = 0.0
        with np.errstate(all="raise"):
            candidate = first_trial(p, raw_design(53, gs, 2), h, np.zeros(p.flat().size), 1.0)
        assert candidate.flat().tobytes() == np.zeros(p.flat().size).tobytes()

    def test_screening_keeps_block_at_zero(self):
        # gradient block norm 10 against threshold 20: stays zero
        gs = GroupStructure([[0, 1]], n_features=2, weights=[1.0])
        p = ParameterSet.zeros(1, 2)
        grad = ParameterSet.zeros(1, 2)
        grad.genetic = [6.0, 8.0]
        h = default_hyper(lambda_genetic=20.0)
        candidate = first_trial(p, raw_design(54, gs, 1), h, grad.flat(), 1.0)
        np.testing.assert_array_equal(candidate.genetic, [0.0, 0.0])

    def test_blocks_match_prox_oracles(self):
        for seed in range(10):
            d, gs, design = random_instance(900 + seed)
            p = random_params(950 + seed, design.n_imaging, gs.expanded_size)
            rng = np.random.default_rng(980 + seed)
            grad = rng.normal(size=p.flat().size)
            h = default_hyper(
                lambda_interaction=float(rng.uniform(0.05, 0.5)),
                lambda_imaging=float(rng.uniform(0.05, 0.5)),
                lambda_genetic=float(rng.uniform(0.05, 0.5)),
            )
            step = float(rng.uniform(0.1, 1.0))
            upd = first_trial(p, design, h, grad, step)
            assert upd.flat().tobytes() == full_step(p, grad, step, gs, h).flat().tobytes()
            g = ParameterSet.from_flat(grad, p.n_imaging, p.expanded_size)
            gw = p.interaction - step * g.interaction
            # genetic blocks
            ggrad = g.genetic
            for l in range(gs.n_groups):
                blk = gs.block(l)
                omega = p.genetic[blk] - step * ggrad[blk]
                want = group_prox_oracle(omega, step * h.lambda_genetic * gs.weights[l])
                np.testing.assert_allclose(upd.genetic[blk], want, atol=1e-6)
                for i in range(design.n_imaging):
                    omega = gw[i, blk]
                    want = group_prox_oracle(
                        omega, step * h.lambda_interaction * gs.weights[l]
                    )
                    np.testing.assert_allclose(
                        upd.interaction[i, blk], want, atol=1e-6
                    )
            # imaging ridge block
            omega = p.imaging - step * g.imaging
            np.testing.assert_allclose(
                upd.imaging,
                ridge_prox_oracle(omega, step, h.lambda_imaging),
                atol=1e-6,
            )
            # intercept is a plain gradient step
            np.testing.assert_allclose(
                upd.intercept, p.intercept - step * grad[-1], rtol=1e-12
            )

    def test_variant_gating(self):
        # the search has no rule for pinned blocks: from a point the variant
        # admits, with the gradient fit passes, they stay exactly 0.0
        d, gs, design = random_instance(55)
        for variant in ("additive", "multiplicative"):
            p = pin_blocks(random_params(56, design.n_imaging, gs.expanded_size), variant)
            grad = risk_gradient(p, design, variant)
            upd = first_trial(p, design, default_hyper(variant=variant), grad, 1.0)
            assert_pinned_zero(upd, variant)
            assert upd.flat().any()


def steep_instance():
    """Large raw features: the line search must shrink below step 1.0."""
    rng = np.random.default_rng(61)
    gs = GroupStructure([[0, 1]], n_features=2)
    d = Dataset(
        rng.binomial(2, 0.5, size=(20, 2)).astype(float) * 30.0,
        rng.normal(0, 30, size=(20, 2)),
        rng.integers(0, 2, 20).astype(float),
    )
    return gs, Design.from_dataset(d, gs)


def cli_fixture_design():
    """The CLI tests' generated fixture (60 samples, 3 imaging features, 4
    groups of 3, seed 11), standardized."""
    data = generate(SyntheticSpec(
        n_samples=60, n_imaging=3, n_groups=4, group_size=3, n_active=2,
        effect_genetic=1.5, label_noise=0.1, seed=11,
    ))
    d, gs = data.dataset, data.groups
    return gs, make_design(d, gs, fit_scaler(d))


class TestBacktracking:
    def test_zero_gradient_accepts_initial_step(self):
        # with grad = 0 both sides of the acceptance inequality equal R_N
        d, gs, design = random_instance(60)
        p = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        grad = np.zeros(p.flat().size)
        candidate, step, shrinks, _ = line_search(p, design, default_hyper(), grad)
        assert shrinks == 0
        assert step == STEP_INIT
        assert candidate.flat().tobytes() == p.flat().tobytes()

    def test_accepted_step_satisfies_inequality(self):
        for seed in range(10):
            d, gs, design = random_instance(1100 + seed)
            p = random_params(1200 + seed, design.n_imaging, gs.expanded_size, scale=0.5)
            h = default_hyper()
            grad = risk_gradient(p, design)
            candidate, step, shrinks, cand_risk = line_search(p, design, h, grad)
            ghat = (p.flat() - candidate.flat()) / step
            bound = risk(p, design) - step * float(grad @ ghat) + 0.5 * step * float(
                ghat @ ghat
            )
            assert cand_risk <= bound + 1e-12
            np.testing.assert_allclose(step, STEP_INIT * BACKTRACK_FACTOR**shrinks)

    def test_steep_instance_shrinks(self):
        # large features force at least one shrink from step 1.0
        gs, design = steep_instance()
        p = random_params(62, 2, 2, scale=0.3)
        h = default_hyper()
        _, step, shrinks, _ = line_search(p, design, h, risk_gradient(p, design))
        assert shrinks >= 1
        np.testing.assert_allclose(step, BACKTRACK_FACTOR**shrinks)

    def test_start_above_step_init_shrinks_from_start(self):
        start = 40.0 * STEP_INIT
        shrunk = 0
        for seed in range(10):
            d, gs, design = random_instance(1100 + seed)
            p = random_params(1200 + seed, design.n_imaging, gs.expanded_size, scale=0.5)
            h = default_hyper()
            grad = risk_gradient(p, design)
            r = risk(p, design)
            candidate, step, shrinks, cand_risk = line_search(p, design, h, grad, start)
            shrunk += shrinks
            np.testing.assert_allclose(step, start * BACKTRACK_FACTOR**shrinks, rtol=1e-12)
            ghat = (p.flat() - candidate.flat()) / step
            bound = r - step * float(grad @ ghat) + 0.5 * step * float(ghat @ ghat)
            assert cand_risk <= bound + 1e-12
        assert shrunk > 0


def standardized_instance():
    """A planted instance with interaction effects, standardized."""
    data = synthetic_instance(1300, effect_interaction=1.0)
    return data.groups, make_design(data.dataset, data.groups, fit_scaler(data.dataset))


def pin_blocks(p, variant):
    """``p`` with the blocks ``variant`` pins set to zero."""
    if variant == "additive":
        p.interaction.fill(0.0)
    if variant == "multiplicative":
        p.imaging.fill(0.0)
        p.genetic.fill(0.0)
    return p


def assert_pinned_zero(p, variant):
    """Every entry of the blocks ``variant`` pins in ``p`` is 0.0, sign included."""
    assert p.flat().tobytes() == pin_blocks(p.copy(), variant).flat().tobytes()


class TestTrialsEqualFullStep:
    """Every trial of the line search scores the candidate of the
    full-buffer step at its step size, bit for bit."""

    @staticmethod
    def search_matching_full_updates(monkeypatch, p, design, gs, h, start):
        """Run one line search from ``start``, check that every candidate it
        scores equals :func:`full_step`'s at its step bit for bit, and return
        the number of shrinks."""
        grad = risk_gradient(p, design, h.variant)
        scored, real = [], solver.risk

        def recording(candidate, *args):
            scored.append(candidate.flat().copy())
            return real(candidate, *args)

        monkeypatch.setattr(solver, "risk", recording)
        _, step, shrinks, _ = line_search(p, design, h, grad, start)
        assert len(scored) == shrinks + 1
        trial = start
        for buf in scored:
            assert buf.tobytes() == full_step(p, grad, trial, gs, h).flat().tobytes()
            trial *= BACKTRACK_FACTOR
        assert trial == step * BACKTRACK_FACTOR
        return shrinks

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_steep_instance(self, monkeypatch, variant):
        gs, design = steep_instance()
        p = pin_blocks(random_params(62, 2, 2, scale=0.3), variant)
        h = default_hyper(variant=variant)
        assert self.search_matching_full_updates(monkeypatch, p, design, gs, h, STEP_INIT) >= 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fitted_point_searched_from_above(self, monkeypatch, variant):
        gs, design = standardized_instance()
        h = default_hyper(variant=variant)
        p, _ = fit(design, gs, h)
        start = 40.0 * STEP_INIT
        assert self.search_matching_full_updates(monkeypatch, p, design, gs, h, start) >= 3

    @pytest.mark.parametrize("factor", [1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52])
    def test_zero_block_at_its_threshold(self, monkeypatch, factor):
        # lambda_interaction puts the threshold of the zero block with the
        # largest weighted gradient norm on that norm, to within rounding
        gs, design = standardized_instance()
        p, _ = fit(design, gs, default_hyper())
        g = ParameterSet.from_flat(risk_gradient(p, design), p.n_imaging, p.expanded_size)
        ratios = np.sqrt(np.add.reduceat(g.interaction**2, gs.offsets, axis=1)) / gs.weights
        ratios[np.logical_or.reduceat(p.interaction, gs.offsets, axis=1)] = 0.0
        row, group = np.unravel_index(np.argmax(ratios), ratios.shape)
        assert ratios[row, group] > 0.0
        h = default_hyper(lambda_interaction=factor * ratios[row, group])
        start = 40.0 * STEP_INIT
        assert self.search_matching_full_updates(monkeypatch, p, design, gs, h, start) >= 3


class TestPinnedPaths:
    """Iterations, per-iteration backtracks and stop reasons of restarted
    monotone FISTA with the carried step and the certified stop."""

    def test_steep_instance_fit(self):
        # the raw x30 instance is badly conditioned: after 300 iterations its
        # gap is still most of the objective, so the certified stop leaves it
        # at the cap (10,000 iterations reach P = 0.5091 and do not certify)
        gs, design = steep_instance()
        _, state = fit(design, gs, default_hyper(max_iters=300))
        backtracks = [rec.backtracks for rec in state.history[1:]]
        assert (state.iterations, state.stop_reason, sum(backtracks)) == (300, "max_iters", 261)
        assert backtracks[:24] == [60, 0, 0, 0, 0, 0, 0, 0, 2, 4, 0, 0,
                                   0, 0, 0, 0, 0, 0, 5, 3, 0, 0, 0, 0]
        assert zlib.crc32(",".join(map(str, backtracks)).encode()) == 2851267717
        assert state.gap > 0.5 * state.history[-1].total

    @pytest.mark.parametrize("c, iterations, backtracks, crc", [
        (0.3, 13, 6, 1859269455), (0.001, 85, 41, 1086336925),
    ], ids=["0.3", "0.001"])
    def test_cli_fixture_fit(self, c, iterations, backtracks, crc):
        gs, design = cli_fixture_design()
        bounds = screen_lambda_max(design, gs)
        h = Hyperparameters(
            c * bounds.lambda_interaction_max, 0.01, c * bounds.lambda_genetic_max
        )
        _, state = fit(design, gs, h)
        counts = [rec.backtracks for rec in state.history]
        assert (state.iterations, state.stop_reason, sum(counts)) == (
            iterations, "converged", backtracks)
        assert zlib.crc32(",".join(map(str, counts)).encode()) == crc
        assert state.gap <= solver.GAP_GATE * h.tol * state.history[-1].total


class TestStepGrowth:
    def test_steep_instance_never_starts_above_step_init(self):
        gs, design = steep_instance()
        _, state = fit(design, gs, default_hyper(max_iters=20))
        assert any(rec.backtracks for rec in state.history)
        assert all(rec.step <= STEP_INIT for rec in state.history)

    def test_weak_penalty_fit_grows_step_and_stops_near_optimum(self):
        gs, design = cli_fixture_design()
        bounds = screen_lambda_max(design, gs)
        h = Hyperparameters(
            0.001 * bounds.lambda_interaction_max, 0.01, 0.001 * bounds.lambda_genetic_max
        )
        _, state = fit(design, gs, h)
        # a certified reference: reference_solve's gate (4e-8 P) lies below what
        # this nearly separable instance's float objective can certify
        _, ref = fit(design, gs, dataclasses.replace(h, tol=1e-8))
        assert state.converged and ref.converged
        assert state.iterations <= 300
        best = ref.history[-1].total
        assert 0.0 <= state.history[-1].total - best
        # best - ref.gap is a lower bound on the optimum
        assert state.history[-1].total - (best - ref.gap) <= 5e-3 * best
        assert max(rec.step for rec in state.history) > STEP_INIT

    @pytest.mark.parametrize("c", [0.3, 0.001])
    def test_first_trial_follows_hold_rule(self, monkeypatch, c):
        searches = []  # (first trial, accepted step, shrinks) per iteration

        real = solver._line_search

        def recording(*args):
            result = real(*args)
            searches.append((args[5], result[1], result[2]))
            return result

        monkeypatch.setattr(solver, "_line_search", recording)
        gs, design = cli_fixture_design()
        bounds = screen_lambda_max(design, gs)
        h = Hyperparameters(
            c * bounds.lambda_interaction_max, 0.01, c * bounds.lambda_genetic_max
        )
        _, state = fit(design, gs, h)
        assert len(searches) == state.iterations
        assert searches[0][0] == STEP_INIT
        for (_, step, shrinks), (trial, _, _) in zip(searches, searches[1:]):
            # grow after a first-trial acceptance, hold after a shrink
            assert trial == (step / BACKTRACK_FACTOR if shrinks == 0 else step)
        assert {shrinks > 0 for _, _, shrinks in searches} == {False, True}


class TestDualityGap:
    """The gap bounds the distance of the returned objective to the optimum."""

    @staticmethod
    def instance(kind):
        data = synthetic_instance(1400, effect_interaction=1.0)
        gs = data.groups
        if kind == "raw":
            return gs, Design.from_dataset(data.dataset, gs)
        return gs, make_design(data.dataset, gs, fit_scaler(data.dataset))

    @pytest.mark.parametrize("kind", ["standardized", "raw"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gap_bounds_distance_to_reference(self, variant, kind):
        gs, design = self.instance(kind)
        h = default_hyper(variant=variant)
        p_ref, ref = reference_solve(design, gs, h)
        best = objective(p_ref, design, gs, h).total
        assert ref.gap <= solver.GAP_GATE * 1e-10 * best
        for max_iters in (1, 2, 5, 20, h.max_iters):
            p, state = fit(design, gs, dataclasses.replace(h, max_iters=max_iters))
            total = objective(p, design, gs, h).total
            assert state.history[-1].total == total
            assert state.gap >= total - best - 1e-15
        assert state.converged and state.gap <= solver.GAP_GATE * h.tol * total

    def test_near_separable_labels_keep_the_residual_signs(self, monkeypatch):
        # at lambda_G = 0.001 on 20 samples some |r_k| falls below |mean(r)|:
        # centring would turn that residual out of [0, 1], so the dual point
        # scales each side of r instead, at the cost of one more product
        data = generate(SyntheticSpec(n_samples=20, n_imaging=3, n_groups=4, group_size=3,
                                      n_active=2, effect_genetic=1.5, label_noise=0.1, seed=0))
        gs = data.groups
        design = make_design(data.dataset, gs, fit_scaler(data.dataset))
        h = Hyperparameters(1.0, 1.0, 0.001)
        products = count_calls(monkeypatch, solver, "_transposed_product")
        _, state = fit(design, gs, h)
        # the column means, then the one stop test that scaled the sides
        assert state.converged and len(products) == 2
        p_ref, _ = reference_solve(design, gs, h)
        best = objective(p_ref, design, gs, h).total
        total = state.history[-1].total
        assert total - best <= state.gap <= solver.GAP_GATE * h.tol * total

    @pytest.mark.parametrize("c", [0.3, 0.6])
    def test_gap_is_a_float(self, c):
        # at c = 0.6 a numpy term bounds alpha; the state still holds a float
        gs, design = cli_fixture_design()
        bounds = screen_lambda_max(design, gs)
        h = Hyperparameters(c * bounds.lambda_interaction_max, 0.01, c * bounds.lambda_genetic_max)
        _, state = fit(design, gs, h)
        assert type(state.gap) is float

    def test_one_class_gap_is_the_objective(self):
        # the only dual point is 0 and the risk's infimum 0, so gap >= P; the
        # fit certifies once P has fallen to the rounding of its terms
        d, gs, design = random_instance(72)
        d = Dataset(d.genetic, d.imaging, np.ones(d.n_samples))
        design = Design.from_dataset(d, gs)
        _, state = fit(design, gs, default_hyper())
        total = state.history[-1].total
        assert state.converged
        assert total <= 1e-12 and total <= state.gap <= 1.5 * total


def record_gradient_calls(monkeypatch):
    """Wrap the solver's ``risk_gradient`` so every call appends its point
    and its ``blocks`` mask to the returned list."""
    calls = []
    real = solver.risk_gradient

    def recording(p, design, variant="multilevel", **kwargs):
        calls.append((p, kwargs.get("blocks")))
        return real(p, design, variant, **kwargs)

    monkeypatch.setattr(solver, "risk_gradient", recording)
    return calls


class TestWorkingSet:
    """A fit on 500 interaction blocks solves on a working set of them and
    certifies the result on the full problem."""

    @staticmethod
    def problem(variant="multilevel", c=0.3):
        data = mid_instance(41)
        gs = data.groups
        design = make_design(data.dataset, gs, fit_scaler(data.dataset))
        bounds = screen_lambda_max(design, gs)
        h = Hyperparameters(c * bounds.lambda_interaction_max, 0.05,
                            c * bounds.lambda_genetic_max, variant=variant)
        return design, gs, h

    @staticmethod
    def block_ratios(p, design, gs, variant):
        g = ParameterSet.from_flat(risk_gradient(p, design, variant),
                                   design.n_imaging, gs.expanded_size)
        return np.sqrt(np.add.reduceat(g.interaction**2, gs.offsets, axis=1)) / gs.weights

    @pytest.mark.parametrize("set_min", [solver.WORKING_SET_MIN, 30])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_certified_on_the_full_problem(self, monkeypatch, variant, set_min):
        # with a seed of 30 blocks the checks find violators outside and admit
        # them; the additive gradient pins every interaction block, so none is
        # admitted and its set stays the seed
        monkeypatch.setattr(solver, "WORKING_SET_MIN", set_min)
        design, gs, h = self.problem(variant)
        n_blocks = design.n_imaging * gs.n_groups
        calls = record_gradient_calls(monkeypatch)
        p, state = fit(design, gs, h)
        assert state.converged
        assert set_min <= state.working_set_blocks <= n_blocks // 2
        assert state.full_checks >= 1
        # the last gradient was taken on the final set; every block outside
        # it meets its optimality condition at that point
        y, blocks = calls[-1]
        assert blocks is not None and np.count_nonzero(blocks) == state.working_set_blocks
        assert (self.block_ratios(y, design, gs, variant)[~blocks] <= h.lambda_interaction).all()
        live = np.logical_or.reduceat(p.interaction, gs.offsets, axis=1)
        assert not (live & ~blocks).any()
        monkeypatch.undo()
        p_ref, _ = reference_solve(design, gs, h)
        best = objective(p_ref, design, gs, h).total
        total = state.history[-1].total
        assert total - best <= state.gap <= solver.GAP_GATE * h.tol * total
        if set_min < solver.WORKING_SET_MIN and variant != "additive":
            assert state.working_set_blocks > set_min

    @pytest.mark.parametrize("max_iters", [8, 12])
    def test_gap_at_the_cap_comes_from_the_full_product(self, monkeypatch, max_iters):
        # a 30-block seed leaves the set partial at the cap: the gap is taken
        # from the full product of the last gradient's residuals, not from
        # that gradient, whose blocks outside the set are zero
        monkeypatch.setattr(solver, "WORKING_SET_MIN", 30)
        design, gs, h = self.problem()
        h = dataclasses.replace(h, max_iters=max_iters)
        points, real = [], solver.risk_gradient

        def recording(p, *args, **kwargs):
            points.append(p.copy())  # y may be the reused extrapolation buffer
            return real(p, *args, **kwargs)

        monkeypatch.setattr(solver, "risk_gradient", recording)
        _, state = fit(design, gs, h)
        assert state.stop_reason == "max_iters" and len(points) == max_iters
        assert state.working_set_blocks < design.n_imaging * gs.n_groups
        parts = {}
        full = risk_gradient(points[-1], design, h.variant, parts=parts)
        col_means = solver._transposed_product(np.ones(design.n_samples), design, h.variant)
        total = state.history[-1].total
        gap = solver._duality_gap(total, full, parts["residual"], col_means, design, h)
        assert state.gap.hex() == gap.hex()
        monkeypatch.undo()
        p_ref, _ = reference_solve(design, gs, h)
        assert total - objective(p_ref, design, gs, h).total <= state.gap

    @pytest.mark.parametrize("variant", ["additive", "multiplicative"])
    def test_pinned_blocks_stay_zero_in_every_candidate(self, monkeypatch, variant):
        # every point the fit scores, its start and each trial's candidate
        design, gs, h = self.problem(variant)
        scored, real = [], solver.risk

        def scoring(p, *args):
            scored.append(p.copy())
            return real(p, *args)

        monkeypatch.setattr(solver, "risk", scoring)
        _, state = fit(design, gs, h)
        assert state.converged and state.working_set_blocks < design.n_imaging * gs.n_groups
        backtracks = sum(rec.backtracks for rec in state.history)
        assert len(scored) == 1 + state.iterations + backtracks
        for p in scored:
            assert_pinned_zero(p, variant)

    def test_call_identities(self, monkeypatch):
        design, gs, h = self.problem()
        risks = count_calls(monkeypatch, solver, "risk")
        gradients = count_calls(monkeypatch, solver, "risk_gradient")
        _, state = fit(design, gs, h)
        assert state.working_set_blocks < design.n_imaging * gs.n_groups
        backtracks = sum(rec.backtracks for rec in state.history)
        assert len(risks) == 1 + state.iterations + backtracks
        assert len(gradients) == state.iterations

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_line_search_moves_only_the_set(self, monkeypatch, variant):
        # a 30-block seed leaves most of the 500 blocks outside the set: every
        # trial is the full-buffer step, at its step size, of the gradient
        # zeroed outside the set, bit for bit, and every entry outside the set
        # stays 0.0 in y and in each candidate
        monkeypatch.setattr(solver, "WORKING_SET_MIN", 30)
        design, gs, h = self.problem(variant)
        sets, searches, scored = [], [], []  # searches: (y, grad, first trial, first scored)
        real_seed, real_search, real_risk = (
            solver._seed_working_set, solver._line_search, solver.risk)

        def seeding(*args):
            blocks = real_seed(*args)
            sets.append(blocks.copy())
            return blocks

        def searching(y, design, h, grad, risk_y, step, entries):
            searches.append((y.flat().copy(), grad.copy(), step, len(scored)))
            return real_search(y, design, h, grad, risk_y, step, entries)

        def scoring(candidate, *args):
            scored.append(candidate.flat().copy())
            return real_risk(candidate, *args)

        calls = record_gradient_calls(monkeypatch)
        monkeypatch.setattr(solver, "_seed_working_set", seeding)
        monkeypatch.setattr(solver, "_line_search", searching)
        monkeypatch.setattr(solver, "risk", scoring)
        p, state = fit(design, gs, h)
        backtracks = sum(rec.backtracks for rec in state.history)
        assert state.converged and state.full_checks >= 1
        assert len(scored) == 1 + state.iterations + backtracks
        assert len(calls) == len(searches) == state.iterations
        # the set of each search: the seed, then the mask of its gradient
        sets += [blocks.copy() for _, blocks in calls[1:]]
        ends = [first for *_, first in searches[1:]] + [len(scored)]
        n_w, shape = p.interaction.size, p.interaction.shape
        for (y, grad, trial, first), end, blocks in zip(searches, ends, sets):
            outside = ~blocks.repeat(gs.sizes, axis=1).ravel()
            assert not y[:n_w][outside].any()
            y = ParameterSet.from_flat(y, *shape)
            grad[:n_w][outside] = 0.0  # the search reads only the set's entries
            for candidate in scored[first:end]:
                assert not candidate[:n_w][outside].any()
                assert candidate.tobytes() == full_step(y, grad, trial, gs, h).flat().tobytes()
                trial *= BACKTRACK_FACTOR
        # x is the start or an accepted candidate, and the set only grows
        assert not p.interaction[~sets[-1].repeat(gs.sizes, axis=1)].any()

    def test_warm_start_set_holds_the_live_blocks_of_init(self, monkeypatch):
        design, gs, h = self.problem(c=0.6)
        init, _ = fit(design, gs, h)
        live = np.logical_or.reduceat(init.interaction, gs.offsets, axis=1)
        assert 0 < np.count_nonzero(live) <= 50  # so that a set forms
        calls = record_gradient_calls(monkeypatch)
        weaker = dataclasses.replace(h, lambda_interaction=0.8 * h.lambda_interaction)
        _, state = fit(design, gs, weaker, init=init)
        assert state.converged and len(calls) >= 2
        # the first gradient is full; the set seeded from it covers init
        first, seeded = calls[0][1], calls[1][1]
        assert first.all() and not seeded.all()
        assert not (live & ~seeded).any()

    def test_warm_start_with_every_block_live_keeps_the_whole_set(self, monkeypatch):
        # no block is left to seed from the gradient (k == 0), so the set is whole
        design, gs, h = self.problem()
        init = random_params(43, design.n_imaging, gs.expanded_size, scale=0.01)
        assert np.logical_or.reduceat(init.interaction, gs.offsets, axis=1).all()
        calls = record_gradient_calls(monkeypatch)
        _, state = fit(design, gs, h, init=init)
        assert state.converged
        assert (state.working_set_blocks, state.full_checks) == (design.n_imaging * gs.n_groups, 0)
        assert all(blocks.all() for _, blocks in calls)

    def test_set_past_half_of_the_blocks_is_kept(self, monkeypatch):
        # a seed of half the 500 blocks admits a violator and passes half:
        # the later gradients run the dense kernel, zeroed outside the set
        monkeypatch.setattr(solver, "WORKING_SET_MIN", 250)
        design, gs, h = self.problem(c=0.1)
        n_blocks = design.n_imaging * gs.n_groups
        calls = record_gradient_calls(monkeypatch)
        p, state = fit(design, gs, h)
        assert state.converged and state.full_checks >= 2
        assert n_blocks // 2 < state.working_set_blocks < n_blocks
        y, blocks = calls[-1]
        assert np.count_nonzero(blocks) == state.working_set_blocks
        assert (self.block_ratios(y, design, gs, h.variant)[~blocks] <= h.lambda_interaction).all()
        live = np.logical_or.reduceat(p.interaction, gs.offsets, axis=1)
        assert not (live & ~blocks).any()

    def test_no_set_on_a_small_design(self, monkeypatch):
        # 200 seeded blocks cover all 12: the set is whole and never checked
        data = synthetic_instance(42, effect_interaction=1.0)
        design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
        calls = record_gradient_calls(monkeypatch)
        _, state = fit(design, data.groups, default_hyper())
        assert state.converged
        assert (state.working_set_blocks, state.full_checks) == (3 * 4, 0)
        assert all(blocks.shape == (3, 4) and blocks.all() for _, blocks in calls)


class TestFit:
    def test_all_positive_labels_intercept_only(self):
        # huge penalties force everything except the intercept to zero and
        # the fitted probabilities approach 1
        rng = np.random.default_rng(63)
        gs = GroupStructure([[0, 1], [1, 2]], n_features=3)
        d = Dataset(
            rng.binomial(2, 0.4, size=(25, 3)).astype(float),
            rng.normal(size=(25, 2)),
            np.ones(25),
        )
        design = Design.from_dataset(d, gs)
        h = default_hyper(
            lambda_interaction=50.0, lambda_imaging=50.0, lambda_genetic=50.0
        )
        p, state = fit(design, gs, h)
        assert not p.interaction.any()
        assert not p.genetic.any()
        assert p.intercept > 3.0
        probs = sigmoid(margins(p, design))
        assert probs.min() > 0.95

    def test_trace_non_increasing_and_stopping_rule(self):
        for seed in range(6):
            data = synthetic_instance(1300 + seed, label_noise=0.15)
            design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
            h = default_hyper(tol=1e-5)
            p, state = fit(design, data.groups, h)
            trace = state.trace
            assert np.all(np.diff(trace) <= 1e-12)
            assert state.converged
            assert state.stop_reason == "converged"
            assert state.iterations == len(state.history) - 1 == trace.size - 1
            assert state.history[-1].iteration == state.iterations
            assert abs(trace[-1] - trace[-2]) <= h.tol * abs(trace[-2])

    def test_reported_objective_matches_recomputation(self):
        data = synthetic_instance(64)
        design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
        h = default_hyper()
        p, state = fit(design, data.groups, h)
        val = objective(p, design, data.groups, h)
        np.testing.assert_allclose(state.history[-1].total, val.total, rtol=1e-12)

    def test_above_screening_bound_all_zero(self):
        data = synthetic_instance(65, effect_genetic=1.5)
        design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
        bounds = screen_lambda_max(design, data.groups)
        h = Hyperparameters(
            1.05 * bounds.lambda_interaction_max,
            0.5,
            1.05 * bounds.lambda_genetic_max,
        )
        p, _ = fit(design, data.groups, h)
        assert not p.genetic.any()
        assert not p.interaction.any()

    def test_ridge_only_matches_independent_optimizer(self):
        # huge group penalties leave a smooth ridge-logistic problem in
        # (imaging, intercept); scipy BFGS solves it independently
        data = synthetic_instance(66, n_samples=50, effect_imaging=1.0)
        gs = data.groups
        design = make_design(data.dataset, gs, fit_scaler(data.dataset))
        h = Hyperparameters(1e6, 0.1, 1e6, tol=1e-12)
        p, state = fit(design, gs, h)
        assert not p.interaction.any() and not p.genetic.any()

        zi = design.imaging
        y = design.labels

        def smooth(theta):
            m = zi @ theta[:-1] + theta[-1]
            r = np.mean(np.logaddexp(0.0, m) - y * m)
            return r + 0.1 * float(theta[:-1] @ theta[:-1])

        res = optimize.minimize(
            smooth,
            np.zeros(zi.shape[1] + 1),
            method="BFGS",
            options={"gtol": 1e-12, "maxiter": 2000},
        )
        ours = objective(p, design, gs, h).total
        assert ours <= res.fun + 1e-6
        np.testing.assert_allclose(ours, res.fun, atol=1e-6)
        np.testing.assert_allclose(p.imaging, res.x[:-1], atol=1e-4)
        np.testing.assert_allclose(p.intercept, res.x[-1], atol=1e-4)

    def test_variant_invariants_throughout(self):
        data = synthetic_instance(67, effect_interaction=1.0)
        design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
        p, _ = fit(design, data.groups, default_hyper(variant="additive"))
        assert not p.interaction.any()
        p, _ = fit(design, data.groups, default_hyper(variant="multiplicative"))
        assert not p.imaging.any() and not p.genetic.any()

    def test_warm_start_respects_variant(self):
        data = synthetic_instance(68)
        design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
        init = ParameterSet.zeros(design.n_imaging, data.groups.expanded_size)
        init.interaction[0, 0] = 1.0
        with pytest.raises(ValueError, match="additive variant pins the interaction block"):
            fit(design, data.groups, default_hyper(variant="additive"), init=init)

    @pytest.mark.parametrize("block", ["imaging", "genetic"])
    def test_warm_start_respects_multiplicative_variant(self, block):
        d, gs, design = random_instance(68)
        init = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        getattr(init, block)[0] = 1.0
        with pytest.raises(
            ValueError, match="multiplicative variant pins the %s block at zero" % block
        ):
            fit(design, gs, default_hyper(variant="multiplicative"), init=init)

    def test_groups_of_other_size_rejected(self):
        d, gs, design = random_instance(68)
        other = GroupStructure([[0, 1, 2]], n_features=3)
        with pytest.raises(ValueError, match="^groups must be the design's own GroupStructure$"):
            fit(design, other, default_hyper())

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_objective_raises(self):
        d, gs, design = random_instance(69)
        init = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        init.intercept = np.finfo(float).max / 4
        with pytest.raises(SolverFailure, match="objective is non-finite at the initial point"):
            fit(design, gs, default_hyper(), init=init)

    @staticmethod
    def infinite_after_first_call(monkeypatch, name):
        """Make the solver's ``name`` (risk or penalty) return inf from its
        second call on; returns the list of calls made."""
        original, calls = getattr(solver, name), []

        def patched(*args):
            calls.append(args)
            return original(*args) if len(calls) == 1 else np.inf

        monkeypatch.setattr(solver, name, patched)
        return calls

    def test_line_search_failure_raises(self, monkeypatch):
        d, gs, design = random_instance(69)
        calls = self.infinite_after_first_call(monkeypatch, "risk")
        with pytest.raises(
            SolverFailure,
            match="line search failed: %d shrinkages reached step" % solver.MAX_BACKTRACKS,
        ):
            fit(design, gs, default_hyper())
        # the initial risk, then one trial per step of the failed search
        assert len(calls) == 1 + solver.MAX_BACKTRACKS + 1

    def test_diverged_objective_raises(self, monkeypatch):
        d, gs, design = random_instance(69)
        calls = self.infinite_after_first_call(monkeypatch, "penalty")
        with pytest.raises(SolverFailure, match="objective diverged at iteration 1$"):
            fit(design, gs, default_hyper())
        assert len(calls) == 2

    def test_max_iters_cap_reported(self):
        data = synthetic_instance(70)
        design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
        p, state = fit(design, data.groups, default_hyper(tol=1e-14, max_iters=3))
        assert not state.converged
        assert state.stop_reason == "max_iters"
        assert state.iterations == 3 == len(state.history) - 1
        assert [f.name for f in dataclasses.fields(state)] == [
            "history", "stop_reason", "gap", "working_set_blocks", "full_checks"]

    def test_stalled_line_search_reported(self):
        # at tol 1e-10 this nearly separable fit cannot certify in float64;
        # once a search from x itself no longer lowers the objective, it
        # cannot fall further, so the fit stops instead of spinning to the cap
        gs, design = cli_fixture_design()
        bounds = screen_lambda_max(design, gs)
        h = Hyperparameters(0.001 * bounds.lambda_interaction_max, 0.01,
                            0.001 * bounds.lambda_genetic_max, tol=1e-10)
        _, state = fit(design, gs, h)
        assert (state.stop_reason, state.converged) == ("stalled", False)
        assert state.iterations < 1000
        assert state.history[-1].total == state.history[-2].total
        assert np.isfinite(state.gap)
        assert state.gap > solver.GAP_GATE * h.tol * state.history[-1].total


class TestScreening:
    def test_balanced_labels_zero_features(self):
        gs = GroupStructure([[0, 1]], n_features=2)
        d = Dataset(
            np.zeros((6, 2)),
            np.zeros((6, 2)),
            np.array([0.0, 1.0] * 3),
        )
        design = Design.from_dataset(d, gs)
        bounds = screen_lambda_max(design, gs)
        assert bounds.lambda_genetic_max == 0.0
        assert bounds.lambda_interaction_max == 0.0

    def test_single_sample_positive_label(self):
        # residual at zero is -0.5, so the bound is 0.5 ||xG|| / theta
        gs = GroupStructure([[0, 1, 2]], n_features=3)
        xg = np.array([[1.0, 2.0, 2.0]])
        d = Dataset(xg, np.array([[1.0]]), np.array([1.0]))
        design = Design.from_dataset(d, gs)
        bounds = screen_lambda_max(design, gs)
        want = 0.5 * np.linalg.norm(xg[0]) / gs.weights[0]
        np.testing.assert_allclose(bounds.lambda_genetic_max, want, rtol=1e-12)

    def test_bounds_match_gradient_blocks(self):
        data = synthetic_instance(71, effect_genetic=1.2, effect_interaction=1.0)
        gs = data.groups
        design = make_design(data.dataset, gs, fit_scaler(data.dataset))
        bounds = screen_lambda_max(design, gs)
        p0 = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        grad = ParameterSet.from_flat(
            risk_gradient(p0, design), design.n_imaging, gs.expanded_size
        )
        gw, gg = grad.interaction, grad.genetic
        for l in range(gs.n_groups):
            blk = gs.block(l)
            np.testing.assert_allclose(
                bounds.genetic_bounds[l],
                np.linalg.norm(gg[blk]) / gs.weights[l],
                rtol=1e-12,
            )
            np.testing.assert_allclose(
                bounds.interaction_bounds[l],
                max(np.linalg.norm(gw[i, blk]) for i in range(design.n_imaging))
                / gs.weights[l],
                rtol=1e-12,
            )
        np.testing.assert_allclose(
            bounds.lambda_genetic_max, bounds.genetic_bounds.max(), rtol=1e-15
        )
