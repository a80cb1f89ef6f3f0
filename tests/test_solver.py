import dataclasses

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
from structprox import solver
from structprox.objective import Design, objective, risk, risk_gradient, sigmoid, margins
from structprox.preprocessing import fit_scaler, make_design
from structprox.solver import (
    BACKTRACK_FACTOR,
    GROWTH_MARGIN,
    STEP_INIT,
    backtracking_step,
    parameter_update,
    prox_group,
    prox_ridge,
)

from conftest import default_hyper, random_instance, random_params, synthetic_instance


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


class TestParameterUpdate:
    def test_zero_gradient_zero_thresholds_is_fixed_point(self):
        d, gs, design = random_instance(50)
        p = random_params(51, design.n_imaging, gs.expanded_size)
        h = default_hyper(lambda_imaging=1e-300, lambda_genetic=1e-300,
                          lambda_interaction=1e-300)
        candidate = parameter_update(p, np.zeros(p.flat().size), 1.0, gs, h)
        np.testing.assert_allclose(candidate.flat(), p.flat(), rtol=1e-12)

    def test_zero_block_with_zero_thresholds_divides_nothing(self):
        # zero norms against zero thresholds must not be divided (0/0)
        gs = GroupStructure([[0, 1], [2]], n_features=3)
        p = ParameterSet.zeros(2, 3)
        h = default_hyper()
        # Hyperparameters rejects zero strengths, so zero them after construction.
        h.lambda_interaction = h.lambda_genetic = 0.0
        with np.errstate(all="raise"):
            candidate = parameter_update(p, np.zeros(p.flat().size), 1.0, gs, h)
        assert candidate.flat().tobytes() == np.zeros(p.flat().size).tobytes()

    def test_gradient_of_wrong_length_rejected(self):
        d, gs, design = random_instance(52)
        p = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        with pytest.raises(ValueError, match="gradient has shape"):
            parameter_update(p, np.zeros(1), 1.0, gs, default_hyper())

    def test_screening_keeps_block_at_zero(self):
        # gradient block norm 10 against threshold 20: stays zero
        gs = GroupStructure([[0, 1]], n_features=2, weights=[1.0])
        p = ParameterSet.zeros(1, 2)
        grad = ParameterSet.zeros(1, 2)
        grad.genetic = [6.0, 8.0]
        h = default_hyper(lambda_genetic=20.0)
        candidate = parameter_update(p, grad.flat(), 1.0, gs, h)
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
            upd = parameter_update(p, grad, step, gs, h)
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
        d, gs, design = random_instance(55)
        p = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        rng = np.random.default_rng(56)
        grad = rng.normal(size=p.flat().size)
        upd = parameter_update(p, grad, 1.0, gs, default_hyper(variant="additive"))
        assert not upd.interaction.any()
        upd = parameter_update(
            p, grad, 1.0, gs, default_hyper(variant="multiplicative")
        )
        assert not upd.imaging.any()
        assert not upd.genetic.any()


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
        h = default_hyper()
        _, step, shrinks, _, curvature = backtracking_step(
            p, design, gs, h, grad=grad, risk_current=risk(p, design)
        )
        assert shrinks == 0
        assert step == STEP_INIT
        # the candidate equals p: a zero move measures no curvature
        assert curvature == 0.0

    def test_accepted_step_satisfies_inequality(self):
        for seed in range(10):
            d, gs, design = random_instance(1100 + seed)
            p = random_params(1200 + seed, design.n_imaging, gs.expanded_size, scale=0.5)
            h = default_hyper()
            grad = risk_gradient(p, design)
            candidate, step, shrinks, cand_risk, _ = backtracking_step(
                p, design, gs, h, grad, risk(p, design)
            )
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
        _, step, shrinks, _, _ = backtracking_step(
            p, design, gs, h, risk_gradient(p, design), risk(p, design)
        )
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
            candidate, step, shrinks, cand_risk, curvature = backtracking_step(
                p, design, gs, h, grad, r, start
            )
            shrunk += shrinks
            np.testing.assert_allclose(step, start * BACKTRACK_FACTOR**shrinks, rtol=1e-12)
            ghat = (p.flat() - candidate.flat()) / step
            bound = r - step * float(grad @ ghat) + 0.5 * step * float(ghat @ ghat)
            assert cand_risk <= bound + 1e-12
            # the returned curvature is that of the accepted move, and the
            # acceptance inequality bounds it by 1 / step
            move = candidate.flat() - p.flat()
            want = 2.0 * (cand_risk - r - float(grad @ move)) / float(move @ move)
            np.testing.assert_allclose(curvature, want, rtol=1e-7)
            assert curvature <= (1.0 + 1e-9) / step
        assert shrunk > 0


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
        _, ref = fit(design, gs, dataclasses.replace(h, tol=1e-13))
        assert state.converged and ref.converged
        assert state.iterations <= 300
        best = ref.history[-1].total
        assert 0.0 <= state.history[-1].total - best <= 5e-3 * best
        assert max(rec.step for rec in state.history) > STEP_INIT

    @pytest.mark.parametrize("c", [0.3, 0.001])
    def test_first_trial_follows_curvature_capped_growth(self, monkeypatch, c):
        searches = []  # (first trial, accepted step, curvature) per iteration

        def recording(*args):
            result = backtracking_step(*args)
            searches.append((args[6], result[1], result[4]))
            return result

        monkeypatch.setattr(solver, "backtracking_step", recording)
        gs, design = cli_fixture_design()
        bounds = screen_lambda_max(design, gs)
        h = Hyperparameters(
            c * bounds.lambda_interaction_max, 0.01, c * bounds.lambda_genetic_max
        )
        _, state = fit(design, gs, h)
        assert len(searches) == state.iterations
        assert searches[0][0] == STEP_INIT
        capped = 0
        for (_, step, curvature), (trial, _, _) in zip(searches, searches[1:]):
            grown = step / BACKTRACK_FACTOR
            cap = GROWTH_MARGIN / curvature if curvature > 0 else np.inf
            assert trial == max(STEP_INIT, min(grown, cap))
            capped += cap < grown
        # the curvature, not the growth factor, sets most trials
        assert capped > len(searches) / 2


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
        with pytest.raises(ValueError):
            fit(design, data.groups, default_hyper(variant="additive"), init=init)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_objective_raises(self):
        d, gs, design = random_instance(69)
        init = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        init.intercept = np.finfo(float).max / 4
        with pytest.raises(SolverFailure):
            fit(design, gs, default_hyper(), init=init)

    def test_max_iters_cap_reported(self):
        data = synthetic_instance(70)
        design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
        p, state = fit(design, data.groups, default_hyper(tol=1e-14, max_iters=3))
        assert not state.converged
        assert state.stop_reason == "max_iters"
        assert state.iterations == 3 == len(state.history) - 1
        assert [f.name for f in dataclasses.fields(state)] == ["history", "stop_reason"]


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
