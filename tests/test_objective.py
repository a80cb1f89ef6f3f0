import importlib
import tracemalloc

import numpy as np
import pytest

from structprox import Dataset, GroupStructure, ParameterSet
from structprox.objective import (
    Design,
    _log1p_exp,
    log_posterior_unnormalized,
    margins,
    objective,
    penalty,
    risk,
    risk_gradient,
    sigmoid,
)
from structprox.preprocessing import ScalingRecord
from structprox.synthetic import finite_difference_gradient

from conftest import (
    default_hyper,
    mid_instance,
    random_instance,
    random_params,
    synthetic_instance,
    tiny_groups,
)


def test_package_attribute_is_the_module():
    # the package does not re-export the function under its module's name
    import structprox.objective as module

    assert module.__name__ == "structprox.objective"
    assert module.objective is objective and callable(objective)


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        t = rng.normal(0, 10, size=50)
        np.testing.assert_allclose(sigmoid(t) + sigmoid(-t), 1.0, rtol=0, atol=1e-15)

    def test_large_negative_saturates_without_overflow(self):
        v = sigmoid(-800.0)
        assert 0.0 <= v <= 1e-300
        assert np.isfinite(v)

    def test_large_positive(self):
        assert sigmoid(800.0) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            sigmoid(np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            sigmoid(np.nan)

    def test_zero_dim_input_gives_python_float(self):
        assert type(sigmoid(0.3)) is float
        assert type(sigmoid(np.float64(-2.0))) is float
        assert type(sigmoid(np.array(1.0))) is float
        assert sigmoid(np.array([1.0])).shape == (1,)
        assert sigmoid(np.zeros((2, 3))).shape == (2, 3)


# Zeros of both signs, subnormals, values near the exp overflow point, the
# largest finite magnitudes and infinities.
EDGE_GRID = np.array([
    s * v
    for v in (0.0, 5e-324, 1e-300, 1.0, 36.7, 709.8, 710.0, 1e308, np.inf)
    for s in (1.0, -1.0)
])


def two_branch_sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def two_branch_log1p_exp(t):
    out = np.empty_like(t)
    pos = t > 0
    out[pos] = t[pos] + np.log1p(np.exp(-t[pos]))
    out[~pos] = np.log1p(np.exp(t[~pos]))
    return out


class TestOverflowFreeForms:
    """The one-expression forms equal the two-branch masked formulas bit
    for bit and raise no overflow, divide or invalid warning (underflow to
    zero is expected)."""

    def test_sigmoid_matches_two_branch_form(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = sigmoid(EDGE_GRID)
        want = two_branch_sigmoid(EDGE_GRID)
        assert got.tobytes() == want.tobytes()

    def test_log1p_exp_matches_two_branch_form(self):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _log1p_exp(EDGE_GRID)
        want = two_branch_log1p_exp(EDGE_GRID)
        assert got.tobytes() == want.tobytes()

    def test_random_margins_match(self):
        t = np.random.default_rng(8).normal(0, 30, size=1000)
        assert sigmoid(t).tobytes() == two_branch_sigmoid(t).tobytes()
        assert _log1p_exp(t).tobytes() == two_branch_log1p_exp(t).tobytes()


class TestMargins:
    def test_all_zero_parameters_give_intercept(self):
        d, gs, design = random_instance(1)
        p = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        p.intercept = 1.25
        np.testing.assert_array_equal(margins(p, design), np.full(d.n_samples, 1.25))

    def test_single_imaging_coordinate_pick(self):
        # W=0, bI=e1, bG=0, b0=0, imaging row starting with 2 -> margin 2
        gs = GroupStructure([[0]], n_features=1)
        d = Dataset(
            np.array([[1.0]]),
            np.array([[2.0, -3.0]]),
            np.array([1.0]),
        )
        design = Design.from_dataset(d, gs)
        p = ParameterSet.zeros(2, 1)
        p.imaging[0] = 1.0
        np.testing.assert_allclose(margins(p, design), [2.0])

    def test_matches_brute_force_double_loop(self):
        d, gs, design = random_instance(2, n=8)
        p = random_params(3, design.n_imaging, gs.expanded_size)
        m = margins(p, design)
        for k in range(d.n_samples):
            acc = p.intercept
            acc += float(p.imaging @ design.imaging[k])
            acc += float(p.genetic @ design.genetic[k])
            for i in range(design.n_imaging):
                for g in range(gs.expanded_size):
                    acc += design.imaging[k, i] * p.interaction[i, g] * design.genetic[k, g]
            np.testing.assert_allclose(m[k], acc, rtol=1e-12)

    def test_standardized_cross_products_brute_force(self):
        # when cross statistics are present the W term uses the standardized
        # products (xI*xG - mean)/scale, sample by sample
        from structprox.preprocessing import fit_scaler, make_design

        d, gs, _ = random_instance(4, n=10)
        record = fit_scaler(d)
        design = make_design(d, gs, record)
        zg = ((d.genetic - record.genetic_mean) / record.genetic_scale)[:, gs.expansion_index]
        zi = (d.imaging - record.imaging_mean) / record.imaging_scale
        p = random_params(5, design.n_imaging, gs.expanded_size)
        m = margins(p, design)
        for k in range(d.n_samples):
            acc = p.intercept
            acc += float(p.imaging @ zi[k])
            acc += float(p.genetic @ zg[k])
            for i in range(design.n_imaging):
                for g in range(gs.expanded_size):
                    z = (zi[k, i] * zg[k, g] - design.cross_mean[i, g]) / design.cross_scale[i, g]
                    acc += p.interaction[i, g] * z
            np.testing.assert_allclose(m[k], acc, rtol=1e-10, atol=1e-12)

    def test_variant_gating(self):
        d, gs, design = random_instance(5)
        p = random_params(6, design.n_imaging, gs.expanded_size)
        q = p.copy()
        q.interaction[:] = 0.0
        np.testing.assert_allclose(
            margins(p, design, variant="additive"), margins(q, design)
        )
        q = p.copy()
        q.imaging[:] = 0.0
        q.genetic[:] = 0.0
        np.testing.assert_allclose(
            margins(p, design, variant="multiplicative"), margins(q, design)
        )

    def test_linear_predictor_single_sample(self):
        # a one-row design gives the same decision value as its row in the full design
        d, gs, design = random_instance(6)
        p = random_params(7, design.n_imaging, gs.expanded_size)
        m = margins(p, design)
        k = 3
        one = Design(d.imaging[k : k + 1], d.genetic[k : k + 1], d.labels[k : k + 1], gs)
        np.testing.assert_allclose(margins(p, one), m[k : k + 1], rtol=1e-12)


def count_block_path(monkeypatch):
    """Record the live-block count of every margin evaluation that takes
    the block path."""
    module = importlib.import_module("structprox.objective")
    original = module._add_live_blocks
    seen = []

    def counting(m, w, design, live, *rest):
        seen.append(int(live.sum()))
        return original(m, w, design, live, *rest)

    monkeypatch.setattr(module, "_add_live_blocks", counting)
    return seen


def dense_margins(p, design, variant="multilevel"):
    """The decision values from the dense product written out, with every
    block of ``W`` included."""
    dense = np.full(design.n_samples, p.intercept)
    if variant != "multiplicative":
        dense += design.imaging @ p.imaging + design.genetic @ p.genetic
    if variant != "additive":
        w = p.interaction / design.cross_scale
        dense -= np.sum(w * design.cross_mean)
        dense += np.einsum("ni,ni->n", design.genetic @ w.T, design.imaging)
    return dense


class TestUnknownVariant:
    @pytest.mark.parametrize("kernel", [margins, risk, risk_gradient], ids=lambda f: f.__name__)
    def test_rejected(self, kernel):
        # a misspelt variant would otherwise evaluate the multilevel model
        d, gs, design = random_instance(3)
        p = random_params(4, design.n_imaging, gs.expanded_size)
        with pytest.raises(ValueError, match="^variant must be one of .*, got 'bogus'$"):
            kernel(p, design, "bogus")


class TestBlockMargins:
    # 4 imaging rows x 4 overlapping groups = 16 (row, group) blocks
    GROUPS = ((0, 1, 2), (2, 3), (3, 4, 5), (0, 5))

    def instance(self, standardized):
        from structprox.preprocessing import fit_scaler, make_design

        d, gs, design = random_instance(
            21, n=15, n_imaging=4, groups=self.GROUPS, n_features=6
        )
        if standardized:
            design = make_design(d, gs, fit_scaler(d))
        return gs, design

    @pytest.mark.parametrize("standardized", [False, True], ids=["raw", "cross-stats"])
    @pytest.mark.parametrize("variant", ["multilevel", "multiplicative"])
    # a zero W adds nothing; 1 to 8 of 16 live take the block path; 9 the dense one
    @pytest.mark.parametrize(
        "n_live, block_path", [(0, False), (1, True), (8, True), (9, False)]
    )
    def test_agrees_with_dense_product(
        self, monkeypatch, standardized, variant, n_live, block_path
    ):
        gs, design = self.instance(standardized)
        p = random_params(22, design.n_imaging, gs.expanded_size)
        live = np.zeros((design.n_imaging, gs.n_groups), dtype=bool)
        live.flat[np.random.default_rng(23).permutation(live.size)[:n_live]] = True
        p.interaction[~np.repeat(live, gs.sizes, axis=1)] = 0.0
        seen = count_block_path(monkeypatch)

        m = margins(p, design, variant)
        assert seen == ([n_live] if block_path else [])
        dense = dense_margins(p, design, variant)
        assert np.abs(m - dense).max() <= 1e-12 * np.abs(dense).max()

    def sparse_params(self, gs, design, live_blocks, genetic_groups):
        """Random parameters whose ``W`` is live in the (row, group) blocks
        ``live_blocks`` alone and whose genetic block is nonzero in
        ``genetic_groups`` alone."""
        p = random_params(24, design.n_imaging, gs.expanded_size)
        live = np.zeros((design.n_imaging, gs.n_groups), dtype=bool)
        live[tuple(zip(*live_blocks))] = True
        p.interaction[~np.repeat(live, gs.sizes, axis=1)] = 0.0
        p.genetic[~np.isin(np.arange(gs.n_groups), genetic_groups).repeat(gs.sizes)] = 0.0
        return p

    @pytest.mark.parametrize("standardized", [False, True], ids=["raw", "cross-stats"])
    # group 2's genetic block is nonzero with no live row; group 1 has live
    # rows and a zero genetic block
    @pytest.mark.parametrize("live_blocks, genetic_groups", [
        ([(1, 0)], [0, 2]),
        ([(1, 0), (0, 1), (3, 1)], [0]),
    ], ids=["genetic-only-group", "interaction-only-group"])
    def test_genetic_term_in_the_group_products(
        self, monkeypatch, standardized, live_blocks, genetic_groups
    ):
        gs, design = self.instance(standardized)
        p = self.sparse_params(gs, design, live_blocks, genetic_groups)
        seen = count_block_path(monkeypatch)
        m = margins(p, design)
        assert seen == [len(live_blocks)]
        dense = dense_margins(p, design)
        assert np.abs(m - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("standardized", [False, True], ids=["raw", "cross-stats"])
    def test_pinned_terms_skipped_on_the_block_path(self, monkeypatch, standardized):
        gs, design = self.instance(standardized)
        p = self.sparse_params(gs, design, [(1, 0), (2, 3)], [0, 1, 2, 3])
        assert p.imaging.any() and p.genetic.any()
        seen = count_block_path(monkeypatch)
        # multiplicative: the block path skips the nonzero imaging and genetic terms
        m = margins(p, design, "multiplicative")
        assert seen == [2]
        dense = dense_margins(p, design, "multiplicative")
        assert np.abs(m - dense).max() <= 1e-12 * np.abs(dense).max()
        q = p.copy()
        q.imaging[:] = q.genetic[:] = 0.0
        assert m.tobytes() == margins(q, design).tobytes()
        # additive: the nonzero W takes no path at all
        n_block = len(seen)
        m = margins(p, design, "additive")
        assert len(seen) == n_block
        dense = dense_margins(p, design, "additive")
        assert np.abs(m - dense).max() <= 1e-12 * np.abs(dense).max()
        q = p.copy()
        q.interaction[:] = 0.0
        assert m.tobytes() == margins(q, design).tobytes()

    def test_group_layout_of_other_size_rejected(self):
        d, _, _ = random_instance(1)
        other = GroupStructure([[0, 1]], n_features=2)
        with pytest.raises(ValueError) as err:
            Design(d.imaging, d.genetic, d.labels, other)
        assert str(err.value) == "genetic matrix has shape (12, 3), groups cover 2 features"

    def test_small_fit_takes_block_path(self, monkeypatch):
        from structprox.preprocessing import fit_scaler, make_design
        from structprox.solver import fit, screen_lambda_max

        data = synthetic_instance(1, n_imaging=4, n_groups=5, effect_interaction=1.0)
        d, gs = data.dataset, data.groups
        design = make_design(d, gs, fit_scaler(d))
        bounds = screen_lambda_max(design, gs)
        h = default_hyper(
            lambda_interaction=0.3 * bounds.lambda_interaction_max,
            lambda_genetic=0.3 * bounds.lambda_genetic_max,
        )
        seen = count_block_path(monkeypatch)
        params, state = fit(design, gs, h)
        assert seen, "no margin evaluation took the block path"
        n_block = len(seen)
        # the same fit with every margin evaluation taking the dense product
        module = importlib.import_module("structprox.objective")
        monkeypatch.setattr(module, "margins", dense_margins)
        dense_params, dense_state = fit(design, gs, h)
        assert len(seen) == n_block, "the dense fit took the block path"
        assert dense_state.iterations == state.iterations
        np.testing.assert_allclose(params.flat(), dense_params.flat(), rtol=0, atol=1e-12)

    def test_peak_memory_below_half_the_genetic_matrix(self, monkeypatch):
        # A (live blocks, N) buffer or an N x E temporary would exceed the bound.
        from structprox.preprocessing import fit_scaler, make_design

        n, n_imaging, n_groups, size = 400, 40, 30, 10
        groups = tuple(tuple(range(size * l, size * (l + 1))) for l in range(n_groups))
        d, gs, _ = random_instance(
            31, n=n, n_imaging=n_imaging, groups=groups, n_features=n_groups * size
        )
        design = make_design(d, gs, fit_scaler(d))
        p = random_params(32, n_imaging, gs.expanded_size, scale=0.1)
        live = np.random.default_rng(33).random((n_imaging, n_groups)) < 0.45
        p.interaction[~np.repeat(live, gs.sizes, axis=1)] = 0.0
        seen = count_block_path(monkeypatch)
        bound = 0.5 * n * gs.expanded_size * 8
        for evaluate in (margins, risk_gradient):
            tracemalloc.start()
            try:
                evaluate(p, design)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, "%s peaked at %d B" % (evaluate.__name__, peak)
        assert seen == [live.sum()] * 2, "the evaluations did not take the block path"


def statistics_record(cross_mean, cross_scale):
    """A ScalingRecord holding the given product statistics and identity
    marginal ones."""
    ni, ng = np.shape(cross_mean)
    return ScalingRecord(
        "sd", np.zeros(ng), np.ones(ng), np.zeros(ni), np.ones(ni), cross_mean, cross_scale
    )


class TestProductStatistics:
    GROUPS = TestBlockMargins.GROUPS

    def raw_pair(self):
        """A raw design and the same design given a record of zeros and ones."""
        d, gs, raw = random_instance(41, n=15, n_imaging=4, groups=self.GROUPS, n_features=6)
        shape = (d.n_imaging, d.n_genetic)
        record = statistics_record(np.zeros(shape), np.ones(shape))
        explicit = Design(d.imaging, d.genetic, d.labels, gs, record)
        return gs, [(raw, explicit)]

    def test_raw_design_holds_identity(self):
        _, pairs = self.raw_pair()
        for design, _ in pairs:
            shape = (design.n_imaging, design.expanded_size)
            assert design.cross_mean.shape == design.cross_scale.shape == shape
            assert (design.cross_mean == 0.0).all() and (design.cross_scale == 1.0).all()

    @pytest.mark.parametrize("variant", ["multilevel", "additive", "multiplicative"])
    @pytest.mark.parametrize("n_live", [0, 3, 16])
    def test_identity_statistics_change_no_bit(self, variant, n_live):
        gs, pairs = self.raw_pair()
        raw = pairs[0][0]
        p = random_params(42, raw.n_imaging, gs.expanded_size)
        live = np.zeros((raw.n_imaging, gs.n_groups), dtype=bool)
        live.flat[np.random.default_rng(43).permutation(live.size)[:n_live]] = True
        p.interaction[~np.repeat(live, gs.sizes, axis=1)] = 0.0
        for implicit, explicit in pairs:
            for evaluate in (margins, risk_gradient):
                a, b = evaluate(p, implicit, variant), evaluate(p, explicit, variant)
                assert a.tobytes() == b.tobytes(), evaluate.__name__

    def test_raw_design_allocates_no_statistics_array(self):
        rng = np.random.default_rng(44)
        imaging, genetic = rng.normal(size=(2, 300)), rng.normal(size=(2, 400))
        gs = GroupStructure([range(400)], n_features=400)
        tracemalloc.start()
        try:
            Design(imaging, genetic, [0, 1], gs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300 * 400 * 8 / 10

    def test_fortran_statistics_stored_c_contiguous(self):
        d, gs, _ = random_instance(45, n=10, n_imaging=3)
        rng = np.random.default_rng(46)
        shape = (d.n_imaging, d.n_genetic)
        mean = np.asfortranarray(rng.normal(size=shape))
        scale = np.asfortranarray(rng.uniform(0.5, 2.0, size=shape))
        design = Design(d.imaging, d.genetic, d.labels, gs, statistics_record(mean, scale))
        for stored, given in ((design.cross_mean, mean), (design.cross_scale, scale)):
            assert stored.flags.c_contiguous
            np.testing.assert_array_equal(stored, given[:, gs.expansion_index])


class TestRisk:
    def test_zero_parameters_give_log2(self):
        d, gs, design = random_instance(8)
        p = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        np.testing.assert_allclose(risk(p, design), np.log(2.0), rtol=1e-15)

    def test_single_sample_margin_zero(self):
        gs = GroupStructure([[0]], n_features=1)
        d = Dataset(np.array([[1.0]]), np.array([[0.5]]), np.array([1.0]))
        design = Design.from_dataset(d, gs)
        p = ParameterSet.zeros(1, 1)
        np.testing.assert_allclose(risk(p, design), np.log(2.0), rtol=1e-15)

    def test_matches_bernoulli_form(self):
        # -(1/N) sum y log(sig) + (1-y) log(1-sig), computed independently
        d, gs, design = random_instance(9, n=15)
        p = random_params(10, design.n_imaging, gs.expanded_size, scale=0.5)
        m = margins(p, design)
        s = 1.0 / (1.0 + np.exp(-m))
        want = -np.mean(d.labels * np.log(s) + (1.0 - d.labels) * np.log(1.0 - s))
        np.testing.assert_allclose(risk(p, design), want, rtol=1e-10)

    def test_extreme_margins_stay_finite(self):
        d, gs, design = random_instance(11)
        p = random_params(12, design.n_imaging, gs.expanded_size, scale=300.0)
        assert np.isfinite(risk(p, design))


class TestPenalty:
    def test_zero_parameters(self):
        gs = GroupStructure([[0, 1], [1, 2]], n_features=3)
        p = ParameterSet.zeros(2, gs.expanded_size)
        assert penalty(p, gs, default_hyper()) == 0.0

    def test_imaging_ridge_is_squared(self):
        # bI = e1, lambda_I = 2 -> contribution 2 * ||e1||^2 = 2
        gs = GroupStructure([[0]], n_features=1)
        p = ParameterSet.zeros(2, 1)
        p.imaging[0] = 1.0
        h = default_hyper(lambda_imaging=2.0)
        np.testing.assert_allclose(penalty(p, gs, h), 2.0)

    def test_genetic_group_norm(self):
        # one block (3,4), weight 1, lambda_G = 1 -> 5
        gs = GroupStructure([[0, 1]], n_features=2, weights=[1.0])
        p = ParameterSet.zeros(1, 2)
        p.genetic[:] = [3.0, 4.0]
        h = default_hyper(lambda_genetic=1.0)
        np.testing.assert_allclose(penalty(p, gs, h), 5.0)

    def test_interaction_rows_use_group_norms(self):
        gs = GroupStructure([[0, 1], [1, 2]], n_features=3, weights=[1.0, 2.0])
        p = ParameterSet.zeros(2, gs.expanded_size)
        p.interaction[0, :2] = [3.0, 4.0]
        p.interaction[1, 2:] = [1.0, 1.0]
        h = default_hyper(lambda_interaction=0.5)
        want = 0.5 * (1.0 * 5.0 + 2.0 * np.sqrt(2.0))
        np.testing.assert_allclose(penalty(p, gs, h), want)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            d, gs, design = random_instance(20 + trial)
            p = random_params(40 + trial, design.n_imaging, gs.expanded_size)
            h = default_hyper(
                lambda_interaction=float(rng.uniform(0.01, 1)),
                lambda_imaging=float(rng.uniform(0.01, 1)),
                lambda_genetic=float(rng.uniform(0.01, 1)),
            )
            want = h.lambda_imaging * float(p.imaging @ p.imaging)
            for l in range(gs.n_groups):
                blk = gs.block(l)
                want += h.lambda_genetic * gs.weights[l] * np.linalg.norm(p.genetic[blk])
                for i in range(design.n_imaging):
                    want += (
                        h.lambda_interaction
                        * gs.weights[l]
                        * np.linalg.norm(p.interaction[i, blk])
                    )
            np.testing.assert_allclose(penalty(p, gs, h), want, rtol=1e-12)


class TestObjective:
    def test_zero_parameters(self):
        d, gs, design = random_instance(15)
        p = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        val = objective(p, design, gs, default_hyper())
        np.testing.assert_allclose(val.risk, np.log(2.0))
        assert val.penalty == 0.0
        np.testing.assert_allclose(val.total, np.log(2.0))

    def test_penalty_only_change_leaves_risk_unchanged(self):
        d, gs, design = random_instance(16)
        p = random_params(17, design.n_imaging, gs.expanded_size)
        a = objective(p, design, gs, default_hyper(lambda_genetic=0.1))
        b = objective(p, design, gs, default_hyper(lambda_genetic=0.9))
        assert a.risk == b.risk
        assert a.penalty != b.penalty

    def test_total_is_sum(self):
        d, gs, design = random_instance(18)
        p = random_params(19, design.n_imaging, gs.expanded_size)
        val = objective(p, design, gs, default_hyper())
        np.testing.assert_allclose(val.total, val.risk + val.penalty, rtol=1e-15)


class TestRiskGradient:
    def test_all_positive_labels_at_zero(self):
        # residual sig(0) - 1 = -0.5 for every sample
        rng = np.random.default_rng(21)
        gs = GroupStructure([[0, 1], [1, 2]], n_features=3)
        genetic = rng.binomial(2, 0.4, size=(9, 3)).astype(float)
        imaging = rng.normal(size=(9, 2))
        d = Dataset(genetic, imaging, np.ones(9))
        design = Design.from_dataset(d, gs)
        p = ParameterSet.zeros(2, gs.expanded_size)
        g = ParameterSet.from_flat(risk_gradient(p, design), 2, gs.expanded_size)
        np.testing.assert_allclose(g.imaging, -0.5 * imaging.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            g.genetic, -0.5 * design.genetic.mean(axis=0), rtol=1e-12
        )
        np.testing.assert_allclose(g.intercept, -0.5)

    def test_intercept_component_balanced_labels(self):
        rng = np.random.default_rng(22)
        gs = GroupStructure([[0]], n_features=1)
        d = Dataset(
            rng.normal(size=(8, 1)),
            rng.normal(size=(8, 2)),
            np.array([0.0, 1.0] * 4),
        )
        design = Design.from_dataset(d, gs)
        p = ParameterSet.zeros(2, 1)
        g = risk_gradient(p, design)
        np.testing.assert_allclose(g[-1], 0.0, atol=1e-15)

    def test_matches_central_differences(self):
        for trial in range(8):
            d, gs, design = random_instance(30 + trial)
            p = random_params(60 + trial, design.n_imaging, gs.expanded_size, scale=0.7)
            g = risk_gradient(p, design)
            fd = finite_difference_gradient(p, design)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_matches_central_differences_standardized(self):
        from structprox.preprocessing import fit_scaler, make_design

        for trial in range(8):
            d, gs, _ = random_instance(90 + trial, n=14)
            design = make_design(d, gs, fit_scaler(d))
            p = random_params(120 + trial, design.n_imaging, gs.expanded_size, scale=0.7)
            g = risk_gradient(p, design)
            fd = finite_difference_gradient(p, design)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_variant_blocks_zeroed(self):
        d, gs, design = random_instance(23)
        p = random_params(24, design.n_imaging, gs.expanded_size)
        g = risk_gradient(p, design, variant="additive")
        g = ParameterSet.from_flat(g, design.n_imaging, gs.expanded_size)
        assert not g.interaction.any()
        g = risk_gradient(p, design, variant="multiplicative")
        g = ParameterSet.from_flat(g, design.n_imaging, gs.expanded_size)
        assert not g.imaging.any() and not g.genetic.any()

    @pytest.mark.parametrize("variant", ["multilevel", "additive", "multiplicative"])
    def test_parts_hold_the_calls_own_margins_risk_and_residuals(self, variant):
        d, gs, design = random_instance(27)
        p = random_params(28, design.n_imaging, gs.expanded_size)
        parts = {}
        g = risk_gradient(p, design, variant, parts=parts)
        assert g.tobytes() == risk_gradient(p, design, variant).tobytes()
        assert sorted(parts) == ["margins", "residual", "risk"]
        m = margins(p, design, variant)
        assert parts["margins"].tobytes() == m.tobytes()
        assert parts["risk"] == risk(p, design, variant)
        assert parts["residual"].tobytes() == (sigmoid(m) - design.labels).tobytes()
        assert g[-1] == parts["residual"].sum() / design.n_samples


class TestMaskedGradient:
    """``risk_gradient(blocks=)`` forms the marked interaction blocks only."""

    @staticmethod
    def instance(kind):
        data = mid_instance(31)
        d, gs = data.dataset, data.groups
        if kind == "raw":
            return gs, Design.from_dataset(d, gs)
        from structprox.preprocessing import fit_scaler, make_design

        return gs, make_design(d, gs, fit_scaler(d))

    @pytest.mark.parametrize("kind", ["standardized", "raw"])
    @pytest.mark.parametrize("variant", ["multilevel", "additive", "multiplicative"])
    def test_marked_blocks_match_the_dense_gradient_and_others_are_zero(self, variant, kind):
        gs, design = self.instance(kind)
        p = random_params(32, design.n_imaging, gs.expanded_size, scale=0.1)
        blocks = np.random.default_rng(33).random((design.n_imaging, gs.n_groups)) < 0.3
        dense = ParameterSet.from_flat(risk_gradient(p, design, variant),
                                       design.n_imaging, gs.expanded_size)
        parts = {}
        g = risk_gradient(p, design, variant, parts=parts, blocks=blocks)
        masked = ParameterSet.from_flat(g, design.n_imaging, gs.expanded_size)
        entries = blocks.repeat(gs.sizes, axis=1)
        if variant == "additive":
            assert not masked.interaction.any()
        else:
            np.testing.assert_allclose(masked.interaction[entries], dense.interaction[entries],
                                       rtol=1e-12, atol=1e-16)
            assert masked.interaction[entries].any()
        assert not masked.interaction[~entries].any()
        # the genetic block comes out of the per-group products unless the
        # interaction is pinned; the imaging, intercept and parts come from
        # the same code
        if variant == "multilevel":
            err = np.abs(masked.genetic - dense.genetic).max()
            assert err <= 1e-12 * np.abs(dense.genetic).max()
        else:
            assert masked.genetic.tobytes() == dense.genetic.tobytes()
        assert masked.imaging.tobytes() == dense.imaging.tobytes()
        assert masked.intercept == dense.intercept
        assert parts["risk"] == risk(p, design, variant)

    @pytest.mark.parametrize("variant", ["multilevel", "additive", "multiplicative"])
    def test_genetic_block_formed_in_groups_without_a_marked_block(self, variant):
        # the mask marks two rows of group 0 alone; the genetic block has no mask
        gs, design = self.instance("standardized")
        p = random_params(39, design.n_imaging, gs.expanded_size, scale=0.1)
        blocks = np.zeros((design.n_imaging, gs.n_groups), dtype=bool)
        blocks[[0, 2], 0] = True
        dense = ParameterSet.from_flat(risk_gradient(p, design, variant),
                                       design.n_imaging, gs.expanded_size)
        masked = ParameterSet.from_flat(risk_gradient(p, design, variant, blocks=blocks),
                                        design.n_imaging, gs.expanded_size)
        err = np.abs(masked.genetic - dense.genetic).max()
        assert err <= 1e-12 * np.abs(dense.genetic).max()
        assert masked.genetic.any() == (variant != "multiplicative")
        entries = blocks.repeat(gs.sizes, axis=1)
        assert not masked.interaction[~entries].any()

    @pytest.mark.parametrize("variant", ["multilevel", "multiplicative"])
    def test_mask_past_half_takes_the_dense_kernel_zeroed_outside(self, variant):
        gs, design = self.instance("standardized")
        p = random_params(35, design.n_imaging, gs.expanded_size, scale=0.1)
        blocks = np.random.default_rng(36).random((design.n_imaging, gs.n_groups)) < 0.7
        assert 2 * np.count_nonzero(blocks) > blocks.size
        dense = ParameterSet.from_flat(risk_gradient(p, design, variant),
                                       design.n_imaging, gs.expanded_size)
        g = risk_gradient(p, design, variant, blocks=blocks)
        masked = ParameterSet.from_flat(g, design.n_imaging, gs.expanded_size)
        entries = blocks.repeat(gs.sizes, axis=1)
        # the dense product's own values where marked, zeros elsewhere
        assert masked.interaction[entries].tobytes() == dense.interaction[entries].tobytes()
        assert masked.interaction[entries].any()
        assert not masked.interaction[~entries].any()
        assert g[entries.size:].tobytes() == dense.flat()[entries.size:].tobytes()

    @pytest.mark.parametrize("density", [0.3, 0.7])
    def test_int_mask_marks_as_the_equal_bool_mask(self, density):
        gs, design = self.instance("standardized")
        p = random_params(37, design.n_imaging, gs.expanded_size, scale=0.1)
        blocks = np.random.default_rng(38).random((design.n_imaging, gs.n_groups)) < density
        want = risk_gradient(p, design, blocks=blocks)
        assert want.any()
        assert risk_gradient(p, design, blocks=blocks.astype(int)).tobytes() == want.tobytes()

    def test_empty_mask_leaves_the_interaction_zero(self):
        gs, design = self.instance("standardized")
        p = random_params(34, design.n_imaging, gs.expanded_size, scale=0.1)
        blocks = np.zeros((design.n_imaging, gs.n_groups), dtype=bool)
        g = ParameterSet.from_flat(risk_gradient(p, design, blocks=blocks),
                                   design.n_imaging, gs.expanded_size)
        assert not g.interaction.any() and g.genetic.any()

    def test_mask_of_the_wrong_shape_is_rejected(self):
        gs, design = self.instance("raw")
        p = ParameterSet.zeros(design.n_imaging, gs.expanded_size)
        blocks = np.ones((design.n_imaging, gs.n_groups + 1), dtype=bool)
        with pytest.raises(ValueError, match="blocks mask has shape"):
            risk_gradient(p, design, blocks=blocks)


class TestLogPosterior:
    def test_identical_parameters_difference_zero(self):
        d, gs, design = random_instance(25)
        p = random_params(26, design.n_imaging, gs.expanded_size)
        h = default_hyper()
        a = log_posterior_unnormalized(p, design, gs, h)
        assert a == log_posterior_unnormalized(p, design, gs, h)

    def test_difference_equals_minus_n_delta_objective(self):
        for trial in range(10):
            d, gs, design = random_instance(70 + trial)
            p1 = random_params(200 + trial, design.n_imaging, gs.expanded_size)
            p2 = random_params(300 + trial, design.n_imaging, gs.expanded_size)
            h = default_hyper()
            lp = log_posterior_unnormalized(p1, design, gs, h) - log_posterior_unnormalized(
                p2, design, gs, h
            )
            ds = objective(p1, design, gs, h).total - objective(p2, design, gs, h).total
            want = -d.n_samples * ds
            np.testing.assert_allclose(lp, want, rtol=1e-8)

    def test_doubling_lambda_genetic_doubles_prior_term(self):
        d, gs, design = random_instance(27)
        p1 = random_params(28, design.n_imaging, gs.expanded_size)
        p2 = p1.copy()
        p2.genetic = p2.genetic * 2.0
        h1 = default_hyper(lambda_genetic=0.2)
        h2 = default_hyper(lambda_genetic=0.4)
        d1 = log_posterior_unnormalized(p1, design, gs, h1) - log_posterior_unnormalized(
            p2, design, gs, h1
        )
        d2 = log_posterior_unnormalized(p1, design, gs, h2) - log_posterior_unnormalized(
            p2, design, gs, h2
        )
        # only the genetic prior depends on lambda_G; risk parts cancel in the
        # cross difference (d2 - d1) = -(lam2 - lam1) * N * delta penalty
        norms1 = sum(
            gs.weights[l] * np.linalg.norm(p1.genetic[gs.block(l)])
            for l in range(gs.n_groups)
        )
        norms2 = sum(
            gs.weights[l] * np.linalg.norm(p2.genetic[gs.block(l)])
            for l in range(gs.n_groups)
        )
        want = -(0.4 - 0.2) * d.n_samples * (norms1 - norms2)
        np.testing.assert_allclose(d2 - d1, want, rtol=1e-9)


def one_row_design(n=3):
    # one imaging column; tiny_groups expands 3 genetic columns to 4
    return Design(np.zeros((n, 1)), np.zeros((n, 3)), np.zeros(n, dtype=int), tiny_groups())


class TestRejectionMessages:
    # every rejection of the design and the evaluation kernels, message in full;
    # a design's data are checked by Dataset
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: Design(np.zeros(3), np.zeros((3, 3)), [0, 1, 0], tiny_groups()),
                     "feature matrices must be 2-D, got genetic (3, 4) and imaging (3,)",
                     id="design-not-2d"),
        pytest.param(lambda: Design(np.zeros((3, 1)), np.zeros((2, 3)), [0, 1, 0], tiny_groups()),
                     "row counts disagree: genetic 2, imaging 3, labels 3",
                     id="design-rows"),
        pytest.param(lambda: one_row_design(n=0),
                     "dataset needs at least one sample", id="design-no-samples"),
        pytest.param(lambda: Design(np.zeros((3, 1)), np.full((3, 3), np.nan), [0, 1, 0],
                                    tiny_groups()),
                     "feature matrices contain NaN or infinite entries", id="design-nan-features"),
        pytest.param(lambda: Design(np.zeros((3, 1)), np.zeros((3, 3)), [0, 1, 2], tiny_groups()),
                     "labels must be 0 or 1, got 2", id="design-label-two"),
        pytest.param(lambda: Design(np.zeros((3, 1)), np.zeros((3, 3)), [0.5, 1, 0], tiny_groups()),
                     "labels must be 0 or 1, got 0.5", id="design-label-half"),
        pytest.param(lambda: Design(np.zeros((2, 1)), [["1.5", "2", "0"]] * 2, [0, 1],
                                    tiny_groups()),
                     "genetic matrix must be numeric, got <U3 values",
                     id="design-string-genetic"),
        pytest.param(lambda: Design(np.zeros((2, 1)), [["1.5", "2", "0"]] * 2, [0, 1],
                                    tiny_groups(),
                                    statistics_record(np.zeros((1, 3)), np.ones((1, 3)))),
                     "genetic matrix must be numeric, got <U3 values",
                     id="design-string-genetic-vs-scaler"),
        pytest.param(lambda: Design([["1"], ["2"]], np.zeros((2, 3)), [0, 1], tiny_groups(),
                                    statistics_record(np.zeros((1, 3)), np.ones((1, 3)))),
                     "imaging matrix must be numeric, got <U1 values",
                     id="design-string-imaging-vs-scaler"),
        pytest.param(lambda: Design(np.zeros((3, 2)), np.zeros((3, 3)), [0, 1, 0], tiny_groups(),
                                    statistics_record(np.zeros((1, 3)), np.ones((1, 3)))),
                     "imaging matrix has shape (3, 2), scaler was fit on 1 columns",
                     id="design-imaging-vs-scaler"),
        pytest.param(lambda: Design(np.zeros(3), np.zeros((3, 3)), [0, 1, 0], tiny_groups(),
                                    statistics_record(np.zeros((1, 3)), np.ones((1, 3)))),
                     "imaging matrix has shape (3,), scaler was fit on 1 columns",
                     id="design-imaging-not-2d-vs-scaler"),
        pytest.param(lambda: Design(np.zeros((3, 1)), np.zeros(3), [0, 1, 0], tiny_groups()),
                     "genetic matrix has shape (3,), groups cover 3 features",
                     id="design-genetic-not-2d"),
        pytest.param(lambda: margins(ParameterSet.zeros(2, 4), one_row_design()),
                     "interaction shape (2, 4) does not match design (1, 4)",
                     id="margins-shape"),
        pytest.param(lambda: penalty(ParameterSet.zeros(1, 3), tiny_groups(), default_hyper()),
                     "parameters have expanded size 3, groups give 4", id="penalty-size"),
    ])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
