import copy

import numpy as np
import pytest

from structprox import (
    Dataset,
    Design,
    GroupStructure,
    Hyperparameters,
    ParameterSet,
    flat_length,
)

from conftest import tiny_groups


class TestGroupStructure:
    def test_basic_layout(self):
        gs = GroupStructure([[0, 1], [1, 2]], n_features=3)
        assert gs.n_groups == 2
        assert gs.expanded_size == 4
        np.testing.assert_array_equal(gs.sizes, [2, 2])
        np.testing.assert_array_equal(gs.offsets, [0, 2])
        np.testing.assert_array_equal(gs.expansion_index, [0, 1, 1, 2])

    def test_default_weights_are_sqrt_sizes(self):
        gs = GroupStructure([[0, 1, 2], [3]], n_features=4)
        np.testing.assert_allclose(gs.weights, [np.sqrt(3.0), 1.0])

    def test_custom_weights_and_names(self):
        gs = GroupStructure(
            [[0], [1]], n_features=2, weights=[2.0, 0.5], names=["a", "b"]
        )
        np.testing.assert_allclose(gs.weights, [2.0, 0.5])
        assert gs.names == ("a", "b")

    def test_repr(self):
        assert repr(tiny_groups()) == "GroupStructure(n_groups=2, n_features=3, expanded_size=4)"

    def test_default_names(self):
        gs = GroupStructure([[0], [1]], n_features=2)
        assert gs.names == ("group0000", "group0001")

    def test_repeated_name_rejected(self):
        # a group file names each group once, so such a structure could not be saved
        with pytest.raises(ValueError, match="^groups 0 and 2 are both named 'a'$"):
            GroupStructure([[0], [1], [2]], n_features=3, names=["a", "b", "a"])

    def test_empty_name_rejected(self):
        # an empty name would vanish from the name lists of summary.txt
        with pytest.raises(ValueError, match="^group 1 name is empty$"):
            GroupStructure([[0], [1]], n_features=2, names=["c", ""])

    @pytest.mark.parametrize("name", ["a,b", "a;b"])
    def test_name_with_separator_rejected(self, name):
        # summary.txt joins group names with ',' and cv_chosen.csv with ';'
        with pytest.raises(ValueError, match="^group 1 name %r holds ',' or ';'$" % name):
            GroupStructure([[0], [1]], n_features=2, names=["c", name])

    @pytest.mark.parametrize(
        "name, reason",
        [
            ("a\tb", "holds a tab or line break"),
            ("a\rb", "holds a tab or line break"),
            ("a\nb", "holds a tab or line break"),
            (" a", "has leading or trailing blanks"),
            ("a\t", "holds a tab or line break"),
            ("a ", "has leading or trailing blanks"),
            (" #a", "has leading or trailing blanks"),
            ("#a", "starts with '#'"),
        ],
    )
    def test_name_a_group_file_cannot_hold_rejected(self, name, reason):
        # save_group_file writes tab-separated lines, and load_group_file strips
        # the blanks around a name and skips lines starting with '#'
        with pytest.raises(ValueError) as err:
            GroupStructure([[0], [1]], n_features=2, names=["c", name])
        assert str(err.value) == "group 1 name %r %s" % (name, reason)

    def test_block_slices_partition_expanded_axis(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_groups = int(rng.integers(1, 6))
            groups = []
            n_features = int(rng.integers(1, 8))
            for _ in range(n_groups):
                size = int(rng.integers(1, n_features + 1))
                groups.append(
                    rng.choice(n_features, size=size, replace=False).tolist()
                )
            covered = set()
            for g in groups:
                covered.update(g)
            groups[0] = sorted(set(groups[0]) | (set(range(n_features)) - covered))
            gs = GroupStructure(groups, n_features=n_features)
            seen = []
            for l in range(gs.n_groups):
                blk = gs.block(l)
                assert blk.stop - blk.start == gs.sizes[l]
                seen.extend(range(blk.start, blk.stop))
            assert seen == list(range(gs.expanded_size))

    def test_uncovered_feature_rejected(self):
        with pytest.raises(ValueError, match="belongs to no group"):
            GroupStructure([[0, 1]], n_features=3)

    def test_duplicate_within_group_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            GroupStructure([[0, 0], [1]], n_features=2)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            GroupStructure([[0, 5]], n_features=2)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            GroupStructure([[0], []], n_features=1)

    def test_caller_arrays_stay_writeable(self):
        # the stored arrays are read-only views that alias the caller's arrays
        idx = np.array([0, 1], dtype=np.intp)
        weights = np.array([1.5, 2.0])
        gs = GroupStructure([idx, [1, 2]], n_features=3, weights=weights)
        assert idx.flags.writeable and weights.flags.writeable
        for stored in (gs.groups[0], gs.weights, gs.sizes, gs.offsets, gs.expansion_index):
            assert not stored.flags.writeable
        assert np.shares_memory(gs.groups[0], idx) and np.shares_memory(gs.weights, weights)

    def test_integral_floats_and_numpy_integers_accepted(self):
        gs = GroupStructure([np.array([0.0, 1.0]), [np.int32(2)]], n_features=3.0)
        assert type(gs.n_features) is int and gs.n_features == 3
        np.testing.assert_array_equal(gs.expansion_index, [0, 1, 2])

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            GroupStructure([[0]], n_features=1, weights=[0.0])
        with pytest.raises(ValueError):
            GroupStructure([[0]], n_features=1, weights=[np.inf])


def expanded(X, gs):
    """Genetic columns of a raw design of ``X`` over ``gs``."""
    n = len(X)
    return Design(np.zeros((n, 1)), X, np.zeros(n, dtype=int), gs).genetic


class TestExpandOverlap:
    """Overlap expansion of a design's genetic columns, feature by group membership."""

    def test_two_overlapping_groups(self):
        # G1={0,1}, G2={1,2}: (a,b,c) -> (a,b,b,c)
        gs = GroupStructure([[0, 1], [1, 2]], n_features=3)
        out = expanded(np.array([[5.0, 7.0, 9.0]]), gs)
        np.testing.assert_array_equal(out, [[5.0, 7.0, 7.0, 9.0]])

    def test_disjoint_groups_give_permutation(self):
        gs = GroupStructure([[2, 0], [1, 3]], n_features=4)
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = expanded(x, gs)
        assert sorted(out[0].tolist()) == sorted(x[0].tolist())
        np.testing.assert_array_equal(out, [[3.0, 1.0, 2.0, 4.0]])

    def test_full_duplication(self):
        gs = GroupStructure([[0], [0]], n_features=1)
        np.testing.assert_array_equal(expanded(np.array([[5.0]]), gs), [[5.0, 5.0]])

    def test_matches_row_loop(self):
        rng = np.random.default_rng(3)
        gs = GroupStructure([[0, 2], [1, 2], [3]], n_features=4)
        X = rng.normal(size=(6, 4))
        XE = expanded(X, gs)
        for k in range(6):
            want = np.concatenate([X[k, list(g)] for g in gs.groups])
            np.testing.assert_array_equal(XE[k], want)
            np.testing.assert_array_equal(expanded(X[k : k + 1], gs)[0], want)


class TestInteractionFlattening:
    """The interaction matrix occupies the head of the flat buffer, row-major."""

    def test_row_major_order(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = ParameterSet(W, np.zeros(2), np.zeros(2), 0.0)
        np.testing.assert_array_equal(p.flat()[:4], [1.0, 2.0, 3.0, 4.0])

    def test_zero_matrix(self):
        p = ParameterSet.zeros(3, 5)
        np.testing.assert_array_equal(p.flat()[:15], np.zeros(15))
        assert p.interaction.shape == (3, 5)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        W = rng.normal(size=(3, 5))
        p = ParameterSet(W, np.zeros(3), np.zeros(5), 0.0)
        np.testing.assert_array_equal(ParameterSet.from_flat(p.flat(), 3, 5).interaction, W)

    def test_blocks(self):
        gs = GroupStructure([[0, 1], [1, 2]], n_features=3)
        p = ParameterSet.from_flat(np.arange(flat_length(2, 4)), 2, 4)
        np.testing.assert_array_equal(p.genetic[gs.block(0)], [10.0, 11.0])
        # last group ends exactly at expanded_size
        assert gs.block(gs.n_groups - 1).stop == gs.expanded_size
        np.testing.assert_array_equal(p.interaction[1, gs.block(1)], [6.0, 7.0])

    def test_flat_length(self):
        assert flat_length(3, 4) == 3 * 4 + 3 + 4 + 1


class TestParameterSet:
    def test_flat_round_trip(self):
        rng = np.random.default_rng(5)
        p = ParameterSet(
            interaction=rng.normal(size=(2, 3)),
            imaging=rng.normal(size=2),
            genetic=rng.normal(size=3),
            intercept=0.7,
        )
        q = ParameterSet.from_flat(p.flat(), 2, 3)
        np.testing.assert_array_equal(q.interaction, p.interaction)
        np.testing.assert_array_equal(q.imaging, p.imaging)
        np.testing.assert_array_equal(q.genetic, p.genetic)
        assert q.intercept == p.intercept

    def test_flat_layout_is_interaction_imaging_genetic_intercept(self):
        p = ParameterSet(
            interaction=np.array([[1.0, 2.0], [3.0, 4.0]]),
            imaging=np.array([5.0, 6.0]),
            genetic=np.array([7.0, 8.0]),
            intercept=9.0,
        )
        np.testing.assert_array_equal(p.flat(), np.arange(1.0, 10.0))

    def test_zeros(self):
        p = ParameterSet.zeros(2, 3)
        assert p.flat().shape == (flat_length(2, 3),)
        assert not p.flat().any()

    def test_copy_is_independent(self):
        p = ParameterSet.zeros(2, 3)
        q = p.copy()
        q.interaction[0, 0] = 1.0
        assert p.interaction[0, 0] == 0.0

    def test_blocks_are_views_of_one_buffer(self):
        p = ParameterSet.zeros(2, 3)
        w = p.flat()
        for block in (p.interaction, p.imaging, p.genetic):
            assert np.shares_memory(w, block)
        p.genetic[0] = 5.0
        p.intercept = 7.0
        assert w[2 * 3 + 2] == 5.0 and w[-1] == 7.0
        # assigning a block writes into the buffer instead of detaching it
        p.imaging = [1.0, 2.0]
        np.testing.assert_array_equal(w[6:8], [1.0, 2.0])
        assert np.shares_memory(w, p.imaging)
        with pytest.raises(ValueError):
            p.imaging = np.zeros(3)
        with pytest.raises(AttributeError):
            p.offset = 1.0
        # from_flat aliases its argument; deep copies keep one buffer of their own
        q = ParameterSet.from_flat(w, 2, 3)
        q.interaction[1, 2] = 3.0
        assert p.interaction[1, 2] == 3.0
        r = copy.deepcopy(p)
        assert not np.shares_memory(r.flat(), w)
        assert np.shares_memory(r.flat(), r.genetic)
        np.testing.assert_array_equal(r.flat(), w)


    def test_augmented_assignment_writes_through(self):
        w = np.arange(1.0, flat_length(2, 3) + 1)
        want = w.copy()
        want[:6] *= 2
        want[6:8] += 1
        want[8:11] /= 4
        p = ParameterSet.from_flat(w, 2, 3)
        p.interaction *= 2
        p.imaging += 1
        p.genetic /= 4
        np.testing.assert_array_equal(p.flat(), want)
        assert p.flat() is w
        for block in (p.interaction, p.imaging, p.genetic):
            assert np.shares_memory(w, block)
        # a block of the wrong shape is still rejected
        with pytest.raises(ValueError, match=r"interaction must have shape \(2, 3\)"):
            p.interaction = np.zeros((3, 2))
        with pytest.raises(ValueError, match=r"genetic must have shape \(3,\)"):
            p.genetic = p.imaging
        np.testing.assert_array_equal(p.flat(), want)

    @pytest.mark.parametrize(
        "variant, block",
        [("additive", "interaction"), ("multiplicative", "imaging"),
         ("multiplicative", "genetic")],
    )
    @pytest.mark.parametrize("value", [1e-300, np.nan])
    def test_check_variant_rejects_nonzero_pinned_block(self, variant, block, value):
        p = ParameterSet.zeros(2, 3)
        getattr(p, block).flat[-1] = value
        with pytest.raises(
            ValueError,
            match="^the %s variant pins the %s block at zero, which holds a nonzero entry$"
            % (variant, block),
        ):
            p.check_variant(variant)
        p.check_variant("multilevel")

    def test_check_variant_passes_pinned_zeros_and_free_blocks(self):
        p = ParameterSet.from_flat(np.arange(1.0, flat_length(2, 3) + 1), 2, 3)
        p.check_variant("multilevel")
        p.interaction[...] = 0.0
        p.check_variant("additive")
        p = ParameterSet.zeros(2, 3)
        p.interaction[1, 2] = p.intercept = 3.0
        p.check_variant("multiplicative")

    def test_check_variant_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="^variant must be one of .*, got 'bogus'$"):
            ParameterSet.zeros(2, 3).check_variant("bogus")


class TestDataset:
    def test_validation(self):
        g = np.zeros((4, 2))
        i = np.zeros((4, 3))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        d = Dataset(g, i, y)
        assert d.n_samples == 4

    def test_repr(self):
        assert repr(three_samples()) == "Dataset(n_samples=3, n_genetic=1, n_imaging=1)"

    @pytest.mark.parametrize("labels", [
        [False, True], np.array([0, 1], dtype=np.int8), np.array([0, 1], dtype=np.uint8),
        [0.0, 1.0], [-0.0, 1.0],
    ])
    def test_labels_stored_as_intp(self, labels):
        d = Dataset(np.zeros((2, 1)), np.zeros((2, 1)), labels)
        assert d.labels.dtype == np.intp
        np.testing.assert_array_equal(d.labels, [0, 1])

    def test_subset_may_repeat_rows(self):
        d = Dataset(np.arange(3.0).reshape(3, 1), np.zeros((3, 1)), [0, 1, 0])
        np.testing.assert_array_equal(d.subset([2, 2]).genetic, [[2.0], [2.0]])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.zeros((2, 1)), np.array([0.0, 2.0]))

    def test_caller_arrays_stay_writeable(self):
        # float64 matrices are aliased through read-only views, never copied
        g, i, y = np.zeros((2, 3)), np.ones((2, 1)), np.array([0, 1])
        d = Dataset(g, i, y)
        assert g.flags.writeable and i.flags.writeable and y.flags.writeable
        for stored in (d.genetic, d.imaging, d.labels):
            assert not stored.flags.writeable
        assert np.shares_memory(d.genetic, g) and np.shares_memory(d.imaging, i)
        with pytest.raises(ValueError, match="read-only"):
            d.genetic[0, 0] = 1.0

    def test_rejects_non_finite(self):
        g = np.zeros((2, 1))
        g[0, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(g, np.zeros((2, 1)), np.array([0.0, 1.0]))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.zeros((3, 1)), np.array([0.0, 1.0]))

    def test_subset(self):
        rng = np.random.default_rng(2)
        d = Dataset(
            rng.normal(size=(6, 2)),
            rng.normal(size=(6, 3)),
            rng.integers(0, 2, 6).astype(float),
        )
        s = d.subset(np.array([4, 1]))
        np.testing.assert_array_equal(s.genetic, d.genetic[[4, 1]])
        np.testing.assert_array_equal(s.labels, d.labels[[4, 1]])

    @pytest.mark.parametrize("rows", [[4.0, 1.0], np.array([4, 1], dtype=np.int32),
                                      [np.int64(4), np.uint8(1)]])
    def test_subset_accepts_integral_rows(self, rows):
        d = Dataset(np.arange(12.0).reshape(6, 2), np.ones((6, 1)), [0, 1, 0, 1, 0, 1])
        np.testing.assert_array_equal(d.subset(rows).genetic, d.genetic[[4, 1]])


class TestHyperparameters:
    def test_defaults(self):
        h = Hyperparameters(0.1, 0.2, 0.3)
        assert h.variant == "multilevel"
        assert h.tol == 1e-5
        assert h.max_iters == 10000

    def test_rejects_nonpositive_lambda(self):
        for kw in ("lambda_interaction", "lambda_imaging", "lambda_genetic"):
            settings = dict(
                lambda_interaction=0.1, lambda_imaging=0.1, lambda_genetic=0.1
            )
            settings[kw] = 0.0
            with pytest.raises(ValueError):
                Hyperparameters(**settings)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-5])
    def test_rejects_tol_not_finite_and_positive(self, tol):
        # a NaN tol never stops a fit, an infinite one stops it after one iteration
        with pytest.raises(ValueError) as err:
            Hyperparameters(0.1, 0.1, 0.1, tol=tol)
        assert str(err.value) == "tol must be finite and > 0, got %r" % tol

    @pytest.mark.parametrize("max_iters", [3.0, np.int64(3)])
    def test_integral_max_iters_accepted(self, max_iters):
        h = Hyperparameters(0.1, 0.1, 0.1, max_iters=max_iters)
        assert type(h.max_iters) is int and h.max_iters == 3

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            Hyperparameters(0.1, 0.1, 0.1, variant="quadratic")


def three_samples():
    return Dataset(np.zeros((3, 1)), np.zeros((3, 1)), [0, 1, 0])


class TestRejectionMessages:
    # every rejection of the core types through its public entry point, message in full
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: GroupStructure([[0]], n_features=0),
                     "n_features must be >= 1, got 0", id="no-features"),
        pytest.param(lambda: GroupStructure([[0], [1, 2]], n_features=3.7),
                     "n_features must be an integer, got 3.7", id="fractional-features"),
        pytest.param(lambda: GroupStructure([[0.5, 1.7]], n_features=2),
                     "group 0 holds index 0.5, which is not an integer", id="fractional-index"),
        pytest.param(lambda: GroupStructure([[0, np.nan]], n_features=2),
                     "group 0 holds index nan, which is not an integer", id="nan-index"),
        pytest.param(lambda: GroupStructure([], n_features=2),
                     "at least one group is required", id="no-groups"),
        pytest.param(lambda: GroupStructure([[0], [1]], 2, weights=[1.0]),
                     "expected 2 group weights, got shape (1,)", id="weight-count"),
        pytest.param(lambda: GroupStructure([[0], [1]], 2, names=["a"]),
                     "expected 2 group names, got 1", id="name-count"),
        pytest.param(lambda: GroupStructure([[0]], 1, weights=["2.5"]),
                     "group weights must be numeric, got <U3 values", id="string-weight"),
        pytest.param(lambda: tiny_groups().block(2),
                     "group index 2 outside [0, 2)", id="block-out-of-range"),
        pytest.param(lambda: tiny_groups().block(1.5),
                     "l must be an integer, got 1.5", id="block-fractional"),
        pytest.param(lambda: Dataset(np.zeros(3), np.zeros((3, 1)), [0, 1, 0]),
                     "feature matrices must be 2-D, got genetic (3,) and imaging (3, 1)",
                     id="features-not-2d"),
        pytest.param(lambda: Dataset(np.zeros((2, 1)), np.zeros((2, 1)), [[0], [1]]),
                     "labels must be 1-D, got shape (2, 1)", id="labels-not-1d"),
        pytest.param(lambda: Dataset(np.zeros((0, 1)), np.zeros((0, 1)), []),
                     "dataset needs at least one sample", id="no-samples"),
        pytest.param(lambda: Dataset(np.zeros((2, 1)), np.zeros((2, 1)), [0.0, np.nan]),
                     "labels must be 0 or 1, got nan", id="nan-label"),
        pytest.param(lambda: Dataset(np.zeros((2, 1)), np.zeros((2, 1)), [0.0, 0.5]),
                     "labels must be 0 or 1, got 0.5", id="fractional-label"),
        pytest.param(lambda: Dataset(np.zeros((2, 1)), np.zeros((2, 1)), np.array(["0", "1"])),
                     "labels must be numeric, got <U1 values", id="string-label"),
        pytest.param(lambda: Dataset([["1.5"], ["2"]], np.zeros((2, 1)), [0, 1]),
                     "genetic matrix must be numeric, got <U3 values", id="string-genetic"),
        pytest.param(lambda: Dataset(np.zeros((2, 1)), [[1j], [2]], [0, 1]),
                     "imaging matrix must be numeric, got complex128 values",
                     id="complex-imaging"),
        pytest.param(lambda: three_samples().subset([0.5, 1.7]),
                     "rows holds index 0.5, which is not an integer", id="subset-fractional"),
        pytest.param(lambda: three_samples().subset([True, False, True]),
                     "rows must hold indices, got bool values", id="subset-mask"),
        pytest.param(lambda: three_samples().subset([0.0, np.nan]),
                     "rows holds index nan, which is not an integer", id="subset-nan"),
        pytest.param(lambda: three_samples().subset([-1]),
                     "rows holds index -1 outside [0, 3)", id="subset-negative"),
        pytest.param(lambda: three_samples().subset([0, 5]),
                     "rows holds index 5 outside [0, 3)", id="subset-past-end"),
        pytest.param(lambda: three_samples().subset([]),
                     "rows must be a non-empty 1-D list, got shape (0,)", id="subset-empty"),
        pytest.param(lambda: three_samples().subset([[0, 1]]),
                     "rows must be a non-empty 1-D list, got shape (1, 2)", id="subset-2d"),
        pytest.param(lambda: ParameterSet.zeros(2.5, 3),
                     "n_imaging must be an integer, got 2.5", id="zeros-fractional"),
        pytest.param(lambda: ParameterSet.zeros(2, float("inf")),
                     "expanded_size must be an integer, got inf", id="zeros-infinite"),
        pytest.param(lambda: ParameterSet.from_flat(np.zeros(5), 1, 2),
                     "flat vector has length 5, expected 6", id="flat-length"),
        pytest.param(lambda: setattr(ParameterSet.zeros(1, 1), "imaging", ["3"]),
                     "imaging must be numeric, got <U1 values", id="string-block"),
        pytest.param(lambda: setattr(ParameterSet.zeros(1, 1), "intercept", "4"),
                     "intercept must be numeric, got <U1 values", id="string-intercept"),
        pytest.param(lambda: Hyperparameters("0.1", "0.2", "0.3"),
                     "lambda_interaction must be numeric, got <U3 values", id="string-lambda"),
        pytest.param(lambda: Hyperparameters(0.1, 0.1, 0.1, tol="1e-3"),
                     "tol must be numeric, got <U4 values", id="string-tol"),
        pytest.param(lambda: Hyperparameters(0.1, 0.1, 0.1, max_iters=0),
                     "max_iters must be >= 1, got 0", id="max-iters"),
        pytest.param(lambda: Hyperparameters(0.1, 0.1, 0.1, max_iters=2.5),
                     "max_iters must be an integer, got 2.5", id="fractional-max-iters"),
        pytest.param(lambda: Hyperparameters(0.1, 0.1, 0.1, max_iters=float("inf")),
                     "max_iters must be an integer, got inf", id="infinite-max-iters"),
        pytest.param(lambda: Hyperparameters(0.1, 0.1, 0.1, max_iters=float("nan")),
                     "max_iters must be an integer, got nan", id="nan-max-iters"),
        pytest.param(lambda: GroupStructure([[True, False]], n_features=2),
                     "group 0 must hold indices, got bool values", id="mask-group"),
        pytest.param(lambda: GroupStructure([["0", "1"]], n_features=2),
                     "group 0 must hold indices, got <U1 values", id="string-group"),
        pytest.param(lambda: GroupStructure([[0], [1, 2]], n_features=2),
                     "group 1 holds index 2 outside [0, 2)", id="group-past-end"),
        pytest.param(lambda: GroupStructure([[0, -1]], n_features=2),
                     "group 0 holds index -1 outside [0, 2)", id="group-negative"),
        pytest.param(lambda: GroupStructure([[0], []], n_features=1),
                     "group 1 must be a non-empty 1-D list, got shape (0,)", id="group-empty"),
        pytest.param(lambda: GroupStructure([[[0, 1]]], n_features=2),
                     "group 0 must be a non-empty 1-D list, got shape (1, 2)", id="group-2d"),
        pytest.param(lambda: expanded(np.zeros((2, 4)), tiny_groups()),
                     "genetic matrix has shape (2, 4), groups cover 3 features",
                     id="expand-columns"),
    ])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
