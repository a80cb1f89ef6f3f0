import dataclasses

import numpy as np
import pytest

from structprox import (
    Dataset,
    ParameterSet,
    balanced_accuracy,
    kfold_cv,
    log_grid,
    make_grid,
    metrics,
    predict,
    reduce_parameters,
    selected_groups,
    stratified_folds,
)
from structprox import evaluation
from structprox.evaluation import confusion
from structprox.preprocessing import fit_scaler, make_design
from structprox.solver import fit

from conftest import count_calls, default_hyper, fit_stages, synthetic_instance, tiny_groups


def labels_from_rates(sen, spe, n_pos=500, n_neg=500):
    """Build a label/prediction pair with exact integer confusion counts."""
    tp = round(sen / 100.0 * n_pos)
    tn = round(spe / 100.0 * n_neg)
    y = np.r_[np.ones(n_pos), np.zeros(n_neg)]
    yhat = np.r_[
        np.ones(tp), np.zeros(n_pos - tp), np.zeros(tn), np.ones(n_neg - tn)
    ]
    return y, yhat


class TestMetrics:
    def test_table_row_arithmetic(self):
        y, yhat = labels_from_rates(90.6, 87.0)
        rep = metrics(y, yhat)
        np.testing.assert_allclose(rep.sensitivity, 90.6)
        np.testing.assert_allclose(rep.specificity, 87.0)
        np.testing.assert_allclose(rep.balanced_accuracy, 88.8)

    def test_second_table_row(self):
        y, yhat = labels_from_rates(89.4, 88.0)
        rep = metrics(y, yhat)
        np.testing.assert_allclose(rep.balanced_accuracy, 88.7)

    def test_perfect_predictions(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        rep = metrics(y, y)
        assert rep.sensitivity == 100.0
        assert rep.specificity == 100.0
        assert rep.precision == 100.0
        assert rep.balanced_accuracy == 100.0

    def test_all_positive_on_balanced_set(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        rep = metrics(y, np.ones(4))
        assert rep.sensitivity == 100.0
        assert rep.specificity == 0.0
        assert rep.balanced_accuracy == 50.0

    def test_precision_none_without_positive_predictions(self):
        y = np.array([1.0, 0.0])
        rep = metrics(y, np.zeros(2))
        assert rep.precision is None

    def test_single_class_truth_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            metrics(np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="undefined"):
            metrics(np.zeros(3), np.zeros(3))

    def test_bacc_identity_over_random_confusions(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.integers(0, 2, 40).astype(float)
            if y.min() == y.max():
                continue
            yhat = rng.integers(0, 2, 40).astype(float)
            rep = metrics(y, yhat)
            assert abs(rep.balanced_accuracy - (rep.sensitivity + rep.specificity) / 2) < 1e-12

    def test_confusion_counts(self):
        y = np.array([1, 1, 0, 0, 1])
        yhat = np.array([1, 0, 0, 1, 1])
        tp, fp, tn, fn = confusion(y, yhat)
        assert (tp, fp, tn, fn) == (2, 1, 1, 1)

    def test_balanced_accuracy_helper(self):
        assert balanced_accuracy(90.6, 87.0) == pytest.approx(88.8)

    def test_cv_selection_score_is_metrics_balanced_accuracy(self):
        # CV selects by the pooled score of int64 count rows; it must be the
        # balanced accuracy metrics reports for the same counts, bit for bit
        rng = np.random.default_rng(1)
        for n in rng.integers(2, 60, size=40):
            y = np.r_[0, 1, rng.integers(0, 2, n)]
            yhat = rng.integers(0, 2, y.size)
            counts = np.zeros(4, dtype=np.int64)
            counts += confusion(y, yhat)
            assert evaluation._pooled_bacc(*counts) == metrics(y, yhat).balanced_accuracy
        assert evaluation._pooled_bacc(3, 0, 0, 1) == float("-inf")  # no negatives


class TestGrids:
    def test_log_grid_endpoints(self):
        g = log_grid(7)
        np.testing.assert_allclose(g[0], 1e-3)
        np.testing.assert_allclose(g[-1], 1.0)
        assert np.all(np.diff(np.log(g)) > 0)
        ratios = g[1:] / g[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        np.testing.assert_array_equal(log_grid(1), [1.0])
        np.testing.assert_array_equal(log_grid(np.int64(3)), log_grid(3.0))

    def test_make_grid_product_order(self):
        grid = make_grid([0.1, 0.2], [0.3], [0.4, 0.5], variant="additive")
        assert len(grid) == 4
        assert grid[0].lambda_interaction == 0.1
        assert grid[0].lambda_genetic == 0.4
        assert grid[1].lambda_genetic == 0.5
        assert grid[2].lambda_interaction == 0.2
        assert all(h.variant == "additive" for h in grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            make_grid([], [0.1], [0.1])


class TestStratifiedFolds:
    def test_partition_property(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 37).astype(float)
        folds = stratified_folds(y, 5, seed=3)
        combined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(combined, np.arange(37))

    def test_class_counts_balanced_within_one(self):
        rng = np.random.default_rng(2)
        y = (rng.uniform(size=60) < 0.3).astype(float)
        folds = stratified_folds(y, 6, seed=0)
        pos_counts = [int(y[f].sum()) for f in folds]
        assert max(pos_counts) - min(pos_counts) <= 1

    def test_leave_one_out_partition(self):
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        folds = stratified_folds(y, 6, seed=0)
        assert sorted(len(f) for f in folds) == [1] * 6
        combined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(combined, np.arange(6))

    def test_deterministic_given_seed(self):
        y = np.r_[np.zeros(10), np.ones(10)]
        a = stratified_folds(y, 4, seed=9)
        b = stratified_folds(y, 4, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_folds_pinned_for_three_classes(self):
        # each class is shuffled in label order, then the classes are dealt
        # round-robin as one sequence
        y = [2, 0, 1, 1, 2, 0, 0, 2, 1, 0, 2, 1, 1]
        folds = stratified_folds(y, 4, seed=5)
        assert [f.tolist() for f in folds] == [[2, 3, 4, 9], [0, 5, 12], [6, 8, 10], [1, 7, 11]]
        assert all(f.dtype == np.intp for f in folds)

    def test_integral_float_k_accepted(self):
        y = np.r_[np.zeros(6), np.ones(6)]
        for fa, fb in zip(stratified_folds(y, 3.0), stratified_folds(y, 3), strict=True):
            np.testing.assert_array_equal(fa, fb)

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError):
            stratified_folds(np.array([0.0, 1.0]), 3)


class TestReduceAndSelect:
    def test_zero_parameters_zero_reductions(self):
        gs = tiny_groups()
        p = ParameterSet.zeros(2, gs.expanded_size)
        red = reduce_parameters(p, gs)
        assert not red.interaction.any()
        assert not red.genetic.any()

    def test_max_of_absolutes(self):
        gs = tiny_groups()
        p = ParameterSet.zeros(2, gs.expanded_size)
        p.interaction[1, gs.block(0)] = [-3.0, 2.0]
        red = reduce_parameters(p, gs)
        assert red.interaction[1, 0] == 3.0
        assert red.interaction.shape == (2, gs.n_groups)

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(4)
        gs = tiny_groups()
        p = ParameterSet(
            interaction=rng.normal(size=(3, gs.expanded_size)),
            imaging=rng.normal(size=3),
            genetic=rng.normal(size=gs.expanded_size),
            intercept=0.0,
        )
        red = reduce_parameters(p, gs)
        for l in range(gs.n_groups):
            blk = gs.block(l)
            assert red.genetic[l] == np.abs(p.genetic[blk]).max()
            for i in range(3):
                assert red.interaction[i, l] == np.abs(p.interaction[i, blk]).max()

    def test_selected_groups(self):
        gs = tiny_groups()
        p = ParameterSet.zeros(1, gs.expanded_size)
        p.genetic[gs.block(1)] = [0.5, 0.0]
        p.interaction[0, gs.block(0)] = [0.0, 0.1]
        sel = selected_groups(p, gs)
        np.testing.assert_array_equal(sel.genetic, [1])
        np.testing.assert_array_equal(sel.interaction, [0])


class TestPredict:
    def test_caller_matrices_stay_writeable(self):
        data = synthetic_instance(5)
        _, record = fit_stages(data.dataset, data.groups, default_hyper())
        genetic = np.array(data.dataset.genetic)
        imaging = np.array(data.dataset.imaging)
        p0 = ParameterSet.zeros(imaging.shape[1], data.groups.expanded_size)
        predict(p0, record, data.groups, genetic, imaging)
        assert genetic.flags.writeable and imaging.flags.writeable

    def test_zero_parameters_probability_half(self):
        data = synthetic_instance(5)
        _, record = fit_stages(data.dataset, data.groups, default_hyper())
        p0 = ParameterSet.zeros(
            data.dataset.imaging.shape[1], data.groups.expanded_size
        )
        probs, labels = predict(
            p0, record, data.groups, data.dataset.genetic, data.dataset.imaging
        )
        np.testing.assert_array_equal(probs, 0.5)
        np.testing.assert_array_equal(labels, 1)

    def test_saturated_intercept(self):
        data = synthetic_instance(6)
        _, record = fit_stages(data.dataset, data.groups, default_hyper())
        p0 = ParameterSet.zeros(
            data.dataset.imaging.shape[1], data.groups.expanded_size
        )
        p0.intercept = 50.0
        probs, _ = predict(
            p0, record, data.groups, data.dataset.genetic, data.dataset.imaging
        )
        assert probs.min() >= 1.0 - 1e-20

    def test_matches_design_margins(self):
        from structprox.objective import margins, sigmoid
        from structprox.preprocessing import make_design

        data = synthetic_instance(7)
        params, record = fit_stages(data.dataset, data.groups, default_hyper())
        design = make_design(data.dataset, data.groups, record)
        want = sigmoid(margins(params, design))
        probs, labels = predict(
            params,
            record,
            data.groups,
            data.dataset.genetic,
            data.dataset.imaging,
        )
        np.testing.assert_allclose(probs, want, rtol=1e-12)
        np.testing.assert_array_equal(labels, (want >= 0.5).astype(int))

    @pytest.mark.parametrize(
        "variant, block",
        [("additive", "interaction"), ("multiplicative", "imaging"),
         ("multiplicative", "genetic")],
    )
    def test_nonzero_pinned_block_rejected(self, variant, block):
        # the variant is checked, not applied: the block would otherwise count
        data = synthetic_instance(5)
        _, record = fit_stages(data.dataset, data.groups, default_hyper())
        p = ParameterSet.zeros(data.dataset.n_imaging, data.groups.expanded_size)
        getattr(p, block).flat[0] = 0.5
        args = p, record, data.groups, data.dataset.genetic, data.dataset.imaging
        with pytest.raises(
            ValueError, match="^the %s variant pins the %s block at zero" % (variant, block)
        ):
            predict(*args, variant=variant)
        predict(*args, variant="multilevel")

    def test_unknown_variant_rejected(self):
        data = synthetic_instance(5)
        params, record = fit_stages(data.dataset, data.groups, default_hyper())
        with pytest.raises(ValueError, match="^variant must be one of .*, got 'bogus'$"):
            predict(params, record, data.groups, data.dataset.genetic, data.dataset.imaging,
                    variant="bogus")

    @pytest.mark.parametrize("variant", ["multilevel", "additive", "multiplicative"])
    def test_fitted_margins_need_no_variant(self, variant):
        # a fit zeroes its variant's pinned blocks, so scoring without the
        # variant gives the same bits
        from structprox.objective import margins, sigmoid

        data = synthetic_instance(9, effect_interaction=1.0)
        params, record = fit_stages(
            data.dataset, data.groups, default_hyper(variant=variant, lambda_interaction=0.02)
        )
        assert params.interaction.any() == (variant != "additive")
        design = make_design(data.dataset, data.groups, record)
        want = margins(params, design, variant)
        assert margins(params, design).tobytes() == want.tobytes()
        probs, _ = predict(params, record, data.groups, data.dataset.genetic,
                           data.dataset.imaging, variant=variant)
        np.testing.assert_array_equal(probs, sigmoid(want))

    def test_threshold_validated(self):
        data = synthetic_instance(8)
        params, record = fit_stages(data.dataset, data.groups, default_hyper())
        with pytest.raises(ValueError):
            predict(
                params,
                record,
                data.groups,
                data.dataset.genetic,
                data.dataset.imaging,
                threshold=1.0,
            )


def separable_dataset(seed, n=120):
    """Labels are the exact sign of a planted genetic margin."""
    from structprox import GroupStructure

    rng = np.random.default_rng(seed)
    gs = GroupStructure([[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]], 12)
    genetic = rng.binomial(2, 0.4, size=(n, 12)).astype(float)
    imaging = rng.normal(size=(n, 3))
    zg = (genetic - genetic.mean(axis=0)) / genetic.std(axis=0)
    beta = np.zeros(12)
    beta[:3] = rng.normal(0, 2.0, 3)
    margin = zg @ beta
    labels = (margin > np.median(margin)).astype(float)
    return Dataset(genetic, imaging, labels), gs


class TestKfoldCv:
    def test_separable_instance_high_bacc(self):
        d, gs = separable_dataset(9)
        grid = make_grid([0.05], [0.02], [0.02, 0.1])
        res = kfold_cv(d, gs, grid, k=4, seed=0)
        assert res.pooled.balanced_accuracy >= 95.0
        assert res.mean.balanced_accuracy >= 95.0

    def test_two_fold_run_reports_two_folds(self):
        data = synthetic_instance(10, n_samples=36)
        res = kfold_cv(
            data.dataset, data.groups, [default_hyper()], k=2, seed=1
        )
        assert res.k == 2
        assert len(res.fold_metrics) == 2
        assert len(res.chosen) == 2
        assert res.probabilities.shape == (36,)

    def test_integral_float_and_numpy_fold_counts_accepted(self):
        data = synthetic_instance(10, n_samples=36)
        res = kfold_cv(data.dataset, data.groups, [default_hyper()], k=2.0, inner_k=np.int64(2))
        assert type(res.k) is int and res.k == 2

    def test_predictions_cover_every_sample_once(self):
        data = synthetic_instance(11, n_samples=30)
        res = kfold_cv(data.dataset, data.groups, [default_hyper()], k=3, seed=2)
        combined = np.sort(np.concatenate(res.fold_test_indices))
        np.testing.assert_array_equal(combined, np.arange(30))

    def test_deterministic_given_seed(self):
        data = synthetic_instance(12, n_samples=40)
        grid = make_grid([0.1], [0.05], [0.05, 0.2])
        a = kfold_cv(data.dataset, data.groups, grid, k=4, seed=5)
        b = kfold_cv(data.dataset, data.groups, grid, k=4, seed=5)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert [h.lambda_genetic for h in a.chosen] == [
            h.lambda_genetic for h in b.chosen
        ]

    def test_oracle_selection_at_least_matches_nested_pooled(self):
        data = synthetic_instance(13, n_samples=60, effect_genetic=2.0)
        grid = make_grid([0.1], [0.05], [0.02, 0.1, 0.5])
        nested = kfold_cv(data.dataset, data.groups, grid, k=3, seed=4)
        oracle = kfold_cv(
            data.dataset, data.groups, grid, k=3, seed=4, selection="oracle"
        )
        assert (
            oracle.pooled.balanced_accuracy >= nested.pooled.balanced_accuracy - 1e-9
        )

    def test_loo_smoke(self):
        # leave-one-out: every fold holds one sample, per-fold metrics are
        # undefined but pooled metrics cover all samples
        data = synthetic_instance(14, n_samples=12, n_groups=2, group_size=2)
        res = kfold_cv(
            data.dataset, data.groups, [default_hyper()], k=12, seed=0
        )
        assert all(m is None for m in res.fold_metrics)
        assert res.pooled.tp + res.pooled.fp + res.pooled.tn + res.pooled.fn == 12

    def test_single_class_dataset_rejected(self):
        data = synthetic_instance(15, n_samples=20)
        d = data.dataset
        bad = Dataset(d.genetic, d.imaging, np.zeros(20))
        with pytest.raises(ValueError, match="both classes"):
            kfold_cv(bad, data.groups, [default_hyper()], k=2)

    def test_threads_env_does_not_change_result(self, monkeypatch):
        data = synthetic_instance(16, n_samples=40)
        grid = make_grid([0.1], [0.05], [0.05, 0.2])
        monkeypatch.setenv("STRUCTPROX_THREADS", "1")
        a = kfold_cv(data.dataset, data.groups, grid, k=4, seed=6)
        monkeypatch.setenv("STRUCTPROX_THREADS", "3")
        b = kfold_cv(data.dataset, data.groups, grid, k=4, seed=6)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert a.pooled == b.pooled

    def test_bad_threads_env_rejected(self, monkeypatch):
        # a count below 1 is rejected as a non-integer is, before any fit or thread
        monkeypatch.setattr(evaluation, "fit", _fit_must_not_run)
        monkeypatch.setattr(evaluation, "ThreadPoolExecutor", None)
        data = synthetic_instance(17, n_samples=24)
        for raw in ("lots", "0", "-3"):
            monkeypatch.setenv("STRUCTPROX_THREADS", raw)
            with pytest.raises(ValueError) as err:
                kfold_cv(data.dataset, data.groups, [default_hyper()], k=2)
            assert str(err.value) == (
                "STRUCTPROX_THREADS must be an integer of at least 1, got %r" % raw)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_bad_threshold_rejected_before_any_fit(self, monkeypatch, threshold):
        monkeypatch.setattr(evaluation, "fit", _fit_must_not_run)
        data = synthetic_instance(18, n_samples=24)
        grid = make_grid([0.1], [0.05], [0.05, 0.2])
        with pytest.raises(ValueError, match="threshold"):
            kfold_cv(data.dataset, data.groups, grid, k=2, threshold=threshold)

    @pytest.mark.parametrize("inner_k", [1, 0, -3])
    def test_bad_inner_k_rejected_before_any_fit(self, monkeypatch, inner_k):
        monkeypatch.setattr(evaluation, "fit", _fit_must_not_run)
        data = synthetic_instance(19, n_samples=24)
        grid = make_grid([0.1], [0.05], [0.05, 0.2])
        with pytest.raises(ValueError, match="inner_k"):
            kfold_cv(data.dataset, data.groups, grid, k=2, inner_k=inner_k)


def _with_positives(data, positives):
    """The instance's features with label 1 on the rows ``positives`` only."""
    labels = np.zeros(data.dataset.n_samples)
    labels[list(positives)] = 1
    return Dataset(data.dataset.genetic, data.dataset.imaging, labels), data.groups


class TestKfoldCvRejections:
    def test_single_class_training_fold_rejected(self, monkeypatch):
        monkeypatch.setattr(evaluation, "fit", _fit_must_not_run)
        # the one positive's fold leaves only negatives to train on
        d, gs = _with_positives(synthetic_instance(30, n_samples=20), [3])
        with pytest.raises(
            ValueError, match=r"^fold [01] leaves a single-class training set; use a smaller k$"
        ):
            kfold_cv(d, gs, [default_hyper()], k=2)

    def test_training_fold_without_inner_split_rejected(self, monkeypatch):
        monkeypatch.delenv("STRUCTPROX_THREADS", raising=False)
        # two positives over two folds leave one positive per training set
        d, gs = _with_positives(synthetic_instance(31, n_samples=20), [3, 11])
        grid = [dataclasses.replace(h, tol=1e-3) for h in make_grid([0.1], [0.05], [0.05, 0.2])]
        with pytest.raises(
            ValueError,
            match="^fold 0 training data cannot support an inner split; "
            "use a smaller k or a single grid point$",
        ):
            kfold_cv(d, gs, grid, k=2)
        # as the message says, a single grid point needs no inner split
        assert kfold_cv(d, gs, grid[:1], k=2).chosen == grid[:1] * 2

    def test_oracle_one_class_test_fold_keeps_first_grid_point(self):
        # three positives over four folds: one test fold holds negatives only,
        # every point scores -inf there and the first one wins
        d, gs = _with_positives(synthetic_instance(32, n_samples=24), [2, 9, 17])
        grid = [dataclasses.replace(h, tol=1e-3) for h in make_grid([0.1], [0.05], [0.5, 0.1, 0.01])]
        res = kfold_cv(d, gs, grid, k=4, selection="oracle")
        one_class = [f for f, t in enumerate(res.fold_test_indices) if not d.labels[t].any()]
        assert len(one_class) == 1
        f = one_class[0]
        assert res.fold_metrics[f] is None
        assert res.chosen[f] == grid[0]


def _fit_must_not_run(*args, **kwargs):
    raise AssertionError("a solver fit ran before argument validation")


class TestSplitsBuiltOnce:
    @pytest.mark.parametrize(
        "selection, G, scalers, fits",
        [
            # k folds, G grid points, I inner folds; every fold's final fit
            # is its scoring fit on the outer split
            ("nested", 2, lambda k, G, I: k * (I + 1), lambda k, G, I: k * (G * I + 1)),
            ("oracle", 2, lambda k, G, I: k, lambda k, G, I: k * G),
            # a one-point grid is scored on the outer split alone
            ("nested", 1, lambda k, G, I: k, lambda k, G, I: k),
        ],
        ids=["nested", "oracle", "nested-one-point"],
    )
    def test_scaler_and_solver_call_counts(self, monkeypatch, selection, G, scalers, fits):
        monkeypatch.delenv("STRUCTPROX_THREADS", raising=False)
        scaler_calls = count_calls(monkeypatch, evaluation, "fit_scaler")
        fit_calls = count_calls(monkeypatch, evaluation, "fit")
        data = synthetic_instance(20, n_samples=36)
        k, I = 2, 3
        grid = [dataclasses.replace(h, tol=1e-3) for h in make_grid([0.1], [0.05], [0.05, 0.2][:G])]
        kfold_cv(data.dataset, data.groups, grid, k=k, inner_k=I, selection=selection)
        assert len(scaler_calls) == scalers(k, G, I)
        assert len(fit_calls) == fits(k, G, I)

    def test_nested_fit_count_follows_each_fold_inner_split(self, monkeypatch):
        # five positives over two folds leave two and three to train on, so
        # the inner splits have min(3, 2) = 2 and 3 folds: (2 + 3) G + k fits
        monkeypatch.delenv("STRUCTPROX_THREADS", raising=False)
        fit_calls = count_calls(monkeypatch, evaluation, "fit")
        d, gs = _with_positives(synthetic_instance(21, n_samples=30), [1, 6, 12, 19, 25])
        grid = [dataclasses.replace(h, tol=1e-3) for h in make_grid([0.1], [0.05], [0.05, 0.2])]
        kfold_cv(d, gs, grid, k=2, inner_k=3)
        assert len(fit_calls) == (2 + 3) * len(grid) + 2

    def test_nested_choice_and_probabilities_match_hand_computation(self):
        data = synthetic_instance(13, n_samples=60, effect_genetic=2.0)
        d, gs = data.dataset, data.groups
        grid = [dataclasses.replace(h, tol=1e-3) for h in make_grid([0.1], [0.05], [0.02, 0.1, 0.5])]
        k, seed, inner_k = 3, 4, 3
        res = kfold_cv(d, gs, grid, k=k, seed=seed, inner_k=inner_k)

        f = 0
        test_idx = res.fold_test_indices[f]
        train_idx = np.setdiff1d(np.arange(d.n_samples), test_idx)
        # the inner partition of fold f is seeded with seed + 7919 * (f + 1)
        inner_folds = stratified_folds(d.labels[train_idx], inner_k, seed + 7919 * (f + 1))

        def fit_and_predict(h, rows, held_rows):
            train = d.subset(rows)
            record = fit_scaler(train)
            params, _ = fit(make_design(train, gs, record), gs, h)
            held = d.subset(held_rows)
            probs, preds = predict(
                params, record, gs, held.genetic, held.imaging, variant=h.variant
            )
            return held.labels, probs, preds

        scores = []
        for h in grid:
            y, yhat = [], []
            for t in inner_folds:
                labels, _, preds = fit_and_predict(
                    h, np.setdiff1d(train_idx, train_idx[t]), train_idx[t]
                )
                y.append(labels)
                yhat.append(preds)
            scores.append(metrics(np.concatenate(y), np.concatenate(yhat)).balanced_accuracy)
        assert len(set(scores)) > 1, "instance does not discriminate the grid"
        best = grid[int(np.argmax(scores))]
        assert res.chosen[f] == best

        _, probs, _ = fit_and_predict(best, train_idx, test_idx)
        np.testing.assert_array_equal(res.probabilities[test_idx], probs)

    def test_oracle_choice_and_probabilities_match_hand_computation(self):
        # oracle scores each point on the outer split, keeps the first best
        # and reuses its scoring fit; a fresh fit of that point must agree
        data = synthetic_instance(13, n_samples=60, effect_genetic=2.0)
        d, gs = data.dataset, data.groups
        grid = [dataclasses.replace(h, tol=1e-3) for h in make_grid([0.1], [0.05], [0.02, 0.1, 0.5])]
        res = kfold_cv(d, gs, grid, k=3, seed=4, selection="oracle")
        ties = 0
        for f, test_idx in enumerate(res.fold_test_indices):
            train = d.subset(np.setdiff1d(np.arange(d.n_samples), test_idx))
            held = d.subset(test_idx)
            record = fit_scaler(train)
            scores, probs = [], []
            for h in grid:
                params, _ = fit(make_design(train, gs, record), gs, h)
                p, preds = predict(
                    params, record, gs, held.genetic, held.imaging, variant=h.variant
                )
                scores.append(metrics(held.labels, preds).balanced_accuracy)
                probs.append(p)
            best = int(np.argmax(scores))
            ties += scores.count(scores[best]) > 1
            assert res.chosen[f] == grid[best]
            np.testing.assert_array_equal(res.probabilities[test_idx], probs[best])
        assert ties > 0, "no fold ties at the top, so the first-best rule is untested"


def cv_instance():
    data = synthetic_instance(33, n_samples=20)
    return data.dataset, data.groups


class TestRejectionMessages:
    # every rejection of the scoring and CV entry points, message in full
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: confusion([0, 1], [0]),
                     "label arrays must be 1-D and equally long, got (2,) and (1,)",
                     id="confusion-shapes"),
        pytest.param(lambda: confusion([0, 2], [0, 1]),
                     "y_true must be 0 or 1, got 2", id="confusion-values"),
        pytest.param(lambda: confusion([0, 1], [1, 0.5]),
                     "y_pred must be 0 or 1, got 0.5", id="confusion-fractional"),
        pytest.param(lambda: confusion(np.array(["0", "1"]), [0, 1]),
                     "y_true must be numeric, got <U1 values", id="confusion-strings"),
        pytest.param(lambda: predict(ParameterSet.zeros(1, 3), None, tiny_groups(),
                                     np.zeros((2, 3)), np.zeros((2, 1))),
                     "predict needs a fitted scaling record", id="predict-no-record"),
        pytest.param(lambda: log_grid(0), "grid needs at least one point", id="log-grid-empty"),
        pytest.param(lambda: log_grid(2.5), "num must be an integer, got 2.5",
                     id="log-grid-fractional"),
        pytest.param(lambda: stratified_folds([0, 1, 0, 1], 2.5),
                     "k must be an integer, got 2.5", id="fractional-folds"),
        pytest.param(lambda: kfold_cv(*cv_instance(), [default_hyper()], k=2.5),
                     "k must be an integer, got 2.5", id="cv-fractional-k"),
        pytest.param(lambda: kfold_cv(*cv_instance(), [default_hyper()], k=float("nan")),
                     "k must be an integer, got nan", id="cv-nan-k"),
        pytest.param(lambda: kfold_cv(*cv_instance(), [default_hyper()], inner_k=2.5),
                     "inner_k must be an integer, got 2.5", id="cv-fractional-inner-k"),
        pytest.param(lambda: stratified_folds([0, 1, 0, 1], 2, seed=2.5),
                     "seed must be an integer, got 2.5", id="fractional-seed"),
        pytest.param(lambda: stratified_folds([0, 1, 0, 1], 2, seed=-1),
                     "seed must be >= 0, got -1", id="negative-seed"),
        pytest.param(lambda: stratified_folds([0, 1, 0, 1], 1),
                     "k must be >= 2, got 1", id="one-fold"),
        pytest.param(lambda: reduce_parameters(ParameterSet.zeros(1, 3), tiny_groups()),
                     "parameters have expanded size 3, groups give 4", id="reduce-size"),
        pytest.param(lambda: kfold_cv(*cv_instance(), []),
                     "empty hyperparameter grid", id="cv-empty-grid"),
        pytest.param(lambda: kfold_cv(*cv_instance(), [default_hyper()], selection="bogus"),
                     "selection must be 'nested' or 'oracle', got 'bogus'",
                     id="cv-selection"),
    ])
    def test_message(self, monkeypatch, call, message):
        monkeypatch.setattr(evaluation, "fit", _fit_must_not_run)
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
