from dataclasses import replace

import numpy as np
import pytest

from structprox import (
    SolverFailure,
    SyntheticSpec,
    build_groups,
    fit,
    generate,
)
from structprox import synthetic
from structprox.dataio import load_group_file, load_labels_csv, load_matrix_csv
from structprox.objective import objective
from structprox.preprocessing import fit_scaler, make_design
from structprox.synthetic import (
    finite_difference_gradient,
    reference_solve,
    write_files,
)

from conftest import default_hyper, random_instance, random_params, synthetic_instance


class TestSpec:
    def test_overlap_geometry(self):
        spec = SyntheticSpec(
            n_samples=10, n_imaging=2, n_groups=3, group_size=4, overlap=0.25, seed=0
        )
        # stride 3 -> features 0..3, 3..6, 6..9: adjacent groups share one
        assert spec.group_stride == 3
        assert spec.n_genetic == 10
        gs = build_groups(spec)
        assert gs.n_features == 10
        np.testing.assert_array_equal(
            np.intersect1d(gs.groups[0], gs.groups[1]), [3]
        )

    def test_disjoint_when_overlap_zero(self):
        spec = SyntheticSpec(
            n_samples=10, n_imaging=2, n_groups=3, group_size=4, overlap=0.0, seed=0
        )
        gs = build_groups(spec)
        assert gs.expanded_size == gs.n_features == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=0, n_imaging=1, n_groups=1, group_size=1)
        with pytest.raises(ValueError):
            SyntheticSpec(
                n_samples=5, n_imaging=1, n_groups=2, group_size=2, n_active=3
            )
        with pytest.raises(ValueError):
            SyntheticSpec(
                n_samples=5, n_imaging=1, n_groups=1, group_size=1, label_noise=0.6
            )


    @pytest.mark.parametrize("overrides, message", [
        pytest.param(dict(n_samples=0), "n_samples must be >= 1, got 0", id="no-samples"),
        pytest.param(dict(n_imaging=0), "n_imaging must be >= 1, got 0", id="no-imaging"),
        pytest.param(dict(n_groups=0), "n_groups must be >= 1, got 0", id="no-groups"),
        pytest.param(dict(group_size=0), "group_size must be >= 1, got 0", id="empty-groups"),
        pytest.param(dict(label_noise=0.7), "label_noise must lie in [0, 0.5], got 0.7",
                     id="label-noise"),
        pytest.param(dict(overlap=1.0), "overlap must lie in [0, 1), got 1.0", id="overlap"),
        pytest.param(dict(overlap=0.6),
                     "overlap 0.6 leaves no stride between groups of size 1", id="zero-stride"),
        pytest.param(dict(n_samples=20.5), "n_samples must be an integer, got 20.5",
                     id="fractional-samples"),
        pytest.param(dict(n_active=float("inf")), "n_active must be an integer, got inf",
                     id="infinite-active"),
        pytest.param(dict(effect_imaging=-0.5), "effect_imaging must be >= 0, got -0.5",
                     id="negative-effect"),
        pytest.param(dict(effect_interaction=float("nan")),
                     "effect_interaction must be finite, got nan", id="nan-effect-w"),
        pytest.param(dict(effect_imaging=float("inf")),
                     "effect_imaging must be finite, got inf", id="infinite-effect-i"),
        pytest.param(dict(effect_genetic=float("nan")),
                     "effect_genetic must be finite, got nan", id="nan-effect-g"),
        pytest.param(dict(intercept=float("inf")), "intercept must be finite, got inf",
                     id="infinite-intercept"),
        pytest.param(dict(seed=2.5), "seed must be an integer, got 2.5", id="fractional-seed"),
        pytest.param(dict(seed=-1), "seed must be >= 0, got -1", id="negative-seed"),
        pytest.param(dict(overlap="0.5"), "overlap must be numeric, got <U3 values",
                     id="string-overlap"),
        pytest.param(dict(label_noise="0.1"), "label_noise must be numeric, got <U3 values",
                     id="string-label-noise"),
        pytest.param(dict(effect_interaction="1"),
                     "effect_interaction must be numeric, got <U1 values", id="string-effect-w"),
        pytest.param(dict(effect_imaging="0.5"),
                     "effect_imaging must be numeric, got <U3 values", id="string-effect-i"),
        pytest.param(dict(effect_genetic="1"), "effect_genetic must be numeric, got <U1 values",
                     id="string-effect-g"),
        pytest.param(dict(intercept="2"), "intercept must be numeric, got <U1 values",
                     id="string-intercept"),
    ])
    def test_rejection_message(self, overrides, message):
        settings = dict(n_samples=5, n_imaging=1, n_groups=1, group_size=1, n_active=0)
        with pytest.raises(ValueError) as err:
            SyntheticSpec(**{**settings, **overrides})
        assert str(err.value) == message


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a = synthetic_instance(20)
        b = synthetic_instance(20)
        np.testing.assert_array_equal(a.dataset.genetic, b.dataset.genetic)
        np.testing.assert_array_equal(a.dataset.imaging, b.dataset.imaging)
        np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels)
        np.testing.assert_array_equal(a.active_groups, b.active_groups)
        np.testing.assert_array_equal(a.truth.flat(), b.truth.flat())

    def test_integral_float_counts_accepted(self):
        a = synthetic_instance(20, n_samples=20.0, n_imaging=np.int64(3))
        b = synthetic_instance(20, n_samples=20)
        np.testing.assert_array_equal(a.dataset.genetic, b.dataset.genetic)
        np.testing.assert_array_equal(a.dataset.imaging, b.dataset.imaging)

    def test_different_seeds_differ(self):
        a = synthetic_instance(21)
        b = synthetic_instance(22)
        assert not np.array_equal(a.dataset.labels, b.dataset.labels) or not np.array_equal(
            a.dataset.genetic, b.dataset.genetic
        )

    def test_genetic_values_are_counts(self):
        data = synthetic_instance(23)
        assert set(np.unique(data.dataset.genetic)).issubset({0.0, 1.0, 2.0})

    def test_labels_binary(self):
        data = synthetic_instance(24)
        assert set(np.unique(data.dataset.labels)).issubset({0.0, 1.0})

    def test_truth_supported_on_active_groups(self):
        data = synthetic_instance(25, n_groups=5, n_active=2, effect_interaction=1.0)
        gs = data.groups
        active = set(data.active_groups.tolist())
        for l in range(gs.n_groups):
            blk = gs.block(l)
            has_genetic = data.truth.genetic[blk].any()
            has_interaction = data.truth.interaction[:, blk].any()
            if l in active:
                assert has_genetic
            else:
                assert not has_genetic and not has_interaction

    def test_huge_effects_zero_noise_align_labels_with_margin(self):
        # saturated sigmoids: labels match the sign of the planted margin
        # for >= 99% of samples
        spec = SyntheticSpec(
            n_samples=2000,
            n_imaging=3,
            n_groups=4,
            group_size=3,
            n_active=2,
            effect_genetic=100.0,
            effect_imaging=0.0,
            effect_interaction=0.0,
            label_noise=0.0,
            seed=26,
        )
        data = generate(spec)
        td_genetic = data.dataset.genetic
        zg = (td_genetic - td_genetic.mean(axis=0)) / td_genetic.std(axis=0)
        margin = zg[:, data.groups.expansion_index] @ data.truth.genetic
        agree = np.mean((margin > 0) == (data.dataset.labels > 0.5))
        assert agree >= 0.99

    def test_zero_effects_balanced_labels(self):
        spec = SyntheticSpec(
            n_samples=2000,
            n_imaging=2,
            n_groups=3,
            group_size=3,
            n_active=1,
            effect_genetic=0.0,
            effect_imaging=0.0,
            effect_interaction=0.0,
            intercept=0.0,
            label_noise=0.0,
            seed=27,
        )
        data = generate(spec)
        assert abs(data.dataset.labels.mean() - 0.5) < 0.05

    def test_label_noise_flips(self):
        base = synthetic_instance(28, label_noise=0.0, n_samples=400)
        noisy = synthetic_instance(28, label_noise=0.3, n_samples=400)
        np.testing.assert_array_equal(base.dataset.genetic, noisy.dataset.genetic)
        frac = np.mean(base.dataset.labels != noisy.dataset.labels)
        assert 0.15 < frac < 0.45

    def test_passes_preprocessing(self):
        data = synthetic_instance(29)
        record = fit_scaler(data.dataset)
        design = make_design(data.dataset, data.groups, record)
        assert design.n_samples == data.dataset.n_samples


class TestWriteFiles:
    def test_round_trip_through_loaders(self, tmp_path):
        data = synthetic_instance(30, overlap=0.34)
        write_files(data, str(tmp_path))
        names_g, genetic = load_matrix_csv(str(tmp_path / "genetic.csv"))
        names_i, imaging = load_matrix_csv(str(tmp_path / "imaging.csv"))
        labels = load_labels_csv(str(tmp_path / "labels.csv"))
        gs = load_group_file(str(tmp_path / "groups.tsv"), genetic.shape[1])
        np.testing.assert_array_equal(genetic, data.dataset.genetic)
        np.testing.assert_array_equal(imaging, data.dataset.imaging)
        np.testing.assert_array_equal(labels, data.dataset.labels)
        assert gs.n_groups == data.groups.n_groups
        for l in range(gs.n_groups):
            np.testing.assert_array_equal(gs.groups[l], data.groups.groups[l])


class TestFiniteDifferenceGradient:
    def test_saturated_fit_has_near_zero_gradient(self):
        # perfectly fit saturated instance: every probability at its label
        d, gs, design = random_instance(31)
        p = random_params(32, design.n_imaging, gs.expanded_size)
        p.interaction[:] = 0.0
        p.imaging[:] = 0.0
        p.genetic[:] = 0.0
        p.intercept = 400.0 if d.labels.mean() > 0.5 else -400.0
        # not a perfect fit for mixed labels; use all-one labels instead
        from structprox import Dataset
        from structprox.objective import Design

        d2 = Dataset(d.genetic, d.imaging, np.ones(d.n_samples))
        design2 = Design.from_dataset(d2, gs)
        p.intercept = 400.0
        fd = finite_difference_gradient(p, design2)
        assert np.max(np.abs(fd)) < 1e-8

    def test_matches_analytic_on_random_instances(self):
        from structprox.objective import risk_gradient

        for trial in range(5):
            d, gs, design = random_instance(33 + trial)
            p = random_params(40 + trial, design.n_imaging, gs.expanded_size)
            fd = finite_difference_gradient(p, design)
            g = risk_gradient(p, design)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_second_order_accuracy(self):
        # halving the step shrinks the error roughly fourfold
        from structprox.objective import risk_gradient

        d, gs, design = random_instance(38)
        p = random_params(39, design.n_imaging, gs.expanded_size)
        g = risk_gradient(p, design)
        e1 = np.max(np.abs(finite_difference_gradient(p, design, step=1e-3) - g))
        e2 = np.max(np.abs(finite_difference_gradient(p, design, step=5e-4) - g))
        assert e2 < e1 / 2.5


    @pytest.mark.parametrize("step", [0.0, -1e-6])
    def test_non_positive_step_rejected(self, step):
        d, gs, design = random_instance(33)
        p = random_params(34, design.n_imaging, gs.expanded_size)
        with pytest.raises(ValueError) as err:
            finite_difference_gradient(p, design, step=step)
        assert str(err.value) == "step must be > 0, got %r" % step


class TestReferenceSolve:
    def test_refines_fit_objective(self):
        data = synthetic_instance(34)
        gs = data.groups
        design = make_design(data.dataset, gs, fit_scaler(data.dataset))
        h = default_hyper()
        p_fit, _ = fit(design, gs, h)
        p_ref, state = reference_solve(design, gs, h)
        ours = objective(p_fit, design, gs, h).total
        ref = objective(p_ref, design, gs, h).total
        assert ref <= ours + 1e-12

    def test_small_instance_agreement(self):
        # N=40, |I|=3, L=4, |Gl|=3 instance: fit matches the long-run
        # reference within 1e-4 relative
        data = synthetic_instance(35, n_samples=40, n_imaging=3, n_groups=4,
                                  group_size=3)
        gs = data.groups
        design = make_design(data.dataset, gs, fit_scaler(data.dataset))
        h = default_hyper()
        p_fit, _ = fit(design, gs, h)
        p_ref, _ = reference_solve(design, gs, h)
        ours = objective(p_fit, design, gs, h).total
        ref = objective(p_ref, design, gs, h).total
        assert abs(ours - ref) <= 1e-4 * abs(ref)

    def test_rejects_large_problems(self):
        spec = SyntheticSpec(
            n_samples=30, n_imaging=40, n_groups=40, group_size=4, seed=36
        )
        data = generate(spec)
        design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
        with pytest.raises(ValueError, match="reference"):
            reference_solve(design, data.groups, default_hyper())

    def test_unconverged_run_raises(self, monkeypatch):
        # the solver stops after one iteration, far short of the 1e-10 tolerance
        real_fit = synthetic.fit
        monkeypatch.setattr(synthetic, "fit",
                            lambda design, gs, h: real_fit(design, gs, replace(h, max_iters=1)))
        data = synthetic_instance(37)
        design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
        with pytest.raises(SolverFailure) as err:
            reference_solve(design, data.groups, default_hyper())
        assert str(err.value).startswith(
            "reference solve did not converge: max_iters after 1 iterations, duality gap ")
