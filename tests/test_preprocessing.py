import numpy as np
import pytest

from structprox import Dataset, GroupStructure, fit_scaler, make_design
from structprox.preprocessing import (
    ScalingRecord,
    load_scaler,
    save_scaler,
    transform_features,
)

from conftest import random_instance


def small_dataset(seed, n=12, n_genetic=4, n_imaging=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.binomial(2, 0.4, size=(n, n_genetic)).astype(float),
        rng.normal(2.0, 3.0, size=(n, n_imaging)),
        rng.integers(0, 2, n).astype(float),
    )


class TestFitScaler:
    def test_population_sd_stats(self):
        # column (-1, 1): mean 0, population SD 1
        d = Dataset(
            np.array([[-1.0], [1.0]]),
            np.array([[4.0], [8.0]]),
            np.array([0.0, 1.0]),
        )
        record = fit_scaler(d)
        np.testing.assert_allclose(record.genetic_mean, [0.0])
        np.testing.assert_allclose(record.genetic_scale, [1.0])
        np.testing.assert_allclose(record.imaging_mean, [6.0])
        np.testing.assert_allclose(record.imaging_scale, [2.0])

    def test_constant_column_flagged_scale_one(self):
        d = Dataset(
            np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 0.0]]),
            np.ones((3, 1)) * 5.0,
            np.array([0.0, 1.0, 0.0]),
        )
        record = fit_scaler(d)
        assert record.genetic_scale[1] == pytest.approx(np.sqrt(2.0 / 3.0))
        assert record.genetic_scale[0] == 1.0
        assert record.genetic_mean[0] == 0.0
        assert record.imaging_scale[0] == 1.0

    def test_inexact_constant_product_keeps_scale_one(self):
        # The standardized product of these columns is 1 up to rounding, so
        # its spread is rounding noise that the two-pass form keeps under the
        # constant-column tolerance; a one-pass E[p^2] - mean^2 does not.
        d = Dataset(
            np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 2.0], [2.0, 1.0], [0.0, 0.0], [2.0, 1.0]]),
            np.array([[0.1], [0.7], [0.1], [0.7], [0.1], [0.7]]),
            np.array([0.0, 1.0] * 3),
        )
        assert fit_scaler(d).cross_scale[0, 0] == 1.0

    def test_matches_two_pass_brute_force(self):
        rng = np.random.default_rng(5)
        X = rng.normal(3.0, 2.5, size=(10, 3))
        d = Dataset(
            rng.binomial(2, 0.3, size=(10, 2)).astype(float),
            X,
            rng.integers(0, 2, 10).astype(float),
        )
        record = fit_scaler(d)
        for j in range(3):
            mean = sum(X[:, j]) / 10.0
            var = sum((X[k, j] - mean) ** 2 for k in range(10)) / 10.0
            np.testing.assert_allclose(record.imaging_mean[j], mean, atol=1e-12)
            np.testing.assert_allclose(record.imaging_scale[j], np.sqrt(var), atol=1e-12)

    def test_unit_norm_mode(self):
        d = small_dataset(7)
        record = fit_scaler(d, normalization="unit-norm")
        _, zi = transform_features(record, d.genetic, d.imaging)
        norms = np.linalg.norm(zi, axis=0)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_single_sample_rejected(self):
        d = Dataset(np.zeros((1, 2)), np.zeros((1, 2)), np.array([1.0]))
        with pytest.raises(ValueError):
            fit_scaler(d)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler(small_dataset(8), normalization="zscore")


class TestTransform:
    def test_training_columns_centered_and_scaled(self):
        d = small_dataset(9)
        record = fit_scaler(d)
        zg, zi = transform_features(record, d.genetic, d.imaging)
        np.testing.assert_allclose(zg.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(zi.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(zg.std(axis=0), 1.0, rtol=1e-10)
        np.testing.assert_allclose(zi.std(axis=0), 1.0, rtol=1e-10)

    def test_idempotence(self):
        # scaling already-scaled data finds means 0 and scales 1
        d = small_dataset(10)
        zg, zi = transform_features(fit_scaler(d), d.genetic, d.imaging)
        record2 = fit_scaler(Dataset(zg, zi, d.labels))
        np.testing.assert_allclose(record2.genetic_mean, 0.0, atol=1e-10)
        np.testing.assert_allclose(record2.genetic_scale, 1.0, rtol=1e-10)
        np.testing.assert_allclose(record2.imaging_mean, 0.0, atol=1e-10)
        np.testing.assert_allclose(record2.imaging_scale, 1.0, rtol=1e-10)

    def test_held_out_row_hand_computation(self):
        # training column (1, 2, 3): mean 2, population SD sqrt(2/3);
        # held-out value 5 maps to (5-2)/sqrt(2/3)
        d = Dataset(
            np.array([[1.0], [2.0], [3.0]]),
            np.array([[10.0], [20.0], [30.0]]),
            np.array([0.0, 1.0, 0.0]),
        )
        record = fit_scaler(d)
        zg, zi = transform_features(record, np.array([[5.0]]), np.array([[40.0]]))
        np.testing.assert_allclose(zg[0, 0], (5.0 - 2.0) / np.sqrt(2.0 / 3.0))
        scale_i = np.sqrt(np.mean((np.array([10.0, 20.0, 30.0]) - 20.0) ** 2))
        np.testing.assert_allclose(zi[0, 0], (40.0 - 20.0) / scale_i)

    def test_labels_carried_through(self):
        d = small_dataset(11)
        gs = GroupStructure([[0, 1], [2, 3]], n_features=4)
        design = make_design(d, gs, fit_scaler(d))
        np.testing.assert_array_equal(design.labels, d.labels)


class TestCrossStats:
    def test_cross_products_standardized_in_design(self):
        d, gs, _ = random_instance(12, n=30)
        record = fit_scaler(d)
        design = make_design(d, gs, record)
        zg, zi = transform_features(record, d.genetic, d.imaging)
        zg = zg[:, gs.expansion_index]
        for i in range(zi.shape[1]):
            for g in range(gs.expanded_size):
                z = (zi[:, i] * zg[:, g] - design.cross_mean[i, g]) / design.cross_scale[i, g]
                np.testing.assert_allclose(z.mean(), 0.0, atol=1e-10)
                if design.cross_scale[i, g] != 1.0:
                    np.testing.assert_allclose(z.std(), 1.0, rtol=1e-10)

    def test_overlap_copies_share_statistics(self):
        d, gs, _ = random_instance(13, groups=((0, 1), (1, 2)))
        record = fit_scaler(d)
        design = make_design(d, gs, record)
        # expanded columns 1 and 2 both come from original feature 1
        np.testing.assert_array_equal(
            design.cross_mean[:, 1], design.cross_mean[:, 2]
        )
        np.testing.assert_array_equal(
            design.cross_scale[:, 1], design.cross_scale[:, 2]
        )

    def test_design_statistics_c_contiguous(self):
        d, gs, _ = random_instance(15, groups=((0, 1), (1, 2)))
        design = make_design(d, gs, fit_scaler(d))
        assert design.cross_mean.flags.c_contiguous
        assert design.cross_scale.flags.c_contiguous

    def test_cross_stats_match_brute_force(self):
        d, gs, _ = random_instance(14, n=25)
        record = fit_scaler(d)
        zg, zi = transform_features(record, d.genetic, d.imaging)
        for i in range(zi.shape[1]):
            for g in range(zg.shape[1]):
                prod = zi[:, i] * zg[:, g]
                np.testing.assert_allclose(
                    record.cross_mean[i, g], prod.mean(), atol=1e-12
                )
                # a constant product column keeps scale 1
                spread = prod.std()
                if spread <= 1e-12 * max(1.0, abs(prod.mean())):
                    spread = 1.0
                np.testing.assert_allclose(
                    record.cross_scale[i, g], spread, rtol=1e-12
                )


class TestScalerFile:
    def test_round_trip(self, tmp_path):
        d = small_dataset(15)
        record = fit_scaler(d)
        path = tmp_path / "scaler.txt"
        save_scaler(record, str(path))
        loaded = load_scaler(str(path))
        assert loaded == record

    def test_round_trip_with_names(self, tmp_path):
        d = small_dataset(16, n_genetic=3, n_imaging=2)
        record = fit_scaler(
            d,
            genetic_names=["snp_a", "snp_b", "snp_c"],
            imaging_names=["roi_x", "roi_y"],
        )
        path = tmp_path / "scaler.txt"
        save_scaler(record, str(path))
        loaded = load_scaler(str(path))
        assert loaded == record
        assert loaded.genetic_names == ("snp_a", "snp_b", "snp_c")

    def test_rejects_corrupt_header(self, tmp_path):
        path = tmp_path / "scaler.txt"
        path.write_text("not a scaler\n")
        with pytest.raises(ValueError):
            load_scaler(str(path))

    @staticmethod
    def saved_lines(tmp_path):
        """Path and lines of a saved 4-genetic, 3-imaging scaler file.

        Lines 1-8 are the header, normalization and the genetic and
        imaging names/mean/scale rows; 9-11 are cross_mean, 12-14
        cross_scale.
        """
        path = tmp_path / "scaler.txt"
        save_scaler(fit_scaler(small_dataset(18)), str(path))
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 14
        return path, lines

    def test_rejects_v1_header(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("".join(["structprox-scaler v1\n"] + lines[1:]))
        with pytest.raises(ValueError, match="line 1: .*expected structprox-scaler v2"):
            load_scaler(str(path))

    def test_rejects_truncated_file(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match="line 14: truncated, expected cross_scale"):
            load_scaler(str(path))

    def test_rejects_row_one_value_short(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        lines[4] = lines[4].rsplit("\t", 1)[0] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(
            ValueError, match="line 5: genetic_scale holds 3 values, expected 4"
        ):
            load_scaler(str(path))

    def test_rejects_non_numeric_value(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        lines[9] = lines[9].replace("\t", "\tabc", 1)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 10: cross_mean holds a non-numeric value"):
            load_scaler(str(path))

    def test_rejects_trailing_line(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("".join(lines + [lines[-1]]))
        with pytest.raises(ValueError, match="line 15: follows the last cross_scale row"):
            load_scaler(str(path))

    def test_rejects_non_finite_scale(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        lines[4] = "genetic_scale\tnan\t1\t1\t1\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="genetic_scale holds a non-finite value"):
            load_scaler(str(path))

    def test_transform_after_reload_identical(self, tmp_path):
        d = small_dataset(17)
        record = fit_scaler(d)
        path = tmp_path / "scaler.txt"
        save_scaler(record, str(path))
        loaded = load_scaler(str(path))
        a = transform_features(record, d.genetic, d.imaging)
        b = transform_features(loaded, d.genetic, d.imaging)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestScalingRecord:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="imaging_scale must have shape"):
            ScalingRecord("sd", [0.0], [1.0], [0.0], [1.0, 1.0, 1.0], [[0.0]], [[1.0]])

    @pytest.mark.parametrize("kind", ["genetic", "imaging"])
    @pytest.mark.parametrize("breaker", ["\t", "\r", "\n"])
    def test_rejects_name_with_tab_or_line_break(self, kind, breaker):
        # the scaler file splits rows on tabs and reads CR and LF as line ends
        names = {"genetic_names": ("g0", "g1"), "imaging_names": ("i0",)}
        bad = names[kind + "_names"][:-1] + ("snp" + breaker + "A",)
        names[kind + "_names"] = bad
        with pytest.raises(ValueError, match="%s column %d name" % (kind, len(bad) - 1)):
            ScalingRecord(
                "sd", [0.0, 0.0], [1.0, 1.0], [0.0], [1.0],
                [[0.0, 0.0]], [[1.0, 1.0]], **names,
            )
