import re

import numpy as np
import pytest

from structprox import Dataset, GroupStructure, fit_scaler, make_design, preprocessing
from structprox.preprocessing import (
    NORMALIZATION_MODES,
    ScalingRecord,
    load_scaler,
    save_scaler,
)

from conftest import LOCALE_CODEC, needs_utf8, random_instance


def small_dataset(seed, n=12, n_genetic=4, n_imaging=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.binomial(2, 0.4, size=(n, n_genetic)).astype(float),
        rng.normal(2.0, 3.0, size=(n, n_imaging)),
        rng.integers(0, 2, n).astype(float),
    )


def standardized(d, record):
    """The design of ``d`` under ``record``, one group per genetic column,
    so its genetic columns keep their original order."""
    gs = GroupStructure([[j] for j in range(d.n_genetic)], n_features=d.n_genetic)
    return make_design(d, gs, record)


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

    def test_inexact_constant_product_keeps_scale_one(self, monkeypatch):
        # The standardized product of the imaging column and genetic column
        # 0 is 1 up to rounding, so its spread is rounding noise that the
        # two-pass form keeps under the constant-column tolerance; a one-pass
        # E[p^2] - mean^2 does not.  Genetic column 1 is ordinary: its
        # product takes the one-pass path.
        d = Dataset(
            np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 2.0], [2.0, 1.0], [0.0, 0.0], [2.0, 1.0]]),
            np.array([[0.1], [0.7], [0.1], [0.7], [0.1], [0.7]]),
            np.array([0.0, 1.0] * 3),
        )
        two_pass = []  # the columns of every two-pass call
        column_stats = preprocessing._column_stats
        monkeypatch.setattr(preprocessing, "_column_stats",
                            lambda X, *args, **kw: two_pass.append(X.shape[1])
                            or column_stats(X, *args, **kw))
        record = fit_scaler(d)
        # the genetic and imaging marginals, then the one recomputed product
        assert two_pass == [2, 1, 1]
        assert record.cross_scale[0, 0] == 1.0
        zg = (d.genetic[:, 1] - record.genetic_mean[1]) / record.genetic_scale[1]
        zi = (d.imaging[:, 0] - record.imaging_mean[0]) / record.imaging_scale[0]
        mean, scale = long_double_two_pass(zi * zg.astype(np.longdouble), "sd")
        assert abs(record.cross_mean[0, 1] - mean) <= MEAN_ATOL
        assert abs(record.cross_scale[0, 1] - scale) <= SCALE_RTOL * scale

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
        norms = np.linalg.norm(standardized(d, record).imaging, axis=0)
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
        design = standardized(d, fit_scaler(d))
        zg, zi = design.genetic, design.imaging
        np.testing.assert_allclose(zg.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(zi.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(zg.std(axis=0), 1.0, rtol=1e-10)
        np.testing.assert_allclose(zi.std(axis=0), 1.0, rtol=1e-10)

    def test_idempotence(self):
        # scaling already-scaled data finds means 0 and scales 1
        d = small_dataset(10)
        design = standardized(d, fit_scaler(d))
        record2 = fit_scaler(Dataset(design.genetic, design.imaging, d.labels))
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
        held_out = standardized(Dataset([[5.0]], [[40.0]], [0]), record)
        np.testing.assert_allclose(held_out.genetic[0, 0], (5.0 - 2.0) / np.sqrt(2.0 / 3.0))
        scale_i = np.sqrt(np.mean((np.array([10.0, 20.0, 30.0]) - 20.0) ** 2))
        np.testing.assert_allclose(held_out.imaging[0, 0], (40.0 - 20.0) / scale_i)

    def test_labels_carried_through(self):
        d = small_dataset(11)
        gs = GroupStructure([[0, 1], [2, 3]], n_features=4)
        design = make_design(d, gs, fit_scaler(d))
        np.testing.assert_array_equal(design.labels, d.labels)

    @pytest.mark.parametrize("normalization", NORMALIZATION_MODES)
    def test_rows_match_inline_oracle(self, normalization):
        # overlapping groups: expanded columns 1 and 2 copy original feature 1
        d, gs, _ = random_instance(16, n=20, groups=((0, 1), (1, 2)))
        record = fit_scaler(d, normalization)
        design = make_design(d, gs, record)
        zg = ((d.genetic - record.genetic_mean) / record.genetic_scale)[:, gs.expansion_index]
        zi = (d.imaging - record.imaging_mean) / record.imaging_scale
        assert design.genetic.tobytes() == zg.tobytes()
        assert design.imaging.tobytes() == zi.tobytes()


class TestCrossStats:
    def test_cross_products_standardized_in_design(self):
        d, gs, _ = random_instance(12, n=30)
        record = fit_scaler(d)
        design = make_design(d, gs, record)
        zg, zi = design.genetic, design.imaging
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
        design = standardized(d, record)
        zg, zi = design.genetic, design.imaging
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

    @pytest.mark.parametrize("normalization", NORMALIZATION_MODES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_statistics_match_long_double_two_pass(self, order, normalization):
        # both memory orders: the marginal sums and the matrix products run
        # through different kernels for C and F inputs, so each order's
        # rounding is held to the bound
        rng = np.random.default_rng(16)
        genetic = np.asarray(rng.binomial(2, 0.4, size=(300, 7)), dtype=float, order=order)
        imaging = np.asarray(rng.normal(2.0, 3.0, size=(300, 4)), order=order)
        d = Dataset(genetic, imaging, rng.integers(0, 2, 300))
        record = fit_scaler(d, normalization)
        for kind in ("genetic", "imaging"):
            mean, scale = long_double_two_pass(getattr(d, kind), normalization)
            np.testing.assert_allclose(getattr(record, kind + "_mean"), mean, rtol=SCALE_RTOL)
            np.testing.assert_allclose(getattr(record, kind + "_scale"), scale, rtol=SCALE_RTOL)
        # the products of the standardized columns as fit_scaler forms them,
        # multiplied in long double
        zg = (d.genetic - record.genetic_mean) / record.genetic_scale
        zi = (d.imaging - record.imaging_mean) / record.imaging_scale
        for i in range(d.n_imaging):
            mean, scale = long_double_two_pass(
                zi[:, i : i + 1] * zg.astype(np.longdouble), normalization)
            assert np.max(np.abs(record.cross_mean[i] - mean)) <= MEAN_ATOL
            assert np.max(np.abs(record.cross_scale[i] - scale) / scale) <= SCALE_RTOL

    @pytest.mark.parametrize("normalization", NORMALIZATION_MODES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_statistics_bit_equal_to_column_loop(self, monkeypatch, order, normalization):
        # imaging column 1 tracks genetic column 0: their product alone is
        # recomputed, a slice of one column
        assert_statistics_bit_equal_to_column_loop(
            monkeypatch, order, normalization, {0: [1]})

    @pytest.mark.parametrize("normalization", NORMALIZATION_MODES)
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("width", [3, 6])
    def test_statistics_in_slices_bit_equal_to_column_loop(self, monkeypatch, width, order,
                                                           normalization):
        # the first 3 or 6 of the 7 imaging columns track genetic column 0 and
        # the last tracks genetic column 1: slices of 3 + 1 or 6 + 1 columns
        assert_statistics_bit_equal_to_column_loop(
            monkeypatch, order, normalization, {0: list(range(width)), 1: [6]})


def assert_statistics_bit_equal_to_column_loop(monkeypatch, order, normalization, tracking):
    """fit_scaler's marginal statistics of a 300 x 7 genetic and 300 x 7
    imaging dataset in ``order`` are byte-equal to a two-pass loop over the
    columns, and so are the statistics of every near-constant product, each
    against the two-pass statistics of its own column.

    ``tracking`` maps a balanced 0/2 genetic column to the imaging columns
    that are noisy multiples of it; exactly those products are near-constant
    (variance at most their squared mean), and fit_scaler recomputes them
    per genetic column ``j``, in one slice of ``tracking[j]``'s columns."""
    def column_stats(X):
        mean = X.mean(axis=0)
        centered = X - mean
        reduce = np.mean if normalization == "sd" else np.sum
        spread = np.sqrt(reduce(centered**2, axis=0))
        constant = spread <= 1e-12 * np.maximum(1.0, np.abs(mean))
        return mean, np.where(constant, 1.0, spread)

    rng = np.random.default_rng(16)
    genetic = rng.binomial(2, 0.4, size=(300, 7)).astype(float)
    imaging = rng.normal(2.0, 3.0, size=(300, 7))
    for j, columns in tracking.items():
        genetic[:, j] = 2.0 * rng.binomial(1, 0.5, size=300)
        imaging[:, columns] = (genetic[:, j : j + 1] * rng.uniform(1.0, 3.0, len(columns))
                               + rng.normal(0.0, 0.1, size=(300, len(columns))))
    d = Dataset(np.asarray(genetic, order=order), np.asarray(imaging, order=order),
                rng.integers(0, 2, 300))
    slices = []  # the columns of every two-pass call
    two_pass = preprocessing._column_stats
    monkeypatch.setattr(preprocessing, "_column_stats",
                        lambda X, *args, **kw: slices.append(X.shape[1])
                        or two_pass(X, *args, **kw))
    record = fit_scaler(d, normalization)
    # the genetic and imaging marginals, then one slice per tracked column
    assert slices == [7, 7, *(len(columns) for columns in tracking.values())]
    g_mean, g_scale = column_stats(d.genetic)
    i_mean, i_scale = column_stats(d.imaging)
    for got, want in [
        (record.genetic_mean, g_mean), (record.genetic_scale, g_scale),
        (record.imaging_mean, i_mean), (record.imaging_scale, i_scale),
    ]:
        assert got.tobytes() == want.tobytes()
    zg, zi = (d.genetic - g_mean) / g_scale, (d.imaging - i_mean) / i_scale
    near = []
    for i in range(d.n_imaging):
        for j in range(d.n_genetic):
            mean, scale = column_stats(zi[:, i] * zg[:, j])
            variance = scale**2 / (1 if normalization == "sd" else d.n_samples)
            if variance <= mean**2:
                near.append((i, j))
                assert record.cross_mean[i, j].tobytes() == mean.tobytes()
                assert record.cross_scale[i, j].tobytes() == scale.tobytes()
    assert near == sorted((i, j) for j, columns in tracking.items() for i in columns)


# fit_scaler's accuracy on product statistics, against a long-double two-pass
MEAN_ATOL = 1e-15
SCALE_RTOL = 1e-14


def long_double_two_pass(X, normalization):
    """The mean and scale of each column of ``X`` (one column if 1-D), computed
    two-pass in ``np.longdouble``; no column may be constant."""
    X = np.asarray(X, dtype=np.longdouble)
    mean = X.sum(axis=0) / X.shape[0]
    squares = ((X - mean) ** 2).sum(axis=0)
    return mean, np.sqrt(squares / X.shape[0] if normalization == "sd" else squares)


def assert_same_record(loaded, record):
    """The normalization, the names, the layout and every statistic bit for bit."""
    for name in ("normalization", "genetic_names", "imaging_names"):
        assert getattr(loaded, name) == getattr(record, name), name
    if record.expansion_index is None:
        assert loaded.expansion_index is None
    else:
        np.testing.assert_array_equal(loaded.expansion_index, record.expansion_index)
    for name in ("genetic_mean", "genetic_scale", "imaging_mean", "imaging_scale",
                 "cross_mean", "cross_scale"):
        a, b = getattr(loaded, name), getattr(record, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestScalerFile:
    def test_round_trip(self, tmp_path):
        d = small_dataset(15)
        record = fit_scaler(d)
        path = tmp_path / "scaler.txt"
        save_scaler(record, str(path))
        loaded = load_scaler(str(path))
        assert_same_record(loaded, record)

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
        assert_same_record(loaded, record)
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

    @staticmethod
    def hex_row(tag, values):
        return "%s\t%s\n" % (tag, np.asarray(values, "<f8").tobytes().hex())

    def test_round_trip_full_scale_bit_exact(self, tmp_path):
        # the criterion-9 shape: 1,105 genetic and 114 imaging columns
        rng = np.random.default_rng(9)
        ni, ng = 114, 1105
        extremes = [-0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 2.2250738585072014e-308]
        g_mean = rng.normal(size=ng)
        g_mean[: len(extremes)] = extremes
        x_mean = rng.normal(size=(ni, ng))
        x_mean[0, : len(extremes)] = extremes
        x_scale = rng.uniform(0.5, 2.0, size=(ni, ng))
        x_scale[1, :4] = [1e-300, 1e300, 5e-324, np.nextafter(1.0, 2.0)]
        record = ScalingRecord(
            "unit-norm",
            g_mean, rng.uniform(0.5, 2.0, ng),
            np.full(ni, -0.0), rng.uniform(0.5, 2.0, ni),
            x_mean, x_scale,
            genetic_names=["snp%04d" % j for j in range(ng)],
        )
        path = tmp_path / "scaler.txt"
        save_scaler(record, str(path))
        loaded = load_scaler(str(path))
        assert_same_record(loaded, record)
        assert np.signbit(loaded.imaging_mean).all()

    def test_rejects_v1_header(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("".join(["structprox-scaler v1\n"] + lines[1:]))
        with pytest.raises(ValueError, match="line 1: .*expected structprox-scaler v3"):
            load_scaler(str(path))

    def test_rejects_v2_file(self, tmp_path):
        # the decimal layout this format replaced; such a model must be refit
        record = fit_scaler(small_dataset(18))
        rows = ["structprox-scaler v2", "normalization\tsd", "genetic_names"]
        rows += ["genetic_mean\t" + "\t".join("%.17g" % v for v in record.genetic_mean)]
        path = tmp_path / "scaler.txt"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError) as err:
            load_scaler(str(path))
        assert str(err.value) == (
            "%s: line 1: found 'structprox-scaler v2', expected structprox-scaler v3" % path
        )

    def test_rejects_truncated_file(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match="line 14: truncated, expected cross_scale"):
            load_scaler(str(path))

    def test_rejects_row_one_value_short(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        lines[4] = lines[4][:-17] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(
            ValueError, match="line 5: genetic_scale holds 48 hex digits, expected 64"
        ):
            load_scaler(str(path))

    def test_rejects_second_field(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        lines[6] = lines[6].replace("\t", "\t\t", 1)
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 7: imaging_mean holds 2 fields, expected 1"):
            load_scaler(str(path))

    def test_rejects_partial_value_in_leading_row(self, tmp_path):
        # genetic_mean sets the count, so its length alone must be whole values
        path, lines = self.saved_lines(tmp_path)
        lines[3] = lines[3][:-2] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 4: genetic_mean holds 63 hex digits, expected 48"):
            load_scaler(str(path))

    def test_rejects_non_numeric_value(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        tag, field = lines[9].rstrip("\n").split("\t")
        lines[9] = "%s\tx%s\n" % (tag, field[1:])
        path.write_text("".join(lines))
        with pytest.raises(
            ValueError, match="line 10: cross_mean holds a character that is not a hex digit"
        ):
            load_scaler(str(path))

    @pytest.mark.parametrize("blanks", [1, 2, 16])
    def test_rejects_blank_inside_field(self, tmp_path, blanks):
        # bytes.fromhex skips blanks: one leaves an odd digit count, two drop a
        # byte and sixteen a whole value, none of which may pass
        path, lines = self.saved_lines(tmp_path)
        tag, field = lines[10].rstrip("\n").split("\t")
        lines[10] = "%s\t%s%s%s\n" % (tag, field[:16], " " * blanks, field[16 + blanks :])
        path.write_text("".join(lines))
        with pytest.raises(
            ValueError, match="line 11: cross_mean holds a character that is not a hex digit"
        ):
            load_scaler(str(path))

    def test_round_trip_with_layout(self, tmp_path):
        # overlapping groups: column 1 is expanded twice
        record = fit_scaler(small_dataset(19), expansion_index=[0, 1, 1, 2, 3])
        path = tmp_path / "scaler.txt"
        save_scaler(record, str(path))
        assert path.read_text().splitlines()[-1] == "expansion_index\t0\t1\t1\t2\t3"
        assert_same_record(load_scaler(str(path)), record)

    def test_file_without_layout_leaves_groups_unchecked(self, tmp_path):
        # the 14 lines of a file written before the layout row existed
        path, _ = self.saved_lines(tmp_path)
        loaded = load_scaler(str(path))
        assert loaded.expansion_index is None
        loaded.check_groups(GroupStructure([[3, 2], [1, 0]], n_features=4))

    @pytest.mark.parametrize("field", ["1.5", "x", "", "99999999999999999999"])
    def test_rejects_layout_field_not_an_index(self, tmp_path, field):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("".join(lines + ["expansion_index\t0\t%s\t2\t3\n" % field]))
        with pytest.raises(
            ValueError, match="line 15: expansion_index holds a field that is not an index"
        ):
            load_scaler(str(path))

    def test_rejects_layout_index_out_of_range(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("".join(lines + ["expansion_index\t0\t1\t2\t4\n"]))
        with pytest.raises(ValueError) as err:
            load_scaler(str(path))
        assert str(err.value) == "%s: expansion_index holds index 4 outside [0, 4)" % path

    def test_rejects_line_after_layout(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        row = "expansion_index\t0\t1\t2\t3\n"
        path.write_text("".join(lines + [row, row]))
        with pytest.raises(ValueError, match="line 16: follows the last expansion_index row"):
            load_scaler(str(path))

    def test_rejects_trailing_line(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("".join(lines + [lines[-1]]))
        with pytest.raises(ValueError, match="line 15: follows the last cross_scale row"):
            load_scaler(str(path))

    def test_rejects_non_finite_scale(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        lines[4] = self.hex_row("genetic_scale", [np.nan, 1.0, 1.0, 1.0])
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="genetic_scale holds a non-finite value"):
            load_scaler(str(path))

    def test_rejects_scale_not_positive(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        lines[12] = self.hex_row("cross_scale", [1.0, -0.0, 1.0, 1.0])
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="^%s: cross_scale must be > 0" % re.escape(str(path))):
            load_scaler(str(path))

    @needs_utf8
    def test_undecodable_byte_reports_its_line(self, tmp_path):
        record = fit_scaler(small_dataset(16, n_genetic=3, n_imaging=2),
                            genetic_names=["snp_a", "snp_b", "snp_c"])
        path = tmp_path / "scaler.txt"
        save_scaler(record, str(path))
        path.write_bytes(path.read_bytes().replace(b"snp_b", b"snp_\xe9"))
        with pytest.raises(ValueError) as err:
            load_scaler(str(path))
        assert str(err.value) == "%s: line 3 holds a byte that is not valid %s" % (
            path, LOCALE_CODEC)

    def test_crlf_line_ends_load(self, tmp_path):
        record = fit_scaler(small_dataset(19), genetic_names=["a", "b", "c", "d"],
                            expansion_index=[0, 1, 1, 2, 3])
        path = tmp_path / "scaler.txt"
        save_scaler(record, str(path))
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert_same_record(load_scaler(str(path)), record)

    def test_transform_after_reload_identical(self, tmp_path):
        d = small_dataset(17)
        record = fit_scaler(d)
        path = tmp_path / "scaler.txt"
        save_scaler(record, str(path))
        loaded = load_scaler(str(path))
        a = standardized(d, record)
        b = standardized(d, loaded)
        for name in ("genetic", "imaging", "cross_mean", "cross_scale"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestScalingRecord:
    def test_caller_arrays_stay_writeable(self):
        # the six statistics are aliased through read-only views, never copied
        stats = [np.zeros(2), np.ones(2), np.zeros(3), np.ones(3), np.zeros((3, 2)), np.ones((3, 2))]
        record = ScalingRecord("sd", *stats)
        for given, name in zip(stats, ("genetic_mean", "genetic_scale", "imaging_mean",
                                       "imaging_scale", "cross_mean", "cross_scale")):
            stored = getattr(record, name)
            assert given.flags.writeable and not stored.flags.writeable
            assert np.shares_memory(given, stored)

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


def one_by_one_record(**names):
    # one genetic and one imaging column
    return ScalingRecord("sd", [0.0], [1.0], [0.0], [1.0], [[0.0]], [[1.0]], **names)


class TestRejectionMessages:
    # every rejection of the scaler and the design builder, message in full
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: ScalingRecord("bogus", [0.0], [1.0], [0.0], [1.0], [[0.0]],
                                           [[1.0]]),
                     "normalization must be one of ('sd', 'unit-norm'), got 'bogus'",
                     id="normalization"),
        pytest.param(lambda: ScalingRecord("sd", [0.0], [0.0], [0.0], [1.0], [[0.0]], [[1.0]]),
                     "genetic_scale must be > 0", id="scale-not-positive"),
        # a NaN cross mean would give NaN margins, an infinite cross scale
        # would zero the interaction term
        pytest.param(lambda: ScalingRecord("sd", [0.0], [1.0], [0.0], [1.0], [[0.0]], [[0.0]]),
                     "cross_scale must be > 0", id="cross-scale-zero"),
        pytest.param(lambda: ScalingRecord("sd", [0.0], [1.0], [0.0], [1.0], [[np.nan]],
                                           [[1.0]]),
                     "cross_mean holds a non-finite value", id="cross-mean-nan"),
        pytest.param(lambda: ScalingRecord("sd", [0.0], [1.0], [0.0], [1.0], [[0.0]],
                                           [[np.inf]]),
                     "cross_scale holds a non-finite value", id="cross-scale-inf"),
        pytest.param(lambda: one_by_one_record(genetic_names=["a", "b"]),
                     "genetic_names holds 2 names, expected 1", id="name-count"),
        pytest.param(lambda: make_design(Dataset(np.zeros((2, 3)), np.zeros((2, 1)), [0, 1]),
                                         GroupStructure([[0]], n_features=1),
                                         one_by_one_record()),
                     "genetic matrix has shape (2, 3), groups cover 1 features",
                     id="genetic-columns"),
        pytest.param(lambda: make_design(Dataset(np.zeros((2, 1)), np.zeros((2, 2)), [0, 1]),
                                         GroupStructure([[0]], n_features=1),
                                         one_by_one_record()),
                     "imaging matrix has shape (2, 2), scaler was fit on 1 columns",
                     id="imaging-columns"),
        pytest.param(lambda: make_design(
                         Dataset(np.zeros((2, 1)), np.zeros((2, 1)), [0, 1]),
                         GroupStructure([[0], [1]], n_features=2), one_by_one_record()),
                     "groups cover 2 features, scaler was fit on 1", id="groups-vs-scaler"),
        pytest.param(lambda: make_design(
                         Dataset(np.zeros((2, 2)), np.zeros((2, 1)), [0, 1]),
                         GroupStructure([[1], [0]], n_features=2),
                         ScalingRecord("sd", [0.0, 0.0], [1.0, 1.0], [0.0], [1.0], [[0.0, 0.0]],
                                       [[1.0, 1.0]], expansion_index=[0, 1])),
                     "groups expand the genetic columns differently from the groups of the fit",
                     id="groups-vs-layout"),
        pytest.param(lambda: one_by_one_record(expansion_index=[1]),
                     "expansion_index holds index 1 outside [0, 1)", id="layout-range"),
    ])
    def test_message(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
