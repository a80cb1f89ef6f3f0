import csv
import io
import os
import threading
import warnings

import numpy as np
import pytest

from structprox import GroupStructure, ParameterSet, SyntheticSpec, build_groups, dataio
from structprox.dataio import (
    load_group_file,
    load_labels_csv,
    load_matrix_csv,
    load_params,
    save_group_file,
    save_labels_csv,
    save_matrix_csv,
    save_params,
    save_predictions_csv,
    save_trace_csv,
)

from conftest import LOCALE_CODEC, needs_utf8


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 3)) * np.pi
        path = tmp_path / "m.csv"
        save_matrix_csv(str(path), ["a", "b", "c"], X)
        names, Y = load_matrix_csv(str(path))
        assert names == ["a", "b", "c"]
        np.testing.assert_array_equal(X, Y)

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="line 3"):
            load_matrix_csv(str(path))

    def test_non_numeric_reports_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 3"):
            load_matrix_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            load_matrix_csv(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_matrix_csv(str(path))

    def test_save_rejects_names_that_do_not_match_the_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError) as err:
            save_matrix_csv(str(path), ["a"], np.zeros((2, 2)))
        assert str(err.value) == "matrix shape (2, 2) does not match 1 column names"
        assert not path.exists()


    # Fields np.loadtxt parses like float(), and fields only float() takes
    # ('1_0'), which send the file through the row loop.
    FIELDS = (
        " 1.5", "+1", "-0", "1e400", "-Infinity", "nan", "1_0", "5e-324",
        "2.2250738585072011e-308", ".5",
    )

    @pytest.mark.parametrize("fields", [FIELDS, FIELDS[:6] + FIELDS[7:]], ids=["row-loop", "c-parse"])
    def test_values_bit_identical_to_float(self, tmp_path, fields):
        path = tmp_path / "m.csv"
        names = ["c%d" % k for k in range(len(fields))]
        path.write_text(",".join(names) + "\n" + ",".join(fields) + "\n" + ",".join(fields[::-1]) + "\n")
        want = np.array([[float(v) for v in fields], [float(v) for v in fields[::-1]]])
        got_names, X = load_matrix_csv(str(path))
        assert got_names == names
        assert X.dtype == np.float64 and X.flags.c_contiguous
        assert X.tobytes() == want.tobytes()
        for v in fields:
            path.write_text("x\n%s\n" % v)
            assert load_matrix_csv(str(path))[1].tobytes() == np.array([[float(v)]]).tobytes()

    @pytest.mark.parametrize(
        "body, line",
        [
            ("1,2\n#3,4\n", 3),  # no comment syntax
            ("1,2\n3,4\x1c\n", 3),  # np.loadtxt strips 0x1C as whitespace, float() does not
            ("1,2\n\n1,,\n", 4),
            ("1,2\r\n3,x\r\n", 3),  # CR LF ends one line
            # a quoted field spanning lines 3-4 counts both
            ('0,1\n"2\n",3\n2,x\n', 5),
        ],
    )
    def test_rejected_rows_report_line_number(self, tmp_path, body, line):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n" + body, newline="")
        with pytest.raises(ValueError, match="line %d " % line):
            load_matrix_csv(str(path))

    def test_rejected_row_under_a_two_line_header_reports_its_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('"a,x","b\ny"\n0,1\n2,x\n', newline="")
        with pytest.raises(ValueError) as err:
            load_matrix_csv(str(path))
        assert str(err.value) == "%s: line 4 holds a non-numeric value" % path

    @pytest.mark.parametrize("text", [
        "a\rb\r\nc\nd", "\na\r\x0b\n\n", "a\r", "\r\r\n\r", "x\x0cy\x1cz\x85w\u2028v\n",
    ])
    def test_lines_split_as_a_file_opened_with_newline_empty(self, text):
        for start in range(len(text) + 1):
            assert list(dataio._lines(text, start)) == list(io.StringIO(text[start:], newline=""))

    def test_quoted_fields_and_line_endings_read_as_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('"a","b"\r\n"1.5",2\r\n\r\n3,"-4e1"\r', newline="")
        names, X = load_matrix_csv(str(path))
        assert names == ["a", "b"]
        np.testing.assert_array_equal(X, [[1.5, 2.0], [3.0, -40.0]])

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n\n\r\n"])
    def test_header_only_rejected_without_warning(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no data rows"):
                load_matrix_csv(str(path))
        assert caught == []


    # np.loadtxt rejects a body of blanks, unlike one of line ends, without
    # a warning, and the row loop names its line
    @pytest.mark.parametrize("text", ["a,b\n \n", "a,b\n\x0c\n"])
    def test_whitespace_body_reports_its_line_without_warning(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                load_matrix_csv(str(path))
        assert str(err.value) == "%s: line 2 has 1 fields, header has 2" % path

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n\n\r\n", "a,b\r\r", "a,b"])
    def test_body_of_line_ends_goes_straight_to_the_row_loop(self, tmp_path, monkeypatch, text):
        path = tmp_path / "m.csv"
        path.write_text(text, newline="")
        monkeypatch.setattr(np, "loadtxt", None)  # any call fails
        monkeypatch.setattr(dataio, "_digit_rows", None)
        with pytest.raises(ValueError, match="no data rows"):
            load_matrix_csv(str(path))

    # the last case puts the byte past the first 8 kB the file layer reads
    @needs_utf8
    @pytest.mark.parametrize("data, line", [
        (b"i0,i1\n\xe9,1\n", 2),
        (b"i0,i1\r\n0.5,1\r0.5,\xff\n", 3),
        (b"i0,i1\n" + b"0,1\r\n" * 3000 + b"\xc3\n", 3002),
    ], ids=["lf", "cr", "past-8kB"])
    def test_undecodable_byte_reports_its_line(self, tmp_path, data, line):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as err:
            load_matrix_csv(str(path))
        assert str(err.value) == "%s: line %d holds a byte that is not valid %s" % (
            path, line, LOCALE_CODEC)


class TestDigitParse:
    """A body of one-digit fields is read as bytes; every other body loads
    as the row loop, which defines the accepted input, reads it."""

    def test_digit_matrix_equals_loadtxt_and_row_loop(self, tmp_path):
        # 280 kB of rows, more than one 256 kB slice of the digit parse
        X = np.random.default_rng(1).integers(0, 10, size=(20000, 7)).astype(float)
        path = tmp_path / "m.csv"
        save_matrix_csv(str(path), ["c%d" % k for k in range(7)], X)
        _, got = load_matrix_csv(str(path))
        assert got.dtype == np.float64 and got.flags.c_contiguous
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert got.tobytes() == np.loadtxt(str(path), delimiter=",", skiprows=1).tobytes()
        assert got.tobytes() == np.array([[float(v) for v in row] for row in rows]).tobytes()
        assert got.tobytes() == X.tobytes()

    # Bodies under the header "a,b" the digit parse must leave to the other
    # two.  Where it can, a body starts with a row of one-digit fields, so
    # that the rest is read, and is a whole number of 4-byte rows, so that
    # the byte checks are what turn it away.
    @pytest.mark.parametrize("text", [
        pytest.param("a,b\r\n0,1\r\n2,3\r\n", id="crlf"),
        pytest.param("a,b\n0,1\n2,3\r\n", id="crlf-after-first-row"),
        pytest.param("a,b\n0,1\n2,3", id="no-final-lf"),
        pytest.param("a,b\n0,1\n2,3,", id="comma-for-final-lf"),
        pytest.param("a,b\n0,1\n2,3\r", id="cr-for-final-lf"),
        pytest.param("a,b\n0,1\n2,3\n\n", id="trailing-blank-line"),
        pytest.param("a,b\n0,1\n23,4\n", id="two-digits"),
        pytest.param("a,b\n0,1\n12,\n", id="two-digits-aligned"),
        pytest.param("a,b\n0,1\n-2,3\n", id="sign"),
        pytest.param("a,b\n0,1\n+,1\n", id="sign-aligned"),
        pytest.param("a,b\n0,1\n 2,3\n", id="space"),
        pytest.param("a,b\n0,1\n2, \n", id="space-aligned"),
        pytest.param("a,b\n0,1\n2.,3\n", id="point"),
        pytest.param("a,b\n0,1\n.,1\n", id="point-aligned"),
        pytest.param("a,b\n0,1\n2\x1c3\n", id="0x1c-separator"),
        pytest.param("a,b\n0,1\n2,3\x1c\n", id="0x1c-after-field"),
        pytest.param("a,b\n0,1\n\u0663,1\n", id="non-ascii-digit"),
        pytest.param("a,b\n0,1\n2\n3\n", id="ragged"),
        pytest.param("a,b,c\n0,1\n2,3\n4,5\n", id="header-wider"),
        pytest.param("a,b\n", id="empty-body"),
        pytest.param("a,b", id="header-without-body"),
        pytest.param("\n", id="blank-header"),
        pytest.param('"a,x","b\ny"\n0,1\n2,3\n', id="quoted-header"),
        # line ends only for str.splitlines, inside a quoted field
        pytest.param('a,b\n"1\x0b\x0c\x85\u2028",2\n3,x\n', id="splitlines-breaks-quoted"),
    ])
    def test_other_bodies_load_as_the_row_loop_reads_them(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text, newline="")

        def outcome(load):
            try:
                names, X = load()
            except ValueError as exc:
                return str(exc)
            return names, X.dtype, X.shape, X.tobytes()

        def row_loop():
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                names = [n.strip() for n in next(reader)]
                return names, dataio._read_rows(reader, len(names), str(path))

        assert outcome(lambda: load_matrix_csv(str(path))) == outcome(row_loop)

    @staticmethod
    def load_through_pipe(path, text):
        # a pipe can be read once, and its size reads 0
        os.mkfifo(path)

        def write():
            with open(path, "w") as fh:
                fh.write(text)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        loaded = load_matrix_csv(str(path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        return loaded

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
    @pytest.mark.parametrize("body", ["0,1\n2,3\n", "0.5,1\n2,3\n", '"1",2\n'],
                             ids=["digits", "decimals", "quoted"])
    def test_pipe_loads_as_file(self, tmp_path, body):
        names, X = self.load_through_pipe(tmp_path / "m.fifo", "a,b\n" + body)
        (tmp_path / "m.csv").write_text("a,b\n" + body)
        _, want = load_matrix_csv(str(tmp_path / "m.csv"))
        assert names == ["a", "b"] and X.tobytes() == want.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
    def test_pipe_takes_the_digit_parse(self, tmp_path, monkeypatch):
        monkeypatch.setattr(np, "loadtxt", None)  # any call fails
        names, X = self.load_through_pipe(tmp_path / "m.fifo", "a,b\n0,1\n2,3\n")
        assert names == ["a", "b"]
        np.testing.assert_array_equal(X, [[0.0, 1.0], [2.0, 3.0]])

    def test_quoted_header_over_digit_body(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        path.write_text('"a,x","b\ny"\n0,1\n2,3\n', newline="")
        monkeypatch.setattr(np, "loadtxt", None)  # any call fails
        names, X = load_matrix_csv(str(path))
        assert names == ["a,x", "b\ny"]
        np.testing.assert_array_equal(X, [[0.0, 1.0], [2.0, 3.0]])


class TestLabelsCsv:
    def test_round_trip(self, tmp_path):
        y = np.array([0, 1, 1, 0, 1])
        path = tmp_path / "y.csv"
        save_labels_csv(str(path), y)
        np.testing.assert_array_equal(load_labels_csv(str(path)), y)

    def test_non_binary_rejected(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("label\n0\n2\n")
        with pytest.raises(ValueError) as err:
            load_labels_csv(str(path))
        assert str(err.value) == "%s: labels must be 0 or 1, got 2.0" % path

    def test_integral_float_labels_accepted(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("label\n1.0\n-0.0\n")
        labels = load_labels_csv(str(path))
        assert labels.dtype == np.intp
        np.testing.assert_array_equal(labels, [1, 0])

    def test_two_columns_rejected(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ValueError, match="single column"):
            load_labels_csv(str(path))


class TestGroupFile:
    def test_round_trip(self, tmp_path):
        gs = GroupStructure(
            [[0, 1], [1, 2, 3]],
            n_features=4,
            weights=[1.5, 2.0],
            names=["alpha", "beta"],
        )
        path = tmp_path / "groups.tsv"
        save_group_file(str(path), gs)
        loaded = load_group_file(str(path), n_features=4)
        assert loaded.names == ("alpha", "beta")
        np.testing.assert_allclose(loaded.weights, gs.weights)
        for l in range(2):
            np.testing.assert_array_equal(loaded.groups[l], gs.groups[l])

    def test_auto_weight_is_sqrt_size(self, tmp_path):
        path = tmp_path / "groups.tsv"
        path.write_text("g1\tauto\t0,1,2\ng2\tauto\t3\n")
        gs = load_group_file(str(path), n_features=4)
        np.testing.assert_allclose(gs.weights, [np.sqrt(3.0), 1.0])

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "groups.tsv"
        path.write_text("# comment\n\ng1\tauto\t0,1\n")
        gs = load_group_file(str(path), n_features=2)
        assert gs.n_groups == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "groups.tsv"
        path.write_text("g1\tauto\t0,1\nbroken line\n")
        with pytest.raises(ValueError, match="line 2"):
            load_group_file(str(path), n_features=2)

    def test_repeated_name_rejected_with_both_lines(self, tmp_path):
        # a repeated name would repeat a column of reduced_interaction.csv
        path = tmp_path / "groups.tsv"
        path.write_text("g1\tauto\t0\n# note\ng2\tauto\t1\ng1\tauto\t1\n")
        with pytest.raises(ValueError) as err:
            load_group_file(str(path), n_features=2)
        assert str(err.value) == "%s: lines 1 and 4 both name group 'g1'" % path

    def test_lines_end_at_lf_cr_and_crlf_only(self, tmp_path):
        # a form feed inside a line does not end it, as str.splitlines would
        path = tmp_path / "groups.tsv"
        path.write_bytes(b"g1\tauto\t0\r\ng2\tauto\t1\rg3\tauto\t0\x0c1\n")
        with pytest.raises(ValueError) as err:
            load_group_file(str(path), n_features=2)
        assert str(err.value) == "%s: line 3 holds a non-integer feature index" % path

    @needs_utf8
    def test_undecodable_byte_reports_its_line(self, tmp_path):
        path = tmp_path / "groups.tsv"
        path.write_bytes(b"# note\r\ng1\tauto\t0\rg\xe9\tauto\t1\n")
        with pytest.raises(ValueError) as err:
            load_group_file(str(path), n_features=2)
        assert str(err.value) == "%s: line 3 holds a byte that is not valid %s" % (
            path, LOCALE_CODEC)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("g1\tauto\t0\ng2\tauto\t , \n", "line 2 lists no feature indices"),
            ("g1\theavy\t0,1\n", "line 1 weight must be a number or 'auto'"),
            ("# only a comment\n\n", "no group lines found"),
            ("g1\tauto\t0,x\n", "line 1 holds a non-integer feature index"),
            # rejected by GroupStructure, and still named after the file
            ("g1\tnan\t0,1\n", "group weights must be finite and > 0"),
            ("g1\tauto\t0,5\n", "group 0 holds index 5 outside [0, 2)"),
            ("g1\tauto\t0\n", "feature 1 belongs to no group; every feature must be covered"),
            # a line starting with a tab names its group ""
            ("g1\tauto\t0\n\tauto\t1\n", "group 1 name is empty"),
        ],
    )
    def test_rejected_files_report_the_reason(self, tmp_path, text, message):
        path = tmp_path / "groups.tsv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_group_file(str(path), n_features=2)
        assert str(err.value) == "%s: %s" % (path, message)

    @pytest.mark.parametrize("overlap", [0.0, 0.34])
    def test_synthetic_structure_round_trips(self, tmp_path, overlap):
        spec = SyntheticSpec(n_samples=10, n_imaging=2, n_groups=5, group_size=3, overlap=overlap)
        gs = build_groups(spec)
        path = tmp_path / "groups.tsv"
        save_group_file(str(path), gs)
        loaded = load_group_file(str(path), gs.n_features)
        assert loaded.names == gs.names
        np.testing.assert_array_equal(loaded.weights, gs.weights)
        assert len(loaded.groups) == len(gs.groups)
        for got, want in zip(loaded.groups, gs.groups):
            np.testing.assert_array_equal(got, want)

    def test_unusual_names_round_trip(self, tmp_path):
        # a name may hold inner blanks, '#' after its first character, quotes
        # and other whitespace than tabs and line breaks
        names = ["APOE TOMM40", "a#b", "'q\"", "x\x0by", "é"]
        gs = GroupStructure([[0], [1], [2], [3], [4]], n_features=5, names=names)
        path = tmp_path / "groups.tsv"
        save_group_file(str(path), gs)
        assert load_group_file(str(path), n_features=5).names == tuple(names)

    @pytest.mark.parametrize("name", ["APOE,TOMM40", "APOE;TOMM40", ";"])
    def test_name_with_separator_rejected(self, tmp_path, name):
        # summary.txt joins group names with ',' and cv_chosen.csv with ';'
        path = tmp_path / "groups.tsv"
        path.write_text("g1\tauto\t0\n%s\tauto\t1\n" % name)
        with pytest.raises(ValueError) as err:
            load_group_file(str(path), n_features=2)
        assert str(err.value) == "%s: line 2 group name %r holds ',' or ';'" % (path, name)


class TestParamsFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        p = ParameterSet(
            interaction=rng.normal(size=(2, 4)),
            imaging=rng.normal(size=2),
            genetic=rng.normal(size=4),
            intercept=float(rng.normal()),
        )
        # plant exact zeros to exercise the sparse encoding
        p.interaction[0, 1] = 0.0
        p.genetic[2] = 0.0
        path = tmp_path / "params.txt"
        save_params(str(path), p, variant="multilevel")
        q, variant = load_params(str(path))
        assert variant == "multilevel"
        np.testing.assert_array_equal(q.interaction, p.interaction)
        np.testing.assert_array_equal(q.imaging, p.imaging)
        np.testing.assert_array_equal(q.genetic, p.genetic)
        assert q.intercept == p.intercept

    def test_zero_params_round_trip(self, tmp_path):
        p = ParameterSet.zeros(3, 5)
        path = tmp_path / "params.txt"
        save_params(str(path), p, variant="additive")
        q, variant = load_params(str(path))
        assert variant == "additive"
        assert not q.flat()[:-1].any()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError, match="header"):
            load_params(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("structprox-params v1\nvariant\tmultilevel\ndims\t1\t1\n")
        with pytest.raises(ValueError) as err:
            load_params(str(path))
        assert str(err.value) == "%s: truncated parameter file" % path

    @pytest.mark.parametrize("text", ["structprox-params v1\n",
                                      "structprox-params v1\nvariant\tmultilevel\n"])
    def test_file_shorter_than_its_dims_line_rejected(self, tmp_path, text):
        # without the length check the variant or dims line would raise IndexError
        path = tmp_path / "params.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_params(str(path))
        assert str(err.value) == "%s: truncated parameter file" % path

    def test_missing_intercept_rejected(self, tmp_path):
        # one entry keeps the file at 4 lines, past the truncation check
        p = ParameterSet.zeros(1, 1)
        p.genetic[0] = 0.5
        path = tmp_path / "params.txt"
        save_params(str(path), p)
        lines = [
            ln for ln in path.read_text().splitlines() if not ln.startswith("intercept")
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="params.txt: missing intercept line$"):
            load_params(str(path))

    def test_malformed_line_reports_number(self, tmp_path):
        p = ParameterSet.zeros(1, 1)
        path = tmp_path / "params.txt"
        save_params(str(path), p)
        with open(path, "a") as fh:
            fh.write("garbage\tnot\tvalid\there\tx\n")
        with pytest.raises(ValueError, match="params.txt: line 5 is malformed$"):
            load_params(str(path))

    @pytest.mark.parametrize(
        "line", ["variant\tbogus", "variant", "variant\tadditive\tx", "kind\tadditive"]
    )
    def test_bad_variant_line_rejected(self, tmp_path, line):
        path = tmp_path / "params.txt"
        save_params(str(path), ParameterSet.zeros(1, 1))
        lines = path.read_text().splitlines()
        lines[1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="params.txt: bad variant line$"):
            load_params(str(path))

    @pytest.mark.parametrize(
        "variant, block",
        [("additive", "interaction"), ("multiplicative", "imaging"),
         ("multiplicative", "genetic")],
    )
    def test_save_rejects_nonzero_pinned_block_and_writes_nothing(
        self, tmp_path, variant, block
    ):
        # load_params would refuse such a file
        p = ParameterSet.zeros(2, 4)
        getattr(p, block).flat[0] = 0.5
        path = tmp_path / "params.txt"
        with pytest.raises(
            ValueError, match="^the %s variant pins the %s block at zero" % (variant, block)
        ):
            save_params(str(path), p, variant)
        assert not path.exists()

    def test_save_rejects_unknown_variant(self, tmp_path):
        path = tmp_path / "params.txt"
        with pytest.raises(ValueError, match="^variant must be one of .*, got 'bogus'$"):
            save_params(str(path), ParameterSet.zeros(1, 1), "bogus")
        assert not path.exists()

    @pytest.mark.parametrize(
        "entry",
        [
            "imaging\t-1\t0.5",
            "imaging\t2\t0.5",
            "genetic\t-4\t1.5",
            "genetic\t4\t1.5",
            "interaction\t0\t-1\t0.5",
            "interaction\t2\t0\t0.5",
        ],
    )
    def test_index_outside_dims_rejected(self, tmp_path, entry):
        # dims are 2 imaging x 4 expanded; the entry goes on line 4
        path = tmp_path / "params.txt"
        save_params(str(path), ParameterSet.zeros(2, 4))
        lines = path.read_text().splitlines()
        lines.insert(3, entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 4 is malformed"):
            load_params(str(path))

    @pytest.mark.parametrize(
        "entry",
        [
            "intercept\tinf",
            "intercept\tnan",
            "imaging\t0\t-inf",
            "genetic\t1\tnan",
            "interaction\t1\t3\tinf",
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, entry):
        path = tmp_path / "params.txt"
        save_params(str(path), ParameterSet.zeros(2, 4))
        lines = path.read_text().splitlines()
        lines.insert(3, entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 4 is malformed"):
            load_params(str(path))

    @pytest.mark.parametrize(
        "variant, entry",
        [
            ("additive", "interaction\t1\t3\t0.5"),
            ("multiplicative", "imaging\t0\t0.5"),
            ("multiplicative", "genetic\t3\t0.5"),
        ],
    )
    def test_entry_of_pinned_block_rejected(self, tmp_path, variant, entry):
        path = tmp_path / "params.txt"
        save_params(str(path), ParameterSet.zeros(2, 4), variant=variant)
        lines = path.read_text().splitlines()
        lines.insert(3, entry)
        path.write_text("\n".join(lines) + "\n")
        block = entry.split("\t")[0]
        with pytest.raises(ValueError) as err:
            load_params(str(path))
        assert str(err.value) == (
            "%s: line 4 sets the %s block, which the %s variant pins at zero"
            % (path, block, variant)
        )

    @pytest.mark.parametrize(
        "first, again",
        [
            ("interaction\t1\t3\t0.5", "interaction\t1\t3\t0.5"),
            ("imaging\t1\t0.5", "imaging\t1\t-2.5"),
            ("genetic\t2\t0.5", "genetic\t02\t0.5"),
            ("intercept\t0.5", None),
        ],
    )
    def test_repeated_entry_rejected_with_both_lines(self, tmp_path, first, again):
        # the saved file holds its intercept on line 4; `again=None` repeats it
        path = tmp_path / "params.txt"
        save_params(str(path), ParameterSet.zeros(2, 4))
        lines = path.read_text().splitlines()
        lines[3:3] = [first] if again is None else [first, again]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_params(str(path))
        assert str(err.value) == "%s: line 5 repeats the entry of line 4" % path

    @pytest.mark.parametrize(
        "dims",
        ["dims\tx\ty", "dims\t-3\t12", "dims\t0\t4", "dims\t2\t0", "dims\t2.5\t4", "dims\t2"],
    )
    def test_bad_dims_rejected(self, tmp_path, dims):
        path = tmp_path / "params.txt"
        save_params(str(path), ParameterSet.zeros(2, 4))
        lines = path.read_text().splitlines()
        lines[2] = dims
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="params.txt: bad dims line"):
            load_params(str(path))


    @pytest.mark.parametrize("separator", [
        "\x0c", "\x0b", "\x1c",
        pytest.param("\x85", marks=needs_utf8),
        pytest.param("\u2028", marks=needs_utf8),
    ], ids=["FF", "VT", "FS", "NEL", "LS"])
    def test_lines_end_at_lf_only(self, tmp_path, separator):
        # str.splitlines would end the dims line at the separator and load the file
        path = tmp_path / "params.txt"
        path.write_text("structprox-params v1\nvariant\tmultilevel\ndims\t2\t6%sintercept\t0\n"
                        % separator)
        with pytest.raises(ValueError) as err:
            load_params(str(path))
        assert str(err.value) == "%s: bad dims line" % path

    @needs_utf8
    def test_undecodable_byte_reports_its_line(self, tmp_path):
        path = tmp_path / "params.txt"
        save_params(str(path), ParameterSet.zeros(2, 4))
        path.write_bytes(path.read_bytes().replace(b"intercept", b"interc\xe9pt"))
        with pytest.raises(ValueError) as err:
            load_params(str(path))
        assert str(err.value) == "%s: line 4 holds a byte that is not valid %s" % (
            path, LOCALE_CODEC)

    def test_crlf_line_ends_load(self, tmp_path):
        p = ParameterSet.zeros(2, 4)
        p.interaction[1, 3], p.imaging[0], p.genetic[2], p.intercept = 0.5, -1.25, 2.0, 0.1
        path = tmp_path / "params.txt"
        save_params(str(path), p)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        q, variant = load_params(str(path))
        assert variant == "multilevel"
        assert q.flat().tobytes() == p.flat().tobytes()


class TestTraceAndPredictions:
    def test_trace_csv_columns(self, tmp_path):
        from structprox import fit
        from structprox.preprocessing import fit_scaler, make_design
        from conftest import default_hyper, synthetic_instance

        data = synthetic_instance(4)
        design = make_design(data.dataset, data.groups, fit_scaler(data.dataset))
        p, state = fit(design, data.groups, default_hyper())
        path = tmp_path / "trace.csv"
        save_trace_csv(str(path), state)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,risk,penalty,total,step,backtracks"
        assert len(lines) == len(state.history) + 1
        totals = [float(ln.split(",")[3]) for ln in lines[1:]]
        np.testing.assert_allclose(totals, state.trace, rtol=1e-15)

    def test_predictions_csv(self, tmp_path):
        path = tmp_path / "pred.csv"
        save_predictions_csv(str(path), [0.25, 0.75], [0, 1])
        lines = path.read_text().splitlines()
        assert lines[0] == "index,probability,label"
        assert lines[1] == "0,0.25,0"
        assert lines[2] == "1,0.75,1"
