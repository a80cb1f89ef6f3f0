import csv
import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import structprox
from structprox import SolverFailure
from structprox.cli import main
from structprox.solver import GAP_GATE

from conftest import LOCALE_CODEC, needs_utf8

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def data_dir(tmp_path):
    """A small generated dataset on disk."""
    out = tmp_path / "data"
    code = run(
        [
            "generate",
            "--out", out,
            "--samples", 60,
            "--imaging-count", 3,
            "--groups-count", 4,
            "--group-size", 3,
            "--effect-g", 1.5,
            "--noise", 0.1,
            "--seed", 11,
        ]
    )
    assert code == 0
    return out


def rename_gene003(data_dir, name):
    """Rename the fixture's group gene003, which carries planted signal, so
    fits at small penalties select it."""
    groups = data_dir / "groups.tsv"
    lines = groups.read_text().splitlines()
    lines[3] = name + lines[3][lines[3].index("\t"):]
    groups.write_text("\n".join(lines) + "\n")


DATA_FLAGS = ["--genetic", "--imaging", "--labels", "--groups", "--normalization"]


def data_flags(data_dir):
    return [
        "--genetic", data_dir / "genetic.csv",
        "--imaging", data_dir / "imaging.csv",
        "--labels", data_dir / "labels.csv",
        "--groups", data_dir / "groups.tsv",
    ]


class TestGenerate:
    def test_writes_all_files(self, data_dir):
        for name in ("genetic.csv", "imaging.csv", "labels.csv", "groups.tsv",
                     "truth_params.txt", "truth_groups.txt"):
            assert (data_dir / name).exists()

    def test_same_seed_identical_files(self, tmp_path):
        args = ["generate", "--samples", 20, "--imaging-count", 2,
                "--groups-count", 2, "--group-size", 2, "--seed", 3]
        run(args + ["--out", tmp_path / "a"])
        run(args + ["--out", tmp_path / "b"])
        for name in ("genetic.csv", "imaging.csv", "labels.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_config_file_writes_what_its_flags_write(self, tmp_path):
        # the keys keep the flag spellings though the options set spec fields
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("imaging-count = 2\nnoise = 0.2\nseed = 4\n")
        base = ["generate", "--samples", 20, "--groups-count", 2, "--group-size", 2]
        assert run([*base, "--config", cfg, "--out", tmp_path / "cfg"]) == 0
        assert run([*base, "--imaging-count", 2, "--noise", 0.2, "--seed", 4,
                    "--out", tmp_path / "flags"]) == 0
        assert run([*base, "--out", tmp_path / "defaults"]) == 0
        names = ("genetic.csv", "imaging.csv", "labels.csv", "groups.tsv",
                 "truth_params.txt", "truth_groups.txt")
        for name in names:
            assert (tmp_path / "cfg" / name).read_bytes() == (
                tmp_path / "flags" / name
            ).read_bytes(), name
        assert (tmp_path / "cfg" / "labels.csv").read_bytes() != (
            tmp_path / "defaults" / "labels.csv"
        ).read_bytes()

    def test_genotypes_and_labels_skip_loadtxt(self, data_dir, monkeypatch):
        # one digit per field: minor-allele counts and 0/1 labels
        from structprox.dataio import load_labels_csv, load_matrix_csv

        want = {name: np.loadtxt(data_dir / name, delimiter=",", skiprows=1)
                for name in ("genetic.csv", "labels.csv")}
        monkeypatch.setattr(np, "loadtxt", None)  # any call fails
        _, genetic = load_matrix_csv(str(data_dir / "genetic.csv"))
        assert genetic.tobytes() == want["genetic.csv"].tobytes()
        labels = load_labels_csv(str(data_dir / "labels.csv"))
        np.testing.assert_array_equal(labels, want["labels.csv"])

    @pytest.mark.parametrize("flag, value, message", [
        ("--noise", "0.7", "label_noise must lie in [0, 0.5], got 0.7"),
        ("--effect-g", "nan", "effect_genetic must be finite, got nan"),
        ("--effect-w", "inf", "effect_interaction must be finite, got inf"),
        ("--intercept", "-inf", "intercept must be finite, got -inf"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ])
    def test_bad_spec_rejected(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "data"
        # "--intercept -inf" would read -inf as an option
        code = run(["generate", "--samples", 20, "%s=%s" % (flag, value), "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: input: %s\n" % message
        assert not out.exists()


class TestFit:
    def test_writes_outputs_and_trace_is_non_increasing(self, data_dir, tmp_path):
        out = tmp_path / "fit"
        code = run(
            ["fit", *data_flags(data_dir),
             "--lambda-w", 0.1, "--lambda-i", 0.05, "--lambda-g", 0.1,
             "--out", out]
        )
        assert code == 0
        for name in ("params.txt", "scaler.txt", "trace.csv", "summary.txt",
                     "reduced_interaction.csv", "reduced_imaging.csv",
                     "reduced_genetic.csv"):
            assert (out / name).exists()
        lines = (out / "trace.csv").read_text().splitlines()
        totals = [float(ln.split(",")[3]) for ln in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("max_iters", [3, 10000])
    def test_summary_reports_the_duality_gap(self, data_dir, tmp_path, max_iters):
        out = tmp_path / "fit"
        assert run(["fit", *data_flags(data_dir), "--lambda-w", 0.1, "--lambda-i", 0.05,
                    "--lambda-g", 0.1, "--max-iters", max_iters, "--out", out]) == 0
        fields = dict(line.split(": ", 1) for line in
                      (out / "summary.txt").read_text().splitlines()
                      if not line.startswith("warning: "))
        gap, total = float(fields["duality_gap"]), float(fields["final_objective"])
        assert 0.0 < gap < total
        # converged means certified: the gap meets the gate of the default tol
        assert (fields["converged"] == "True") == (gap <= GAP_GATE * 1e-5 * total)

    def test_summary_reports_the_working_set(self, data_dir, tmp_path):
        # the fixture's 3 x 4 interaction blocks are too few for a set to form
        out = tmp_path / "fit"
        assert run(["fit", *data_flags(data_dir), "--lambda-w", 0.1, "--lambda-i", 0.05,
                    "--lambda-g", 0.1, "--out", out]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        at = [line.split(": ", 1)[0] for line in lines].index("duality_gap")
        assert lines[at + 1] == "working_set_blocks: 12 of 12"

    def test_summary_reports_the_stage_times(self, data_dir, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", *data_flags(data_dir), "--lambda-w", 0.1, "--lambda-i", 0.05,
                    "--lambda-g", 0.1, "--out", out]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[-1].startswith("wall_time_seconds: ")
        tag, stages = lines[-2].split(": ", 1)
        assert tag == "stage_seconds"
        seconds = dict(field.split("=") for field in stages.split(" "))
        assert list(seconds) == ["load", "scaler", "design", "fit", "write"]
        wall = float(lines[-1].split(": ", 1)[1])
        assert all(float(s) >= 0.0 for s in seconds.values())
        # each of the six values is rounded to the millisecond
        assert sum(map(float, seconds.values())) <= wall + 6 * 0.0005

    def test_stalled_fit_warns(self, data_dir, tmp_path, capsys):
        # about 0.001 x screen_lambda_max: at tol 1e-10 the nearly separable
        # fixture cannot certify in float64, and its line search stalls
        out = tmp_path / "fit"
        assert run(["fit", *data_flags(data_dir), "--lambda-w", 1.232e-4, "--lambda-i", 0.01,
                    "--lambda-g", 1.114e-4, "--tol", 1e-10, "--out", out]) == 0
        fields = dict(line.split(": ", 1) for line in
                      (out / "summary.txt").read_text().splitlines())
        assert (fields["converged"], fields["stop_reason"]) == ("False", "stalled")
        assert capsys.readouterr().err == (
            "warning: fit not converged: the line search stalled at iteration %s\n"
            % fields["iterations"])

    def test_rerun_byte_identical_params(self, data_dir, tmp_path):
        argv = ["fit", *data_flags(data_dir),
                "--lambda-w", 0.1, "--lambda-i", 0.05, "--lambda-g", 0.1]
        run(argv + ["--out", tmp_path / "one"])
        run(argv + ["--out", tmp_path / "two"])
        assert (tmp_path / "one" / "params.txt").read_bytes() == (
            tmp_path / "two" / "params.txt"
        ).read_bytes()

    def test_huge_lambda_selects_no_groups(self, data_dir, tmp_path):
        out = tmp_path / "fit"
        code = run(
            ["fit", *data_flags(data_dir),
             "--lambda-w", 1000.0, "--lambda-i", 0.05, "--lambda-g", 1000.0,
             "--out", out]
        )
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "selected_genetic_groups: none" in summary
        assert "selected_interaction_groups: none" in summary

    @pytest.mark.parametrize(
        "kind, breaker",
        [("genetic", "\t"), ("genetic", "\r"), ("genetic", "\n"), ("imaging", "\t")],
    )
    def test_name_with_tab_or_line_break_rejected(
        self, data_dir, tmp_path, monkeypatch, capsys, kind, breaker
    ):
        import structprox.cli as cli_mod

        def never(*a, **kw):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(cli_mod, "fit", never)
        path = data_dir / (kind + ".csv")
        header, rest = path.read_text().split("\n", 1)
        names = header.split(",")
        bad = names[1] + breaker + "A"
        names[1] = '"%s"' % bad
        path.write_text(",".join(names) + "\n" + rest)
        out = tmp_path / "fit"
        code = run(
            ["fit", *data_flags(data_dir),
             "--lambda-w", 0.1, "--lambda-i", 0.05, "--lambda-g", 0.1,
             "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input:")
        assert "%s column 1 name %r" % (kind, bad) in err
        assert not out.exists()

    def test_group_name_with_quote_reads_back(self, data_dir, tmp_path):
        from structprox.dataio import load_matrix_csv

        rename_gene003(data_dir, 'APOE"TOMM40')
        out = tmp_path / "fit"
        code = run(
            ["fit", *data_flags(data_dir),
             "--lambda-w", 0.001, "--lambda-i", 0.05, "--lambda-g", 0.001,
             "--out", out]
        )
        assert code == 0
        names, table = load_matrix_csv(str(out / "reduced_interaction.csv"))
        assert names == ["gene000", "gene001", "gene002", 'APOE"TOMM40']
        assert table.shape == (3, 4)
        with open(out / "reduced_genetic.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [2] * 5
        assert rows[4][0] == 'APOE"TOMM40'
        assert "selected_genetic_groups: gene000,gene001,gene002,APOE\"TOMM40\n" in (
            out / "summary.txt"
        ).read_text()

    @pytest.mark.parametrize("name", ["APOE,TOMM40", "APOE;TOMM40"])
    def test_group_name_with_separator_rejected(self, data_dir, tmp_path, capsys, name):
        rename_gene003(data_dir, name)
        out = tmp_path / "fit"
        code = run(
            ["fit", *data_flags(data_dir),
             "--lambda-w", 0.001, "--lambda-i", 0.05, "--lambda-g", 0.001,
             "--out", out]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input:")
        assert "%s: line 4 group name %r holds" % (data_dir / "groups.tsv", name) in err
        assert not out.exists()

    def test_nan_tol_rejected(self, data_dir, tmp_path, capsys):
        # a NaN tolerance would run the fit to the iteration cap
        out = tmp_path / "fit"
        code = run(
            ["fit", *data_flags(data_dir),
             "--lambda-w", 0.1, "--lambda-i", 0.05, "--lambda-g", 0.1,
             "--tol", "nan", "--out", out]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: input: tol must be finite and > 0, got nan\n"
        assert not out.exists()

    def test_missing_required_flag_is_input_error(self, data_dir, capsys):
        code = run(["fit", *data_flags(data_dir), "--lambda-w", 0.1])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input:")
        assert "\n" == err[-1] and "\n" not in err[:-1]

    def test_missing_options_named_together(self, data_dir, tmp_path, capsys):
        out = tmp_path / "fit"
        code = run(["fit", *data_flags(data_dir), "--lambda-w", 0.1, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input: the following arguments are required: --lambda-i, --lambda-g\n"
        )
        assert not out.exists()

    def test_config_file_satisfies_required_options(self, data_dir, tmp_path):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("genetic = %s\nimaging = %s\nlabels = %s\ngroups = %s\n"
                       % tuple(data_flags(data_dir)[1::2]))
        out = tmp_path / "fit"
        code = run(["fit", "--config", cfg, "--lambda-w", 0.1, "--lambda-i", 0.05,
                    "--lambda-g", 0.1, "--out", out])
        assert code == 0
        assert (out / "params.txt").exists()

    def test_bad_config_choice_rejected(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("normalization = bogus\n")
        out = tmp_path / "fit"
        code = run(["fit", *data_flags(data_dir), "--lambda-w", 0.1, "--lambda-i", 0.05,
                    "--lambda-g", 0.1, "--config", cfg, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input: argument --normalization: invalid choice: 'bogus' "
            "(choose from 'sd', 'unit-norm')\n"
        )
        assert not out.exists()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = run(
            ["fit",
             "--genetic", tmp_path / "nope.csv",
             "--imaging", tmp_path / "nope2.csv",
             "--labels", tmp_path / "nope3.csv",
             "--groups", tmp_path / "nope4.tsv",
             "--lambda-w", 0.1, "--lambda-i", 0.1, "--lambda-g", 0.1]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: input:")

    @needs_utf8
    @pytest.mark.parametrize("option", ["--genetic", "--imaging", "--labels", "--groups"])
    def test_undecodable_input_names_file_and_line(self, data_dir, tmp_path, capsys, option):
        flags = data_flags(data_dir)
        path = flags[flags.index(option) + 1]
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xe9" + lines[2]
        path.write_bytes(b"\n".join(lines))
        out = tmp_path / "fit"
        code = run(["fit", *flags, "--lambda-w", 0.1, "--lambda-i", 0.05, "--lambda-g", 0.1,
                    "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input: %s: line 3 holds a byte that is not valid %s\n" % (path, LOCALE_CODEC)
        )
        assert not out.exists()

    @needs_utf8
    def test_undecodable_config_names_file_and_line(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_bytes(b"lambda_w = 0.1\r\n# \xc3\n")
        code = run(["fit", *data_flags(data_dir), "--config", cfg])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input: %s: line 2 holds a byte that is not valid %s\n" % (cfg, LOCALE_CODEC)
        )

    @pytest.mark.parametrize("option", ["--genetic", "--imaging"])
    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_feature_names_file_and_row(self, data_dir, tmp_path, capsys,
                                                   option, value):
        flags = data_flags(data_dir)
        path = flags[flags.index(option) + 1]
        lines = path.read_text().split("\n")
        lines[4] = value + lines[4][lines[4].index(","):]
        path.write_text("\n".join(lines))
        out = tmp_path / "fit"
        code = run(["fit", *flags, "--lambda-w", 0.1, "--lambda-i", 0.05, "--lambda-g", 0.1,
                    "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input: %s: data row 4 holds a NaN or infinite value\n" % path
        )
        assert not out.exists()

    def test_solver_failure_exit_code(self, data_dir, monkeypatch, capsys):
        import structprox.cli as cli_mod

        def explode(*a, **kw):
            raise SolverFailure("line search failed at iteration 3")

        monkeypatch.setattr(cli_mod, "fit", explode)
        code = run(
            ["fit", *data_flags(data_dir),
             "--lambda-w", 0.1, "--lambda-i", 0.05, "--lambda-g", 0.1]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: solver:")

    def test_config_file_supplies_flags(self, data_dir, tmp_path):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(
            "lambda_w = 0.1\nlambda_i = 0.05\nlambda_g = 0.1\n# comment\n"
        )
        out = tmp_path / "fit"
        code = run(
            ["fit", *data_flags(data_dir), "--config", cfg, "--out", out]
        )
        assert code == 0
        assert (out / "params.txt").exists()

    def test_flag_overrides_config(self, data_dir, tmp_path):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("lambda_w = 0.1\nlambda_i = 0.05\nlambda_g = 123.0\n")
        out = tmp_path / "fit"
        run(
            ["fit", *data_flags(data_dir), "--config", cfg,
             "--lambda-g", 0.1, "--out", out]
        )
        summary = (out / "summary.txt").read_text()
        assert "lambda_g: 0.1" in summary

    def test_unknown_config_key_rejected(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("lambda_q = 0.1\n")
        code = run(["fit", *data_flags(data_dir), "--config", cfg])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input: %s: line 1 sets unknown option 'lambda_q'\n" % cfg
        )

    def test_seed_config_key_rejected(self, data_dir, tmp_path, capsys):
        # fit draws nothing at random, so it has no --seed
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("lambda_w = 0.1\nlambda_i = 0.05\nlambda_g = 0.1\nseed = 3\n")
        out = tmp_path / "fit"
        code = run(["fit", *data_flags(data_dir), "--config", cfg, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input: %s: line 4 sets unknown option 'seed'\n" % cfg
        )
        assert not out.exists()

    def test_config_line_without_equals_rejected(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("# penalties\nlambda_w = 0.1\nlambda_i 0.05\n")
        out = tmp_path / "fit"
        code = run(["fit", *data_flags(data_dir), "--config", cfg, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input: %s: line 3 is not a key=value setting\n" % cfg
        )
        assert not out.exists()

    def test_hyphenated_config_key(self, data_dir, tmp_path):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("lambda-w = 0.1\nlambda_i = 0.05\nlambda_g = 0.1\nmax-iters = 3\n")
        out = tmp_path / "fit"
        code = run(["fit", *data_flags(data_dir), "--config", cfg, "--out", out])
        assert code == 0
        assert "iterations: 3" in (out / "summary.txt").read_text().splitlines()

    def test_config_key_set_twice_rejected(self, data_dir, tmp_path, capsys):
        # the hyphen and underscore spellings name the same option
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("lambda-w = 0.1\nlambda_i = 0.05\nlambda_g = 0.1\nlambda_w = 0.5\n")
        out = tmp_path / "fit"
        code = run(["fit", *data_flags(data_dir), "--config", cfg, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input: %s: lines 1 and 4 both set 'lambda_w'\n" % cfg
        )
        assert not out.exists()

    def test_mistyped_config_value_rejected(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("lambda_w = 0.1\nlambda_i = 0.05\nlambda_g = 0.1\ntol = abc\n")
        code = run(["fit", *data_flags(data_dir), "--config", cfg, "--out", tmp_path / "fit"])
        assert code == 1
        assert "abc" in capsys.readouterr().err

    def test_config_before_command_rejected(self, data_dir, tmp_path):
        # the file must follow the command, where its settings are applied
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("max_iters = 3\n")
        code = run(["--config", cfg, "fit", *data_flags(data_dir), "--lambda-w", 0.1,
                    "--lambda-i", 0.05, "--lambda-g", 0.1, "--out", tmp_path / "fit"])
        assert code == 1

    def test_iteration_cap_warns_on_stderr_only(self, data_dir, tmp_path, capsys):
        flags = [*data_flags(data_dir), "--lambda-w", 0.1, "--lambda-i", 0.05,
                 "--lambda-g", 0.1]
        out = tmp_path / "capped"
        assert run(["fit", *flags, "--max-iters", 3, "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: fit not converged: stopped at the iteration cap of 3 iterations\n"
        )
        lines = captured.out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("fit: max_iters, 3 iterations, objective ")
        assert lines[1] == "outputs written to %s" % out
        summary = (out / "summary.txt").read_text()
        assert "converged: False\nstop_reason: max_iters\n" in summary
        # a converged fit writes nothing to stderr
        assert run(["fit", *flags, "--out", tmp_path / "full"]) == 0
        assert capsys.readouterr().err == ""

    def test_one_class_labels_warn_on_stderr_and_in_summary(self, data_dir, tmp_path, capsys):
        # with one class the intercept has no finite optimum, whatever the stop
        labels = data_dir / "labels.csv"
        n = len(labels.read_text().splitlines()) - 1
        labels.write_text("label\n" + "1\n" * n)
        out = tmp_path / "fit"
        assert run(["fit", *data_flags(data_dir), "--lambda-w", 0.1, "--lambda-i", 0.05,
                    "--lambda-g", 0.1, "--out", out]) == 0
        warning = "warning: labels hold one class (1): the intercept has no finite optimum"
        assert capsys.readouterr().err == warning + "\n"
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary.count(warning) == 1
        assert summary[-1].startswith("wall_time_seconds: ")


class TestScreen:
    def test_prints_bounds_and_fit_above_them_is_empty(self, data_dir, tmp_path,
                                                       capsys):
        code = run(["screen", *data_flags(data_dir)])
        assert code == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.splitlines():
            parts = line.split("\t")
            if parts[0] in ("lambda_g_max", "lambda_w_max"):
                values[parts[0]] = float(parts[1])
        assert values["lambda_g_max"] > 0
        assert values["lambda_w_max"] > 0

        fit_out = tmp_path / "fit"
        run(
            ["fit", *data_flags(data_dir),
             "--lambda-w", 1.01 * values["lambda_w_max"],
             "--lambda-i", 0.5,
             "--lambda-g", 1.01 * values["lambda_g_max"],
             "--out", fit_out]
        )
        summary = (fit_out / "summary.txt").read_text()
        assert "selected_genetic_groups: none" in summary
        assert "selected_interaction_groups: none" in summary

    def test_deterministic_across_reruns(self, data_dir, capsys):
        run(["screen", *data_flags(data_dir)])
        first = capsys.readouterr().out
        run(["screen", *data_flags(data_dir)])
        second = capsys.readouterr().out
        assert first == second

    def test_optional_output_file(self, data_dir, tmp_path):
        out = tmp_path / "screen"
        run(["screen", *data_flags(data_dir), "--out", out])
        assert (out / "screen.txt").exists()


class TestPredict:
    def fit_model(self, data_dir, tmp_path):
        out = tmp_path / "fit"
        run(
            ["fit", *data_flags(data_dir),
             "--lambda-w", 0.1, "--lambda-i", 0.05, "--lambda-g", 0.1,
             "--out", out]
        )
        return out

    def predict_flags(self, data_dir, model_dir):
        return [
            "--model", model_dir / "params.txt",
            "--scaler", model_dir / "scaler.txt",
            "--groups", data_dir / "groups.tsv",
            "--genetic", data_dir / "genetic.csv",
            "--imaging", data_dir / "imaging.csv",
        ]

    def test_round_trip_probabilities(self, data_dir, tmp_path):
        model_dir = self.fit_model(data_dir, tmp_path)
        out = tmp_path / "pred"
        code = run(["predict", *self.predict_flags(data_dir, model_dir),
                    "--out", out])
        assert code == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "index,probability,label"
        assert len(lines) == 61

        # saved model reproduces the in-memory pipeline probabilities
        from conftest import fit_stages
        from structprox import Hyperparameters
        from structprox.dataio import (
            load_group_file,
            load_labels_csv,
            load_matrix_csv,
        )
        from structprox import Dataset
        from structprox.objective import margins, sigmoid
        from structprox.preprocessing import make_design

        _, genetic = load_matrix_csv(str(data_dir / "genetic.csv"))
        _, imaging = load_matrix_csv(str(data_dir / "imaging.csv"))
        labels = load_labels_csv(str(data_dir / "labels.csv"))
        gs = load_group_file(str(data_dir / "groups.tsv"), genetic.shape[1])
        d = Dataset(genetic, imaging, labels.astype(float))
        params, record = fit_stages(d, gs, Hyperparameters(0.1, 0.05, 0.1))
        design = make_design(d, gs, record)
        want = sigmoid(margins(params, design))
        got = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        np.testing.assert_allclose(got, want, atol=1e-12)

    @needs_utf8
    @pytest.mark.parametrize("option", ["--model", "--scaler"])
    def test_undecodable_model_file_names_file_and_line(self, data_dir, tmp_path, capsys,
                                                        option):
        flags = self.predict_flags(data_dir, self.fit_model(data_dir, tmp_path))
        path = flags[flags.index(option) + 1]
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xe9" + lines[2]
        path.write_bytes(b"\n".join(lines))
        out = tmp_path / "pred"
        code = run(["predict", *flags, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input: %s: line 3 holds a byte that is not valid %s\n" % (path, LOCALE_CODEC)
        )
        assert not out.exists()

    def test_shuffled_columns_identical_output(self, data_dir, tmp_path):
        model_dir = self.fit_model(data_dir, tmp_path)
        out_a = tmp_path / "pred_a"
        run(["predict", *self.predict_flags(data_dir, model_dir), "--out", out_a])

        # permute genetic CSV columns; names must drive the alignment
        from structprox.dataio import load_matrix_csv, save_matrix_csv

        names, X = load_matrix_csv(str(data_dir / "genetic.csv"))
        perm = np.random.default_rng(5).permutation(len(names))
        shuffled = tmp_path / "genetic_shuffled.csv"
        save_matrix_csv(str(shuffled), [names[j] for j in perm], X[:, perm])

        out_b = tmp_path / "pred_b"
        flags = self.predict_flags(data_dir, model_dir)
        flags[flags.index("--genetic") + 1] = shuffled
        run(["predict", *flags, "--out", out_b])
        assert (out_a / "predictions.csv").read_bytes() == (
            out_b / "predictions.csv"
        ).read_bytes()

    def test_permuted_columns_byte_identical_output(self, tmp_path):
        # with 24 imaging columns the order of a margin's sums shows in its
        # bits: a reordered matrix must keep the layout of an in-order file
        data = tmp_path / "data"
        assert run(["generate", "--out", data, "--samples", 80, "--imaging-count", 24,
                    "--groups-count", 6, "--group-size", 5, "--seed", 3]) == 0
        model_dir = self.fit_model(data, tmp_path)
        flags = self.predict_flags(data, model_dir)
        assert run(["predict", *flags, "--out", tmp_path / "pred_a"]) == 0
        for kind, seed in (("imaging", 1), ("genetic", 2)):
            rows = [line.split(",") for line in (data / (kind + ".csv")).read_text().splitlines()]
            perm = np.random.default_rng(seed).permutation(len(rows[0]))
            permuted = tmp_path / (kind + "_permuted.csv")
            permuted.write_text("".join(",".join(row[j] for j in perm) + "\n" for row in rows))
            flags[flags.index("--" + kind) + 1] = permuted
        assert run(["predict", *flags, "--out", tmp_path / "pred_b"]) == 0
        assert (tmp_path / "pred_a" / "predictions.csv").read_bytes() == (
            tmp_path / "pred_b" / "predictions.csv").read_bytes()

    def test_non_finite_value_outside_the_model_columns_ignored(self, data_dir, tmp_path,
                                                              capsys):
        model_dir = self.fit_model(data_dir, tmp_path)
        flags = self.predict_flags(data_dir, model_dir)
        assert run(["predict", *flags, "--out", tmp_path / "pred_a"]) == 0

        lines = (data_dir / "imaging.csv").read_text().splitlines()
        extra = tmp_path / "imaging_extra.csv"
        extra.write_text("".join(
            "%s,%s\n" % (line, "extra" if k == 0 else "nan") for k, line in enumerate(lines)))
        flags[flags.index("--imaging") + 1] = extra
        assert run(["predict", *flags, "--out", tmp_path / "pred_b"]) == 0
        assert (tmp_path / "pred_a" / "predictions.csv").read_bytes() == (
            tmp_path / "pred_b" / "predictions.csv").read_bytes()

        lines[2] = "inf" + lines[2][lines[2].index(","):]
        extra.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["predict", *flags, "--out", tmp_path / "pred_c"]) == 1
        assert capsys.readouterr().err == (
            "error: input: %s: data row 2 holds a NaN or infinite value\n" % extra
        )
        assert not (tmp_path / "pred_c").exists()

    def test_missing_column_rejected(self, data_dir, tmp_path, capsys):
        model_dir = self.fit_model(data_dir, tmp_path)
        from structprox.dataio import load_matrix_csv, save_matrix_csv

        names, X = load_matrix_csv(str(data_dir / "genetic.csv"))
        renamed = tmp_path / "genetic_renamed.csv"
        save_matrix_csv(str(renamed), ["other"] + names[1:], X)
        flags = self.predict_flags(data_dir, model_dir)
        flags[flags.index("--genetic") + 1] = renamed
        code = run(["predict", *flags])
        assert code == 1
        assert "missing column" in capsys.readouterr().err

    def test_duplicate_column_name_rejected(self, data_dir, tmp_path, capsys):
        # columns are matched by name, so a repeated name is ambiguous
        from structprox.dataio import load_matrix_csv, save_matrix_csv

        names, X = load_matrix_csv(str(data_dir / "genetic.csv"))
        doubled = tmp_path / "genetic_doubled.csv"
        save_matrix_csv(str(doubled), [names[0]] + names[:-1], X)
        fit_flags = data_flags(data_dir)
        fit_flags[fit_flags.index("--genetic") + 1] = doubled
        code = run(["fit", *fit_flags, "--lambda-w", 0.1, "--lambda-i", 0.05,
                    "--lambda-g", 0.1, "--out", tmp_path / "fit"])
        assert code == 1
        assert "'%s'" % names[0] in capsys.readouterr().err

        model_dir = self.fit_model(data_dir, tmp_path)
        flags = self.predict_flags(data_dir, model_dir)
        flags[flags.index("--genetic") + 1] = doubled
        assert run(["predict", *flags, "--out", tmp_path / "pred"]) == 1
        assert "'%s'" % names[0] in capsys.readouterr().err

    def test_model_dims_mismatch_rejected(self, data_dir, tmp_path, capsys):
        from structprox import ParameterSet
        from structprox.dataio import save_params

        model_dir = self.fit_model(data_dir, tmp_path)
        # the fixture's 3 imaging columns and 4 groups of 3, expanded to 12
        # columns; a model of other dimensions is rejected by its file's name
        model = model_dir / "params.txt"
        for n_imaging, expanded_size in ((3, 13), (2, 12), (4, 12)):
            save_params(str(model), ParameterSet.zeros(n_imaging, expanded_size))
            code = run(["predict", *self.predict_flags(data_dir, model_dir),
                        "--out", tmp_path / "pred"])
            assert code == 1
            assert capsys.readouterr().err == (
                "error: input: %s: model dims (%d, %d) do not match the scaler and "
                "groups' (3, 12)\n" % (model, n_imaging, expanded_size)
            )
        assert not (tmp_path / "pred").exists()

    def test_groups_of_another_layout_rejected(self, data_dir, tmp_path, capsys):
        model_dir = self.fit_model(data_dir, tmp_path)
        lines = (data_dir / "groups.tsv").read_text().splitlines()
        reversed_groups = tmp_path / "reversed.tsv"
        reversed_groups.write_text("\n".join(lines[::-1]) + "\n")
        flags = self.predict_flags(data_dir, model_dir)
        flags[flags.index("--groups") + 1] = reversed_groups
        out = tmp_path / "pred"
        assert run(["predict", *flags, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: input: %s: groups expand the genetic columns differently from the "
            "groups of the fit\n" % reversed_groups
        )
        assert not out.exists()

    def test_group_names_weights_and_boundaries_not_compared(self, data_dir, tmp_path):
        # none changes the expanded columns; merged groups change which
        # blocks of W margins skips, and so the rounding only
        model_dir = self.fit_model(data_dir, tmp_path)
        (tmp_path / "relabelled.tsv").write_text(
            "a\t2.5\t0,1,2\nb\t1\t3,4,5\nc\tauto\t6,7,8\nd\t9\t9,10,11\n")
        (tmp_path / "merged.tsv").write_text(
            "first\tauto\t0,1,2,3,4,5\nsecond\tauto\t6,7,8,9,10,11\n")
        probs = {}
        for name, groups in (("own", data_dir / "groups.tsv"),
                             ("relabelled", tmp_path / "relabelled.tsv"),
                             ("merged", tmp_path / "merged.tsv")):
            flags = self.predict_flags(data_dir, model_dir)
            flags[flags.index("--groups") + 1] = groups
            assert run(["predict", *flags, "--out", tmp_path / name]) == 0
            probs[name] = (tmp_path / name / "predictions.csv").read_bytes()
        assert probs["relabelled"] == probs["own"]
        np.testing.assert_allclose(
            np.loadtxt(tmp_path / "merged" / "predictions.csv", delimiter=",", skiprows=1),
            np.loadtxt(tmp_path / "own" / "predictions.csv", delimiter=",", skiprows=1),
            rtol=0, atol=1e-12,
        )

    def test_zero_model_gives_half_probabilities(self, data_dir, tmp_path):
        model_dir = self.fit_model(data_dir, tmp_path)
        # blank out every parameter: file with only the intercept line
        params = model_dir / "params.txt"
        lines = params.read_text().splitlines()
        kept = [
            ln
            for ln in lines
            if not ln.startswith(("interaction", "imaging", "genetic", "intercept"))
        ]
        kept.append("intercept\t0")
        params.write_text("\n".join(kept) + "\n")
        out = tmp_path / "pred"
        run(["predict", *self.predict_flags(data_dir, model_dir), "--out", out])
        probs = [
            float(ln.split(",")[1])
            for ln in (out / "predictions.csv").read_text().splitlines()[1:]
        ]
        assert all(p == 0.5 for p in probs)


class TestCv:
    def test_writes_tables_and_metrics(self, data_dir, tmp_path, capsys):
        out = tmp_path / "cv"
        code = run(
            ["cv", *data_flags(data_dir),
             "--grid", "w=0.1;i=0.05;g=0.05,0.2",
             "--folds", 3, "--seed", 2, "--out", out]
        )
        assert code == 0
        for name in ("cv_metrics.csv", "cv_chosen.csv", "table.txt"):
            assert (out / name).exists()
        printed = capsys.readouterr().out
        assert "BAcc" in printed
        metrics_lines = (out / "cv_metrics.csv").read_text().splitlines()
        tags = [ln.split(",")[1] for ln in metrics_lines[1:]]
        assert "pooled" in tags and "mean" in tags

    def test_variant_comparison_rows(self, data_dir, tmp_path):
        out = tmp_path / "cv"
        code = run(
            ["cv", *data_flags(data_dir),
             "--grid", "w=0.1;i=0.05;g=0.1",
             "--variant", "additive,multiplicative,multilevel",
             "--folds", 2, "--out", out]
        )
        assert code == 0
        table = (out / "table.txt").read_text().splitlines()
        body = [ln for ln in table if ln.strip() and not ln.startswith(("variant", "-"))]
        # one mean row and one pooled row per variant
        assert len(body) == 6
        assert {ln.split()[0] for ln in body} == {
            "additive", "multiplicative", "multilevel"
        }

    def test_integer_grid_spec(self, data_dir, tmp_path):
        out = tmp_path / "cv"
        code = run(
            ["cv", *data_flags(data_dir), "--grid", "2", "--folds", 2,
             "--out", out]
        )
        assert code == 0

    def test_empty_grid_part_skipped(self, data_dir, tmp_path):
        # a trailing ';' leaves an empty part, which changes no output
        outs = [tmp_path / "plain", tmp_path / "trailing"]
        for out, grid in zip(outs, ("w=0.1;i=0.05;g=0.1", "w=0.1;i=0.05;g=0.1;")):
            assert run(["cv", *data_flags(data_dir), "--grid", grid, "--folds", 2,
                        "--out", out]) == 0
        for name in ("cv_metrics.csv", "cv_chosen.csv", "table.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_group_name_with_quote_quoted(self, data_dir, tmp_path):
        rename_gene003(data_dir, 'APOE"TOMM40')
        out = tmp_path / "cv"
        code = run(
            ["cv", *data_flags(data_dir), "--grid", "w=0.001;i=0.05;g=0.001",
             "--folds", 2, "--out", out]
        )
        assert code == 0
        with open(out / "cv_chosen.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [7] * 3
        assert all(r[5].split(";")[-1] == 'APOE"TOMM40' for r in rows[1:])

    def test_repeated_variant_rejected(self, data_dir, tmp_path, capsys):
        out = tmp_path / "cv"
        code = run(
            ["cv", *data_flags(data_dir), "--grid", "w=0.1;i=0.05;g=0.1",
             "--variant", "multilevel, additive,multilevel", "--folds", 2, "--out", out]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: input: variant 'multilevel' is named twice in "
            "'multilevel, additive,multilevel'\n"
        )
        assert not out.exists()

    def test_bad_grid_rejected(self, data_dir, capsys):
        code = run(["cv", *data_flags(data_dir), "--grid", "w=;i=1;g=1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: input:")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--variant", " , ", "no variant named in ' , '"),
            ("--grid", "seven", "grid must be a point count or 'w=...;i=...;g=...', got 'seven'"),
            ("--grid", "w=1;x=1;g=1", "grid block must be one of w, i, g, got 'x'"),
            ("--grid", "w=1;i=1,two;g=1", "grid block 'i' holds a non-numeric value"),
            ("--grid", "w=1;i=1", "grid must define block 'g'"),
            ("--grid", "w=0.1;i=1;g=1;w=0.5",
             "grid block 'w' is given twice in 'w=0.1;i=1;g=1;w=0.5'"),
            ("--grid", "w=0.1,0.1;i=1;g=1", "grid block 'w' lists 0.1 twice"),
            ("--variant", "bogus",
             "variant must be one of ('multilevel', 'additive', 'multiplicative'), got 'bogus'"),
            # rejected by make_grid or kfold_cv, still before the output directory
            ("--grid", "w=-1;i=1;g=1", "lambda_interaction must be finite and > 0, got -1.0"),
            ("--selection", "bogus", "selection must be 'nested' or 'oracle', got 'bogus'"),
            ("--threshold", "1.5", "threshold must lie in (0, 1), got 1.5"),
            ("--inner-folds", "1", "inner_k must be >= 2, got 1"),
            ("--seed", "-1", "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_variant_or_grid_spec_rejected(self, data_dir, tmp_path, capsys, flag,
                                               value, message):
        # rejected before the output directory is made
        out = tmp_path / "cv"
        code = run(["cv", *data_flags(data_dir), flag, value, "--folds", 2, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: input: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("selection, fits", [("nested", 50), ("oracle", 16)])
    def test_fit_count(self, data_dir, tmp_path, monkeypatch, selection, fits):
        # 2 folds, 2^3 grid points, 3 inner folds: nested fits 2 * 3 * 8 inner
        # points and one final point per fold, oracle every point per fold
        from conftest import count_calls
        from structprox import evaluation

        calls = count_calls(monkeypatch, evaluation, "fit")
        monkeypatch.delenv("STRUCTPROX_THREADS", raising=False)
        code = run(["cv", *data_flags(data_dir), "--grid", "2", "--folds", 2,
                    "--selection", selection, "--out", tmp_path / "cv"])
        assert code == 0
        assert len(calls) == fits


class TestParser:
    def test_no_command_is_input_error(self, capsys):
        assert run([]) == 1
        assert capsys.readouterr().err.startswith("error: input:")

    def test_unknown_flag_is_input_error(self, capsys):
        assert run(["screen", "--bogus", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: input:")

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flags", [
        ("fit", DATA_FLAGS + ["--lambda-w", "--lambda-i", "--lambda-g", "--variant", "--tol",
                              "--max-iters", "--out"]),
        ("cv", DATA_FLAGS + ["--folds", "--grid", "--variant", "--selection", "--inner-folds",
                             "--threshold", "--seed", "--out"]),
        ("screen", DATA_FLAGS + ["--out"]),
        ("predict", ["--model", "--scaler", "--groups", "--genetic", "--imaging",
                     "--threshold", "--out"]),
        ("generate", ["--samples", "--imaging-count", "--groups-count", "--group-size",
                      "--overlap", "--active-groups", "--effect-w", "--effect-i", "--effect-g",
                      "--intercept", "--noise", "--seed", "--out"]),
    ])
    def test_command_help_lists_its_flags(self, capsys, command, flags):
        assert run([command, "--help"]) == 0
        listed = {word.rstrip(",") for word in capsys.readouterr().out.split()
                  if word.startswith("--")}
        assert listed == {"--help", "--config", *flags}


class TestEntryPoints:
    def test_module_run_exits_with_main_code(self, data_dir, tmp_path):
        # `python -m structprox.cli` reports main's exit code; fit has no --seed
        src = os.path.dirname(os.path.dirname(os.path.abspath(structprox.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "fit"
        argv = ["fit", *data_flags(data_dir), "--lambda-w", 0.1, "--lambda-i", 0.05,
                "--lambda-g", 0.1, "--out", out, "--seed", 3]
        done = subprocess.run(
            [sys.executable, "-m", "structprox.cli", *(str(a) for a in argv)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr == "error: input: unrecognized arguments: --seed 3\n"
        assert done.stdout == ""
        assert not out.exists()

    def test_console_script_names_main(self):
        # read as text, since tomllib first ships with Python 3.11
        with open(os.path.join(ROOT, "pyproject.toml")) as fh:
            scripts = fh.read().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        entries = dict(line.split(" = ", 1) for line in scripts.splitlines() if line.strip())
        module, _, name = entries["structprox"].strip('"').partition(":")
        assert getattr(importlib.import_module(module), name) is main
