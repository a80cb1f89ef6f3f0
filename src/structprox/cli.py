"""Command line interface.

Subcommands: ``fit``, ``cv``, ``screen``, ``predict``, ``generate``.  A
config file of ``key=value`` lines (keys match the long flag names), given
with ``--config`` after the subcommand, may supply any option: each line
is read as the flag ``--key=value`` ahead of the command line's own, so
explicit flags override the file.  Missing required options are reported
together.  Exit codes: 0 on success, 1 on invalid input, 2 on solver
failure.  Primary output files are deterministic for a fixed config and
seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import dataio
from .core import Dataset, Hyperparameters, _pinned_blocks
from .evaluation import (
    kfold_cv,
    log_grid,
    make_grid,
    predict,
    reduce_parameters,
    selected_groups,
)
from .preprocessing import (
    NORMALIZATION_MODES,
    fit_scaler,
    load_scaler,
    make_design,
    save_scaler,
)
from .solver import GAP_GATE, SolverFailure, fit, screen_lambda_max
from .synthetic import SyntheticSpec, generate, write_files

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as ValueError (exit code 1) and
    keeps each long flag it is given under its config key, ``max_iters``
    for ``--max-iters``."""

    def __init__(self, **kwargs):
        self.config_keys = {}
        super().__init__(**kwargs)

    def add_argument(self, *flags, **kwargs):
        if kwargs.get("action") != "help":
            self.config_keys.update(
                (flag[2:].replace("-", "_"), flag) for flag in flags if flag.startswith("--")
            )
        return super().add_argument(*flags, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _parse_config_file(path, flags: dict) -> list[str]:
    """Read ``key=value`` lines into ``--flag=value`` arguments.

    Blank lines and ``#`` comments are allowed.  Keys may use either hyphens
    or underscores (``max-iters``/``max_iters``), must be a key of
    ``flags`` and may be set once.  The values stay strings: argparse
    converts and checks them like the command line's.
    """
    arguments = []
    set_on = {}  # line of each key set so far
    for lineno, line in enumerate(dataio._read_lines(path), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ValueError(
                "%s: line %d is not a key=value setting" % (path, lineno)
            )
        key, _, value = text.partition("=")
        name = key.strip().replace("-", "_")
        if name not in flags:
            raise ValueError("%s: line %d sets unknown option '%s'"
                             % (path, lineno, key.strip()))
        if name in set_on:
            raise ValueError("%s: lines %d and %d both set '%s'"
                             % (path, set_on[name], lineno, name))
        set_on[name] = lineno
        arguments.append("%s=%s" % (flags[name], value.strip()))
    return arguments


def _from_options(cls, args):
    """The dataclass ``cls`` built from the parsed options named after its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def _add_data_options(sp) -> None:
    sp.add_argument("--genetic", type=str, required=True, help="genetic feature CSV")
    sp.add_argument("--imaging", type=str, required=True, help="imaging feature CSV")
    sp.add_argument("--labels", type=str, required=True, help="0/1 label CSV")
    sp.add_argument("--groups", type=str, required=True, help="group definition file")
    sp.add_argument("--normalization", type=str, choices=NORMALIZATION_MODES,
                    default="sd", help="column scaling mode (default sd)")


def _finite(path, X):
    """``X``, once each of its entries is finite; else the first data row of
    ``path`` that holds a NaN or an infinity is named."""
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError("%s: data row %d holds a NaN or infinite value"
                         % (path, np.argmin(finite) + 1))
    return X


def _load_data(args):
    g_names, genetic = dataio.load_matrix_csv(args.genetic)
    i_names, imaging = dataio.load_matrix_csv(args.imaging)
    labels = dataio.load_labels_csv(args.labels)
    d = Dataset(_finite(args.genetic, genetic), _finite(args.imaging, imaging), labels)
    gs = dataio.load_group_file(args.groups, d.n_genetic)
    return d, gs, g_names, i_names


_RATES = ("sensitivity", "specificity", "precision", "balanced_accuracy")


def _format_rates(report, fmt: str, undefined: str) -> list[str]:
    """The four rates of a ``MetricsReport`` or ``MeanMetrics``; a rate that
    is None, or every rate of a None report, reads ``undefined``."""
    values = [getattr(report, rate, None) for rate in _RATES]
    return [undefined if v is None else fmt % v for v in values]


def _results_table(rows) -> str:
    """Fixed-width comparison table; one row per (variant, source)."""
    line = "%-16s %-8s %6s %6s %6s %6s"
    header = line % ("variant", "source", "Sen", "Spe", "Pre", "BAcc")
    return "\n".join([header, "-" * len(header), *(line % tuple(r) for r in rows)])


def _save_reduced(out_dir, red, i_names, group_names) -> None:
    dataio.save_matrix_csv(
        os.path.join(out_dir, "reduced_interaction.csv"), group_names, red.interaction
    )
    for name, header, names, values in (
        ("reduced_imaging.csv", "feature", i_names, red.imaging),
        ("reduced_genetic.csv", "group", group_names, red.genetic),
    ):
        dataio.write_csv(
            os.path.join(out_dir, name),
            [[header, "max_abs"], *([n, "%.17g" % v] for n, v in zip(names, values))],
        )


def cmd_fit(args) -> int:
    marks = [time.perf_counter()]  # the start, then the end of each stage
    d, gs, g_names, i_names = _load_data(args)
    h = _from_options(Hyperparameters, args)
    marks.append(time.perf_counter())
    record = fit_scaler(d, args.normalization, genetic_names=g_names, imaging_names=i_names,
                        expansion_index=gs.expansion_index)
    marks.append(time.perf_counter())
    design = make_design(d, gs, record)
    marks.append(time.perf_counter())
    params, state = fit(design, gs, h)
    marks.append(time.perf_counter())

    os.makedirs(args.out, exist_ok=True)
    dataio.save_params(os.path.join(args.out, "params.txt"), params, h.variant)
    save_scaler(record, os.path.join(args.out, "scaler.txt"))
    dataio.save_trace_csv(os.path.join(args.out, "trace.csv"), state)
    red = reduce_parameters(params, gs)
    _save_reduced(args.out, red, i_names, list(gs.names))
    marks.append(time.perf_counter())

    sel = selected_groups(params, gs)
    final = state.history[-1]
    # With one class the risk keeps falling as the intercept grows, so the
    # fit drifts and its stop reason says nothing about an optimum.
    one_class = d.labels.min() == d.labels.max()
    notes = ["labels hold one class (%d): the intercept has no finite optimum"
             % d.labels[0]] if one_class else []
    elapsed = time.perf_counter() - marks[0]
    stages = " ".join("%s=%.3f" % (stage, end - start) for stage, start, end
                      in zip(("load", "scaler", "design", "fit", "write"), marks, marks[1:]))
    summary = [
        "variant: %s" % h.variant,
        "lambda_w: %.17g" % h.lambda_interaction,
        "lambda_i: %.17g" % h.lambda_imaging,
        "lambda_g: %.17g" % h.lambda_genetic,
        "normalization: %s" % args.normalization,
        "samples: %d" % d.n_samples,
        "iterations: %d" % state.iterations,
        "converged: %s" % state.converged,
        "stop_reason: %s" % state.stop_reason,
        "duality_gap: %.17g" % state.gap,
        "working_set_blocks: %d of %d" % (state.working_set_blocks, d.n_imaging * gs.n_groups),
        "final_risk: %.17g" % final.risk,
        "final_penalty: %.17g" % final.penalty,
        "final_objective: %.17g" % final.total,
        "selected_genetic_groups: %s"
        % (",".join(gs.names[l] for l in sel.genetic) or "none"),
        "selected_interaction_groups: %s"
        % (",".join(gs.names[l] for l in sel.interaction) or "none"),
        *("warning: " + note for note in notes),
        "stage_seconds: %s" % stages,
        "wall_time_seconds: %.3f" % elapsed,
    ]
    dataio._write_lines(os.path.join(args.out, "summary.txt"), summary)
    print(
        "fit: %s, %d iterations, objective %.6g, %d genetic / %d interaction groups selected"
        % (state.stop_reason, state.iterations, final.total,
           len(sel.genetic), len(sel.interaction))
    )
    print("outputs written to %s" % args.out)
    if state.stop_reason == "max_iters":
        print("warning: fit not converged: stopped at the iteration cap of %d iterations"
              % state.iterations, file=sys.stderr)
    elif state.stop_reason == "stalled":
        print("warning: fit not converged: the line search stalled at iteration %d"
              % state.iterations, file=sys.stderr)
    for note in notes:
        print("warning: " + note, file=sys.stderr)
    return 0


def _parse_variants(text: str) -> list[str]:
    variants = [v.strip() for v in text.split(",") if v.strip()]
    if not variants:
        raise ValueError("no variant named in %r" % text)
    for k, v in enumerate(variants):
        _pinned_blocks(v)
        if v in variants[:k]:
            raise ValueError("variant %r is named twice in %r" % (v, text))
    return variants


def _parse_grid(text: str):
    """Grid spec: either a point count or explicit 'w=...;i=...;g=...' lists."""
    text = text.strip()
    if "=" not in text:
        try:
            num = int(text)
        except ValueError:
            raise ValueError(
                "grid must be a point count or 'w=...;i=...;g=...', got %r" % text
            )
        values = log_grid(num)
        return values, values, values
    blocks = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value_text = part.partition("=")
        key = key.strip()
        if key not in ("w", "i", "g"):
            raise ValueError("grid block must be one of w, i, g, got %r" % key)
        try:
            values = [float(v) for v in value_text.split(",") if v.strip()]
        except ValueError:
            raise ValueError("grid block %r holds a non-numeric value" % key)
        if not values:
            raise ValueError("grid block %r lists no values" % key)
        if key in blocks:
            raise ValueError("grid block %r is given twice in %r" % (key, text))
        for k, v in enumerate(values):
            if v in values[:k]:
                raise ValueError("grid block %r lists %r twice" % (key, v))
        blocks[key] = values
    for key in ("w", "i", "g"):
        if key not in blocks:
            raise ValueError("grid must define block %r" % key)
    return blocks["w"], blocks["i"], blocks["g"]


def cmd_cv(args) -> int:
    d, gs, _, _ = _load_data(args)
    variants = _parse_variants(args.variant)
    w_values, i_values, g_values = _parse_grid(args.grid)

    table_rows = []
    metric_rows = [["variant", "fold", "tp", "fp", "tn", "fn", *_RATES]]
    chosen_rows = [["variant", "fold", "lambda_w", "lambda_i", "lambda_g",
                    "selected_genetic", "selected_interaction"]]
    for variant in variants:
        grid = make_grid(w_values, i_values, g_values, variant=variant)
        result = kfold_cv(
            d, gs, grid,
            k=args.folds, seed=args.seed, selection=args.selection,
            inner_k=args.inner_folds, normalization=args.normalization,
            threshold=args.threshold,
        )
        rows = [*enumerate(result.fold_metrics), ("pooled", result.pooled), ("mean", result.mean)]
        for fold, report in rows:
            # one-class folds (None) and the mean have no counts
            counts = [getattr(report, c, "") for c in ("tp", "fp", "tn", "fn")]
            metric_rows.append(
                [variant, fold, *counts, *_format_rates(report, "%.17g", "")]
            )
        for f, (h, sel) in enumerate(zip(result.chosen, result.selected)):
            chosen_rows.append([
                variant, f,
                *("%.17g" % v for v in (h.lambda_interaction, h.lambda_imaging, h.lambda_genetic)),
                ";".join(gs.names[l] for l in sel.genetic),
                ";".join(gs.names[l] for l in sel.interaction),
            ])
        for source, report in (("mean", result.mean), ("pooled", result.pooled)):
            table_rows.append([variant, source, *_format_rates(report, "%.1f", "--")])

    table = _results_table(table_rows)
    os.makedirs(args.out, exist_ok=True)
    dataio.write_csv(os.path.join(args.out, "cv_metrics.csv"), metric_rows)
    dataio.write_csv(os.path.join(args.out, "cv_chosen.csv"), chosen_rows)
    dataio._write_lines(os.path.join(args.out, "table.txt"), [table])
    print(table)
    print("outputs written to %s" % args.out)
    return 0


def cmd_screen(args) -> int:
    d, gs, _, _ = _load_data(args)
    record = fit_scaler(d, args.normalization)
    design = make_design(d, gs, record)
    result = screen_lambda_max(design, gs)
    lines = [
        "lambda_g_max\t%.17g" % result.lambda_genetic_max,
        "lambda_w_max\t%.17g" % result.lambda_interaction_max,
        "group\tweight\tgenetic_bound\tinteraction_bound",
        *("%s\t%.17g\t%.17g\t%.17g" % row for row in zip(
            gs.names, gs.weights, result.genetic_bounds, result.interaction_bounds)),
    ]
    print("\n".join(lines))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        dataio._write_lines(os.path.join(args.out, "screen.txt"), lines)
    return 0


def _reorder_columns(names, X, wanted, kind: str):
    """Reorder CSV columns to the training order; names are authoritative.

    The result is C-ordered, as an in-order file loads, so the products of
    the model sum in the same order whatever the file's column order.
    """
    if wanted is None or list(names) == list(wanted):
        return X
    position = {name: j for j, name in enumerate(names)}
    missing = [name for name in wanted if name not in position]
    if missing:
        raise ValueError(
            "%s data is missing column '%s' the model was trained on"
            % (kind, missing[0])
        )
    return X.take([position[name] for name in wanted], axis=1)


def cmd_predict(args) -> int:
    params, variant = dataio.load_params(args.model)
    record = load_scaler(args.scaler)
    g_names, genetic = dataio.load_matrix_csv(args.genetic)
    i_names, imaging = dataio.load_matrix_csv(args.imaging)
    genetic = _reorder_columns(g_names, genetic, record.genetic_names, "genetic")
    imaging = _reorder_columns(i_names, imaging, record.imaging_names, "imaging")
    # only the columns the model reads need be finite
    genetic, imaging = _finite(args.genetic, genetic), _finite(args.imaging, imaging)
    gs = dataio.load_group_file(args.groups, record.n_genetic)
    try:  # the design checks this too, but without the file's name
        record.check_groups(gs)
    except ValueError as exc:
        raise ValueError("%s: %s" % (args.groups, exc)) from None
    probs, labels = predict(
        params, record, gs, genetic, imaging, threshold=args.threshold, variant=variant
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "predictions.csv")
    dataio.save_predictions_csv(out_path, probs, labels)
    print("wrote %d predictions to %s" % (probs.size, out_path))
    return 0


def cmd_generate(args) -> int:
    spec = _from_options(SyntheticSpec, args)
    data = generate(spec)
    write_files(data, args.out)
    print(
        "generated %d samples (%d genetic, %d imaging, %d groups) in %s"
        % (spec.n_samples, spec.n_genetic, spec.n_imaging, spec.n_groups, args.out)
    )
    return 0


def _fit_options(sp) -> None:
    _add_data_options(sp)
    sp.add_argument("--lambda-w", type=float, dest="lambda_interaction", required=True,
                    help="interaction penalty strength")
    sp.add_argument("--lambda-i", type=float, dest="lambda_imaging", required=True,
                    help="imaging penalty strength")
    sp.add_argument("--lambda-g", type=float, dest="lambda_genetic", required=True,
                    help="genetic penalty strength")
    sp.add_argument("--variant", type=str, default="multilevel",
                    help="model variant (default multilevel)")
    sp.add_argument("--tol", type=float, default=1e-5,
                    help="relative objective tolerance; a converged fit also has a duality "
                    "gap of at most %g x tol x its objective" % GAP_GATE)
    sp.add_argument("--max-iters", type=int, dest="max_iters", default=10000,
                    help="iteration cap")
    sp.add_argument("--out", type=str, default="structprox-fit", help="output directory")


def _cv_options(sp) -> None:
    _add_data_options(sp)
    sp.add_argument("--folds", type=int, default=10, help="number of folds (default 10)")
    sp.add_argument("--grid", type=str, default="7",
                    help="point count or 'w=...;i=...;g=...' lists (default 7)")
    sp.add_argument("--variant", type=str, default="multilevel",
                    help="comma-separated variants (default multilevel)")
    sp.add_argument("--selection", type=str, default="nested",
                    help="grid selection: nested (default) or oracle")
    sp.add_argument("--inner-folds", type=int, dest="inner_folds", default=3,
                    help="inner folds for nested selection (default 3)")
    sp.add_argument("--threshold", type=float, default=0.5,
                    help="decision threshold (default 0.5)")
    sp.add_argument("--seed", type=int, default=0, help="fold shuffling seed (default 0)")
    sp.add_argument("--out", type=str, default="structprox-cv", help="output directory")


def _screen_options(sp) -> None:
    _add_data_options(sp)
    sp.add_argument("--out", type=str, help="optional output directory")


def _predict_options(sp) -> None:
    sp.add_argument("--model", type=str, required=True, help="params.txt from a fit")
    sp.add_argument("--scaler", type=str, required=True, help="scaler.txt from the same fit")
    sp.add_argument("--groups", type=str, required=True,
                    help="group definition file of the same fit")
    sp.add_argument("--genetic", type=str, required=True, help="genetic feature CSV")
    sp.add_argument("--imaging", type=str, required=True, help="imaging feature CSV")
    sp.add_argument("--threshold", type=float, default=0.5,
                    help="decision threshold (default 0.5)")
    sp.add_argument("--out", type=str, default="structprox-predict", help="output directory")


def _generate_options(sp) -> None:
    sp.add_argument("--samples", type=int, dest="n_samples", default=200,
                    help="sample count (default 200)")
    sp.add_argument("--imaging-count", type=int, dest="n_imaging", default=6,
                    help="imaging feature count (default 6)")
    sp.add_argument("--groups-count", type=int, dest="n_groups", default=10,
                    help="group count (default 10)")
    sp.add_argument("--group-size", type=int, dest="group_size", default=5,
                    help="features per group (default 5)")
    sp.add_argument("--overlap", type=float, default=0.0,
                    help="shared fraction between neighbours")
    sp.add_argument("--active-groups", type=int, dest="n_active", default=2,
                    help="planted active groups (default 2)")
    sp.add_argument("--effect-w", type=float, dest="effect_interaction", default=0.0,
                    help="interaction effect size")
    sp.add_argument("--effect-i", type=float, dest="effect_imaging", default=0.0,
                    help="imaging effect size")
    sp.add_argument("--effect-g", type=float, dest="effect_genetic", default=1.0,
                    help="genetic effect size")
    sp.add_argument("--intercept", type=float, default=0.0, help="planted intercept")
    sp.add_argument("--noise", type=float, dest="label_noise", default=0.0,
                    help="label flip probability")
    sp.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    sp.add_argument("--out", type=str, required=True, help="output directory")


# name: (function, help, adds the options)
_COMMANDS = {
    "fit": (cmd_fit, "train one model", _fit_options),
    "cv": (cmd_cv, "cross-validate over a grid", _cv_options),
    "screen": (cmd_screen, "critical penalty strengths", _screen_options),
    "predict": (cmd_predict, "score new samples", _predict_options),
    "generate": (cmd_generate, "write a synthetic dataset", _generate_options),
}


def _build_parser(config, names):
    """The top-level parser and a dict of the parsers of the commands in
    ``names``, each of which takes ``config``'s ``--config`` option."""
    parser = _Parser(prog="structprox", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    commands = {}
    for name in names:
        func, help, add_options = _COMMANDS[name]
        # parents= copies --config without add_argument, so it is no config key
        sp = commands[name] = sub.add_parser(name, help=help, parents=[config])
        sp.set_defaults(func=func)
        add_options(sp)
    return parser, commands


def main(argv=None) -> int:
    config = _Parser(add_help=False)
    config.add_argument("--config", type=str,
                        help="key=value settings file, read as flags ahead of these")
    argv = sys.argv[1:] if argv is None else list(argv)
    # A command named first is the only one argparse can reach; help and
    # the other errors need every command.
    named = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    parser, commands = _build_parser(config, named)
    try:
        if argv and argv[0] in commands:
            path = config.parse_known_args(argv[1:])[0].config
            if path is not None:
                flags = _parse_config_file(path, commands[argv[0]].config_keys)
                argv = [argv[0], *flags, *argv[1:]]
        args = parser.parse_args(argv)
        if args.command is None:
            raise ValueError("no command given; expected one of fit, cv, screen, predict, generate")
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except SolverFailure as exc:
        print("error: solver: %s" % " ".join(str(exc).split()), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: input: %s" % " ".join(str(exc).split()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
