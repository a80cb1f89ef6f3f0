"""Command line interface.

Subcommands: ``fit``, ``cv``, ``screen``, ``predict``, ``generate``.  A
config file of ``key=value`` lines (keys match the long flag names), given
with ``--config`` after the subcommand, may supply any option; explicit
flags override the file.  Exit codes: 0 on success, 1 on invalid input,
2 on solver failure.  Primary output files are deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import dataio
from .core import Dataset, Hyperparameters, _check_variant_name
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
from .solver import SolverFailure, fit, screen_lambda_max
from .synthetic import SyntheticSpec, generate, write_files

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as ValueError (exit code 1)."""

    def error(self, message):
        raise ValueError(message)


def _parse_config_file(path, options) -> dict:
    """Read ``key=value`` lines into ``{option dest: raw string}``.

    Blank lines and ``#`` comments are allowed.  Keys may use either hyphens
    or underscores (``max-iters``/``max_iters``) and must name one of
    ``options``.  The values stay strings: set as parser defaults, argparse
    converts them through each option's ``type`` when it parses.
    """
    settings = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(
                    "%s: line %d is not a key=value setting" % (path, lineno)
                )
            key, _, value = text.partition("=")
            dest = key.strip().replace("-", "_")
            if dest not in options:
                raise ValueError("config file sets unknown option '%s'" % key.strip())
            settings[dest] = value.strip()
    return settings


_DATA_OPTIONS = {
    "genetic": "--genetic", "imaging": "--imaging", "labels": "--labels", "groups": "--groups",
}


def _require(args, names: dict) -> None:
    for dest, flag in names.items():
        if getattr(args, dest, None) is None:
            raise ValueError("missing required option %s" % flag)


def _add_data_options(sp) -> None:
    sp.add_argument("--genetic", type=str, help="genetic feature CSV")
    sp.add_argument("--imaging", type=str, help="imaging feature CSV")
    sp.add_argument("--labels", type=str, help="0/1 label CSV")
    sp.add_argument("--groups", type=str, help="group definition file")
    sp.add_argument("--normalization", type=str, choices=NORMALIZATION_MODES,
                    default="sd", help="column scaling mode (default sd)")


def _load_data(args):
    g_names, genetic = dataio.load_matrix_csv(args.genetic)
    i_names, imaging = dataio.load_matrix_csv(args.imaging)
    labels = dataio.load_labels_csv(args.labels)
    d = Dataset(genetic, imaging, labels)
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
    _require(args, {
        **_DATA_OPTIONS, "lambda_w": "--lambda-w", "lambda_i": "--lambda-i",
        "lambda_g": "--lambda-g",
    })
    started = time.perf_counter()
    d, gs, g_names, i_names = _load_data(args)
    h = Hyperparameters(
        lambda_interaction=args.lambda_w,
        lambda_imaging=args.lambda_i,
        lambda_genetic=args.lambda_g,
        variant=args.variant,
        tol=args.tol,
        max_iters=args.max_iters,
    )
    record = fit_scaler(d, args.normalization, genetic_names=g_names, imaging_names=i_names)
    params, state = fit(make_design(d, gs, record), gs, h)

    os.makedirs(args.out, exist_ok=True)
    dataio.save_params(os.path.join(args.out, "params.txt"), params, h.variant)
    save_scaler(record, os.path.join(args.out, "scaler.txt"))
    dataio.save_trace_csv(os.path.join(args.out, "trace.csv"), state)
    red = reduce_parameters(params, gs)
    _save_reduced(args.out, red, i_names, list(gs.names))

    sel = selected_groups(params, gs)
    final = state.history[-1]
    # With one class the risk keeps falling as the intercept grows, so the
    # fit drifts and its stop reason says nothing about an optimum.
    one_class = d.labels.min() == d.labels.max()
    notes = ["labels hold one class (%d): the intercept has no finite optimum"
             % d.labels[0]] if one_class else []
    elapsed = time.perf_counter() - started
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
        "final_risk: %.17g" % final.risk,
        "final_penalty: %.17g" % final.penalty,
        "final_objective: %.17g" % final.total,
        "selected_genetic_groups: %s"
        % (",".join(gs.names[l] for l in sel.genetic) or "none"),
        "selected_interaction_groups: %s"
        % (",".join(gs.names[l] for l in sel.interaction) or "none"),
        *("warning: " + note for note in notes),
        "wall_time_seconds: %.3f" % elapsed,
    ]
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")
    print(
        "fit: %s, %d iterations, objective %.6g, %d genetic / %d interaction groups selected"
        % (state.stop_reason, state.iterations, final.total,
           len(sel.genetic), len(sel.interaction))
    )
    print("outputs written to %s" % args.out)
    if state.stop_reason == "max_iters":
        print("warning: fit not converged: stopped at the iteration cap of %d iterations"
              % state.iterations, file=sys.stderr)
    for note in notes:
        print("warning: " + note, file=sys.stderr)
    return 0


def _parse_variants(text: str) -> list[str]:
    variants = [v.strip() for v in text.split(",") if v.strip()]
    if not variants:
        raise ValueError("no variant named in %r" % text)
    for k, v in enumerate(variants):
        _check_variant_name(v)
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
    _require(args, _DATA_OPTIONS)
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
    with open(os.path.join(args.out, "table.txt"), "w") as fh:
        fh.write(table + "\n")
    print(table)
    print("outputs written to %s" % args.out)
    return 0


def cmd_screen(args) -> int:
    _require(args, _DATA_OPTIONS)
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
    text = "\n".join(lines)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "screen.txt"), "w") as fh:
            fh.write(text + "\n")
    return 0


def _reorder_columns(names, X, wanted, kind: str):
    """Reorder CSV columns to the training order; names are authoritative."""
    if wanted is None or list(names) == list(wanted):
        return X
    position = {name: j for j, name in enumerate(names)}
    missing = [name for name in wanted if name not in position]
    if missing:
        raise ValueError(
            "%s data is missing column '%s' the model was trained on"
            % (kind, missing[0])
        )
    return X[:, [position[name] for name in wanted]]


def cmd_predict(args) -> int:
    _require(args, {
        "model": "--model", "scaler": "--scaler", "groups": "--groups",
        "genetic": "--genetic", "imaging": "--imaging",
    })
    params, variant = dataio.load_params(args.model)
    record = load_scaler(args.scaler)
    g_names, genetic = dataio.load_matrix_csv(args.genetic)
    i_names, imaging = dataio.load_matrix_csv(args.imaging)
    genetic = _reorder_columns(g_names, genetic, record.genetic_names, "genetic")
    imaging = _reorder_columns(i_names, imaging, record.imaging_names, "imaging")
    gs = dataio.load_group_file(args.groups, record.n_genetic)
    if gs.expanded_size != params.expanded_size or record.n_imaging != params.n_imaging:
        raise ValueError(
            "model dims (imaging %d, expanded %d) do not match groups/scaler "
            "(imaging %d, expanded %d)"
            % (params.n_imaging, params.expanded_size, record.n_imaging, gs.expanded_size)
        )
    probs, labels = predict(
        params, record, gs, genetic, imaging, threshold=args.threshold, variant=variant
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "predictions.csv")
    dataio.save_predictions_csv(out_path, probs, labels)
    print("wrote %d predictions to %s" % (probs.size, out_path))
    return 0


def cmd_generate(args) -> int:
    _require(args, {"out": "--out"})
    spec = SyntheticSpec(
        n_samples=args.samples,
        n_imaging=args.imaging_count,
        n_groups=args.groups_count,
        group_size=args.group_size,
        overlap=args.overlap,
        n_active=args.active_groups,
        effect_interaction=args.effect_w,
        effect_imaging=args.effect_i,
        effect_genetic=args.effect_g,
        intercept=args.intercept,
        label_noise=args.noise,
        seed=args.seed,
    )
    data = generate(spec)
    write_files(data, args.out)
    print(
        "generated %d samples (%d genetic, %d imaging, %d groups) in %s"
        % (spec.n_samples, spec.n_genetic, spec.n_imaging, spec.n_groups, args.out)
    )
    return 0


def _build_parser():
    """The top-level parser and a dict of its per-command parsers."""
    parser = _Parser(prog="structprox", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    commands = {}

    sp = commands["fit"] = sub.add_parser("fit", help="train one model")
    _add_data_options(sp)
    sp.add_argument("--lambda-w", type=float, dest="lambda_w",
                    help="interaction penalty strength")
    sp.add_argument("--lambda-i", type=float, dest="lambda_i",
                    help="imaging penalty strength")
    sp.add_argument("--lambda-g", type=float, dest="lambda_g",
                    help="genetic penalty strength")
    sp.add_argument("--variant", type=str, default="multilevel",
                    help="model variant (default multilevel)")
    sp.add_argument("--tol", type=float, default=1e-5, help="relative objective tolerance")
    sp.add_argument("--max-iters", type=int, dest="max_iters", default=10000,
                    help="iteration cap")
    sp.add_argument("--out", type=str, default="structprox-fit", help="output directory")
    sp.set_defaults(func=cmd_fit)

    sp = commands["cv"] = sub.add_parser("cv", help="cross-validate over a grid")
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
    sp.set_defaults(func=cmd_cv)

    sp = commands["screen"] = sub.add_parser("screen", help="critical penalty strengths")
    _add_data_options(sp)
    sp.add_argument("--out", type=str, help="optional output directory")
    sp.set_defaults(func=cmd_screen)

    sp = commands["predict"] = sub.add_parser("predict", help="score new samples")
    sp.add_argument("--model", type=str, help="params.txt from a fit")
    sp.add_argument("--scaler", type=str, help="scaler.txt from the same fit")
    sp.add_argument("--groups", type=str, help="group definition file")
    sp.add_argument("--genetic", type=str, help="genetic feature CSV")
    sp.add_argument("--imaging", type=str, help="imaging feature CSV")
    sp.add_argument("--threshold", type=float, default=0.5,
                    help="decision threshold (default 0.5)")
    sp.add_argument("--out", type=str, default="structprox-predict", help="output directory")
    sp.set_defaults(func=cmd_predict)

    sp = commands["generate"] = sub.add_parser("generate", help="write a synthetic dataset")
    sp.add_argument("--samples", type=int, default=200, help="sample count (default 200)")
    sp.add_argument("--imaging-count", type=int, dest="imaging_count", default=6,
                    help="imaging feature count (default 6)")
    sp.add_argument("--groups-count", type=int, dest="groups_count", default=10,
                    help="group count (default 10)")
    sp.add_argument("--group-size", type=int, dest="group_size", default=5,
                    help="features per group (default 5)")
    sp.add_argument("--overlap", type=float, default=0.0,
                    help="shared fraction between neighbours")
    sp.add_argument("--active-groups", type=int, dest="active_groups", default=2,
                    help="planted active groups (default 2)")
    sp.add_argument("--effect-w", type=float, dest="effect_w", default=0.0,
                    help="interaction effect size")
    sp.add_argument("--effect-i", type=float, dest="effect_i", default=0.0,
                    help="imaging effect size")
    sp.add_argument("--effect-g", type=float, dest="effect_g", default=1.0,
                    help="genetic effect size")
    sp.add_argument("--intercept", type=float, default=0.0, help="planted intercept")
    sp.add_argument("--noise", type=float, default=0.0, help="label flip probability")
    sp.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    sp.add_argument("--out", type=str, help="output directory")
    sp.set_defaults(func=cmd_generate)

    for command_parser in commands.values():
        command_parser.add_argument("--config", type=str, help="key=value settings file")
    return parser, commands


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ValueError("no command given; expected one of fit, cv, screen, predict, generate")
        if args.config:
            # Second parse: the file's settings become the command's defaults.
            command_parser = commands[args.command]
            options = set(vars(command_parser.parse_args([]))) - {"config", "func"}
            command_parser.set_defaults(**_parse_config_file(args.config, options))
            args = parser.parse_args(argv)
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
