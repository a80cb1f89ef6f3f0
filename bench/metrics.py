"""Names, units and derivations of the benchmark's metrics.

End-to-end metrics come from untraced runs.  Per-layer metrics come from
the spans and counters of traced runs and are given per timed CLI call,
except ``synthetic.generate.s`` and ``solver.screen_lambda_max.s``, which
are per set-up (the timed calls never generate data or screen).
"""

from __future__ import annotations

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "kkt_residual": "1",
}

PER_LAYER_UNITS = {
    "objective.margins.calls": "count",
    "objective.margins.calls_from_risk": "count",
    "objective.margins.calls_from_risk_gradient": "count",
    "objective.margins.s": "s",
    "objective.margins.gflop": "GFLOP",
    "objective.margins.flop_per_byte": "flop/B",
    "objective.margins.gflop_per_s": "GFLOP/s",
    "objective.risk.calls": "count",
    "objective.risk_gradient.calls": "count",
    "objective.risk_gradient.s": "s",
    "solver.fit.s": "s",
    "solver.self_s": "s",
    "solver.iterations": "count",
    "solver.backtracks": "count",
    "solver.accept_ratio": "1",
    "solver.parameter_update.calls": "count",
    "solver.parameter_update.s": "s",
    "solver.screen_lambda_max.s": "s",
    "core.flat.calls": "count",
    "core.flat.bytes": "B",
    "preprocessing.fit_scaler.calls": "count",
    "preprocessing.fit_scaler.s": "s",
    "preprocessing.make_design.s": "s",
    "preprocessing.save_scaler.s": "s",
    "preprocessing.load_scaler.s": "s",
    "preprocessing.scaler_bytes": "B",
    "dataio.load_matrix_csv.calls": "count",
    "dataio.load_matrix_csv.s": "s",
    "dataio.bytes_read": "B",
    "dataio.save.s": "s",
    "evaluation.fits": "count",
    "evaluation.kfold_cv.self_s": "s",
    "evaluation.predict.s": "s",
    "cli.self_s": "s",
    "synthetic.generate.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

SETUP_LAYERS = ("synthetic.generate.s", "solver.screen_lambda_max.s")


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With fewer than 11 samples no such
    percentile exists and the slowest sample is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _ratio(num, den):
    return num / den if den else 0.0


def call_layers(tracer, calls: int) -> dict:
    """Per-layer metrics of the timed phase, per traced call."""
    totals = tracer.totals()
    c = tracer.counters

    def calls_of(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / calls

    def secs(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names) / calls

    def self_secs(prefix):
        return sum(v[2] for n, v in totals.items() if n.startswith(prefix)) / calls

    saves = [n for n in totals if n.startswith("dataio.save_")]
    margins_s = secs("objective.margins")
    gflop = c["objective.margins.flop"] / 1e9 / calls
    iterations = c["solver.iterations"] / calls
    backtracks = c["solver.backtracks"] / calls
    return {
        "objective.margins.calls": calls_of("objective.margins"),
        "objective.margins.calls_from_risk": tracer.calls_under("objective.margins", "objective.risk") / calls,
        "objective.margins.calls_from_risk_gradient": tracer.calls_under("objective.margins", "objective.risk_gradient") / calls,
        "objective.margins.s": margins_s,
        "objective.margins.gflop": gflop,
        "objective.margins.flop_per_byte": _ratio(c["objective.margins.flop"], c["objective.margins.bytes"]),
        "objective.margins.gflop_per_s": _ratio(gflop, margins_s),
        "objective.risk.calls": calls_of("objective.risk"),
        "objective.risk_gradient.calls": calls_of("objective.risk_gradient"),
        "objective.risk_gradient.s": secs("objective.risk_gradient"),
        "solver.fit.s": secs("solver.fit"),
        "solver.self_s": self_secs("solver."),
        "solver.iterations": iterations,
        "solver.backtracks": backtracks,
        "solver.accept_ratio": _ratio(iterations, iterations + backtracks),
        "solver.parameter_update.calls": calls_of("solver.parameter_update"),
        "solver.parameter_update.s": secs("solver.parameter_update"),
        "core.flat.calls": calls_of("core.flat"),
        "core.flat.bytes": c["core.flat.bytes"] / calls,
        "preprocessing.fit_scaler.calls": calls_of("preprocessing.fit_scaler"),
        "preprocessing.fit_scaler.s": secs("preprocessing.fit_scaler"),
        "preprocessing.make_design.s": secs("preprocessing.make_design"),
        "preprocessing.save_scaler.s": secs("preprocessing.save_scaler"),
        "preprocessing.load_scaler.s": secs("preprocessing.load_scaler"),
        "preprocessing.scaler_bytes": c["preprocessing.scaler_bytes"] / calls,
        "dataio.load_matrix_csv.calls": calls_of("dataio.load_matrix_csv"),
        "dataio.load_matrix_csv.s": secs("dataio.load_matrix_csv"),
        "dataio.bytes_read": c["dataio.bytes_read"] / calls,
        "dataio.save.s": secs(*saves),
        "evaluation.fits": calls_of("solver.fit"),
        "evaluation.kfold_cv.self_s": self_secs("evaluation.kfold_cv"),
        "evaluation.predict.s": secs("evaluation.predict"),
        "cli.self_s": self_secs("cli."),
        "trace.spans": len(tracer.start) / calls,
    }


def setup_layers(tracer, setups: int) -> dict:
    totals = tracer.totals()
    return {name: totals.get(name[: -len(".s")], (0, 0.0, 0.0))[1] / setups for name in SETUP_LAYERS}

