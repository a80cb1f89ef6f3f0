"""Checks of the benchmark's own pieces: the KKT residual, the span
recorder, the input relabelling and the metric names.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os

import bootstrap

bootstrap.require_package()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from kkt import kkt_residual, lambda_max  # noqa: E402
from spans import Tracer  # noqa: E402
from structprox import Hyperparameters, ParameterSet, SyntheticSpec, generate  # noqa: E402
from structprox.preprocessing import fit_scaler, make_design  # noqa: E402
from structprox.solver import fit  # noqa: E402
from structprox.synthetic import reference_solve  # noqa: E402


def small_problem(seed=3):
    data = generate(SyntheticSpec(
        n_samples=40, n_imaging=3, n_groups=4, group_size=3, n_active=1,
        effect_genetic=1.0, effect_imaging=0.5, effect_interaction=1.0,
        label_noise=0.1, seed=seed,
    ))
    d, gs = data.dataset, data.groups
    design = make_design(d, gs, fit_scaler(d))
    lam = lambda_max(design, gs)
    return data, design, gs, Hyperparameters(0.2 * lam, 0.05, 0.2 * lam), lam


@pytest.mark.parametrize("seed", [3, 8])
def test_kkt_residual_vanishes_at_reference_solution(seed):
    _, design, gs, h, lam = small_problem(seed)
    params, _ = reference_solve(design, gs, h)
    assert kkt_residual(params, design, gs, h) / lam < 1e-4


def test_kkt_residual_positive_at_zero_below_lambda_max():
    _, design, gs, h, lam = small_problem()
    zero = ParameterSet.zeros(design.n_imaging, design.expanded_size)
    assert kkt_residual(zero, design, gs, h) / lam > 0.1


def test_tracer_counts_match_solver_state_and_restores_functions():
    _, design, gs, h, _ = small_problem()
    original = workloads.solver.risk
    tracer = Tracer()
    tracer.install()
    try:
        assert workloads.solver.risk is not original
        _, state = workloads.solver.fit(design, gs, h)
    finally:
        tracer.uninstall()
    assert workloads.solver.risk is original

    layers = metrics.call_layers(tracer, 1)
    backtracks = sum(rec.backtracks for rec in state.history)
    assert layers["solver.iterations"] == state.iterations
    assert layers["solver.backtracks"] == backtracks
    # One risk at the start, one per line-search attempt; one gradient per iteration.
    assert layers["objective.risk.calls"] == 1 + state.iterations + backtracks
    assert layers["objective.risk_gradient.calls"] == state.iterations
    assert layers["objective.margins.calls_from_risk"] == layers["objective.risk.calls"]
    assert layers["objective.margins.calls"] == (
        layers["objective.risk.calls"] + layers["objective.risk_gradient.calls"]
    )
    totals = tracer.totals()
    calls, inclusive, own = totals["solver.fit"]
    assert calls == 1 and 0 < own < inclusive


def test_relabelled_inputs_pose_the_same_problem():
    data, design, gs, h, _ = small_problem()
    moved = workloads.relabel(data, seed=5)
    assert not np.array_equal(moved.dataset.genetic, data.dataset.genetic)
    d2, gs2 = moved.dataset, moved.groups
    design2 = make_design(d2, gs2, fit_scaler(d2))
    np.testing.assert_allclose(design2.genetic, design.genetic, rtol=1e-12)
    _, state = fit(design, gs, h)
    _, state2 = fit(design2, gs2, h)
    assert state2.iterations == state.iterations
    np.testing.assert_allclose(state2.trace, state.trace, rtol=1e-12)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = metrics.tail([float(v) for v in range(1, 41)])
    assert value == 30.0 and pct == 75.0
