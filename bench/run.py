"""Benchmark of the structprox command line tool.

    python3 bench/run.py --workload fit-full --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``fit-full`` times one CLI ``fit`` at full
scale, ``cv-small`` one CLI ``cv`` on the test fixture, ``predict-full`` CLI
``predict`` calls against a model fitted during set-up.  The run sets the
inputs up several times and reports the median set-up time, then starts
``timed.py`` for the timed phase.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` every public structprox function is
wrapped in a span and the object carries the per-layer metrics instead.
Lines before it name every metric with its unit, the failed fraction and the
environment.  Spans and a fuller ``result.json`` are written under
``.bench_runs/`` in the checkout.  The run exits non-zero without a result
when it cannot measure, for example when ``src/structprox`` is missing.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap

# Set-up is repeated at least this many times, and until it has taken this
# long, so that millisecond set-ups still give a steady median.
SETUP_MIN = 3
SETUP_BUDGET_S = 1.0
# The whole run must end within 180 s.
DEADLINE_S = 170.0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": bootstrap.BLAS_THREADS,
    }


def main() -> int:
    started = time.perf_counter()
    bootstrap.require_package()
    import metrics
    import workloads
    from kkt import relative_kkt
    from spans import Tracer

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = workloads.WORKLOADS[args.workload]

    run_dir = os.path.join(bootstrap.RUNS, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    work = os.path.join(run_dir, "work")
    os.makedirs(work)

    tracer = Tracer() if args.trace else None
    setup_times = []
    while len(setup_times) < SETUP_MIN or sum(setup_times) < SETUP_BUDGET_S:
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        plan, fits = workload.setup(work, args.seed)
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
    setup_kkt = max(relative_kkt(*fit) for fit in fits) if fits and not tracer else None
    with open(os.path.join(run_dir, "plan.json"), "w") as fh:
        json.dump(plan, fh)

    child = [
        sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "timed.py"),
        "--workload", args.workload, "--dir", run_dir,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        subprocess.run(child, check=True, timeout=DEADLINE_S - (time.perf_counter() - started))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.exit("bench: timed phase failed: %s" % exc)
    with open(os.path.join(run_dir, "timed.json")) as fh:
        timed = json.load(fh)
    shutil.rmtree(work)

    env = environment()
    walls = timed["walls"]
    attempted, failed = timed["attempted"], timed["failed"]
    lines = ["env " + " ".join("%s=%s" % kv for kv in env.items()),
             "workload %s seed %d: %s" % (args.workload, args.seed, workload.why)]
    if tracer:
        values = dict(timed.get("layers", {}))
        values.update(metrics.setup_layers(tracer, len(setup_times)))
        units = metrics.PER_LAYER_UNITS
        tracer.save(os.path.join(run_dir, "setup_spans.npz"))
    else:
        kkt = timed["kkt"] if timed["kkt"] is not None else setup_kkt
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.fmean(walls),
            "peak_rss_mb": timed["peak_rss_mb"],
            "kkt_residual": kkt,
        }
        units = metrics.END_TO_END_UNITS
        tail, pct = metrics.tail(walls)
        lines.append("samples: setup_s median of %d set-ups; wall_s mean of %d calls" % (len(setup_times), len(walls)))
        lines.append("call times (not gated): median %.6g s, tail p%.0f %.6g s" % (statistics.median(walls), pct, tail))
    complete = set(values) == set(units) and all(v is not None for v in values.values())
    for name, unit in units.items():
        lines.append("%s %s %s" % (name, values.get(name), unit))
    lines.append("failed_frac %g (%d of %d operations failed)" % (failed / attempted, failed, attempted))
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(dict(result, env=env, workload=args.workload, seed=args.seed, why=workload.why,
                       setup_times=setup_times, walls=walls), fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
