"""Timed phase of one benchmark run, in a process of its own.

``run.py`` sets up the inputs, writes ``plan.json`` into the run directory
and starts this script, so that peak RSS belongs to the process that runs
the workload and nothing else.  The script calls ``structprox.cli.main``
in-process, back to back (a closed loop with one client), until
``--seconds`` have passed, so the calls cover the whole window even when one
call takes more than half of it; the last call may end past it.  It always
makes at least one call, and in a traced run at least two.  A traced run alternates untraced and traced
calls, so the tracing overhead is measured inside one process.  Results go
to ``timed.json`` next to the plan.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout

import bootstrap


def passed(workload, plan, reference) -> bool:
    """The workload's output check; missing or unreadable output fails it."""
    try:
        return workload.check(plan, reference)
    except (OSError, ValueError):
        return False


def main() -> int:
    bootstrap.require_package()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import metrics
    import workloads
    from kkt import relative_kkt
    from spans import Tracer

    cli = sys.modules["structprox.cli"]
    workload = workloads.WORKLOADS[args.workload]
    with open(os.path.join(args.dir, "plan.json")) as fh:
        plan = json.load(fh)
    reference = peak_rss_mb = None
    tracer = Tracer() if args.trace else None
    min_calls = 2 if tracer else 1

    walls, traced_walls, kkts = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    with open(os.devnull, "w") as sink:
        while True:
            done = len(walls) + len(traced_walls)
            elapsed = time.perf_counter() - started
            if done >= min_calls and elapsed >= args.seconds:
                break
            traced = tracer is not None and done % 2 == 1
            shutil.rmtree(plan["out"], ignore_errors=True)
            if traced:
                tracer.install()
            with workloads.capture_fits() as fits, redirect_stdout(sink):
                t0 = time.perf_counter()
                try:
                    code = cli.main(plan["argv"])
                except Exception:
                    traceback.print_exc()
                    code = None
                wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            (traced_walls if traced else walls).append(wall)
            attempted += 1
            if attempted == 1:
                # A CLI user runs one command per process, so memory is
                # reported for a process that has made one call.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if workload.reference:
                    reference = workload.reference(plan)
            if code != 0 or not passed(workload, plan, reference):
                failed += 1
                print("bench: call %d failed (exit code %s)" % (attempted, code), file=sys.stderr)
                if code is None:
                    break
            elif tracer is None:
                kkts.extend(relative_kkt(*fit) for fit in fits)

    result = {
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "kkt": max(kkts) if kkts else None,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None and traced_walls:
        layers = metrics.call_layers(tracer, len(traced_walls))
        traced_wall = statistics.median(traced_walls)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - statistics.median(walls)
        result["layers"] = layers
        tracer.save(os.path.join(args.dir, "timed_spans.npz"))
    with open(os.path.join(args.dir, "timed.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
