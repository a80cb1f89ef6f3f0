"""The three benchmark workloads: input set-up, the timed CLI call, output checks.

Each workload's problem instance is fixed: the synthetic spec and generator
seed below are the ones the acceptance tests and the roadmap baseline use.
The benchmark seed shuffles how that instance is presented on disk: the
genetic columns (with the group file re-indexed to match) and the imaging
columns are permuted.  The model is invariant to this relabelling, so every
seed poses the same problem, up to rounding, with the same amount of work,
and the run-to-run spread is timing noise rather than a change in
iteration count between datasets.  The input files still differ between
seeds.
"""

from __future__ import annotations

import importlib
import inspect
import os
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass

import numpy as np

from structprox.core import Dataset, GroupStructure, ParameterSet
from structprox.synthetic import SyntheticData, SyntheticSpec

from spans import rebind, restore

# Functions are looked up on their modules at call time, so that set-up
# goes through the tracer's wrappers in a traced run.
cli = importlib.import_module("structprox.cli")
dataio = importlib.import_module("structprox.dataio")
evaluation = importlib.import_module("structprox.evaluation")
preprocessing = importlib.import_module("structprox.preprocessing")
solver = importlib.import_module("structprox.solver")
synthetic = importlib.import_module("structprox.synthetic")

# The criterion-9 acceptance spec.
FULL_SPEC = SyntheticSpec(
    n_samples=707, n_imaging=114, n_groups=46, group_size=25, overlap=0.04,
    n_active=5, effect_genetic=1.0, effect_imaging=0.5, effect_interaction=1.0,
    label_noise=0.1, seed=4242,
)
# The CLI test fixture: `generate --samples 60 --imaging-count 3
# --groups-count 4 --group-size 3 --effect-g 1.5 --noise 0.1 --seed 11`.
SMALL_SPEC = SyntheticSpec(
    n_samples=60, n_imaging=3, n_groups=4, group_size=3, n_active=2,
    effect_genetic=1.5, label_noise=0.1, seed=11,
)


def relabel(data: SyntheticData, seed: int) -> SyntheticData:
    """The same dataset with its genetic and imaging columns permuted by ``seed``."""
    rng = np.random.default_rng(seed)
    d, gs = data.dataset, data.groups
    g_perm = rng.permutation(d.n_genetic)
    i_perm = rng.permutation(d.n_imaging)
    g_pos = np.argsort(g_perm)
    groups = GroupStructure(
        [g_pos[idx] for idx in gs.groups], d.n_genetic, weights=gs.weights, names=gs.names
    )
    t = data.truth
    truth = ParameterSet(t.interaction[i_perm], t.imaging[i_perm], t.genetic, t.intercept)
    return SyntheticData(
        dataset=Dataset(d.genetic[:, g_perm], d.imaging[:, i_perm], d.labels),
        groups=groups,
        truth=truth,
        active_groups=data.active_groups,
    )


def write_inputs(spec: SyntheticSpec, seed: int, work: str) -> SyntheticData:
    data = relabel(synthetic.generate(spec), seed)
    synthetic.write_files(data, os.path.join(work, "inputs"))
    return data


def input_flags(work: str) -> list[str]:
    inputs = os.path.join(work, "inputs")
    return [
        "--genetic", os.path.join(inputs, "genetic.csv"),
        "--imaging", os.path.join(inputs, "imaging.csv"),
        "--labels", os.path.join(inputs, "labels.csv"),
        "--groups", os.path.join(inputs, "groups.tsv"),
    ]


def fit_argv(work: str, seed: int, out: str) -> list[str]:
    """Write the full-scale inputs and build a fit at 0.3 x the screened strengths."""
    data = write_inputs(FULL_SPEC, seed, work)
    d, gs = data.dataset, data.groups
    design = preprocessing.make_design(d, gs, preprocessing.fit_scaler(d))
    bounds = solver.screen_lambda_max(design, gs)
    return [
        "fit", *input_flags(work),
        "--lambda-w", "%.17g" % (0.3 * bounds.lambda_interaction_max),
        "--lambda-i", "0.01",
        "--lambda-g", "%.17g" % (0.3 * bounds.lambda_genetic_max),
        "--out", out,
    ]


@contextmanager
def capture_fits():
    """Collect ``(params, design, gs, h)`` of every solver fit in the block."""
    fit = solver.fit
    signature = inspect.signature(fit)
    found = []

    def capturing(*args, **kwargs):
        result = fit(*args, **kwargs)
        bound = signature.bind(*args, **kwargs).arguments
        found.append((result[0], bound["design"], bound["gs"], bound["h"]))
        return result

    undo = rebind({fit: capturing})
    try:
        yield found
    finally:
        restore(undo)


def setup_fit_full(work: str, seed: int):
    return {"argv": fit_argv(work, seed, os.path.join(work, "out")), "out": os.path.join(work, "out")}, []


def setup_cv_small(work: str, seed: int):
    write_inputs(SMALL_SPEC, seed, work)
    out = os.path.join(work, "out")
    return {"argv": ["cv", *input_flags(work), "--grid", "2", "--folds", "2", "--out", out], "out": out}, []


# The model predict-full scores is fitted to a looser tolerance than fit-full
# (29 iterations instead of 131): predict's cost depends only on the shapes of
# the model and the data, and the shorter fit leaves time for the timed calls.
PREDICT_MODEL_TOL = "1e-3"


def setup_predict_full(work: str, seed: int):
    model = os.path.join(work, "model")
    fit_args = fit_argv(work, seed, model) + ["--tol", PREDICT_MODEL_TOL]
    with capture_fits() as fits, open(os.devnull, "w") as sink, redirect_stdout(sink):
        code = cli.main(fit_args)
    if code != 0:
        raise RuntimeError("set-up fit exited with code %d" % code)
    inputs = os.path.join(work, "inputs")
    files = {
        "model": os.path.join(model, "params.txt"),
        "scaler": os.path.join(model, "scaler.txt"),
        "groups": os.path.join(inputs, "groups.tsv"),
        "genetic": os.path.join(inputs, "genetic.csv"),
        "imaging": os.path.join(inputs, "imaging.csv"),
    }
    out = os.path.join(work, "out")
    argv = ["predict"]
    for flag, path in files.items():
        argv += ["--" + flag, path]
    return {"argv": argv + ["--out", out], "out": out, "files": files}, fits


def check_fit(plan, reference) -> bool:
    with open(os.path.join(plan["out"], "summary.txt")) as fh:
        return "converged: True" in fh.read().splitlines()


def check_cv(plan, reference) -> bool:
    with open(os.path.join(plan["out"], "cv_metrics.csv")) as fh:
        return any(line.startswith("multilevel,pooled,") for line in fh)


def reference_predictions(plan):
    """In-process ``predict`` on the reloaded model, the oracle for each CLI call."""
    f = plan["files"]
    params, variant = dataio.load_params(f["model"])
    record = preprocessing.load_scaler(f["scaler"])
    _, genetic = dataio.load_matrix_csv(f["genetic"])
    _, imaging = dataio.load_matrix_csv(f["imaging"])
    gs = dataio.load_group_file(f["groups"], record.n_genetic)
    return evaluation.predict(params, record, gs, genetic, imaging, variant=variant)


def check_predict(plan, reference) -> bool:
    table = np.loadtxt(os.path.join(plan["out"], "predictions.csv"), delimiter=",", skiprows=1, ndmin=2)
    probs, labels = reference
    return (
        table.shape == (probs.size, 3)
        and table[:, 1].tobytes() == probs.tobytes()
        and np.array_equal(table[:, 2], labels)
    )


@dataclass(frozen=True)
class Workload:
    """``setup(work, seed)`` writes the inputs and returns the plan for
    ``timed.py`` and the fits it ran; ``check(plan, reference)`` judges one
    call's outputs; ``reference(plan)``, if given, builds the oracle once."""

    why: str
    setup: object
    check: object
    reference: object = None


WORKLOADS = {
    "fit-full": Workload(
        "one large dense fit; margin GEMMs in the line search dominate, and it writes the 6.4 MB scaler",
        setup_fit_full, check_fit,
    ),
    "cv-small": Workload(
        "nested CV of 50 small fits; per-iteration Python overhead and iteration count dominate",
        setup_cv_small, check_cv,
    ),
    "predict-full": Workload(
        "back-to-back predict calls on a saved full-scale model; the solver is bypassed, parsing dominates",
        setup_predict_full, check_predict, reference_predictions,
    ),
}
