"""Synthetic two-modality datasets with planted structure, plus the slow
reference tools used to validate the fast paths: a central finite
difference gradient and a high-precision solver run.

Genetic features are minor-allele counts in {0, 1, 2}, each feature's
minor-allele frequency drawn uniformly from [0.1, 0.5]; imaging features
are Gaussians with correlation 0.3 between every pair.  Labels are drawn
from the model probability at a planted sparse parameter set, with
optional label flips.  Everything is driven by one seeded generator, so a
spec maps to exactly one dataset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import dataio
from .core import (
    Dataset,
    GroupStructure,
    Hyperparameters,
    ParameterSet,
    _integer,
    flat_length,
)
from .objective import Design, margins, risk, sigmoid
from .solver import SolverFailure, fit

__all__ = [
    "SyntheticSpec",
    "SyntheticData",
    "build_groups",
    "generate",
    "write_files",
    "finite_difference_gradient",
    "reference_solve",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset.

    Groups of ``group_size`` consecutive genetic features are chained with
    ``overlap`` fraction shared between neighbours.  ``n_active`` groups
    carry planted genetic and interaction effects; effect sizes are the
    approximate norms of the planted blocks.
    """

    n_samples: int
    n_imaging: int
    n_groups: int
    group_size: int
    overlap: float = 0.0
    n_active: int = 1
    effect_interaction: float = 0.0
    effect_imaging: float = 0.0
    effect_genetic: float = 1.0
    intercept: float = 0.0
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "n_imaging", "n_groups", "group_size", "n_active"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n_samples < 1 or self.n_imaging < 1:
            raise ValueError("n_samples and n_imaging must be >= 1")
        if self.n_groups < 1 or self.group_size < 1:
            raise ValueError("n_groups and group_size must be >= 1")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must lie in [0, 1), got %r" % self.overlap)
        if self.group_stride < 1:
            raise ValueError(
                "overlap %r leaves no stride between groups of size %d"
                % (self.overlap, self.group_size)
            )
        if not 0 <= self.n_active <= self.n_groups:
            raise ValueError(
                "n_active must lie in [0, %d], got %d" % (self.n_groups, self.n_active)
            )
        if not 0.0 <= self.label_noise <= 0.5:
            raise ValueError("label_noise must lie in [0, 0.5]")
        for name in ("effect_interaction", "effect_imaging", "effect_genetic"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0" % name)

    @property
    def group_stride(self) -> int:
        return self.group_size - int(round(self.overlap * self.group_size))

    @property
    def n_genetic(self) -> int:
        return self.group_size + (self.n_groups - 1) * self.group_stride


@dataclass
class SyntheticData:
    """Generated dataset with its grouping and planted ground truth."""

    dataset: Dataset
    groups: GroupStructure
    truth: ParameterSet
    active_groups: np.ndarray


def build_groups(spec: SyntheticSpec) -> GroupStructure:
    """Chained groups of consecutive features covering every feature."""
    stride = spec.group_stride
    groups = [
        np.arange(l * stride, l * stride + spec.group_size)
        for l in range(spec.n_groups)
    ]
    names = ["gene%03d" % l for l in range(spec.n_groups)]
    return GroupStructure(groups, spec.n_genetic, names=names)


def generate(spec: SyntheticSpec) -> SyntheticData:
    """Draw one dataset from the spec.

    The planted decision values are formed on population-standardized
    features (so effect sizes are comparable across columns); labels are
    Bernoulli draws at the implied probabilities, then flipped with
    probability ``label_noise``.
    """
    rng = np.random.default_rng(spec.seed)
    gs = build_groups(spec)

    maf = rng.uniform(0.1, 0.5, spec.n_genetic)
    counts = rng.binomial(2, maf, size=(spec.n_samples, spec.n_genetic)).astype(float)
    shared = rng.standard_normal((spec.n_samples, 1))
    own = rng.standard_normal((spec.n_samples, spec.n_imaging))
    imaging = np.sqrt(0.3) * shared + np.sqrt(0.7) * own

    zg = (counts - 2.0 * maf) / np.sqrt(2.0 * maf * (1.0 - maf))

    active = np.sort(rng.choice(spec.n_groups, size=spec.n_active, replace=False))
    truth = ParameterSet.zeros(spec.n_imaging, gs.expanded_size)
    truth.intercept = spec.intercept
    for l in active:
        blk = gs.block(int(l))
        size = int(gs.sizes[l])
        if spec.effect_genetic > 0:
            truth.genetic[blk] = (
                spec.effect_genetic * rng.standard_normal(size) / np.sqrt(size)
            )
        if spec.effect_interaction > 0:
            n_rows = min(3, spec.n_imaging)
            rows = rng.choice(spec.n_imaging, size=n_rows, replace=False)
            truth.interaction[np.sort(rows), blk] = (
                spec.effect_interaction
                * rng.standard_normal((n_rows, size))
                / np.sqrt(n_rows * size)
            )
    if spec.effect_imaging > 0:
        truth.imaging = (
            spec.effect_imaging
            * rng.standard_normal(spec.n_imaging)
            / np.sqrt(spec.n_imaging)
        )

    design = Design.from_dataset(Dataset(zg, imaging, np.zeros(spec.n_samples, dtype=int)), gs)
    m = margins(truth, design)
    labels = rng.binomial(1, sigmoid(m))
    if spec.label_noise > 0:
        flips = rng.random(spec.n_samples) < spec.label_noise
        labels = labels ^ flips
    return SyntheticData(
        dataset=Dataset(counts, imaging, labels),
        groups=gs,
        truth=truth,
        active_groups=active,
    )


def write_files(data: SyntheticData, out_dir) -> None:
    """Write the dataset in the formats the command line tool reads.

    Produces genetic.csv, imaging.csv, labels.csv, groups.tsv, and the
    planted truth as truth_params.txt and truth_groups.txt.
    """
    os.makedirs(out_dir, exist_ok=True)
    d = data.dataset
    g_names = ["g%04d" % j for j in range(d.n_genetic)]
    i_names = ["i%03d" % j for j in range(d.n_imaging)]
    dataio.save_matrix_csv(os.path.join(out_dir, "genetic.csv"), g_names, d.genetic)
    dataio.save_matrix_csv(os.path.join(out_dir, "imaging.csv"), i_names, d.imaging)
    dataio.save_labels_csv(os.path.join(out_dir, "labels.csv"), d.labels)
    dataio.save_group_file(os.path.join(out_dir, "groups.tsv"), data.groups)
    dataio.save_params(os.path.join(out_dir, "truth_params.txt"), data.truth)
    with open(os.path.join(out_dir, "truth_groups.txt"), "w") as fh:
        for l in data.active_groups:
            fh.write("%s\n" % data.groups.names[int(l)])


def finite_difference_gradient(
    p: ParameterSet,
    design: Design,
    step: float = 1e-6,
    variant: str = "multilevel",
) -> np.ndarray:
    """Central finite differences of the empirical risk, coordinatewise.

    Independent of the analytic gradient path: each coordinate perturbs
    the flat vector and re-evaluates the risk twice.
    """
    if step <= 0:
        raise ValueError("step must be > 0, got %r" % step)
    w0 = p.flat()
    n_imaging, expanded = p.interaction.shape
    out = np.empty(w0.size)
    for j in range(w0.size):
        wp = w0.copy()
        wp[j] += step
        wm = w0.copy()
        wm[j] -= step
        rp = risk(ParameterSet.from_flat(wp, n_imaging, expanded), design, variant)
        rm = risk(ParameterSet.from_flat(wm, n_imaging, expanded), design, variant)
        out[j] = (rp - rm) / (2.0 * step)
    return out


def reference_solve(design: Design, gs: GroupStructure, h: Hyperparameters):
    """High-precision solver run used as the agreement oracle.

    Same iteration as :func:`structprox.solver.fit` but with tolerance
    1e-10 and a 100000-iteration cap; refuses problems with more than 5000
    flat parameters and raises if the cap is reached before convergence.
    Returns ``(params, state)``.
    """
    n_params = flat_length(design.n_imaging, design.expanded_size)
    if n_params > 5000:
        raise ValueError(
            "reference solver is for small problems: %d parameters > 5000" % n_params
        )
    h_ref = replace(h, tol=1e-10, max_iters=100000)
    params, state = fit(design, gs, h_ref)
    if not state.converged:
        raise SolverFailure(
            "reference solve did not converge within %d iterations" % h_ref.max_iters
        )
    return params, state
