"""Centering and scaling of both modalities and their pairwise products.

Statistics are always estimated on training rows only and replayed on
held-out rows.  Genetic columns are standardized in original coordinates,
before any overlap expansion, so coefficient copies of a shared feature
inherit the same statistics.  Product features are formed from the
standardized marginal columns and then centered and scaled themselves;
their statistics are computed one imaging column at a time so the full
product matrix is never materialized.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, GroupStructure
from .objective import Design

__all__ = [
    "NORMALIZATION_MODES",
    "ScalingRecord",
    "fit_scaler",
    "transform_features",
    "make_design",
    "save_scaler",
    "load_scaler",
]

NORMALIZATION_MODES = ("sd", "unit-norm")

# Columns whose raw spread falls below this (relative to the mean size) are
# treated as constant: they are centered but their scale is pinned at 1.
_CONSTANT_TOL = 1e-12

_FORMAT_HEADER = "structprox-scaler v1"


class ScalingRecord:
    """Frozen per-column statistics of one training set.

    Cross-product statistics are stored per (imaging row, original genetic
    column); expanded copies of a shared genetic feature reuse the original
    column's entry.
    """

    def __init__(
        self,
        normalization,
        genetic_mean,
        genetic_scale,
        genetic_constant,
        imaging_mean,
        imaging_scale,
        imaging_constant,
        cross_mean,
        cross_scale,
        cross_constant,
        genetic_names=None,
        imaging_names=None,
    ):
        if normalization not in NORMALIZATION_MODES:
            raise ValueError(
                "normalization must be one of %r, got %r"
                % (NORMALIZATION_MODES, normalization)
            )
        self.normalization = normalization
        self.genetic_mean = np.asarray(genetic_mean, dtype=float)
        self.genetic_scale = np.asarray(genetic_scale, dtype=float)
        self.genetic_constant = np.asarray(genetic_constant, dtype=bool)
        self.imaging_mean = np.asarray(imaging_mean, dtype=float)
        self.imaging_scale = np.asarray(imaging_scale, dtype=float)
        self.imaging_constant = np.asarray(imaging_constant, dtype=bool)
        self.cross_mean = np.asarray(cross_mean, dtype=float)
        self.cross_scale = np.asarray(cross_scale, dtype=float)
        self.cross_constant = np.asarray(cross_constant, dtype=bool)
        ng = self.genetic_mean.size
        ni = self.imaging_mean.size
        if self.cross_mean.shape != (ni, ng):
            raise ValueError(
                "cross statistics must have shape (%d, %d), got %r"
                % (ni, ng, self.cross_mean.shape)
            )
        if np.any(self.genetic_scale <= 0) or np.any(self.imaging_scale <= 0) or np.any(
            self.cross_scale <= 0
        ):
            raise ValueError("scales must be > 0")
        self.genetic_names = None if genetic_names is None else tuple(genetic_names)
        self.imaging_names = None if imaging_names is None else tuple(imaging_names)
        for arr in (
            self.genetic_mean, self.genetic_scale, self.genetic_constant,
            self.imaging_mean, self.imaging_scale, self.imaging_constant,
            self.cross_mean, self.cross_scale, self.cross_constant,
        ):
            arr.setflags(write=False)

    @property
    def n_genetic(self) -> int:
        return self.genetic_mean.size

    @property
    def n_imaging(self) -> int:
        return self.imaging_mean.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalingRecord):
            return NotImplemented
        return (
            self.normalization == other.normalization
            and self.genetic_names == other.genetic_names
            and self.imaging_names == other.imaging_names
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in (
                    "genetic_mean", "genetic_scale", "genetic_constant",
                    "imaging_mean", "imaging_scale", "imaging_constant",
                    "cross_mean", "cross_scale", "cross_constant",
                )
            )
        )


def _column_stats(X: np.ndarray, normalization: str):
    """Two-pass mean and scale of every column; constants get scale 1."""
    mean = X.mean(axis=0)
    centered = X - mean
    if normalization == "sd":
        spread = np.sqrt(np.mean(centered**2, axis=0))
    else:
        spread = np.sqrt(np.sum(centered**2, axis=0))
    constant = spread <= _CONSTANT_TOL * np.maximum(1.0, np.abs(mean))
    scale = np.where(constant, 1.0, spread)
    return mean, scale, constant


def fit_scaler(
    d: Dataset,
    normalization: str = "sd",
    genetic_names=None,
    imaging_names=None,
) -> ScalingRecord:
    """Estimate centering and scaling statistics on a training set.

    With ``normalization="sd"`` the scale is the population standard
    deviation (1/N denominator); with ``"unit-norm"`` it is the Euclidean
    norm of the centered column.  Needs at least two samples.
    """
    if normalization not in NORMALIZATION_MODES:
        raise ValueError(
            "normalization must be one of %r, got %r"
            % (NORMALIZATION_MODES, normalization)
        )
    if d.n_samples < 2:
        raise ValueError(
            "scaling needs at least 2 samples, got %d" % d.n_samples
        )
    g_mean, g_scale, g_const = _column_stats(d.genetic, normalization)
    i_mean, i_scale, i_const = _column_stats(d.imaging, normalization)
    zg = (d.genetic - g_mean) / g_scale
    zi = (d.imaging - i_mean) / i_scale
    ni, ng = d.n_imaging, d.n_genetic
    x_mean = np.empty((ni, ng))
    x_scale = np.empty((ni, ng))
    x_const = np.empty((ni, ng), dtype=bool)
    # One imaging column at a time keeps memory at O(N * n_genetic).
    for i in range(ni):
        products = zi[:, i : i + 1] * zg
        m, s, c = _column_stats(products, normalization)
        x_mean[i] = m
        x_scale[i] = s
        x_const[i] = c
    return ScalingRecord(
        normalization,
        g_mean, g_scale, g_const,
        i_mean, i_scale, i_const,
        x_mean, x_scale, x_const,
        genetic_names=genetic_names,
        imaging_names=imaging_names,
    )


def transform_features(record: ScalingRecord, genetic, imaging):
    """Apply stored centering and scaling to raw feature matrices."""
    genetic = np.asarray(genetic, dtype=float)
    imaging = np.asarray(imaging, dtype=float)
    if genetic.ndim != 2 or genetic.shape[1] != record.n_genetic:
        raise ValueError(
            "genetic matrix has shape %r, scaler expects %d columns"
            % (genetic.shape, record.n_genetic)
        )
    if imaging.ndim != 2 or imaging.shape[1] != record.n_imaging:
        raise ValueError(
            "imaging matrix has shape %r, scaler expects %d columns"
            % (imaging.shape, record.n_imaging)
        )
    zg = (genetic - record.genetic_mean) / record.genetic_scale
    zi = (imaging - record.imaging_mean) / record.imaging_scale
    return zg, zi


def make_design(d: Dataset, gs: GroupStructure, record: ScalingRecord) -> Design:
    """Standardize, expand, and attach product statistics for evaluation."""
    if gs.n_features != record.n_genetic:
        raise ValueError(
            "groups cover %d features, scaler was fit on %d"
            % (gs.n_features, record.n_genetic)
        )
    zg, zi = transform_features(record, d.genetic, d.imaging)
    idx = gs.expansion_index
    return Design(
        zi,
        zg[:, idx],
        d.labels,
        cross_mean=record.cross_mean[:, idx],
        cross_scale=record.cross_scale[:, idx],
    )


def save_scaler(record: ScalingRecord, path) -> None:
    """Write a scaling record as versioned tab-separated text."""
    lines = [_FORMAT_HEADER, "normalization\t%s" % record.normalization]
    lines.append("genetic\t%d" % record.n_genetic)
    g_names = record.genetic_names or [""] * record.n_genetic
    for j in range(record.n_genetic):
        lines.append(
            "%d\t%.17g\t%.17g\t%d\t%s"
            % (
                j,
                record.genetic_mean[j],
                record.genetic_scale[j],
                int(record.genetic_constant[j]),
                g_names[j],
            )
        )
    lines.append("imaging\t%d" % record.n_imaging)
    i_names = record.imaging_names or [""] * record.n_imaging
    for j in range(record.n_imaging):
        lines.append(
            "%d\t%.17g\t%.17g\t%d\t%s"
            % (
                j,
                record.imaging_mean[j],
                record.imaging_scale[j],
                int(record.imaging_constant[j]),
                i_names[j],
            )
        )
    lines.append("cross\t%d\t%d" % (record.n_imaging, record.n_genetic))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        # row by row, not as one list of n_imaging * n_genetic strings
        for i in range(record.n_imaging):
            fh.writelines(
                "%d\t%d\t%.17g\t%.17g\t%d\n"
                % (
                    i,
                    j,
                    record.cross_mean[i, j],
                    record.cross_scale[i, j],
                    int(record.cross_constant[i, j]),
                )
                for j in range(record.n_genetic)
            )


def load_scaler(path) -> ScalingRecord:
    """Read a scaling record written by :func:`save_scaler`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _FORMAT_HEADER:
        raise ValueError("%s: not a scaler file (bad header line)" % path)
    pos = 1

    def fields(expected: int, context: str):
        nonlocal pos
        if pos >= len(lines):
            raise ValueError("%s: truncated while reading %s" % (path, context))
        parts = lines[pos].split("\t")
        if len(parts) < expected:
            raise ValueError(
                "%s: line %d has %d fields, expected %d (%s)"
                % (path, pos + 1, len(parts), expected, context)
            )
        pos += 1
        return parts

    parts = fields(2, "normalization")
    if parts[0] != "normalization":
        raise ValueError("%s: expected normalization line" % path)
    normalization = parts[1]

    def read_block(tag: str):
        parts = fields(2, tag)
        if parts[0] != tag:
            raise ValueError("%s: expected %s section" % (path, tag))
        count = int(parts[1])
        mean = np.empty(count)
        scale = np.empty(count)
        const = np.empty(count, dtype=bool)
        names = []
        for j in range(count):
            row = fields(4, "%s column %d" % (tag, j))
            if int(row[0]) != j:
                raise ValueError(
                    "%s: %s column %d is out of order" % (path, tag, j)
                )
            mean[j] = float(row[1])
            scale[j] = float(row[2])
            const[j] = bool(int(row[3]))
            names.append(row[4] if len(row) > 4 else "")
        if all(n == "" for n in names):
            names = None
        return mean, scale, const, names

    g_mean, g_scale, g_const, g_names = read_block("genetic")
    i_mean, i_scale, i_const, i_names = read_block("imaging")

    parts = fields(3, "cross")
    if parts[0] != "cross":
        raise ValueError("%s: expected cross section" % path)
    ni, ng = int(parts[1]), int(parts[2])
    if ni != i_mean.size or ng != g_mean.size:
        raise ValueError(
            "%s: cross section is %dx%d but columns are %dx%d"
            % (path, ni, ng, i_mean.size, g_mean.size)
        )
    x_mean = np.empty((ni, ng))
    x_scale = np.empty((ni, ng))
    x_const = np.empty((ni, ng), dtype=bool)
    for i in range(ni):
        for j in range(ng):
            row = fields(5, "cross entry (%d, %d)" % (i, j))
            if int(row[0]) != i or int(row[1]) != j:
                raise ValueError(
                    "%s: cross entry (%d, %d) is out of order" % (path, i, j)
                )
            x_mean[i, j] = float(row[2])
            x_scale[i, j] = float(row[3])
            x_const[i, j] = bool(int(row[4]))
    return ScalingRecord(
        normalization,
        g_mean, g_scale, g_const,
        i_mean, i_scale, i_const,
        x_mean, x_scale, x_const,
        genetic_names=g_names,
        imaging_names=i_names,
    )
