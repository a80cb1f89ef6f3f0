"""Centering and scaling of both modalities and their pairwise products.

Statistics are always estimated on training rows only and replayed on
held-out rows.  Genetic columns are standardized in original coordinates,
before any overlap expansion, so coefficient copies of a shared feature
inherit the same statistics.  Product features are formed from the
standardized marginal columns and then centered and scaled themselves;
their statistics are computed one imaging column at a time so the full
product matrix is never materialized.

A :class:`ScalingRecord` is saved as ``structprox-scaler v2`` text: after
the header, one tab-separated row per statistic vector, led by its tag:
``normalization``, then ``genetic_names`` (no fields without names),
``genetic_mean`` and ``genetic_scale``, the same three for ``imaging``,
then one ``cross_mean`` row per imaging feature and one ``cross_scale``
row per imaging feature.  Values carry 17 significant digits, so every
statistic loads back bit-identical.
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

_FORMAT_HEADER = "structprox-scaler v2"


_STATISTICS = (
    "genetic_mean", "genetic_scale",
    "imaging_mean", "imaging_scale",
    "cross_mean", "cross_scale",
)


class ScalingRecord:
    """Frozen per-column statistics of one training set.

    Cross-product statistics are stored per (imaging row, original genetic
    column); expanded copies of a shared genetic feature reuse the original
    column's entry.  Every statistic must be finite and every scale > 0;
    column names, when given, must not hold a tab, CR or LF.
    """

    def __init__(
        self,
        normalization,
        genetic_mean,
        genetic_scale,
        imaging_mean,
        imaging_scale,
        cross_mean,
        cross_scale,
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
        self.imaging_mean = np.asarray(imaging_mean, dtype=float)
        self.imaging_scale = np.asarray(imaging_scale, dtype=float)
        self.cross_mean = np.asarray(cross_mean, dtype=float)
        self.cross_scale = np.asarray(cross_scale, dtype=float)
        ng = self.genetic_mean.size
        ni = self.imaging_mean.size
        shapes = ((ng,), (ng,), (ni,), (ni,), (ni, ng), (ni, ng))
        for name, shape in zip(_STATISTICS, shapes):
            value = getattr(self, name)
            if value.shape != shape:
                raise ValueError(
                    "%s must have shape %r, got %r" % (name, shape, value.shape)
                )
            if not np.all(np.isfinite(value)):
                raise ValueError("%s holds a non-finite value" % name)
            if name.endswith("_scale") and np.any(value <= 0):
                raise ValueError("%s must be > 0" % name)
            value.setflags(write=False)
        self.genetic_names = None if genetic_names is None else tuple(genetic_names)
        self.imaging_names = None if imaging_names is None else tuple(imaging_names)
        for kind, count in (("genetic", ng), ("imaging", ni)):
            names = getattr(self, kind + "_names")
            if names is not None and len(names) != count:
                raise ValueError(
                    "%s_names holds %d names, expected %d" % (kind, len(names), count)
                )
            # the scaler file is tab-separated and read line by line
            for j, name in enumerate(names or ()):
                if any(c in name for c in "\t\r\n"):
                    raise ValueError(
                        "%s column %d name %r holds a tab or line break" % (kind, j, name)
                    )

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
                for name in _STATISTICS
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
    return mean, np.where(constant, 1.0, spread)


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
    g_mean, g_scale = _column_stats(d.genetic, normalization)
    i_mean, i_scale = _column_stats(d.imaging, normalization)
    zg = (d.genetic - g_mean) / g_scale
    zi = (d.imaging - i_mean) / i_scale
    ni, ng = d.n_imaging, d.n_genetic
    x_mean = np.empty((ni, ng))
    x_scale = np.empty((ni, ng))
    # One imaging column at a time keeps memory at O(N * n_genetic).  Freeing
    # `products` before the next one exists faults its pages in anew (2x time).
    for i in range(ni):
        products = zi[:, i : i + 1] * zg
        x_mean[i], x_scale[i] = _column_stats(products, normalization)
    return ScalingRecord(
        normalization,
        g_mean, g_scale,
        i_mean, i_scale,
        x_mean, x_scale,
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
    """Standardize, expand, and attach product statistics and the group
    layout for evaluation."""
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
        # take() returns C order; [:, idx] would return Fortran order
        cross_mean=record.cross_mean.take(idx, axis=1),
        cross_scale=record.cross_scale.take(idx, axis=1),
        groups=gs,
    )


def save_scaler(record: ScalingRecord, path) -> None:
    """Write a scaling record as ``structprox-scaler v2`` text."""

    def row(tag, fields):
        return "\t".join([tag, *fields]) + "\n"

    def values(tag, vector):
        return row(tag, ["%.17g" % v for v in vector.tolist()])

    with open(path, "w") as fh:
        fh.write(_FORMAT_HEADER + "\n")
        fh.write(row("normalization", [record.normalization]))
        for kind in ("genetic", "imaging"):
            fh.write(row(kind + "_names", getattr(record, kind + "_names") or ()))
            fh.write(values(kind + "_mean", getattr(record, kind + "_mean")))
            fh.write(values(kind + "_scale", getattr(record, kind + "_scale")))
        # one row per imaging feature, never the whole matrix as strings
        for tag in ("cross_mean", "cross_scale"):
            fh.writelines(values(tag, r) for r in getattr(record, tag))


def load_scaler(path) -> ScalingRecord:
    """Read a scaling record written by :func:`save_scaler`.

    Any departure from the v2 layout, a v1 file included, raises a
    ``ValueError`` that names the file, the line and the expected tag.
    """
    with open(path) as fh:
        lineno = 0

        def error(message):
            return ValueError("%s: line %d: %s" % (path, lineno, message))

        def fields(tag, count=None):
            """Fields after ``tag`` on the next line; ``count`` of them if given."""
            nonlocal lineno
            lineno += 1
            line = next(fh, None)
            if line is None:
                raise error("truncated, expected %s" % tag)
            found, *rest = line.rstrip("\n").split("\t")
            if found != tag:
                raise error("found %r, expected %s" % (found, tag))
            if count is not None and len(rest) != count:
                raise error("%s holds %d values, expected %d" % (tag, len(rest), count))
            return rest

        def floats(tag, count=None):
            text = fields(tag, count)
            try:
                return np.array(text, dtype=float)
            except ValueError:
                raise error("%s holds a non-numeric value" % tag) from None

        fields(_FORMAT_HEADER, 0)
        (normalization,) = fields("normalization", 1)
        g_names = fields("genetic_names") or None
        g_mean = floats("genetic_mean")
        g_scale = floats("genetic_scale", g_mean.size)
        i_names = fields("imaging_names") or None
        i_mean = floats("imaging_mean")
        i_scale = floats("imaging_scale", i_mean.size)
        ni, ng = i_mean.size, g_mean.size
        x_mean = np.reshape([floats("cross_mean", ng) for _ in range(ni)], (ni, ng))
        x_scale = np.reshape([floats("cross_scale", ng) for _ in range(ni)], (ni, ng))
        if next(fh, None) is not None:
            lineno += 1
            raise error("follows the last cross_scale row")
    try:
        return ScalingRecord(
            normalization,
            g_mean, g_scale,
            i_mean, i_scale,
            x_mean, x_scale,
            genetic_names=g_names,
            imaging_names=i_names,
        )
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
