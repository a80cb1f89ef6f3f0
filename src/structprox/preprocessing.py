"""Centering and scaling of both modalities and their pairwise products.

Statistics are always estimated on training rows only and replayed on
held-out rows.  Genetic columns are standardized in original coordinates,
before any overlap expansion, so coefficient copies of a shared feature
inherit the same statistics.  Product features ``p`` are formed from the
standardized marginal columns ``zi`` and ``zg`` and then centered and
scaled themselves by ``mean = zi.T @ zg / N`` and ``var = (zi**2).T @
(zg**2) / N - mean**2``, so the product matrix is never materialized.  A
product with ``var <= mean**2``, where that difference can cancel every
digit, is recomputed two-pass from its own column.

A :class:`ScalingRecord` is saved as ``structprox-scaler v3`` text: after
the header, one tab-separated row per statistic vector, led by its tag:
``normalization``, then ``genetic_names`` (no fields without names),
``genetic_mean`` and ``genetic_scale``, the same three for ``imaging``,
then one ``cross_mean`` row per imaging feature and one ``cross_scale``
row per imaging feature.  A statistic row holds one field, the
little-endian IEEE-754 bytes of its float64 vector as 16 lowercase hex
digits per value, so every statistic loads back bit-identical and loading
parses no decimals.  A record that keeps the fit's group layout ends with
one ``expansion_index`` row, one decimal field per expanded coordinate; a
file without it loads with no layout, which is then left unchecked.
Files of the v1 and v2 layouts are rejected; refit the model to write a
v3 file.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, GroupStructure, _indices
from .dataio import _read_lines, _write_lines
from .objective import Design

__all__ = [
    "NORMALIZATION_MODES",
    "ScalingRecord",
    "fit_scaler",
    "make_design",
    "save_scaler",
    "load_scaler",
]

NORMALIZATION_MODES = ("sd", "unit-norm")

# Columns whose raw spread falls below this (relative to the mean size) are
# treated as constant: they are centered but their scale is pinned at 1.
_CONSTANT_TOL = 1e-12

_FORMAT_HEADER = "structprox-scaler v3"


_STATISTICS = (
    "genetic_mean", "genetic_scale",
    "imaging_mean", "imaging_scale",
    "cross_mean", "cross_scale",
)


def _check_normalization(normalization) -> None:
    if normalization not in NORMALIZATION_MODES:
        raise ValueError("normalization must be one of %r, got %r"
                         % (NORMALIZATION_MODES, normalization))


class ScalingRecord:
    """Frozen per-column statistics of one training set.

    Cross-product statistics are stored per (imaging row, original genetic
    column); expanded copies of a shared genetic feature reuse the original
    column's entry.  Every statistic must be finite and every scale > 0;
    column names, when given, must not hold a tab, CR or LF.  Statistics
    are stored as read-only views: a float64 array given is aliased, not
    copied, and stays writeable to its owner.  ``expansion_index``, when
    given, is the ``GroupStructure.expansion_index`` of the fit, which
    :meth:`check_groups` holds later groups to.
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
        expansion_index=None,
    ):
        _check_normalization(normalization)
        self.normalization = normalization
        self.genetic_mean = np.asarray(genetic_mean, dtype=float).view()
        self.genetic_scale = np.asarray(genetic_scale, dtype=float).view()
        self.imaging_mean = np.asarray(imaging_mean, dtype=float).view()
        self.imaging_scale = np.asarray(imaging_scale, dtype=float).view()
        self.cross_mean = np.asarray(cross_mean, dtype=float).view()
        self.cross_scale = np.asarray(cross_scale, dtype=float).view()
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
        if expansion_index is not None:
            expansion_index = _indices("expansion_index", expansion_index, ng).view()
            expansion_index.setflags(write=False)
        self.expansion_index = expansion_index

    @property
    def n_genetic(self) -> int:
        return self.genetic_mean.size

    @property
    def n_imaging(self) -> int:
        return self.imaging_mean.size

    def check_groups(self, gs: GroupStructure) -> None:
        """Raise ``ValueError`` unless ``gs`` covers the record's genetic
        columns and, if the record keeps the fit's layout, expands them as
        the fit's groups did.  Names, weights and group boundaries are not
        compared: they leave the expanded columns as they are."""
        if gs.n_features != self.n_genetic:
            raise ValueError("groups cover %d features, scaler was fit on %d"
                             % (gs.n_features, self.n_genetic))
        if self.expansion_index is not None and not np.array_equal(
            gs.expansion_index, self.expansion_index
        ):
            raise ValueError("groups expand the genetic columns differently from the "
                             "groups of the fit")


def _column_stats(X: np.ndarray, normalization: str):
    """Two-pass mean and scale of every column; constants get scale 1."""
    mean = X.mean(axis=0)
    squares = X - mean
    np.square(squares, out=squares)
    reduce = np.mean if normalization == "sd" else np.sum
    return mean, _pin_constants(np.sqrt(reduce(squares, axis=0)), mean)


def _pin_constants(spread, mean):
    """``spread`` with the columns it shows to be constant set to 1."""
    constant = spread <= _CONSTANT_TOL * np.maximum(1.0, np.abs(mean))
    return np.where(constant, 1.0, spread)


def fit_scaler(
    d: Dataset,
    normalization: str = "sd",
    genetic_names=None,
    imaging_names=None,
    expansion_index=None,
) -> ScalingRecord:
    """Estimate centering and scaling statistics on a training set.

    With ``normalization="sd"`` the scale is the population standard
    deviation (1/N denominator); with ``"unit-norm"`` it is the Euclidean
    norm of the centered column.  Needs at least two samples.  The names
    and ``expansion_index`` are kept on the record as given.

    The products' variances are ``E[p**2] - mean**2`` from two matrix
    products (see the module docstring), which loses at most one bit where
    ``var > mean**2``.  Elsewhere it can cancel every digit and give a
    near-constant product a scale of rounding noise instead of 1, so those
    products are recomputed two-pass on their own.
    """
    _check_normalization(normalization)
    n = d.n_samples
    if n < 2:
        raise ValueError("scaling needs at least 2 samples, got %d" % n)
    g_mean, g_scale = _column_stats(d.genetic, normalization)
    i_mean, i_scale = _column_stats(d.imaging, normalization)
    zg = (d.genetic - g_mean) / g_scale
    zi = (d.imaging - i_mean) / i_scale
    x_mean = zi.T @ zg / n
    mean_sq = np.square(x_mean)
    # zg is squared in place; the recompute below re-forms the columns it needs
    x_var = np.square(zi).T @ np.square(zg, out=zg) / n - mean_sq
    redo = x_var <= mean_sq  # negative x_var only here
    spread = np.sqrt(np.maximum(x_var, 0.0) * (n if normalization == "unit-norm" else 1))
    x_scale = _pin_constants(spread, x_mean)
    for j in np.flatnonzero(redo.any(axis=0)):
        rows = np.flatnonzero(redo[:, j])
        products = zi[:, rows] * ((d.genetic[:, j] - g_mean[j]) / g_scale[j])[:, None]
        x_mean[rows, j], x_scale[rows, j] = _column_stats(products, normalization)
    return ScalingRecord(
        normalization,
        g_mean, g_scale,
        i_mean, i_scale,
        x_mean, x_scale,
        genetic_names=genetic_names,
        imaging_names=imaging_names,
        expansion_index=expansion_index,
    )


def make_design(d: Dataset, gs: GroupStructure, record: ScalingRecord) -> Design:
    """The design of ``d`` under ``gs``, standardized by ``record``."""
    return Design(d.imaging, d.genetic, d.labels, gs, record)


def save_scaler(record: ScalingRecord, path) -> None:
    """Write a scaling record as ``structprox-scaler v3`` text, each value as float64 hex."""

    def values(tag, vector):
        return [tag, vector.astype("<f8").tobytes().hex()]

    def rows():  # the fields of each line, its tag first
        yield [_FORMAT_HEADER]
        yield ["normalization", record.normalization]
        for kind in ("genetic", "imaging"):
            yield [kind + "_names", *(getattr(record, kind + "_names") or ())]
            yield values(kind + "_mean", getattr(record, kind + "_mean"))
            yield values(kind + "_scale", getattr(record, kind + "_scale"))
        for tag in ("cross_mean", "cross_scale"):
            yield from (values(tag, r) for r in getattr(record, tag))
        if record.expansion_index is not None:
            yield ["expansion_index", *map(str, record.expansion_index)]

    _write_lines(path, map("\t".join, rows()))


def load_scaler(path) -> ScalingRecord:
    """Read a scaling record written by :func:`save_scaler`.

    Any departure from the v3 layout, a v1 or v2 file included, raises a
    ``ValueError`` that names the file, the line and the expected tag; a
    model saved in an older layout must be refit.  The text is read
    through ``dataio._read_text`` and split at LF only.
    """
    lines = _read_lines(path)
    lineno = 0

    def error(message):
        return ValueError("%s: line %d: %s" % (path, lineno, message))

    def fields(tag, count=None):
        """Fields after ``tag`` on the next line; ``count`` of them if given."""
        nonlocal lineno
        lineno += 1
        if lineno > len(lines):
            raise error("truncated, expected %s" % tag)
        found, *rest = lines[lineno - 1].split("\t")
        if found != tag:
            raise error("found %r, expected %s" % (found, tag))
        if count is not None and len(rest) != count:
            raise error("%s holds %d fields, expected %d" % (tag, len(rest), count))
        return rest

    def floats(tag, count=None):
        (text,) = fields(tag, 1)
        size = len(text) // 16 if count is None else count
        if len(text) != 16 * size:
            raise error("%s holds %d hex digits, expected %d" % (tag, len(text), 16 * size))
        try:  # fromhex skips blanks, so a field holding one decodes short
            values = np.frombuffer(bytes.fromhex(text), "<f8")
        except ValueError:
            values = ()
        if len(values) != size:
            raise error("%s holds a character that is not a hex digit" % tag)
        return values

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
    # one optional expansion_index row may follow: files written without
    # the fit's group layout end here
    index = None
    if lineno < len(lines):
        lineno += 1
        tag, *rest = lines[lineno - 1].split("\t")
        if tag != "expansion_index":
            raise error("follows the last cross_scale row")
        try:
            index = np.array(rest, dtype=np.intp)
        except (ValueError, OverflowError):
            raise error("expansion_index holds a field that is not an index") from None
    if lineno < len(lines):
        lineno += 1
        raise error("follows the last expansion_index row")
    try:
        return ScalingRecord(normalization, g_mean, g_scale, i_mean, i_scale, x_mean, x_scale,
                             genetic_names=g_names, imaging_names=i_names,
                             expansion_index=index)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
