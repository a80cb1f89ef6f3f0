"""Core domain types: overlapping feature groups, two-modality datasets,
model parameters, and penalty settings.

``GroupStructure`` owns the overlap layout: ``expansion_index`` lists the
original genetic column behind each expanded coordinate, and the
objective's ``Design`` applies it to the genetic columns.

``ParameterSet`` is the one place that knows the parameter layout: a single
float64 buffer holding the row-major interaction matrix, the imaging
coefficients, the expanded genetic coefficients and the intercept, with
each block exposed as a view.  The objective fills its gradient and the
solver writes its proximal steps through these views, so the flat vector
and the blocks are never copied into one another."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

__all__ = [
    "VARIANTS",
    "GroupStructure",
    "Dataset",
    "ParameterSet",
    "Hyperparameters",
    "flat_length",
]

# the blocks each variant holds at zero, one row per variant
_PINNED_BLOCKS = {
    "multilevel": (), "additive": ("interaction",), "multiplicative": ("imaging", "genetic"),
}
VARIANTS = tuple(_PINNED_BLOCKS)


def _check_variant_name(variant) -> None:
    if variant not in VARIANTS:
        raise ValueError("variant must be one of %r, got %r" % (VARIANTS, variant))


def _integer(name: str, value) -> int:
    """``value`` as an int; raise unless it is integral (3.0 and numpy integers pass)."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):  # not a number, NaN, infinite
        pass
    raise ValueError("%s must be an integer, got %r" % (name, value))


def _numeric(name: str, values) -> np.ndarray:
    """``values`` as an array; raise unless its dtype is bool, int, uint or float."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":  # strings are not parsed, nor complex values cast
        raise ValueError("%s must be numeric, got %s values" % (name, arr.dtype))
    return arr


def _binary_labels(name: str, values) -> np.ndarray:
    """``values`` as ``intp``; raise unless its dtype is numeric and every value is 0 or 1."""
    arr = _numeric(name, values)
    bad = (arr != 0) & (arr != 1)
    if bad.any():
        raise ValueError("%s must be 0 or 1, got %r" % (name, arr[bad][0].item()))
    return arr.astype(np.intp)


def _indices(name: str, values, bound: int) -> np.ndarray:
    """``values`` as a non-empty 1-D ``intp`` array of indices in ``[0, bound)``
    (an ``intp`` array is not copied); integral floats pass."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iuf":  # a mask, strings, complex or objects
        raise ValueError("%s must hold indices, got %s values" % (name, raw.dtype))
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("%s must be a non-empty 1-D list, got shape %r" % (name, raw.shape))
    if raw.dtype.kind == "f":
        fractional = ~np.isfinite(raw) | (raw != np.floor(raw))
        if fractional.any():
            raise ValueError("%s holds index %r, which is not an integer"
                             % (name, float(raw[fractional][0])))
    outside = (raw < 0) | (raw >= bound)
    if outside.any():
        raise ValueError("%s holds index %d outside [0, %d)" % (name, raw[outside][0], bound))
    return np.asarray(raw, dtype=np.intp)


class GroupStructure:
    """Grouping of the genetic features into possibly overlapping blocks.

    Expanded coordinates concatenate one block per group, so a feature
    belonging to several groups owns one coefficient per membership.
    Within the expanded vector the block of group ``l`` occupies
    ``offsets[l] : offsets[l] + sizes[l]``.

    Parameters
    ----------
    groups : sequence of index sequences
        Original 0-based feature indices of each group, as integers or
        integral floats in ``range(n_features)``; a mask or strings are
        rejected.  Every group must be non-empty and free of internal
        duplicates, and every feature must appear in at least one group.
    n_features : int
        Number of original genetic features.
    weights : array_like, optional
        Positive per-group penalty weights.  Defaults to sqrt(group size).
    names : sequence of str, optional
        Distinct, non-empty report labels a group file can hold: no ``,``,
        ``;``, tab, line break, leading ``#`` or surrounding blanks;
        ``group0000`` by default.

    Index and weight arrays are kept as read-only views: an ``intp`` index
    array or a float64 weight array given is aliased, not copied.
    """

    def __init__(self, groups, n_features, weights=None, names=None):
        n_features = _integer("n_features", n_features)
        if n_features < 1:
            raise ValueError("n_features must be >= 1, got %d" % n_features)
        if len(groups) == 0:
            raise ValueError("at least one group is required")
        index_sets = []
        for l, grp in enumerate(groups):
            idx = _indices("group %d" % l, grp, n_features).view()
            if np.unique(idx).size != idx.size:
                raise ValueError("group %d lists a feature index twice" % l)
            idx.setflags(write=False)
            index_sets.append(idx)

        expansion_index = np.concatenate(index_sets)
        missing = np.flatnonzero(np.bincount(expansion_index, minlength=n_features) == 0)
        if missing.size:
            raise ValueError(
                "feature %d belongs to no group; every feature must be covered" % missing[0]
            )

        sizes = np.array([idx.size for idx in index_sets], dtype=np.intp)
        if weights is None:
            weights = np.sqrt(sizes.astype(float))
        else:
            weights = np.asarray(_numeric("group weights", weights), dtype=float).view()
            if weights.shape != (len(index_sets),):
                raise ValueError(
                    "expected %d group weights, got shape %r"
                    % (len(index_sets), weights.shape)
                )
            if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
                raise ValueError("group weights must be finite and > 0")
        if names is None:
            names = tuple("group%04d" % l for l in range(len(index_sets)))
        else:
            if len(names) != len(index_sets):
                raise ValueError(
                    "expected %d group names, got %d" % (len(index_sets), len(names))
                )
            names = tuple(str(n) for n in names)
            first = {}  # index of each name seen so far
            for l, name in enumerate(names):
                if not name:
                    raise ValueError("group %d name is empty" % l)
                if "," in name or ";" in name:
                    raise ValueError("group %d name %r holds ',' or ';'" % (l, name))
                if "\t" in name or "\r" in name or "\n" in name:
                    raise ValueError("group %d name %r holds a tab or line break" % (l, name))
                if name != name.strip():
                    raise ValueError("group %d name %r has leading or trailing blanks" % (l, name))
                if name.startswith("#"):
                    raise ValueError("group %d name %r starts with '#'" % (l, name))
                if name in first:
                    raise ValueError("groups %d and %d are both named %r" % (first[name], l, name))
                first[name] = l

        self.groups = tuple(index_sets)
        self.n_features = n_features
        self.sizes = sizes
        self.offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
        self.expanded_size = int(sizes.sum())
        self.expansion_index = expansion_index
        self.weights = weights
        self.names = names
        for arr in (self.sizes, self.offsets, self.expansion_index, self.weights):
            arr.setflags(write=False)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def block(self, l: int) -> slice:
        """Slice of group ``l`` in expanded coordinates."""
        l = _integer("l", l)
        if not 0 <= l < self.n_groups:
            raise ValueError("group index %d outside [0, %d)" % (l, self.n_groups))
        start = int(self.offsets[l])
        return slice(start, start + int(self.sizes[l]))

    def __repr__(self) -> str:
        return "GroupStructure(n_groups=%d, n_features=%d, expanded_size=%d)" % (
            self.n_groups,
            self.n_features,
            self.expanded_size,
        )


class Dataset:
    """Paired genetic and imaging observations with binary labels.

    Feature matrices must be bool, int, uint or float (strings are not
    parsed) and finite (missing data is rejected); they are stored as
    float64 with one row per sample.  Labels of those dtypes must each be
    0 or 1 and are stored as ``intp``.
    The matrices are kept as read-only views: a float64 matrix given is
    aliased, not copied, and stays writeable to its owner.
    """

    def __init__(self, genetic, imaging, labels):
        genetic = np.asarray(_numeric("genetic matrix", genetic), dtype=float).view()
        imaging = np.asarray(_numeric("imaging matrix", imaging), dtype=float).view()
        labels = _binary_labels("labels", labels)
        if genetic.ndim != 2 or imaging.ndim != 2:
            raise ValueError(
                "feature matrices must be 2-D, got genetic %r and imaging %r"
                % (genetic.shape, imaging.shape)
            )
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D, got shape %r" % (labels.shape,))
        n = genetic.shape[0]
        if n < 1:
            raise ValueError("dataset needs at least one sample")
        if imaging.shape[0] != n or labels.shape[0] != n:
            raise ValueError(
                "row counts disagree: genetic %d, imaging %d, labels %d"
                % (n, imaging.shape[0], labels.shape[0])
            )
        if not np.all(np.isfinite(genetic)) or not np.all(np.isfinite(imaging)):
            raise ValueError("feature matrices contain NaN or infinite entries")
        genetic.setflags(write=False)
        imaging.setflags(write=False)
        labels.setflags(write=False)
        self.genetic = genetic
        self.imaging = imaging
        self.labels = labels

    @property
    def n_samples(self) -> int:
        return self.genetic.shape[0]

    @property
    def n_genetic(self) -> int:
        return self.genetic.shape[1]

    @property
    def n_imaging(self) -> int:
        return self.imaging.shape[1]

    def subset(self, rows) -> "Dataset":
        """New dataset restricted to the given row indices.

        ``rows`` are integers or integral floats in ``[0, n_samples)`` and
        may repeat; a negative index is rejected, not counted from the end.
        """
        index = _indices("rows", rows, self.n_samples)
        return Dataset(self.genetic[index], self.imaging[index], self.labels[index])

    def __repr__(self) -> str:
        return "Dataset(n_samples=%d, n_genetic=%d, n_imaging=%d)" % (
            self.n_samples,
            self.n_genetic,
            self.n_imaging,
        )


def _block(name: str, doc: str) -> property:
    """A parameter block: reading gives the view into the buffer, assigning
    copies new values of the same shape into it."""
    slot = "_" + name

    def set(self, value) -> None:
        view = getattr(self, slot)
        if value is view:
            # `p.genetic *= 2` hands back the view it already wrote to
            return
        value = np.asarray(_numeric(name, value), dtype=float)
        if value.shape != view.shape:
            raise ValueError(
                "%s must have shape %r, got %r" % (name, view.shape, value.shape)
            )
        view[...] = value

    return property(attrgetter(slot), set, doc=doc)


class ParameterSet:
    """Model parameters in one contiguous float64 buffer.

    The buffer holds, in order, the row-major (n_imaging, expanded_size)
    ``interaction`` matrix coupling the two modalities, the ``imaging``
    and ``genetic`` marginal coefficient vectors (genetic in expanded
    coordinates), and the scalar ``intercept``.  The three array
    attributes are views into the buffer: writing their entries changes
    :meth:`flat`, and assigning one of them copies the new values into the
    buffer rather than rebinding it.
    """

    __slots__ = ("_flat", "_interaction", "_imaging", "_genetic")

    def __init__(self, interaction, imaging, genetic, intercept):
        # The block setters check every shape against the buffer's layout.
        n_imaging, expanded_size = np.size(imaging), np.size(genetic)
        self._bind(np.empty(flat_length(n_imaging, expanded_size)), n_imaging, expanded_size)
        self.interaction = interaction
        self.imaging = imaging
        self.genetic = genetic
        self.intercept = intercept

    def _bind(self, w: np.ndarray, n_imaging: int, expanded_size: int) -> None:
        cut1 = n_imaging * expanded_size
        cut2 = cut1 + n_imaging
        self._flat = w
        self._interaction = w[:cut1].reshape(n_imaging, expanded_size)
        self._imaging = w[cut1:cut2]
        self._genetic = w[cut2 : cut2 + expanded_size]

    interaction = _block("interaction", "View of the (n_imaging, expanded_size) matrix.")
    imaging = _block("imaging", "View of the imaging coefficients.")
    genetic = _block("genetic", "View of the expanded genetic coefficients.")

    @property
    def intercept(self) -> float:
        return float(self._flat[-1])

    @intercept.setter
    def intercept(self, value) -> None:
        # a float, numpy's float64 included, skips the dtype check: the
        # gradient sets the intercept on every call
        self._flat[-1] = value if isinstance(value, float) else float(_numeric("intercept", value))

    @classmethod
    def zeros(cls, n_imaging: int, expanded_size: int) -> "ParameterSet":
        n_imaging = _integer("n_imaging", n_imaging)
        expanded_size = _integer("expanded_size", expanded_size)
        return cls._view(np.zeros(flat_length(n_imaging, expanded_size)), n_imaging, expanded_size)

    @property
    def n_imaging(self) -> int:
        return self._imaging.size

    @property
    def expanded_size(self) -> int:
        return self._genetic.size

    def flat(self) -> np.ndarray:
        """The parameter buffer itself, not a copy: (row-major interaction,
        imaging, genetic, intercept)."""
        return self._flat

    @classmethod
    def from_flat(cls, w, n_imaging: int, expanded_size: int) -> "ParameterSet":
        """Parameters whose buffer is ``w``, without copying.

        A float64 vector ``w`` is aliased: writes to it show in the blocks
        of the result and writes to the blocks show in ``w``.  Input of
        another dtype is converted first and so is not aliased.
        """
        w = np.asarray(w, dtype=float)
        expected = flat_length(n_imaging, expanded_size)
        if w.shape != (expected,):
            raise ValueError(
                "flat vector has length %d, expected %d" % (w.size, expected)
            )
        return cls._view(w, n_imaging, expanded_size)

    @classmethod
    def _view(cls, w: np.ndarray, n_imaging: int, expanded_size: int) -> "ParameterSet":
        # from_flat without its checks, for a float64 buffer of the right length.
        p = cls.__new__(cls)
        p._bind(w, n_imaging, expanded_size)
        return p

    def check_variant(self, variant: str) -> None:
        """Raise ``ValueError`` unless ``variant`` is known and every block it
        pins at zero holds zeros only (a NaN counts as nonzero)."""
        _check_variant_name(variant)
        for block in _PINNED_BLOCKS[variant]:
            if getattr(self, block).any():
                raise ValueError("the %s variant pins the %s block at zero, which holds "
                                 "a nonzero entry" % (variant, block))

    def copy(self) -> "ParameterSet":
        """Independent parameters with their own buffer."""
        return ParameterSet._view(self._flat.copy(), self.n_imaging, self.expanded_size)

    def __reduce__(self):
        # Pickling and deep copies rebuild the views on one buffer.
        return ParameterSet.from_flat, (self._flat, self.n_imaging, self.expanded_size)


@dataclass
class Hyperparameters:
    """Penalty strengths and solver settings.

    ``lambda_interaction`` and ``lambda_genetic`` weight the group norms of
    the interaction rows and the genetic coefficients; ``lambda_imaging``
    weights the squared norm of the imaging coefficients.  ``variant``
    selects which parameter blocks are active: "multilevel" keeps all,
    "additive" pins the interaction matrix at zero, "multiplicative" pins
    the marginal imaging/genetic coefficients at zero.  ``tol`` bounds the
    last relative change of the objective and also sets the duality-gap gate
    ``gap <= GAP_GATE * tol * objective`` a converged fit meets (see
    :func:`structprox.solver.fit`); ``max_iters`` caps the iterations.
    """

    lambda_interaction: float
    lambda_imaging: float
    lambda_genetic: float
    variant: str = "multilevel"
    tol: float = 1e-5
    max_iters: int = 10000

    def __post_init__(self):
        for name in ("lambda_interaction", "lambda_imaging", "lambda_genetic"):
            value = float(_numeric(name, getattr(self, name)))
            setattr(self, name, value)
            if not np.isfinite(value) or value <= 0:
                raise ValueError("%s must be finite and > 0, got %r" % (name, value))
        _check_variant_name(self.variant)
        self.tol = float(_numeric("tol", self.tol))
        if not np.isfinite(self.tol) or self.tol <= 0:
            raise ValueError("tol must be finite and > 0, got %r" % self.tol)
        self.max_iters = _integer("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1, got %r" % self.max_iters)


def _check_expanded_size(p: ParameterSet, gs: GroupStructure) -> None:
    if p.expanded_size != gs.expanded_size:
        raise ValueError("parameters have expanded size %d, groups give %d"
                         % (p.expanded_size, gs.expanded_size))


def flat_length(n_imaging: int, expanded_size: int) -> int:
    """Length of the flat parameter vector for the given dimensions."""
    return n_imaging * expanded_size + n_imaging + expanded_size + 1
