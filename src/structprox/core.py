"""Core domain types: overlapping feature groups, two-modality datasets,
model parameters, and penalty settings.

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
    "expand_columns",
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


class GroupStructure:
    """Grouping of the genetic features into possibly overlapping blocks.

    Expanded coordinates concatenate one block per group, so a feature
    belonging to several groups owns one coefficient per membership.
    Within the expanded vector the block of group ``l`` occupies
    ``offsets[l] : offsets[l] + sizes[l]``.

    Parameters
    ----------
    groups : sequence of index sequences
        Original 0-based feature indices of each group.  Every group must
        be non-empty and free of internal duplicates, and every feature
        index in ``range(n_features)`` must appear in at least one group.
    n_features : int
        Number of original genetic features.
    weights : array_like, optional
        Positive per-group penalty weights.  Defaults to sqrt(group size).
    names : sequence of str, optional
        Distinct report labels a group file can hold: no ``,``, ``;``, tab,
        line break, leading ``#`` or surrounding blanks; ``group0000`` by default.

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
            raw = np.asarray(grp)
            if raw.dtype.kind == "f":
                fractional = ~np.isfinite(raw) | (raw != np.floor(raw))
                if fractional.any():
                    raise ValueError("group %d holds index %r, which is not an integer"
                                     % (l, float(raw[fractional][0])))
            idx = np.asarray(raw, dtype=np.intp).view()
            if idx.ndim != 1 or idx.size == 0:
                raise ValueError("group %d is empty" % l)
            if idx.min() < 0 or idx.max() >= n_features:
                raise ValueError(
                    "group %d holds index %d outside [0, %d)"
                    % (l, idx[np.argmax((idx < 0) | (idx >= n_features))], n_features)
                )
            if np.unique(idx).size != idx.size:
                raise ValueError("group %d lists a feature index twice" % l)
            idx.setflags(write=False)
            index_sets.append(idx)

        covered = np.zeros(n_features, dtype=bool)
        for idx in index_sets:
            covered[idx] = True
        if not covered.all():
            missing = int(np.flatnonzero(~covered)[0])
            raise ValueError(
                "feature %d belongs to no group; every feature must be covered" % missing
            )

        sizes = np.array([idx.size for idx in index_sets], dtype=np.intp)
        if weights is None:
            weights = np.sqrt(sizes.astype(float))
        else:
            weights = np.asarray(weights, dtype=float).view()
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
        self.expansion_index = np.concatenate(index_sets)
        self.weights = weights
        self.names = names
        for arr in (self.sizes, self.offsets, self.expansion_index, self.weights):
            arr.setflags(write=False)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def block(self, l: int) -> slice:
        """Slice of group ``l`` in expanded coordinates."""
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

    Feature matrices are stored as float64 with one row per sample; labels
    are 0/1 integers.  All values must be finite (missing data is rejected).
    The matrices are kept as read-only views: a float64 matrix given is
    aliased, not copied, and stays writeable to its owner.
    """

    def __init__(self, genetic, imaging, labels):
        genetic = np.asarray(genetic, dtype=float).view()
        imaging = np.asarray(imaging, dtype=float).view()
        labels = np.asarray(labels)
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
        if labels.dtype.kind not in "iub":
            if not np.all(np.isfinite(labels.astype(float))):
                raise ValueError("labels contain NaN or infinite entries")
            rounded = labels.astype(float)
            if not np.array_equal(rounded, rounded.astype(int)):
                raise ValueError("labels must be integers in {0, 1}")
            labels = rounded.astype(int)
        labels = labels.astype(np.intp)
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must take values in {0, 1}")
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
        """New dataset restricted to the given row indices."""
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(self.genetic[rows], self.imaging[rows], self.labels[rows])

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
        value = np.asarray(value, dtype=float)
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
        self._flat[-1] = float(value)

    @classmethod
    def zeros(cls, n_imaging: int, expanded_size: int) -> "ParameterSet":
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
    the marginal imaging/genetic coefficients at zero.
    """

    lambda_interaction: float
    lambda_imaging: float
    lambda_genetic: float
    variant: str = "multilevel"
    tol: float = 1e-5
    max_iters: int = 10000

    def __post_init__(self):
        for name in ("lambda_interaction", "lambda_imaging", "lambda_genetic"):
            value = float(getattr(self, name))
            setattr(self, name, value)
            if not np.isfinite(value) or value <= 0:
                raise ValueError("%s must be finite and > 0, got %r" % (name, value))
        _check_variant_name(self.variant)
        self.tol = float(self.tol)
        if not np.isfinite(self.tol) or self.tol <= 0:
            raise ValueError("tol must be finite and > 0, got %r" % self.tol)
        self.max_iters = _integer("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1, got %r" % self.max_iters)


def expand_columns(X, gs: GroupStructure) -> np.ndarray:
    """Column-wise overlap expansion of a (n_samples, n_features) matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != gs.n_features:
        raise ValueError(
            "expected a matrix with %d columns, got shape %r" % (gs.n_features, X.shape)
        )
    return X[:, gs.expansion_index]


def _check_statistic(name: str, value: np.ndarray) -> None:
    """Raise unless a normalization statistic is finite and each ``*_scale`` > 0."""
    if not np.all(np.isfinite(value)):
        raise ValueError("%s holds a non-finite value" % name)
    if name.endswith("_scale") and np.any(value <= 0):
        raise ValueError("%s must be > 0" % name)


def _check_expanded_size(p: ParameterSet, gs: GroupStructure) -> None:
    if p.expanded_size != gs.expanded_size:
        raise ValueError("parameters have expanded size %d, groups give %d"
                         % (p.expanded_size, gs.expanded_size))


def flat_length(n_imaging: int, expanded_size: int) -> int:
    """Length of the flat parameter vector for the given dimensions."""
    return n_imaging * expanded_size + n_imaging + expanded_size + 1
