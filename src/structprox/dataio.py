"""File formats: feature CSVs, label CSVs, group files, and the versioned
text serialization of fitted parameters.

All floating point values are written with 17 significant digits so that
loading reproduces the stored float64 values exactly.
"""

from __future__ import annotations

import csv
import warnings
from collections import Counter
from itertools import chain
from math import isfinite

import numpy as np

from .core import GroupStructure, ParameterSet, VARIANTS, _PINNED_BLOCKS

__all__ = [
    "load_matrix_csv",
    "save_matrix_csv",
    "load_labels_csv",
    "save_labels_csv",
    "load_group_file",
    "save_group_file",
    "save_params",
    "load_params",
    "save_trace_csv",
    "save_predictions_csv",
    "write_csv",
]

_PARAMS_HEADER = "structprox-params v1"


def load_matrix_csv(path):
    """Read a feature matrix CSV with a header row.

    Returns ``(column_names, matrix)`` with the matrix as float64.  Column
    names must be distinct, because prediction matches columns by name.

    The header is read with ``csv.reader`` and the body is parsed in C by
    ``np.loadtxt``.  When that parse fails (a quoted field, an underscore
    in a number, a ragged row, any text that is not a number), finds no
    rows, or finds rows of another width than the header, the body is read
    again row by row with ``csv.reader`` and Python's ``float``.  That loop
    defines the accepted inputs, their values and the line-numbered errors;
    the C parse only takes the common case faster.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise ValueError("%s: empty file, expected a header row" % path)
        names = [n.strip() for n in names]
        repeated = [name for name, count in Counter(names).items() if count > 1]
        if repeated:
            raise ValueError(
                "%s: column name '%s' appears twice in the header" % (path, repeated[0])
            )
        try:
            with warnings.catch_warnings():
                # an empty body is reported by the row loop below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                X = np.loadtxt(_plain_lines(fh), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            X = None
        if X is None or not len(X) or X.shape[1] != len(names):
            fh.seek(0)
            reader = csv.reader(fh)
            next(reader)
            X = _read_rows(reader, len(names), path)
    return names, X


# np.loadtxt strips these ASCII separators around a number as whitespace,
# and float() rejects them.
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _plain_lines(fh):
    """The remaining lines of ``fh``; a ValueError at a line holding a
    character on which np.loadtxt and float() disagree."""
    for line in fh:
        if any(c in line for c in _SEPARATORS):
            raise ValueError("line holds an ASCII separator")
        yield line


def _read_rows(reader, n_fields: int, path) -> np.ndarray:
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != n_fields:
            raise ValueError(
                "%s: line %d has %d fields, header has %d"
                % (path, lineno, len(row), n_fields)
            )
        try:
            # a row of Python floats takes four times its array's memory
            rows.append(np.array([float(v) for v in row]))
        except ValueError:
            raise ValueError(
                "%s: line %d holds a non-numeric value" % (path, lineno)
            )
    if not rows:
        raise ValueError("%s: no data rows" % path)
    return np.array(rows, dtype=float)


def save_matrix_csv(path, names, X) -> None:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(names):
        raise ValueError(
            "matrix shape %r does not match %d column names" % (X.shape, len(names))
        )
    write_csv(path, chain([names], (["%.17g" % v for v in row] for row in X)))


def write_csv(path, rows) -> None:
    """Write an iterable of rows as CSV with LF line ends; a field holding
    a comma, quote or line break is quoted."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def load_labels_csv(path) -> np.ndarray:
    """Read a single-column CSV of 0/1 labels (header row included)."""
    names, X = load_matrix_csv(path)
    if X.shape[1] != 1:
        raise ValueError(
            "%s: labels must be a single column, found %d" % (path, X.shape[1])
        )
    values = X[:, 0]
    if not np.isin(values, (0.0, 1.0)).all():
        raise ValueError("%s: labels must be 0 or 1" % path)
    return values.astype(np.intp)


def save_labels_csv(path, labels) -> None:
    write_csv(path, chain([["label"]], ([int(v)] for v in np.asarray(labels))))


def load_group_file(path, n_features: int) -> GroupStructure:
    """Read a group file: ``name<TAB>weight-or-auto<TAB>i,j,k`` per line.

    Feature indices are 0-based positions into the genetic matrix columns.
    A weight of ``auto`` selects sqrt(group size).  Blank lines and lines
    starting with ``#`` are skipped.  Names must be distinct, and a name
    may not hold ``,`` or ``;``, which separate the group names in
    ``summary.txt`` and ``cv_chosen.csv``.
    """
    groups = []
    weights = []
    first_line = {}  # line of each group name read so far
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(
                    "%s: line %d has %d tab-separated fields, expected 3"
                    % (path, lineno, len(parts))
                )
            name, weight_text, index_text = parts
            name = name.strip()
            if "," in name or ";" in name:
                raise ValueError(
                    "%s: line %d group name %r holds ',' or ';'" % (path, lineno, name)
                )
            if name in first_line:
                raise ValueError("%s: lines %d and %d both name group %r"
                                 % (path, first_line[name], lineno, name))
            first_line[name] = lineno
            try:
                indices = [int(v) for v in index_text.split(",") if v.strip() != ""]
            except ValueError:
                raise ValueError(
                    "%s: line %d holds a non-integer feature index" % (path, lineno)
                )
            if not indices:
                raise ValueError("%s: line %d lists no feature indices" % (path, lineno))
            if weight_text.strip() == "auto":
                weight = float(np.sqrt(len(indices)))
            else:
                try:
                    weight = float(weight_text)
                except ValueError:
                    raise ValueError(
                        "%s: line %d weight must be a number or 'auto'" % (path, lineno)
                    )
            groups.append(indices)
            weights.append(weight)
    if not groups:
        raise ValueError("%s: no group lines found" % path)
    try:
        return GroupStructure(groups, n_features, weights=weights, names=list(first_line))
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def save_group_file(path, gs: GroupStructure) -> None:
    with open(path, "w") as fh:
        for name, weight, idx in zip(gs.names, gs.weights.tolist(), gs.groups):
            fh.write("%s\t%.17g\t%s\n" % (name, weight, ",".join(map(str, idx.tolist()))))


def save_params(path, p: ParameterSet, variant: str = "multilevel") -> None:
    """Write fitted parameters as versioned text, nonzero entries only;
    parameters ``variant`` does not admit raise before any file is written."""
    p.check_variant(variant)
    lines = [
        _PARAMS_HEADER,
        "variant\t%s" % variant,
        "dims\t%d\t%d" % (p.n_imaging, p.expanded_size),
    ]
    rows, cols = np.nonzero(p.interaction)
    for i, g in zip(rows, cols):
        lines.append("interaction\t%d\t%d\t%.17g" % (i, g, p.interaction[i, g]))
    for i in np.flatnonzero(p.imaging):
        lines.append("imaging\t%d\t%.17g" % (i, p.imaging[i]))
    for g in np.flatnonzero(p.genetic):
        lines.append("genetic\t%d\t%.17g" % (g, p.genetic[g]))
    lines.append("intercept\t%.17g" % p.intercept)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path):
    """Read a parameter file; returns ``(ParameterSet, variant)``.

    Each entry may appear once, and a file may hold no entry of a block
    its variant pins at zero.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _PARAMS_HEADER:
        raise ValueError("%s: not a parameter file (bad header line)" % path)
    if len(lines) < 4:
        raise ValueError("%s: truncated parameter file" % path)
    v_parts = lines[1].split("\t")
    if len(v_parts) != 2 or v_parts[0] != "variant" or v_parts[1] not in VARIANTS:
        raise ValueError("%s: bad variant line" % path)
    variant = v_parts[1]
    d_parts = lines[2].split("\t")
    try:
        n_imaging, expanded = map(int, d_parts[1:])
        if d_parts[0] != "dims" or min(n_imaging, expanded) < 1:
            raise ValueError
    except ValueError:
        raise ValueError("%s: bad dims line" % path) from None
    p = ParameterSet.zeros(n_imaging, expanded)

    def index(text, dim):
        # numpy would accept a negative index and count it from the end
        k = int(text)
        if not 0 <= k < dim:
            raise ValueError
        return k

    pinned = _PINNED_BLOCKS[variant]
    first_line = {}  # line of each entry read so far, keyed by (tag, *indices)
    for lineno, line in enumerate(lines[3:], start=4):
        parts = line.split("\t")
        tag = parts[0]
        try:
            if tag == "interaction" and len(parts) == 4:
                key = (tag, index(parts[1], n_imaging), index(parts[2], expanded))
            elif tag == "imaging" and len(parts) == 3:
                key = (tag, index(parts[1], n_imaging))
            elif tag == "genetic" and len(parts) == 3:
                key = (tag, index(parts[1], expanded))
            elif tag == "intercept" and len(parts) == 2:
                key = (tag,)
            else:
                raise ValueError
            v = float(parts[-1])
            if not isfinite(v):
                raise ValueError
        except ValueError:
            raise ValueError("%s: line %d is malformed" % (path, lineno)) from None
        if tag in pinned:
            raise ValueError("%s: line %d sets the %s block, which the %s variant pins at zero"
                             % (path, lineno, tag, variant))
        if key in first_line:
            raise ValueError("%s: line %d repeats the entry of line %d"
                             % (path, lineno, first_line[key]))
        first_line[key] = lineno
        if tag == "intercept":
            p.intercept = v
        else:
            getattr(p, tag)[key[1:]] = v
    if ("intercept",) not in first_line:
        raise ValueError("%s: missing intercept line" % path)
    return p, variant


def save_trace_csv(path, state) -> None:
    """Write the per-iteration objective trace of a fit."""
    rows = (
        [r.iteration, *("%.17g" % v for v in (r.risk, r.penalty, r.total, r.step)), r.backtracks]
        for r in state.history
    )
    write_csv(path, chain([["iteration", "risk", "penalty", "total", "step", "backtracks"]], rows))


def save_predictions_csv(path, probabilities, labels) -> None:
    probabilities = np.asarray(probabilities, dtype=float)
    labels = np.asarray(labels)
    rows = ([k, "%.17g" % probabilities[k], int(labels[k])] for k in range(probabilities.size))
    write_csv(path, chain([["index", "probability", "label"]], rows))
