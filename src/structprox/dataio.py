"""File formats: feature CSVs, label CSVs, group files, and the versioned
text serialization of fitted parameters.

All floating point values are written with 17 significant digits so that
loading reproduces the stored float64 values exactly.
"""

from __future__ import annotations

import csv
from collections import Counter

import numpy as np

from .core import GroupStructure, ParameterSet, VARIANTS

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
]

_PARAMS_HEADER = "structprox-params v1"


def load_matrix_csv(path):
    """Read a feature matrix CSV with a header row.

    Returns ``(column_names, matrix)`` with the matrix as float64.  Column
    names must be distinct, because prediction matches columns by name.
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
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ValueError(
                    "%s: line %d has %d fields, header has %d"
                    % (path, lineno, len(row), len(names))
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
    return names, np.array(rows, dtype=float)


def save_matrix_csv(path, names, X) -> None:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(names):
        raise ValueError(
            "matrix shape %r does not match %d column names" % (X.shape, len(names))
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(["%.17g" % v for v in row] for row in X)


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


def save_labels_csv(path, labels, name: str = "label") -> None:
    labels = np.asarray(labels)
    with open(path, "w") as fh:
        fh.write("%s\n" % name)
        for v in labels:
            fh.write("%d\n" % int(v))


def load_group_file(path, n_features: int) -> GroupStructure:
    """Read a group file: ``name<TAB>weight-or-auto<TAB>i,j,k`` per line.

    Feature indices are 0-based positions into the genetic matrix columns.
    A weight of ``auto`` selects sqrt(group size).  Blank lines and lines
    starting with ``#`` are skipped.  A name may not hold ``,`` or ``;``,
    which separate the group names in ``summary.txt`` and ``cv_chosen.csv``.
    """
    groups = []
    weights = []
    names = []
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
            names.append(name)
    if not groups:
        raise ValueError("%s: no group lines found" % path)
    return GroupStructure(groups, n_features, weights=weights, names=names)


def save_group_file(path, gs: GroupStructure) -> None:
    with open(path, "w") as fh:
        for l in range(gs.n_groups):
            fh.write(
                "%s\t%.17g\t%s\n"
                % (
                    gs.names[l],
                    gs.weights[l],
                    ",".join(str(int(v)) for v in gs.groups[l]),
                )
            )


def save_params(path, p: ParameterSet, variant: str = "multilevel") -> None:
    """Write fitted parameters as versioned text, nonzero entries only."""
    if variant not in VARIANTS:
        raise ValueError("variant must be one of %r, got %r" % (VARIANTS, variant))
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
    """Read a parameter file; returns ``(ParameterSet, variant)``."""
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

    def value(text):
        v = float(text)
        if not np.isfinite(v):
            raise ValueError
        return v

    saw_intercept = False
    for lineno, line in enumerate(lines[3:], start=4):
        parts = line.split("\t")
        tag = parts[0]
        try:
            if tag == "interaction" and len(parts) == 4:
                i, g = index(parts[1], n_imaging), index(parts[2], expanded)
                p.interaction[i, g] = value(parts[3])
            elif tag == "imaging" and len(parts) == 3:
                p.imaging[index(parts[1], n_imaging)] = value(parts[2])
            elif tag == "genetic" and len(parts) == 3:
                p.genetic[index(parts[1], expanded)] = value(parts[2])
            elif tag == "intercept" and len(parts) == 2:
                p.intercept = value(parts[1])
                saw_intercept = True
            else:
                raise ValueError
        except ValueError:
            raise ValueError("%s: line %d is malformed" % (path, lineno)) from None
    if not saw_intercept:
        raise ValueError("%s: missing intercept line" % path)
    return p, variant


def save_trace_csv(path, state) -> None:
    """Write the per-iteration objective trace of a fit."""
    with open(path, "w") as fh:
        fh.write("iteration,risk,penalty,total,step,backtracks\n")
        for rec in state.history:
            fh.write(
                "%d,%.17g,%.17g,%.17g,%.17g,%d\n"
                % (rec.iteration, rec.risk, rec.penalty, rec.total, rec.step, rec.backtracks)
            )


def save_predictions_csv(path, probabilities, labels) -> None:
    probabilities = np.asarray(probabilities, dtype=float)
    labels = np.asarray(labels)
    with open(path, "w") as fh:
        fh.write("index,probability,label\n")
        for k in range(probabilities.size):
            fh.write("%d,%.17g,%d\n" % (k, probabilities[k], int(labels[k])))
