"""File formats: feature CSVs, label CSVs, group files, and the versioned
text serialization of fitted parameters.

All floating point values are written with 17 significant digits so that
loading reproduces the stored float64 values exactly.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from itertools import chain, islice
from math import isfinite

import numpy as np

from .core import GroupStructure, ParameterSet, VARIANTS, _binary_labels, _pinned_blocks

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

    The file is read once, so any readable stream works, a pipe included.
    The header is parsed with ``csv.reader``; the body that follows it goes
    through up to three parses of the text in memory, each taking the
    inputs the one before it cannot:

    1. A body of rows that each hold one ASCII digit per column, separated
       by commas and ended by LF, such as minor-allele counts, is checked
       and converted as bytes.
    2. Any other body is parsed in C by ``np.loadtxt``.
    3. When that parse fails (a quoted field, an underscore in a number, a
       ragged row, any text that is not a number) or finds rows of another
       width than the header, the body is read row by row with
       ``csv.reader`` and Python's ``float``.  A body of line ends only
       goes straight to this loop, which reports that it holds no rows.

    The row loop defines the accepted inputs, their values and the
    line-numbered errors; the first two parses only take common cases
    faster.  A byte the file's codec cannot decode is reported with its
    line.  NaN and infinite values load as ``float`` reads them.
    """
    text = _read_text(path, newline="")
    reader = csv.reader(_lines(text))
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
    # the body starts after the lines the header took
    start = sum(map(len, islice(_lines(text), reader.line_num)))
    X = None
    # A body of line ends only holds no rows, and under a header of no
    # fields every row is too wide: the row loop reports both.
    if names and not _LINE_ENDS.fullmatch(text, start):
        X = _digit_rows(text, start, len(names))
        if X is None and not any(text.find(sep, start) >= 0 for sep in _SEPARATORS):
            try:
                X = np.loadtxt(_lines(text, start), delimiter=",", comments=None, ndmin=2)
            except ValueError:
                pass
    if X is None or X.shape[1] != len(names):
        X = _read_rows(reader, len(names), path)
    return names, X


def _read_text(path, newline=None) -> str:
    """The whole text of ``path``, opened with ``newline``: by default every
    line, ended by LF, CR or CR LF in the file, ends in LF.  A byte the
    codec cannot decode is reported with the line that holds it."""
    with open(path, newline=newline) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            # read() decodes the whole file at once, so exc.start is a file offset
            head = exc.object[: exc.start].decode(exc.encoding)
            line = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
            raise ValueError("%s: line %d holds a byte that is not valid %s"
                             % (path, line, exc.encoding)) from None


def _read_lines(path) -> list:
    """The lines of :func:`_read_text`, split at LF only, not at the FF,
    NEL or U+2028 that ``str.splitlines`` splits at."""
    lines = _read_text(path).split("\n")
    if not lines[-1]:  # a final LF starts no line
        lines.pop()
    return lines


def _write_lines(path, lines) -> None:
    """Write each of ``lines`` ended by LF, in the encoding :func:`_read_text` decodes."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


_LINE_ENDS = re.compile("[\r\n]*")

# np.loadtxt strips these ASCII separators around a number as whitespace,
# and float() rejects them.
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _lines(text: str, start: int = 0):
    """The lines of ``text`` from ``start`` on, each with its line end, split
    as a file opened with ``newline=""`` splits them: at LF, CR and CR LF,
    not at the VT, FF, 0x1C-0x1E, NEL, U+2028 and U+2029 of str.splitlines."""
    lf = -1  # the next LF, len(text) if there is none; -1 until searched
    while start < len(text):
        if lf < start:
            lf = text.find("\n", start) % (len(text) + 1)  # find's -1 becomes len(text)
        cr = text.find("\r", start, lf)
        # a CR ends the line unless it is the CR of a CR LF
        stop = cr + 1 if 0 <= cr < lf - 1 else lf + 1
        yield text[start:stop]
        start = stop


def _digit_rows(text: str, start: int, n_fields: int):
    """``text`` from ``start`` on as a float64 matrix when every row is
    ``n_fields`` one-digit fields joined by commas and ended by LF, else None."""
    width = 2 * n_fields
    if (len(text) - start) % width:
        return None
    X = np.empty(((len(text) - start) // width, n_fields))
    # 256 kB at a time keeps the temporaries small, in slices large enough
    # that numpy's per-call cost stays minor
    step = width * max(1, 262144 // width)
    for at in range(start, len(text), step):
        chunk = text[at : at + step]
        if not chunk.isascii():
            return None
        rows = np.frombuffer(chunk.encode(), np.uint8).reshape(-1, width)
        digits, ends = rows[:, ::2], rows[:, 1::2]
        # uint8 arithmetic wraps, so a byte below '0' becomes a large value
        if not ((digits - ord("0") < 10).all()
                and (ends[:, :-1] == ord(",")).all() and (ends[:, -1] == ord("\n")).all()):
            return None
        first = (at - start) // width
        np.subtract(digits, ord("0"), out=X[first : first + len(rows)])
    return X


def _read_rows(reader, n_fields: int, path) -> np.ndarray:
    """The rest of ``reader`` as a float64 matrix; errors name the physical
    line, counted by ``reader.line_num``, on which a bad row ends."""
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != n_fields:
            raise ValueError(
                "%s: line %d has %d fields, header has %d"
                % (path, reader.line_num, len(row), n_fields)
            )
        try:
            # a row of Python floats takes four times its array's memory
            rows.append(np.array([float(v) for v in row]))
        except ValueError:
            raise ValueError(
                "%s: line %d holds a non-numeric value" % (path, reader.line_num)
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
    """Read a single-column CSV of 0/1 labels (header row included) as ``intp``."""
    names, X = load_matrix_csv(path)
    if X.shape[1] != 1:
        raise ValueError(
            "%s: labels must be a single column, found %d" % (path, X.shape[1])
        )
    return _binary_labels("%s: labels" % path, X[:, 0])


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
    for lineno, line in enumerate(_read_lines(path), start=1):
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
    _write_lines(path, ("%s\t%.17g\t%s" % (name, weight, ",".join(map(str, idx.tolist())))
                        for name, weight, idx in zip(gs.names, gs.weights.tolist(), gs.groups)))


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
    _write_lines(path, lines)


def load_params(path):
    """Read a parameter file; returns ``(ParameterSet, variant)``.

    Each entry may appear once, and a file may hold no entry of a block
    its variant pins at zero.  The text is read through :func:`_read_text`
    and split at LF only.
    """
    lines = _read_lines(path)
    if not lines or lines[0] != _PARAMS_HEADER:
        raise ValueError("%s: not a parameter file (bad header line)" % path)
    if len(lines) < 3:
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
    if len(lines) == 3:
        raise ValueError("%s: truncated parameter file" % path)
    p = ParameterSet.zeros(n_imaging, expanded)

    def index(text, dim):
        # numpy would accept a negative index and count it from the end
        k = int(text)
        if not 0 <= k < dim:
            raise ValueError
        return k

    pinned = _pinned_blocks(variant)
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
