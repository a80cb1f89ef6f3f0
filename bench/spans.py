"""Span recorder that times structprox's layers from outside the package.

Every public function of every structprox module is wrapped where its
callers look it up.  The modules import functions by name (``solver`` holds
its own binding of ``objective.risk``, ``cli`` its own ``kfold_cv``), so a
wrapper replaces each binding of the same function object in every
``structprox`` namespace, and :meth:`Tracer.uninstall` puts the originals
back.  Modules are reached through ``sys.modules``: ``structprox.objective``
as an attribute is the *function* ``objective``, because the package
re-exports it under the module's name.

A span is (name, start, end, parent).  Spans stay in memory in flat arrays
and are written once, when the run ends.  Counters that the program does not
keep (solver iterations, margin flops and bytes, file sizes) are derived at
the same boundaries from each call's arguments and result.
"""

from __future__ import annotations

import os
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np


def package_modules():
    """Every loaded structprox module object, the package itself included."""
    return [m for name, m in sys.modules.items() if name == "structprox" or name.startswith("structprox.")]


def rebind(replacements: dict) -> list:
    """Replace every binding of each original function in the package.

    ``replacements`` maps an original function object to its stand-in.
    Returns the ``(namespace, attribute, original)`` triples to restore.
    """
    by_id = {id(orig): (orig, new) for orig, new in replacements.items()}
    undo = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in by_id and by_id[id(value)][0] is value:
                setattr(module, attr, by_id[id(value)][1])
                undo.append((module, attr, value))
    return undo


def restore(undo: list) -> None:
    for namespace, attr, original in reversed(undo):
        setattr(namespace, attr, original)


def public_functions():
    """``{span name: function}`` for the public functions of every module."""
    found = {}
    for module in package_modules():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if isinstance(fn, types.FunctionType):
                owner = fn.__module__.rpartition(".")[2]
                found["%s.%s" % (owner, fn.__name__)] = fn
    return found


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_margins(c, args, kwargs, result):
    """Computed operation and compulsory byte counts of one margin evaluation.

    Flops: the product ``genetic @ W.T`` (2 N n_I n_G), its row-wise dot with
    the imaging matrix (2 N n_I), the two linear terms (2 N (n_I + n_G)) and
    the scale and mean corrections (3 n_I n_G).  Bytes: each operand read
    once and each temporary written once, as float64.  Cache misses are not
    seen, so both are labelled computed.
    """
    design = _arg(args, kwargs, 1, "design")
    variant = _arg(args, kwargs, 2, "variant", "multilevel")
    n, ni, ng = design.n_samples, design.n_imaging, design.expanded_size
    flop, words = float(n), float(n)
    if variant != "multiplicative":
        flop += 2.0 * n * (ni + ng)
        words += n * (ni + ng) + ni + ng
    if variant != "additive":
        flop += 2.0 * n * ni * ng + 2.0 * n * ni + 3.0 * ni * ng
        words += n * ng + n * ni + 4.0 * ni * ng + 2.0 * n * ni
    c["objective.margins.flop"] += flop
    c["objective.margins.bytes"] += 8.0 * words


def _count_fit(c, args, kwargs, result):
    state = result[1]
    c["solver.iterations"] += state.iterations
    c["solver.backtracks"] += sum(rec.backtracks for rec in state.history)


def _count_read(key, pos, name):
    def count(c, args, kwargs, result):
        c[key] += os.path.getsize(_arg(args, kwargs, pos, name))
    return count


def _count_flat(c, args, kwargs, result):
    c["core.flat.bytes"] += result.nbytes


COUNTERS = {
    "objective.margins": _count_margins,
    "solver.fit": _count_fit,
    "dataio.load_matrix_csv": _count_read("dataio.bytes_read", 0, "path"),
    "dataio.load_group_file": _count_read("dataio.bytes_read", 0, "path"),
    "dataio.load_params": _count_read("dataio.bytes_read", 0, "path"),
    "preprocessing.load_scaler": _count_read("preprocessing.scaler_bytes", 0, "path"),
    "preprocessing.save_scaler": _count_read("preprocessing.scaler_bytes", 1, "path"),
    "core.flat": _count_flat,
}


class Tracer:
    """In-memory span and counter store with install/uninstall of wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        stack, names, parents, starts, ends = self._stack, self.name, self.parent, self.start, self.end
        counters, clock = self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        from structprox.core import ParameterSet

        functions = public_functions()
        self._undo = rebind({fn: self.wrap(name, fn) for name, fn in functions.items()})
        flat = ParameterSet.flat
        ParameterSet.flat = self.wrap("core.flat", flat)
        self._undo.append((ParameterSet, "flat", flat))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def save(self, path) -> None:
        """Write every span as arrays in one compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def totals(self):
        """Per span name: ``(calls, inclusive seconds, self seconds)``.

        Self time is a span's duration minus the durations of its direct
        children; spans are properly nested because the program is single
        threaded.
        """
        nid = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nid.size)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - children, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(own[i])) for i, name in enumerate(self.names)}

    def calls_under(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
        if name not in self._name_ids or parent_name not in self._name_ids:
            return 0
        nid = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        mine = (nid == self._name_ids[name]) & (parent >= 0)
        return int(np.sum(nid[parent[mine]] == self._name_ids[parent_name]))
