"""Restarted monotone FISTA with a backtracking line search and a stop
certified by a duality gap.

Each outer iteration takes a gradient step on the empirical risk at the
extrapolated point ``y``, applies the proximal operator of the penalty
blockwise (soft-thresholding of each (imaging row, group) block of the
interaction matrix and of each genetic group, shrinkage of the imaging
block, plain step on the intercept), and shrinks the stepsize until the
candidate ``z`` satisfies the quadratic acceptance inequality at ``y``.
The iterate ``x`` moves to ``z`` only if that does not raise the penalized
objective (the monotone FISTA of Beck & Teboulle, IEEE TIP 2009); otherwise
``x`` stays and the momentum restarts from ``y = x`` (O'Donoghue & Candès,
FoCM 2015).  A line search starts from the last accepted step, a factor
``1 / BACKTRACK_FACTOR`` higher when that step was accepted at its first
trial.

A fit stops when the objective's last relative change is at most ``tol``
and a duality gap certifies the iterate: ``gap <= GAP_GATE * tol * P``.
The gap bounds ``P - P*`` from above.  Its dual point comes from the
residuals of the last gradient taken (see :func:`fit`), so it costs no
extra margin evaluation, and it is formed only where the stop is tested.
An uncertified fit stops as stalled once a search from ``x`` itself no
longer lowers the objective (see :func:`fit`).

A fit solves on a working set of the interaction's (imaging row, group)
blocks (after Blitz, Johnson & Guestrin, ICML 2015, and Celer, Massias,
Gramfort & Salmon, ICML 2018): each gradient forms only the blocks in the
set, and the others stay zero in every iterate.  The blocks the variant
pins stay zero with no rule of their own here: a fit's start is checked to
hold zeros there, and every gradient is zero there (see
:mod:`structprox.objective`), so each proximal operator maps them to 0.0.
The set starts whole; the first gradient, the full one, seeds it with
the blocks live at the start and the ``max(WORKING_SET_MIN, 2 * live)``
others of highest ``||g_b|| / theta_b`` (every block, on small designs).
The stop stays certified on the full problem: where it is tested and the
set is not whole, the full gradient is formed from the same residuals,
and a block outside the set whose norm exceeds ``lambda * weight`` joins
the set and restarts the momentum instead of letting the fit stop.

Iterates and gradients share the one buffer layout of
:class:`~structprox.core.ParameterSet`.  A line search gathers ``y`` and
the gradient once at the working set's entries, in buffer order: the
interaction entries of the set's blocks, then the imaging, genetic and
intercept tail.  Each trial forms the gradient step on those entries
alone, each proximal operator works in place on its part of it, the
gradient mapping and both inner products of the acceptance bound come
from the gathered vectors, and the candidate's buffer is zeros with those
entries written in.  The extrapolation is written at the same entries into
one reused buffer.  The entries are listed again only when the set
changes; on a whole set they are the whole buffer in order, so a small
design runs the arithmetic of a full-buffer step.  One group
soft-threshold serves every group-lasso block, and :func:`prox_group`
applies it to a single block.  On small designs an iteration costs the
per-call overhead of its numpy calls far more than arithmetic, so the loop
keeps those calls few.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GroupStructure, Hyperparameters, ParameterSet, flat_length
from .objective import (Design, _block_layout, _check_groups, _group_norms, _transposed_product,
                        penalty, risk, risk_gradient)

__all__ = [
    "SolverFailure",
    "IterationRecord",
    "SolverState",
    "ScreeningResult",
    "prox_group",
    "prox_ridge",
    "fit",
    "screen_lambda_max",
    "MAX_BACKTRACKS",
    "BACKTRACK_FACTOR",
    "STEP_INIT",
    "GAP_GATE",
    "WORKING_SET_MIN",
]

MAX_BACKTRACKS = 200
BACKTRACK_FACTOR = 0.8
STEP_INIT = 1.0
GAP_GATE = 400.0
WORKING_SET_MIN = 200


class SolverFailure(RuntimeError):
    """Raised when the line search accepts no step or the objective degenerates."""


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of the outer loop: the objective of the iterate it
    returns, and the step and backtracks of its line search."""

    iteration: int
    risk: float
    penalty: float
    total: float
    step: float
    backtracks: int


@dataclass(frozen=True)
class SolverState:
    """Outcome of a fit: the per-iteration history, whose first record is
    the starting point, why the loop stopped (``"converged"``, ``"stalled"``
    or ``"max_iters"``, see :func:`fit`), the duality gap of the returned
    iterate, an upper bound on its objective's distance to the optimum, the
    number of interaction blocks in the working set at the stop and the
    number of full checks the set made.  The iteration count and the
    convergence flag are derived from the first two."""

    history: list[IterationRecord]
    stop_reason: str
    gap: float
    working_set_blocks: int
    full_checks: int

    @property
    def iterations(self) -> int:
        """Accepted iterations, not counting the starting point."""
        return len(self.history) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def trace(self) -> np.ndarray:
        """Objective values of the initial point and every accepted iterate."""
        return np.array([rec.total for rec in self.history])


def prox_group(block, threshold: float) -> np.ndarray:
    """Proximal operator of ``threshold * ||.||_2`` on one block.

    Shrinks the block norm by ``threshold`` and returns zeros when the
    norm does not exceed it (including the zero block).  A float copy of
    the block goes through the fit's own soft-threshold as one group, so
    the result matches a line-search trial's on that block bit for bit.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be >= 0, got %r" % threshold)
    out = np.array(block, dtype=float, order="C")
    if out.size:
        _prox_group_rows(out.reshape(1, -1), [0], [out.size], threshold)
    return out


def prox_ridge(block, step: float, lam: float) -> np.ndarray:
    """Proximal operator of ``step * lam * ||.||_2^2``: uniform shrinkage by
    ``1 / (1 + 2 step lam)``, the one a line-search trial applies to the
    imaging block."""
    if not step > 0:
        raise ValueError("step must be > 0, got %r" % step)
    if not lam >= 0:
        raise ValueError("lam must be >= 0, got %r" % lam)
    block = np.asarray(block, dtype=float)
    return block / (1.0 + 2.0 * step * lam)


def _prox_group_rows(omega: np.ndarray, offsets, sizes, thresholds) -> None:
    """Soft-threshold, in place, each column block ``offsets[l] : offsets[l]
    + sizes[l]`` of every row of ``omega`` by ``thresholds[l]`` (or a scalar)."""
    norms = _group_norms(omega, offsets)
    # thresholds / norms where a group survives, 1 elsewhere: no 0/0 arises.
    ratio = np.divide(thresholds, norms, out=np.ones_like(norms), where=norms > thresholds)
    omega *= (1.0 - ratio).repeat(sizes, axis=1)


@dataclass(frozen=True)
class _Entries:
    """The entries of the flat parameter buffer that a line search moves:
    the interaction entries of a working set's blocks, in buffer order,
    then the imaging, genetic and intercept tail, as flat positions
    ``index``.  ``offsets``, ``sizes`` and ``weights`` give each set
    block's start among the gathered entries, its length and its group's
    weight."""

    index: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    weights: np.ndarray


def _set_entries(blocks: np.ndarray, gs: GroupStructure) -> _Entries:
    """The :class:`_Entries` of the blocks marked in the (n_imaging,
    n_groups) bool mask ``blocks``.  For a whole mask ``index`` lists every
    entry of the buffer in order."""
    n_imaging, e = blocks.shape[0], gs.expanded_size
    rows, groups = np.nonzero(blocks)  # row-major: the blocks in buffer order
    sizes, offsets, entry_rows, entry_cols = _block_layout(rows, groups, gs)
    tail = np.arange(n_imaging * e, flat_length(n_imaging, e))
    return _Entries(np.concatenate([entry_rows * e + entry_cols, tail]), offsets, sizes,
                    gs.weights[groups])


def _candidate(v: np.ndarray, step: float, entries: _Entries, gs: GroupStructure,
               h: Hyperparameters, n_imaging: int) -> ParameterSet:
    """The candidate of the gradient step ``v`` gathered at ``entries``.

    Each proximal operator works in place on its part of ``v``: the set's
    interaction blocks and the genetic groups are soft-thresholded with
    thresholds ``step * lambda * weight``, the imaging block is shrunk by
    :func:`prox_ridge`, and the intercept keeps its plain gradient step.
    ``v`` is then written into a buffer of zeros at ``entries.index``.
    """
    e = gs.expanded_size
    cut = v.size - n_imaging - e - 1  # the set's interaction entries end here
    thresholds = step * h.lambda_interaction * entries.weights
    _prox_group_rows(v[None, :cut], entries.offsets, entries.sizes, thresholds)
    imaging, genetic = v[cut : cut + n_imaging], v[cut + n_imaging : -1]
    imaging[...] = prox_ridge(imaging, step, h.lambda_imaging)
    thresholds = step * h.lambda_genetic * gs.weights
    _prox_group_rows(genetic[None, :], gs.offsets, gs.sizes, thresholds)
    buf = np.zeros(flat_length(n_imaging, e))
    buf[entries.index] = v
    return ParameterSet._view(buf, n_imaging, e)


def _line_search(y: ParameterSet, design: Design, h: Hyperparameters, grad: np.ndarray,
                 risk_y: float, step: float, entries: _Entries):
    """Shrink the stepsize from the trial ``step`` until the acceptance
    inequality holds.

    ``grad`` and ``risk_y`` are the risk gradient and risk at ``y``, and
    ``entries`` a working set's :func:`_set_entries`, the only entries of
    ``y`` and ``grad`` the search reads.  Both are gathered there once; each
    trial forms the gradient step ``v = y - step * grad`` on those entries
    alone, its candidate (:func:`_candidate`), and the gradient mapping
    ``ghat = (y - candidate) / step``.  The candidate is accepted once

        risk(candidate) <= risk(y) - step * <grad, ghat> + step/2 * ||ghat||^2

    and otherwise the step is multiplied by :data:`BACKTRACK_FACTOR`.
    Returns ``(candidate, step, n_shrinks, candidate_risk)``.
    """
    ys, g = y.flat()[entries.index], grad[entries.index]
    if not np.isfinite(g).all():
        raise ValueError("gradient contains non-finite entries")
    for shrinks in range(MAX_BACKTRACKS + 1):
        v = ys - step * g
        candidate = _candidate(v, step, entries, design.groups, h, design.n_imaging)
        ghat = (ys - v) / step
        bound = risk_y - step * float(g @ ghat) + 0.5 * step * float(ghat @ ghat)
        candidate_risk = risk(candidate, design, h.variant)
        if candidate_risk <= bound:
            return candidate, step, shrinks, candidate_risk
        step *= BACKTRACK_FACTOR
    raise SolverFailure(
        "line search failed: %d shrinkages reached step %.3e without acceptance"
        % (MAX_BACKTRACKS, step)
    )


def _block_ratios(grad: np.ndarray, design: Design) -> np.ndarray:
    """``||g_b|| / theta_b`` of every (imaging row, group) block of the
    interaction part of the flat gradient ``grad``."""
    gs, g = design.groups, ParameterSet._view(grad, design.n_imaging, design.expanded_size)
    return _group_norms(g.interaction, gs.offsets) / gs.weights


def _duality_gap(total, grad, residual, col_means, design, gs, h) -> float:
    """Duality gap of an iterate with objective ``total``, from the dual
    point built from a gradient ``grad`` and its residuals ``r = sigmoid(m)
    - y``, which point into [0, 1] from ``y``: ``r_k <= 0`` where ``y_k = 1``.

    The dual point ``u`` must sum to 0.  It is ``r - mean(r)``, whose
    feature gradient ``(1/N) A^T u`` is ``grad - mean(r) * col_means``, unless
    that shift turns a residual out of [0, 1] (near-separable labels, where
    some ``|r_k|`` is below ``|mean(r)|``).  Then each side is scaled instead,
    ``u = r - c |r|`` with ``c = sum(r) / sum(|r|)``, which keeps every sign at
    the cost of one more product ``A^T u``.  The scale ``alpha`` is the
    largest in [0, 1] that keeps every group block's scaled gradient norm
    within ``lambda * weight`` and ``s = y + alpha * u`` inside [0, 1].  Then

        D = -(1/N) sum_k H(s_k) - alpha^2 ||g_I||^2 / (4 lambda_I),

    with ``H(s) = s log s + (1 - s) log(1 - s)``, is a lower bound on the
    optimum, and ``total - D`` is returned.  ``grad`` and ``col_means`` are
    products under ``h.variant``, so the blocks it pins are zero in ``g``:
    they bound no ``alpha`` and add no ridge term.  With one class in the
    labels ``u`` is 0, the only feasible dual point, so the gap is ``total``
    itself: the risk's infimum is 0 and no finite optimum attains it.  No
    0 / 0 is formed, so degenerate labels raise no warning.
    """
    sign = 1 - 2 * design.labels  # |s - y| = alpha * u * sign
    mean_r = grad[-1]
    u = residual - mean_r
    if (u * sign).min() >= 0.0:
        g = grad - mean_r * col_means
    else:
        # some r_k * sign_k > 0 here, and none is negative: no 0 / 0
        magnitude = residual * sign
        u = residual - (residual.sum() / magnitude.sum()) * magnitude
        g = _transposed_product(u, design, h.variant)
    a = u * sign
    gv = ParameterSet._view(g, design.n_imaging, design.expanded_size)
    alpha = 1.0 / max(1.0, a.max(), _block_ratios(g, design).max() / h.lambda_interaction,
                      (_group_norms(gv.genetic, gs.offsets) / gs.weights).max() / h.lambda_genetic)
    ridge = float(gv.imaging @ gv.imaging) / (4.0 * h.lambda_imaging)
    a *= alpha
    # a log a + (1 - a) log(1 - a), each term 0 where its factor is 0
    log_a = np.log(a, out=np.zeros_like(a), where=a > 0.0)
    log_b = np.log1p(-a, out=np.zeros_like(a), where=a < 1.0)
    entropy = float(a @ log_a + (1.0 - a) @ log_b)
    return float(total + entropy / design.n_samples + alpha * alpha * ridge)


def fit(
    design: Design,
    gs: GroupStructure,
    h: Hyperparameters,
    init: ParameterSet | None = None,
):
    """Run the solver until its stop is certified, it stalls, or to ``max_iters``.

    Starts from zeros or from ``init``, which ``h.variant`` must admit
    (:meth:`ParameterSet.check_variant`).  Each iteration searches from the
    extrapolated point ``y`` (``y = x`` on the first iteration and after a
    restart) for a candidate ``z``.  If ``z``'s objective is at most ``x``'s,
    ``x`` moves to ``z`` and ``y = z + (t - 1) / t' * (z - x_old)`` with
    ``t' = (1 + sqrt(1 + 4 t^2)) / 2``; otherwise ``x`` stays, ``t = 1`` and
    ``y = x``.  The first line search starts at :data:`STEP_INIT`; each next
    one at ``step / BACKTRACK_FACTOR`` after a search accepted at its first
    trial, and at the accepted ``step`` after any other.

    The fit is ``converged`` only when certified: the last relative change
    ``|S_new - S_old| <= tol * |S_old|`` of the penalized objective S, and the
    duality gap of the returned iterate ``gap <= GAP_GATE * tol * S_new``.
    The gap comes from the residuals of the last gradient taken, at ``y``
    (see :func:`_duality_gap`), and is formed only when the relative change
    holds and once more at ``max_iters``.  In the gate, ``tol * S_new`` is
    at least ``eps`` times the mean absolute margin, the rounding of the
    risk's own terms.  With one class in the labels the gap equals S, so
    such a fit is certified only once S has fallen near that rounding.
    ``gs`` must be ``design.groups``.  Returns ``(params, SolverState)``;
    the state's ``gap`` is that of the returned iterate.

    The stop reason is ``"converged"`` for a certified stop, ``"max_iters"``
    at the cap, and ``"stalled"`` when a search from ``x`` itself (``y is
    x``) yields a candidate whose objective is not below ``x``'s and the gap
    does not certify it.  In exact arithmetic such a candidate lowers the
    objective unless ``x`` is optimal, so only rounding stops it, and the
    objective cannot fall further.  The gap of a stalled fit comes from the
    residuals at that ``x``, whose objective the returned iterate shares.

    Every gradient forms only the interaction blocks of the working set
    (its ``blocks=`` mask), and every line search and extrapolation writes
    only the set's entries (:func:`_set_entries`), so the blocks outside
    stay zero in ``x``, ``y`` and ``z``.  The set starts whole; the first
    gradient, at the starting point, seeds it (:func:`_seed_working_set`,
    which keeps a warm start's live blocks).  The blocks the variant pins
    stay zero the same way: ``init`` is checked to hold zeros there and every
    gradient is zero there, so each proximal operator maps them to 0.0, and
    a pinned interaction block never joins the set.  Where the relative
    change holds and the set is not whole, the residuals of the iteration's
    gradient give the full product ``(1/N) A^T r``, from which the gap is
    taken.  If a block outside the set has ``||g_b|| > lambda_W * theta_b``
    there, the fit is not optimal on the full problem whatever the gap says:
    every such block joins the set, the momentum restarts from ``y = x``,
    and the loop goes on.  So a fit stops ``converged`` or ``stalled`` only
    when no block outside its set violates its optimality condition.  The
    state records the set's size at the stop and the number of these full
    checks.
    """
    _check_groups(design, gs)
    if init is None:
        x = ParameterSet.zeros(design.n_imaging, design.expanded_size)
    else:
        init.check_variant(h.variant)
        x = init.copy()

    r0 = risk(x, design, h.variant)
    pen0 = penalty(x, gs, h)
    total0 = r0 + pen0
    if not np.isfinite(total0):
        raise SolverFailure("objective is non-finite at the initial point")
    history = [IterationRecord(0, r0, pen0, total0, 0.0, 0)]
    # training-row mean of every column, the intercept's ones included
    col_means = _transposed_product(np.ones(design.n_samples), design, h.variant)
    stop_reason = "max_iters"
    trial = STEP_INIT
    y, t = x, 1.0
    extrapolated = ParameterSet.zeros(design.n_imaging, design.expanded_size)
    ws, checks = np.ones((design.n_imaging, gs.n_groups), dtype=bool), 0  # the working set

    for it in range(1, h.max_iters + 1):
        prev = history[-1]
        parts = {}
        grad = risk_gradient(y, design, h.variant, parts=parts, blocks=ws)
        if it == 1:
            ws = _seed_working_set(x, grad, design)
            entries = _set_entries(ws, gs)
        z, step, shrinks, z_risk = _line_search(y, design, h, grad, parts["risk"], trial, entries)
        z_pen = penalty(z, gs, h)
        total = z_risk + z_pen
        if not np.isfinite(total):
            raise SolverFailure("objective diverged at iteration %d" % it)
        trial = step / BACKTRACK_FACTOR if shrinks == 0 else step
        stalled = total >= prev.total and y is x
        if total <= prev.total:
            history.append(IterationRecord(it, z_risk, z_pen, total, step, shrinks))
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            y = z
            if beta > 0.0:
                zs = z.flat()[entries.index]
                ahead = zs - x.flat()[entries.index]
                ahead *= beta
                ahead += zs
                y = extrapolated
                y.flat()[entries.index] = ahead
            x, t = z, t_next
        else:
            history.append(IterationRecord(it, prev.risk, prev.penalty, prev.total, step, shrinks))
            y, t = x, 1.0
        final = history[-1].total
        # a stall keeps the objective, so it always reaches the gap test
        if abs(final - prev.total) <= h.tol * abs(prev.total):
            full = grad
            if not ws.all():
                full = _transposed_product(parts["residual"], design, h.variant)
                checks += 1
                outside = (_block_ratios(full, design) > h.lambda_interaction) & ~ws
                if outside.any():
                    # not optimal on the full problem: admit every violator
                    ws |= outside
                    entries = _set_entries(ws, gs)
                    y, t = x, 1.0
                    continue
            gap = _duality_gap(final, full, parts["residual"], col_means, design, gs, h)
            # the risk's terms round by about eps * |m| each, which no tol can undercut
            floor = np.finfo(float).eps * float(np.abs(parts["margins"]).mean())
            if gap <= GAP_GATE * max(h.tol * final, floor):
                stop_reason = "converged"
                break
            if stalled:
                stop_reason = "stalled"
                break
    else:
        if not ws.all():
            grad = _transposed_product(parts["residual"], design, h.variant)
        gap = _duality_gap(final, grad, parts["residual"], col_means, design, gs, h)
    return x, SolverState(history, stop_reason, gap, int(np.count_nonzero(ws)), checks)


def _seed_working_set(x: ParameterSet, grad: np.ndarray, design: Design) -> np.ndarray:
    """The working set of a fit starting at ``x`` with gradient ``grad``
    there, as an (n_imaging, n_groups) mask: the interaction blocks live in
    ``x`` and the ``max(WORKING_SET_MIN, 2 * live)`` other blocks of highest
    ``||g_b|| / theta_b``, or all other blocks when there are no more."""
    live = np.logical_or.reduceat(x.interaction, design.groups.offsets, axis=1)
    n_live = int(np.count_nonzero(live))
    k = min(max(WORKING_SET_MIN, 2 * n_live), live.size - n_live)
    if k:  # [-0:] would select every block
        ratios = _block_ratios(grad, design)
        ratios[live] = -np.inf
        np.put(live, np.argpartition(ratios.ravel(), -k)[-k:], True)
    return live


@dataclass(frozen=True)
class ScreeningResult:
    """Smallest penalty strengths that zero out every group at the start.

    ``genetic_bounds`` and ``interaction_bounds`` hold, per group, the
    gradient norm at the zero parameter divided by the group weight (the
    interaction bound takes the worst imaging row).  The two scalars are
    the maxima of these tables.
    """

    lambda_genetic_max: float
    lambda_interaction_max: float
    genetic_bounds: np.ndarray
    interaction_bounds: np.ndarray


def screen_lambda_max(design: Design, gs: GroupStructure) -> ScreeningResult:
    """Critical penalty strengths from the risk gradient at zero.

    A group enters the model on the first iteration only if the norm of
    its gradient block exceeds ``lambda * weight``; strengths strictly
    above the returned bounds therefore keep the corresponding blocks at
    zero on the first update.  ``gs`` must be ``design.groups``.
    """
    _check_groups(design, gs)
    grad = risk_gradient(ParameterSet.zeros(design.n_imaging, design.expanded_size), design)
    genetic = ParameterSet._view(grad, design.n_imaging, design.expanded_size).genetic
    genetic_bounds = _group_norms(genetic, gs.offsets) / gs.weights
    interaction_bounds = _block_ratios(grad, design).max(axis=0)
    return ScreeningResult(
        lambda_genetic_max=float(genetic_bounds.max()),
        lambda_interaction_max=float(interaction_bounds.max()),
        genetic_bounds=genetic_bounds,
        interaction_bounds=interaction_bounds,
    )
