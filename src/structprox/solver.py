"""Proximal gradient solver with backtracking line search.

Each outer iteration takes a gradient step on the empirical risk, applies
the proximal operator of the penalty blockwise (soft-thresholding of each
(imaging row, group) block of the interaction matrix and of each genetic
group, shrinkage of the imaging block, plain step on the intercept), and
shrinks the stepsize until the candidate satisfies the quadratic
acceptance inequality.  Iterations stop once the relative change of the
penalized objective falls to the tolerance.

Iterates and gradients share the one buffer layout of
:class:`~structprox.core.ParameterSet`: the gradient is read through
``ParameterSet.from_flat`` views, each proximal result is written into
the candidate's buffer, and the gradient mapping is computed from the
two buffers directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GroupStructure, Hyperparameters, ParameterSet
from .objective import Design, penalty, risk, risk_gradient

__all__ = [
    "SolverFailure",
    "IterationRecord",
    "SolverState",
    "ScreeningResult",
    "prox_group",
    "prox_ridge",
    "parameter_update",
    "backtracking_step",
    "fit",
    "screen_lambda_max",
    "MAX_BACKTRACKS",
]

MAX_BACKTRACKS = 200


class SolverFailure(RuntimeError):
    """Raised when the line search stalls or the objective degenerates."""


@dataclass(frozen=True)
class IterationRecord:
    """One accepted iteration of the outer loop."""

    iteration: int
    risk: float
    penalty: float
    total: float
    step: float
    backtracks: int


@dataclass
class SolverState:
    """Outcome of a fit: final iterate, trace, and stop diagnostics."""

    params: ParameterSet
    iterations: int
    step: float
    history: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = "max_iters"

    @property
    def trace(self) -> np.ndarray:
        """Objective values of the initial point and every accepted iterate."""
        return np.array([rec.total for rec in self.history])


def prox_group(block, threshold: float) -> np.ndarray:
    """Proximal operator of ``threshold * ||.||_2`` on one block.

    Shrinks the block norm by ``threshold`` and returns exact zeros when
    the norm does not exceed it (including the zero block).
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0, got %r" % threshold)
    block = np.asarray(block, dtype=float)
    norm = float(np.linalg.norm(block))
    if norm <= threshold:
        return np.zeros_like(block)
    return (1.0 - threshold / norm) * block


def prox_ridge(block, step: float, lam: float) -> np.ndarray:
    """Proximal operator of ``step * lam * ||.||_2^2``: uniform shrinkage."""
    if step <= 0:
        raise ValueError("step must be > 0, got %r" % step)
    if lam < 0:
        raise ValueError("lam must be >= 0, got %r" % lam)
    block = np.asarray(block, dtype=float)
    return block / (1.0 + 2.0 * step * lam)


def _prox_group_rows(omega: np.ndarray, gs: GroupStructure, thresholds: np.ndarray) -> np.ndarray:
    """Row-wise group soft-thresholding of an (n_rows, expanded) matrix."""
    sq = np.add.reduceat(omega**2, gs.offsets, axis=1)
    norms = np.sqrt(sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(norms > thresholds, 1.0 - thresholds / norms, 0.0)
    return omega * np.repeat(factor, gs.sizes, axis=1)


def parameter_update(
    p: ParameterSet,
    grad: np.ndarray,
    step: float,
    gs: GroupStructure,
    h: Hyperparameters,
) -> ParameterSet:
    """One proximal step at the given stepsize; returns the candidate.

    The interaction rows and the genetic vector are soft-thresholded per
    group with thresholds ``step * lambda * weight``, the imaging block is
    shrunk by ``1 / (1 + 2 step lambda_imaging)``, and the intercept takes
    a plain gradient step.  Blocks pinned by the variant stay at zero.
    """
    if step <= 0:
        raise ValueError("step must be > 0, got %r" % step)
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient contains non-finite entries")
    g = ParameterSet.from_flat(grad, p.n_imaging, p.expanded_size)
    candidate = ParameterSet.zeros(p.n_imaging, p.expanded_size)
    if h.variant != "additive":
        thr_w = step * h.lambda_interaction * gs.weights
        candidate.interaction = _prox_group_rows(
            p.interaction - step * g.interaction, gs, thr_w
        )
    if h.variant != "multiplicative":
        candidate.imaging = prox_ridge(p.imaging - step * g.imaging, step, h.lambda_imaging)
        thr_g = step * h.lambda_genetic * gs.weights
        candidate.genetic = _prox_group_rows(
            (p.genetic - step * g.genetic)[None, :], gs, thr_g
        )[0]
    candidate.intercept = p.intercept - step * g.intercept
    return candidate


def backtracking_step(
    p: ParameterSet,
    design: Design,
    gs: GroupStructure,
    h: Hyperparameters,
    step_init: float | None = None,
    grad: np.ndarray | None = None,
    risk_current: float | None = None,
):
    """Shrink the stepsize until the acceptance inequality holds.

    Starting from ``step_init`` the candidate from
    :func:`parameter_update` is accepted once

        risk(candidate) <= risk(p) - step * <grad, ghat> + step/2 * ||ghat||^2

    with the gradient mapping ``ghat = (flat(p) - flat(candidate)) / step``,
    and otherwise the step is multiplied by the backtrack factor.  Returns
    ``(candidate, step, n_shrinks, candidate_risk)``.
    """
    if step_init is None:
        step_init = h.step_init
    if grad is None:
        grad = risk_gradient(p, design, h.variant)
    if risk_current is None:
        risk_current = risk(p, design, h.variant)
    step = float(step_init)
    for shrinks in range(MAX_BACKTRACKS + 1):
        candidate = parameter_update(p, grad, step, gs, h)
        ghat = (p.flat() - candidate.flat()) / step
        bound = (
            risk_current
            - step * float(grad @ ghat)
            + 0.5 * step * float(ghat @ ghat)
        )
        candidate_risk = risk(candidate, design, h.variant)
        if candidate_risk <= bound:
            return candidate, step, shrinks, candidate_risk
        step *= h.backtrack_factor
    raise SolverFailure(
        "line search failed: %d shrinkages reached step %.3e without acceptance"
        % (MAX_BACKTRACKS, step)
    )


def _check_init(init: ParameterSet, h: Hyperparameters) -> None:
    if h.variant == "additive" and np.any(init.interaction != 0):
        raise ValueError("additive variant requires a zero interaction block at init")
    if h.variant == "multiplicative" and (
        np.any(init.imaging != 0) or np.any(init.genetic != 0)
    ):
        raise ValueError(
            "multiplicative variant requires zero imaging/genetic blocks at init"
        )


def fit(
    design: Design,
    gs: GroupStructure,
    h: Hyperparameters,
    init: ParameterSet | None = None,
):
    """Run the solver to convergence.

    Starts from zeros (or ``init``), resets the stepsize each outer
    iteration, and stops once ``|S_new - S_old| <= tol * |S_old|`` for the
    penalized objective S, or when ``max_iters`` is hit.  Returns
    ``(params, SolverState)``.
    """
    if gs.expanded_size != design.expanded_size:
        raise ValueError(
            "groups give expanded size %d, design has %d"
            % (gs.expanded_size, design.expanded_size)
        )
    if init is None:
        p = ParameterSet.zeros(design.n_imaging, design.expanded_size)
    else:
        _check_init(init, h)
        p = init.copy()

    r0 = risk(p, design, h.variant)
    pen0 = penalty(p, gs, h)
    total0 = r0 + pen0
    if not np.isfinite(total0):
        raise SolverFailure("objective is non-finite at the initial point")
    history = [IterationRecord(0, r0, pen0, total0, 0.0, 0)]
    converged = False
    stop_reason = "max_iters"
    accepted_step = 0.0

    for it in range(1, h.max_iters + 1):
        prev = history[-1]
        grad = risk_gradient(p, design, h.variant)
        candidate, step, shrinks, cand_risk = backtracking_step(
            p, design, gs, h, h.step_init, grad, prev.risk
        )
        cand_pen = penalty(candidate, gs, h)
        total = cand_risk + cand_pen
        if not np.isfinite(total):
            raise SolverFailure("objective diverged at iteration %d" % it)
        history.append(IterationRecord(it, cand_risk, cand_pen, total, step, shrinks))
        p = candidate
        accepted_step = step
        if abs(total - prev.total) <= h.tol * abs(prev.total):
            converged = True
            stop_reason = "converged"
            break

    state = SolverState(
        params=p,
        iterations=len(history) - 1,
        step=accepted_step,
        history=history,
        converged=converged,
        stop_reason=stop_reason,
    )
    return p, state


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
    zero on the first update.
    """
    p0 = ParameterSet.zeros(design.n_imaging, design.expanded_size)
    grad = ParameterSet.from_flat(
        risk_gradient(p0, design, "multilevel"), design.n_imaging, design.expanded_size
    )
    g_norms = np.sqrt(np.add.reduceat(grad.genetic**2, gs.offsets))
    w_norms = np.sqrt(np.add.reduceat(grad.interaction**2, gs.offsets, axis=1))
    genetic_bounds = g_norms / gs.weights
    interaction_bounds = w_norms.max(axis=0) / gs.weights
    return ScreeningResult(
        lambda_genetic_max=float(genetic_bounds.max()),
        lambda_interaction_max=float(interaction_bounds.max()),
        genetic_bounds=genetic_bounds,
        interaction_bounds=interaction_bounds,
    )
