"""Proximal gradient solver with backtracking line search.

Each outer iteration takes a gradient step on the empirical risk, applies
the proximal operator of the penalty blockwise (soft-thresholding of each
(imaging row, group) block of the interaction matrix and of each genetic
group, shrinkage of the imaging block, plain step on the intercept), and
shrinks the stepsize until the candidate satisfies the quadratic
acceptance inequality.  Iterations stop once the relative change of the
penalized objective falls to the tolerance.

Iterates and gradients share the one buffer layout of
:class:`~structprox.core.ParameterSet`: the candidate's buffer starts as
the gradient step ``flat(p) - step * grad``, each proximal operator works
in place on its block of it, and the gradient mapping is computed from
the two buffers directly.  A line search starts at ``STEP_INIT``, or
higher when the last accepted move measured a curvature below
``GROWTH_MARGIN`` (see :func:`fit`); the curvature comes from the two
inner products the acceptance bound already forms.  The group
soft-threshold divides only where a group survives, so a zero block never
meets a 0/0.  On small designs an iteration costs the per-call overhead of
its numpy calls far more than arithmetic, so the loop keeps those calls
few.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "BACKTRACK_FACTOR",
    "STEP_INIT",
    "GROWTH_MARGIN",
]

MAX_BACKTRACKS = 200
BACKTRACK_FACTOR = 0.8
STEP_INIT = 1.0
GROWTH_MARGIN = 0.05


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


@dataclass(frozen=True)
class SolverState:
    """Outcome of a fit: the per-iteration history, whose first record is
    the starting point, and why the loop stopped (``"converged"`` or
    ``"max_iters"``).  The iteration count and the convergence flag are
    derived from these two."""

    history: list[IterationRecord]
    stop_reason: str

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


def _prox_group_rows(omega: np.ndarray, gs: GroupStructure, thresholds: np.ndarray) -> None:
    """Row-wise group soft-thresholding of an (n_rows, expanded) matrix, in place."""
    norms = np.sqrt(np.add.reduceat(omega**2, gs.offsets, axis=1))
    # thresholds / norms where a group survives, 1 elsewhere: no 0/0 arises.
    ratio = np.divide(thresholds, norms, out=np.ones_like(norms), where=norms > thresholds)
    omega *= (1.0 - ratio).repeat(gs.sizes, axis=1)


def parameter_update(
    p: ParameterSet,
    grad: np.ndarray,
    step: float,
    gs: GroupStructure,
    h: Hyperparameters,
) -> ParameterSet:
    """One proximal step at the given stepsize; returns the candidate.

    The candidate's buffer starts as the gradient step ``flat(p) - step *
    grad``.  Then the interaction rows and the genetic vector are
    soft-thresholded per group in place, with thresholds
    ``step * lambda * weight``, the imaging block is shrunk by
    ``1 / (1 + 2 step lambda_imaging)``, and the intercept keeps its plain
    gradient step.  Blocks pinned by the variant are set to zero.
    """
    if step <= 0:
        raise ValueError("step must be > 0, got %r" % step)
    grad = np.asarray(grad, dtype=float)
    x = p.flat()
    if grad.shape != x.shape:
        raise ValueError("gradient has shape %r, expected %r" % (grad.shape, x.shape))
    if not np.isfinite(grad).all():
        raise ValueError("gradient contains non-finite entries")
    candidate = ParameterSet._view(x - step * grad, p.n_imaging, p.expanded_size)
    if h.variant == "additive":
        candidate.interaction.fill(0.0)
    else:
        _prox_group_rows(candidate.interaction, gs, step * h.lambda_interaction * gs.weights)
    if h.variant == "multiplicative":
        candidate.imaging.fill(0.0)
        candidate.genetic.fill(0.0)
    else:
        np.divide(candidate.imaging, 1.0 + 2.0 * step * h.lambda_imaging, out=candidate.imaging)
        _prox_group_rows(candidate.genetic[None, :], gs, step * h.lambda_genetic * gs.weights)
    return candidate


def backtracking_step(
    p: ParameterSet,
    design: Design,
    gs: GroupStructure,
    h: Hyperparameters,
    grad: np.ndarray,
    risk_current: float,
    step: float = STEP_INIT,
):
    """Shrink the stepsize until the acceptance inequality holds.

    ``grad`` and ``risk_current`` are the risk gradient and risk at ``p``.
    Starting from the trial ``step`` the candidate from
    :func:`parameter_update` is accepted once

        risk(candidate) <= risk(p) - step * <grad, ghat> + step/2 * ||ghat||^2

    with the gradient mapping ``ghat = (flat(p) - flat(candidate)) / step``,
    and otherwise the step is multiplied by :data:`BACKTRACK_FACTOR`.
    Returns ``(candidate, step, n_shrinks, candidate_risk, curvature)``,
    where ``curvature`` is the risk's measured curvature along the accepted
    move ``d = flat(candidate) - flat(p)``,
    ``2 (risk(candidate) - risk(p) - <grad, d>) / ||d||^2``, formed from the
    two inner products of the bound (0 for a zero move).
    """
    x = p.flat()
    for shrinks in range(MAX_BACKTRACKS + 1):
        candidate = parameter_update(p, grad, step, gs, h)
        ghat = (x - candidate.flat()) / step
        g_ghat = float(grad @ ghat)
        ghat_sq = float(ghat @ ghat)
        bound = risk_current - step * g_ghat + 0.5 * step * ghat_sq
        candidate_risk = risk(candidate, design, h.variant)
        if candidate_risk <= bound:
            # d = -step * ghat: <grad, d> = -step * g_ghat, ||d||^2 = step^2 * ghat_sq
            curvature = 0.0
            if ghat_sq > 0.0:
                curvature = (
                    2.0 * (candidate_risk - risk_current + step * g_ghat)
                    / (step * step * ghat_sq)
                )
            return candidate, step, shrinks, candidate_risk, curvature
        step *= BACKTRACK_FACTOR
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

    Starts from zeros (or ``init``).  The first line search starts at
    :data:`STEP_INIT`, each next one at ``max(STEP_INIT, min(step /
    BACKTRACK_FACTOR, GROWTH_MARGIN / κ))`` for the last accepted step and
    its measured curvature κ (no ``min`` when κ <= 0), so only κ below
    ``GROWTH_MARGIN`` lets it grow.  Stops once ``|S_new - S_old| <= tol *
    |S_old|`` for the penalized objective S, or when ``max_iters`` is hit.
    Returns ``(params, SolverState)``.
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
    stop_reason = "max_iters"
    trial = STEP_INIT

    for it in range(1, h.max_iters + 1):
        prev = history[-1]
        grad = risk_gradient(p, design, h.variant)
        candidate, step, shrinks, cand_risk, curvature = backtracking_step(
            p, design, gs, h, grad, prev.risk, trial
        )
        cand_pen = penalty(candidate, gs, h)
        total = cand_risk + cand_pen
        if not np.isfinite(total):
            raise SolverFailure("objective diverged at iteration %d" % it)
        history.append(IterationRecord(it, cand_risk, cand_pen, total, step, shrinks))
        p = candidate
        trial = step / BACKTRACK_FACTOR
        if curvature > 0:
            trial = min(trial, GROWTH_MARGIN / curvature)
        trial = max(STEP_INIT, trial)
        if abs(total - prev.total) <= h.tol * abs(prev.total):
            stop_reason = "converged"
            break
    return p, SolverState(history, stop_reason)


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
