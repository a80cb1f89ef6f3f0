"""Distance from optimality of a fit, from structprox's public functions only.

At a minimizer of risk + penalty, for every group block b with weight
theta_b and strength lambda:

- a zero block has ||grad_b|| <= lambda theta_b, so its violation is
  ``max(0, ||grad_b|| - lambda theta_b)``;
- a nonzero block has grad_b + lambda theta_b b / ||b|| = 0, so its violation
  is the norm of that sum;
- the ridge block has grad_I + 2 lambda_I beta_I = 0 and the intercept
  grad_0 = 0.

The residual is the largest violation.  Dividing it by the screened
lambda_max makes it comparable across problems, and shows whether a faster
fit got there by stopping earlier.
"""

from __future__ import annotations

import numpy as np

from structprox.objective import risk_gradient
from structprox.solver import screen_lambda_max


def _group_violation(grad, coef, lam, gs) -> float:
    """Largest violation over the (row, group) blocks of 2-D grad/coef."""
    thr = lam * gs.weights
    coef_norm = np.sqrt(np.add.reduceat(coef**2, gs.offsets, axis=1))
    grad_norm = np.sqrt(np.add.reduceat(grad**2, gs.offsets, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        pull = np.where(coef_norm > 0, thr / coef_norm, 0.0)
    stationary = grad + coef * np.repeat(pull, gs.sizes, axis=1)
    nonzero = np.sqrt(np.add.reduceat(stationary**2, gs.offsets, axis=1))
    return float(np.where(coef_norm > 0, nonzero, np.maximum(0.0, grad_norm - thr)).max())


def kkt_residual(params, design, gs, h) -> float:
    """Largest blockwise KKT violation at ``params`` (blocks the variant pins are skipped)."""
    grad = risk_gradient(params, design, h.variant)
    n_i, n_g = params.interaction.shape
    cut = n_i * n_g
    g_w = grad[:cut].reshape(n_i, n_g)
    g_i = grad[cut : cut + n_i]
    g_g = grad[cut + n_i : cut + n_i + n_g]
    parts = [abs(float(grad[-1]))]
    if h.variant != "additive":
        parts.append(_group_violation(g_w, params.interaction, h.lambda_interaction, gs))
    if h.variant != "multiplicative":
        parts.append(float(np.linalg.norm(g_i + 2.0 * h.lambda_imaging * params.imaging)))
        parts.append(_group_violation(g_g[None, :], params.genetic[None, :], h.lambda_genetic, gs))
    return max(parts)


def lambda_max(design, gs) -> float:
    """The larger of the two screened critical strengths of a design."""
    bounds = screen_lambda_max(design, gs)
    return max(bounds.lambda_interaction_max, bounds.lambda_genetic_max)


def relative_kkt(params, design, gs, h) -> float:
    return kkt_residual(params, design, gs, h) / lambda_max(design, gs)
