"""Loss, penalty, and gradient evaluation for the two-modality model.

The decision value of a sample is

    m = <W, C> + beta_I . x_I + beta_G . x_G + beta_0

where ``x_G`` is the expanded genetic vector, ``x_I`` the imaging vector,
and ``C`` the matrix of (optionally standardized) pairwise products
``x_I[i] * x_G[g]``.  The empirical risk is the mean logistic loss and the
penalty combines group norms on the (imaging row, group) blocks of the
interaction matrix and on the genetic groups with a squared norm on the
imaging coefficients.

The penalty zeroes whole (imaging row, group) blocks of ``W``, so along a
fit most of ``W`` is often zero.  A zero ``W`` adds no interaction term.
When the design carries its group layout and at most half of the blocks
are nonzero, :func:`margins` multiplies only the live blocks; otherwise it
forms the dense product.  The paths add the same terms in a different
order, so they differ in rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset, GroupStructure, Hyperparameters, ParameterSet, expand_columns, flat_length,
)

__all__ = [
    "Design",
    "ObjectiveValue",
    "sigmoid",
    "margins",
    "risk",
    "risk_gradient",
    "penalty",
    "objective",
    "log_posterior_unnormalized",
]


def sigmoid(t):
    """Numerically stable logistic function, elementwise on arrays."""
    arr = np.asarray(t, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("sigmoid received NaN input")
    flat = np.atleast_1d(arr)
    out = np.empty_like(flat)
    pos = flat >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    e = np.exp(flat[~pos])
    out[~pos] = e / (1.0 + e)
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _log1p_exp(t: np.ndarray) -> np.ndarray:
    # log(1 + e^t) without overflow: for t > 0 use t + log1p(e^-t).
    out = np.empty_like(t)
    pos = t > 0
    out[pos] = t[pos] + np.log1p(np.exp(-t[pos]))
    out[~pos] = np.log1p(np.exp(t[~pos]))
    return out


def _log_sigmoid(t: np.ndarray) -> np.ndarray:
    return -_log1p_exp(-t)


class Design:
    """Evaluation-ready view of a dataset.

    Holds the imaging matrix, the overlap-expanded genetic matrix, the
    labels, (optionally) per-entry mean/scale for the pairwise product
    features, and (optionally) the ``GroupStructure`` whose expanded
    columns the genetic matrix holds.  When the product statistics are
    present, the interaction term of the model reads the standardized
    product ``(x_I[i] * x_G[g] - cross_mean[i, g]) / cross_scale[i, g]``.
    The group layout lets :func:`margins` skip the zero blocks of ``W``;
    without it a nonzero ``W`` always takes the dense product.
    """

    def __init__(
        self, imaging, genetic_expanded, labels, cross_mean=None, cross_scale=None,
        groups: GroupStructure | None = None,
    ):
        imaging = np.asarray(imaging, dtype=float)
        genetic_expanded = np.asarray(genetic_expanded, dtype=float)
        labels = np.asarray(labels, dtype=np.intp)
        if imaging.ndim != 2 or genetic_expanded.ndim != 2:
            raise ValueError("imaging and genetic matrices must be 2-D")
        n = imaging.shape[0]
        if genetic_expanded.shape[0] != n or labels.shape != (n,):
            raise ValueError(
                "row counts disagree: imaging %d, genetic %d, labels %r"
                % (n, genetic_expanded.shape[0], labels.shape)
            )
        if (cross_mean is None) != (cross_scale is None):
            raise ValueError("cross_mean and cross_scale must be given together")
        if cross_mean is not None:
            cross_mean = np.asarray(cross_mean, dtype=float)
            cross_scale = np.asarray(cross_scale, dtype=float)
            shape = (imaging.shape[1], genetic_expanded.shape[1])
            if cross_mean.shape != shape or cross_scale.shape != shape:
                raise ValueError(
                    "cross statistics must have shape %r, got %r and %r"
                    % (shape, cross_mean.shape, cross_scale.shape)
                )
            if np.any(cross_scale <= 0):
                raise ValueError("cross_scale entries must be > 0")
        if groups is not None and groups.expanded_size != genetic_expanded.shape[1]:
            raise ValueError(
                "groups expand to %d columns, the genetic matrix has %d"
                % (groups.expanded_size, genetic_expanded.shape[1])
            )
        self.imaging = imaging
        self.genetic = genetic_expanded
        self.labels = labels
        self.cross_mean = cross_mean
        self.cross_scale = cross_scale
        self.groups = groups

    @classmethod
    def from_dataset(cls, d: Dataset, gs: GroupStructure) -> "Design":
        """Expand a raw dataset without any product standardization."""
        return cls(d.imaging, expand_columns(d.genetic, gs), d.labels, groups=gs)

    @property
    def n_samples(self) -> int:
        return self.imaging.shape[0]

    @property
    def n_imaging(self) -> int:
        return self.imaging.shape[1]

    @property
    def expanded_size(self) -> int:
        return self.genetic.shape[1]


@dataclass(frozen=True)
class ObjectiveValue:
    """Penalized objective split into its two terms."""

    risk: float
    penalty: float
    total: float


def _check_shapes(p: ParameterSet, design: Design) -> None:
    if p.interaction.shape != (design.n_imaging, design.expanded_size):
        raise ValueError(
            "interaction shape %r does not match design (%d, %d)"
            % (p.interaction.shape, design.n_imaging, design.expanded_size)
        )


def margins(p: ParameterSet, design: Design, variant: str = "multilevel") -> np.ndarray:
    """Decision values of every sample in the design.

    A zero ``W`` adds no interaction term.  When ``design.groups`` is set
    and at most half of the (imaging row, group) blocks of ``W`` hold a
    nonzero entry, the interaction term is summed over those blocks alone;
    otherwise it comes from the dense product ``genetic @ W.T``.  The
    choice changes rounding only.
    """
    _check_shapes(p, design)
    m = np.full(design.n_samples, p.intercept, dtype=float)
    if variant != "multiplicative":
        m += design.imaging @ p.imaging
        m += design.genetic @ p.genetic
    w = p.interaction
    nonzero = np.count_nonzero(w) if variant != "additive" else 0
    if nonzero:
        # W with no zero entry has every block live; only a W with some
        # zeros needs the block mask.  Past half live, one dense product
        # costs less than the small per-group ones.
        live = None
        if design.groups is not None and nonzero < w.size:
            live = np.logical_or.reduceat(w != 0, design.groups.offsets, axis=1)
        if live is not None and 2 * np.count_nonzero(live) <= live.size:
            _add_live_blocks(m, w, design, live)
        else:
            if design.cross_scale is not None:
                w = w / design.cross_scale
            # <W, C_k> for every k via one matrix product and a row-wise dot.
            m += np.einsum("ni,ni->n", design.genetic @ w.T, design.imaging)
            if design.cross_mean is not None:
                m -= float(np.sum(w * design.cross_mean))
    return m


def _add_live_blocks(m: np.ndarray, w: np.ndarray, design: Design, live: np.ndarray) -> None:
    """Add the interaction term to ``m`` from the blocks of ``w`` marked in
    the (n_imaging, n_groups) mask ``live``: one product per group, over
    that group's live imaging rows."""
    gs = design.groups
    offset = 0.0
    for l in np.flatnonzero(live.any(axis=0)):
        rows = np.flatnonzero(live[:, l])
        blk = gs.block(int(l))
        wb = w[rows, blk]
        if design.cross_scale is not None:
            wb = wb / design.cross_scale[rows, blk]
        m += np.einsum("nr,nr->n", design.genetic[:, blk] @ wb.T, design.imaging[:, rows])
        if design.cross_mean is not None:
            offset += float(np.sum(wb * design.cross_mean[rows, blk]))
    m -= offset


def risk(p: ParameterSet, design: Design, variant: str = "multilevel") -> float:
    """Mean logistic loss (1/N) sum_k [-y_k m_k + log(1 + e^{m_k})]."""
    if design.n_samples < 1:
        raise ValueError("risk needs at least one sample")
    m = margins(p, design, variant)
    y = design.labels
    return float(np.mean(-y * m + _log1p_exp(m)))


def risk_gradient(p: ParameterSet, design: Design, variant: str = "multilevel") -> np.ndarray:
    """Flat gradient of the empirical risk.

    The vector is the buffer of a ``ParameterSet`` whose blocks hold the
    gradient with respect to the matching parameter blocks, so
    ``ParameterSet.from_flat`` gives block views of it.  Blocks pinned at
    zero by the variant are returned as zeros (they never enter an update).
    Sample contributions are reduced with numpy sums, which keeps the
    reduction order fixed for a given shape.
    """
    m = margins(p, design, variant)
    r = sigmoid(m) - design.labels
    n = design.n_samples
    out = np.zeros(flat_length(design.n_imaging, design.expanded_size))
    grad = ParameterSet.from_flat(out, design.n_imaging, design.expanded_size)
    grad.intercept = r.mean()
    if variant != "additive":
        gw = design.imaging.T @ (r[:, None] * design.genetic) / n
        if design.cross_mean is not None:
            gw = (gw - grad.intercept * design.cross_mean) / design.cross_scale
        grad.interaction = gw
    if variant != "multiplicative":
        grad.imaging = design.imaging.T @ r / n
        grad.genetic = design.genetic.T @ r / n
    return out


def penalty(p: ParameterSet, gs: GroupStructure, h: Hyperparameters) -> float:
    """Structured penalty value at ``p``.

    Group norms of the (imaging row, group) interaction blocks and of the
    genetic groups are weighted by the per-group weights; the imaging
    block contributes its squared norm.  The intercept is never penalized.
    """
    if p.expanded_size != gs.expanded_size:
        raise ValueError(
            "parameters have expanded size %d, groups give %d"
            % (p.expanded_size, gs.expanded_size)
        )
    w_norms = np.sqrt(np.add.reduceat(p.interaction**2, gs.offsets, axis=1))
    g_norms = np.sqrt(np.add.reduceat(p.genetic**2, gs.offsets))
    return float(
        h.lambda_interaction * (w_norms @ gs.weights).sum()
        + h.lambda_imaging * (p.imaging @ p.imaging)
        + h.lambda_genetic * (g_norms @ gs.weights)
    )


def objective(
    p: ParameterSet, design: Design, gs: GroupStructure, h: Hyperparameters
) -> ObjectiveValue:
    """Penalized objective: empirical risk plus structured penalty."""
    r = risk(p, design, h.variant)
    pen = penalty(p, gs, h)
    return ObjectiveValue(risk=r, penalty=pen, total=r + pen)


def log_posterior_unnormalized(
    p: ParameterSet, design: Design, gs: GroupStructure, h: Hyperparameters
) -> float:
    """Unnormalized log-posterior whose maximizer minimizes the objective.

    The likelihood term is the Bernoulli log-likelihood written through
    log-sigmoids, and the priors are multivariate Laplace densities on the
    group blocks plus a Gaussian on the imaging block, with concentrations
    scaled by the sample count.  Differences of this function equal
    ``-n_samples`` times differences of the penalized objective; the
    computation deliberately shares no code with :func:`risk` or
    :func:`penalty` so the identity can be cross-checked.
    """
    m = margins(p, design, h.variant)
    y = design.labels.astype(float)
    loglik = float(np.sum(y * _log_sigmoid(m) + (1.0 - y) * _log_sigmoid(-m)))
    log_prior = 0.0
    for l in range(gs.n_groups):
        blk = gs.block(l)
        theta = float(gs.weights[l])
        log_prior -= h.lambda_genetic * theta * float(np.linalg.norm(p.genetic[blk]))
        for i in range(p.n_imaging):
            log_prior -= h.lambda_interaction * theta * float(
                np.linalg.norm(p.interaction[i, blk])
            )
    log_prior -= h.lambda_imaging * float(np.dot(p.imaging, p.imaging))
    return loglik + design.n_samples * log_prior
