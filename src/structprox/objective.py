"""Loss, penalty, and gradient evaluation for the two-modality model.

The decision value of a sample is

    m = <W, C> + beta_I . x_I + beta_G . x_G + beta_0

where ``x_G`` is the expanded genetic vector, ``x_I`` the imaging vector,
and ``C`` the matrix of standardized pairwise products
``(x_I[i] * x_G[g] - mu[i, g]) / s[i, g]``.  Every design carries the
product statistics ``mu`` and ``s``; a raw design holds the identity
(mean 0, scale 1), under which the standardized product equals the raw
one bit for bit, so each kernel has one standardization path.  The
empirical risk is the mean logistic loss and the penalty combines group
norms on the (imaging row, group) blocks of the interaction matrix and on
the genetic groups with a squared norm on the imaging coefficients.

The penalty zeroes whole (imaging row, group) blocks of ``W``, so along a
fit most of ``W`` is often zero.  When the design carries its group layout
and at most half of the blocks are nonzero, :func:`margins` multiplies
only the live blocks (none for a zero ``W``), in a loop over the groups
that have one: one product of the group's live rows of ``W`` with its
genetic columns, then a row-wise dot with the matching imaging columns.
Each pass allocates at most N x (live rows of one group) values, on top
of vectors as long as the live entries of ``W``, which are gathered once.
Otherwise, and always for a design without groups, it forms the dense
product.  The paths add the same terms in a different order, so they
differ in rounding only.  The interaction gradient scales the imaging
matrix by the residuals, an N x n_imaging temporary, rather than the
N x E genetic one.

The logistic terms use overflow-free forms with one exponential of
``-|t|``: :func:`sigmoid` is ``1 / (1 + e)`` for ``t >= 0`` and
``e / (1 + e)`` below, and ``log(1 + e^t)`` is
``max(t, 0) + log1p(exp(-|t|))``.  Both equal the two-branch masked forms
bit for bit.  On small designs (tens of samples, a few features) an
evaluation costs numpy's per-call overhead far more than arithmetic, so
the kernels keep their numpy calls few and write the gradient into its
buffer in place.
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
    """Logistic function, elementwise on arrays; a 0-d input gives a float.

    Evaluated as ``1 / (1 + e)`` for ``t >= 0`` and ``e / (1 + e)`` below,
    with ``e = exp(-|t|)``, so the exponential never overflows.
    """
    arr = np.asarray(t, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("sigmoid received NaN input")
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
    return float(out) if arr.ndim == 0 else out


def _log1p_exp(t: np.ndarray) -> np.ndarray:
    # log(1 + e^t) as max(t, 0) + log1p(e^-|t|): the exponential never overflows.
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _log_sigmoid(t: np.ndarray) -> np.ndarray:
    return -_log1p_exp(-t)


class Design:
    """Evaluation-ready view of a dataset.

    Holds the imaging matrix, the overlap-expanded genetic matrix, the
    labels, the per-entry mean and scale of the pairwise product features,
    and (optionally) the ``GroupStructure`` whose expanded columns the
    genetic matrix holds.  The interaction term of the model reads the
    standardized product
    ``(x_I[i] * x_G[g] - cross_mean[i, g]) / cross_scale[i, g]``.  Given
    statistics are stored C-contiguous; without them the design holds the
    identity, read-only zero-stride views of 0 and 1 that allocate no
    (n_imaging, E) array.  The group layout lets :func:`margins` skip the
    zero blocks of ``W``; without it ``W`` always takes the dense product.
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
        shape = (imaging.shape[1], genetic_expanded.shape[1])
        if cross_mean is None:
            # zero-stride identity: no n_imaging x E array is allocated
            cross_mean = np.broadcast_to(0.0, shape)
            cross_scale = np.broadcast_to(1.0, shape)
        else:
            cross_mean = np.ascontiguousarray(cross_mean, dtype=float)
            cross_scale = np.ascontiguousarray(cross_scale, dtype=float)
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

    When ``design.groups`` is set and at most half of the (imaging row,
    group) blocks of ``W`` hold a nonzero entry, the interaction term is
    summed over those blocks alone, and a zero ``W`` adds none; otherwise,
    and always without ``groups``, it comes from the dense product
    ``genetic @ W.T``.  The choice changes rounding only.
    """
    _check_shapes(p, design)
    if variant == "multiplicative":
        m = np.full(design.n_samples, p.intercept)
    else:
        m = design.imaging @ p.imaging
        m += p.intercept
        m += design.genetic @ p.genetic
        if variant == "additive":
            return m
    w = p.interaction
    if design.groups is not None:
        # One pass over W gives the live mask, which also tells a zero W
        # (no block live) apart; logical_or reads a nonzero float as true.
        # Past half live, one dense product costs less than the small
        # per-group ones.
        live = np.logical_or.reduceat(w, design.groups.offsets, axis=1)
        n_live = np.count_nonzero(live)
        if 2 * n_live <= live.size:
            if n_live:
                _add_live_blocks(m, w, design, live)
            return m
    w = w / design.cross_scale
    # <W, C_k> for every k via one matrix product and a row-wise dot.
    m += np.einsum("ni,ni->n", design.genetic @ w.T, design.imaging)
    m -= float((w * design.cross_mean).sum())
    return m


def _add_live_blocks(m: np.ndarray, w: np.ndarray, design: Design, live: np.ndarray) -> None:
    """Add the interaction term to ``m`` from the blocks of ``w`` marked in
    the (n_imaging, n_groups) mask ``live``.

    The entries of all live blocks are gathered, scaled and dotted with the
    cross means at once, into vectors as long as those entries (at most
    half of ``w``).  Then one pass per live group forms one (live rows, N)
    product of the group's gathered rows with its genetic columns and adds
    its row-wise dot with the same imaging columns, so a pass allocates at
    most N x (live rows of that group) values.  The products are not
    stacked: with thousands of live blocks a (live blocks, N) buffer would
    outweigh the design.
    """
    gs = design.groups
    genetic_t, imaging_t = design.genetic.T, design.imaging.T
    # (group, row) pairs of the live blocks in group order, and where each
    # block starts among the gathered entries
    groups, rows = np.nonzero(live.T)
    sizes = gs.sizes[groups]
    starts = np.cumsum(sizes) - sizes
    entry_rows = rows.repeat(sizes)
    entry_cols = (gs.offsets[groups] - starts).repeat(sizes)
    entry_cols += np.arange(entry_cols.size)
    wl = w[entry_rows, entry_cols]
    wl /= design.cross_scale[entry_rows, entry_cols]
    offset = float(wl @ design.cross_mean[entry_rows, entry_cols])
    del entry_rows, entry_cols  # freed before the passes allocate theirs
    firsts = np.flatnonzero(np.diff(groups, prepend=-1)).tolist()
    groups, starts = groups.tolist(), starts.tolist()
    offsets, widths = gs.offsets.tolist(), gs.sizes.tolist()
    for a, b in zip(firsts, [*firsts[1:], len(groups)]):
        # pairs a .. b-1 are the live rows of group l
        l = groups[a]
        cols = slice(offsets[l], offsets[l] + widths[l])
        wb = wl[starts[a] : starts[a] + (b - a) * widths[l]].reshape(b - a, widths[l])
        m += np.einsum("rn,rn->n", wb @ genetic_t[cols], imaging_t[rows[a:b]])
    m -= offset


def risk(p: ParameterSet, design: Design, variant: str = "multilevel") -> float:
    """Mean logistic loss (1/N) sum_k [-y_k m_k + log(1 + e^{m_k})]."""
    if design.n_samples < 1:
        raise ValueError("risk needs at least one sample")
    m = margins(p, design, variant)
    return float((_log1p_exp(m) - design.labels * m).sum() / design.n_samples)


def risk_gradient(p: ParameterSet, design: Design, variant: str = "multilevel") -> np.ndarray:
    """Flat gradient of the empirical risk.

    The vector is the buffer of a ``ParameterSet`` whose blocks hold the
    gradient with respect to the matching parameter blocks, so
    ``ParameterSet.from_flat`` gives block views of it.  Blocks pinned at
    zero by the variant are returned as zeros (they never enter an update).
    Sample contributions are reduced with numpy sums, which keeps the
    reduction order fixed for a given shape.  The interaction block is
    ``(imaging * r[:, None]).T @ genetic`` for residuals ``r``: besides the
    margins and the output it allocates one N x n_imaging temporary, never
    an N x (expanded genetic) one.
    """
    m = margins(p, design, variant)
    r = sigmoid(m) - design.labels
    n = design.n_samples
    out = np.zeros(flat_length(design.n_imaging, design.expanded_size))
    grad = ParameterSet._view(out, design.n_imaging, design.expanded_size)
    grad.intercept = mean_r = r.sum() / n
    if variant != "additive":
        gw = grad.interaction
        np.matmul((design.imaging * r[:, None]).T, design.genetic, out=gw)
        gw /= n
        gw -= mean_r * design.cross_mean
        gw /= design.cross_scale
    if variant != "multiplicative":
        # Through locals: `grad.imaging /= n` would also run the block setter.
        gi, gg = grad.imaging, grad.genetic
        np.matmul(design.imaging.T, r, out=gi)
        gi /= n
        np.matmul(design.genetic.T, r, out=gg)
        gg /= n
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
