"""Loss, penalty, and gradient evaluation for the two-modality model.

The decision value of a sample is

    m = <W, C> + beta_I . x_I + beta_G . x_G + beta_0

where ``x_G`` is the expanded genetic vector, ``x_I`` the imaging vector,
and ``C`` the matrix of standardized pairwise products
``(x_I[i] * x_G[g] - mu[i, g]) / s[i, g]``.  A :class:`Design` is built
from raw rows and the training ``ScalingRecord``, which owns the
statistics' rules: it standardizes ``x_I`` and ``x_G`` by the record's
marginal statistics and expands ``x_G``, ``mu`` and ``s`` over its groups.
A raw design, built without a record, keeps the rows as given and holds
the identity statistics (mean 0, scale 1), under which the standardized
product equals the raw one bit for bit, so each kernel has one
standardization path.  The empirical risk is the mean logistic loss and
the penalty combines group norms on the (imaging row, group) blocks of
the interaction matrix and on the genetic groups with a squared norm on
the imaging coefficients.

The penalty zeroes whole (imaging row, group) blocks of ``W``, so along a
fit most of ``W`` is often zero, and the solver's working set asks for a
few blocks of the gradient.  One rule picks the kernel for the blocks live
in :func:`margins` or marked in :func:`risk_gradient`'s mask: up to half of
all blocks, one small product per group forms them (:func:`_add_live_blocks`,
:func:`_add_masked_blocks`); past half, the dense product does, and a
gradient zeroes the unmarked blocks.  The two kernels differ in rounding
only.  The interaction gradient scales the imaging matrix by the
residuals, an N x n_imaging temporary, rather than the N x E genetic one.

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

from .core import Dataset, GroupStructure, Hyperparameters, ParameterSet
from .core import _check_expanded_size, _check_variant_name, _numeric

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

    Built from the raw imaging matrix, the raw genetic matrix in its
    original columns, the labels, the ``GroupStructure`` over those columns
    and, for a standardized design, the training ``ScalingRecord`` (``None``
    for a raw design).  With a record, the design standardizes both
    modalities by the record's marginal statistics, so its rows and its
    product statistics always come from the same training set.  It then
    expands the genetic columns and the per-entry mean and scale of the
    pairwise product features over the groups, keeps the data checked and
    read-only through a ``Dataset``, and relies on the record for the
    statistics' rules (finite, every scale > 0) and for the groups it
    admits (``ScalingRecord.check_groups``).  Its group layout lets
    :func:`margins` skip the zero blocks of ``W``.  A raw design holds the
    identity, read-only zero-stride views of 0 and 1 that allocate no
    (n_imaging, E) array.
    """

    def __init__(self, imaging, genetic, labels, groups: GroupStructure, record=None):
        genetic = np.asarray(_numeric("genetic matrix", genetic), dtype=float)
        if record is not None:
            record.check_groups(groups)
        if genetic.ndim != 2 or genetic.shape[1] != groups.n_features:
            raise ValueError("genetic matrix has shape %r, groups cover %d features"
                             % (genetic.shape, groups.n_features))
        if record is not None:
            imaging = np.asarray(_numeric("imaging matrix", imaging), dtype=float)
            if imaging.ndim != 2 or imaging.shape[1] != record.n_imaging:
                raise ValueError("imaging matrix has shape %r, scaler was fit on %d columns"
                                 % (imaging.shape, record.n_imaging))
            genetic = (genetic - record.genetic_mean) / record.genetic_scale
            imaging = (imaging - record.imaging_mean) / record.imaging_scale
        # training statistics can overflow on outside rows; Dataset rejects that
        data = Dataset(genetic[:, groups.expansion_index], imaging, labels)
        if record is None:
            # zero-stride identity: no n_imaging x E array is allocated
            shape = (data.n_imaging, data.n_genetic)
            cross_mean = np.broadcast_to(0.0, shape)
            cross_scale = np.broadcast_to(1.0, shape)
        else:
            # take() returns C order; [:, idx] would return Fortran order
            cross_mean = record.cross_mean.take(groups.expansion_index, axis=1)
            cross_scale = record.cross_scale.take(groups.expansion_index, axis=1)
        self.imaging = data.imaging
        self.genetic = data.genetic
        self.labels = data.labels
        self.cross_mean = cross_mean
        self.cross_scale = cross_scale
        self.groups = groups

    @classmethod
    def from_dataset(cls, d: Dataset, gs: GroupStructure) -> "Design":
        """Expand a raw dataset without any product standardization."""
        return cls(d.imaging, d.genetic, d.labels, gs)

    @property
    def n_samples(self) -> int:
        return self.imaging.shape[0]

    @property
    def n_imaging(self) -> int:
        return self.imaging.shape[1]

    @property
    def expanded_size(self) -> int:
        return self.genetic.shape[1]


def _check_groups(design: Design, gs: GroupStructure) -> None:
    if gs is not design.groups:
        raise ValueError("groups must be the design's own GroupStructure")


@dataclass(frozen=True)
class ObjectiveValue:
    """Penalized objective split into its two terms."""

    risk: float
    penalty: float
    total: float


def _few_blocks(blocks: np.ndarray) -> bool:
    """Whether the mask ``blocks`` marks at most half of the blocks: past
    that, one dense product costs less than the small per-group ones."""
    return 2 * np.count_nonzero(blocks) <= blocks.size


def _group_norms(v: np.ndarray, offsets) -> np.ndarray:
    """Norm of each group ``offsets[l] : offsets[l + 1]`` along the last axis of ``v``."""
    return np.sqrt(np.add.reduceat(v**2, offsets, axis=-1))


def margins(p: ParameterSet, design: Design, variant: str = "multilevel") -> np.ndarray:
    """Decision values of every sample in the design.

    When at most half of the (imaging row, group) blocks of ``W`` given by
    ``design.groups`` hold a nonzero entry, the interaction term is summed
    over those blocks alone, and a zero ``W`` adds none; otherwise it comes
    from the dense product ``genetic @ W.T``.  The choice changes rounding
    only.  The blocks ``variant`` pins are skipped whatever they hold; an
    unknown variant raises ``ValueError``, in the risk and gradient too.
    """
    if p.interaction.shape != (design.n_imaging, design.expanded_size):
        raise ValueError(
            "interaction shape %r does not match design (%d, %d)"
            % (p.interaction.shape, design.n_imaging, design.expanded_size)
        )
    _check_variant_name(variant)
    if variant == "multiplicative":
        m = np.full(design.n_samples, p.intercept)
    else:
        m = design.imaging @ p.imaging
        m += p.intercept
        m += design.genetic @ p.genetic
        if variant == "additive":
            return m
    w = p.interaction
    # One pass over W gives the live mask, which also tells a zero W (no
    # block live) apart; logical_or reads a nonzero float as true.
    live = np.logical_or.reduceat(w, design.groups.offsets, axis=1)
    if _few_blocks(live):
        if live.any():
            _add_live_blocks(m, w, design, live)
        return m
    w = w / design.cross_scale
    # <W, C_k> for every k via one matrix product and a row-wise dot.
    m += np.einsum("ni,ni->n", design.genetic @ w.T, design.imaging)
    m -= float((w * design.cross_mean).sum())
    return m


def _block_layout(rows: np.ndarray, groups: np.ndarray, gs: GroupStructure):
    """Where the (imaging row, group) blocks ``(rows[j], groups[j])`` lie,
    their entries listed block after block: each block's size and the start
    of its entries in that list, and the row and column of every entry."""
    sizes = gs.sizes[groups]
    starts = np.cumsum(sizes) - sizes
    entry_cols = (gs.offsets[groups] - starts).repeat(sizes)
    entry_cols += np.arange(entry_cols.size)
    return sizes, starts, rows.repeat(sizes), entry_cols


def _block_entries(blocks: np.ndarray, gs: GroupStructure):
    """Where the blocks marked in the (n_imaging, n_groups) mask ``blocks``
    lie, taken as (group, row) pairs in group order.

    Returns the row of each pair, the row and column of each entry of the
    marked blocks (pair after pair), and one ``(l, a, b, start)`` per group
    with a marked row: pairs ``a .. b-1`` are group ``l``'s rows, and their
    entries start at ``start``.
    """
    groups, rows = np.nonzero(blocks.T)
    _, starts, entry_rows, entry_cols = _block_layout(rows, groups, gs)
    firsts = np.flatnonzero(np.diff(groups, prepend=-1))
    ends = [*firsts[1:].tolist(), len(groups)]
    runs = zip(groups[firsts].tolist(), firsts.tolist(), ends, starts[firsts].tolist())
    return rows, entry_rows, entry_cols, list(runs)


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
    rows, entry_rows, entry_cols, runs = _block_entries(live, gs)
    wl = w[entry_rows, entry_cols]
    wl /= design.cross_scale[entry_rows, entry_cols]
    offset = float(wl @ design.cross_mean[entry_rows, entry_cols])
    del entry_rows, entry_cols  # freed before the passes allocate theirs
    offsets, widths = gs.offsets.tolist(), gs.sizes.tolist()
    for l, a, b, start in runs:
        cols = slice(offsets[l], offsets[l] + widths[l])
        wb = wl[start : start + (b - a) * widths[l]].reshape(b - a, widths[l])
        m += np.einsum("rn,rn->n", wb @ genetic_t[cols], imaging_t[rows[a:b]])
    m -= offset


def _mean_loss(m: np.ndarray, design: Design) -> float:
    return float((_log1p_exp(m) - design.labels * m).sum() / design.n_samples)


def risk(p: ParameterSet, design: Design, variant: str = "multilevel") -> float:
    """Mean logistic loss (1/N) sum_k [-y_k m_k + log(1 + e^{m_k})]."""
    return _mean_loss(margins(p, design, variant), design)


def risk_gradient(
    p: ParameterSet,
    design: Design,
    variant: str = "multilevel",
    *,
    parts: dict | None = None,
    blocks: np.ndarray | None = None,
) -> np.ndarray:
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

    A dict passed as ``parts`` receives the margins ``m`` this call forms
    under ``"margins"``, the risk at ``p`` from them under ``"risk"``, equal
    to :func:`risk`'s bit for bit, and the residuals ``sigmoid(m) - y`` under
    ``"residual"``.

    An (n_imaging, n_groups) mask passed as ``blocks``, where any nonzero
    entry marks its block, restricts the interaction gradient to the
    (imaging row, group) blocks it marks, formed one product per group up
    to half of the blocks and by the dense product past half: they equal
    the dense gradient's up to rounding, and every other interaction block
    is returned as zeros, as a pinned block is.  The imaging, genetic and
    intercept blocks are formed in full either way; no mask marks every
    block.
    """
    m = margins(p, design, variant)
    r = sigmoid(m) - design.labels
    if parts is not None:
        parts.update(margins=m, risk=_mean_loss(m, design), residual=r)
    return _transposed_product(r, design, variant, blocks)


def _transposed_product(
    r: np.ndarray, design: Design, variant: str, blocks: np.ndarray | None = None
) -> np.ndarray:
    """``(1/N) A^T r`` in the flat parameter layout, for the design's feature
    matrix ``A`` with its column of ones last: :func:`risk_gradient` for the
    residuals ``r``, with the blocks ``variant`` pins, and the interaction
    blocks outside the mask ``blocks`` if one is given, left at zero."""
    shape = (design.n_imaging, design.groups.n_groups)
    blocks = np.ones(shape, dtype=bool) if blocks is None else np.asarray(blocks, dtype=bool)
    if blocks.shape != shape:
        raise ValueError("blocks mask has shape %r, expected %r" % (blocks.shape, shape))
    n = design.n_samples
    grad = ParameterSet.zeros(design.n_imaging, design.expanded_size)
    grad.intercept = mean_r = r.sum() / n
    if variant != "additive":
        gw = grad.interaction
        if _few_blocks(blocks):
            _add_masked_blocks(gw, r, mean_r, design, blocks)
        else:
            np.matmul((design.imaging * r[:, None]).T, design.genetic, out=gw)
            gw /= n
            gw -= mean_r * design.cross_mean
            gw /= design.cross_scale
            _zero_outside(gw, blocks, design.groups)
    if variant != "multiplicative":
        # Through locals: `grad.imaging /= n` would also run the block setter.
        gi, gg = grad.imaging, grad.genetic
        np.matmul(design.imaging.T, r, out=gi)
        gi /= n
        np.matmul(design.genetic.T, r, out=gg)
        gg /= n
    return grad.flat()


def _add_masked_blocks(
    gw: np.ndarray, r: np.ndarray, mean_r: float, design: Design, blocks: np.ndarray
) -> None:
    """Write into the zero interaction gradient ``gw`` the blocks marked in
    the (n_imaging, n_groups) mask ``blocks``.

    The imaging columns are scaled by the residuals, and each marked
    block's row of them gathered, a (marked blocks) x N temporary.  Then one
    product per group with a marked row, of those scaled rows with the
    group's genetic columns, fills that group's blocks in a vector of the
    marked entries, which the cross means and scales then correct as the
    dense path corrects all of ``gw``.
    """
    gs = design.groups
    rows, entry_rows, entry_cols, runs = _block_entries(blocks, gs)
    scaled = np.multiply(design.imaging.T, r, order="C")[rows]
    values = np.empty(entry_rows.size)
    offsets, widths = gs.offsets.tolist(), gs.sizes.tolist()
    for l, a, b, start in runs:
        out = values[start : start + (b - a) * widths[l]].reshape(b - a, widths[l])
        np.matmul(scaled[a:b], design.genetic[:, offsets[l] : offsets[l] + widths[l]], out=out)
    values /= design.n_samples
    values -= mean_r * design.cross_mean[entry_rows, entry_cols]
    values /= design.cross_scale[entry_rows, entry_cols]
    gw[entry_rows, entry_cols] = values


def _zero_outside(gw: np.ndarray, blocks: np.ndarray, gs: GroupStructure) -> None:
    """Zero, in place, the blocks of ``gw`` outside the boolean mask ``blocks``."""
    if not blocks.all():
        np.copyto(gw, 0.0, where=~blocks.repeat(gs.sizes, axis=1))


def penalty(p: ParameterSet, gs: GroupStructure, h: Hyperparameters) -> float:
    """Structured penalty value at ``p``.

    Group norms of the (imaging row, group) interaction blocks and of the
    genetic groups are weighted by the per-group weights; the imaging
    block contributes its squared norm.  The intercept is never penalized.
    """
    _check_expanded_size(p, gs)
    return float(
        h.lambda_interaction * (_group_norms(p.interaction, gs.offsets) @ gs.weights).sum()
        + h.lambda_imaging * (p.imaging @ p.imaging)
        + h.lambda_genetic * (_group_norms(p.genetic, gs.offsets) @ gs.weights)
    )


def objective(
    p: ParameterSet, design: Design, gs: GroupStructure, h: Hyperparameters
) -> ObjectiveValue:
    """Penalized objective: empirical risk plus structured penalty."""
    _check_groups(design, gs)
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
    _check_groups(design, gs)
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
