"""Prediction, classification metrics, cross-validation, and the reduced
parameter summaries used in reports.

A single model is trained by the three stage calls ``fit_scaler``,
``make_design`` and ``fit``; this module scores what they produce.
Rates are expressed as percentages.  Cross-validation keeps scaling and
model selection strictly inside each training fold.  Each split, outer or
inner, gets one scaler fitted on its training rows and one design for each
side, reused by every grid point fitted on it.  Independent fold fits
may run in parallel when the ``STRUCTPROX_THREADS`` environment variable
asks for more than one worker, and results are always reduced in fold
order so reruns are reproducible.  The pooled report is computed from the
out-of-fold predictions themselves.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .core import (Dataset, GroupStructure, Hyperparameters, ParameterSet,
                   _binary_labels, _check_expanded_size, _integer)
from .objective import Design, margins, sigmoid
from .preprocessing import ScalingRecord, fit_scaler, make_design
from .solver import fit

__all__ = [
    "MetricsReport",
    "MeanMetrics",
    "ReducedParameters",
    "SelectedGroups",
    "CvResult",
    "balanced_accuracy",
    "confusion",
    "metrics",
    "predict",
    "log_grid",
    "make_grid",
    "stratified_folds",
    "kfold_cv",
    "reduce_parameters",
    "selected_groups",
]


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts and the derived rates, in percent.

    ``precision`` is None when no positive predictions were made.
    """

    tp: int
    fp: int
    tn: int
    fn: int
    sensitivity: float
    specificity: float
    precision: float | None
    balanced_accuracy: float


@dataclass(frozen=True)
class MeanMetrics:
    """Per-fold averages of the rates; entries are None when no fold
    defines them."""

    sensitivity: float | None
    specificity: float | None
    precision: float | None
    balanced_accuracy: float | None


def balanced_accuracy(sensitivity: float, specificity: float) -> float:
    """Arithmetic mean of sensitivity and specificity."""
    return (sensitivity + specificity) / 2.0


def confusion(y_true, y_pred):
    """Confusion counts ``(tp, fp, tn, fn)`` for equally long 1-D arrays of 0/1 labels."""
    y_true = _binary_labels("y_true", y_true)
    y_pred = _binary_labels("y_pred", y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(
            "label arrays must be 1-D and equally long, got %r and %r"
            % (y_true.shape, y_pred.shape)
        )
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return tp, fp, tn, fn


def metrics(y_true, y_pred) -> MetricsReport:
    """Sensitivity, specificity, precision, and balanced accuracy."""
    return _report(*confusion(y_true, y_pred))


def _report(tp, fp, tn, fn) -> MetricsReport:
    if tp + fn == 0:
        raise ValueError("no positive samples: sensitivity is undefined")
    if tn + fp == 0:
        raise ValueError("no negative samples: specificity is undefined")
    sen = 100.0 * tp / (tp + fn)
    spe = 100.0 * tn / (tn + fp)
    pre = None if tp + fp == 0 else 100.0 * tp / (tp + fp)
    return MetricsReport(
        tp=tp, fp=fp, tn=tn, fn=fn,
        sensitivity=sen,
        specificity=spe,
        precision=pre,
        balanced_accuracy=balanced_accuracy(sen, spe),
    )


def predict(
    params: ParameterSet,
    record: ScalingRecord,
    gs: GroupStructure,
    genetic,
    imaging,
    threshold: float = 0.5,
    variant: str = "multilevel",
):
    """Probabilities and thresholded labels for raw feature rows.

    The rows are standardized with the stored training statistics before
    evaluation; returns ``(probabilities, labels)``.  ``variant`` is checked
    (:meth:`ParameterSet.check_variant`), not applied: parameters it admits
    already hold its pinned blocks at zero.
    """
    if record is None:
        raise ValueError("predict needs a fitted scaling record")
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1), got %r" % threshold)
    params.check_variant(variant)
    design = Design(imaging, genetic, np.zeros(np.shape(genetic)[:1], dtype=int), gs, record)
    return _classify(params, design, threshold)


def log_grid(num: int = 7) -> np.ndarray:
    """``num`` logarithmically spaced penalty strengths from 1e-3 to 1, ascending."""
    num = _integer("num", num)
    if num < 1:
        raise ValueError("grid needs at least one point")
    if num == 1:
        return np.array([1.0])
    return np.geomspace(1e-3, 1.0, num)


def make_grid(
    interaction_values,
    imaging_values,
    genetic_values,
    variant: str = "multilevel",
) -> list[Hyperparameters]:
    """All combinations of the given strengths, in deterministic order."""
    grid = [
        Hyperparameters(
            lambda_interaction=float(w),
            lambda_imaging=float(i),
            lambda_genetic=float(g),
            variant=variant,
        )
        for w, i, g in product(interaction_values, imaging_values, genetic_values)
    ]
    if not grid:
        raise ValueError("empty hyperparameter grid")
    return grid


def stratified_folds(labels, k: int, seed: int = 0) -> list[np.ndarray]:
    """Class-balanced partition into k folds of test indices.

    Samples of each class are shuffled with the seed, the classes follow
    one another in sorted label order, and that sequence is dealt to the
    folds round-robin, so fold sizes, overall and per class, differ by at
    most one.  Deterministic for a given ``(labels, k, seed)``.
    """
    labels = np.asarray(labels)
    k = _integer("k", k)
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError("seed must be >= 0, got %d" % seed)
    if k < 2:
        raise ValueError("k must be >= 2, got %d" % k)
    if labels.shape[0] < k:
        raise ValueError(
            "cannot split %d samples into %d folds" % (labels.shape[0], k)
        )
    rng = np.random.default_rng(seed)
    # the classes are dealt as one sequence, so k = N still fills every fold
    order = np.concatenate([rng.permutation(np.flatnonzero(labels == cls))
                            for cls in np.unique(labels)])
    return [np.sort(order[f::k]) for f in range(k)]


@dataclass(frozen=True)
class SelectedGroups:
    """Indices of groups carrying nonzero coefficients."""

    genetic: tuple[int, ...]
    interaction: tuple[int, ...]


def selected_groups(p: ParameterSet, gs: GroupStructure) -> SelectedGroups:
    """Groups with a nonzero genetic block or interaction column block."""
    red = reduce_parameters(p, gs)
    return SelectedGroups(
        genetic=tuple(int(l) for l in np.flatnonzero(red.genetic > 0)),
        interaction=tuple(int(l) for l in np.flatnonzero(red.interaction.max(axis=0) > 0)),
    )


@dataclass(frozen=True)
class ReducedParameters:
    """Blockwise maximum absolute values of the fitted parameters.

    ``interaction`` is (n_imaging, n_groups): the largest |entry| of each
    row/group block.  ``genetic`` is per group, ``imaging`` per feature.
    """

    interaction: np.ndarray
    imaging: np.ndarray
    genetic: np.ndarray


def reduce_parameters(p: ParameterSet, gs: GroupStructure) -> ReducedParameters:
    _check_expanded_size(p, gs)
    return ReducedParameters(
        interaction=np.maximum.reduceat(np.abs(p.interaction), gs.offsets, axis=1),
        imaging=np.abs(p.imaging),
        genetic=np.maximum.reduceat(np.abs(p.genetic), gs.offsets),
    )


@dataclass
class CvResult:
    """Cross-validation outcome.

    ``fold_metrics[f]`` is None when the test fold holds a single class
    (its predictions still enter ``pooled``).  ``mean`` averages rates over
    folds where they are defined.  ``chosen[f]`` is the grid point picked
    for fold ``f`` and ``selected[f]`` the groups its final fit retained.
    """

    k: int
    selection: str
    fold_test_indices: list[np.ndarray]
    fold_metrics: list[MetricsReport | None]
    pooled: MetricsReport
    mean: MeanMetrics
    chosen: list[Hyperparameters]
    selected: list[SelectedGroups]
    probabilities: np.ndarray
    predictions: np.ndarray


def _thread_count() -> int:
    raw = os.environ.get("STRUCTPROX_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError("STRUCTPROX_THREADS must be an integer of at least 1, got %r" % raw)
    return n


def _ordered_map(fn, items):
    workers = min(_thread_count(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _pooled_bacc(tp: int, fp: int, tn: int, fn: int) -> float:
    try:
        return _report(tp, fp, tn, fn).balanced_accuracy
    except ValueError:  # a class is absent from the pooled labels
        return float("-inf")


def _classify(params: ParameterSet, design, threshold: float):
    probs = sigmoid(margins(params, design))
    return probs, (probs >= threshold).astype(np.intp)


def _build_split(d: Dataset, gs, train_idx, test_idx, normalization):
    """A split's ``(train, test)`` designs, scaled by one fit on its training rows."""
    train = d.subset(train_idx)
    record = fit_scaler(train, normalization)
    return make_design(train, gs, record), make_design(d.subset(test_idx), gs, record)


def _score_grid(splits, gs, grid, threshold):
    """The grid point with the best balanced accuracy pooled over the test
    sides of ``splits`` (``(train, test)`` design pairs), the first on ties,
    and its ``(params, probabilities, predictions)`` on the last split.

    Splits run outside the grid, so one split's designs are alive at a time;
    every fit is cold.  On the last split a point's pooled counts are
    complete once it is fitted, so the running best there is the overall
    best, and only its fit is kept.  A fit holds its variant's pinned
    blocks at zero, so the margins need no variant."""
    counts = np.zeros((len(grid), 4), dtype=np.int64)
    for train, test in splits:
        best = None
        for j, h in enumerate(grid):
            params, _ = fit(train, gs, h)
            probs, preds = _classify(params, test, threshold)
            counts[j] += confusion(test.labels, preds)
            score = _pooled_bacc(*counts[j])
            if best is None or score > best_score:
                best, best_score, fitted = h, score, (params, probs, preds)
    return best, fitted


def kfold_cv(
    d: Dataset,
    gs: GroupStructure,
    grid,
    k: int = 10,
    seed: int = 0,
    selection: str = "nested",
    inner_k: int = 3,
    normalization: str = "sd",
    threshold: float = 0.5,
) -> CvResult:
    """Stratified k-fold cross-validation with per-fold grid selection.

    ``selection="nested"`` picks each fold's grid point by pooled balanced
    accuracy over an inner split of that fold's training data, so the test
    fold never informs the choice.  ``selection="oracle"`` picks by test
    fold balanced accuracy instead and is optimistic by construction; it
    is reported only as an upper reference.  Every fold ends in one scoring
    pass on its outer split, over the whole grid (oracle), the one point of
    a one-point grid, or the nested choice, and the winner's scoring fit
    there is the fold's final fit.  Each split's scaler and train/test
    designs are built once and reused for every grid point fitted on it.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty hyperparameter grid")
    if selection not in ("nested", "oracle"):
        raise ValueError("selection must be 'nested' or 'oracle', got %r" % selection)
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1), got %r" % threshold)
    k = _integer("k", k)
    inner_k = _integer("inner_k", inner_k)
    if inner_k < 2:
        raise ValueError("inner_k must be >= 2, got %r" % inner_k)
    labels = d.labels
    if np.unique(labels).size < 2:
        raise ValueError("cross-validation needs both classes present")
    folds = stratified_folds(labels, k, seed)
    train_sets = []
    for f, test_idx in enumerate(folds):
        train_idx = np.delete(np.arange(d.n_samples), test_idx)
        if np.unique(labels[train_idx]).size < 2:
            raise ValueError(
                "fold %d leaves a single-class training set; use a smaller k" % f
            )
        train_sets.append(train_idx)

    def run_fold(f: int):
        train_idx, test_idx = train_sets[f], folds[f]
        # oracle, and nested on a one-point grid, score the grid on the outer split alone
        points = grid
        if selection == "nested" and len(grid) > 1:
            train_labels = labels[train_idx]
            counts = [int(np.sum(train_labels == c)) for c in (0, 1)]
            inner = min(inner_k, min(counts))
            if inner < 2:
                raise ValueError(
                    "fold %d training data cannot support an inner split; "
                    "use a smaller k or a single grid point" % f
                )
            inner_folds = stratified_folds(train_labels, inner, seed + 7919 * (f + 1))
            splits = (
                _build_split(d, gs, np.delete(train_idx, t), train_idx[t], normalization)
                for t in inner_folds
            )
            points = [_score_grid(splits, gs, grid, threshold)[0]]
        outer = _build_split(d, gs, train_idx, test_idx, normalization)
        best, fitted = _score_grid([outer], gs, points, threshold)
        return (best, *fitted)

    results = _ordered_map(run_fold, range(k))

    probabilities = np.empty(d.n_samples)
    predictions = np.empty(d.n_samples, dtype=np.intp)
    fold_metrics: list[MetricsReport | None] = []
    for test_idx, (_, _, probs, preds) in zip(folds, results):
        probabilities[test_idx] = probs
        predictions[test_idx] = preds
        fold_labels = labels[test_idx]
        one_class = np.unique(fold_labels).size < 2
        fold_metrics.append(None if one_class else metrics(fold_labels, preds))

    defined = [m for m in fold_metrics if m is not None]

    def fold_mean(rate):
        values = [getattr(m, rate) for m in defined if getattr(m, rate) is not None]
        return float(np.mean(values)) if values else None

    return CvResult(
        k=k,
        selection=selection,
        fold_test_indices=folds,
        fold_metrics=fold_metrics,
        pooled=metrics(labels, predictions),
        mean=MeanMetrics(*(fold_mean(f.name) for f in fields(MeanMetrics))),
        chosen=[best for best, _, _, _ in results],
        selected=[selected_groups(params, gs) for _, params, _, _ in results],
        probabilities=probabilities,
        predictions=predictions,
    )
