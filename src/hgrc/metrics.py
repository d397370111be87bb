"""Binary-classification metrics with explicit tie handling.

auroc uses the Mann-Whitney statistic with half credit for tied pairs,
computed through mid-ranks (identical, bit for bit, to the O(n^2) pairwise
count).  auprc is average precision over descending score thresholds with
tied scores grouped into one step.  Confusion metrics predict positive on
score strictly greater than the decision threshold, with every 0/0 ratio
defined as 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ShapeError, UndefinedMetricError
from .numeric import Array


def _validate(scores, labels) -> tuple[Array, Array]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise ShapeError(f"scores and labels must be vectors, got {scores.shape}, {labels.shape}")
    if scores.shape != labels.shape:
        raise ShapeError(f"{scores.shape[0]} scores vs {labels.shape[0]} labels")
    if not np.all(np.isfinite(scores)):
        raise ConfigError("scores must be finite")
    if not np.all((labels == 0) | (labels == 1)):
        raise ConfigError("labels must be 0 or 1")
    return scores, labels.astype(np.int64)


def _midranks(scores: Array) -> Array:
    """1-based ranks with ties assigned the mean rank of their group."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    mid = (upper - counts + 1 + upper) / 2.0
    return mid[inverse]


def auroc(scores, labels) -> float:
    """(#concordant + 0.5 #tied) / (#pos * #neg) via the rank-sum identity."""
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"auroc needs both classes, got {n_pos} positives and {n_neg} negatives")
    ranks = _midranks(scores)
    rank_sum = ranks[labels == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Average precision with tied scores grouped into a single step."""
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise UndefinedMetricError("auprc needs at least one positive label")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    # the last index of each tie group: one threshold step per group
    ends = np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]),
                     scores.shape[0] - 1)
    tp = np.cumsum(labels[order])[ends]
    recall = tp / n_pos
    precision = tp / (ends + 1)
    # cumsum adds in order, so the sum rounds as a left-to-right loop would
    ap = np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1]
    return float(ap)


def confusion_counts(scores, labels, threshold: float) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) predicting positive when score > threshold (strict)."""
    scores, labels = _validate(scores, labels)
    pred = scores > threshold
    pos = labels == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    tn = int(np.sum(~pred & ~pos))
    fn = int(np.sum(~pred & pos))
    return tp, fp, tn, fn


def confusion_metrics(scores, labels,
                      decision_threshold: float) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1); every 0/0 ratio is 0."""
    tp, fp, tn, fn = confusion_counts(scores, labels, decision_threshold)
    n = tp + fp + tn + fn
    accuracy = (tp + tn) / n if n else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return float(accuracy), float(precision), float(recall), float(f1)


@dataclass(frozen=True)
class MetricsReport:
    """All evaluation metrics for one cohort at one decision threshold.

    min_se_pplus is min(sensitivity, precision) at that threshold.
    """

    auroc: float
    auprc: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    min_se_pplus: float
    decision_threshold: float
    n_patients: int
    n_positive: int

    def to_dict(self) -> dict:
        return asdict(self)


def compute_report(scores, labels, decision_threshold: float) -> MetricsReport:
    """Full metric suite over one score vector."""
    scores_v, labels_v = _validate(scores, labels)
    if scores_v.shape[0] == 0:
        raise UndefinedMetricError("metrics need at least one patient")
    accuracy, precision, recall, f1 = confusion_metrics(scores_v, labels_v, decision_threshold)
    return MetricsReport(
        auroc=auroc(scores_v, labels_v),
        auprc=auprc(scores_v, labels_v),
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        min_se_pplus=min(recall, precision),
        decision_threshold=float(decision_threshold),
        n_patients=int(scores_v.shape[0]),
        n_positive=int(labels_v.sum()),
    )
