"""Confusion-matrix metrics and threshold-sweep curves.

Ratios with a zero denominator are reported as None (rendered "n/a"
downstream), never silently as 0.  Curve sweeps group tied scores into
a single threshold step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "MetricReport",
    "ScalarMetrics",
    "compute_metrics",
    "confusion",
    "evaluate",
    "pr_curve",
    "roc_curve",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class ScalarMetrics:
    accuracy: float | None
    precision: float | None
    recall: float | None
    specificity: float | None
    f1: float | None


@dataclass
class MetricReport:
    """Everything measured on one evaluation set at one threshold."""

    confusion: ConfusionMatrix
    scalars: ScalarMetrics
    roc_points: np.ndarray  # (m, 2) columns fpr, tpr
    roc_auc: float
    prc_points: np.ndarray  # (m, 2) columns recall, precision
    average_precision: float


def _check_binary(values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values)
    bad = (values != 0) & (values != 1)
    if np.any(bad):
        raise ValueError(f"{what} must be 0 or 1")
    return values.astype(np.int64)


def confusion(labels: np.ndarray, preds: np.ndarray) -> ConfusionMatrix:
    labels = _check_binary(labels, "labels")
    preds = _check_binary(preds, "predictions")
    if labels.shape != preds.shape:
        raise ValueError("labels and predictions must have the same length")
    return ConfusionMatrix(
        tp=int(np.sum((labels == 1) & (preds == 1))),
        fp=int(np.sum((labels == 0) & (preds == 1))),
        tn=int(np.sum((labels == 0) & (preds == 0))),
        fn=int(np.sum((labels == 1) & (preds == 0))),
    )


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def compute_metrics(cm: ConfusionMatrix) -> ScalarMetrics:
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return ScalarMetrics(
        accuracy=_ratio(cm.tp + cm.tn, cm.total),
        precision=precision,
        recall=recall,
        specificity=_ratio(cm.tn, cm.tn + cm.fp),
        f1=f1,
    )


def _sweep(labels: np.ndarray, scores: np.ndarray):
    """Cumulative tp/fp at each distinct score, descending."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # last position of each tied-score group
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    ends = np.append(distinct, len(scores) - 1)
    tps = np.cumsum(sorted_labels)[ends]
    fps = np.cumsum(1 - sorted_labels)[ends]
    return tps, fps


def roc_curve(labels: np.ndarray, scores: np.ndarray):
    """ROC points and trapezoidal AUC.

    Points run from (0, 0) to (1, 1) with one step per distinct score.
    Raises if either class is missing.
    """
    labels = _check_binary(labels, "labels")
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC requires at least one row of each class")
    tps, fps = _sweep(labels, scores)
    fpr = np.concatenate([[0.0], fps / n_neg])
    tpr = np.concatenate([[0.0], tps / n_pos])
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return np.column_stack([fpr, tpr]), auc


def pr_curve(labels: np.ndarray, scores: np.ndarray):
    """Precision-recall points and step-sum average precision.

    AP = sum over thresholds of (R_n - R_{n-1}) * P_n, with R_0 = 0;
    no interpolation.  Raises if there are no positive rows.
    """
    labels = _check_binary(labels, "labels")
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("PR curve requires at least one positive row")
    tps, fps = _sweep(labels, scores)
    recall = tps / n_pos
    precision = tps / (tps + fps)
    ap = float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))
    return np.column_stack([recall, precision]), ap


def evaluate(labels: np.ndarray, scores: np.ndarray, threshold: float) -> MetricReport:
    """Hard metrics at the threshold plus both curves.

    A score exactly equal to the threshold predicts positive.
    """
    labels = _check_binary(labels, "labels")
    scores = np.asarray(scores, dtype=np.float64)
    preds = (scores >= threshold).astype(np.int64)
    cm = confusion(labels, preds)
    roc_points, auc = roc_curve(labels, scores)
    prc_points, ap = pr_curve(labels, scores)
    return MetricReport(
        confusion=cm,
        scalars=compute_metrics(cm),
        roc_points=roc_points,
        roc_auc=auc,
        prc_points=prc_points,
        average_precision=ap,
    )
