"""Every metric of one evaluation set from one sorted sweep of its scores.

`evaluate` sorts the scores once and reads the confusion matrix at the
threshold, the ROC curve and the precision-recall curve off the same
cumulative counts, one step per group of tied scores.  Precision with no
predicted positive and f1 with no true positive are reported as None
(rendered "n/a" downstream), never silently as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "MetricReport",
    "ScalarMetrics",
    "evaluate",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class ScalarMetrics:
    """A cell's metrics; the field order is the report's column order."""

    accuracy: float
    precision: float | None  # None when nothing is predicted positive
    recall: float
    specificity: float
    f1: float | None  # None when tp == 0
    roc_auc: float
    average_precision: float


@dataclass
class MetricReport:
    """Everything measured on one evaluation set at one threshold."""

    confusion: ConfusionMatrix
    scalars: ScalarMetrics
    roc_points: np.ndarray  # (m, 2) columns fpr, tpr
    prc_points: np.ndarray  # (m, 2) columns recall, precision


def evaluate(labels: np.ndarray, scores: np.ndarray, threshold: float) -> MetricReport:
    """Hard metrics at the threshold and both curves, from one sorted sweep.

    The scores are sorted once, descending, and each group of tied scores
    is one step. The cumulative tp and fp at the end of each group give
    every number:
    - the confusion matrix at the threshold, from the groups that score at
      least the threshold (a prefix of the sweep), so a score exactly equal
      to the threshold predicts positive;
    - the ROC points from (0, 0) to (1, 1) and their trapezoidal AUC;
    - the precision-recall points and the step-sum average precision
      AP = sum over steps of (R_n - R_{n-1}) * P_n with R_0 = 0, no
      interpolation.
    Raises if a label is not 0 or 1, a score is NaN or either class is
    missing.
    """
    labels = np.asarray(labels)
    if np.any((labels != 0) & (labels != 1)):
        raise ValueError("labels must be 0 or 1")
    labels = labels.astype(np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError("labels and predictions must have the same length")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC requires at least one row of each class")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # last position of each tied-score group, and the rows up to it
    ends = np.append(np.nonzero(np.diff(sorted_scores))[0], len(scores) - 1)
    counts = ends + 1
    tps = np.cumsum(labels[order])[ends]
    fps = counts - tps

    above = int(np.count_nonzero(sorted_scores[ends] >= threshold))
    tp, fp = (int(tps[above - 1]), int(fps[above - 1])) if above else (0, 0)
    tn = n_neg - fp

    fpr = np.concatenate([[0.0], fps / n_neg])
    tpr = np.concatenate([[0.0], tps / n_pos])
    precision = tps / counts
    p = tp / (tp + fp) if tp + fp else None
    r = tp / n_pos
    return MetricReport(
        confusion=ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=n_pos - tp),
        scalars=ScalarMetrics(
            accuracy=(tp + tn) / len(labels),
            precision=p,
            recall=r,
            specificity=tn / n_neg,
            f1=2 * p * r / (p + r) if tp else None,
            roc_auc=float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0)),
            average_precision=float(np.sum(np.diff(tpr) * precision)),
        ),
        roc_points=np.column_stack([fpr, tpr]),
        prc_points=np.column_stack([tpr[1:], precision]),
    )
