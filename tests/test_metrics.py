"""Metric tests: frozen hand examples, a rank-statistic AUC oracle, and the
one-sweep `evaluate` pinned bitwise to the earlier per-metric helpers."""

from __future__ import annotations

import struct
from dataclasses import astuple

import numpy as np
import pytest

from leakbench.metrics import (
    ConfusionMatrix,
    MetricReport,
    ScalarMetrics,
    evaluate,
)


# ---------------------------------------------------------------------------
# confusion matrix and scalar metrics
# ---------------------------------------------------------------------------


def test_confusion_hand_example() -> None:
    labels = np.array([1, 1, 0, 0, 1, 0])
    preds = np.array([1, 0, 0, 1, 1, 0])
    rep = evaluate(labels, preds, threshold=0.5)
    cm, m = rep.confusion, rep.scalars
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)
    assert m.accuracy == pytest.approx(4 / 6)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.specificity == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)


def test_confusion_validates_inputs() -> None:
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        evaluate(np.array([0, 2]), np.array([0.0, 1.0]), 0.5)
    with pytest.raises(ValueError, match="same length"):
        evaluate(np.array([0, 1]), np.array([0.0, 1.0, 1.0]), 0.5)


def test_evaluate_refuses_nan_scores() -> None:
    # a NaN used to sort below every score and count as a negative prediction
    labels = np.array([0, 1, 0, 1])
    for scores in ([0.1, np.nan, 0.3, 0.9], [np.nan] * 4):
        with pytest.raises(ValueError, match="scores must not be NaN"):
            evaluate(labels, np.array(scores), 0.5)
    assert evaluate(labels, np.array([0.1, -np.inf, 0.3, np.inf]), 0.5).scalars.roc_auc == 0.5


def test_zero_denominators_become_none() -> None:
    # evaluate refuses a side without both classes (test_roc_requires_both_classes), so
    # recall, specificity and accuracy always have a denominator; precision and f1 may not
    labels = np.array([1, 1, 1, 0, 0, 0, 0, 0])

    # no predicted positives: precision undefined, recall 0, f1 undefined
    m = evaluate(labels, np.full(8, 0.2), 0.5).scalars
    assert m.precision is None
    assert m.recall == 0.0
    assert m.f1 is None
    assert m.accuracy == 5 / 8 and m.specificity == 1.0

    # predicted positives but no true positive: precision and recall 0, f1 undefined
    m = evaluate(labels, np.array([0.1, 0.2, 0.3, 0.9, 0.8, 0.1, 0.1, 0.1]), 0.5).scalars
    assert m.precision == 0.0 and m.recall == 0.0
    assert m.f1 is None
    assert m.specificity == 3 / 5


def test_f1_is_harmonic_mean() -> None:
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 100))
        labels = (rng.random(n) < 0.4).astype(np.int64)
        labels[:2] = (0, 1)
        m = evaluate(labels, rng.random(n), float(rng.random())).scalars
        if not m.precision:  # no true positive
            assert m.f1 is None
        else:
            assert m.f1 == pytest.approx(2 / (1 / m.precision + 1 / m.recall), rel=1e-12)


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------


def test_roc_frozen_example() -> None:
    labels = np.array([0, 0, 1, 1])
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    rep = evaluate(labels, scores, 0.5)
    points, auc = rep.roc_points, rep.scalars.roc_auc
    assert auc == pytest.approx(0.75)
    np.testing.assert_allclose(
        points,
        [[0.0, 0.0], [0.0, 0.5], [0.5, 0.5], [0.5, 1.0], [1.0, 1.0]],
    )


def test_roc_perfect_and_inverted() -> None:
    labels = np.array([1, 1, 0, 0])
    auc = evaluate(labels, np.array([0.9, 0.8, 0.2, 0.1]), 0.5).scalars.roc_auc
    assert auc == pytest.approx(1.0)
    auc = evaluate(labels, np.array([0.1, 0.2, 0.8, 0.9]), 0.5).scalars.roc_auc
    assert auc == pytest.approx(0.0)


def test_roc_all_tied_scores_is_chance() -> None:
    labels = np.array([1, 0, 1, 0, 0])
    rep = evaluate(labels, np.full(5, 0.7), 0.5)
    assert rep.scalars.roc_auc == pytest.approx(0.5)
    np.testing.assert_allclose(rep.roc_points, [[0.0, 0.0], [1.0, 1.0]])


def test_roc_requires_both_classes() -> None:
    with pytest.raises(ValueError, match="ROC requires at least one row of each class"):
        evaluate(np.array([1, 1]), np.array([0.4, 0.6]), 0.5)
    with pytest.raises(ValueError, match="ROC requires at least one row of each class"):
        evaluate(np.array([0, 0]), np.array([0.4, 0.6]), 0.5)


def test_roc_is_scale_invariant() -> None:
    rng = np.random.default_rng(11)
    labels = (rng.random(60) < 0.3).astype(np.int64)
    scores = rng.random(60)
    auc_a = evaluate(labels, scores, 0.5).scalars.roc_auc
    auc_b = evaluate(labels, scores * 100.0 - 3.0, 0.5).scalars.roc_auc
    assert auc_a == pytest.approx(auc_b, rel=1e-12)


def mann_whitney_auc(labels, scores) -> float:
    """Pairwise-comparison oracle: ties count one half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_roc_auc_equals_pairwise_statistic() -> None:
    rng = np.random.default_rng(12)
    for trial in range(50):
        n = int(rng.integers(5, 200))
        labels = (rng.random(n) < 0.4).astype(np.int64)
        if labels.sum() in (0, n):
            continue
        scores = rng.random(n)
        if trial % 2 == 0:
            scores = np.round(scores, 1)  # heavy ties
        auc = evaluate(labels, scores, 0.5).scalars.roc_auc
        assert abs(auc - mann_whitney_auc(labels, scores)) <= 1e-12


# ---------------------------------------------------------------------------
# precision-recall
# ---------------------------------------------------------------------------


def test_pr_frozen_best_ranking() -> None:
    labels = np.array([1, 0, 1])
    scores = np.array([0.9, 0.8, 0.7])
    rep = evaluate(labels, scores, 0.5)
    assert rep.scalars.average_precision == pytest.approx(5 / 6)
    np.testing.assert_allclose(rep.prc_points, [[0.5, 1.0], [0.5, 0.5], [1.0, 2 / 3]])


def test_pr_frozen_worst_ranking() -> None:
    labels = np.array([0, 0, 1, 1])
    scores = np.array([0.4, 0.3, 0.2, 0.1])
    ap = evaluate(labels, scores, 0.5).scalars.average_precision
    assert ap == pytest.approx(5 / 12)


def test_pr_perfect_ranking_has_ap_one() -> None:
    labels = np.array([1, 1, 0, 0, 0])
    scores = np.array([0.9, 0.8, 0.3, 0.2, 0.1])
    ap = evaluate(labels, scores, 0.5).scalars.average_precision
    assert ap == pytest.approx(1.0)


def test_pr_requires_positives() -> None:
    # recall has no denominator without positives; the class check stops it first
    with pytest.raises(ValueError, match="ROC requires at least one row of each class"):
        evaluate(np.array([0, 0]), np.array([0.1, 0.2]), 0.5)


def test_ap_of_random_scores_near_positive_rate() -> None:
    # with all scores tied there is a single step: AP = precision = rate
    labels = np.array([1] * 3 + [0] * 7)
    ap = evaluate(labels, np.full(10, 0.5), 0.5).scalars.average_precision
    assert ap == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_bundles_everything() -> None:
    labels = np.array([0, 0, 1, 1])
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    rep = evaluate(labels, scores, threshold=0.5)
    assert (rep.confusion.tp, rep.confusion.fp) == (1, 0)
    assert (rep.confusion.tn, rep.confusion.fn) == (2, 1)
    assert rep.scalars.roc_auc == pytest.approx(0.75)
    assert rep.scalars.precision == pytest.approx(1.0)
    assert rep.scalars.recall == pytest.approx(0.5)


def test_evaluate_threshold_equality_is_positive() -> None:
    labels = np.array([1, 0])
    scores = np.array([0.5, 0.4])
    rep = evaluate(labels, scores, threshold=0.5)
    assert rep.confusion.tp == 1
    assert rep.confusion.fp == 0


def test_specificity_complements_fpr_along_roc() -> None:
    rng = np.random.default_rng(13)
    labels = (rng.random(40) < 0.5).astype(np.int64)
    scores = rng.random(40)
    points = evaluate(labels, scores, 0.5).roc_points
    # at every distinct score threshold the hard-prediction specificity
    # must equal 1 - fpr of the matching curve point
    for thr in np.unique(scores):
        rep = evaluate(labels, scores, threshold=thr)
        fpr_match = [
            p[0] for p in points if abs(1.0 - rep.scalars.specificity - p[0]) < 1e-12
        ]
        assert fpr_match, thr


# ---------------------------------------------------------------------------
# the one sweep against the per-metric helpers it replaced
# ---------------------------------------------------------------------------

# The helpers below are the earlier metrics code, kept as an oracle:
# `evaluate` used to check the labels in each of them, sort the scores
# once per curve, count the confusion with four masked sums and divide
# through `_ratio`, which guarded every denominator against zero.  Only
# `compute_metrics` changed: it returns its five values as a tuple.


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


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def compute_metrics(cm: ConfusionMatrix) -> tuple:
    """accuracy, precision, recall, specificity and f1 of a confusion matrix."""
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    accuracy = _ratio(cm.tp + cm.tn, cm.tp + cm.fp + cm.tn + cm.fn)
    return accuracy, precision, recall, _ratio(cm.tn, cm.tn + cm.fp), f1


def reference_evaluate(labels: np.ndarray, scores: np.ndarray, threshold: float) -> MetricReport:
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
        scalars=ScalarMetrics(*compute_metrics(cm), roc_auc=auc, average_precision=ap),
        roc_points=roc_points,
        prc_points=prc_points,
    )


def _bits(rep: MetricReport) -> tuple:
    """Every field of a report as exact bytes (a float by its IEEE bits)."""

    def number(x):
        return None if x is None else (type(x), struct.pack("<d", x))

    def array(a):
        return (a.dtype.str, a.shape, a.tobytes())

    cm = rep.confusion
    return (
        tuple((type(v), v) for v in (cm.tp, cm.fp, cm.tn, cm.fn)),
        tuple(number(v) for v in astuple(rep.scalars)),
        array(rep.roc_points),
        array(rep.prc_points),
    )


def _scores(rng: np.random.Generator, n: int, kind: int) -> np.ndarray:
    if kind == 0:
        return rng.random(n)
    if kind == 1:
        return np.round(rng.random(n), 1)  # heavy ties
    if kind == 2:
        return np.full(n, float(rng.choice([0.0, 0.5, 1.0, rng.random()])))  # all tied
    if kind == 3:
        return rng.integers(0, 3, n) / 2.0  # only 0, 0.5 and 1
    if kind == 4:
        return np.where(rng.random(n) < 0.5, 0.0, -0.0)  # signed zeros tie
    return np.round(rng.random(n), 3)


def _cases(n_draws: int, seed: int):
    """(labels, scores, threshold) with both classes present."""
    rng = np.random.default_rng(seed)
    for draw in range(n_draws):
        n = int(rng.integers(2, 300))
        if draw % 7 == 0:
            labels = np.zeros(n, dtype=np.int64)  # a single positive
            labels[rng.integers(n)] = 1
        else:
            labels = (rng.random(n) < rng.uniform(0.01, 0.99)).astype(np.int64)
            if labels.min() == labels.max():
                labels[rng.integers(n)] ^= 1
        scores = _scores(rng, n, draw % 6)
        at = float(scores[rng.integers(n)])
        for threshold in (
            0.0, 1.0, 0.5, float(rng.random()),
            at, float(np.nextafter(at, -np.inf)), float(np.nextafter(at, np.inf)),
        ):
            yield labels, scores, threshold


def test_evaluate_is_bitwise_equal_to_the_per_metric_helpers() -> None:
    checked = 0
    for labels, scores, threshold in _cases(1000, seed=16):
        assert _bits(evaluate(labels, scores, threshold)) == _bits(
            reference_evaluate(labels, scores, threshold)
        ), (labels.tolist(), scores.tolist(), threshold)
        checked += 1
    assert checked >= 5000


def test_evaluate_confusion_equals_masked_counts() -> None:
    for labels, scores, threshold in _cases(300, seed=17):
        pred = scores >= threshold
        cm = evaluate(labels, scores, threshold).confusion
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (
            np.count_nonzero(pred & (labels == 1)),
            np.count_nonzero(pred & (labels == 0)),
            np.count_nonzero(~pred & (labels == 0)),
            np.count_nonzero(~pred & (labels == 1)),
        )


def test_evaluate_raises_what_the_helpers_raised() -> None:
    # labels, then lengths, then both classes, with the same messages
    cases = [
        ([0, 2], [0.1, 0.2]),
        ([0.5, 1], [0.1]),
        ([0, 1], [0.1, 0.2, 0.3]),
        ([1, 1], [0.1]),
        ([1, 1], [0.1, 0.2]),
        ([0, 0, 0], [0.1, 0.2, 0.3]),
        ([], []),
    ]
    for labels, scores in cases:
        with pytest.raises(ValueError) as want:
            reference_evaluate(np.array(labels), np.array(scores), 0.5)
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            evaluate(np.array(labels), np.array(scores), 0.5)
