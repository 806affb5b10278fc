"""Metric tests: frozen hand examples plus a rank-statistic AUC oracle."""

from __future__ import annotations

import numpy as np
import pytest

from leakbench.metrics import (
    ConfusionMatrix,
    compute_metrics,
    confusion,
    evaluate,
    pr_curve,
    roc_curve,
)


# ---------------------------------------------------------------------------
# confusion matrix and scalar metrics
# ---------------------------------------------------------------------------


def test_confusion_hand_example() -> None:
    labels = np.array([1, 1, 0, 0, 1, 0])
    preds = np.array([1, 0, 0, 1, 1, 0])
    cm = confusion(labels, preds)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)
    assert cm.total == 6
    m = compute_metrics(cm)
    assert m.accuracy == pytest.approx(4 / 6)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.specificity == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)


def test_confusion_validates_inputs() -> None:
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        confusion(np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(ValueError, match="predictions must be 0 or 1"):
        confusion(np.array([0, 1]), np.array([0, 5]))
    with pytest.raises(ValueError, match="same length"):
        confusion(np.array([0, 1]), np.array([0, 1, 1]))


def test_zero_denominators_become_none() -> None:
    # no predicted positives: precision undefined, recall 0, f1 undefined
    m = compute_metrics(ConfusionMatrix(tp=0, fp=0, tn=5, fn=3))
    assert m.precision is None
    assert m.recall == 0.0
    assert m.f1 is None

    # no actual positives: recall undefined
    m = compute_metrics(ConfusionMatrix(tp=0, fp=2, tn=5, fn=0))
    assert m.recall is None
    assert m.f1 is None

    # defined but both zero: f1 undefined rather than 0/0
    m = compute_metrics(ConfusionMatrix(tp=0, fp=2, tn=5, fn=3))
    assert m.precision == 0.0 and m.recall == 0.0
    assert m.f1 is None

    # empty matrix: everything undefined
    m = compute_metrics(ConfusionMatrix(tp=0, fp=0, tn=0, fn=0))
    assert m.accuracy is None and m.specificity is None


def test_f1_is_harmonic_mean() -> None:
    rng = np.random.default_rng(10)
    for _ in range(50):
        tp = int(rng.integers(1, 50))
        fp = int(rng.integers(0, 50))
        fn = int(rng.integers(0, 50))
        m = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, tn=0, fn=fn))
        want = 2 / (1 / m.precision + 1 / m.recall) if m.precision and m.recall else None
        if want is None:
            assert m.f1 is None or m.f1 == pytest.approx(0.0)
        else:
            assert m.f1 == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------


def test_roc_frozen_example() -> None:
    labels = np.array([0, 0, 1, 1])
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    points, auc = roc_curve(labels, scores)
    assert auc == pytest.approx(0.75)
    np.testing.assert_allclose(
        points,
        [[0.0, 0.0], [0.0, 0.5], [0.5, 0.5], [0.5, 1.0], [1.0, 1.0]],
    )


def test_roc_perfect_and_inverted() -> None:
    labels = np.array([1, 1, 0, 0])
    _, auc = roc_curve(labels, np.array([0.9, 0.8, 0.2, 0.1]))
    assert auc == pytest.approx(1.0)
    _, auc = roc_curve(labels, np.array([0.1, 0.2, 0.8, 0.9]))
    assert auc == pytest.approx(0.0)


def test_roc_all_tied_scores_is_chance() -> None:
    labels = np.array([1, 0, 1, 0, 0])
    points, auc = roc_curve(labels, np.full(5, 0.7))
    assert auc == pytest.approx(0.5)
    np.testing.assert_allclose(points, [[0.0, 0.0], [1.0, 1.0]])


def test_roc_requires_both_classes() -> None:
    with pytest.raises(ValueError, match="ROC requires at least one row of each class"):
        roc_curve(np.array([1, 1]), np.array([0.4, 0.6]))
    with pytest.raises(ValueError, match="ROC requires at least one row of each class"):
        roc_curve(np.array([0, 0]), np.array([0.4, 0.6]))


def test_roc_is_scale_invariant() -> None:
    rng = np.random.default_rng(11)
    labels = (rng.random(60) < 0.3).astype(np.int64)
    scores = rng.random(60)
    _, auc_a = roc_curve(labels, scores)
    _, auc_b = roc_curve(labels, scores * 100.0 - 3.0)
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
        _, auc = roc_curve(labels, scores)
        assert abs(auc - mann_whitney_auc(labels, scores)) <= 1e-12


# ---------------------------------------------------------------------------
# precision-recall
# ---------------------------------------------------------------------------


def test_pr_frozen_best_ranking() -> None:
    labels = np.array([1, 0, 1])
    scores = np.array([0.9, 0.8, 0.7])
    points, ap = pr_curve(labels, scores)
    assert ap == pytest.approx(5 / 6)
    np.testing.assert_allclose(points, [[0.5, 1.0], [0.5, 0.5], [1.0, 2 / 3]])


def test_pr_frozen_worst_ranking() -> None:
    labels = np.array([0, 0, 1, 1])
    scores = np.array([0.4, 0.3, 0.2, 0.1])
    _, ap = pr_curve(labels, scores)
    assert ap == pytest.approx(5 / 12)


def test_pr_perfect_ranking_has_ap_one() -> None:
    labels = np.array([1, 1, 0, 0, 0])
    scores = np.array([0.9, 0.8, 0.3, 0.2, 0.1])
    _, ap = pr_curve(labels, scores)
    assert ap == pytest.approx(1.0)


def test_pr_requires_positives() -> None:
    with pytest.raises(ValueError, match="PR curve requires at least one positive row"):
        pr_curve(np.array([0, 0]), np.array([0.1, 0.2]))


def test_ap_of_random_scores_near_positive_rate() -> None:
    # with all scores tied there is a single step: AP = precision = rate
    labels = np.array([1] * 3 + [0] * 7)
    _, ap = pr_curve(labels, np.full(10, 0.5))
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
    assert rep.roc_auc == pytest.approx(0.75)
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
    points, _ = roc_curve(labels, scores)
    # at every distinct score threshold the hard-prediction specificity
    # must equal 1 - fpr of the matching curve point
    for thr in np.unique(scores):
        rep = evaluate(labels, scores, threshold=thr)
        fpr_match = [
            p[0] for p in points if abs(1.0 - rep.scalars.specificity - p[0]) < 1e-12
        ]
        assert fpr_match, thr
