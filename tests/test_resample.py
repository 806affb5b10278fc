"""Resampler tests: hand fixtures, O(n^2) oracles, provenance invariants."""

from __future__ import annotations

import numpy as np
import pytest

from leakbench.data import SYNTHETIC
from leakbench.resample import (
    METHODS,
    QUADRATIC_METHODS,
    ResamplerSpec,
    adasyn,
    apply_resampler,
    borderline_smote,
    cluster_centroids,
    enn,
    interpolate,
    nearmiss1,
    random_oversample,
    random_undersample,
    smote,
    smote_enn,
    smote_tomek,
    tomek_links,
)

from conftest import make_dataset


def spec(method: str, **kw) -> ResamplerSpec:
    return ResamplerSpec(method=method, **kw)


def class_counts(ds) -> tuple[int, int]:
    return int((ds.labels == 1).sum()), int((ds.labels == 0).sum())


def random_imbalanced(rng, n_min_range=(6, 15), n_maj_range=(16, 40), d_range=(1, 4)):
    n_min = int(rng.integers(*n_min_range))
    n_maj = int(rng.integers(*n_maj_range))
    d = int(rng.integers(*d_range))
    x = np.vstack([rng.standard_normal((n_min, d)) + 2.0, rng.standard_normal((n_maj, d))])
    y = np.concatenate([np.ones(n_min, dtype=np.int64), np.zeros(n_maj, dtype=np.int64)])
    order = rng.permutation(n_min + n_maj)
    return make_dataset(x[order], y[order])


# ---------------------------------------------------------------------------
# spec validation and dispatch
# ---------------------------------------------------------------------------


def test_spec_validation() -> None:
    with pytest.raises(ValueError, match="unknown resampling method 'smite'"):
        ResamplerSpec(method="smite")
    with pytest.raises(ValueError, match="k_neighbors"):
        ResamplerSpec(method="smote", k_neighbors=0)
    with pytest.raises(ValueError, match="m_neighbors must be at least 1"):
        ResamplerSpec(method="borderline_smote", m_neighbors=0)
    with pytest.raises(ValueError, match="target_ratio"):
        ResamplerSpec(method="smote", target_ratio=0.0)
    with pytest.raises(ValueError, match="target_ratio"):
        ResamplerSpec(method="smote", target_ratio=1.5)


def test_none_method_is_passthrough(small_imbalanced) -> None:
    res = apply_resampler(small_imbalanced, ResamplerSpec(method=None))
    assert res.dataset is small_imbalanced
    assert res.n_synthetic == 0 and res.n_removed == 0


def test_quadratic_methods_is_a_subset_of_methods() -> None:
    assert QUADRATIC_METHODS <= set(METHODS)


def test_interpolate_endpoints() -> None:
    a = np.array([[1.0, 1.0]])
    b = np.array([[3.0, 5.0]])
    np.testing.assert_array_equal(interpolate(a, b, np.array([0.0])), a)
    np.testing.assert_array_equal(interpolate(a, b, np.array([1.0])), b)
    np.testing.assert_array_equal(interpolate(a, b, np.array([0.5])), [[2.0, 3.0]])
    # 1-d columns (the time axis): one coefficient per value
    got = interpolate(np.zeros(3), np.ones(3), np.array([0.1, 0.5, 0.9]))
    np.testing.assert_array_equal(got, [0.1, 0.5, 0.9])


# ---------------------------------------------------------------------------
# smote
# ---------------------------------------------------------------------------


def test_smote_balances_exactly(small_imbalanced) -> None:
    res = smote(small_imbalanced, spec("smote", seed=1))
    n_pos, n_neg = class_counts(res.dataset)
    assert n_pos == n_neg == 18
    assert res.n_synthetic == 12
    # input rows come first, untouched
    np.testing.assert_array_equal(
        res.dataset.features[:24], small_imbalanced.features
    )


def test_smote_synthetic_rows_reconstruct_from_provenance(small_imbalanced) -> None:
    res = smote(small_imbalanced, spec("smote", seed=3))
    pa, pb, delta = res.provenance
    mask = res.dataset.origin.kind == SYNTHETIC
    got = res.dataset.features[mask]
    want = interpolate(small_imbalanced.features[pa], small_imbalanced.features[pb], delta)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    assert (delta >= 0).all() and (delta <= 1).all()
    # parents are minority rows and never the same row
    assert (small_imbalanced.labels[pa] == 1).all()
    assert (small_imbalanced.labels[pb] == 1).all()
    assert (pa != pb).all()


def test_smote_parent_b_is_a_k_nearest_minority_neighbor(small_imbalanced) -> None:
    k = 3
    res = smote(small_imbalanced, spec("smote", k_neighbors=k, seed=5))
    pa, pb, _ = res.provenance
    min_rows = np.nonzero(small_imbalanced.labels == 1)[0]
    x = small_imbalanced.features
    for a, b in zip(pa, pb):
        d2 = ((x[min_rows] - x[a]) ** 2).sum(axis=1)
        d2[min_rows == a] = np.inf
        nearest = min_rows[np.argsort(d2, kind="stable")[:k]]
        assert b in nearest


def test_smote_draw_order_delta_before_neighbor(small_imbalanced) -> None:
    seed = 11
    res = smote(small_imbalanced, spec("smote", seed=seed))
    _, _, delta = res.provenance
    rng = np.random.default_rng(seed)
    rng.integers(0, 6, res.n_synthetic)  # seed-row draws come first
    want = rng.random(res.n_synthetic)  # then the deltas, then neighbor picks
    np.testing.assert_array_equal(delta, want)


def test_smote_deterministic_and_seed_sensitive(small_imbalanced) -> None:
    a = smote(small_imbalanced, spec("smote", seed=7))
    b = smote(small_imbalanced, spec("smote", seed=7))
    c = smote(small_imbalanced, spec("smote", seed=8))
    np.testing.assert_array_equal(a.dataset.features, b.dataset.features)
    assert not np.array_equal(a.dataset.features, c.dataset.features)


def test_smote_interpolates_time_axis() -> None:
    ds = make_dataset(
        [[0.0], [1.0], [2.0], [50.0], [51.0], [52.0], [53.0]],
        [1, 1, 1, 0, 0, 0, 0],
        time=[0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
    )
    res = smote(ds, spec("smote", k_neighbors=2, seed=0))
    pa, pb, delta = res.provenance
    mask = res.dataset.origin.kind == SYNTHETIC
    want = ds.time[pa] + delta * (ds.time[pb] - ds.time[pa])
    np.testing.assert_allclose(res.dataset.time[mask], want, atol=1e-12)


def test_smote_requires_enough_minority_rows() -> None:
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]], [1, 1, 1, 0, 0, 0])
    with pytest.raises(ValueError, match=r"smote requires minority count > k_neighbors \(3 <= 5\)"):
        smote(ds, spec("smote"))


def test_smote_already_balanced_is_passthrough(small_imbalanced) -> None:
    balanced = small_imbalanced.take(np.arange(12))  # 6 pos, 6 neg
    res = smote(balanced, spec("smote", k_neighbors=3))
    assert res.n_synthetic == 0
    assert res.dataset.n_rows == 12
    # the other oversamplers stop at the same target_ratio check
    for method in ("random_over", "adasyn", "borderline_smote"):
        res = METHODS[method](balanced, spec(method, k_neighbors=3, m_neighbors=3))
        assert res.dataset is balanced
        assert res.n_synthetic == 0 and res.n_removed == 0


def test_smote_partial_target_ratio(small_imbalanced) -> None:
    res = smote(small_imbalanced, spec("smote", target_ratio=0.5, seed=0))
    n_pos, n_neg = class_counts(res.dataset)
    assert n_neg == 18
    assert n_pos == 9  # round(0.5 * 18)


# ---------------------------------------------------------------------------
# random oversampling
# ---------------------------------------------------------------------------


def test_one_class_inputs_are_rejected() -> None:
    one_class = make_dataset([[0.0], [1.0], [2.0]], [0, 0, 0])
    with pytest.raises(ValueError, match="random_oversample requires at least one minority row"):
        random_oversample(one_class, spec("random_over"))
    with pytest.raises(ValueError, match="cluster_centroids needs a positive number of centroids"):
        cluster_centroids(one_class, spec("cluster_centroids"))
    with pytest.raises(ValueError, match="tomek_links requires at least two rows"):
        tomek_links(make_dataset([[0.0]], [1]), spec("tomek_links"))


def test_random_over_duplicates_minority_rows(small_imbalanced) -> None:
    res = random_oversample(small_imbalanced, spec("random_over", seed=2))
    n_pos, n_neg = class_counts(res.dataset)
    assert n_pos == n_neg == 18
    pa, pb, delta = res.provenance
    np.testing.assert_array_equal(pa, pb)
    np.testing.assert_array_equal(delta, np.zeros(12))
    mask = res.dataset.origin.kind == SYNTHETIC
    np.testing.assert_array_equal(res.dataset.features[mask], small_imbalanced.features[pa])
    assert (small_imbalanced.labels[pa] == 1).all()


# ---------------------------------------------------------------------------
# adasyn
# ---------------------------------------------------------------------------


def test_adasyn_hand_allocation() -> None:
    # minority rows 0 and 1 sit inside majority territory (both 2-NN
    # majority, hardness 1.0); rows 2 and 3 only see other minority
    # rows (hardness 0.0).  budget = 7 - 4 = 3, normalized scores
    # [0.5, 0.5, 0, 0], and rint([1.5, 1.5, 0, 0]) rounds half to even:
    # [2, 2, 0, 0], overshooting the budget by one.
    feats = [[0.0], [0.2], [10.0], [10.2], [0.05], [0.1], [0.15], [50.0], [51.0], [52.0], [53.0]]
    labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    ds = make_dataset(feats, labels)
    res = adasyn(ds, spec("adasyn", k_neighbors=2, seed=0))
    assert res.n_synthetic == 4
    pa, _, _ = res.provenance
    np.testing.assert_array_equal(pa, [0, 0, 1, 1])
    assert res.notes == ()


def test_adasyn_falls_back_to_smote_when_no_hardness() -> None:
    feats = [[0.0], [0.1], [0.2], [0.3], [100.0], [101.0], [102.0], [103.0], [104.0]]
    labels = [1, 1, 1, 1, 0, 0, 0, 0, 0]
    ds = make_dataset(feats, labels)
    res = adasyn(ds, spec("adasyn", k_neighbors=2, seed=0))
    assert res.notes == ("adasyn: no majority neighbors anywhere; fell back to plain smote",)
    assert res.n_synthetic == 1  # 4 minority + 1 reaches the majority count
    want = smote(ds, spec("smote", k_neighbors=2, seed=0))
    np.testing.assert_array_equal(res.dataset.features, want.dataset.features)


def test_adasyn_zero_allocation_note() -> None:
    # ten minority rows each twinned with a majority row, so hardness is
    # spread thin; budget 2 spreads to rint(~0.2) = 0 everywhere
    feats = [[float(i)] for i in range(10)]
    feats += [[i + 0.01] for i in range(10)] + [[100.0], [101.0]]
    labels = [1] * 10 + [0] * 12
    ds = make_dataset(feats, labels)
    res = adasyn(ds, spec("adasyn", k_neighbors=2, seed=0))
    assert res.notes == ("adasyn: allocation rounded to zero rows; nothing generated",)
    assert res.n_synthetic == 0
    assert res.dataset.n_rows == 22


def test_adasyn_reconstruction(small_imbalanced) -> None:
    res = adasyn(small_imbalanced, spec("adasyn", k_neighbors=3, seed=4))
    pa, pb, delta = res.provenance
    mask = res.dataset.origin.kind == SYNTHETIC
    want = interpolate(small_imbalanced.features[pa], small_imbalanced.features[pb], delta)
    np.testing.assert_allclose(res.dataset.features[mask], want, atol=1e-9)


# ---------------------------------------------------------------------------
# borderline smote
# ---------------------------------------------------------------------------


def test_borderline_seeds_only_from_danger_rows() -> None:
    # row 2 is the only borderline minority row: two of its three
    # nearest rows are majority.  rows 0/1 are safe, row 3 is noise
    # (all three neighbours majority).
    feats = [[0.0], [0.1], [5.0], [20.0], [5.05], [5.1], [20.05], [20.1], [20.15], [40.0], [41.0]]
    labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    ds = make_dataset(feats, labels)
    res = borderline_smote(ds, spec("borderline_smote", k_neighbors=2, m_neighbors=3, seed=0))
    assert res.n_synthetic == 3  # 7 majority - 4 minority
    pa, pb, _ = res.provenance
    assert (pa == 2).all()
    assert set(pb.tolist()) <= {0, 1}  # the danger row's nearest minority rows


def test_borderline_no_danger_rows_note(small_imbalanced) -> None:
    # well-separated classes: every minority neighbourhood is pure
    feats = [[0.0], [0.1], [0.2], [0.3], [50.0], [51.0], [52.0], [53.0], [54.0], [55.0], [56.0]]
    labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    ds = make_dataset(feats, labels)
    res = borderline_smote(ds, spec("borderline_smote", k_neighbors=2, m_neighbors=3))
    assert res.notes == ("borderline_smote: no borderline minority rows; input unchanged",)
    assert res.dataset.n_rows == ds.n_rows
    assert res.n_synthetic == 0


def test_borderline_minority_floor_counts_both_knobs() -> None:
    ds = make_dataset([[float(i)] for i in range(12)], [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"borderline_smote requires minority count > max\(k, m\)"):
        borderline_smote(ds, spec("borderline_smote", k_neighbors=2, m_neighbors=5))


# ---------------------------------------------------------------------------
# random undersampling
# ---------------------------------------------------------------------------


def test_random_under_balances_and_preserves_order(small_imbalanced) -> None:
    res = random_undersample(small_imbalanced, spec("random_under", seed=6))
    n_pos, n_neg = class_counts(res.dataset)
    assert n_pos == n_neg == 6
    assert res.n_removed == 12
    # survivors keep their relative input order
    kept = res.dataset.origin.parent_a
    assert (np.diff(kept) > 0).all()
    # removed rows are all majority
    assert (small_imbalanced.labels[res.removed_indices] == 0).all()


def test_random_under_balanced_input_is_noop(small_imbalanced) -> None:
    balanced = small_imbalanced.take(np.arange(12))
    res = random_undersample(balanced, spec("random_under", seed=0))
    assert res.n_removed == 0
    np.testing.assert_array_equal(res.dataset.features, balanced.features)


def test_random_under_infeasible_ratio() -> None:
    ds = make_dataset([[float(i)] for i in range(13)], [1] * 5 + [0] * 8)
    with pytest.raises(ValueError, match="target_ratio 0.5 is infeasible: needs 10 majority rows"):
        random_undersample(ds, spec("random_under", target_ratio=0.5))


# ---------------------------------------------------------------------------
# nearmiss1
# ---------------------------------------------------------------------------


def test_nearmiss_keeps_majority_closest_to_minority() -> None:
    feats = [[0.0], [2.0], [10.0], [50.0], [100.0], [200.0]]
    labels = [1, 1, 0, 0, 0, 0]
    ds = make_dataset(feats, labels)
    res = nearmiss1(ds, spec("nearmiss1", k_neighbors=2))
    kept_majority = res.dataset.features[res.dataset.labels == 0][:, 0]
    np.testing.assert_array_equal(np.sort(kept_majority), [10.0, 50.0])
    np.testing.assert_array_equal(res.removed_indices, [4, 5])


def test_nearmiss_tie_keeps_lower_row_index() -> None:
    # majority rows at +5 and -5 have the same mean distance to the
    # single minority row; the earlier row wins
    ds = make_dataset([[0.0], [5.0], [-5.0], [7.0]], [1, 0, 0, 0])
    res = nearmiss1(ds, spec("nearmiss1", k_neighbors=1))
    kept_majority = res.dataset.features[res.dataset.labels == 0][:, 0]
    np.testing.assert_array_equal(kept_majority, [5.0])


def test_nearmiss_requires_enough_minority() -> None:
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [1, 0, 0, 0])
    with pytest.raises(ValueError, match=r"nearmiss1 requires minority count >= k_neighbors \(1 < 2\)"):
        nearmiss1(ds, spec("nearmiss1", k_neighbors=2))


# ---------------------------------------------------------------------------
# tomek links
# ---------------------------------------------------------------------------


def test_tomek_removes_majority_member_of_link() -> None:
    ds = make_dataset([[0.5], [0.4], [1.5], [3.0]], [1, 0, 0, 0])
    res = tomek_links(ds, spec("tomek_links"))
    np.testing.assert_array_equal(res.removed_indices, [1])
    assert res.dataset.n_rows == 3
    # the minority member of the link is never dropped
    assert 0.5 in res.dataset.features[:, 0]


def test_tomek_no_links_no_removal() -> None:
    ds = make_dataset([[0.0], [0.2], [10.0], [10.2]], [1, 1, 0, 0])
    res = tomek_links(ds, spec("tomek_links"))
    assert res.n_removed == 0
    assert res.dataset.n_rows == 4


def test_tomek_never_removes_minority(small_imbalanced) -> None:
    res = tomek_links(small_imbalanced, spec("tomek_links"))
    if res.n_removed:
        assert (small_imbalanced.labels[res.removed_indices] == 0).all()


# ---------------------------------------------------------------------------
# enn
# ---------------------------------------------------------------------------


def test_enn_removes_rows_their_neighbors_outvote() -> None:
    # the mixed cluster at 0.0..0.3 votes every one of its rows out;
    # the pure pair at 10.0 survives
    feats = [[0.0], [0.1], [0.2], [0.3], [10.0], [10.1]]
    labels = [1, 1, 0, 0, 0, 0]
    ds = make_dataset(feats, labels)
    res = enn(ds, spec("enn"))
    np.testing.assert_array_equal(res.removed_indices, [0, 1, 2, 3])
    np.testing.assert_array_equal(res.dataset.features[:, 0], [10.0, 10.1])


def test_enn_votes_before_any_removal() -> None:
    # votes are simultaneous: row 4's vote uses rows 2 and 3 even
    # though both are themselves removed
    feats = [[0.0], [0.1], [1.0], [1.1], [1.2], [5.0], [5.1]]
    labels = [0, 0, 1, 1, 0, 0, 0]
    ds = make_dataset(feats, labels)
    res = enn(ds, spec("enn"))
    assert 4 in res.removed_indices.tolist()


def test_enn_needs_more_than_three_rows() -> None:
    ds = make_dataset([[0.0], [1.0], [2.0]], [1, 0, 0])
    with pytest.raises(ValueError, match="enn requires more than 3 rows"):
        enn(ds, spec("enn"))


# ---------------------------------------------------------------------------
# cluster centroids
# ---------------------------------------------------------------------------


def test_cluster_centroids_two_tight_pairs() -> None:
    feats = [[5.0, 1.0], [5.0, 1.2], [0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]]
    labels = [1, 1, 0, 0, 0, 0]
    ds = make_dataset(feats, labels)
    res = cluster_centroids(ds, spec("cluster_centroids", seed=0))
    assert res.n_synthetic == 2 and res.n_removed == 4
    mask = res.dataset.origin.kind == SYNTHETIC
    cents = res.dataset.features[mask]
    assert sorted(map(tuple, cents)) == [(0.0, 1.0), (10.0, 1.0)]
    # parent = nearest original majority member, ties to the lower index
    np.testing.assert_array_equal(np.sort(res.dataset.origin.parent_a[mask]), [2, 4])
    np.testing.assert_array_equal(res.dataset.origin.delta[mask], [0.0, 0.0])
    assert (res.dataset.labels[mask] == 0).all()


def test_cluster_centroids_k_equals_majority_count() -> None:
    # one centroid per majority row reproduces the rows themselves
    feats = [[0.0], [1.0], [7.0], [8.0], [9.0], [10.0]]
    labels = [1, 1, 0, 0, 0, 0]
    ds = make_dataset(feats, labels)
    res = cluster_centroids(ds, spec("cluster_centroids", target_ratio=0.5, seed=3))
    mask = res.dataset.origin.kind == SYNTHETIC
    assert sorted(res.dataset.features[mask][:, 0].tolist()) == [7.0, 8.0, 9.0, 10.0]


def test_cluster_centroids_identical_majority_rows() -> None:
    # k-means++ finds every distance 0 after the first pick and takes the next unchosen row
    ds = make_dataset([[0.0], [1.0], [5.0], [5.0], [5.0], [5.0]], [1, 1, 0, 0, 0, 0])
    res = cluster_centroids(ds, spec("cluster_centroids", seed=1))
    assert res.n_synthetic == 2 and res.n_removed == 4
    mask = res.dataset.origin.kind == SYNTHETIC
    np.testing.assert_array_equal(res.dataset.features[mask], [[5.0], [5.0]])


def test_cluster_centroids_infeasible_k() -> None:
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [1, 1, 0, 0])
    with pytest.raises(ValueError, match="needs 4 centroids but only 2"):
        cluster_centroids(ds, spec("cluster_centroids", target_ratio=0.5))


# ---------------------------------------------------------------------------
# combined methods
# ---------------------------------------------------------------------------


def test_smote_tomek_removed_indices_span_input_and_new_rows(small_imbalanced) -> None:
    res = smote_tomek(small_imbalanced, spec("smote_tomek", seed=1))
    assert res.n_removed == len(res.removed_indices)
    if res.n_removed:
        assert res.removed_indices.max() < 36  # 24 input + 12 synthetic


def test_smote_tomek_anomaly_note_when_nothing_removed() -> None:
    feats = [[0.0], [0.1], [0.2], [0.3], [0.4], [0.5]] + [[50.0 + i] for i in range(8)]
    labels = [1] * 6 + [0] * 8
    ds = make_dataset(feats, labels)
    res = smote_tomek(ds, spec("smote_tomek", seed=0))
    assert res.n_removed == 0
    assert res.notes == (
        "cleaning stage removed no rows; class counts are identical to plain smote",
    )
    want = smote(ds, spec("smote", seed=0))
    np.testing.assert_array_equal(res.dataset.features, want.dataset.features)


def test_smote_enn_cleans_both_classes() -> None:
    rng = np.random.default_rng(0)
    # overlapping clusters so enn has something to do after smote
    x = np.vstack([rng.standard_normal((8, 2)) * 1.5, rng.standard_normal((20, 2))])
    y = np.concatenate([np.ones(8, dtype=np.int64), np.zeros(20, dtype=np.int64)])
    ds = make_dataset(x, y)
    res = smote_enn(ds, spec("smote_enn", seed=2))
    assert res.n_removed > 0
    assert "cleaning stage removed no rows" not in " ".join(res.notes)
    # n_synthetic counts surviving smote rows only
    n_synth_out = int((res.dataset.origin.kind == SYNTHETIC).sum())
    assert res.n_synthetic == n_synth_out


def test_combined_count_only_their_own_new_rows_on_oversampled_input() -> None:
    rng = np.random.default_rng(612)
    for trial in range(20):
        raw = random_imbalanced(rng, n_min_range=(6, 12), n_maj_range=(30, 50))
        # half of the way to balance: the input already holds synthetic rows
        ds = smote(raw, spec("smote", k_neighbors=3, target_ratio=0.5, seed=trial)).dataset
        for name, fn in (("smote_enn", smote_enn), ("smote_tomek", smote_tomek)):
            res = fn(ds, spec(name, k_neighbors=3, seed=trial))
            kept = np.setdiff1d(np.arange(ds.n_rows), res.removed_indices)
            kept_input_synth = int((ds.origin.kind[kept] == SYNTHETIC).sum())
            assert kept_input_synth > 0, name
            n_synth_out = int((res.dataset.origin.kind == SYNTHETIC).sum())
            assert res.n_synthetic == n_synth_out - kept_input_synth, name
            # the kept input rows come first, the method's own rows after them
            assert res.n_synthetic == res.dataset.n_rows - len(kept), name
            assert res.n_removed == len(res.removed_indices), name


def test_combined_synthetic_rows_still_reconstruct(small_imbalanced) -> None:
    res = smote_tomek(small_imbalanced, spec("smote_tomek", seed=9))
    pa, pb, delta = res.provenance
    want = interpolate(small_imbalanced.features[pa], small_imbalanced.features[pb], delta)
    mask = res.dataset.origin.kind == SYNTHETIC
    np.testing.assert_allclose(res.dataset.features[mask], want, atol=1e-9)


# ---------------------------------------------------------------------------
# shared properties over random instances
# ---------------------------------------------------------------------------


def test_interpolating_methods_reconstruction_property() -> None:
    rng = np.random.default_rng(501)
    methods = [("smote", smote), ("adasyn", adasyn), ("random_over", random_oversample)]
    for trial in range(50):
        ds = random_imbalanced(rng)
        name, fn = methods[trial % len(methods)]
        res = fn(ds, spec(name, k_neighbors=3, seed=trial))
        pa, pb, delta = res.provenance
        mask = res.dataset.origin.kind == SYNTHETIC
        got = res.dataset.features[mask]
        want = interpolate(ds.features[pa], ds.features[pb], delta)
        scale = max(1.0, float(np.abs(ds.features).max()))
        assert np.abs(got - want).max() <= 1e-9 * scale, name
        # synthetic rows lie between their parents, coordinate-wise
        lo = np.minimum(ds.features[pa], ds.features[pb])
        hi = np.maximum(ds.features[pa], ds.features[pb])
        assert (got >= lo - 1e-9).all() and (got <= hi + 1e-9).all(), name


def test_oversamplers_never_touch_input_rows() -> None:
    rng = np.random.default_rng(333)
    for trial in range(10):
        ds = random_imbalanced(rng)
        before = ds.features.copy()
        for name in ("smote", "random_over", "adasyn"):
            res = apply_resampler(ds, spec(name, k_neighbors=3, seed=trial))
            np.testing.assert_array_equal(ds.features, before)
            np.testing.assert_array_equal(res.dataset.features[: ds.n_rows], before)


def test_balancing_counts_per_method() -> None:
    rng = np.random.default_rng(77)
    for trial in range(10):
        ds = random_imbalanced(rng)
        n_min = int((ds.labels == 1).sum())
        n_maj = int((ds.labels == 0).sum())

        for name in ("smote", "random_over"):
            res = apply_resampler(ds, spec(name, k_neighbors=3, seed=trial))
            assert class_counts(res.dataset) == (n_maj, n_maj), name

        res = apply_resampler(ds, spec("adasyn", k_neighbors=3, seed=trial))
        n_pos, _ = class_counts(res.dataset)
        # per-row rint error is at most 0.5
        assert abs(n_pos - n_maj) <= n_min // 2 + 1

        for name in ("random_under", "nearmiss1"):
            res = apply_resampler(ds, spec(name, k_neighbors=3, seed=trial))
            assert class_counts(res.dataset) == (n_min, n_min), name

        res = apply_resampler(ds, spec("cluster_centroids", seed=trial))
        assert class_counts(res.dataset) == (n_min, n_min)


def test_all_methods_deterministic() -> None:
    rng = np.random.default_rng(4242)
    ds = random_imbalanced(rng, n_min_range=(8, 9), n_maj_range=(25, 26))
    for name in sorted(METHODS):
        s = spec(name, k_neighbors=3, m_neighbors=5, seed=13)
        a = apply_resampler(ds, s)
        b = apply_resampler(ds, s)
        np.testing.assert_array_equal(a.dataset.features, b.dataset.features, err_msg=name)
        np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels, err_msg=name)
        np.testing.assert_array_equal(a.removed_indices, b.removed_indices, err_msg=name)


# ---------------------------------------------------------------------------
# oracle equality for the neighbour-based cleaners
# ---------------------------------------------------------------------------


def oracle_nn(x, i, exclude_self=True):
    """Indices of all rows sorted by (distance to row i, index)."""
    cands = []
    for l in range(x.shape[0]):
        if exclude_self and l == i:
            continue
        cands.append((float(((x[i] - x[l]) ** 2).sum()), l))
    cands.sort()
    return cands


def oracle_tomek_removed(x, y):
    n = x.shape[0]
    nn = [oracle_nn(x, i)[0][1] for i in range(n)]
    n_pos = int(y.sum())
    min_label = 1 if n_pos <= n - n_pos else 0
    out = []
    for i in range(n):
        j = nn[i]
        if nn[j] == i and y[i] != y[j] and y[i] != min_label:
            out.append(i)
    return np.array(sorted(out), dtype=np.int64)


def oracle_enn_removed(x, y):
    n = x.shape[0]
    out = []
    for i in range(n):
        nbrs = [l for _, l in oracle_nn(x, i)[:3]]
        vote = 1 if sum(y[l] for l in nbrs) >= 2 else 0
        if vote != y[i]:
            out.append(i)
    return np.array(sorted(out), dtype=np.int64)


def oracle_nearmiss_removed(x, y, k):
    n_pos = int(y.sum())
    min_label = 1 if n_pos <= len(y) - n_pos else 0
    min_rows = np.nonzero(y == min_label)[0]
    maj_rows = np.nonzero(y != min_label)[0]
    means = []
    for i in maj_rows:
        dists = sorted(float(np.sqrt(((x[i] - x[j]) ** 2).sum())) for j in min_rows)
        means.append(np.array(dists[:k]).mean())
    order = np.argsort(np.array(means), kind="stable")
    keep = set(maj_rows[order[: len(min_rows)]].tolist())
    return np.array(sorted(set(maj_rows.tolist()) - keep), dtype=np.int64)


def test_cleaners_match_oracles_on_random_instances() -> None:
    rng = np.random.default_rng(909)
    for trial in range(25):
        n = int(rng.integers(12, 60))
        d = int(rng.integers(1, 4))
        x = rng.standard_normal((n, d))
        if trial % 3 == 0:
            # half-unit grid forces exact distance ties
            x = np.round(x * 2) / 2.0
        y = (rng.random(n) < 0.35).astype(np.int64)
        if y.sum() < 3 or y.sum() > n - 4:
            continue
        ds = make_dataset(x, y)

        got = tomek_links(ds, spec("tomek_links"))
        np.testing.assert_array_equal(got.removed_indices, oracle_tomek_removed(x, y))

        got = enn(ds, spec("enn"))
        np.testing.assert_array_equal(got.removed_indices, oracle_enn_removed(x, y))

        k = int(rng.integers(1, 4))
        n_min = min(int(y.sum()), int((1 - y).sum()))
        if n_min >= k:
            got = nearmiss1(ds, spec("nearmiss1", k_neighbors=k))
            np.testing.assert_array_equal(got.removed_indices, oracle_nearmiss_removed(x, y, k))
