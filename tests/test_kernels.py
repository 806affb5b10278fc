"""Distance/k-NN kernel tests: oracle equality and tie rules."""

from __future__ import annotations

import numpy as np
import pytest

from leakbench import _kernels
from leakbench._kernels import knn, pairwise_sq_dists


def oracle_knn(query, ref, k, self_idx=None):
    """From-scratch O(n^2) reference: sort by (distance, index)."""
    n_query = query.shape[0]
    idx = np.empty((n_query, k), dtype=np.int64)
    sqd = np.empty((n_query, k), dtype=np.float64)
    for i in range(n_query):
        cands = []
        for l in range(ref.shape[0]):
            if self_idx is not None and self_idx[i] == l:
                continue
            d = float(np.sum((query[i] - ref[l]) ** 2))
            cands.append((d, l))
        cands.sort()
        for rank in range(k):
            sqd[i, rank], idx[i, rank] = cands[rank]
    return idx, sqd


def reference_sq_dists(query, ref):
    """The untiled kernel: one full-size accumulation per feature, column 0 first."""
    out = np.zeros((query.shape[0], ref.shape[0]))
    for j in range(query.shape[1]):
        diff = query[:, j, None] - ref[None, :, j]
        out += diff * diff
    return out


def reference_knn(query, ref, k, self_idx=None):
    """The untiled search: the full distance matrix, then a stable sort per
    row by distance, with the excluded self after every other column."""
    dists = reference_sq_dists(query, ref)
    is_self = np.zeros(dists.shape, dtype=bool)
    if self_idx is not None:
        rows = np.nonzero(self_idx >= 0)[0]
        dists[rows, self_idx[rows]] = np.inf
        is_self[rows, self_idx[rows]] = True
    order = np.lexsort((is_self, dists))[:, :k]
    return order, np.take_along_axis(dists, order, axis=1)


def assert_knn_bitwise(query, ref, k, self_idx=None) -> None:
    idx, sqd = knn(query, ref, k, self_idx=self_idx)
    ridx, rsqd = reference_knn(query, ref, k, self_idx)
    assert np.array_equal(idx, ridx)
    assert np.array_equal(sqd, rsqd)


CAP = _kernels._TILE_COLS


@pytest.mark.parametrize("n_ref", [1, CAP - 1, CAP, CAP + 1])
def test_kernels_bitwise_equal_the_untiled_reference_across_tile_edges(n_ref) -> None:
    rng = np.random.default_rng(n_ref)
    d = 5
    ref = rng.standard_normal((n_ref, d))
    # triples of equal rows, so that searches meet exact ties
    ref[1::3] = ref[0::3][: len(ref[1::3])]
    ref[2::3] = ref[0::3][: len(ref[2::3])]
    rows, _ = _kernels._tile_shape(n_ref, d)
    n_query = rows + 3  # not a multiple of the tile height
    query = rng.standard_normal((n_query, d))
    query[::4] = ref[rng.integers(0, n_ref, len(query[::4]))]
    assert np.array_equal(pairwise_sq_dists(query, ref), reference_sq_dists(query, ref))
    for k in (1, n_ref):
        assert_knn_bitwise(query, ref, k)
    if n_ref > 1:
        # the first rows of ref searched against ref, each excluding itself
        m = min(n_ref, rows + 3)
        for k in (1, n_ref - 1):
            assert_knn_bitwise(ref[:m], ref, k, np.arange(m, dtype=np.int64))


def test_knn_bitwise_on_distances_that_overflow_to_inf() -> None:
    rng = np.random.default_rng(17)
    n, d = 300, 4
    x = rng.standard_normal((n, d))
    # squared differences of these rows overflow; the rest stay finite
    x[rng.random(n) < 0.4] *= 1e200
    query = rng.standard_normal((n + 7, d))
    query[::3] *= 1e200
    with np.errstate(over="ignore"):
        for k in (1, 5, n - 1):
            assert_knn_bitwise(x, x, k, np.arange(n, dtype=np.int64))
            assert_knn_bitwise(query, x, k)
        idx, sqd = knn(x, x, n - 1, self_idx=np.arange(n, dtype=np.int64))
        assert np.isinf(sqd).any()
        # a row is never its own neighbour, even among overflowed distances
        assert (idx != np.arange(n)[:, None]).all()

        # every distance from rows 0 and 1 overflows; the excluded self
        # still sorts after the other rows
        x = np.array([[0.0], [1e200], [-1e200], [2e200]])
        idx, _ = knn(x, x, 2, self_idx=np.arange(4, dtype=np.int64))
        np.testing.assert_array_equal(idx, [[1, 2], [0, 2], [0, 1], [0, 1]])


def test_knn_bitwise_on_tie_heavy_inputs_over_several_tiles() -> None:
    # rows drawn from a small pool of points on a 0.1 grid: many exact
    # ties, and sums whose last bits depend on the feature order
    rng = np.random.default_rng(57)
    for trial in range(16):
        d = int(rng.integers(3, 6))
        pool = rng.integers(-20, 21, size=(int(rng.integers(2, 8)), d)) / 10
        n = int(rng.integers(250, 600))
        assert n > _kernels._tile_shape(n, d)[0]
        ref = pool[rng.integers(0, len(pool), n)]
        for k in (1, int(rng.integers(2, n - 1)), n - 1):
            if trial % 2 == 0:
                assert_knn_bitwise(ref, ref, k, np.arange(n, dtype=np.int64))
            else:
                assert_knn_bitwise(pool[rng.integers(0, len(pool), n + 11)], ref, k)


def test_kernels_reject_non_finite_input() -> None:
    x = np.array([[0.0], [np.nan], [1.0], [2.0], [3.0]])
    with pytest.raises(ValueError, match="finite"):
        knn(x, x, 2, self_idx=np.arange(5, dtype=np.int64))
    good = np.zeros((3, 1))
    for bad in (np.nan, np.inf, -np.inf):
        x = np.array([[0.0], [bad]])
        with pytest.raises(ValueError, match="finite"):
            knn(good, x, 1)
        with pytest.raises(ValueError, match="finite"):
            pairwise_sq_dists(x, good)


def test_pairwise_small_hand_example() -> None:
    q = np.array([[0.0, 0.0], [1.0, 1.0]])
    r = np.array([[0.0, 0.0], [3.0, 4.0]])
    d = pairwise_sq_dists(q, r)
    np.testing.assert_array_equal(d, [[0.0, 25.0], [2.0, 13.0]])


def test_pairwise_matches_oracle() -> None:
    rng = np.random.default_rng(7)
    q = rng.standard_normal((17, 5))
    r = rng.standard_normal((23, 5))
    want = np.array([[np.sum((qi - ri) ** 2) for ri in r] for qi in q])
    np.testing.assert_allclose(pairwise_sq_dists(q, r), want, rtol=1e-12)


def test_knn_matches_oracle_many_instances() -> None:
    rng = np.random.default_rng(99)
    for trial in range(20):
        n = int(rng.integers(6, 40))
        d = int(rng.integers(1, 6))
        x = rng.standard_normal((n, d))
        k = int(rng.integers(1, min(5, n - 1) + 1))
        self_idx = np.arange(n, dtype=np.int64)
        idx, sqd = knn(x, x, k, self_idx=self_idx)
        oidx, osqd = oracle_knn(x, x, k, self_idx)
        np.testing.assert_array_equal(idx, oidx)
        np.testing.assert_allclose(sqd, osqd, rtol=1e-12)


def test_knn_matches_oracle_on_tie_heavy_inputs() -> None:
    # rows drawn from a small pool of small-integer points: distances are
    # exact, many are equal, and most rows have exact duplicates
    rng = np.random.default_rng(31)
    for trial in range(60):
        d = int(rng.integers(1, 4))
        pool = rng.integers(-2, 3, size=(int(rng.integers(2, 7)), d)).astype(np.float64)
        n = int(rng.integers(4, 40))
        ref = pool[rng.integers(0, len(pool), n)]
        if trial % 2 == 0:
            query, self_idx = ref, np.arange(n, dtype=np.int64)
        else:
            query, self_idx = pool[rng.integers(0, len(pool), int(rng.integers(1, 20)))], None
        k = int(rng.integers(1, n))
        idx, sqd = knn(query, ref, k, self_idx=self_idx)
        oidx, osqd = oracle_knn(query, ref, k, self_idx)
        np.testing.assert_array_equal(idx, oidx)
        np.testing.assert_array_equal(sqd, osqd)

    # rows 1-3 are duplicates: row 1 takes the other two in index order,
    # then row 0 over row 4
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 2.0]])
    self_idx = np.arange(5, dtype=np.int64)
    idx, sqd = knn(x, x, 3, self_idx=self_idx)
    oidx, osqd = oracle_knn(x, x, 3, self_idx)
    np.testing.assert_array_equal(idx, oidx)
    np.testing.assert_array_equal(sqd, osqd)
    np.testing.assert_array_equal(idx[1], [2, 3, 0])


def test_knn_excludes_self() -> None:
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 3))
    idx, sqd = knn(x, x, 4, self_idx=np.arange(12, dtype=np.int64))
    for i in range(12):
        assert i not in idx[i]
        assert (sqd[i] > 0).all()


def test_knn_without_exclusion_returns_self_first() -> None:
    rng = np.random.default_rng(4)
    x = rng.standard_normal((9, 3))
    idx, sqd = knn(x, x, 1)
    np.testing.assert_array_equal(idx[:, 0], np.arange(9))
    np.testing.assert_array_equal(sqd[:, 0], np.zeros(9))


def test_knn_tie_breaks_to_lower_index() -> None:
    # rows 1, 2, 3 are all at distance 1 from the query
    ref = np.array([[5.0], [1.0], [-1.0], [1.0]])
    query = np.array([[0.0]])
    idx, sqd = knn(query, ref, 3)
    np.testing.assert_array_equal(idx, [[1, 2, 3]])
    np.testing.assert_array_equal(sqd, [[1.0, 1.0, 1.0]])


def test_knn_k_too_large_raises() -> None:
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="k=4 exceeds the 3 eligible"):
        knn(x, x, 4, self_idx=np.arange(4, dtype=np.int64))
    # without self-exclusion all 4 rows are eligible
    idx, _ = knn(x, x, 4)
    assert idx.shape == (4, 4)


def test_knn_rejects_bad_shapes() -> None:
    with pytest.raises(ValueError, match="2-d"):
        knn(np.zeros(3), np.zeros((3, 1)), 1)
    with pytest.raises(ValueError, match="same number of columns"):
        knn(np.zeros((2, 2)), np.zeros((2, 3)), 1)
    with pytest.raises(ValueError, match="same number of columns"):
        pairwise_sq_dists(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="one entry per query row"):
        knn(np.zeros((2, 2)), np.zeros((4, 2)), 1, self_idx=np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="at least 1"):
        knn(np.zeros((2, 2)), np.zeros((4, 2)), 0)


def test_backend_name_reports_selection() -> None:
    assert _kernels.backend_name() == "numpy"
