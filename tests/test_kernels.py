"""Distance/k-NN kernel tests: oracle equality and tie rules."""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from leakbench import _kernels
from leakbench._kernels import knn, pairwise_sq_dists

from conftest import peak_traced


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


# the ids name reference sizes around 8,192 rows, once the widest distance
# tile; the default 2**18-element blocks are then 32 or 31 query rows high
CAP = 8192


@pytest.mark.parametrize("n_ref", [1, CAP - 1, CAP, CAP + 1])
def test_kernels_bitwise_equal_the_untiled_reference_across_tile_edges(n_ref) -> None:
    rng = np.random.default_rng(n_ref)
    d = 5
    ref = rng.standard_normal((n_ref, d))
    # triples of equal rows, so that searches meet exact ties
    ref[1::3] = ref[0::3][: len(ref[1::3])]
    ref[2::3] = ref[0::3][: len(ref[2::3])]
    # a float32 product's block height, twice a float64 one's
    rows = _kernels._block_rows(ref, n_ref, itemsize=4)
    n_query = rows + 3  # a row-block edge with a remainder
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


def test_knn_bitwise_on_tie_heavy_inputs_over_several_tiles(monkeypatch) -> None:
    # rows drawn from a small pool of points on a 0.1 grid: many exact
    # ties, and sums whose last bits depend on the feature order
    monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", 2**16)
    rng = np.random.default_rng(57)
    for trial in range(16):
        d = int(rng.integers(3, 6))
        pool = rng.integers(-20, 21, size=(int(rng.integers(2, 8)), d)) / 10
        n = int(rng.integers(250, 600))
        assert n > _kernels._BLOCK_ELEMS // n  # several blocks
        ref = pool[rng.integers(0, len(pool), n)]
        for k in (1, int(rng.integers(2, n - 1)), n - 1):
            if trial % 2 == 0:
                assert_knn_bitwise(ref, ref, k, np.arange(n, dtype=np.int64))
            else:
                assert_knn_bitwise(pool[rng.integers(0, len(pool), n + 11)], ref, k)


def _on_threads(cpus, search) -> None:
    """Run ``search()`` on the calling thread (``cpus`` None), or on ``cpus``
    threads at once, released together so that their searches overlap.  A
    search must not depend on which thread runs it or on what the others do,
    as when one process runs a search per CPU; a thread's assertion error is
    raised here."""
    if cpus is None:
        search()
        return
    start = threading.Barrier(cpus)

    def run() -> None:
        start.wait(timeout=60)
        search()

    with ThreadPoolExecutor(cpus) as pool:
        for future in [pool.submit(run) for _ in range(cpus)]:
            future.result()


@pytest.mark.parametrize(
    ("block", "cpus"),
    # cpus None searches on the calling thread; cpusN on N threads at once
    [
        pytest.param(block, cpus, id=str(block) if cpus is None else f"{block}-cpus{cpus}")
        for block in (4, 7, 16)
        for cpus in (None, 1, 2, 3, 5)
    ],
)
def test_self_search_bitwise_equals_the_untiled_reference_across_blocks(
    monkeypatch, block, cpus
) -> None:
    rng = np.random.default_rng(block)
    # one, two and three blocks, each on and around a block edge, so that
    # blocks hold 1, a few or many rows
    sizes = sorted({2, 3, *(m * block + e for m in (1, 2, 3) for e in (-1, 0, 1))})
    for n in sizes:
        d = int(rng.integers(1, 5))
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", block * max(n, d))
        normal = rng.standard_normal((n, d))
        normal[1::4] = normal[0::4][: len(normal[1::4])]
        # few distinct integer points: exact ties and duplicate rows
        ties = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        # squared differences of 1e155 overflow to inf; duplicates stay 0
        huge = ties * 1e155

        def search(n=n, arrays=(normal, ties, huge)) -> None:
            # a new thread starts with numpy's default error state
            with np.errstate(over="ignore"):
                for x in arrays:
                    for k in range(1, min(n - 1, 12) + 1):
                        assert_knn_bitwise(x, x, k, np.arange(n, dtype=np.int64))

        _on_threads(cpus, search)


@pytest.mark.parametrize("group", [2, 3, 16])
def test_knn_bitwise_across_group_edges(monkeypatch, group) -> None:
    # g = n_ref // (group * (k + 1)) slabs, from 1 to group: the sizes sit on
    # and around the edges where g steps up, among them k + 1 (one column
    # per group) and 2 * group * (k + 1) + 1, where g = 2 and the last
    # group's second column is a pad, so that a row's excluded self is
    # alone in a 2-column group
    monkeypatch.setattr(_kernels, "_GROUP", group)
    rng = np.random.default_rng(group)
    for k in (1, 3):
        edge = group * (k + 1)
        sizes = {k + 1} | {m * edge + e for m in (1, 2, 3, group) for e in (-1, 0, 1)}
        for n in sorted(n for n in sizes if n > k):
            d = int(rng.integers(1, 5))
            normal = rng.standard_normal((n, d))
            # few distinct integer points: exact ties and duplicate rows
            ties = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
            for x in (normal, ties, ties * 1e155):  # 1e155 overflows some sums
                query = x[rng.integers(0, n, 40)]
                with np.errstate(over="ignore"):
                    assert_knn_bitwise(x, x, k, np.arange(n, dtype=np.int64))
                    assert_knn_bitwise(query, x, k)


def test_search_recomputes_about_k_sums_per_row(monkeypatch) -> None:
    # the prefilter's work, counted without a clock: the sums it leaves to
    # recompute, at most k + 1 a row on average on Gaussian rows
    counted = []
    sq_sums = _kernels._sq_sums

    def spy(q_cols, r_cols, out) -> None:
        counted.append(out.size)
        sq_sums(q_cols, r_cols, out)

    monkeypatch.setattr(_kernels, "_sq_sums", spy)
    rng = np.random.default_rng(67)
    k = 3
    x = rng.standard_normal((3_800, 30))
    # nearmiss1's shape: every row against a narrow minority reference
    rows, minority = rng.standard_normal((19_900, 30)), rng.standard_normal((100, 30))
    for query, ref, self_idx in ((x, x, np.arange(len(x))), (rows, minority, None)):
        counted.clear()
        knn(query, ref, k, self_idx=self_idx)
        assert sum(counted) <= (k + 1) * len(query)


def test_self_search_of_an_equal_copy_streams_to_the_same_result(monkeypatch) -> None:
    monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", 8 * 41)
    rng = np.random.default_rng(23)
    pool = rng.integers(-2, 3, size=(6, 3)).astype(np.float64)
    x = pool[rng.integers(0, len(pool), 41)]
    self_idx = np.arange(41, dtype=np.int64)
    for k in (1, 4, 40):
        idx, sqd = knn(x, x, k, self_idx=self_idx)
        copy_idx, copy_sqd = knn(x, x.copy(), k, self_idx=self_idx)
        assert np.array_equal(copy_idx, idx) and np.array_equal(copy_sqd, sqd)


def test_knn_bitwise_where_the_expansion_loses_every_bit_of_the_clusters() -> None:
    # two clusters 1e6 apart along feature 0, each spread over integers x 1e-7:
    # |q|^2 + |r|^2 - 2 q.r cancels about 1e12 down to about 1e-12, so its
    # rounding swamps every in-cluster distance, and only the error bound
    # keeps the true neighbours among the candidates.  Scaled by 1e-162, the
    # in-cluster squares underflow, and the bound's absolute term keeps them
    rng = np.random.default_rng(61)
    for trial in range(20):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(60, 301))
        x = rng.integers(-5, 6, size=(n, d)) * 1e-7
        x[: n // 2, 0] += 1e6
        x = x[rng.permutation(n)]
        query = x[rng.integers(0, n, n // 3)]
        for scale in (1.0, 1e-162):
            for k in (1, 3, 7):
                if trial % 2 == 0:
                    assert_knn_bitwise(x * scale, x * scale, k, np.arange(n, dtype=np.int64))
                else:
                    assert_knn_bitwise(query * scale, x * scale, k)


def _spy_product_dtype(monkeypatch) -> list:
    """Record the dtype each search picks for its matrix product."""
    picked = []
    product_dtype = _kernels._product_dtype

    def spy(*args):
        picked.append(product_dtype(*args))
        return picked[-1]

    monkeypatch.setattr(_kernels, "_product_dtype", spy)
    return picked


# the product's dtype at each scale of the rows below: float32 while
# (2 (Q + R))^2, Q and R the norm bounds from the column extremes, stays in
# its normal range; at 1e-20 it does, but the products underflow float32
SCALES = {
    1e-40: np.float64,
    1e-20: np.float32,
    1.0: np.float32,
    1e17: np.float32,
    1e19: np.float64,
    1e30: np.float64,
    1e155: np.float64,  # some sums overflow float64
}


@pytest.mark.parametrize("scale", list(SCALES), ids=str)
def test_knn_bitwise_across_magnitudes_in_both_product_dtypes(monkeypatch, scale) -> None:
    picked = _spy_product_dtype(monkeypatch)
    # float32 blocks of 16 rows, float64 blocks of 8
    monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", 8 * 250)
    rng = np.random.default_rng(71)
    n, d = 250, 3
    normal = rng.standard_normal((n, d))
    normal[1::4] = normal[0::4][: len(normal[1::4])]  # exact ties
    ties = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    for x in (normal * scale, ties * scale):
        query = x[rng.integers(0, n, 37)]
        with np.errstate(over="ignore"):
            for k in (1, 4, 17):
                picked.clear()
                assert_knn_bitwise(x, x, k, np.arange(n, dtype=np.int64))
                assert_knn_bitwise(query, x, k)
                assert picked == [SCALES[scale]] * 2


def test_knn_bitwise_where_float32_products_underflow(monkeypatch) -> None:
    # reference rows about 1e-22 across and a query that also holds a row at
    # 1: the rule picks float32, whose a_ij near the reference round to a few
    # subnormal bits, and only the bound's tiny term keeps the neighbours
    picked = _spy_product_dtype(monkeypatch)
    rng = np.random.default_rng(79)
    for scale in (1e-21, 1e-22, 1e-23):
        x = rng.standard_normal((200, 3)) * scale
        query = x[rng.integers(0, 200, 40)] + rng.standard_normal((40, 3)) * scale
        query[0] = 1.0
        for k in (1, 3):
            assert_knn_bitwise(query, x, k)
    assert set(picked) == {np.float32}


def test_knn_near_ties_below_float32_resolution_reach_the_recompute(monkeypatch) -> None:
    # rows 1-4 lie at squared distances 1 + 2^-52, 1, 1 and 1 + 2^-52 from
    # the query: one float64 ulp apart, far below what the float32 product
    # resolves, so all four must be recomputed and ordered by their sums,
    # and ties by index
    picked = _spy_product_dtype(monkeypatch)
    recomputed = []
    sq_sums = _kernels._sq_sums

    def spy(q_cols, r_cols, out) -> None:
        r_cols = list(r_cols)
        recomputed.append(np.column_stack(r_cols))
        sq_sums(q_cols, r_cols, out)

    monkeypatch.setattr(_kernels, "_sq_sums", spy)
    t = 2.0**-26
    near = np.array([[1.0, t], [1.0, 0.0], [0.0, 1.0], [1.0, -t]])
    far = 3.0 + np.random.default_rng(73).random((300, 2))  # 3 or more from the query
    ref = np.vstack([far[:1], near, far[1:]])
    query = np.zeros((1, 2))
    for k, want in ((1, [2]), (2, [2, 3]), (4, [2, 3, 1, 4])):
        recomputed.clear()
        assert_knn_bitwise(query, ref, k)
        assert knn(query, ref, k)[0].tolist() == [want]
        assert picked[-1] == np.float32
        for row in near:
            assert any((rows == row).all(axis=1).any() for rows in recomputed)


def test_pairwise_bitwise_equals_the_untiled_reference_across_row_blocks(monkeypatch) -> None:
    rng = np.random.default_rng(29)
    rows, d = 5, 4
    # one reference row, as k-means seeding passes, and a few
    for n_ref in (1, 7):
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", rows * max(n_ref, d))
        for n in (m * rows + e for m in (1, 2, 3) for e in (-1, 0, 1)):
            # few distinct integer points: exact ties and zero distances
            query = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
            ref = query[rng.integers(0, n, n_ref)]
            ref[0, 0] += 1.0  # at least one nonzero difference
            # squared differences of 1e155 overflow to inf; equal rows stay 0
            for scale in (1.0, 1e155):
                with np.errstate(over="ignore"):
                    got = pairwise_sq_dists(query * scale, ref * scale)
                    want = reference_sq_dists(query * scale, ref * scale)
                assert np.array_equal(got, want)
            assert np.isinf(want).any()  # some of the 1e155 distances overflow
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                pairwise_sq_dists(query * 1e155, ref * 1e155)


def test_pairwise_holds_about_one_block_beyond_its_output() -> None:
    # k-means seeding's shape: many query rows against one reference row
    query = np.random.default_rng(53).standard_normal((50_000, 30))
    out_bytes = len(query) * 8
    peak = peak_traced(lambda: pairwise_sq_dists(query, query[:1]))
    # a broadcast (n, 1, d) temporary alone would take 12 MB
    assert peak < out_bytes + 2 * _kernels._BLOCK_ELEMS * 8


@pytest.mark.parametrize("cpus", [1, 2])
def test_workers_run_under_the_callers_error_state(monkeypatch, cpus) -> None:
    # the prefilter ignores every floating-point error; the recompute does
    # not.  On two threads at once, one thread's prefilter overlaps the other's
    # recompute, and each must see only its own thread's error state
    monkeypatch.setattr(_kernels, "_BLOCK_ELEMS", 8 * 40)
    # five blocks; squared differences of 1e155 overflow to inf
    x = np.random.default_rng(41).integers(-2, 3, size=(40, 3)) * 1e155
    self_idx = np.arange(40, dtype=np.int64)
    with np.errstate(over="ignore"):
        ridx, rsqd = reference_knn(x, x, 3, self_idx)

    def search() -> None:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            knn(x, x, 3, self_idx=self_idx)
        with np.errstate(over="ignore"):
            idx, sqd = knn(x, x, 3, self_idx=self_idx)
        assert np.array_equal(idx, ridx) and np.array_equal(sqd, rsqd)

    # the filters are process-wide, so they are set once, around every thread
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _on_threads(cpus, search)


def test_search_holds_about_two_blocks_beyond_its_inputs() -> None:
    n, d, k = 3_800, 30, 3
    x = np.random.default_rng(47).standard_normal((n, d))
    self_idx = np.arange(n, dtype=np.int64)
    block_bytes = _kernels._BLOCK_ELEMS * 8
    peak = peak_traced(lambda: knn(x, x, k, self_idx=self_idx))
    assert peak < 2 * block_bytes + 2 * x.nbytes


def test_searches_on_finite_input_raise_no_warning() -> None:
    # the prefilter's overflows and the excluded self's inf must not warn
    rng = np.random.default_rng(37)
    x = rng.standard_normal((300, 4))
    x[1::5] = x[0::5]  # exact ties
    self_idx = np.arange(300, dtype=np.int64)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        knn(x, x, 5, self_idx=self_idx)  # self-search
        knn(x[:50], x, 5)  # no exclusion


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


def test_knn_rejects_a_self_idx_entry_outside_ref() -> None:
    # -2 used to turn the exclusion off, and n_ref died with a bare IndexError
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 2))
    for bad in (-2, 6, 99):
        self_idx = np.arange(6, dtype=np.int64)
        self_idx[3] = bad
        for ref in (x, x.copy()):  # self-search and streamed
            with pytest.raises(ValueError, match=rf"self_idx entry {bad} is neither -1 nor a row"):
                knn(x, ref, 2, self_idx=self_idx)
    # unsigned ids are checked as given: 2**64 - 1 used to wrap to -1 and
    # turn the exclusion off, and 2**63 was named as a negative number
    for bad in (2**64 - 1, 2**63):
        for ref in (x, x.copy()):
            with pytest.raises(ValueError, match=rf"self_idx entry {bad} is neither -1 nor a row"):
                knn(x, ref, 2, self_idx=np.full(6, bad, dtype=np.uint64))
    # -1 excludes nothing and the last row of ref is a row
    self_idx = np.array([-1, 1, 2, 3, 4, 5])
    idx, sqd = knn(x, x, 2, self_idx=self_idx)
    assert idx[0, 0] == 0 and sqd[0, 0] == 0.0
    assert all(i not in idx[i] for i in range(1, 6))


def test_knn_rejects_a_boolean_self_idx() -> None:
    # an all-True mask was cast to row 1 everywhere, so rows 2-4 found themselves at distance 0
    x = np.random.default_rng(7).standard_normal((5, 2))
    for ref in (x, x.copy()):  # self-search and streamed
        with pytest.raises(ValueError, match="self_idx must hold integer row ids, not bool"):
            knn(x, ref, 1, self_idx=np.ones(5, dtype=bool))


def test_knn_rejects_a_float_self_idx() -> None:
    # a float entry was truncated to a row id
    x = np.random.default_rng(8).standard_normal((5, 2))
    for ref in (x, x.copy()):
        with pytest.raises(ValueError, match="self_idx must hold integer row ids, not float64"):
            knn(x, ref, 1, self_idx=np.arange(5) + 0.5)
    assert knn(x, x.copy(), 1, self_idx=np.arange(5, dtype=np.int32))[0].shape == (5, 1)


def test_backend_name_reports_selection() -> None:
    assert _kernels.backend_name() == "numpy"
