"""Brute-force distance kernels shared by the resamplers.

One numpy implementation.  A squared distance is the sum
``sum_j (q_j - r_j) ** 2`` accumulated feature by feature, column 0
first, starting from 0.  Both functions return exactly these sums, never
the ``|q|^2 + |r|^2 - 2 q.r`` expansion, whose last bits differ and can
flip near-ties; ``knn`` breaks exact ties toward the lower reference row
index.

``pairwise_sq_dists`` (k-means seeding) accumulates the sums over
cache-sized tiles of the distance matrix: a block of query rows against
a block of reference columns, with one preallocated scratch tile for the
per-feature term.  A tile smaller than its buffers is computed in their
leading h x w elements, not in an h x w slice of them: a slice of a
wider buffer is strided, and numpy runs each ufunc call on a strided
tile as one short loop per row instead of one flat loop.  The tiles run
with numpy's ufunc buffer at 512 elements, and the caller's size is
restored on return or error.  At numpy's default 8,192, a broadcast
subtraction whose rows are shorter than a third of the buffer takes
numpy's buffered path, at 1.0-1.9 ns per element instead of 0.3-0.6.

``knn`` computes only the sums it needs.  It cuts the query rows into
blocks of ``_BLOCK_ELEMS // n_ref`` rows, at least one, and for each
block picks candidates with the expansion, one matrix product on BLAS,
under a rigorous bound on its rounding error.  Both sides are first
centred on ``ref``'s column mean: that leaves every difference q - r as
it was but shrinks the norms, and so the bound.  For query row i and
reference row j (centred, d features) the block holds
``a_ij = |r_j|^2 - 2 q_i.r_j``; the expansion's ``|q_i|^2`` is the same
for every column of the row, so it is left out.  With u = eps / 2 and
gamma_m = m u / (1 - m u), the error analysis of dot products in Higham,
*Accuracy and Stability of Numerical Algorithms* (2nd ed., 2002), ch. 3,
bounds the rounding of a_ij, of the centring and of the sum itself
together by

    e_i = 4 gamma_{d+4} (|q_i| + max_j |r_j|)^2 + tiny,

about twice what they need, which covers the rounding of the bound
itself.  ``tiny``, the smallest normal float64, covers the absolute error
of products that underflow.  So every sum s_ij, less |q_i|^2, is within
e_i of a_ij, whatever BLAS's summation order.  If c is the k-th smallest
a_ij of row i, k eligible rows have sums at most c + e_i (plus |q_i|^2),
so the k-th smallest sum is too, and every row whose sum ties or beats
it has a_ij at most ``cut_i = c + 2 e_i``.  The columns at or below
cut_i are the candidates; their sums are recomputed from the raw rows
in the order above, and a stable sort by (row, sum, index) takes the
first k.  The lists are those of a full stable sort of every sum,
however near the ties, for a few sums per row.  FAISS runs exact search
through the same expansion on GEMM (Johnson, Douze and Jegou,
"Billion-scale similarity search with GPUs", IEEE Trans. Big Data,
2019); the bound and the recompute remove its loss of precision.

A row's excluded self is set to inf before the k-th smallest a_ij is
taken, and it is never a candidate.  When cut_i is not finite (inf or
nan) the whole row is recomputed.  That covers overflow: a sum that
overflows has |q_i - r_j|^2 > DBL_MAX / 2, so (2 (|q_i| + max_j |r_j|))^2
overflows, e_i is inf, and every pair of the row is summed as an
exhaustive search sums it.  The prefilter runs with every floating-point
error ignored, since an overflow there only widens a bound; the sums run
under the caller's error state, so ``over="raise"`` raises exactly when
an exhaustive search would.

A block holds about 2 MB of a_ij, plus a partitioned copy, and a
centred copy of ``ref`` is held for the whole search.  The matrix
product runs on BLAS's own threads, the one level of parallelism in the
kernels; the rest runs on the calling thread.

Inputs must be finite: ``nan`` and ``inf`` are rejected, since their
distances do not order.  All searches are exhaustive
O(n_query * n_ref); callers that run them on very large inputs are
expected to gate that behind an explicit opt-in.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = ["backend_name", "knn", "pairwise_sq_dists"]

# A distance tile holds about this many float64 elements (512 kB), so
# that the tile and its scratch stay in a core's cache while all
# features are accumulated into it.  Picked from a sweep of 2**15 to
# 2**18, when these tiles also computed the kNN searches.
_TILE_ELEMS = 2**16
# Widest tile in reference columns; narrower references get taller
# tiles, so a one-column search such as k-means seeding does not pay
# per-tile overhead every few rows.  Wider references are cut into
# equal blocks of 4,096 to 8,192 columns, so that no narrow remainder
# block is left over.
_TILE_COLS = 8192
# numpy's ufunc buffer, in elements, while tiles are computed.  numpy
# buffers a broadcast subtraction whose rows are shorter than a third of
# this buffer, which makes it two to six times slower per element: at
# 512 that is tiles under 171 columns, at the default 8,192 under 2,731.
_UFUNC_BUFSIZE = 512
# A kNN block's approximate distances take about this many float64
# elements (2 MB), and at least one query row.
_BLOCK_ELEMS = 2**18
# float64's unit roundoff, and its smallest normal number, which bounds the
# absolute error of the products that underflow
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny


def backend_name() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"


def _tile_shape(n_ref: int, n_features: int) -> tuple[int, int]:
    # equal column blocks, so that no narrow remainder block is left over
    blocks = max(1, -(-n_ref // _TILE_COLS))
    cols = max(1, -(-n_ref // blocks))
    # the tile's query rows stay in cache too, since each feature reads
    # them again
    return max(1, _TILE_ELEMS // max(cols, n_features)), cols


def _sq_dists_into(
    query: np.ndarray, ref_t: np.ndarray, out: np.ndarray, diff: np.ndarray
) -> None:
    """Write the (n_query, n_ref) squared distances into ``out``.

    ``ref_t`` is ``ref`` transposed and contiguous, and ``diff`` a
    scratch tile whose shape sets the tile size.
    """
    rows, cols = diff.shape
    for c0 in range(0, ref_t.shape[1], cols):
        ref_blk = ref_t[:, c0 : c0 + cols]
        for r0 in range(0, query.shape[0], rows):
            q_blk = query[r0 : r0 + rows]
            acc = out[r0 : r0 + rows, c0 : c0 + cols]
            # the scratch's leading elements, contiguous whatever its width
            tile = diff.reshape(-1)[: acc.size].reshape(acc.shape)
            acc[...] = 0.0
            for j in range(query.shape[1]):
                np.subtract(q_blk[:, j, None], ref_blk[j], out=tile)
                np.multiply(tile, tile, out=tile)
                acc += tile


@contextmanager
def _tile_buffer():
    """Run the tiles with numpy's ufunc buffer at ``_UFUNC_BUFSIZE``."""
    old = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


def _as_matrix(x: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(x, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {x.shape}")
    if not np.isfinite(out).all():
        raise ValueError("expected finite values, got nan or inf")
    return out


def pairwise_sq_dists(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_query, n_ref)."""
    query = _as_matrix(query)
    ref = _as_matrix(ref)
    if query.shape[1] != ref.shape[1]:
        raise ValueError("query and ref must have the same number of columns")
    out = np.empty((query.shape[0], ref.shape[0]))
    diff = np.empty(_tile_shape(*ref.shape))
    with _tile_buffer():
        _sq_dists_into(query, np.ascontiguousarray(ref.T), out, diff)
    return out


def knn(
    query: np.ndarray,
    ref: np.ndarray,
    k: int,
    self_idx: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest reference rows for every query row.

    ``self_idx[i]`` names a reference row excluded from row i's search
    (-1 for none); pass it when the query rows are themselves part of
    ``ref``.  Returns ``(indices, squared_distances)``, each of shape
    (n_query, k), nearest first, ties broken toward the lower index.
    """
    query = _as_matrix(query)
    ref = _as_matrix(ref)
    if query.shape[1] != ref.shape[1]:
        raise ValueError("query and ref must have the same number of columns")
    n_ref = ref.shape[0]
    if self_idx is None:
        self_idx = np.full(query.shape[0], -1, dtype=np.int64)
    else:
        self_idx = np.asarray(self_idx)
        if self_idx.dtype.kind not in "iu":  # a cast would read a mask as rows 0 and 1
            raise ValueError(f"self_idx must hold integer row ids, not {self_idx.dtype}")
        self_idx = np.ascontiguousarray(self_idx, dtype=np.int64)
        if self_idx.shape != (query.shape[0],):
            raise ValueError("self_idx must have one entry per query row")
        bad = self_idx[(self_idx < -1) | (self_idx >= n_ref)]
        if len(bad):
            raise ValueError(f"self_idx entry {bad[0]} is neither -1 nor a row of ref")
    if k < 1:
        raise ValueError("k must be at least 1")
    eligible = n_ref - (1 if np.any(self_idx >= 0) else 0)
    if k > eligible:
        raise ValueError(f"k={k} exceeds the {eligible} eligible reference rows")

    n_query, n_features = query.shape
    # gamma_{d+4} (Higham, ch. 3); see the module docstring for the bound
    m = n_features + 4
    gamma = m * _UNIT_ROUNDOFF / (1 - m * _UNIT_ROUNDOFF)
    rows = max(1, _BLOCK_ELEMS // n_ref)
    idx = np.empty((n_query, k), dtype=np.int64)
    sqd = np.empty((n_query, k))
    with np.errstate(all="ignore"):
        mean = ref.mean(axis=0)
        ref_c = ref - mean
        ref_sq = np.einsum("ij,ij->i", ref_c, ref_c)
        ref_norm = np.sqrt(ref_sq.max())
        ref_c *= -2.0  # exact, so the product below is -2 q.r
    for start in range(0, n_query, rows):
        stop = min(n_query, start + rows)
        excl = self_idx[start:stop]
        own = np.nonzero(excl >= 0)[0]
        with np.errstate(all="ignore"):
            q_c = query[start:stop] - mean
            q_sq = np.einsum("ij,ij->i", q_c, q_c)
            approx = q_c @ ref_c.T
            approx += ref_sq
            approx[own, excl[own]] = np.inf
            err = gamma * (2.0 * (np.sqrt(q_sq) + ref_norm)) ** 2 + _TINY
            cut = np.partition(approx, k - 1, axis=1)[:, k - 1] + 2.0 * err
            keep = approx <= cut[:, None]
        keep[~np.isfinite(cut)] = True
        keep[own, excl[own]] = False
        # row-major positions, so rows come out sorted
        r, c = np.divmod(np.flatnonzero(keep), n_ref)
        dist = np.zeros(len(r))
        for q_col, r_col in zip(query[start:stop].T, ref.T):
            diff = q_col[r] - r_col[c]
            diff *= diff
            dist += diff
        # a stable sort, so equal distances keep each row's index order
        order = np.lexsort((dist, r))
        take = order[np.searchsorted(r, np.arange(stop - start))[:, None] + np.arange(k)]
        idx[start:stop] = c[take]
        sqd[start:stop] = dist[take]
    return idx, sqd
