"""Brute-force distance kernels shared by the resamplers.

One numpy implementation.  A squared distance is the sum
``sum_j (q_j - r_j) ** 2`` accumulated feature by feature, column 0
first, starting from 0.  Both functions return exactly these sums, never
the ``|q|^2 + |r|^2 - 2 q.r`` expansion, whose last bits differ and can
flip near-ties; ``knn`` breaks exact ties toward the lower reference row
index.

Both functions cut the query rows into blocks of
``_BLOCK_ELEMS // max(n_ref, n_features)`` rows, at least one.
``pairwise_sq_dists`` serves k-means seeding, which passes one reference
row at a time: it sums a block of query rows at a time against every
reference row.  It is not tuned for wide references, whose blocks
outgrow the cache: 2,000 x 2,000 takes 3-4x as long as cache-sized tiles.

``knn`` computes only the sums it needs.  For each block it picks
candidates with the expansion, one matrix product on BLAS, under a
rigorous bound on its rounding error.  Both sides are first centred on
``ref``'s column mean: that leaves every difference q - r as it was but
shrinks the norms, and so the bound.  For query row i and
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

A ``knn`` block holds at most about 2 MB of a_ij, plus a partitioned
copy, and a centred copy of ``ref`` is held for the whole search.  The
matrix product runs on BLAS's own threads, the one level of parallelism
in the kernels; the rest runs on the calling thread.

Inputs must be finite: ``nan`` and ``inf`` are rejected, since their
distances do not order.  All searches are exhaustive
O(n_query * n_ref); callers that run them on very large inputs are
expected to gate that behind an explicit opt-in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "knn", "pairwise_sq_dists"]

# A block of query rows spans about this many float64 elements (2 MB) of
# distances or of query features, whichever is wider, and at least one row.
_BLOCK_ELEMS = 2**18
# float64's unit roundoff, and its smallest normal number, which bounds the
# absolute error of the products that underflow
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny


def backend_name() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"


def _as_matrix(x: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(x, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {x.shape}")
    if not np.isfinite(out).all():
        raise ValueError("expected finite values, got nan or inf")
    return out


def _as_pair(query: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    query, ref = _as_matrix(query), _as_matrix(ref)
    if query.shape[1] != ref.shape[1]:
        raise ValueError("query and ref must have the same number of columns")
    return query, ref


def _row_blocks(query: np.ndarray, n_ref: int):
    n_query, n_features = query.shape
    rows = max(1, _BLOCK_ELEMS // max(1, n_ref, n_features))
    for start in range(0, n_query, rows):
        yield start, min(n_query, start + rows)


def _sq_sums(q_cols, r_cols, out: np.ndarray) -> None:
    """Set ``out`` to sum_j (q_j - r_j) ** 2 over the paired columns, j = 0 first."""
    out[...] = 0.0
    for q, r in zip(q_cols, r_cols):
        diff = q - r
        diff *= diff
        out += diff


def pairwise_sq_dists(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_query, n_ref)."""
    query, ref = _as_pair(query, ref)
    out = np.empty((query.shape[0], ref.shape[0]))
    for start, stop in _row_blocks(query, ref.shape[0]):
        _sq_sums((col[:, None] for col in query[start:stop].T), ref.T, out[start:stop])
    return out


def knn(
    query: np.ndarray, ref: np.ndarray, k: int, self_idx: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest reference rows for every query row.

    ``self_idx[i]`` names a reference row excluded from row i's search
    (-1 for none); pass it when the query rows are themselves part of
    ``ref``.  Returns ``(indices, squared_distances)``, each of shape
    (n_query, k), nearest first, ties broken toward the lower index.
    """
    query, ref = _as_pair(query, ref)
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
    idx = np.empty((n_query, k), dtype=np.int64)
    sqd = np.empty((n_query, k))
    with np.errstate(all="ignore"):
        mean = ref.mean(axis=0)
        ref_c = ref - mean
        ref_sq = np.einsum("ij,ij->i", ref_c, ref_c)
        ref_norm = np.sqrt(ref_sq.max())
        ref_c *= -2.0  # exact, so the product below is -2 q.r
    for start, stop in _row_blocks(query, n_ref):
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
        dist = np.empty(len(r))
        # one candidate-sized vector per feature, not candidates x features
        _sq_sums((col[r] for col in query[start:stop].T), (col[c] for col in ref.T), dist)
        # a stable sort, so equal distances keep each row's index order
        order = np.lexsort((dist, r))
        take = order[np.searchsorted(r, np.arange(stop - start))[:, None] + np.arange(k)]
        idx[start:stop] = c[take]
        sqd[start:stop] = dist[take]
    return idx, sqd
