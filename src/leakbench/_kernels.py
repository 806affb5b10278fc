"""Brute-force distance kernels shared by the resamplers.

One numpy implementation.  A squared distance is the sum
``sum_j (q_j - r_j) ** 2`` accumulated feature by feature, column 0
first, starting from 0.  Both functions return exactly these sums, never
the ``|q|^2 + |r|^2 - 2 q.r`` expansion, whose last bits differ and can
flip near-ties; ``knn`` breaks exact ties toward the lower reference row
index.

Both functions cut the query rows into blocks of about 2 MB
(``_BLOCK_ELEMS`` float64 elements): of distances, n_ref per row, or of
float64 query features, whichever is wider, and at least one row.
``knn``'s distances take the product's dtype, so a float32 block holds
twice the rows of a float64 one.
``pairwise_sq_dists`` serves k-means seeding, which passes one reference
row at a time: it sums a block of query rows at a time against every
reference row.  It is not tuned for wide references, whose blocks
outgrow the cache: 2,000 x 2,000 takes 3-4x as long as cache-sized tiles.

``knn`` computes only the sums it needs.  For each block it picks
candidates with the expansion, one matrix product on BLAS, under a
rigorous bound on its rounding error.  Both sides are first centred on
``ref``'s column mean: that leaves every difference q - r as it was but
shrinks the norms, and so the bound.  For query row i and reference row
j (centred, d features) the product of ``[q_i, 1]`` and
``[-2 r_j, |r_j|^2]`` gives ``a_ij = |r_j|^2 - 2 q_i.r_j``; the expansion's
``|q_i|^2`` is the same for every column of the row, so it is left out.
The centring, |r_j|^2, the bound, the cut and the sums run in float64;
the product and the group minima below run in float32 when

    (2 (Q + R))^2 lies in float32's normal range,

Q and R being upper bounds on every |q_i| and every |r_j|, taken from
the column extremes of ``query`` and ``ref``, and in float64 otherwise,
or when (d + 4) eps >= 1, where float32's gamma_{d+4} below would reach
1.  Every term and partial sum of the product is at most about
(Q + R)^2, so none overflows float32, and its rounding stays relative
rather than absolute.  Let u be the unit roundoff and tiny the
smallest normal number of the product's dtype (u = 2^-24 and about
1.2e-38 for float32; 2^-53 and about 2.2e-308 for float64), and
gamma_m = m u / (1 - m u).  The error analysis of dot products in
Higham, *Accuracy and Stability of Numerical Algorithms* (2nd ed.,
2002), ch. 3, bounds the rounding of a_ij, of the centring and of the
sum itself together by

    e_i = 4 gamma_{d+4} (|q_i| + max_j |r_j|)^2 + tiny.

a_ij is one dot product of d + 1 terms, whose rounding is at most
gamma_{d+1} (2 |q_i| |r_j| + |r_j|^2), below gamma_{d+1} (|q_i| + |r_j|)^2.
A float32 product first rounds q_i, -2 r_j and |r_j|^2 once each, which
moves a_ij by at most 4 u |q_i| |r_j| + u |r_j|^2 <= 2 u (|q_i| + |r_j|)^2,
under gamma_2 of it; the float64 centring and sum add under one float32
u.  So a float32 a_ij needs under gamma_{d+4}, a quarter of e_i, and a
float64 one, whose inputs are not rounded, about half, which covers the
rounding of the bound itself.  Below the normal range rounding is
absolute, at most u tiny per rounded input or product, and times its
partner factor (|q_ik|, |r_jk| or 1) it falls under the tiny term or
under the spare part of the first.  So every sum s_ij, less |q_i|^2, is
within e_i of a_ij, whatever BLAS's summation order.  If c is the k-th
smallest a_ij of row i, k eligible rows have sums at most c + e_i (plus
|q_i|^2), so the k-th smallest sum is too, and every row whose sum ties
or beats it has a_ij at most c + 2 e_i.

c takes a partition of every column; any cut at or above it does as
well.  The block's columns, padded with inf to g slabs of w, form w
groups: column j + s w (s < g) is in group j.  The group minima take one
pass over the block, and the k-th smallest of a row's, m_i, is the a_ij
of one of k distinct columns, so m_i >= c, and ``cut_i = m_i + 2 e_i``
needs a partition of w minima, not of n_ref columns.  The candidates,
the columns at or below cut_i, are gathered from the groups whose
minimum is, and sorted by position so that each row's stay in column
order.  Their sums are recomputed from the raw rows in the order above,
and a stable sort by (row, sum, index) takes the first k.  The lists are
those of a full stable sort of every sum, however near the ties, for a
few sums per row.  g is ``n_ref // (16 (k + 1))`` clipped to 1..16, so a
row partitions at least 16 (k + 1) minima and reads at most 16 columns
per hit group; references below 32 (k + 1) rows keep g = 1, one column
per group.  FAISS runs exact search through the same expansion on GEMM
(Johnson, Douze and Jegou, "Billion-scale similarity search with GPUs",
IEEE Trans. Big Data, 2019); the bound and the recompute remove its
loss of precision.

A row's excluded self is set to inf before the group minima are taken,
and it is never a candidate, nor is a pad.  When cut_i is not finite
(inf or nan) the whole row is recomputed.  That covers overflow: a sum
that overflows has |q_i - r_j|^2 > DBL_MAX / 2, so
(2 (|q_i| + max_j |r_j|))^2 overflows, e_i is inf, and every pair of the
row is summed as an exhaustive search sums it; a float32 product never
gets there, since its rule keeps every sum below FLT_MAX.  The prefilter runs with
every floating-point error ignored, since an overflow there only widens
a bound; the sums run under the caller's error state, so
``over="raise"`` raises exactly when an exhaustive search would.

A ``knn`` block holds at most about 2 MB of a_ij, plus the group minima
(a partitioned copy of the block when g is 1) and its centred query rows
in float64.  ``[-2 r_j, |r_j|^2]`` is held in the product's dtype for
the whole search, built from 128 KB of centred rows at a time.  The
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

# A block of query rows spans about as many bytes as this many float64
# elements (2 MB), of distances or of query features, whichever is wider,
# and at least one row.
_BLOCK_ELEMS = 2**18
_MAX = np.finfo(np.float64).max
# A kNN search cuts its columns into groups of at most this many; see the
# module docstring
_GROUP = 16


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


def _block_rows(query: np.ndarray, n_ref: int, itemsize: int = 8) -> int:
    return max(1, _BLOCK_ELEMS * 8 // max(1, n_ref * itemsize, query.shape[1] * 8))


def _norm_bound(x: np.ndarray, mean: np.ndarray) -> float:
    """An upper bound on every |x_i - mean|, from x's column extremes (inf
    for no rows)."""
    dev = np.maximum(x.max(axis=0, initial=-np.inf) - mean, mean - x.min(axis=0, initial=np.inf))
    return float(np.sqrt(dev @ dev))


def _product_dtype(q_norm: float, r_norm: float, n_features: int) -> type:
    """The dtype of a kNN search's matrix product, from upper bounds on the
    centred query and reference norms; see the module docstring."""
    f32 = np.finfo(np.float32)
    if f32.tiny <= (2.0 * (q_norm + r_norm)) ** 2 <= f32.max and (n_features + 4) * f32.eps < 1:
        return np.float32
    return np.float64


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
    rows = _block_rows(query, ref.shape[0])
    for start in range(0, len(query), rows):
        block = slice(start, start + rows)
        _sq_sums((col[:, None] for col in query[block].T), ref.T, out[block])
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
        if self_idx.shape != (query.shape[0],):
            raise ValueError("self_idx must have one entry per query row")
        # checked before the cast, which would wrap 2**64 - 1 to -1
        bad = self_idx[(self_idx < -1) | (self_idx >= n_ref)]
        if len(bad):
            raise ValueError(f"self_idx entry {bad[0]} is neither -1 nor a row of ref")
        self_idx = np.ascontiguousarray(self_idx, dtype=np.int64)
    if k < 1:
        raise ValueError("k must be at least 1")
    eligible = n_ref - (1 if np.any(self_idx >= 0) else 0)
    if k > eligible:
        raise ValueError(f"k={k} exceeds the {eligible} eligible reference rows")

    n_query, n_features = query.shape
    g = max(1, min(_GROUP, n_ref // (_GROUP * (k + 1))))
    w = -(-n_ref // g)
    cols = g * w
    idx = np.empty((n_query, k), dtype=np.int64)
    sqd = np.empty((n_query, k))
    with np.errstate(all="ignore"):
        mean = ref.mean(axis=0)
        dtype = _product_dtype(_norm_bound(query, mean), _norm_bound(ref, mean), n_features)
        # row j is [-2 r_j, |r_j|^2] for the centred r_j, each rounded once to
        # dtype (-2 r_j is exact), built from 128 KB of float64 rows at a time:
        # a whole float64 copy of ref, even freed before the loop, raises peak RSS
        ref_aug = np.empty((n_ref, n_features + 1), dtype)
        ref_sq = np.empty(n_ref)
        step = max(1, _BLOCK_ELEMS // 16 // (n_features + 1))
        for start in range(0, n_ref, step):
            r_c = ref[start : start + step] - mean
            ref_sq[start : start + step] = np.einsum("ij,ij->i", r_c, r_c)
            np.multiply(r_c, -2.0, out=ref_aug[start : start + step, :-1], casting="same_kind")
        ref_aug[:, -1] = ref_sq
        ref_norm = float(np.sqrt(ref_sq.max()))
    # the product's u and tiny, and gamma_{d+4} (Higham, ch. 3), as Python
    # floats, so that the bound and the cut are float64 under any numpy's casting
    info = np.finfo(dtype)
    u, tiny, m = float(info.eps) / 2, float(info.tiny), n_features + 4
    gamma = m * u / (1 - m * u)
    rows = _block_rows(query, n_ref, info.dtype.itemsize)
    # a block's centred rows, its rows [q_i, 1] in dtype, and its a_ij, whose
    # pad columns stay inf
    q_block = np.empty((min(n_query, rows), n_features))
    q_aug = np.ones((len(q_block), n_features + 1), dtype)
    approx = np.full((len(q_block), cols), np.inf, dtype)
    for start in range(0, n_query, rows):
        stop = min(n_query, start + rows)
        excl = self_idx[start:stop]
        own = np.nonzero(excl >= 0)[0]
        q_c, a = q_block[: stop - start], approx[: stop - start]
        with np.errstate(all="ignore"):
            np.subtract(query[start:stop], mean, out=q_c)
            q_aug[: stop - start, :-1] = q_c
            q_sq = np.einsum("ij,ij->i", q_c, q_c)
            np.matmul(q_aug[: stop - start], ref_aug.T, out=a[:, :n_ref])
            a[own, excl[own]] = np.inf
            gmin = a if g == 1 else a.reshape(len(a), g, w).min(axis=1)
            err = gamma * (2.0 * (np.sqrt(q_sq) + ref_norm)) ** 2 + tiny
            kth = np.partition(gmin, k - 1, axis=1)[:, k - 1].astype(np.float64)
            cut = kth + 2.0 * err
        whole = ~np.isfinite(cut)
        if whole.any():  # every column but the pads and the excluded self
            a[whole, :n_ref] = gmin[whole] = -np.inf
            a[own, excl[own]] = np.inf
            cut[whole] = _MAX
        if g == 1:
            pos = np.flatnonzero(a <= cut[:, None])
        else:
            hit = np.flatnonzero(gmin <= cut[:, None])
            row = hit // w
            # a hit group's column in each slab; sorted, the rows come out in order
            flat = (hit + row * (cols - w))[:, None] + w * np.arange(g)
            pos = np.sort(flat[a.ravel()[flat] <= cut[row, None]])
        r, c = np.divmod(pos, cols)
        dist = np.empty(len(r))
        # one candidate-sized vector per feature, not candidates x features
        _sq_sums((col[r] for col in query[start:stop].T), (col[c] for col in ref.T), dist)
        # a stable sort, so equal distances keep each row's index order
        order = np.lexsort((dist, r))
        take = order[np.searchsorted(r, np.arange(stop - start))[:, None] + np.arange(k)]
        idx[start:stop] = c[take]
        sqd[start:stop] = dist[take]
    return idx, sqd
