"""Brute-force distance kernels shared by the resamplers.

One numpy implementation.  Squared distances are accumulated feature
by feature (column 0 first) as ``sum_j (q_j - r_j) ** 2``, starting from
0, never through the ``|q|^2 + |r|^2 - 2 q.r`` expansion, which changes
the last bits and can flip near-ties.  The accumulation runs over
cache-sized tiles of the distance matrix: a block of query rows against
a block of reference columns, with one preallocated scratch tile for the
per-feature term.  Every element sees the same operations in the same
order as the untiled loop, so the results are bitwise equal to it.

``knn`` streams query tiles: it computes the distances of one tile of
query rows against all of ``ref``, sets each row's excluded self
distance to ``inf``, selects that tile's neighbours and moves on, so the
full n_query x n_ref matrix is never held.  Selection finds each row's
k-th smallest distance with ``np.partition`` and keeps the candidates at
or below it; they are sorted by distance, stably in reference index
order, so distance ties go to the lower reference row index exactly as a
full stable sort of the row would put them.  The excluded self sorts
after every other candidate, so it is never returned as a neighbour,
even when the other distances overflow to ``inf`` too.

Inputs must be finite: ``nan`` and ``inf`` are rejected, since their
distances do not order.  All searches are exhaustive
O(n_query * n_ref); callers that run them on very large inputs are
expected to gate that behind an explicit opt-in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "knn", "pairwise_sq_dists"]

# A distance tile holds about this many float64 elements (512 kB), so
# that the tile and its scratch stay in a core's cache while all
# features are accumulated into it.  Picked from a sweep of 2**15 to
# 2**18 over the kNN shapes the resamplers run.
_TILE_ELEMS = 2**16
# Widest tile in reference columns; narrower references get taller
# tiles, so a one-column search such as k-means seeding does not pay
# per-tile overhead every few rows.  Wider references are cut into
# equal blocks of 4,096 to 8,192 columns: numpy buffers a broadcast
# subtraction whose rows are shorter than a third of its 8,192-element
# ufunc buffer, which makes it four to five times slower.
_TILE_COLS = 8192


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
            tile = diff[: acc.shape[0], : acc.shape[1]]
            acc[...] = 0.0
            for j in range(query.shape[1]):
                np.subtract(q_blk[:, j, None], ref_blk[j], out=tile)
                np.multiply(tile, tile, out=tile)
                acc += tile


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
    _sq_dists_into(query, np.ascontiguousarray(ref.T), out, diff)
    return out


def _select(dists: np.ndarray, k: int, excl: np.ndarray) -> np.ndarray:
    """Column indices of the k smallest entries of each row, nearest first.

    Ties go to the lower column index, as in a stable argsort of the row,
    except that row i's excluded column ``excl[i]`` (set to ``inf`` by
    the caller) sorts after every other column, also after distances
    that overflowed to ``inf``.
    """
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
    # candidates in row-major order: by row, then by column index
    rows, cols = np.nonzero(dists <= kth[:, None])
    # stable, so candidates of equal distance keep their index order
    order = np.lexsort((cols == excl[rows], dists[rows, cols], rows))
    # each row's candidates keep their place; a row holds more than k of
    # them only when tied at the k-th distance
    first = np.searchsorted(rows, np.arange(len(dists)))
    return cols[order][first[:, None] + np.arange(k)]


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
    if self_idx is None:
        self_idx = np.full(query.shape[0], -1, dtype=np.int64)
    else:
        self_idx = np.ascontiguousarray(self_idx, dtype=np.int64)
        if self_idx.shape != (query.shape[0],):
            raise ValueError("self_idx must have one entry per query row")
    if k < 1:
        raise ValueError("k must be at least 1")
    n_ref = ref.shape[0]
    eligible = n_ref - (1 if np.any(self_idx >= 0) else 0)
    if k > eligible:
        raise ValueError(f"k={k} exceeds the {eligible} eligible reference rows")

    n_query = query.shape[0]
    idx = np.empty((n_query, k), dtype=np.int64)
    sqd = np.empty((n_query, k), dtype=np.float64)
    rows, cols = _tile_shape(*ref.shape)
    ref_t = np.ascontiguousarray(ref.T)
    diff = np.empty((rows, cols))
    dists_buf = np.empty((rows, n_ref))
    for start in range(0, n_query, rows):
        stop = min(n_query, start + rows)
        dists = dists_buf[: stop - start]
        _sq_dists_into(query[start:stop], ref_t, dists, diff)
        excl = self_idx[start:stop]
        hit = np.nonzero(excl >= 0)[0]
        dists[hit, excl[hit]] = np.inf
        order = _select(dists, k, excl)
        idx[start:stop] = order
        sqd[start:stop] = np.take_along_axis(dists, order, axis=1)
    return idx, sqd
