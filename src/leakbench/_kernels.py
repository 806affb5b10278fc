"""Brute-force distance kernels shared by the resamplers.

One numpy implementation.  Squared distances are accumulated feature
by feature (column 0 first) as ``sum_j (q_j - r_j) ** 2``, starting from
0, never through the ``|q|^2 + |r|^2 - 2 q.r`` expansion, which changes
the last bits and can flip near-ties.  The accumulation runs over
cache-sized tiles of the distance matrix: a block of query rows against
a block of reference columns, with one preallocated scratch tile for the
per-feature term.  Every element sees the same operations in the same
order as the untiled loop, so the results are bitwise equal to it.

``knn`` builds every neighbour list with one merge, ``_fold``.  Each
query row's k-list starts empty: an empty slot holds distance ``inf``
and index ``_EMPTY``, the int64 maximum, which sorts after every row
index.  A fold keeps the tile entries at or below a row's k-th distance
and sorts them with the row's list by distance, stably, tile entries
first.  Each fold's reference rows have lower indices than the rows
already in its lists, so distance ties go to the lower reference row
index exactly as a full stable sort of the row would put them.  While a list's k-th
distance is ``inf``, the bound is also the tile row's own k-th smallest
entry (``np.partition``), which is exact: k entries of its own row beat
any entry above it.  A row's excluded self is marked ``nan``, which
partitions last and compares false, so it is never kept.  This relies
on every fold's tile row holding at least k entries that are not
``nan``: ``knn`` checks k against the eligible rows, and every
self-search block holds at least k + 1 rows.  So a list's first fold
fills all k slots, and ``_EMPTY`` is never returned.

The streamed search computes one strip of query rows against all of
``ref`` at a time and folds it into the strip's empty lists, so the
full n_query x n_ref matrix is never held.  A self-search,
``knn(x, x, k, self_idx=arange(n))`` with one array object as both
query and ref (as the resamplers call it), computes each pair's
distance once.  The rows are cut into equal blocks of about 256 rows,
at least k + 1 each, and every block pair's tile is computed once and
folded into both blocks' lists, as it stands and transposed, the last
blocks first.  fl(a - b) = -fl(b - a), so the transposed tile holds
the squares, summed from 0 in the same feature order, that the other
block's rows would compute: the results are bitwise equal to the
streamed search.  At 30 features and k=5 (2-vCPU host, one thread,
median of 5) a 5,000-row self-search takes 0.49 s against 0.79 s
streamed, and 10,000 rows 1.68 s against 3.20 s.

Every tile runs with numpy's ufunc buffer at 512 elements, and the
caller's size is restored on return or error.  At numpy's default
8,192, a broadcast subtraction whose rows are shorter than a third of
the buffer takes numpy's buffered path, at 1.0-1.9 ns per element
instead of 0.3-0.6, which every reference under 2,731 rows paid.

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
# 2**18 over the kNN shapes the resamplers run.
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
# Rows per block of a self-search, so that a block pair's tile holds
# about _TILE_ELEMS distances.
_SELF_BLOCK = 256
# Index of an empty k-list slot, whose distance is inf: it sorts after
# every reference row index.
_EMPTY = np.iinfo(np.int64).max


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


def _fold(tile: np.ndarray, col0: int, sqd: np.ndarray, idx: np.ndarray) -> None:
    """Merge a distance tile into its rows' k-lists, in place.

    Column c of ``tile`` is reference row ``col0 + c``; ``sqd`` and
    ``idx`` hold each row's k nearest so far, ordered by (distance,
    index).  Only entries at or below a row's k-th distance can enter
    its list, and ``nan`` entries never do.  Each tile row must hold at
    least k entries that are not ``nan``, and the tile's reference rows
    must have lower indices than the rows already in its lists.
    """
    k = sqd.shape[1]
    bound = sqd[:, -1:]
    if np.isinf(bound).any():
        # an unfilled list bounds nothing; the row's own k-th entry does
        bound = np.minimum(bound, np.partition(tile, k - 1, axis=1)[:, k - 1, None])
    # row-major positions, so rows come out sorted
    rows, cols = np.divmod(np.flatnonzero(tile <= bound), tile.shape[1])
    if not len(rows):
        return
    # only the rows with a candidate are merged
    new_row = np.diff(rows, prepend=-1) != 0
    hit = rows[new_row]
    at = np.cumsum(new_row) - 1
    # tile entries first, so a stable sort puts them ahead of equal list entries
    r = np.concatenate([at, np.repeat(np.arange(len(hit)), k)])
    d = np.concatenate([tile[rows, cols], sqd[hit].ravel()])
    i = np.concatenate([cols + col0, idx[hit].ravel()])
    order = np.lexsort((d, r))
    first = np.searchsorted(r[order], np.arange(len(hit)))
    take = order[first[:, None] + np.arange(k)]
    sqd[hit] = d[take]
    idx[hit] = i[take]


def _self_knn(x: np.ndarray, k: int, idx: np.ndarray, sqd: np.ndarray) -> None:
    """``knn(x, x, k, self_idx=arange(n))`` into the empty lists ``idx``, ``sqd``.

    The rows are cut into equal blocks of at least k + 1 rows.  Each
    block pair's tile is computed once and folded into both blocks'
    lists, as it stands and transposed; a diagonal tile, its self
    distances ``nan``, only once.  The pairs run from the last block
    back, so each row's lists take the blocks in falling order.
    fl(a - b) = -fl(b - a), so the transposed tile holds the very
    distances the other block's rows would compute.
    """
    n = len(x)
    blocks = max(1, min(-(-n // _SELF_BLOCK), n // (k + 1)))
    edges = [n * b // blocks for b in range(blocks + 1)]
    size = -(-n // blocks)
    x_t = np.ascontiguousarray(x.T)
    tile_buf = np.empty((size, size))
    diff = np.empty((size, size))
    for b in reversed(range(blocks)):
        b0, b1 = edges[b], edges[b + 1]
        for a in reversed(range(b + 1)):
            a0, a1 = edges[a], edges[a + 1]
            tile = tile_buf[: a1 - a0, : b1 - b0]
            _sq_dists_into(x[a0:a1], x_t[:, b0:b1], tile, diff)
            if a == b:
                np.fill_diagonal(tile, np.nan)
            _fold(tile, b0, sqd[a0:a1], idx[a0:a1])
            if a < b:
                _fold(tile.T, a0, sqd[b0:b1], idx[b0:b1])


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
    self_search = ref is query
    query = _as_matrix(query)
    ref = query if self_search else _as_matrix(ref)
    if query.shape[1] != ref.shape[1]:
        raise ValueError("query and ref must have the same number of columns")
    n_ref = ref.shape[0]
    if self_idx is None:
        self_idx = np.full(query.shape[0], -1, dtype=np.int64)
    else:
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

    n_query = query.shape[0]
    idx = np.full((n_query, k), _EMPTY)
    sqd = np.full((n_query, k), np.inf)
    with _tile_buffer():
        if self_search and np.array_equal(self_idx, np.arange(n_query)):
            _self_knn(query, k, idx, sqd)
            return idx, sqd
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
            dists[hit, excl[hit]] = np.nan
            _fold(dists, 0, sqd[start:stop], idx[start:stop])
    return idx, sqd
