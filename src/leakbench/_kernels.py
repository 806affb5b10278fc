"""Brute-force distance kernels shared by the resamplers.

One numpy implementation.  Squared distances are accumulated feature
by feature (column 0 first) as ``sum_j (q_j - r_j) ** 2``, never through
the ``|q|^2 + |r|^2 - 2 q.r`` expansion, which changes the last bits and
can flip near-ties.  Any faster variant must keep this order to stay
bitwise equal.

Distance ties are broken toward the lower reference row index.  All
searches are exhaustive O(n_query * n_ref); callers that run them on
very large inputs are expected to gate that behind an explicit opt-in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["backend_name", "knn", "pairwise_sq_dists"]

# Cap the (chunk, n_ref) scratch matrix of the k-NN search at ~128 MB.
_CHUNK_ELEMS = 2**24


def backend_name() -> str:
    """Name of the kernel implementation, recorded with benchmark runs."""
    return "numpy"


def _sq_dists(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    out = np.zeros((query.shape[0], ref.shape[0]))
    for j in range(query.shape[1]):
        diff = query[:, j, None] - ref[None, :, j]
        out += diff * diff
    return out


def _as_matrix(x: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(x, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {x.shape}")
    return out


def pairwise_sq_dists(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_query, n_ref)."""
    query = _as_matrix(query)
    ref = _as_matrix(ref)
    if query.shape[1] != ref.shape[1]:
        raise ValueError("query and ref must have the same number of columns")
    return _sq_dists(query, ref)


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
    chunk = max(1, _CHUNK_ELEMS // max(n_ref, 1))
    for start in range(0, n_query, chunk):
        stop = min(n_query, start + chunk)
        dists = _sq_dists(query[start:stop], ref)
        excl = self_idx[start:stop]
        rows = np.nonzero(excl >= 0)[0]
        dists[rows, excl[rows]] = np.inf
        # stable sort keeps the lower reference index first on ties
        order = np.argsort(dists, axis=1, kind="stable")[:, :k]
        idx[start:stop] = order
        sqd[start:stop] = np.take_along_axis(dists, order, axis=1)
    return idx, sqd
