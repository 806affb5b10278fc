"""Resampling methods for imbalanced binary data.

All methods are deterministic functions of ``(dataset, spec)``: the
spec carries the seed, and neighbour searches break distance ties
toward the lower row index.  Interpolating oversamplers build each
synthetic row as ``parent_a + delta * (parent_b - parent_a)`` and
record ``(parent_a, parent_b, delta)`` per row, which is what the
contamination audit later consumes.  Parents are tagged by the source
row ids the input rows carry, so they name rows of the original dataset
even when the input is a subset of it.  Every method builds its output
from two primitives: ``_append_synthetic``, the one writer of synthetic
rows and their tags, and ``_drop_rows``, the one row remover.

The minority class is the label with fewer rows; on a tie label 1 is
treated as the minority, which keeps the cleaning stage of the
combined methods deterministic on exactly balanced intermediates.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels, data
from .data import SYNTHETIC, Dataset, RowOrigin
from .seeding import CELL_SEED

__all__ = [
    "METHODS",
    "ResampleResult",
    "ResamplerSpec",
    "adasyn",
    "apply_resampler",
    "borderline_smote",
    "cluster_centroids",
    "enn",
    "nearmiss1",
    "random_oversample",
    "random_undersample",
    "smote",
    "smote_enn",
    "smote_tomek",
    "tomek_links",
]


@dataclass
class ResamplerSpec:
    """Which method to run and with what knobs.

    ``target_ratio`` is the desired minority/majority count ratio after
    resampling.  ``method`` may be None for a pass-through.
    """

    method: str | None
    k_neighbors: int = 5
    m_neighbors: int = 10
    target_ratio: float = 1.0
    seed: int = field(default=0, metadata=CELL_SEED)

    def __post_init__(self) -> None:
        if self.method is not None and self.method not in METHODS:
            raise ValueError(
                f"unknown resampling method {self.method!r}; "
                f"expected one of {sorted(METHODS)}"
            )
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if self.m_neighbors < 1:
            raise ValueError("m_neighbors must be at least 1")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError("target_ratio must be in (0, 1]")


@dataclass
class ResampleResult:
    """Output dataset plus an account of what the method did.

    ``removed_indices`` index the method's input rows.  For the combined
    methods they index the input rows and then the oversampler's new
    rows, so positions from the input's row count on name rows the
    oversampler created.  ``n_synthetic`` counts the output's rows that
    this method created.
    """

    dataset: Dataset
    n_synthetic: int = 0
    removed_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    notes: tuple[str, ...] = ()

    @property
    def n_removed(self) -> int:
        return len(self.removed_indices)

    @property
    def provenance(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(parent_a, parent_b, delta) arrays for the synthetic output rows."""
        mask = self.dataset.origin.kind == SYNTHETIC
        o = self.dataset.origin
        return o.parent_a[mask], o.parent_b[mask], o.delta[mask]


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _class_split(ds: Dataset) -> tuple[int, np.ndarray, np.ndarray]:
    """Minority label plus index arrays (minority, majority), ascending."""
    pos = np.nonzero(ds.labels == 1)[0]
    neg = np.nonzero(ds.labels == 0)[0]
    if len(pos) <= len(neg):
        return 1, pos, neg
    return 0, neg, pos


def _n_to_generate(n_min: int, n_maj: int, ratio: float) -> int:
    return max(0, int(round(ratio * n_maj)) - n_min)


def _n_majority_to_keep(n_min: int, n_maj: int, ratio: float) -> int:
    n_keep = int(round(n_min / ratio))
    if n_keep > n_maj:
        raise ValueError(
            f"target_ratio {ratio} is infeasible: needs {n_keep} majority rows, "
            f"only {n_maj} available"
        )
    return n_keep


def _require_minority_above(n_min: int, k: int, method: str, knob: str) -> None:
    if n_min <= k:
        raise ValueError(
            f"{method} requires minority count > {knob} ({n_min} <= {k})"
        )


def interpolate(a: np.ndarray, b: np.ndarray, delta, out: np.ndarray | None = None) -> np.ndarray:
    """Row(s) or value(s) on the segment from a to b: a + delta * (b - a).

    A 1-d ``delta`` holds one coefficient per row of 2-d ``a``/``b``, or
    one per value of 1-d ``a``/``b``.  The result is computed as
    ``b - a``, then ``*= delta``, then ``+= a``, in ``out`` when given (a
    buffer of the result's shape) or else in one new buffer; the inputs
    are not written.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim == 1 and np.ndim(a) == 2:
        delta = delta[:, None]
    out = np.subtract(b, a, out=out)
    out *= delta
    out += a
    return out


def _append_synthetic(
    ds: Dataset,
    label: int,
    parent_a: np.ndarray,
    parent_b: np.ndarray,
    delta: np.ndarray,
    fill: Callable[[np.ndarray], object] | None = None,
) -> Dataset:
    """Append synthetic rows of class ``label`` built from the rows at
    positions parent_a/parent_b.

    The output's feature matrix is allocated once: the input rows are
    copied into its head, and the new rows are written into its tail.
    ``fill(tail)`` writes them when they are not interpolations (copies,
    centroids); otherwise they are ``interpolate(parents, delta)``,
    computed ``data.ROW_BLOCK`` rows at a time, so no temporary is larger
    than a block.  The time column always goes through the same
    interpolation.  The tags record the parents' source row ids
    (``ds.origin.parent_a``), not their positions, so they stay valid when
    ``ds`` is a subset.
    """
    n, n_new = ds.n_rows, len(delta)
    features = np.empty((n + n_new, ds.n_features))
    features[:n] = ds.features
    tail = features[n:]
    if fill is not None:
        fill(tail)
    else:
        for start in range(0, n_new, data.ROW_BLOCK):
            block = slice(start, start + data.ROW_BLOCK)
            # unnamed, so the last block's gathers are not kept alive past the loop
            interpolate(
                ds.features.take(parent_a[block], axis=0),
                ds.features.take(parent_b[block], axis=0),
                delta[block],
                out=tail[block],
            )
    time = None
    if ds.time is not None:
        time = np.empty(n + n_new)
        time[:n] = ds.time
        interpolate(ds.time[parent_a], ds.time[parent_b], delta, out=time[n:])
    return Dataset(
        features=features,
        labels=np.concatenate([ds.labels, np.full(n_new, label, dtype=np.int64)]),
        feature_names=ds.feature_names,
        time=time,
        origin=RowOrigin.concat(
            ds.origin,
            RowOrigin.synthetic(ds.origin.parent_a[parent_a], ds.origin.parent_a[parent_b], delta),
        ),
    )


def _drop_rows(ds: Dataset, remove: np.ndarray, n_synthetic: int = 0) -> ResampleResult:
    """``ds`` without the rows at positions ``remove``, order kept."""
    remove = np.unique(np.asarray(remove, dtype=np.int64))
    keep = np.setdiff1d(np.arange(ds.n_rows, dtype=np.int64), remove)
    return ResampleResult(ds.take(keep), n_synthetic=n_synthetic, removed_indices=remove)


def _interpolate_from(
    ds: Dataset,
    label: int,
    rng: np.random.Generator,
    seeds: np.ndarray,
    neighbours: np.ndarray,
    seed_pos: np.ndarray,
) -> ResampleResult:
    """Synthetic rows between seed rows and their nearest neighbours.

    ``seeds`` are the candidate seed rows and ``neighbours[i]`` the
    nearest rows of ``seeds[i]``, all positions in ``ds``; new row j
    starts from ``seeds[seed_pos[j]]``.  After the caller's seed draws,
    ``rng`` draws every row's delta and then every row's neighbour choice.
    """
    n_new = len(seed_pos)
    deltas = rng.random(n_new)
    choice = rng.integers(0, neighbours.shape[1], n_new)
    out = _append_synthetic(ds, label, seeds[seed_pos], neighbours[seed_pos, choice], deltas)
    return ResampleResult(dataset=out, n_synthetic=n_new)


# ---------------------------------------------------------------------------
# oversamplers
# ---------------------------------------------------------------------------


def smote(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """Classic minority oversampling by segment interpolation.

    Each synthetic row picks a random minority seed, a coefficient
    delta uniform on [0, 1], and then one of the seed's k nearest
    minority neighbours (delta is drawn before the neighbour choice).
    """
    min_label, min_idx, maj_idx = _class_split(ds)
    _require_minority_above(len(min_idx), spec.k_neighbors, "smote", "k_neighbors")
    n_new = _n_to_generate(len(min_idx), len(maj_idx), spec.target_ratio)
    if n_new == 0:
        return ResampleResult(ds)
    x_min = ds.features[min_idx]
    nbr, _ = _kernels.knn(x_min, x_min, spec.k_neighbors, self_idx=np.arange(len(min_idx)))
    rng = np.random.default_rng(spec.seed)
    seed_pos = rng.integers(0, len(min_idx), n_new)
    return _interpolate_from(ds, min_label, rng, min_idx, min_idx[nbr], seed_pos)


def random_oversample(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """Duplicate random minority rows until the target ratio is met."""
    min_label, min_idx, maj_idx = _class_split(ds)
    if len(min_idx) == 0:
        raise ValueError("random_oversample requires at least one minority row")
    n_new = _n_to_generate(len(min_idx), len(maj_idx), spec.target_ratio)
    if n_new == 0:
        return ResampleResult(ds)
    rng = np.random.default_rng(spec.seed)
    picks = min_idx[rng.integers(0, len(min_idx), n_new)]
    # picks are valid rows; mode "raise" would stage the gather in a temporary of the tail's size
    out = _append_synthetic(
        ds, min_label, picks, picks, np.zeros(n_new),
        fill=lambda tail: ds.features.take(picks, axis=0, out=tail, mode="clip"),
    )
    return ResampleResult(dataset=out, n_synthetic=n_new)


def adasyn(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """Density-adaptive interpolation.

    Each minority row i gets a hardness score r_i = (majority rows
    among its k nearest neighbours over the whole dataset) / k; the
    generation budget is split proportionally to the normalized scores
    (g_i = round(r_i / sum(r) * G)).  When every score is zero the
    method degrades to plain smote and says so in the notes.
    """
    min_label, min_idx, maj_idx = _class_split(ds)
    _require_minority_above(len(min_idx), spec.k_neighbors, "adasyn", "k_neighbors")
    budget = _n_to_generate(len(min_idx), len(maj_idx), spec.target_ratio)
    if budget == 0:
        return ResampleResult(ds)
    x_min = ds.features[min_idx]
    nbr_all, _ = _kernels.knn(x_min, ds.features, spec.k_neighbors, self_idx=min_idx)
    hardness = (ds.labels[nbr_all] != min_label).sum(axis=1) / spec.k_neighbors
    total = hardness.sum()
    if total == 0.0:
        res = smote(ds, spec)
        return replace(
            res,
            notes=res.notes
            + ("adasyn: no majority neighbors anywhere; fell back to plain smote",),
        )
    alloc = np.rint(hardness / total * budget).astype(np.int64)
    if alloc.sum() == 0:
        return ResampleResult(
            ds, notes=("adasyn: allocation rounded to zero rows; nothing generated",)
        )
    nbr_min, _ = _kernels.knn(x_min, x_min, spec.k_neighbors, self_idx=np.arange(len(min_idx)))
    seed_pos = np.repeat(np.arange(len(min_idx)), alloc)
    rng = np.random.default_rng(spec.seed)
    return _interpolate_from(ds, min_label, rng, min_idx, min_idx[nbr_min], seed_pos)


def borderline_smote(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """Interpolation seeded only from borderline minority rows.

    A minority row is borderline ("in danger") when, among its
    m_neighbors nearest rows overall, at least half but not all are
    majority.  Rows whose neighbourhoods are entirely majority count as
    noise and are never used as seeds.  If no row qualifies the input
    is returned unchanged with a note.
    """
    min_label, min_idx, maj_idx = _class_split(ds)
    floor = max(spec.k_neighbors, spec.m_neighbors)
    _require_minority_above(len(min_idx), floor, "borderline_smote", "max(k, m)")
    n_new = _n_to_generate(len(min_idx), len(maj_idx), spec.target_ratio)
    if n_new == 0:
        return ResampleResult(ds)
    x_min = ds.features[min_idx]
    nbr_all, _ = _kernels.knn(x_min, ds.features, spec.m_neighbors, self_idx=min_idx)
    maj_count = (ds.labels[nbr_all] != min_label).sum(axis=1)
    danger = np.nonzero(
        (maj_count * 2 >= spec.m_neighbors) & (maj_count < spec.m_neighbors)
    )[0]
    if len(danger) == 0:
        return ResampleResult(
            ds, notes=("borderline_smote: no borderline minority rows; input unchanged",)
        )
    nbr_min, _ = _kernels.knn(
        x_min[danger], x_min, spec.k_neighbors, self_idx=danger
    )
    rng = np.random.default_rng(spec.seed)
    seed_pos = rng.integers(0, len(danger), n_new)
    return _interpolate_from(ds, min_label, rng, min_idx[danger], min_idx[nbr_min], seed_pos)


# ---------------------------------------------------------------------------
# undersamplers
# ---------------------------------------------------------------------------


def random_undersample(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """Keep a uniform random majority subset; row order is preserved."""
    _, min_idx, maj_idx = _class_split(ds)
    n_keep = _n_majority_to_keep(len(min_idx), len(maj_idx), spec.target_ratio)
    rng = np.random.default_rng(spec.seed)
    keep = maj_idx[rng.choice(len(maj_idx), n_keep, replace=False)]
    return _drop_rows(ds, np.setdiff1d(maj_idx, keep))


def nearmiss1(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """Keep the majority rows closest (on average) to the minority.

    Ranks every majority row by the mean Euclidean distance to its
    k_neighbors nearest minority rows and keeps the smallest; rank ties
    go to the lower row index.
    """
    _, min_idx, maj_idx = _class_split(ds)
    if len(min_idx) < spec.k_neighbors:
        raise ValueError(
            f"nearmiss1 requires minority count >= k_neighbors "
            f"({len(min_idx)} < {spec.k_neighbors})"
        )
    n_keep = _n_majority_to_keep(len(min_idx), len(maj_idx), spec.target_ratio)
    _, sqd = _kernels.knn(ds.features[maj_idx], ds.features[min_idx], spec.k_neighbors)
    mean_dist = np.sqrt(sqd).mean(axis=1)
    order = np.argsort(mean_dist, kind="stable")
    keep = maj_idx[order[:n_keep]]
    return _drop_rows(ds, np.setdiff1d(maj_idx, keep))


def tomek_links(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """Remove the majority member of every cross-class mutual 1-NN pair."""
    min_label, _, _ = _class_split(ds)
    if ds.n_rows < 2:
        raise ValueError("tomek_links requires at least two rows")
    nn, _ = _kernels.knn(ds.features, ds.features, 1, self_idx=np.arange(ds.n_rows))
    nn = nn[:, 0]
    rows = np.arange(ds.n_rows)
    linked = (nn[nn] == rows) & (ds.labels != ds.labels[nn])
    remove = rows[linked & (ds.labels != min_label)]
    return _drop_rows(ds, remove)


def enn(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """Edited nearest neighbours: drop rows their 3-NN vote disagrees with.

    Votes are computed for every row against the full input (self
    excluded) before any removal is applied, then all flagged rows are
    dropped at once.
    """
    if ds.n_rows <= 3:
        raise ValueError("enn requires more than 3 rows")
    nbr, _ = _kernels.knn(ds.features, ds.features, 3, self_idx=np.arange(ds.n_rows))
    vote = (ds.labels[nbr].sum(axis=1) >= 2).astype(np.int64)
    remove = np.nonzero(vote != ds.labels)[0]
    return _drop_rows(ds, remove)


def cluster_centroids(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """Replace the majority class with k-means centroids.

    k is round(minority / target_ratio).  Centroid rows are tagged
    synthetic with both parents set to the nearest original majority
    member (ties toward the lower index) and delta 0.
    """
    min_label, min_idx, maj_idx = _class_split(ds)
    k = int(round(len(min_idx) / spec.target_ratio))
    if k < 1:
        raise ValueError("cluster_centroids needs a positive number of centroids")
    if k > len(maj_idx):
        raise ValueError(
            f"cluster_centroids needs {k} centroids but only {len(maj_idx)} "
            "majority rows exist"
        )
    rng = np.random.default_rng(spec.seed)
    centers = _kmeans(ds.features[maj_idx], k, rng)
    nearest, _ = _kernels.knn(centers, ds.features[maj_idx], 1)
    parents = maj_idx[nearest[:, 0]]
    out = _append_synthetic(
        ds, 1 - min_label, parents, parents, np.zeros(k), fill=lambda tail: np.copyto(tail, centers)
    )
    return _drop_rows(out, maj_idx, n_synthetic=k)


def _kmeans(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding.

    Stops after 100 iterations or when no centroid moves more than
    1e-4; empty clusters keep their previous centroid.
    """
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centers[0] = x[first]
    chosen[first] = True
    d2 = _kernels.pairwise_sq_dists(x, centers[0:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(np.nonzero(~chosen)[0][0])
        centers[c] = x[pick]
        chosen[pick] = True
        d2 = np.minimum(d2, _kernels.pairwise_sq_dists(x, centers[c : c + 1])[:, 0])

    for _ in range(100):
        assign, _ = _kernels.knn(x, centers, 1)
        assign = assign[:, 0]
        new_centers = centers.copy()
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, x)
        occupied = counts > 0
        new_centers[occupied] = sums[occupied] / counts[occupied, None]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < 1e-4:
            break
    return centers


# ---------------------------------------------------------------------------
# combined methods
# ---------------------------------------------------------------------------


def _combined(ds: Dataset, spec: ResamplerSpec, cleaner, anomaly_note: bool) -> ResampleResult:
    over = smote(ds, spec)
    cleaned = cleaner(over.dataset, spec)
    notes = over.notes + cleaned.notes
    if anomaly_note and cleaned.n_removed == 0:
        notes = notes + (
            "cleaning stage removed no rows; class counts are identical to plain smote",
        )
    # smote appends its rows after the input's, so removed positions from
    # ds.n_rows on are smote's own rows
    n_dropped_new = int((cleaned.removed_indices >= ds.n_rows).sum())
    return replace(cleaned, n_synthetic=over.n_synthetic - n_dropped_new, notes=notes)


def smote_tomek(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """smote, then tomek_links cleaning on the oversampled data."""
    return _combined(ds, spec, tomek_links, anomaly_note=True)


def smote_enn(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """smote, then enn cleaning (both classes) on the oversampled data."""
    return _combined(ds, spec, enn, anomaly_note=False)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

METHODS = {
    "smote": smote,
    "random_over": random_oversample,
    "adasyn": adasyn,
    "borderline_smote": borderline_smote,
    "random_under": random_undersample,
    "nearmiss1": nearmiss1,
    "tomek_links": tomek_links,
    "cluster_centroids": cluster_centroids,
    "enn": enn,
    "smote_tomek": smote_tomek,
    "smote_enn": smote_enn,
}

# Methods whose neighbour searches touch every row pair of the full
# dataset; at transaction-file scale they are O(n^2) and need the
# explicit allow_quadratic opt-in.  cluster_centroids is included
# because its k grows with the minority count.
QUADRATIC_METHODS = frozenset(
    {"tomek_links", "enn", "nearmiss1", "smote_tomek", "smote_enn", "cluster_centroids"}
)


def apply_resampler(ds: Dataset, spec: ResamplerSpec) -> ResampleResult:
    """Dispatch on ``spec.method``; a None method passes the data through."""
    if spec.method is None:
        return ResampleResult(ds)
    return METHODS[spec.method](ds, spec)
