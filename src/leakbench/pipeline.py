"""Train/test protocols and the contamination audit.

Two orderings of the same stages:

* leaky: scale on the full dataset, resample the full dataset, then
  split.  This is the ordering under audit.
* clean: split first, fit the scaler on the training rows only, and
  resample the training rows only; the test set is never touched.

The audit walks the provenance tags of the final train/test sides and
flags a leak whenever synthetic rows appear in the test set or an
identical row (12 significant digits) sits on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import ORIGINAL, SYNTHETIC, Dataset
from .metrics import MetricReport, evaluate
from .model import MlpConfig, forward, init_mlp, train
from .resample import ResamplerSpec, apply_resampler
from .seeding import CELL_SEED

__all__ = [
    "ContaminationReport",
    "RunArtifacts",
    "ScalerParams",
    "SplitSpec",
    "apply_scaler",
    "contamination_audit",
    "fit_scaler",
    "run_protocol",
    "split",
]

SPLIT_STRATEGIES = ("random", "stratified", "temporal")
SCALER_METHODS = ("standardize", "minmax", "none")
PROTOCOLS = ("leaky", "clean")


@dataclass
class SplitSpec:
    strategy: str
    test_fraction: float = 0.2
    seed: int = field(default=0, metadata=CELL_SEED)

    def __post_init__(self) -> None:
        if self.strategy not in SPLIT_STRATEGIES:
            raise ValueError(
                f"unknown split strategy {self.strategy!r}; expected one of {SPLIT_STRATEGIES}"
            )
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")


@dataclass
class ScalerParams:
    """Fitted per-column transform plus where it was fitted.

    ``fitted_on`` records whether the fit saw every row of the dataset
    ("full_dataset") or a proper subset ("train_only"); the audit trail
    for scaling leaks.  A constant column gets center 0 and scale 1, so
    it passes through unchanged.
    """

    fitted_on: str
    center: np.ndarray
    scale: np.ndarray


@dataclass
class ContaminationReport:
    n_test_rows: int
    n_synthetic_in_test: int
    n_synthetic_parent_in_train: int
    n_cross_split_duplicates: int
    leak_flag: bool


@dataclass
class RunArtifacts:
    report: MetricReport
    contamination: ContaminationReport
    history: list[float]
    notes: tuple[str, ...]


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def split(ds: Dataset, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (train, test), each sorted ascending."""
    n = ds.n_rows
    if n < 2:
        raise ValueError("cannot split a dataset with fewer than 2 rows")
    if spec.strategy == "random":
        rng = np.random.default_rng(spec.seed)
        n_test = _clamped_round(spec.test_fraction * n, n)
        perm = rng.permutation(n)
        test = perm[:n_test]
        train = perm[n_test:]
    elif spec.strategy == "stratified":
        rng = np.random.default_rng(spec.seed)
        train_parts = []
        test_parts = []
        for label in (0, 1):
            idx = np.nonzero(ds.labels == label)[0]
            if len(idx) == 0:
                continue
            n_test_c = int(round(spec.test_fraction * len(idx)))
            if label == 1 and n_test_c == 0:
                n_test_c = 1  # the test side always gets a positive when one exists
            n_test_c = min(n_test_c, len(idx))
            shuffled = rng.permutation(idx)
            test_parts.append(shuffled[:n_test_c])
            train_parts.append(shuffled[n_test_c:])
        train = np.concatenate(train_parts)
        test = np.concatenate(test_parts)
        if len(test) == 0 or len(train) == 0:
            raise ValueError("stratified split produced an empty side")
    else:  # temporal
        if ds.time is None:
            raise ValueError("temporal split requires a time column")
        order = np.argsort(ds.time, kind="stable")
        n_test = _clamped_round(spec.test_fraction * n, n)
        n_train = n - n_test
        boundary = ds.time[order[n_train]]
        if ds.time[order[n_train - 1]] == boundary:
            # rows tied with the boundary timestamp all go to train
            n_train = int(np.searchsorted(ds.time[order], boundary, side="right"))
            if n_train >= n:
                raise ValueError(
                    "temporal split cannot keep the test set non-empty: "
                    "the boundary timestamp extends to the last row"
                )
        train = order[:n_train]
        test = order[n_train:]
    return np.sort(train), np.sort(test)


def _clamped_round(x: float, n: int) -> int:
    return min(max(int(round(x)), 1), n - 1)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def fit_scaler(ds: Dataset, rows: np.ndarray, method: str) -> ScalerParams:
    """Fit the named per-column transform on the given rows only."""
    if method not in SCALER_METHODS:
        raise ValueError(f"unknown scaler {method!r}; expected one of {SCALER_METHODS}")
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("scaler fit requires at least one row")
    fitted_on = "full_dataset" if rows.size == ds.n_rows else "train_only"
    center = np.zeros(ds.n_features)  # "none": the identity, which reads no rows
    scale = np.ones(ds.n_features)
    if method == "standardize":
        x = ds.features[rows]
        center, scale = x.mean(axis=0), x.std(axis=0)
    elif method == "minmax":
        x = ds.features[rows]
        center = x.min(axis=0)
        scale = x.max(axis=0) - center
    constant = scale == 0.0
    center = np.where(constant, 0.0, center)
    scale = np.where(constant, 1.0, scale)
    return ScalerParams(fitted_on, center, scale)


def apply_scaler(ds: Dataset, params: ScalerParams) -> Dataset:
    features = (ds.features - params.center) / params.scale
    return replace(ds, features=features)


# ---------------------------------------------------------------------------
# contamination audit
# ---------------------------------------------------------------------------


def _row_keys(ds: Dataset) -> list[bytes]:
    """One hashable key per row: features rounded to 12 significant digits, plus the label."""
    rounded = _round_significant(ds.features, 12)
    return [row.tobytes() + bytes([label]) for row, label in zip(rounded, ds.labels)]


def _round_significant(x: np.ndarray, digits: int) -> np.ndarray:
    out = np.array(x, dtype=np.float64)
    # below 1e-290 the scale factor overflows; such values keep their exact bits
    nz = (np.abs(out) >= 1e-290) & np.isfinite(out)
    mag = np.floor(np.log10(np.abs(out[nz])))
    factor = 10.0 ** (digits - 1 - mag)
    out[nz] = np.round(out[nz] * factor) / factor
    out[out == 0] = 0.0  # fold -0.0 into +0.0 so the byte keys agree
    return out


def contamination_audit(train: Dataset, test: Dataset) -> ContaminationReport:
    """Count leakage paths between the final train and test sides.

    Provenance rides on the row-origin tags: parents of synthetic rows
    and the source indices of original rows both index the grid dataset
    (the one ``run_protocol`` received), so "parent in train" means the
    parent row itself ended up on the training side.
    """
    synth_mask = test.origin.kind == SYNTHETIC
    n_synth = int(synth_mask.sum())

    train_sources = train.origin.parent_a[train.origin.kind == ORIGINAL]
    pa = test.origin.parent_a[synth_mask]
    pb = test.origin.parent_b[synth_mask]
    parent_in_train = int((np.isin(pa, train_sources) | np.isin(pb, train_sources)).sum())

    train_keys = set(_row_keys(train))
    duplicates = sum(key in train_keys for key in _row_keys(test))

    return ContaminationReport(
        n_test_rows=test.n_rows,
        n_synthetic_in_test=n_synth,
        n_synthetic_parent_in_train=parent_in_train,
        n_cross_split_duplicates=duplicates,
        leak_flag=(n_synth > 0) or (duplicates > 0),
    )


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------


def run_protocol(
    ds: Dataset,
    protocol: str,
    split_spec: SplitSpec,
    resampler: ResamplerSpec,
    scaler: str,
    model_cfg: MlpConfig,
) -> RunArtifacts:
    """Run one protocol end to end and evaluate on its test side."""
    if protocol == "leaky":
        params = fit_scaler(ds, np.arange(ds.n_rows), scaler)
        scaled = apply_scaler(ds, params)
        res = apply_resampler(scaled, resampler)
        train_rows, test_rows = split(res.dataset, split_spec)
        train_ds = res.dataset.take(train_rows)
        test_ds = res.dataset.take(test_rows)
    elif protocol == "clean":
        train_rows, test_rows = split(ds, split_spec)
        params = fit_scaler(ds, train_rows, scaler)
        scaled = apply_scaler(ds, params)
        res = apply_resampler(scaled.take(train_rows), resampler)
        train_ds = res.dataset
        test_ds = scaled.take(test_rows)
    else:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")

    contamination = contamination_audit(train_ds, test_ds)
    cfg = replace(model_cfg, n_features=train_ds.n_features)
    model = init_mlp(cfg)
    model, history = train(model, train_ds.features, train_ds.labels)
    scores = forward(model, test_ds.features)
    report = evaluate(test_ds.labels, scores, cfg.threshold)
    return RunArtifacts(
        report=report,
        contamination=contamination,
        history=history,
        notes=res.notes,
    )
