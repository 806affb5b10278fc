"""Dataset container, CSV ingestion, synthetic data, feature expansion."""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field, fields, replace

import numpy as np

__all__ = [
    "Dataset",
    "ORIGINAL",
    "RowOrigin",
    "SYNTHETIC",
    "SynthConfig",
    "TRANSACTION_SCHEMA",
    "expand_features",
    "generate_synthetic",
    "load_csv",
    "save_csv",
]

ORIGINAL = 0
SYNTHETIC = 1

# Canonical header of the public credit-card transactions file:
# a time offset, 28 anonymized components, the amount, and the label.
TRANSACTION_SCHEMA: tuple[str, ...] = (
    ("Time",) + tuple(f"V{i}" for i in range(1, 29)) + ("Amount", "Class")
)

TIME_COLUMN = "Time"
LABEL_COLUMN = "Class"

# Observation window of the synthetic generator: two days, in seconds.
TIME_SPAN_SECONDS = 172800.0


@dataclass
class RowOrigin:
    """Per-row provenance: where each row of a dataset came from.

    Original rows keep the index they had in the source dataset in
    ``parent_a`` (``parent_b`` is -1, ``delta`` is 0).  Synthetic rows
    record both parents and the interpolation coefficient that built
    them; duplicated and centroid rows use ``parent_a == parent_b``
    with ``delta == 0``.
    """

    kind: np.ndarray = field(metadata={"dtype": np.uint8})
    parent_a: np.ndarray = field(metadata={"dtype": np.int64})
    parent_b: np.ndarray = field(metadata={"dtype": np.int64})
    delta: np.ndarray = field(metadata={"dtype": np.float64})

    def __post_init__(self) -> None:
        n = len(self.kind)
        for f in fields(self):
            value = np.ascontiguousarray(getattr(self, f.name), dtype=f.metadata["dtype"])
            if value.shape != (n,):
                raise ValueError(f"row origin field {f.name} has mismatched length")
            setattr(self, f.name, value)

    @classmethod
    def originals(cls, n: int) -> "RowOrigin":
        return cls(np.zeros(n), np.arange(n), np.full(n, -1), np.zeros(n))

    @classmethod
    def synthetic(cls, parent_a, parent_b, delta) -> "RowOrigin":
        return cls(np.full(len(parent_a), SYNTHETIC), parent_a, parent_b, delta)

    def take(self, indices: np.ndarray) -> "RowOrigin":
        return RowOrigin(*(getattr(self, f.name)[indices] for f in fields(self)))

    @classmethod
    def concat(cls, first: "RowOrigin", second: "RowOrigin") -> "RowOrigin":
        pairs = ((getattr(first, f.name), getattr(second, f.name)) for f in fields(cls))
        return cls(*(np.concatenate(pair) for pair in pairs))

    def __len__(self) -> int:
        return int(self.kind.shape[0])


@dataclass
class Dataset:
    """A feature matrix with binary labels, optional timestamps, and
    per-row provenance tags.

    The time column is carried as metadata for temporal splitting; it
    is never part of the model input.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    time: np.ndarray | None = None
    origin: RowOrigin | None = None

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels length does not match the feature matrix")
        bad = (self.labels != 0) & (self.labels != 1)
        if np.any(bad):
            first = int(np.nonzero(bad)[0][0])
            raise ValueError(f"label at row {first} is not 0 or 1")
        self.feature_names = tuple(self.feature_names)
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names length does not match the feature matrix")
        if self.time is not None:
            self.time = np.ascontiguousarray(self.time, dtype=np.float64)
            if self.time.shape != (n,):
                raise ValueError("time length does not match the feature matrix")
        if self.origin is None:
            self.origin = RowOrigin.originals(n)
        elif len(self.origin) != n:
            raise ValueError("row origin length does not match the feature matrix")

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    def take(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            feature_names=self.feature_names,
            time=None if self.time is None else self.time[indices],
            origin=self.origin.take(indices),
        )

    def select_columns(self, names: list[str] | tuple[str, ...]) -> "Dataset":
        missing = [c for c in names if c not in self.feature_names]
        if missing:
            raise ValueError(f"unknown feature columns: {', '.join(missing)}")
        cols = [self.feature_names.index(c) for c in names]
        return replace(self, features=self.features[:, cols], feature_names=tuple(names))


@dataclass
class SynthConfig:
    """Parameters of the built-in two-cluster synthetic generator."""

    n_samples: int
    positive_rate: float
    n_features: int = 30
    class_separation: float = 2.0
    seed: int = 0
    fraud_burst: bool = False

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if not 0.0 < self.positive_rate <= 0.5:
            raise ValueError("positive_rate must be in (0, 0.5]")
        if self.n_samples * self.positive_rate < 2:
            raise ValueError("n_samples * positive_rate must be at least 2")
        if self.n_features < 1:
            raise ValueError("n_features must be positive")
        if self.class_separation <= 0:
            raise ValueError("class_separation must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Two Gaussian clusters with unit covariance, labelled 1 and 0.

    The class means differ by ``class_separation`` in Euclidean norm
    (the offset sits on the first feature axis).  Exactly
    ``round(n_samples * positive_rate)`` rows are positive.  Rows are
    ordered by the time column, whose values are uniform draws over a
    two-day window; with ``fraud_burst`` the positives' times are drawn
    from the final fifth of the window instead.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_samples
    n_pos = int(round(n * cfg.positive_rate))
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_pos] = 1
    features = rng.standard_normal((n, cfg.n_features))
    features[:n_pos, 0] += cfg.class_separation
    time = rng.uniform(0.0, TIME_SPAN_SECONDS, n)
    if cfg.fraud_burst:
        time[:n_pos] = rng.uniform(0.8 * TIME_SPAN_SECONDS, TIME_SPAN_SECONDS, n_pos)
    order = np.argsort(time, kind="stable")
    names = tuple(f"V{i}" for i in range(1, cfg.n_features + 1))
    return Dataset(
        features=features[order],
        labels=labels[order],
        feature_names=names,
        time=time[order],
    )


def load_csv(path: str, expect_schema: bool = False) -> Dataset:
    """Load a labelled CSV file.

    The file needs a header row and a ``Class`` column holding 0/1
    labels; a ``Time`` column, when present, becomes the dataset's time
    axis and every other column is a feature.  With ``expect_schema``
    the header must match the transactions schema exactly.  An error
    names a physical line of the file: the line a bad record starts on,
    or the line the csv module stopped on.
    """
    values = array("d")
    # utf-8-sig drops the byte-order mark spreadsheet tools put before the first header name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: file is empty")
            header = [h.strip() for h in header]
            if expect_schema and tuple(header) != TRANSACTION_SCHEMA:
                raise ValueError(
                    f"{path}: header does not match the expected transactions schema"
                )
            repeated = next((h for h in header if header.count(h) > 1), None)
            if repeated is not None:
                raise ValueError(f"{path}: header repeats column {repeated!r}")
            if LABEL_COLUMN not in header:
                raise ValueError(f"{path}: no '{LABEL_COLUMN}' column in header")
            if not set(header) - {LABEL_COLUMN, TIME_COLUMN}:
                raise ValueError(f"{path}: no feature columns in header")
            n_cols = len(header)
            lines = [reader.line_num + 1]  # lines[r]: the line data record r starts on
            for row in reader:
                if len(row) != n_cols:
                    raise ValueError(
                        f"{path}: line {lines[-1]}: expected {n_cols} columns, got {len(row)}"
                    )
                try:
                    values.extend(map(float, row))
                except ValueError:
                    for name, cell in zip(header, row):
                        try:
                            float(cell)
                        except ValueError:
                            raise ValueError(
                                f"{path}: line {lines[-1]}: column {name!r} "
                                f"has non-numeric value {cell!r}"
                            ) from None
                lines.append(reader.line_num + 1)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # the decoder reads in chunks, so no line is known
            raise ValueError(f"{path}: {exc}") from None

    n_rows = len(lines) - 1
    if not n_rows:
        raise ValueError(f"{path}: no data rows")
    table = np.frombuffer(values, dtype=np.float64).reshape(n_rows, n_cols)
    # nan and inf parse as numbers, but distances and scalers cannot use them
    bad = ~np.isfinite(table)
    if np.any(bad):
        r, c = np.argwhere(bad)[0]
        raise ValueError(
            f"{path}: line {lines[r]}: column {header[c]!r} has non-finite value "
            f"{str(table[r, c])!r}"
        )
    label_col = header.index(LABEL_COLUMN)
    raw_labels = table[:, label_col]
    bad = ~np.isin(raw_labels, (0.0, 1.0))
    if np.any(bad):
        r = int(np.nonzero(bad)[0][0])
        raise ValueError(f"{path}: line {lines[r]}: label {float(raw_labels[r])!r} is not 0 or 1")
    time_col = header.index(TIME_COLUMN) if TIME_COLUMN in header else -1
    feature_cols = [i for i in range(n_cols) if i not in (label_col, time_col)]
    return Dataset(
        features=table[:, feature_cols],
        labels=raw_labels.astype(np.int64),
        feature_names=tuple(header[i] for i in feature_cols),
        time=table[:, time_col] if time_col >= 0 else None,
    )


def save_csv(ds: Dataset, path: str) -> None:
    """Write a dataset back to CSV; values round-trip through repr."""
    names = ds.feature_names
    table = ds.features
    if ds.time is not None:
        names = (TIME_COLUMN,) + names
        table = np.column_stack([ds.time, table])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + (LABEL_COLUMN,))
        writer.writerows(row + [label] for row, label in zip(table.tolist(), ds.labels.tolist()))


def expand_features(ds: Dataset, degree: int) -> Dataset:
    """Append pairwise products of the feature columns.

    Degree 1 returns the dataset unchanged; degree 2 appends x_i * x_j
    for every i <= j, growing d columns to d + d*(d+1)/2.
    """
    if degree == 1:
        return ds
    if degree != 2:
        raise ValueError("degree must be 1 or 2")
    ii, jj = np.triu_indices(ds.n_features)
    products = ds.features[:, ii] * ds.features[:, jj]
    names = ds.feature_names + tuple(
        f"{ds.feature_names[i]}*{ds.feature_names[j]}" for i, j in zip(ii, jj)
    )
    return replace(ds, features=np.hstack([ds.features, products]), feature_names=names)
