"""Dataset container, CSV ingestion and writing, synthetic data."""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import os
import shutil
import tempfile
import zipfile
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

# A parsed CSV's arrays are kept beside it, in <path> + SIDECAR_SUFFIX (see load_csv).
SIDECAR_SUFFIX = ".leakbench.npz"

# Rows per blocked gather of feature rows (interpolated synthetic rows, a leaky cell's
# training rows, the audit's keys); each block's gathers are its only temporaries.
ROW_BLOCK = 4096


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
        return RowOrigin(*(getattr(self, f.name).take(indices, axis=0) for f in fields(self)))

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
            features=self.features.take(indices, axis=0),
            labels=self.labels.take(indices, axis=0),
            feature_names=self.feature_names,
            time=None if self.time is None else self.time.take(indices, axis=0),
            origin=self.origin.take(indices),
        )

    def select_columns(self, names: list[str] | tuple[str, ...]) -> "Dataset":
        missing = [c for c in names if c not in self.feature_names]
        if missing:
            raise ValueError(f"unknown feature columns: {', '.join(missing)}")
        cols = [self.feature_names.index(c) for c in names]
        # C order; a fancy index gives Fortran order, which __post_init__ would copy again
        return replace(self, features=self.features.take(cols, axis=1), feature_names=tuple(names))


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
    the header must match the transactions schema exactly.

    The rows are read record by record through the csv module.  An error
    names a physical line of the file: the line a bad record starts on, or
    the line the csv module stopped on.

    A parsed file's arrays are kept in a sidecar, ``<path>.leakbench.npz``,
    keyed by the sha256 of the file's bytes and of this module's source.
    A later load of the same bytes by the same version of this module
    reads the sidecar and only the header; any other sidecar is ignored
    and replaced.
    """
    path = os.fspath(path)
    key = _sidecar_key(path)
    cached = _read_sidecar(path, key) if key else None
    if cached is not None:
        # the header gives the feature names and the schema check, which the sidecar skips
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = _read_header(csv.reader(fh), path, expect_schema)
        features, labels, time = cached
    else:
        header, table = _record_table(path, expect_schema)
        label_col = header.index(LABEL_COLUMN)
        time_col = header.index(TIME_COLUMN) if TIME_COLUMN in header else -1
        feature_cols = [i for i in range(len(header)) if i not in (label_col, time_col)]
        features = table.take(feature_cols, axis=1)  # C order; a fancy index gives Fortran order
        labels = table[:, label_col].astype(np.int64)
        time = table[:, time_col] if time_col >= 0 else None
    ds = Dataset(
        features=features,
        labels=labels,
        feature_names=tuple(h for h in header if h not in (LABEL_COLUMN, TIME_COLUMN)),
        time=time,
    )
    if key and cached is None:
        _write_sidecar(path, key, ds)
    return ds


@functools.lru_cache(maxsize=None)
def _source_digest() -> bytes | None:
    """sha256 of this module's source, so that a changed parser never reads an old sidecar."""
    try:
        with open(__file__, "rb") as fh:
            return hashlib.sha256(fh.read()).digest()
    except OSError:
        return None


def _sidecar_key(path: str) -> bytes | None:
    """The sha256 of the file's bytes and of this module's source; None if either is unreadable."""
    source = _source_digest()
    if source is None:
        return None
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except OSError:  # the parser raises the error the file gives
        return None
    return digest.digest() + source


def _read_sidecar(path: str, key: bytes):
    """(features, labels, time or None) from the file's sidecar if it holds this key; else None.

    A missing, stale, truncated, empty or foreign sidecar is None, as is a plain ``.npy``.
    """
    try:
        # np.load given a path leaks its handle when the zip is bad, so the file is ours to close
        with open(path + SIDECAR_SUFFIX, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if isinstance(archive, np.ndarray):
                return None
            with archive:
                if archive["key"].tobytes() != key:
                    return None
                time = archive["time"] if "time" in archive.files else None
                return archive["features"], archive["labels"], time
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
        return None


def _write_sidecar(path: str, key: bytes, ds: Dataset) -> None:
    """Replace the file's sidecar with the dataset's arrays; on an OSError, write nothing."""
    arrays = {"key": np.frombuffer(key, np.uint8), "features": ds.features, "labels": ds.labels}
    if ds.time is not None:
        arrays["time"] = ds.time
    sidecar = path + SIDECAR_SUFFIX
    directory, name = os.path.split(sidecar)
    try:
        fd, temp = tempfile.mkstemp(prefix=f"{name}.", suffix=".tmp", dir=directory or ".")
    except OSError:  # a read-only directory only loses the speed-up
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        shutil.copymode(path, temp)  # mkstemp's file is private; the sidecar reads as the csv does
        os.replace(temp, sidecar)  # a reader sees the old sidecar or the new, never a part
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(temp)


def _read_header(reader, path: str, expect_schema: bool) -> list[str]:
    """The header's names from the reader's first record; raises on a header load_csv cannot use."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: file is empty")
    header = [h.strip() for h in header]
    if expect_schema and tuple(header) != TRANSACTION_SCHEMA:
        raise ValueError(f"{path}: header does not match the expected transactions schema")
    repeated = next((h for h in header if header.count(h) > 1), None)
    if repeated is not None:
        raise ValueError(f"{path}: header repeats column {repeated!r}")
    if LABEL_COLUMN not in header:
        raise ValueError(f"{path}: no '{LABEL_COLUMN}' column in header")
    if not set(header) - {LABEL_COLUMN, TIME_COLUMN}:
        raise ValueError(f"{path}: no feature columns in header")
    # an unnamed column, such as a dataframe's exported index, would be loaded as a feature
    if "" in header:
        raise ValueError(f"{path}: header column {header.index('') + 1} has no name")
    return header


def _record_table(path: str, expect_schema: bool) -> tuple[list[str], np.ndarray]:
    """The header and table read record by record through the csv module; raises on bad data."""
    values = array("d")
    # utf-8-sig drops the byte-order mark spreadsheet tools put before the first header name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = _read_header(reader, path, expect_schema)
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
    raw_labels = table[:, header.index(LABEL_COLUMN)]
    bad = ~np.isin(raw_labels, (0.0, 1.0))
    if np.any(bad):
        r = int(np.nonzero(bad)[0][0])
        raise ValueError(f"{path}: line {lines[r]}: label {float(raw_labels[r])!r} is not 0 or 1")
    return header, table


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
