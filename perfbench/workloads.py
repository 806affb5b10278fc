"""The benchmark's workloads: a config document per workload, built from the seed.

Each workload stresses different layers, so that an optimisation of one
layer has a workload that exercises it and one that bypasses it:

* ``desk`` is the acceptance desk grid (20k synthetic rows, SMOTE). About
  80% of its time is training and 14% the contamination audit; its eight
  small cells make per-cell overhead and report emission visible. Its kNN
  share is about 0.2%, so a kernel change must not move it.
* ``transactions`` is paper scale: 284,807 rows with 492 positives, written
  as a CSV in the transactions schema and loaded through the ``csv``
  dataset path. It is the only workload where loading (set-up time) and
  memory matter; the resampler builds about 568k rows and the audit walks
  about 570k.
* ``neighbors`` is 2,000 rows under SMOTE-ENN, so 99% of its time is the
  kNN kernel, in two shapes: SMOTE's minority-by-minority search beside
  ENN's all-rows search. A trainer change must not move it.

Compared with the grids they are modelled on, these run one seed instead
of five (and ``transactions`` one width, ``neighbors`` width 0 only), so a
grid repeats within a run. ``transactions`` also trains for 5 epochs
instead of 20, so that its grid (about 7 s) repeats at least three times
in a 30 s run; training stays its largest stage (about 58%, against 83%
at 20 epochs), with the audit second (about 31%).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

TRANSACTIONS_CSV = "transactions.csv"
TRANSACTIONS_ROWS = 284_807
TRANSACTIONS_POSITIVES = 492
# Header of the public credit-card transactions file.
TRANSACTION_SCHEMA = ("Time",) + tuple(f"V{i}" for i in range(1, 29)) + ("Amount", "Class")


def _grid_seeds(seed: int) -> list[int]:
    # One grid seed per workload run, kept apart from the data seed.
    return [1000 * seed]


def _desk(seed: int) -> dict:
    return {
        "dataset": {
            "synthetic": {
                "n_samples": 20_000,
                "positive_rate": 0.005,
                "n_features": 30,
                "class_separation": 2.0,
                "seed": seed,
            }
        },
        "n_values": [0, 1, 4, 16],
        "protocols": ["leaky", "clean"],
        "resampler": {"method": "smote", "k_neighbors": 5},
        "split": {"strategy": "stratified", "test_fraction": 0.2},
        "seeds": _grid_seeds(seed),
        "model": {"epochs": 20},
    }


def _transactions(seed: int) -> dict:
    return {
        "dataset": {"csv": {"path": TRANSACTIONS_CSV, "expect_schema": True}},
        "n_values": [16],
        "protocols": ["leaky", "clean"],
        "resampler": {"method": "smote", "k_neighbors": 5},
        "split": {"strategy": "stratified", "test_fraction": 0.2},
        "seeds": _grid_seeds(seed),
        "model": {"epochs": 5},
    }


def _neighbors(seed: int) -> dict:
    return {
        "dataset": {
            "synthetic": {
                "n_samples": 2_000,
                "positive_rate": 0.05,
                "n_features": 30,
                "class_separation": 2.0,
                "seed": seed,
            }
        },
        "n_values": [0],
        "protocols": ["leaky", "clean"],
        "resampler": {"method": "smote_enn", "k_neighbors": 5},
        "split": {"strategy": "stratified", "test_fraction": 0.2},
        "seeds": _grid_seeds(seed),
        "model": {"epochs": 3},
    }


CONFIGS = {"desk": _desk, "transactions": _transactions, "neighbors": _neighbors}


def write_transactions_csv(path: Path, seed: int) -> None:
    """Write a transactions-shaped CSV: integer seconds, 28 components, amount, label."""
    rng = np.random.default_rng(seed)
    n = TRANSACTIONS_ROWS
    time = np.sort(rng.integers(0, 172_800, n))
    components = rng.standard_normal((n, 28))
    labels = np.zeros(n)
    positives = rng.choice(n, TRANSACTIONS_POSITIVES, replace=False)
    labels[positives] = 1.0
    components[positives, :4] += 2.0
    amount = np.round(rng.lognormal(3.0, 1.5, n), 2)
    table = np.column_stack([time, components, amount, labels])
    np.savetxt(
        path,
        table,
        delimiter=",",
        header=",".join(TRANSACTION_SCHEMA),
        comments="",
        fmt=["%d"] + ["%.6f"] * 28 + ["%.2f", "%d"],
    )


def prepare(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's input files into workdir; return its config document."""
    if name == "transactions":
        write_transactions_csv(workdir / TRANSACTIONS_CSV, seed)
    return CONFIGS[name](seed)


def expected_digest(name: str, seed: int) -> str | None:
    """sha256 of the normalised report.json recorded for this workload and seed."""
    table = json.loads((HERE / "expected_digests.json").read_text())
    return table.get(name, {}).get(str(seed))
