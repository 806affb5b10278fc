from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from leakbench.data import Dataset


def make_dataset(features, labels, time=None) -> Dataset:
    """Build a Dataset from plain lists/arrays with auto feature names."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    names = tuple(f"V{j + 1}" for j in range(features.shape[1]))
    return Dataset(
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        feature_names=names,
        time=None if time is None else np.asarray(time, dtype=np.float64),
    )


def peak_traced(fn) -> int:
    """Peak bytes allocated while ``fn()`` runs, as tracemalloc counts them.

    Tracing starts at the call, so memory already held does not count; numpy
    reports its array buffers to tracemalloc.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def small_imbalanced() -> Dataset:
    """24 rows, 6 positives, 2 features; deterministic."""
    rng = np.random.default_rng(1234)
    x = rng.standard_normal((24, 2))
    y = np.zeros(24, dtype=np.int64)
    y[:6] = 1
    x[:6] += 3.0
    return make_dataset(x, y)
