"""Split invariants, scaler behaviour, the contamination audit, and the
two protocol orderings run end to end."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

import leakbench.data as data
import leakbench.experiment as experiment
import leakbench.pipeline as pipeline
import leakbench.resample as resample
from leakbench.data import Dataset, RowOrigin, SYNTHETIC, SynthConfig, generate_synthetic
from leakbench.experiment import DatasetSpec, GridConfig, run_grid
from leakbench.model import MlpConfig, ModelParams
from leakbench.pipeline import (
    ContaminationReport,
    ScalerParams,
    SplitSpec,
    apply_scaler,
    contamination_audit,
    fit_scaler,
    run_protocol,
    split,
)
from leakbench.resample import ResamplerSpec, apply_resampler, interpolate

from conftest import make_dataset, peak_traced


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_spec_validation() -> None:
    with pytest.raises(ValueError, match="unknown split strategy 'sorted'"):
        SplitSpec(strategy="sorted")
    with pytest.raises(ValueError, match="test_fraction"):
        SplitSpec(strategy="random", test_fraction=0.0)
    with pytest.raises(ValueError, match="test_fraction"):
        SplitSpec(strategy="random", test_fraction=1.0)


def test_split_invariants_many_instances() -> None:
    rng = np.random.default_rng(600)
    strategies = ("random", "stratified", "temporal")
    for trial in range(100):
        n = int(rng.integers(6, 120))
        n_pos = int(rng.integers(1, max(2, n // 3)))
        frac = float(rng.uniform(0.1, 0.5))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.choice(n, n_pos, replace=False)] = 1
        ds = make_dataset(rng.standard_normal((n, 2)), labels, time=rng.uniform(0, 100, n))
        strategy = strategies[trial % 3]
        spec = SplitSpec(strategy=strategy, test_fraction=frac, seed=trial)

        try:
            train, test = split(ds, spec)
        except ValueError:
            assert strategy == "stratified"  # an empty side is the only legal failure here
            continue

        # partition: disjoint, exhaustive, sorted
        assert len(train) + len(test) == n
        assert len(np.intersect1d(train, test)) == 0
        assert (np.diff(train) > 0).all() and (np.diff(test) > 0).all()
        assert len(train) >= 1 and len(test) >= 1

        # deterministic
        train2, test2 = split(ds, spec)
        np.testing.assert_array_equal(train, train2)
        np.testing.assert_array_equal(test, test2)

        if strategy == "stratified":
            for label in (0, 1):
                n_c = int((ds.labels == label).sum())
                want = int(round(frac * n_c))
                if label == 1 and want == 0 and n_c > 0:
                    want = 1
                assert int((ds.labels[test] == label).sum()) == want
            assert (ds.labels[test] == 1).sum() >= 1
        if strategy == "temporal":
            assert ds.time[train].max() <= ds.time[test].min()


def test_random_split_size_is_clamped_round() -> None:
    ds = make_dataset(np.zeros((10, 1)) + np.arange(10)[:, None], [0] * 9 + [1])
    train, test = split(ds, SplitSpec(strategy="random", test_fraction=0.2, seed=1))
    assert len(test) == 2 and len(train) == 8
    # a fraction that rounds to zero still yields one test row
    train, test = split(ds, SplitSpec(strategy="random", test_fraction=0.01, seed=1))
    assert len(test) == 1


def test_stratified_rare_positive_reaches_test() -> None:
    # 198 negatives and 2 positives: round(0.2 * 2) = 0 is bumped to 1
    labels = np.array([1, 1] + [0] * 198)
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.standard_normal((200, 3)), labels)
    train, test = split(ds, SplitSpec(strategy="stratified", test_fraction=0.2, seed=4))
    assert int(ds.labels[test].sum()) == 1
    assert len(test) == 1 + round(0.2 * 198)
    assert int(ds.labels[train].sum()) == 1


def test_temporal_split_frozen_example() -> None:
    times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]
    ds = make_dataset(np.arange(8.0)[:, None], [0, 0, 0, 1, 0, 0, 1, 0], time=times)
    train, test = split(ds, SplitSpec(strategy="temporal", test_fraction=0.25))
    np.testing.assert_array_equal(test, [6, 7])
    np.testing.assert_array_equal(train, [0, 1, 2, 3, 4, 5])


def test_temporal_boundary_ties_go_to_train() -> None:
    times = [0.0, 1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 10.0]
    ds = make_dataset(np.arange(8.0)[:, None], [0, 1, 0, 0, 0, 0, 0, 1], time=times)
    train, test = split(ds, SplitSpec(strategy="temporal", test_fraction=0.25))
    # nominal cut would land inside the tied block at t=3
    np.testing.assert_array_equal(test, [7])
    assert len(train) == 7


def test_temporal_all_tied_times_fails() -> None:
    ds = make_dataset(np.arange(6.0)[:, None], [0, 1, 0, 1, 0, 0], time=[5.0] * 6)
    with pytest.raises(ValueError, match="boundary timestamp extends to the last row"):
        split(ds, SplitSpec(strategy="temporal", test_fraction=0.3))


def test_temporal_requires_time_column() -> None:
    ds = make_dataset(np.zeros((4, 1)), [0, 1, 0, 1])
    with pytest.raises(ValueError, match="temporal split requires a time column"):
        split(ds, SplitSpec(strategy="temporal"))


def test_split_needs_two_rows() -> None:
    ds = make_dataset(np.zeros((1, 1)), [1])
    for strategy in ("random", "stratified"):
        with pytest.raises(ValueError, match="fewer than 2 rows"):
            split(ds, SplitSpec(strategy=strategy))


def test_stratified_split_without_positives() -> None:
    ds = make_dataset(np.arange(10.0), np.zeros(10, dtype=np.int64))
    train, test = split(ds, SplitSpec(strategy="stratified", test_fraction=0.2, seed=4))
    assert len(train) == 8 and len(test) == 2
    np.testing.assert_array_equal(np.sort(np.concatenate([train, test])), np.arange(10))


def test_stratified_empty_side_error() -> None:
    ds = make_dataset(np.zeros((2, 1)), [1, 0])
    with pytest.raises(ValueError, match="stratified split produced an empty side"):
        split(ds, SplitSpec(strategy="stratified", test_fraction=0.6, seed=0))


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def test_standardize_centers_fitted_rows() -> None:
    rng = np.random.default_rng(20)
    ds = make_dataset(rng.uniform(5, 10, (30, 3)), rng.integers(0, 2, 30))
    rows = np.arange(20)
    params = fit_scaler(ds, rows, "standardize")
    assert params.fitted_on == "train_only"
    scaled = apply_scaler(ds, params)
    np.testing.assert_allclose(scaled.features[rows].mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(scaled.features[rows].std(axis=0), 1.0, atol=1e-12)
    # the remaining rows are transformed with the same parameters
    assert abs(scaled.features[20:].mean()) > 1e-6


def test_minmax_maps_to_unit_interval() -> None:
    ds = make_dataset([[2.0], [4.0], [6.0]], [0, 1, 0])
    params = fit_scaler(ds, np.arange(3), "minmax")
    assert params.fitted_on == "full_dataset"
    scaled = apply_scaler(ds, params)
    np.testing.assert_allclose(scaled.features[:, 0], [0.0, 0.5, 1.0])


def test_constant_column_passes_through() -> None:
    ds = make_dataset([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]], [0, 1, 0])
    for method in ("standardize", "minmax"):
        params = fit_scaler(ds, np.arange(3), method)
        assert (params.center[0], params.scale[0]) == (0.0, 1.0)
        scaled = apply_scaler(ds, params)
        np.testing.assert_array_equal(scaled.features[:, 0], [7.0, 7.0, 7.0])


def test_apply_scaler_is_the_textbook_form_bitwise() -> None:
    rng = np.random.default_rng(21)
    x = rng.uniform(-50, 50, (40, 4))
    x[:, 2] = 7.0  # a constant column: center 0, scale 1
    ds = make_dataset(x, rng.integers(0, 2, 40))
    for method in ("standardize", "minmax", "none"):
        params = fit_scaler(ds, np.arange(30), method)
        assert (params.center[2], params.scale[2]) == (0.0, 1.0)
        before = [ds.features.tobytes(), params.center.tobytes(), params.scale.tobytes()]
        scaled = apply_scaler(ds, params)
        want = (ds.features - params.center) / params.scale
        assert scaled.features.tobytes() == want.tobytes()
        assert [ds.features.tobytes(), params.center.tobytes(), params.scale.tobytes()] == before


def test_none_scaler_is_identity() -> None:
    ds = make_dataset([[3.0], [9.0]], [0, 1])
    params = fit_scaler(ds, np.arange(2), "none")
    np.testing.assert_array_equal(params.center, [0.0])
    np.testing.assert_array_equal(params.scale, [1.0])
    assert params.fitted_on == "full_dataset"
    scaled = apply_scaler(ds, params)
    np.testing.assert_array_equal(scaled.features, ds.features)


def test_none_scaler_reads_no_rows() -> None:
    # "none" is the identity: a copy of the fitted rows would be wasted memory
    rng = np.random.default_rng(21)
    ds = make_dataset(rng.standard_normal((50_000, 30)), rng.integers(0, 2, 50_000))
    rows = np.arange(ds.n_rows)
    assert peak_traced(lambda: fit_scaler(ds, rows, "none")) < ds.features.nbytes / 10


def _gathered_fit(ds: Dataset, rows: np.ndarray, method: str) -> tuple[np.ndarray, np.ndarray]:
    """(center, scale) of fit_scaler as it was before the in-place read: always on a gather."""
    if method == "none":
        return np.zeros(ds.n_features), np.ones(ds.n_features)
    x = ds.features[rows]
    if method == "standardize":
        center, scale = x.mean(axis=0), x.std(axis=0)
    else:
        center = x.min(axis=0)
        scale = x.max(axis=0) - center
    constant = scale == 0.0
    return np.where(constant, 0.0, center), np.where(constant, 1.0, scale)


def _fortran_copy(ds: Dataset) -> Dataset:
    # __post_init__ makes every matrix C-contiguous, so the order is set afterwards
    out = replace(ds)
    out.features = np.asfortranarray(ds.features)
    return out


def test_fit_scaler_in_place_read_equals_the_gathered_fit_bitwise() -> None:
    # a permutation of every row or a Fortran-ordered matrix read in place would sum in
    # another order; both must still give the gathered fit's bits
    rng = np.random.default_rng(23)
    for _ in range(100):
        n, d = int(rng.integers(1, 300)), int(rng.integers(1, 6))
        x = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, d)
        x[:, rng.random(d) < 0.2] = 1.5  # constant columns
        ds = make_dataset(x, rng.integers(0, 2, n))
        subset = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        cases = [
            (ds, np.arange(n)),
            (ds, rng.permutation(n)),
            (ds, subset),
            (_fortran_copy(ds), np.arange(n)),
        ]
        for case, rows in cases:
            for method in pipeline.SCALER_METHODS:
                params = fit_scaler(case, rows, method)
                center, scale = _gathered_fit(case, rows, method)
                assert params.center.tobytes() == center.tobytes(), (n, d, method)
                assert params.scale.tobytes() == scale.tobytes(), (n, d, method)


def test_fit_scaler_reads_every_row_in_place_only_in_order_and_c_contiguous() -> None:
    rng = np.random.default_rng(24)
    ds = make_dataset(rng.standard_normal((50_000, 30)), rng.integers(0, 2, 50_000))
    n, nbytes = ds.n_rows, ds.features.nbytes
    # minmax reads its rows without temporaries, so its peak is the gather or nothing
    assert peak_traced(lambda: fit_scaler(ds, np.arange(n), "minmax")) < nbytes / 10
    gathered = [(ds, np.random.default_rng(1).permutation(n)), (_fortran_copy(ds), np.arange(n))]
    for case, rows in gathered:
        assert peak_traced(lambda: fit_scaler(case, rows, "minmax")) >= nbytes


def test_fit_scaler_validation() -> None:
    ds = make_dataset([[1.0]], [0])
    with pytest.raises(ValueError, match="unknown scaler 'robust'"):
        fit_scaler(ds, np.array([0]), "robust")
    with pytest.raises(ValueError, match="at least one row"):
        fit_scaler(ds, np.array([], dtype=np.int64), "standardize")
    ds = make_dataset([[1.0], [2.0], [30.0]], [0, 1, 0])
    for rows, bad in (([-1], -1), ([0, 3, 1], 3), ([2, -4, 5], -4)):
        with pytest.raises(ValueError, match=rf"row {bad} is outside 0\.\.2"):
            fit_scaler(ds, np.array(rows), "minmax")


def test_fit_scaler_refuses_rows_that_are_not_row_ids() -> None:
    # a boolean mask of the train rows used to be read as the row ids 0 and 1
    ds = make_dataset([[1.0], [2.0], [30.0]], [0, 1, 0])
    for rows in (np.array([True, False, True]), np.array([0.0, 2.0]), [True, True, True]):
        with pytest.raises(ValueError, match="rows must be integer row ids, not"):
            fit_scaler(ds, rows, "minmax")
    with pytest.raises(ValueError, match="at least one row"):
        fit_scaler(ds, [], "minmax")  # an empty list is float64 to numpy
    for rows in ([0, 2], np.array([0, 2], dtype=np.uint8), np.array([0, 2], dtype=np.int32)):
        assert fit_scaler(ds, rows, "minmax").center.tolist() == [1.0]


def test_fit_scaler_reports_full_dataset_exactly_when_the_rows_cover_every_row() -> None:
    # row 2 is never read, so the fit is not a full-dataset fit
    ds = make_dataset([[1.0], [2.0], [30.0]], [0, 1, 0])
    params = fit_scaler(ds, np.array([0, 1, 1]), "minmax")
    assert params.fitted_on == "train_only" and params.center.tolist() == [1.0]
    rng = np.random.default_rng(25)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        ds = make_dataset(rng.standard_normal((n, 2)), rng.integers(0, 2, n))
        kind = rng.integers(4)
        if kind == 0:  # draws with repeats, of any length
            rows = rng.integers(0, n, int(rng.integers(1, 2 * n + 1)))
        elif kind == 1:  # a permutation of every row
            rows = rng.permutation(n)
        elif kind == 2:  # a subset without repeats
            rows = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        else:  # every row, some repeated
            rows = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, 3)]))
        for method in pipeline.SCALER_METHODS:
            full = fit_scaler(ds, rows, method).fitted_on == "full_dataset"
            assert full == (set(rows.tolist()) == set(range(n)))


# ---------------------------------------------------------------------------
# contamination audit
# ---------------------------------------------------------------------------


def _with_origin(ds: Dataset, origin: RowOrigin) -> Dataset:
    return Dataset(ds.features, ds.labels, ds.feature_names, ds.time, origin)


def test_audit_clean_sides_report_zeroes() -> None:
    rng = np.random.default_rng(30)
    train = make_dataset(rng.standard_normal((20, 2)), rng.integers(0, 2, 20))
    test = make_dataset(rng.standard_normal((8, 2)), rng.integers(0, 2, 8))
    rep = contamination_audit(train, test)
    assert rep == ContaminationReport(8, 0, 0, 0, False)


def test_audit_counts_synthetic_rows_and_parents() -> None:
    rng = np.random.default_rng(31)
    train = make_dataset(rng.standard_normal((10, 2)), rng.integers(0, 2, 10))
    # train rows are sources 0..9; two synthetic test rows, one with a
    # parent on the training side and one with both parents elsewhere
    test = make_dataset(rng.standard_normal((3, 2)), [1, 1, 0])
    origin = RowOrigin(
        kind=np.array([SYNTHETIC, SYNTHETIC, 0]),
        parent_a=np.array([3, 50, 2]),
        parent_b=np.array([60, 51, -1]),
        delta=np.array([0.5, 0.5, 0.0]),
    )
    rep = contamination_audit(train, _with_origin(test, origin))
    assert rep.n_synthetic_in_test == 2
    assert rep.n_synthetic_parent_in_train == 1
    assert rep.leak_flag is True


def test_audit_duplicate_rows_at_twelve_digits() -> None:
    base = np.array([[1.234567890123456, -2.0], [50.0, 3.0]])
    train = make_dataset(base, [1, 0])

    # identical beyond 12 significant digits: a duplicate
    near = base.copy()
    near[0, 0] *= 1.0 + 1e-14
    rep = contamination_audit(train, make_dataset(near[:1], [1]))
    assert rep.n_cross_split_duplicates == 1
    assert rep.leak_flag is True

    # differs within 12 significant digits: not a duplicate
    far = base.copy()
    far[0, 0] *= 1.0 + 1e-9
    rep = contamination_audit(train, make_dataset(far[:1], [1]))
    assert rep.n_cross_split_duplicates == 0
    assert rep.leak_flag is False

    # same features but different label: not a duplicate
    rep = contamination_audit(train, make_dataset(base[:1], [0]))
    assert rep.n_cross_split_duplicates == 0

    # same first value, a later value differs within 12 significant digits: not a duplicate
    later = base.copy()
    later[0, 1] *= 1.0 + 1e-9
    rep = contamination_audit(train, make_dataset(later[:1], [1]))
    assert rep.n_cross_split_duplicates == 0


def test_audit_treats_negative_zero_as_zero() -> None:
    train = make_dataset(np.array([[0.0, 1.0]]), [0])
    test = make_dataset(np.array([[-0.0, 1.0]]), [0])
    rep = contamination_audit(train, test)
    assert rep.n_cross_split_duplicates == 1


def test_audit_compares_tiny_magnitudes_exactly() -> None:
    # the 12-digit scale factor overflows below about 1e-297; such values keep their bits
    train = make_dataset(np.array([[1e-300]]), [0])
    with np.errstate(all="raise"):
        rep = contamination_audit(train, make_dataset(np.array([[3e-300]]), [0]))
        assert rep.n_cross_split_duplicates == 0
        assert rep.leak_flag is False
        rep = contamination_audit(train, make_dataset(np.array([[1e-300]]), [0]))
        assert rep.n_cross_split_duplicates == 1


def _brute_force_duplicates(train: Dataset, test: Dataset) -> int:
    """Test rows bitwise equal to a train row at 12 digits, label too; every pair compared."""
    rtr = pipeline._round_significant(train.features.copy(), 12).view(np.int64)
    rte = pipeline._round_significant(test.features.copy(), 12).view(np.int64)
    count = 0
    for row, label in zip(rte, test.labels):
        count += any(
            label == other_label and all(a == b for a, b in zip(row, other))
            for other, other_label in zip(rtr, train.labels)
        )
    return count


def _whole_selection_keys(ds: Dataset, rows: np.ndarray) -> list[bytes]:
    """_row_keys as it was before blocks: every selected row rounded at once."""
    rounded = pipeline._round_significant(ds.features[rows], 12)
    return [row.tobytes() + bytes([label]) for row, label in zip(rounded, ds.labels[rows])]


def test_audit_duplicates_match_brute_force_many_instances(monkeypatch) -> None:
    # first values collide often while later values differ, so the first-value filter passes
    # rows that are not duplicates and must still drop none that are
    rng = np.random.default_rng(2024)
    block_rng = np.random.default_rng(2025)  # apart from rng, so the instances stay the same
    odd = [0.0, -0.0, 1e-300, -1e-300, 3e-300, 5e-324, np.inf, np.nan]
    near = [1.0, 1.0 + 1e-14, 1.0 + 1e-9, -2.5, 1e6 / 3, 1e6 / 3 * (1 + 1e-13)]
    for _ in range(300):
        n_features = int(rng.integers(1, 5))
        pool = np.array(odd + near + list(rng.standard_normal(3)))
        first = rng.choice(pool, size=int(rng.integers(1, 4)))  # few distinct first values
        n_train, n_test = rng.integers(1, 30, size=2)

        def draw(n):
            x = rng.choice(pool, size=(n, n_features))
            x[:, 0] = rng.choice(first, size=n)
            return x

        x_train, x_test = draw(n_train), draw(n_test)
        y_train, y_test = rng.integers(0, 2, n_train), rng.integers(0, 2, n_test)
        # plant copies of train rows, some nudged below 12 digits, some with the label flipped
        k = int(rng.integers(0, min(n_train, n_test) + 1))
        picks = rng.choice(n_train, size=k)
        x_test[:k] = x_train[picks] * np.where(rng.random((k, 1)) < 0.3, 1.0 + 1e-14, 1.0)
        y_test[:k] = np.where(rng.random(k) < 0.2, 1 - y_train[picks], y_train[picks])

        train, test = make_dataset(x_train, y_train), make_dataset(x_test, y_test)
        # keys are rounded in blocks; blocks of a few rows put boundaries inside the selection
        monkeypatch.setattr(data, "ROW_BLOCK", int(block_rng.integers(1, 8)))
        mask = block_rng.random(n_train) < 0.7
        assert list(pipeline._row_keys(train, mask)) == _whole_selection_keys(train, mask)
        before = train.features.tobytes(), test.features.tobytes()
        rep = contamination_audit(train, test)
        assert (train.features.tobytes(), test.features.tobytes()) == before  # rounds copies
        assert rep.n_cross_split_duplicates == _brute_force_duplicates(train, test)


def test_leak_flag_equivalence_many_instances() -> None:
    # leak_flag must hold exactly when synthetic rows sit in the test
    # side or a row appears on both sides
    rng = np.random.default_rng(32)
    for trial in range(100):
        n_train = int(rng.integers(5, 30))
        n_test = int(rng.integers(2, 12))
        train = make_dataset(
            rng.standard_normal((n_train, 2)), rng.integers(0, 2, n_train)
        )
        feats = rng.standard_normal((n_test, 2))
        labels = rng.integers(0, 2, n_test)

        inject_synth = bool(rng.random() < 0.4)
        inject_dup = bool(rng.random() < 0.4)
        kind = np.zeros(n_test, dtype=np.uint8)
        if inject_synth:
            kind[rng.integers(0, n_test)] = SYNTHETIC
        if inject_dup:
            j = int(rng.integers(0, n_train))
            feats[0] = train.features[j]
            labels[0] = train.labels[j]
        test = Dataset(
            feats,
            labels,
            ("V1", "V2"),
            origin=RowOrigin(
                kind=kind,
                parent_a=np.arange(n_test),
                parent_b=np.full(n_test, -1),
                delta=np.zeros(n_test),
            ),
        )
        rep = contamination_audit(train, test)
        assert rep.leak_flag == (inject_synth or inject_dup)


# ---------------------------------------------------------------------------
# protocols end to end
# ---------------------------------------------------------------------------


def run_cfg(epochs: int = 5) -> MlpConfig:
    return MlpConfig(n_features=1, hidden_neurons=2, epochs=epochs, batch_size=64, seed=7)


def overlap_dataset(seed: int = 0, n: int = 400, rate: float = 0.08) -> Dataset:
    return generate_synthetic(
        SynthConfig(n_samples=n, positive_rate=rate, n_features=5, class_separation=1.5, seed=seed)
    )


SPLIT = SplitSpec(strategy="stratified", test_fraction=0.25, seed=3)


def run(
    ds: Dataset,
    protocol: str,
    model_cfg: MlpConfig | None = None,
    method: str | None = "smote",
    scaler: str = "standardize",
):
    resampler = ResamplerSpec(method=method, seed=5)
    return run_protocol(ds, protocol, SPLIT, resampler, scaler, model_cfg or run_cfg())


def test_clean_protocol_never_contaminates() -> None:
    art = run(overlap_dataset(), "clean")
    rep = art.contamination
    assert rep.n_synthetic_in_test == 0
    assert rep.n_synthetic_parent_in_train == 0
    assert rep.n_cross_split_duplicates == 0
    assert rep.leak_flag is False
    assert len(art.history) == 5


def test_leaky_protocol_is_flagged() -> None:
    art = run(overlap_dataset(), "leaky")
    rep = art.contamination
    assert rep.n_synthetic_in_test > 0
    assert rep.leak_flag is True


def test_leaky_without_resampler_is_not_flagged() -> None:
    # scaling leakage alone moves no rows across the split, so the
    # row-based audit stays quiet
    art = run(overlap_dataset(), "leaky", method=None)
    assert art.contamination.leak_flag is False


def test_clean_resampler_sees_only_train_rows(monkeypatch) -> None:
    seen = {}
    real = pipeline.apply_resampler

    def spying_resampler(ds, spec):
        seen["dataset"] = ds
        return real(ds, spec)

    monkeypatch.setattr(pipeline, "apply_resampler", spying_resampler)
    ds = overlap_dataset()
    run(ds, "clean")

    train_rows, test_rows = split(ds, SPLIT)
    got = seen["dataset"]
    assert got.n_rows == len(train_rows)
    # origin tags carry the source row ids through take()
    np.testing.assert_array_equal(np.sort(got.origin.parent_a), train_rows)
    assert len(np.intersect1d(got.origin.parent_a, test_rows)) == 0


# every method that creates synthetic rows; all but cluster_centroids
# build them by interpolating between their two parents
SYNTHESIZING_METHODS = (
    "smote", "random_over", "adasyn", "borderline_smote", "smote_tomek", "smote_enn",
    "cluster_centroids",
)


def test_synthetic_parents_name_grid_rows_in_every_protocol() -> None:
    for seed in range(2):
        ds = overlap_dataset(seed=seed)
        for strategy in pipeline.SPLIT_STRATEGIES:
            train_rows, _ = split(ds, SplitSpec(strategy=strategy, test_fraction=0.25, seed=seed))
            for protocol in pipeline.PROTOCOLS:
                # the resampler input run_protocol builds for this protocol
                leaky = protocol == "leaky"
                fit_rows = np.arange(ds.n_rows) if leaky else train_rows
                scaled = apply_scaler(ds, fit_scaler(ds, fit_rows, "standardize"))
                resampler_input = scaled if leaky else scaled.take(train_rows)
                for method in SYNTHESIZING_METHODS:
                    spec = ResamplerSpec(method=method, seed=seed)
                    out = apply_resampler(resampler_input, spec).dataset
                    synth = out.origin.kind == SYNTHETIC
                    pa, pb = out.origin.parent_a[synth], out.origin.parent_b[synth]
                    delta = out.origin.delta[synth]
                    where = (seed, strategy, protocol, method)
                    assert synth.any(), where
                    for parents in (pa, pb):
                        assert ((parents >= 0) & (parents < ds.n_rows)).all(), where
                        if protocol == "clean":
                            assert np.isin(parents, train_rows).all(), where
                        np.testing.assert_array_equal(ds.labels[parents], out.labels[synth])
                    np.testing.assert_array_equal(
                        out.time[synth], ds.time[pa] + delta * (ds.time[pb] - ds.time[pa])
                    )
                    if method != "cluster_centroids":
                        np.testing.assert_array_equal(
                            out.features[synth],
                            interpolate(scaled.features[pa], scaled.features[pb], delta),
                            err_msg=str(where),
                        )


def _vstack_append(ds, label, parent_a, parent_b, delta, fill=None) -> Dataset:
    """resample._append_synthetic as it was before the one-buffer append: the new rows are
    built whole, as ``b - a; *= delta; += a``, and stacked under the input with np.vstack."""
    if fill is None:
        rows = ds.features[parent_b] - ds.features[parent_a]
        rows *= delta[:, None]
        rows += ds.features[parent_a]
    else:
        rows = np.empty((len(delta), ds.n_features))
        fill(rows)
    time = None
    if ds.time is not None:
        new_time = ds.time[parent_b] - ds.time[parent_a]
        new_time *= delta
        new_time += ds.time[parent_a]
        time = np.concatenate([ds.time, new_time])
    return Dataset(
        features=np.vstack([ds.features, rows]),
        labels=np.concatenate([ds.labels, np.full(len(delta), label, dtype=np.int64)]),
        feature_names=ds.feature_names,
        time=time,
        origin=RowOrigin.concat(
            ds.origin,
            RowOrigin.synthetic(ds.origin.parent_a[parent_a], ds.origin.parent_a[parent_b], delta),
        ),
    )


def _reference_sides(ds, protocol, split_spec, resampler, scaler, monkeypatch):
    """The cell's (train, test, notes) in the order the protocols ran before each whole-set
    buffer was built once: leaky scales the whole set, resamples it and takes both sides
    from it; clean scales the whole set and takes both sides from the scaled set."""
    with monkeypatch.context() as m:
        m.setattr(resample, "_append_synthetic", _vstack_append)
        if protocol == "leaky":
            rows = np.arange(ds.n_rows)
            params = ScalerParams("full_dataset", *_gathered_fit(ds, rows, scaler))
            scaled = apply_scaler(ds, params)
            res = apply_resampler(scaled, resampler)
            train_rows, test_rows = split(res.dataset, split_spec)
            return res.dataset.take(train_rows), res.dataset.take(test_rows), res.notes
        train_rows, test_rows = split(ds, split_spec)
        params = ScalerParams("train_only", *_gathered_fit(ds, train_rows, scaler))
        scaled = apply_scaler(ds, params)
        res = apply_resampler(scaled.take(train_rows), resampler)
        return res.dataset, scaled.take(test_rows), res.notes


def _arrays(ds: Dataset) -> dict[str, np.ndarray]:
    arrays = {"features": ds.features, "labels": ds.labels, "time": ds.time}
    arrays.update((f, getattr(ds.origin, f)) for f in ("kind", "parent_a", "parent_b", "delta"))
    return arrays


def _assert_same_bytes(got: Dataset, want: Dataset, where) -> None:
    for name, value in _arrays(want).items():
        other = _arrays(got)[name]
        assert other.shape == value.shape and other.tobytes() == value.tobytes(), (name, where)


def test_append_in_blocks_equals_vstack_append_bitwise() -> None:
    rng = np.random.default_rng(41)
    ds = make_dataset(rng.standard_normal((50, 3)) * 1e3, rng.integers(0, 2, 50), rng.random(50))
    n_new = 2 * data.ROW_BLOCK + 3  # two whole blocks and a short one
    pa, pb = rng.integers(0, 50, n_new), rng.integers(0, 50, n_new)
    delta = rng.random(n_new)
    before = [a.tobytes() for a in _arrays(ds).values()]
    got = resample._append_synthetic(ds, 1, pa, pb, delta)
    _assert_same_bytes(got, _vstack_append(ds, 1, pa, pb, delta), "interpolated")
    assert [a.tobytes() for a in _arrays(ds).values()] == before
    fill = lambda tail: ds.features.take(pa, axis=0, out=tail, mode="clip")  # noqa: E731
    got = resample._append_synthetic(ds, 0, pa, pa, np.zeros(n_new), fill=fill)
    _assert_same_bytes(got, _vstack_append(ds, 0, pa, pa, np.zeros(n_new), fill=fill), "filled")
    np.testing.assert_array_equal(got.features[50:], ds.features[pa])


def test_cell_sides_equal_the_old_order_bitwise(monkeypatch) -> None:
    # blocks of a few rows, so the append and the leaky compaction cross block boundaries
    monkeypatch.setattr(data, "ROW_BLOCK", 16)
    ds = overlap_dataset(seed=5, n=150, rate=0.1)
    for grid in (ds, _fortran_copy(ds)):
        for method in [None, *resample.METHODS]:
            resampler = ResamplerSpec(method=method, seed=9)
            for strategy in pipeline.SPLIT_STRATEGIES:
                split_spec = SplitSpec(strategy=strategy, test_fraction=0.25, seed=4)
                for scaler in pipeline.SCALER_METHODS:
                    for protocol in pipeline.PROTOCOLS:
                        args = (grid, protocol, split_spec, resampler, scaler)
                        want = _reference_sides(*args, monkeypatch)
                        got = pipeline._cell_sides(*args)
                        order = "F" if grid.features.flags.f_contiguous else "C"
                        where = (order, method, strategy, scaler, protocol)
                        _assert_same_bytes(got[0], want[0], ("train",) + where)
                        _assert_same_bytes(got[1], want[1], ("test",) + where)
                        assert got[2] == want[2], where


def test_no_cell_writes_to_the_grid_dataset(monkeypatch) -> None:
    # the leaky branch compacts its training rows in place, which is safe only in a buffer
    # the cell made; the grid dataset is shared by every cell of a run
    # classes far apart, so that no cleaner empties a class of a side
    synth = SynthConfig(n_samples=160, positive_rate=0.1, n_features=5, class_separation=4.0)
    spec = DatasetSpec(synthetic=synth)
    ds = generate_synthetic(synth)
    before = {name: value.copy() for name, value in _arrays(ds).items()}
    owned = []
    real_front_rows = pipeline._front_rows

    def spying_front_rows(x, rows):
        grid_arrays = _arrays(ds).values()
        owned.append(x.flags.owndata and not any(np.shares_memory(x, a) for a in grid_arrays))
        return real_front_rows(x, rows)

    monkeypatch.setattr(pipeline, "_front_rows", spying_front_rows)
    monkeypatch.setattr(experiment, "load_grid_dataset", lambda spec: ds)
    # a target ratio the data already meets: smote passes the scaled set through
    resamplers = [ResamplerSpec(method=m) for m in [None, *resample.METHODS]]
    resamplers.append(ResamplerSpec(method="smote", target_ratio=0.05))
    n_cells = 0
    for resampler in resamplers:
        for strategy in pipeline.SPLIT_STRATEGIES:
            for scaler in pipeline.SCALER_METHODS:
                cfg = GridConfig(
                    dataset=spec,
                    seeds=(1,),
                    resampler=resampler,
                    split=SplitSpec(strategy=strategy, test_fraction=0.25),
                    n_values=(0,),
                    scaler=scaler,
                    model=ModelParams(epochs=1),
                )
                for cell in run_grid(cfg).cells:
                    assert cell.error is None, (resampler, strategy, scaler, cell.error)
                    n_cells += 1
    for name, value in _arrays(ds).items():
        assert value.tobytes() == before[name].tobytes(), name
    assert len(owned) == n_cells // 2 and all(owned)


def test_a_desk_cell_holds_few_whole_set_buffers() -> None:
    # the cell peaks at 3.62x (leaky) and 3.15x (clean) the grid's feature bytes, so one more
    # whole-set buffer or temporary breaks its bound
    ds = generate_synthetic(
        SynthConfig(n_samples=20_000, positive_rate=0.005, n_features=30, seed=7)
    )
    nbytes = ds.features.nbytes
    split_spec = SplitSpec(strategy="stratified", test_fraction=0.2, seed=11)
    cfg = MlpConfig(n_features=30, hidden_neurons=4, epochs=1, seed=3)
    smote = ResamplerSpec(method="smote", seed=5)
    for protocol, bound in (("leaky", 4.0), ("clean", 3.5)):
        args = (ds, protocol, split_spec, smote, "standardize", cfg)
        peak = peak_traced(lambda: run_protocol(*args))
        assert peak < bound * nbytes, (protocol, peak / nbytes)
    # random_over copies 100 positives 19,800 times, so most keyed rows are duplicates; the
    # audit peaks at 1.40x, and rounding the whole selection at once breaks the bound
    random_over = ResamplerSpec(method="random_over", seed=5)
    train, test, _ = pipeline._cell_sides(ds, "leaky", split_spec, random_over, "standardize")
    peak = peak_traced(lambda: contamination_audit(train, test))
    assert peak < 2.0 * nbytes, peak / nbytes


def test_clean_scaler_fits_on_train_rows_only(monkeypatch) -> None:
    seen = {}
    real = pipeline.fit_scaler

    def spying_fit(ds, rows, method):
        seen["rows"] = np.asarray(rows)
        return real(ds, rows, method)

    monkeypatch.setattr(pipeline, "fit_scaler", spying_fit)
    ds = overlap_dataset()
    run(ds, "clean")
    train_rows, _ = split(ds, SPLIT)
    np.testing.assert_array_equal(np.sort(seen["rows"]), train_rows)


def test_leaky_scaler_fits_on_everything(monkeypatch) -> None:
    seen = {}
    real = pipeline.fit_scaler

    def spying_fit(ds, rows, method):
        seen["n"] = len(np.asarray(rows))
        return real(ds, rows, method)

    monkeypatch.setattr(pipeline, "fit_scaler", spying_fit)
    ds = overlap_dataset()
    run(ds, "leaky")
    assert seen["n"] == ds.n_rows


def test_leaky_f1_beats_clean_f1_on_overlapping_classes() -> None:
    ds = overlap_dataset(seed=2, n=600, rate=0.05)
    cfg = MlpConfig(n_features=1, hidden_neurons=4, epochs=12, batch_size=64, seed=1)
    leaky = run(ds, "leaky", cfg)
    clean = run(ds, "clean", cfg)
    assert leaky.report.scalars.f1 is not None
    assert clean.report.scalars.f1 is not None
    assert leaky.report.scalars.f1 > clean.report.scalars.f1


def test_run_protocol_is_deterministic() -> None:
    ds = overlap_dataset(seed=4)
    a = run(ds, "leaky")
    b = run(ds, "leaky")
    assert a.report.scalars == b.report.scalars
    assert a.history == b.history
    assert a.contamination == b.contamination


def test_run_protocol_validation() -> None:
    ds = overlap_dataset()
    message = "unknown protocol 'dirty'; expected one of ('leaky', 'clean')"
    with pytest.raises(ValueError, match=re.escape(message)):
        run(ds, "dirty")
    # the clean protocol splits before it fits the scaler; the message is the same
    message = "unknown scaler 'robust'; expected one of ('standardize', 'minmax', 'none')"
    for protocol in pipeline.PROTOCOLS:
        with pytest.raises(ValueError, match=re.escape(message)):
            run(ds, protocol, scaler="robust")
