"""Split invariants, scaler behaviour, the contamination audit, and the
two protocol orderings run end to end."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

import leakbench.pipeline as pipeline
from leakbench.data import Dataset, RowOrigin, SYNTHETIC, SynthConfig, generate_synthetic
from leakbench.model import MlpConfig
from leakbench.pipeline import (
    ContaminationReport,
    SplitSpec,
    apply_scaler,
    contamination_audit,
    fit_scaler,
    run_protocol,
    split,
)
from leakbench.resample import ResamplerSpec, apply_resampler, interpolate

from conftest import make_dataset


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
    tracemalloc.start()
    try:
        fit_scaler(ds, rows, "none")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ds.features.nbytes / 10


def test_fit_scaler_validation() -> None:
    ds = make_dataset([[1.0]], [0])
    with pytest.raises(ValueError, match="unknown scaler 'robust'"):
        fit_scaler(ds, np.array([0]), "robust")
    with pytest.raises(ValueError, match="at least one row"):
        fit_scaler(ds, np.array([], dtype=np.int64), "standardize")


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
