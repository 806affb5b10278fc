"""End-to-end acceptance gate.

Each test prints one verdict line (run with ``pytest tests/test_acceptance.py -s``
to see them as they pass):

- leakage-gap: resampling before the split must inflate median f1 by at
  least 0.05 over the clean protocol at every probed width, and the
  contamination audit must flag exactly the leaky cells.
- capacity-trend: median leaky f1 must grow with hidden width (at most
  one inversion) by at least 0.02 end to end.
- reference-replication: medians on the real transactions file must land
  within 0.02 of the stored reference grid for at least 30 of 36
  (width, metric) pairs.  Needs LEAKBENCH_DATA; skipped otherwise.
- all-negative-baseline: predicting the majority class everywhere must
  score exactly 1 - positive_rate on synthetic data (and 0.9983 +/- 0.0001
  on the real file when available).
- property-suites: gradient check, AUC equivalence, interpolation
  geometry, brute-force neighbor oracles, and split invariants at full
  strength.
- report-determinism: two runs of the same config must produce
  byte-identical report.json once wall-clock fields are zeroed.
"""

import json
import os

import numpy as np
import pytest

from leakbench.config import DATA_ENV_VAR
from leakbench.data import Dataset, SynthConfig, SYNTHETIC, generate_synthetic, load_csv
from leakbench.experiment import (
    DEFAULT_N_VALUES,
    REFERENCE_RESULTS,
    DatasetSpec,
    GridConfig,
    GridReport,
    ModelParams,
    cell_key,
    emit_report,
    run_grid,
)
from leakbench.metrics import evaluate
from leakbench.model import MlpConfig, MlpModel, init_mlp, loss_and_grad
from leakbench.pipeline import SplitSpec, split
from leakbench.resample import ResamplerSpec, apply_resampler
from leakbench.seeding import derive_rng

DESK_SEEDS = (101, 202, 303, 404, 505)
GAP_WIDTHS = (0, 1, 4, 16)
REAL_DATA = os.environ.get(DATA_ENV_VAR)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def desk_config(n_values, protocols) -> GridConfig:
    return GridConfig(
        dataset=DatasetSpec(
            synthetic=SynthConfig(
                n_samples=20000,
                positive_rate=0.005,
                n_features=30,
                class_separation=2.0,
                seed=7,
            )
        ),
        seeds=DESK_SEEDS,
        resampler=ResamplerSpec(method="smote"),
        split=SplitSpec(strategy="stratified", test_fraction=0.2),
        n_values=n_values,
        protocols=protocols,
        model=ModelParams(),
    )


def _make_dataset(x: np.ndarray, y: np.ndarray) -> Dataset:
    x = np.asarray(x, dtype=np.float64)
    names = tuple(f"V{i + 1}" for i in range(x.shape[1]))
    return Dataset(features=x, labels=np.asarray(y, dtype=np.int64), feature_names=names)


# ---------------------------------------------------------------------------
# leakage gap and capacity trend on the desk dataset
# ---------------------------------------------------------------------------


# A cell's streams depend only on its seed, width, protocol and seed index, so
# the leaky cells of the gap grid are those of the trend grid; each is run once.
@pytest.fixture(scope="module")
def leaky_desk() -> GridReport:
    return run_grid(desk_config(DEFAULT_N_VALUES, ("leaky",)))


@pytest.fixture(scope="module")
def clean_desk() -> GridReport:
    return run_grid(desk_config(GAP_WIDTHS, ("clean",)))


def test_acceptance_leakage_gap(leaky_desk, clean_desk):
    cfg = desk_config(GAP_WIDTHS, ("leaky", "clean"))
    by_key = {c.key: c for c in leaky_desk.cells + clean_desk.cells}
    cells = [
        by_key[cell_key(n, protocol, si)]
        for n in cfg.n_values
        for protocol in cfg.protocols
        for si in range(len(cfg.seeds))
    ]
    elapsed = sum(c.wall_time_s for c in cells)
    report = GridReport(config=cfg, cells=cells, total_wall_time_s=elapsed)

    problems = []
    if report.failed_cells:
        problems.append(f"{len(report.failed_cells)} cells failed")
    gaps = report.leakage_gap()
    for n, row in gaps.items():
        if row["gap"] is None or row["gap"] < 0.05:
            problems.append(f"f1 gap at width {n} is {row['gap']}")
    for cell in report.cells:
        if cell.error is None and cell.contamination.leak_flag != (cell.protocol == "leaky"):
            problems.append(f"{cell.key} has the wrong leak flag")

    if problems:
        _verdict("leakage-gap", False, "; ".join(problems))
    defined = [row["gap"] for row in gaps.values()]
    _verdict(
        "leakage-gap",
        True,
        f"median f1 gap {min(defined):.4f}..{max(defined):.4f} at widths {GAP_WIDTHS}, "
        f"all >= 0.05; leak flags correct on all {len(report.cells)} cells; "
        f"{elapsed:.0f}s of cell time (informational target: under 180s)",
    )


def test_acceptance_capacity_trend(leaky_desk):
    agg = leaky_desk.aggregates()["leaky"]
    medians = [agg[n]["f1"]["median"] for n in DEFAULT_N_VALUES]

    ok = not leaky_desk.failed_cells and all(m is not None for m in medians)
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b < a)
    span = medians[-1] - medians[0]
    ok = ok and inversions <= 1 and span >= 0.02
    _verdict(
        "capacity-trend",
        ok,
        f"median leaky f1 goes {medians[0]:.4f} -> {medians[-1]:.4f} across widths "
        f"{DEFAULT_N_VALUES} (span {span:.4f}, need >= 0.02) with {inversions} "
        f"inversion(s) (at most 1 allowed)",
    )


# ---------------------------------------------------------------------------
# real-data checks (need LEAKBENCH_DATA)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    not REAL_DATA,
    reason="diagnostic replication needs the real transactions csv via LEAKBENCH_DATA",
)
def test_acceptance_reference_replication():
    cfg = GridConfig(
        dataset=DatasetSpec(csv_path=REAL_DATA, expect_schema=True),
        seeds=(101, 202, 303),
        resampler=ResamplerSpec(method="smote"),
        split=SplitSpec(strategy="stratified", test_fraction=0.2),
        n_values=DEFAULT_N_VALUES,
        protocols=("leaky",),
        model=ModelParams(),
    )
    report = run_grid(cfg)
    if report.failed_cells:
        _verdict(
            "reference-replication",
            False,
            "; ".join(f"{c.key}: {c.error}" for c in report.failed_cells),
        )
    # widths ascending, then the reference row's metric order, so that max names
    # the first of equally bad pairs
    agg = report.aggregates()["leaky"]
    deviations, undefined = [], []
    for n in sorted(REFERENCE_RESULTS):
        for metric, expected in REFERENCE_RESULTS[n].items():
            observed = agg[n][metric]["median"]
            if observed is None:
                undefined.append(f"{metric} at width {n}")
            else:
                deviations.append((abs(observed - expected), metric, n))
    if undefined:
        _verdict("reference-replication", False, "no defined median for " + ", ".join(undefined))
    n_within = sum(dev <= 0.02 for dev, _, _ in deviations)
    worst, metric, n = max(deviations, key=lambda d: d[0])
    _verdict(
        "reference-replication",
        n_within >= 30,
        f"{n_within}/36 (width, metric) medians within 0.02 of the stored reference "
        f"(need >= 30); worst is {metric} at width {n}, off by {worst:.4f}",
    )


def test_acceptance_all_negative_baseline():
    ds = generate_synthetic(
        SynthConfig(
            n_samples=20000, positive_rate=0.005, n_features=30,
            class_separation=2.0, seed=7,
        )
    )
    acc = evaluate(ds.labels, np.zeros(ds.n_rows), 0.5).scalars.accuracy
    ok = acc == 1.0 - 0.005
    parts = [f"synthetic all-negative accuracy {acc} equals 1 - positive_rate exactly"]

    if REAL_DATA:
        real = load_csv(REAL_DATA, expect_schema=True)
        real_acc = evaluate(real.labels, np.zeros(real.n_rows), 0.5).scalars.accuracy
        ok = ok and abs(real_acc - 0.9983) <= 0.0001
        parts.append(f"real-data accuracy {real_acc:.5f} within 0.9983 +/- 0.0001")
    else:
        parts.append("real-data side skipped (LEAKBENCH_DATA unset)")
    _verdict("all-negative-baseline", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------


def _gradient_failures() -> tuple[int, list[str]]:
    h = 1e-5
    failures = []
    checked = 0
    for hidden in (0, 1, 4):
        for d in (2, 5):
            for seed in range(20):
                rng = np.random.default_rng(10000 * hidden + 100 * d + seed)
                x = rng.standard_normal((16, d))
                y = (rng.random(16) < 0.5).astype(np.float64)
                model = init_mlp(
                    MlpConfig(n_features=d, hidden_neurons=hidden, seed=seed)
                )
                _, grads = loss_and_grad(model, x, y)

                worst = 0.0
                arrays = {"w2": model.w2}
                if hidden:
                    arrays.update({"w1": model.w1, "b1": model.b1})
                for key, arr in arrays.items():
                    flat = arr.reshape(-1)
                    gflat = grads[key].reshape(-1)
                    for i in range(flat.size):
                        keep = flat[i]
                        flat[i] = keep + h
                        up, _ = loss_and_grad(model, x, y)
                        flat[i] = keep - h
                        down, _ = loss_and_grad(model, x, y)
                        flat[i] = keep
                        num = (up - down) / (2 * h)
                        rel = abs(num - gflat[i]) / max(abs(num), abs(gflat[i]), 1e-8)
                        worst = max(worst, rel)
                up_m = MlpModel(model.config, model.w1, model.b1, model.w2, model.b2 + h)
                down_m = MlpModel(model.config, model.w1, model.b1, model.w2, model.b2 - h)
                num = (loss_and_grad(up_m, x, y)[0] - loss_and_grad(down_m, x, y)[0]) / (2 * h)
                rel = abs(num - grads["b2"]) / max(abs(num), abs(grads["b2"]), 1e-8)
                worst = max(worst, rel)

                checked += 1
                if worst >= 1e-4:
                    failures.append(f"gradient rel err {worst:.2e} at hidden={hidden} d={d} seed={seed}")
    return checked, failures


def _auc_failures() -> tuple[int, list[str]]:
    failures = []
    checked = 0
    rng = np.random.default_rng(20240)
    while checked < 50:
        n = int(rng.integers(10, 201))
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.int64)
        if labels.sum() in (0, n):
            continue
        scores = rng.random(n)
        if checked % 2 == 0:
            scores = np.round(scores, 1)  # force score ties
        auc = evaluate(labels, scores, 0.5).scalars.roc_auc
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        pairwise = (wins + 0.5 * ties) / (len(pos) * len(neg))
        checked += 1
        if abs(auc - pairwise) > 1e-12:
            failures.append(f"auc {auc!r} vs pairwise {pairwise!r} on instance {checked}")
    return checked, failures


def _interpolation_failures() -> tuple[int, list[str]]:
    failures = []
    rng = np.random.default_rng(31337)
    for trial in range(50):
        n_min = int(rng.integers(7, 26))
        n_maj = n_min + int(rng.integers(5, 41))
        d = int(rng.integers(2, 7))
        x = np.vstack(
            [rng.standard_normal((n_maj, d)), rng.standard_normal((n_min, d)) + 2.0]
        )
        y = np.concatenate([np.zeros(n_maj, dtype=np.int64), np.ones(n_min, dtype=np.int64)])
        res = apply_resampler(_make_dataset(x, y), ResamplerSpec(method="smote", seed=trial))
        pa, pb, delta = res.provenance
        synth = res.dataset.features[res.dataset.origin.kind == SYNTHETIC]

        if not ((delta >= 0.0).all() and (delta <= 1.0).all()):
            failures.append(f"instance {trial}: delta outside [0, 1]")
        if (pa == pb).any():
            failures.append(f"instance {trial}: a row is its own pair parent")
        if not (y[pa] == 1).all() or not (y[pb] == 1).all():
            failures.append(f"instance {trial}: non-minority parent")
        segment = x[pa] + delta[:, None] * (x[pb] - x[pa])
        if np.abs(synth - segment).max() > 1e-9:
            failures.append(f"instance {trial}: child off the parent segment")
        lo = np.minimum(x[pa], x[pb]) - 1e-9
        hi = np.maximum(x[pa], x[pb]) + 1e-9
        if ((synth < lo) | (synth > hi)).any():
            failures.append(f"instance {trial}: child outside the parent box")
    return 50, failures


def _oracle_sq_dists(x: np.ndarray) -> np.ndarray:
    # d stays below numpy's pairwise-summation block size, so this sums
    # features in the same order as the production kernels
    return ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)


def _oracle_neighbors(d2: np.ndarray, i: int, k: int) -> list[int]:
    order = sorted((d2[i, j], j) for j in range(d2.shape[0]) if j != i)
    return [j for _, j in order[:k]]


def _neighbor_oracle_failures() -> tuple[int, list[str]]:
    from leakbench._kernels import knn
    from leakbench.resample import enn, nearmiss1, tomek_links

    failures = []
    rng = np.random.default_rng(8088)
    checked = 0
    while checked < 20:
        n = int(rng.integers(40, 301))
        d = int(rng.integers(1, 5))
        x = rng.standard_normal((n, d))
        if checked % 2 == 0:
            x = np.round(x * 2) / 2.0  # half-unit grid: exact ties everywhere
        y = (rng.random(n) < 0.3).astype(np.int64)
        if y.sum() < 4 or y.sum() > n - 5:
            continue
        checked += 1
        d2 = _oracle_sq_dists(x)

        got_idx, _ = knn(x, x, 3, self_idx=np.arange(n))
        want = np.array([_oracle_neighbors(d2, i, 3) for i in range(n)])
        if not np.array_equal(got_idx, want):
            failures.append(f"instance {checked}: knn disagrees with the oracle")

        ds = _make_dataset(x, y)
        spec = ResamplerSpec(method="tomek_links")
        nn1 = [_oracle_neighbors(d2, i, 1)[0] for i in range(n)]
        minority = 1 if y.sum() <= n - y.sum() else 0
        tomek_want = sorted(
            i
            for i in range(n)
            if nn1[nn1[i]] == i and y[i] != y[nn1[i]] and y[i] != minority
        )
        if tomek_links(ds, spec).removed_indices.tolist() != tomek_want:
            failures.append(f"instance {checked}: tomek removals disagree")

        enn_want = []
        for i in range(n):
            votes = sum(y[j] for j in _oracle_neighbors(d2, i, 3))
            if (1 if votes >= 2 else 0) != y[i]:
                enn_want.append(i)
        if enn(ds, ResamplerSpec(method="enn")).removed_indices.tolist() != enn_want:
            failures.append(f"instance {checked}: enn removals disagree")

        min_rows = np.nonzero(y == minority)[0]
        maj_rows = np.nonzero(y != minority)[0]
        k = min(3, len(min_rows))
        means = []
        for i in maj_rows:
            near = sorted((d2[i, j], j) for j in min_rows)[:k]
            means.append(np.sqrt(np.array([dd for dd, _ in near])).mean())
        order = np.argsort(np.array(means), kind="stable")
        keep = set(maj_rows[order[: len(min_rows)]].tolist())
        nm_want = sorted(set(maj_rows.tolist()) - keep)
        got_nm = nearmiss1(ds, ResamplerSpec(method="nearmiss1", k_neighbors=k))
        if got_nm.removed_indices.tolist() != nm_want:
            failures.append(f"instance {checked}: nearmiss removals disagree")
    return checked, failures


def _split_failures() -> tuple[int, list[str]]:
    failures = []
    rng = np.random.default_rng(5150)
    strategies = ("random", "stratified", "temporal")
    for trial in range(100):
        n = int(rng.integers(10, 401))
        y = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(np.int64)
        if y.sum() == 0:
            y[0] = 1
        if y.sum() == n:
            y[0] = 0
        t = np.sort(rng.uniform(0, 1000, n))
        if trial % 5 == 0:
            t = np.round(t, -1)  # duplicate timestamps to hit boundary ties
        ds = Dataset(
            features=rng.standard_normal((n, 2)),
            labels=y,
            feature_names=("V1", "V2"),
            time=t,
        )
        spec = SplitSpec(
            strategy=strategies[trial % 3],
            test_fraction=float(rng.uniform(0.1, 0.5)),
            seed=trial,
        )
        try:
            train, test = split(ds, spec)
        except ValueError as exc:
            if "empty" in str(exc) or "boundary timestamp" in str(exc):
                continue  # the documented degenerate refusals
            failures.append(f"instance {trial}: unexpected error {exc}")
            continue

        merged = np.concatenate([train, test])
        if len(train) == 0 or len(test) == 0:
            failures.append(f"instance {trial}: an empty side")
        if not np.array_equal(np.sort(merged), np.arange(n)):
            failures.append(f"instance {trial}: not a partition")
        if not (np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)):
            failures.append(f"instance {trial}: indices not sorted")
        again = split(ds, spec)
        if not (np.array_equal(again[0], train) and np.array_equal(again[1], test)):
            failures.append(f"instance {trial}: split not deterministic")
        if spec.strategy == "temporal":
            if t[train].max() > t[test].min():
                failures.append(f"instance {trial}: test starts before train ends")
            if np.isin(t[test], t[train]).any():
                failures.append(f"instance {trial}: a timestamp sits on both sides")
    return 100, failures


def test_acceptance_property_suites():
    suites = {
        "gradient": _gradient_failures(),
        "auc-pairwise": _auc_failures(),
        "interpolation": _interpolation_failures(),
        "neighbor-oracles": _neighbor_oracle_failures(),
        "split-invariants": _split_failures(),
    }
    failures = [msg for _, fails in suites.values() for msg in fails]
    counts = ", ".join(
        f"{name} {checked - len(fails)}/{checked}"
        for name, (checked, fails) in suites.items()
    )
    detail = counts if not failures else counts + "; " + "; ".join(failures[:5])
    _verdict("property-suites", not failures, detail)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def _normalized_report(path) -> str:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["total_wall_time_s"] = 0.0
    for cell in payload["cells"]:
        cell["wall_time_s"] = 0.0
    return json.dumps(payload, indent=2, sort_keys=True)


def test_acceptance_report_determinism(tmp_path):
    cfg = GridConfig(
        dataset=DatasetSpec(
            synthetic=SynthConfig(n_samples=2000, positive_rate=0.01, n_features=6, seed=3)
        ),
        seeds=(11, 22),
        resampler=ResamplerSpec(method="smote"),
        split=SplitSpec(strategy="stratified", test_fraction=0.2),
        n_values=(0, 4),
        protocols=("leaky", "clean"),
        model=ModelParams(epochs=5),
    )
    emit_report(run_grid(cfg), str(tmp_path / "a"), ("json",))
    emit_report(run_grid(cfg), str(tmp_path / "b"), ("json",))
    a = _normalized_report(tmp_path / "a" / "report.json")
    b = _normalized_report(tmp_path / "b" / "report.json")
    _verdict(
        "report-determinism",
        a == b,
        f"two runs of a 16-cell grid agree byte for byte across {len(a)} bytes of "
        "report.json (wall-clock fields zeroed)",
    )
