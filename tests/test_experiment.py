"""Grid runner, aggregation, reference comparison, and report emission."""

import copy
import json
import random

import numpy as np
import pytest

from leakbench.data import SynthConfig, save_csv, generate_synthetic
from leakbench.experiment import (
    CONFUSION_NAMES,
    COUNTER_NAMES,
    DEFAULT_N_VALUES,
    METRIC_NAMES,
    QUADRATIC_ROW_LIMIT,
    REFERENCE_METRICS,
    REFERENCE_RESULTS,
    CellResult,
    DatasetSpec,
    GridConfig,
    ModelParams,
    cell_key,
    check_quadratic_gate,
    compare_to_reference,
    emit_from_dict,
    emit_report,
    load_grid_dataset,
    render_cells_csv,
    render_markdown,
    run_cell,
    run_grid,
    write_cell_curves,
)
from leakbench.pipeline import SplitSpec
from leakbench.resample import ResamplerSpec
from leakbench.seeding import derive_seed


def tiny_grid(**overrides) -> GridConfig:
    base = dict(
        dataset=DatasetSpec(
            synthetic=SynthConfig(
                n_samples=160, positive_rate=0.1, n_features=4,
                class_separation=2.0, seed=5,
            )
        ),
        seeds=(7, 8),
        resampler=ResamplerSpec(method="smote", k_neighbors=3),
        split=SplitSpec(strategy="stratified", test_fraction=0.25),
        n_values=(0, 2),
        model=ModelParams(epochs=2, batch_size=32),
    )
    base.update(overrides)
    return GridConfig(**base)


def strip_wall_times(report_dict: dict) -> dict:
    out = copy.deepcopy(report_dict)
    out["total_wall_time_s"] = 0.0
    for cell in out["cells"]:
        cell["wall_time_s"] = 0.0
    return out


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_dataset_spec_needs_exactly_one_source():
    with pytest.raises(ValueError, match="exactly one"):
        DatasetSpec()
    with pytest.raises(ValueError, match="exactly one"):
        DatasetSpec(synthetic=SynthConfig(n_samples=100, positive_rate=0.1), csv_path="x.csv")
    with pytest.raises(ValueError, match="feature_degree must be 1"):
        DatasetSpec(csv_path="x.csv", feature_degree=2)


def test_grid_config_validation():
    with pytest.raises(ValueError, match="seeds must not be empty"):
        tiny_grid(seeds=())
    with pytest.raises(ValueError, match="n_values must not be empty"):
        tiny_grid(n_values=())
    with pytest.raises(ValueError, match="non-negative"):
        tiny_grid(n_values=(0, -1))
    with pytest.raises(ValueError, match="n_values must not repeat"):
        tiny_grid(n_values=(2, 0, 2))
    with pytest.raises(ValueError, match="protocols must not be empty"):
        tiny_grid(protocols=())
    with pytest.raises(ValueError, match="unknown protocol 'oops'"):
        tiny_grid(protocols=("leaky", "oops"))
    with pytest.raises(ValueError, match="protocols must not repeat"):
        tiny_grid(protocols=("leaky", "clean", "leaky"))
    # a repeated seed is a separate cell: seed_index gives it its own streams
    assert tiny_grid(seeds=(7, 7)).seeds == (7, 7)
    with pytest.raises(ValueError, match="unknown output formats: pdf"):
        tiny_grid(formats=("json", "pdf"))


def test_reference_table_shape():
    assert tuple(sorted(REFERENCE_RESULTS)) == DEFAULT_N_VALUES
    for row in REFERENCE_RESULTS.values():
        assert tuple(sorted(row)) == tuple(sorted(REFERENCE_METRICS))
        assert all(0.9 < v < 1.0 for v in row.values())


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------


def test_cell_key_format():
    assert cell_key(4, "leaky", 2) == "N4_leaky_s2"
    assert cell_key(0, "clean", 0) == "N0_clean_s0"


def test_derive_seed_takes_only_ints_and_strings():
    assert derive_seed(7, "split", 2) == derive_seed(7, "split", 2)
    for bad in (1.5, True, None):
        with pytest.raises(TypeError, match="seed parts must be int or str"):
            derive_seed(7, bad)


def test_grid_runs_every_cell_in_order():
    cfg = tiny_grid()
    report = run_grid(cfg)
    assert len(report.cells) == 2 * 2 * 2  # widths x protocols x seeds
    expected_keys = [
        cell_key(n, p, si)
        for n in cfg.n_values
        for p in cfg.protocols
        for si in range(len(cfg.seeds))
    ]
    assert [c.key for c in report.cells] == expected_keys
    assert report.failed_cells == []
    for cell in report.cells:
        assert cell.metrics is not None
        assert cell.contamination is not None
        assert len(cell.history) == cfg.model.epochs
        assert cell.seed == cfg.seeds[cell.seed_index]


def test_leaky_cells_flagged_clean_cells_not():
    report = run_grid(tiny_grid())
    for cell in report.cells:
        assert cell.contamination.leak_flag == (cell.protocol == "leaky"), cell.key


def test_grid_is_deterministic():
    cfg = tiny_grid()
    a = strip_wall_times(run_grid(cfg).to_dict())
    b = strip_wall_times(run_grid(cfg).to_dict())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seeds_actually_vary_the_outcome():
    report = run_grid(tiny_grid())
    by_seed = {}
    for cell in report.cells:
        if cell.key.startswith("N2_leaky"):
            by_seed[cell.seed_index] = cell.history
    assert by_seed[0] != by_seed[1]


def test_run_cell_matches_grid_cell():
    # each cell alone, in a shuffled order, gives the grid's cell: a cell's
    # result depends on its coordinates only, never on the cells run before it
    for method in ("smote", "smote_enn", "random_under", "adasyn"):
        cfg = tiny_grid(resampler=ResamplerSpec(method=method, k_neighbors=3))
        ds = load_grid_dataset(cfg.dataset)
        grid_cells = {c.key: c for c in run_grid(cfg).cells}
        coords = [
            (n, protocol, s)
            for n in cfg.n_values
            for protocol in cfg.protocols
            for s in range(len(cfg.seeds))
        ]
        random.Random(method).shuffle(coords)
        for coord in coords:
            solo = run_cell(ds, cfg, *coord).to_dict()
            twin = grid_cells[cell_key(*coord)].to_dict()
            solo["wall_time_s"] = twin["wall_time_s"] = 0.0
            assert solo == twin, (method, coord)
        assert len(coords) == len(grid_cells)


def test_failed_cells_are_captured_not_raised():
    # 6 positives total: the leaky protocol resamples the full dataset and
    # clears smote's floor, but the clean protocol's train side keeps only 4.
    cfg = tiny_grid(
        dataset=DatasetSpec(
            synthetic=SynthConfig(n_samples=120, positive_rate=0.05, n_features=3, seed=2)
        ),
        resampler=ResamplerSpec(method="smote", k_neighbors=5),
    )
    report = run_grid(cfg)
    failed = report.failed_cells
    assert {c.protocol for c in failed} == {"clean"}
    assert len(failed) == len(report.cells) // 2
    for cell in failed:
        assert cell.error == "ValueError: smote requires minority count > k_neighbors (4 <= 5)"
        assert cell.metrics is None
    for cell in report.cells:
        if cell.protocol == "leaky":
            assert cell.error is None
    payload = report.to_dict()
    assert payload["n_failed_cells"] == len(failed)
    assert payload["aggregates"]["clean"]["0"]["f1"] == {"median": None, "min": None, "max": None}
    assert payload["aggregates"]["leaky"]["0"]["accuracy"]["median"] is not None
    assert payload["leakage_gap"]["0"]["gap"] is None


def test_quadratic_gate():
    gated = tiny_grid(resampler=ResamplerSpec(method="tomek_links"))
    with pytest.raises(ValueError, match="pass --allow-quadratic to run it anyway"):
        check_quadratic_gate(gated, QUADRATIC_ROW_LIMIT + 1)
    check_quadratic_gate(gated, QUADRATIC_ROW_LIMIT)  # at the limit is fine
    waved = tiny_grid(resampler=ResamplerSpec(method="tomek_links"), allow_quadratic=True)
    check_quadratic_gate(waved, QUADRATIC_ROW_LIMIT + 1)
    linear = tiny_grid()  # smote is not gated
    check_quadratic_gate(linear, QUADRATIC_ROW_LIMIT + 1)


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------


def test_load_grid_dataset_csv_with_column_subset(tmp_path):
    src = generate_synthetic(SynthConfig(n_samples=50, positive_rate=0.1, n_features=4, seed=1))
    path = tmp_path / "rows.csv"
    save_csv(src, path)
    ds = load_grid_dataset(DatasetSpec(csv_path=str(path), columns=("V1", "V3")))
    assert ds.feature_names == ("V1", "V3")
    assert ds.n_rows == 50


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_median_against_sorting():
    # accuracy is defined for every cell (unlike f1, whose precision side can
    # collapse to n/a), so the three-seed oracle is a plain middle element
    cfg = tiny_grid(seeds=(3, 4, 5))
    report = run_grid(cfg)
    accs = sorted(
        c.metrics.scalars.accuracy
        for c in report.cells
        if c.protocol == "leaky" and c.n_hidden == 2
    )
    assert len(accs) == 3
    agg = report.aggregates()["leaky"][2]["accuracy"]
    assert agg["median"] == accs[1]
    assert agg["min"] == accs[0]
    assert agg["max"] == accs[2]


def test_leakage_gap_is_leaky_minus_clean():
    report = run_grid(tiny_grid())
    agg = report.aggregates()
    gap = report.leakage_gap()
    for n in (0, 2):
        expected = agg["leaky"][n]["f1"]["median"] - agg["clean"][n]["f1"]["median"]
        assert gap[n]["gap"] == pytest.approx(expected)


def test_leakage_gap_empty_without_both_protocols():
    report = run_grid(tiny_grid(protocols=("leaky",)))
    assert report.leakage_gap() == {}


def test_report_dict_uses_string_keys():
    payload = run_grid(tiny_grid()).to_dict()
    assert payload["schema_version"] == "1"
    assert set(payload["aggregates"]["leaky"]) == {"0", "2"}
    assert set(payload["leakage_gap"]) == {"0", "2"}
    assert set(payload["reference"]) == {str(n) for n in DEFAULT_N_VALUES}
    json.dumps(payload)  # everything must be json-serializable
    cell = payload["cells"][0]
    assert tuple(cell["confusion"]) == CONFUSION_NAMES
    assert tuple(cell["metrics"]) == METRIC_NAMES
    assert tuple(cell["contamination"]) == COUNTER_NAMES
    assert tuple(payload["aggregates"]["leaky"]["0"]) == METRIC_NAMES


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------


def test_compare_to_reference_zero_deviation_against_self():
    report = run_grid(tiny_grid())
    agg = report.aggregates()["leaky"]
    self_ref = {
        n: {m: agg[n][m]["median"] for m in REFERENCE_METRICS} for n in (0, 2)
    }
    devs = compare_to_reference(report, self_ref)
    assert len(devs) == 2 * len(REFERENCE_METRICS)
    assert all(d.deviation == 0.0 and d.within_tolerance for d in devs)
    assert [d.n_hidden for d in devs] == [0, 0, 0, 0, 2, 2, 2, 2]


def test_compare_to_reference_missing_widths():
    report = run_grid(tiny_grid())
    with pytest.raises(
        ValueError, match="missing leaky cells for widths: 1, 4, 6, 8, 10, 12, 16"
    ):
        compare_to_reference(report)


def test_compare_to_reference_needs_leaky_cells():
    report = run_grid(tiny_grid(protocols=("clean",)))
    with pytest.raises(ValueError, match="needs leaky-protocol cells"):
        compare_to_reference(report, {0: dict.fromkeys(REFERENCE_METRICS, 0.9)})
    # 6 positives cannot clear k_neighbors=10, so every cell fails and no median exists
    failing = tiny_grid(
        dataset=DatasetSpec(
            synthetic=SynthConfig(n_samples=120, positive_rate=0.05, n_features=3, seed=2)
        ),
        resampler=ResamplerSpec(method="smote", k_neighbors=10),
    )
    report = run_grid(failing)
    assert len(report.failed_cells) == len(report.cells)
    with pytest.raises(ValueError, match="no defined accuracy median for width 0"):
        compare_to_reference(report, {0: dict.fromkeys(REFERENCE_METRICS, 0.9)})


def test_compare_to_reference_flags_large_deviation():
    report = run_grid(tiny_grid())
    agg = report.aggregates()["leaky"]
    skewed = {0: {m: agg[0][m]["median"] + 0.5 for m in REFERENCE_METRICS}}
    devs = compare_to_reference(report, skewed)
    assert all(not d.within_tolerance for d in devs)
    assert all(d.deviation == pytest.approx(0.5) for d in devs)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_emit_report_writes_requested_formats(tmp_path):
    report = run_grid(tiny_grid())
    paths = emit_report(report, str(tmp_path), ("json", "csv", "markdown"))
    assert [p.name for p in paths] == ["report.json", "cells.csv", "summary.md"]
    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert payload["n_failed_cells"] == 0


def test_cells_csv_layout():
    report = run_grid(tiny_grid())
    text = render_cells_csv(report.to_dict())
    lines = text.strip().split("\n")
    assert lines[0] == (
        "key,n_hidden,protocol,seed_index,seed,test_fraction,"
        "tp,fp,tn,fn,accuracy,precision,recall,specificity,f1,roc_auc,average_precision,"
        "n_test_rows,n_synthetic_in_test,n_synthetic_parent_in_train,"
        "n_cross_split_duplicates,leak_flag,wall_time_s,error"
    )
    header = lines[0].split(",")
    assert header[:6] == ["key", "n_hidden", "protocol", "seed_index", "seed", "test_fraction"]
    assert header[-1] == "error"
    assert len(lines) == 1 + len(report.cells)
    first = lines[1].split(",")
    assert len(first) == len(header)
    assert first[0] == "N0_leaky_s0"
    assert first[5] == "0.2500"


def test_cells_csv_escapes_commas_in_errors():
    cell = CellResult(
        key="N0_leaky_s0", n_hidden=0, protocol="leaky", seed_index=0, seed=1,
        error="ValueError: a, b, and c",
    )
    cfg = tiny_grid()
    payload = {"config": cfg.to_dict(), "cells": [cell.to_dict()]}
    text = render_cells_csv(payload)
    row = text.strip().split("\n")[1]
    assert row.endswith("ValueError: a; b; and c")
    assert row.count(",") == text.strip().split("\n")[0].count(",")


def test_markdown_summary_content():
    report = run_grid(tiny_grid())
    md = render_markdown(report.to_dict())
    assert md.startswith("# Resampling leakage report")
    assert "- dataset: synthetic" in md
    assert "## Median metrics by hidden width (leaky protocol)" in md
    assert "## Median metrics by hidden width (clean protocol)" in md
    lines = md.split("\n")
    table = lines.index("## Median metrics by hidden width (leaky protocol)") + 2
    assert lines[table] == (
        "| hidden | accuracy | precision | recall | specificity | f1 | roc_auc | avg_precision |"
    )
    assert lines[table + 1] == "|---|---|---|---|---|---|---|---|"
    assert "## Leakage gap (median f1, leaky - clean)" in md
    # the reference table needs every reference width, which this grid lacks
    assert "Reference comparison" not in md
    assert "step-sum definition" in md


def test_markdown_includes_reference_table_when_widths_cover_it():
    report = run_grid(tiny_grid())
    payload = report.to_dict()
    # pretend the grid covered the full reference width list
    payload["config"]["n_values"] = [0, 2]
    payload["reference"] = {
        "0": REFERENCE_RESULTS[0],
        "2": REFERENCE_RESULTS[2],
    }
    md = render_markdown(payload)
    assert "## Reference comparison (leaky medians vs published reference)" in md
    assert "| 0 |" in md and "| 2 |" in md


def test_markdown_names_csv_source(tmp_path):
    src = generate_synthetic(SynthConfig(n_samples=60, positive_rate=0.1, n_features=3, seed=9))
    path = tmp_path / "src.csv"
    save_csv(src, path)
    cfg = tiny_grid(dataset=DatasetSpec(csv_path=str(path)))
    md = render_markdown(run_grid(cfg).to_dict())
    assert f"- dataset: {path}" in md


def test_write_cell_curves(tmp_path):
    report = run_grid(tiny_grid())
    good = report.cells[0]
    written = write_cell_curves(good, tmp_path / "curves")
    names = sorted(p.name for p in written)
    assert names == [
        f"{good.key}_prc.csv",
        f"{good.key}_prc.svg",
        f"{good.key}_roc.csv",
        f"{good.key}_roc.svg",
    ]
    roc_csv = (tmp_path / "curves" / f"{good.key}_roc.csv").read_text(encoding="utf-8")
    assert roc_csv.splitlines()[0] == "fpr,tpr"
    first_point = roc_csv.splitlines()[1].split(",")
    assert float(first_point[0]) == 0.0 and float(first_point[1]) == 0.0
    svg = (tmp_path / "curves" / f"{good.key}_roc.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg ") and "polyline" in svg

    failed = CellResult(
        key="N0_leaky_s9", n_hidden=0, protocol="leaky", seed_index=9, seed=0,
        error="ValueError: nope",
    )
    assert write_cell_curves(failed, tmp_path / "curves") == []


def test_emit_svg_format_writes_curves_per_cell(tmp_path):
    report = run_grid(tiny_grid())
    paths = emit_report(report, str(tmp_path), ("svg",))
    assert len(paths) == 4 * len(report.cells)
    assert all(p.parent == tmp_path / "curves" for p in paths)


def test_emit_from_dict_reproduces_tables(tmp_path):
    report = run_grid(tiny_grid())
    first = tmp_path / "first"
    emit_report(report, str(first), ("json", "csv", "markdown"))
    payload = json.loads((first / "report.json").read_text(encoding="utf-8"))
    second = tmp_path / "second"
    emit_from_dict(payload, str(second), ("json", "csv", "markdown"))
    for name in ("report.json", "cells.csv", "summary.md"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_emit_from_dict_rejects_svg(tmp_path):
    with pytest.raises(ValueError, match="svg re-emission needs a rerun"):
        emit_from_dict({}, str(tmp_path), ("svg",))


def test_report_json_is_byte_stable(tmp_path):
    cfg = tiny_grid()
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    emit_report(run_grid(cfg), str(a_dir), ("json",))
    emit_report(run_grid(cfg), str(b_dir), ("json",))
    a = json.loads((a_dir / "report.json").read_text(encoding="utf-8"))
    b = json.loads((b_dir / "report.json").read_text(encoding="utf-8"))
    a_clean = json.dumps(strip_wall_times(a), sort_keys=True, indent=2)
    b_clean = json.dumps(strip_wall_times(b), sort_keys=True, indent=2)
    assert a_clean == b_clean


def test_notes_survive_serialization():
    cell = CellResult(
        key="N1_leaky_s0", n_hidden=1, protocol="leaky", seed_index=0, seed=3,
        notes=("adasyn: allocation rounded to zero rows; nothing generated",),
    )
    out = cell.to_dict()
    assert out["notes"] == ["adasyn: allocation rounded to zero rows; nothing generated"]
    assert out["metrics"] is None and out["confusion"] is None


def test_degenerate_metrics_render_as_na():
    # a test split that the width-0 model scores all-negative yields n/a precision
    payload = run_grid(
        tiny_grid(
            dataset=DatasetSpec(
                synthetic=SynthConfig(
                    n_samples=200, positive_rate=0.05, n_features=2,
                    class_separation=0.1, seed=11,
                )
            ),
            resampler=ResamplerSpec(method=None),
            n_values=(0,),
            seeds=(1,),
            model=ModelParams(epochs=1, batch_size=64, learning_rate=1e-6),
        )
    ).to_dict()
    csv_text = render_cells_csv(payload)
    md = render_markdown(payload)
    assert "n/a" in csv_text
    assert "n/a" in md
