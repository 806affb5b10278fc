"""Smoke test of the benchmark on a tiny grid.

Run from the root of the repository: python3 -m pytest perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402

# Big enough (a few hundred ms a cell) for the 5% stage-coverage check to be meaningful.
TINY = {
    "dataset": {"synthetic": {"n_samples": 4000, "positive_rate": 0.02, "seed": 3}},
    "n_values": [0],
    "protocols": ["leaky", "clean"],
    "resampler": {"method": "smote"},
    "split": {"strategy": "stratified", "test_fraction": 0.2},
    "seeds": [3],
    "model": {"epochs": 5},
}


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _measure(tmp_path: Path, trace: bool, expected: str | None = None) -> dict:
    return run.measure(
        TINY,
        seconds=0,
        trace=trace,
        expected=expected,
        workdir=tmp_path,
        spans_path=tmp_path / "spans.jsonl",
        deadline=run._now() + run.TIME_LIMIT_S,
    )


def _printed_units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_end_to_end_metrics_are_printed_with_units(tmp_path):
    outcome = _measure(tmp_path, trace=False)
    result = outcome["result"]
    assert result["correct"], outcome["problems"]
    assert result["attempted"] == 2 and result["failed"] == 0
    assert _printed_units(result) == _declared("end_to_end")
    assert result["metrics"]["cell_ok_ratio"]["value"] == 1.0


def test_per_layer_metrics_are_printed_with_units(tmp_path):
    outcome = _measure(tmp_path, trace=True)
    result = outcome["result"]
    assert result["correct"], outcome["problems"]
    assert _printed_units(result) == _declared("per_layer")
    assert result["metrics"]["pipeline.scaler_fit_full_dataset"]["value"] == 1
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {s["cell"] for s in spans if s["name"] == "pipeline.audit"} == {"N0_leaky_s0", "N0_clean_s0"}


def test_corrupted_digest_fails_every_cell(tmp_path):
    outcome = _measure(tmp_path, trace=False, expected="0" * 64)
    result = outcome["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert result["metrics"]["cell_ok_ratio"]["value"] == 0.0


def test_report_s_is_scaled_to_the_reference_speed(tmp_path):
    outcome = _measure(tmp_path, trace=False)
    meta = outcome["meta"]
    (grid_s,), (loop_s,) = meta["grid_report_s"], meta["grid_probe_loop_s"]
    assert loop_s > 0
    scaled = grid_s * probe.REFERENCE_S / loop_s
    assert outcome["result"]["metrics"]["report_s"]["value"] == scaled
