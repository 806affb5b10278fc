"""Config document parsing and the command-line entry point.

CLI behavior is exercised in-process through main(argv) so the tests can
inspect exit codes and captured output without subprocess overhead; one
smoke test runs the installed console script for real.
"""

import json
import os
import random
import re
import subprocess
import sys

import pytest

from leakbench.cli import main
from leakbench.config import ConfigError, build_grid_config, load_config_file
from leakbench.data import SynthConfig, generate_synthetic, save_csv
from leakbench.experiment import COUNTER_NAMES, REFERENCE_RESULTS, GridConfig, format_value, run_grid
from leakbench.pipeline import SCALER_METHODS, SPLIT_STRATEGIES
from leakbench.resample import METHODS


def base_doc(out_dir: str, **overrides) -> dict:
    doc = {
        "dataset": {
            "synthetic": {
                "n_samples": 160,
                "positive_rate": 0.1,
                "n_features": 4,
                "seed": 5,
            }
        },
        "n_values": [0, 2],
        "protocols": ["leaky", "clean"],
        "resampler": {"method": "smote", "k_neighbors": 3},
        "split": {"strategy": "stratified", "test_fraction": 0.25},
        "seeds": [7, 8],
        "model": {"epochs": 2, "batch_size": 32},
        "output_dir": out_dir,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, **overrides) -> str:
    doc = base_doc(str(tmp_path / "out"), **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config_file(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config_file(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="must hold a JSON object"):
        load_config_file(str(arr))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff{}")
    with pytest.raises(ConfigError, match=r"config file .*latin\.json is not UTF-8 text: 'utf-8'"):
        load_config_file(str(latin))


def test_load_config_file_is_utf8_and_skips_a_bom(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"output_dir": "donn\u00e9es"}).encode())
    assert load_config_file(str(path)) == {"output_dir": "donn\u00e9es"}
    path.write_bytes('{"output_dir": "donn\u00e9es"}'.encode("utf-8"))
    assert load_config_file(str(path)) == {"output_dir": "donn\u00e9es"}


def test_build_grid_config_defaults(tmp_path):
    doc = base_doc(str(tmp_path))
    del doc["model"]
    del doc["output_dir"]
    cfg = build_grid_config(doc)
    assert cfg.scaler == "standardize"
    assert cfg.formats == ("json", "csv", "markdown")
    assert cfg.output_dir == "leakbench_out"
    assert cfg.model.epochs == 20
    assert cfg.allow_quadratic is False
    assert cfg.dataset.synthetic.n_features == 4
    assert cfg.dataset.feature_degree == 1


def test_build_grid_config_rejects_unknown_and_missing_keys(tmp_path):
    doc = base_doc(str(tmp_path), mystery=1)
    with pytest.raises(ConfigError, match="unknown key\\(s\\) in config: mystery"):
        build_grid_config(doc)
    doc = base_doc(str(tmp_path))
    del doc["n_values"]
    del doc["seeds"]
    with pytest.raises(ConfigError, match="missing required key\\(s\\): n_values, seeds"):
        build_grid_config(doc)


def test_build_grid_config_nested_errors_name_their_block(tmp_path):
    doc = base_doc(str(tmp_path))
    doc["resampler"] = {"method": "smite"}
    with pytest.raises(ConfigError, match="resampler: unknown resampling method 'smite'"):
        build_grid_config(doc)
    doc = base_doc(str(tmp_path))
    doc["split"] = {"strategy": "stratified", "test_fraction": 1.5}
    with pytest.raises(ConfigError, match="split: test_fraction must be in"):
        build_grid_config(doc)
    doc = base_doc(str(tmp_path))
    doc["dataset"] = {"synthetic": {"n_samples": 100, "positive_rate": 0.9}}
    with pytest.raises(ConfigError, match="dataset.synthetic: "):
        build_grid_config(doc)
    doc = base_doc(str(tmp_path))
    doc["protocols"] = ["leaky", "dirty"]
    with pytest.raises(ConfigError, match="unknown protocol 'dirty'"):
        build_grid_config(doc)
    for key, value, message in (
        ("split", 5, "split must be an object"),
        ("model", [], "model must be an object"),
        ("dataset", 3, "dataset must be an object"),
        ("dataset", {"synthetic": 3}, "dataset.synthetic must be an object"),
    ):
        doc = base_doc(str(tmp_path))
        doc[key] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_grid_config(doc)


def test_build_grid_config_list_validation(tmp_path):
    doc = base_doc(str(tmp_path))
    doc["n_values"] = [0, "two"]
    with pytest.raises(ConfigError, match="n_values must be a non-empty list of integers"):
        build_grid_config(doc)
    doc = base_doc(str(tmp_path))
    doc["seeds"] = []
    with pytest.raises(ConfigError, match="seeds must be a non-empty list of integers"):
        build_grid_config(doc)


def test_build_grid_config_dataset_source_rules(tmp_path):
    doc = base_doc(str(tmp_path))
    doc["dataset"]["csv"] = {"path": "x.csv"}
    with pytest.raises(ConfigError, match="exactly one of 'synthetic' or 'csv'"):
        build_grid_config(doc)
    doc = base_doc(str(tmp_path))
    doc["dataset"] = {}
    with pytest.raises(ConfigError, match="exactly one of 'synthetic' or 'csv'"):
        build_grid_config(doc)


def test_csv_path_falls_back_to_environment(tmp_path, monkeypatch):
    doc = base_doc(str(tmp_path))
    doc["dataset"] = {"csv": {}}
    monkeypatch.delenv("LEAKBENCH_DATA", raising=False)
    with pytest.raises(ConfigError, match="LEAKBENCH_DATA environment variable is not set"):
        build_grid_config(doc)
    monkeypatch.setenv("LEAKBENCH_DATA", "/data/rows.csv")
    cfg = build_grid_config(doc)
    assert cfg.dataset.csv_path == "/data/rows.csv"
    # an explicit path wins over the environment
    doc["dataset"] = {"csv": {"path": "elsewhere.csv"}}
    assert build_grid_config(doc).dataset.csv_path == "elsewhere.csv"


def test_build_grid_config_overrides(tmp_path):
    doc = base_doc(str(tmp_path))
    cfg = build_grid_config(
        doc,
        seeds=(99,),
        output_dir="/tmp/elsewhere",
        formats=("json",),
        allow_quadratic=True,
    )
    assert cfg.seeds == (99,)
    assert cfg.output_dir == "/tmp/elsewhere"
    assert cfg.formats == ("json",)
    assert cfg.allow_quadratic is True


# (path into the document, bad value, start of the ConfigError message)
BAD_VALUES = [
    (("model", "epochs"), "20", "model.epochs must be an integer"),
    (("resampler", "k_neighbors"), "5", "resampler.k_neighbors must be an integer"),
    (("dataset", "synthetic", "n_features"), "30", "dataset.synthetic.n_features must be an integer"),
    (("dataset", "synthetic", "seed"), "x", "dataset.synthetic.seed must be an integer"),
    (("dataset", "synthetic", "seed"), -1, "dataset.synthetic: seed must be non-negative"),
    (("model", "epochs"), 0, "model: epochs must be at least 1"),
    (("scaler",), "bogus", "unknown scaler 'bogus'"),
    (("model", "threshold"), 2.0, "model: threshold must be in (0, 1)"),
    (("model", "batch_size"), 2.5, "model.batch_size must be an integer"),
    (("resampler", "m_neighbors"), 10.0, "resampler.m_neighbors must be an integer"),
    (("dataset", "synthetic", "fraud_burst"), 3, "dataset.synthetic.fraud_burst must be a boolean"),
    (("dataset", "columns"), [], "dataset: columns must not be empty"),
    (("dataset", "columns"), ["V1", "V1"], "dataset: columns must not repeat"),
    (("dataset", "feature_degree"), 2, "dataset: feature_degree must be 1"),
    (("n_values",), [2, 2], "n_values must not repeat"),
    (("protocols",), ["leaky", "clean", "leaky"], "protocols must not repeat"),
    # json.load parses NaN and Infinity; an untrained model or failed cells would follow
    (("model", "epsilon"), float("inf"), "model.epsilon must be a number"),
    (("model", "learning_rate"), float("nan"), "model.learning_rate must be a number"),
    (
        ("dataset", "synthetic", "class_separation"),
        float("nan"),
        "dataset.synthetic.class_separation must be a number",
    ),
]


@pytest.mark.parametrize(
    "path, value, message", BAD_VALUES, ids=[f"{'.'.join(p)}={v!r}" for p, v, _ in BAD_VALUES]
)
def test_bad_values_are_config_errors_in_every_subcommand(tmp_path, capsys, path, value, message):
    doc = base_doc(str(tmp_path / "out"))
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_grid_config(doc)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("run", "audit", "curves"):
        assert main([command, "--config", str(cfg)]) == 2
        assert f"error: {message}" in capsys.readouterr().err


def test_integer_past_the_float_range_is_a_config_error():
    # json.load keeps an integer literal of any size; float() of it would overflow
    doc = base_doc("out")
    doc["model"]["learning_rate"] = 10**400
    with pytest.raises(ConfigError, match=re.escape("model.learning_rate must be a number")):
        build_grid_config(doc)
    doc["model"]["learning_rate"] = 10**300  # inside the range: stored as a float
    assert build_grid_config(doc).model.learning_rate == 1e300


def random_doc(rng: random.Random) -> dict:
    """A valid config document; each optional key is present or absent at random."""

    def maybe(block: dict, key: str, value) -> None:
        if rng.random() < 0.5:
            block[key] = value

    if rng.random() < 0.5:
        n = rng.randint(20, 5000)
        synth = {"n_samples": n, "positive_rate": rng.uniform(3 / n, 0.5)}
        maybe(synth, "n_features", rng.randint(1, 40))
        maybe(synth, "class_separation", rng.choice([2, rng.uniform(0.1, 5.0)]))
        maybe(synth, "seed", rng.randint(0, 2**31))
        maybe(synth, "fraud_burst", rng.random() < 0.5)
        dataset = {"synthetic": synth}
    else:
        csv = {"path": f"data/rows{rng.randint(0, 99)}.csv"}
        maybe(csv, "expect_schema", rng.random() < 0.5)
        dataset = {"csv": csv}
    maybe(dataset, "columns", rng.sample(["Time", "V1", "V2", "Amount"], rng.randint(1, 4)))
    maybe(dataset, "feature_degree", 1)
    resampler = {"method": None if rng.random() < 0.25 else rng.choice(sorted(METHODS))}
    maybe(resampler, "k_neighbors", rng.randint(1, 9))
    maybe(resampler, "m_neighbors", rng.randint(1, 20))
    maybe(resampler, "target_ratio", rng.choice([1, rng.uniform(0.05, 1.0)]))
    split = {"strategy": rng.choice(SPLIT_STRATEGIES)}
    maybe(split, "test_fraction", rng.uniform(0.05, 0.95))
    model: dict = {}
    maybe(model, "epochs", rng.randint(1, 50))
    maybe(model, "batch_size", rng.randint(1, 512))
    maybe(model, "learning_rate", rng.choice([0, rng.uniform(0.0, 0.1)]))
    maybe(model, "beta1", rng.uniform(0.0, 0.99))
    maybe(model, "beta2", rng.uniform(0.0, 0.999))
    maybe(model, "epsilon", rng.uniform(1e-10, 1e-6))
    maybe(model, "threshold", rng.uniform(0.01, 0.99))
    doc = {
        "dataset": dataset,
        "n_values": rng.sample(range(20), rng.randint(1, 5)),
        "protocols": rng.sample(["leaky", "clean"], rng.randint(1, 2)),
        "resampler": resampler,
        "split": split,
        "seeds": [rng.randint(0, 10**6) for _ in range(rng.randint(1, 4))],
    }
    maybe(doc, "scaler", rng.choice(SCALER_METHODS))
    maybe(doc, "model", model)
    maybe(doc, "output_dir", f"out{rng.randint(0, 9)}")
    maybe(doc, "formats", rng.sample(["json", "csv", "markdown", "svg"], rng.randint(0, 4)))
    maybe(doc, "allow_quadratic", rng.random() < 0.5)
    return doc


def assert_echoed(given, echoed) -> None:
    if isinstance(given, dict):
        for key, value in given.items():
            assert_echoed(value, echoed[key])
    else:
        assert given == echoed


def test_config_round_trips_through_to_dict(tmp_path):
    block_keys = {
        "resampler": {"method", "k_neighbors", "m_neighbors", "target_ratio"},
        "split": {"strategy", "test_fraction"},
        "model": {"epochs", "batch_size", "learning_rate", "beta1", "beta2", "epsilon", "threshold"},
    }
    rng = random.Random(1207)
    docs = [base_doc(str(tmp_path))] + [random_doc(rng) for _ in range(300)]
    for doc in docs:
        cfg = build_grid_config(doc)
        echoed = json.loads(json.dumps(cfg.to_dict()))
        assert_echoed(doc, echoed)
        assert {block: set(echoed[block]) for block in block_keys} == block_keys
        assert build_grid_config(echoed) == cfg
    # number fields coerce, so an integer given for one echoes as a float
    doc = base_doc(str(tmp_path), resampler={"method": "smote", "target_ratio": 1})
    assert repr(build_grid_config(doc).to_dict()["resampler"]["target_ratio"]) == "1.0"


# ---------------------------------------------------------------------------
# exit codes and dispatch
# ---------------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["help"]) == 0
    out = capsys.readouterr().out
    assert "usage: leakbench" in out
    assert "run the full grid" in out


def test_usage_problems_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["run"]) == 2  # --config is required
    assert main(["run", "--config", "cfg.json", "--bogus"]) == 2


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error: config file not found" in capsys.readouterr().err


def test_bad_config_exits_two(tmp_path, capsys):
    doc = base_doc(str(tmp_path / "out"))
    del doc["seeds"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "missing required key(s): seeds" in capsys.readouterr().err


def test_bad_formats_override_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--formats", "pdf"]) == 2
    assert "unknown output formats: pdf" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_reports_and_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    captured = capsys.readouterr()
    out_dir = tmp_path / "out"
    for name in ("report.json", "cells.csv", "summary.md"):
        assert (out_dir / name).exists()
        assert f"wrote {out_dir / name}" in captured.out
    assert "8 cells, 0 failed," in captured.out
    payload = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert payload["n_failed_cells"] == 0
    assert len(payload["cells"]) == 8


def test_run_seed_and_out_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path)
    other = tmp_path / "other"
    assert main(["run", "--config", cfg, "--seed", "42", "--out", str(other)]) == 0
    capsys.readouterr()
    payload = json.loads((other / "report.json").read_text(encoding="utf-8"))
    assert payload["config"]["seeds"] == [42]
    assert len(payload["cells"]) == 4  # 2 widths x 2 protocols x 1 seed


def test_run_formats_override_limits_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--formats", "json"]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert (out_dir / "report.json").exists()
    assert not (out_dir / "cells.csv").exists()
    assert not (out_dir / "summary.md").exists()


def test_run_with_failing_cells_exits_one(tmp_path, capsys):
    # clean-protocol cells lack the minority rows smote needs; leaky cells pass
    cfg = write_config(
        tmp_path,
        dataset={
            "synthetic": {"n_samples": 120, "positive_rate": 0.05, "n_features": 3, "seed": 2}
        },
        resampler={"method": "smote", "k_neighbors": 5},
    )
    assert main(["run", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert (
        "cell N0_clean_s0 failed: ValueError: smote requires minority count "
        "> k_neighbors (4 <= 5)" in captured.err
    )
    assert "8 cells, 4 failed," in captured.out
    payload = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert payload["n_failed_cells"] == 4


def test_run_refuses_quadratic_method_on_large_data(tmp_path, capsys, monkeypatch):
    import leakbench.experiment as experiment

    monkeypatch.setattr(experiment, "QUADRATIC_ROW_LIMIT", 100)
    cfg = write_config(tmp_path, resampler={"method": "tomek_links"})
    assert main(["run", "--config", cfg]) == 2
    assert "pass --allow-quadratic to run it anyway" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--allow-quadratic"]) == 0


def test_flags_left_out_keep_the_config_values(tmp_path, capsys):
    # no --allow-quadratic on the command line must not turn the config's true into false
    cfg = write_config(tmp_path, allow_quadratic=True)
    assert main(["run", "--config", cfg, "--seed", "3", "--formats", "json"]) == 0
    capsys.readouterr()
    echo = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["config"]
    assert echo["allow_quadratic"] is True
    assert echo["seeds"] == [3]
    assert echo["formats"] == ["json"]


def test_run_on_csv_dataset_via_environment(tmp_path, capsys, monkeypatch):
    ds = generate_synthetic(SynthConfig(n_samples=120, positive_rate=0.2, n_features=3, seed=4))
    csv_path = tmp_path / "rows.csv"
    save_csv(ds, str(csv_path))
    cfg = write_config(tmp_path, dataset={"csv": {}}, n_values=[0], seeds=[1])
    monkeypatch.setenv("LEAKBENCH_DATA", str(csv_path))
    assert main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert payload["config"]["dataset"]["csv"]["path"] == str(csv_path)


def test_run_on_csv_with_non_finite_value_exits_two(tmp_path, capsys):
    ds = generate_synthetic(SynthConfig(n_samples=120, positive_rate=0.2, n_features=3, seed=4))
    csv_path = tmp_path / "rows.csv"
    save_csv(ds, str(csv_path))
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[1] = "nan"
    lines[5] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    header = lines[0].split(",")
    cfg = write_config(tmp_path, dataset={"csv": {"path": str(csv_path)}}, n_values=[0], seeds=[1])
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"error: {csv_path}: line 6: column {header[1]!r} has non-finite value 'nan'" in err


def test_run_on_csv_the_csv_module_rejects_exits_two(tmp_path, capsys):
    # the csv module's own errors are input errors too, not a traceback with exit 1
    csv_path = tmp_path / "big.csv"
    csv_path.write_text("V1,Class\n" + "1" * 200_000 + ",0\n", encoding="utf-8")
    cfg = write_config(tmp_path, dataset={"csv": {"path": str(csv_path)}}, n_values=[0], seeds=[1])
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"error: {csv_path}: line 2: field larger than field limit" in err


# ---------------------------------------------------------------------------
# audit, curves, generate, report
# ---------------------------------------------------------------------------


def test_audit_prints_contamination_lines(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["audit", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    leaky, clean, gap = lines
    assert leaky.startswith("protocol=leaky n_test_rows=72 n_synthetic_in_test=")
    assert [pair.split("=")[0] for pair in leaky.split()] == [
        "protocol",
        "n_test_rows",
        "n_synthetic_in_test",
        "n_synthetic_parent_in_train",
        "n_cross_split_duplicates",
        "leak_flag",
    ]
    assert leaky.endswith("leak_flag=true")
    synth_in_test = int(leaky.split("n_synthetic_in_test=")[1].split()[0])
    assert synth_in_test > 0
    assert clean == (
        "protocol=clean n_test_rows=40 n_synthetic_in_test=0 "
        "n_synthetic_parent_in_train=0 n_cross_split_duplicates=0 leak_flag=false"
    )
    assert gap.startswith("f1 leaky=")
    leaky_f1 = float(gap.split("leaky=")[1].split()[0])
    clean_f1 = float(gap.split("clean=")[1].split()[0])
    gap_val = float(gap.split("gap=")[1])
    assert gap_val == pytest.approx(leaky_f1 - clean_f1, abs=1e-4)


def test_audit_and_curves_run_the_grid_cells_they_name(tmp_path, capsys):
    # the first width is not the smallest and the seed list has two entries,
    # so a cell taken from the wrong width or seed index would not match
    cfg = write_config(tmp_path, n_values=[2, 0], seeds=[7, 8])
    grid_out = tmp_path / "grid"
    assert main(["run", "--config", cfg, "--formats", "json,svg", "--out", str(grid_out)]) == 0
    assert main(["audit", "--config", cfg]) == 0
    assert main(["curves", "--config", cfg]) == 0
    audit_lines = capsys.readouterr().out.splitlines()
    report = json.loads((grid_out / "report.json").read_text(encoding="utf-8"))
    cells = {c["key"]: c for c in report["cells"]}
    for protocol in ("leaky", "clean"):
        con = cells[f"N2_{protocol}_s0"]["contamination"]
        counters = (f"{name}={format_value(con[name])}" for name in COUNTER_NAMES)
        assert " ".join([f"protocol={protocol}", *counters]) in audit_lines
    # the f1 line is the two cells' f1 and their difference, or absent when either is null
    leaky, clean = (cells[f"N2_{p}_s0"]["metrics"]["f1"] for p in ("leaky", "clean"))
    f1_lines = [line for line in audit_lines if line.startswith("f1 ")]
    if leaky is None or clean is None:
        assert f1_lines == []
    else:
        assert f1_lines == [f"f1 leaky={leaky:.4f} clean={clean:.4f} gap={leaky - clean:.4f}"]
    name = "N2_leaky_s0_roc.csv"
    curve = (tmp_path / "out" / "curves" / name).read_bytes()
    assert curve == (grid_out / "curves" / name).read_bytes()


def test_audit_reports_cell_failure(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        dataset={
            "synthetic": {"n_samples": 120, "positive_rate": 0.05, "n_features": 3, "seed": 2}
        },
        resampler={"method": "smote", "k_neighbors": 5},
    )
    assert main(["audit", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "cell N0_clean_s0 failed" in captured.err
    assert "protocol=leaky" in captured.out


def test_curves_writes_four_files(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["curves", "--config", cfg]) == 0
    captured = capsys.readouterr()
    curves = tmp_path / "out" / "curves"
    expected = [
        "N0_leaky_s0_prc.csv",
        "N0_leaky_s0_prc.svg",
        "N0_leaky_s0_roc.csv",
        "N0_leaky_s0_roc.svg",
    ]
    assert sorted(p.name for p in curves.iterdir()) == expected
    assert captured.out.count("wrote ") == 4
    header = (curves / "N0_leaky_s0_roc.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "fpr,tpr"


def test_generate_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    path = tmp_path / "out" / "synthetic.csv"
    assert path.exists()
    assert f"wrote {path} (160 rows, 16 positive)" in out
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("Time,") and header.endswith(",Class")


@pytest.mark.parametrize("columns", [None, ["V3", "V1"]])
def test_generate_then_csv_run_gives_the_synthetic_cells(tmp_path, capsys, columns):
    # generate writes the grid's dataset after columns, so a csv run on that file
    # sees the rows, features and times the synthetic run sees, cell by cell
    dataset = {"synthetic": {"n_samples": 600, "positive_rate": 0.1, "n_features": 4, "seed": 5}}
    if columns is not None:
        dataset["columns"] = columns
    grid = dict(
        resampler={"method": "smote_enn", "k_neighbors": 3},
        split={"strategy": "temporal", "test_fraction": 0.25},
    )
    synthetic = base_doc(str(tmp_path / "data"), dataset=dataset, **grid)
    cfg = tmp_path / "synthetic.json"
    cfg.write_text(json.dumps(synthetic), encoding="utf-8")
    assert main(["generate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    written = {"csv": {"path": str(tmp_path / "data" / "synthetic.csv")}}
    from_csv = base_doc(str(tmp_path / "out"), dataset=written, **grid)

    def cells(doc: dict) -> list[str]:
        report = run_grid(build_grid_config(doc))
        assert len(report.cells) == 8 and not report.failed_cells
        return [json.dumps(dict(cell.to_dict(), wall_time_s=0.0)) for cell in report.cells]

    assert cells(from_csv) == cells(synthetic)


def test_generate_requires_synthetic_dataset(tmp_path, capsys):
    cfg = write_config(tmp_path, dataset={"csv": {"path": "somewhere.csv"}})
    assert main(["generate", "--config", cfg]) == 2
    assert "generate needs a dataset.synthetic" in capsys.readouterr().err


def test_data_problems_exit_two_in_every_subcommand(tmp_path, capsys):
    # the config is valid; the column subset only fails once data is loaded
    cfg = write_config(
        tmp_path,
        dataset={"synthetic": {"n_samples": 160, "positive_rate": 0.1, "n_features": 4},
                 "columns": ["nope"]},
    )
    for command in ("generate", "run", "audit", "curves"):
        assert main([command, "--config", cfg]) == 2, command
        assert "error: unknown feature columns: nope" in capsys.readouterr().err, command


def test_report_reemits_from_stored_json(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--formats", "json"]) == 0
    capsys.readouterr()
    assert main(["report", "--config", cfg, "--formats", "csv,markdown"]) == 0
    captured = capsys.readouterr()
    out_dir = tmp_path / "out"
    assert (out_dir / "cells.csv").exists()
    assert (out_dir / "summary.md").exists()
    assert captured.out.count("wrote ") == 2


def test_run_compares_the_reference_widths_and_report_reemits_it(tmp_path):
    # width 3 is not a reference width, and the config lists the widths out of order
    synthetic = {"n_samples": 400, "positive_rate": 0.05, "n_features": 4, "seed": 5}
    cfg = write_config(
        tmp_path,
        dataset={"synthetic": synthetic},
        n_values=[16, 3, 0, 1, 2, 4, 6, 8, 10, 12],
        seeds=[1],
        model={"epochs": 2},
    )
    assert main(["run", "--config", cfg]) == 0
    summary = tmp_path / "out" / "summary.md"
    lines = summary.read_text(encoding="utf-8").split("\n")
    title = lines.index("## Reference comparison (leaky medians vs published reference)")
    rows = lines[title + 4 : lines.index("", title + 4)]
    assert [row.split(" | ")[0] for row in rows] == [f"| {n}" for n in sorted(REFERENCE_RESULTS)]
    stored = summary.read_bytes()
    summary.unlink()
    assert main(["report", "--config", cfg, "--formats", "markdown"]) == 0
    assert summary.read_bytes() == stored


def test_report_reemits_a_report_that_echoes_feature_degree_two(tmp_path, capsys):
    # a report.json written by a degree-2 run echoes "feature_degree": 2; no table
    # reads the key, so such a report still re-emits its tables byte for byte
    run_dir = tmp_path / "degree2"
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(run_dir)]) == 0
    stored = run_dir / "report.json"
    text = stored.read_text(encoding="utf-8")
    assert text.count('"feature_degree": 1') == 1
    stored.write_text(text.replace('"feature_degree": 1', '"feature_degree": 2'), encoding="utf-8")
    tables = {name: (run_dir / name).read_bytes() for name in ("cells.csv", "summary.md")}
    for name in tables:
        (run_dir / name).unlink()
    degree_one = base_doc(str(tmp_path / "elsewhere"))
    degree_one["dataset"]["feature_degree"] = 1
    (tmp_path / "degree1.json").write_text(json.dumps(degree_one), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--config", str(tmp_path / "degree1.json"), "--out", str(run_dir)]) == 0
    assert {name: (run_dir / name).read_bytes() for name in tables} == tables


def test_report_writes_utf8_under_an_ascii_locale(tmp_path, capsys):
    # the locale's encoding must not decide how the config is read or the tables are written;
    # under the C locale it cannot encode the dataset name that summary.md echoes
    data = tmp_path / "donn\u00e9es.csv"
    save_csv(generate_synthetic(SynthConfig(n_samples=160, positive_rate=0.1, seed=5)), str(data))
    doc = base_doc(str(tmp_path / "out"), dataset={"csv": {"path": str(data)}})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    summary = tmp_path / "out" / "summary.md"
    expected = summary.read_bytes()
    assert "donn\u00e9es.csv".encode() in expected
    summary.unlink()
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "leakbench.cli", "report", "--config", str(cfg)],
        capture_output=True,
        encoding="utf-8",
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert summary.read_bytes() == expected


def test_unencodable_text_is_quoted_in_the_error(tmp_path):
    # under the C locale the filesystem encoding is ascii, so a non-ASCII file name cannot be
    # opened at all; with an ascii stdout the files are written but "wrote <path>" is not; the
    # error must quote the text that failed, not only its first bad character
    data = tmp_path / "données.csv"
    save_csv(generate_synthetic(SynthConfig(n_samples=160, positive_rate=0.1, seed=5)), str(data))
    ascii_csv = tmp_path / "data.csv"
    ascii_csv.write_bytes(data.read_bytes())
    out = tmp_path / "résultats"
    c_locale = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    ascii_stdout = {**os.environ, "PYTHONUTF8": "1", "PYTHONIOENCODING": "ascii"}
    # (environment, csv path, output dir, the start of the quoted text)
    cases = [
        (c_locale, data, tmp_path / "out", repr(str(data))),
        (c_locale, ascii_csv, out, repr(str(out))),
        (ascii_stdout, ascii_csv, out, repr(f"wrote {out}/")[:-1]),
    ]
    cfg = tmp_path / "config.json"
    for env, csv_path, out_dir, quoted in cases:
        doc = base_doc(str(out_dir), dataset={"csv": {"path": str(csv_path)}})
        cfg.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "leakbench.cli", "run", "--config", str(cfg)],
            capture_output=True,
            encoding="utf-8",
            env=env,
        )
        assert proc.returncode == 2, proc.stderr
        escaped = quoted.encode("ascii", "backslashreplace").decode("ascii")  # as stderr has it
        assert f"error: cannot encode {escaped}" in proc.stderr, proc.stderr
        assert "' as ascii" in proc.stderr, proc.stderr


def test_report_without_stored_json_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["report", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"error: no report found at {tmp_path / 'out' / 'report.json'}" in err


NOT_REPORTS = [
    {},
    [1, 2],
    {"schema_version": "2"},
    "report",
    {"schema_version": "1"},
    {"schema_version": "1", "config": {}},
    {
        "schema_version": "1",
        "config": {"split": {"test_fraction": 0.25}},
        # a cell whose confusion block is a list, not an object
        "cells": [
            dict(key="N0_leaky_s0", n_hidden=0, protocol="leaky", seed_index=0, seed=7, confusion=[1]),
        ],
    },
]


@pytest.mark.parametrize("payload", NOT_REPORTS)
def test_report_refuses_a_payload_that_is_not_a_report(tmp_path, capsys, payload):
    cfg = write_config(tmp_path)
    source = tmp_path / "out" / "report.json"
    source.parent.mkdir()
    source.write_text(json.dumps(payload), encoding="utf-8")
    stored = source.read_bytes()
    assert main(["report", "--config", cfg]) == 2
    assert f"error: {source} is not a version-1 leakbench report" in capsys.readouterr().err
    assert source.read_bytes() == stored
    assert sorted(p.name for p in source.parent.iterdir()) == ["report.json"]


@pytest.mark.parametrize("raw", [b"not json", b'{"schema_version": "1"', b"\xff\xfe"])
def test_report_refuses_a_file_that_is_not_json(tmp_path, capsys, raw):
    cfg = write_config(tmp_path)
    source = tmp_path / "out" / "report.json"
    source.parent.mkdir()
    source.write_bytes(raw)
    assert main(["report", "--config", cfg]) == 2
    assert f"error: {source} is not a version-1 leakbench report" in capsys.readouterr().err
    assert source.read_bytes() == raw
    assert sorted(p.name for p in source.parent.iterdir()) == ["report.json"]


def test_report_rejects_svg_reemission(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--formats", "json"]) == 0
    capsys.readouterr()
    assert main(["report", "--config", cfg, "--formats", "svg"]) == 2
    assert "svg re-emission needs a rerun" in capsys.readouterr().err


def test_installed_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "leakbench.cli", "help"],
        capture_output=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0
    assert "usage: leakbench" in proc.stdout
