"""One fresh benchmark process: set up a workload, then run its grid.

Run by ``run.py`` as ``python3 worker.py <job json>`` with the workload's
work directory as the current directory. The job names the config
document, the monotonic clock reading taken just before this process was
started (set-up time counts from there), whether to stop after set-up,
how long to measure and whether to trace. The last line of standard
output is this process's result as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from probe import HostProbe
from tracer import Tracer, cell_coverage, layer_metrics, write_spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = "out"


def _import_leakbench():
    """Import the package from the checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import leakbench

    if Path(leakbench.__file__).resolve().parent != src / "leakbench":
        raise SystemExit(f"leakbench was imported from {leakbench.__file__}, not {src}")
    from leakbench import _kernels, config, experiment, pipeline

    return {
        "experiment": experiment,
        "pipeline": pipeline,
        "_kernels": _kernels,
        "config": config,
    }


def report_digest(payload: dict) -> str:
    """sha256 of a report.json payload once its wall-clock fields are zeroed (in place)."""
    payload["total_wall_time_s"] = 0.0
    for cell in payload["cells"]:
        cell["wall_time_s"] = 0.0
    return hashlib.sha256(json.dumps(payload, indent=2, sort_keys=True).encode()).hexdigest()


def cell_faults(report: dict) -> list[str]:
    """Cells whose outcome contradicts their protocol."""
    faults = []
    for cell in report["cells"]:
        con = cell["contamination"]
        if cell["error"] is not None:
            faults.append(f"{cell['key']}: {cell['error']}")
        elif cell["protocol"] == "leaky" and not con["leak_flag"]:
            faults.append(f"{cell['key']}: leaky cell not flagged")
        elif cell["protocol"] == "clean" and (con["leak_flag"] or con["n_synthetic_in_test"] > 0):
            faults.append(f"{cell['key']}: clean cell flagged or holds synthetic test rows")
    return faults


def run_once(experiment, cfg, out: Path) -> dict:
    """One grid plus its report on disk; returns timing and the checks' inputs."""
    started = time.perf_counter()
    report = experiment.run_grid(cfg)
    experiment.emit_report(report, str(out), cfg.formats)
    report_s = time.perf_counter() - started
    missing = [f for f in ("report.json", "cells.csv", "summary.md") if not (out / f).is_file()]
    payload = json.loads((out / "report.json").read_text())
    return {
        "report_s": report_s,
        "cells": len(payload["cells"]),
        "leaky_cells": sum(c["protocol"] == "leaky" for c in payload["cells"]),
        "faults": cell_faults(payload),
        "digest": report_digest(payload),
        "missing": [f"{name} not written" for name in missing],
    }


def main(job: dict) -> dict:
    mods = _import_leakbench()
    experiment = mods["experiment"]
    cfg = mods["config"].build_grid_config(job["config"])
    tracer = Tracer(mods) if job["trace"] else None
    with tracer.installed() if tracer is not None else nullcontext():
        ds = experiment.load_grid_dataset(cfg.dataset)
    setup_spans = tracer.take() if tracer is not None else []
    experiment.check_quadratic_gate(cfg, ds.n_rows)
    result = {
        "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - job["t0"],
        "meta": {
            "kernel_backend": mods["_kernels"].backend_name(),
            "numpy": sys.modules["numpy"].__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if job["setup_only"]:
        return result

    # The dataset is ready; run_grid would load it again, so hand it the
    # one set-up built and keep loading out of report_s.
    experiment.load_grid_dataset = lambda spec: ds
    out = Path(OUT_DIR)
    runs = []
    deadline = time.perf_counter() + job["seconds"]
    with HostProbe() as probe:
        while True:
            traced = tracer is not None and len(runs) % 2 == 1
            started = time.perf_counter()
            if traced:
                with tracer.installed():
                    run = run_once(experiment, cfg, out)
                spans = tracer.take()
                run["layers"] = layer_metrics(spans)
                run["coverage"] = cell_coverage(spans)
            else:
                run = run_once(experiment, cfg, out)
            run["probe_loop_s"] = probe.loop_s_since(started)
            run["traced"] = traced
            runs.append(run)
            done = len(runs) >= (2 if tracer is not None else 1)
            if done and time.perf_counter() + run["report_s"] > deadline:
                break

    result["runs"] = runs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        write_spans(Path(job["spans_path"]), {"setup": setup_spans, "grid": spans})
        load = [s for s in setup_spans if s["name"] == "data.load"]
        result["data"] = {
            "data.load_s": sum(s["end"] - s["start"] for s in load),
            "data.rows": sum(s["rows"] for s in load),
        }
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
