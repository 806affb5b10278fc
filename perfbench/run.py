"""Grid benchmark for leakbench: end-to-end and per-layer numbers per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

Workloads are ``desk``, ``transactions`` and ``neighbors`` (see
``workloads.py`` for what each stresses and why). Each invocation is one
closed-loop caller in fresh processes: ``run.py`` writes the workload's
inputs from the seed, then starts ``worker.py`` processes that import the
package from ``src/``, load the grid dataset and run
``experiment.run_grid`` + ``experiment.emit_report`` through the public
API. BLAS is pinned to one thread, so the grid runs on one core; a
second thread in the grid process samples the host's speed (``probe.py``).

With ``--trace 0`` it prints the end-to-end metrics:

* ``setup_s``: process start to the dataset being ready (import, config,
  ``load_grid_dataset``, the quadratic gate); the median over 3 to 15
  fresh processes.
* ``report_s``: dataset ready to report.json, cells.csv and summary.md on
  disk. The grid repeats for ``--seconds`` (at least once); each grid's
  time is scaled to the probe's reference host speed, and the median of
  these is reported. The raw times and probe readings go to the run's
  record in ``results.jsonl``.
* ``peak_rss_mb``: peak resident memory of the process that ran the grids.
* ``cell_ok_ratio``: cells that passed their checks over cells attempted.
  A cell fails when it has an error or its audit contradicts its protocol
  (a leaky cell not flagged; a clean cell flagged or holding synthetic
  test rows); every cell of a grid fails when its normalised report.json
  differs from the expected digest or from the run's first grid.

With ``--trace 1`` it alternates plain and traced grids (see
``tracer.py``) and prints the per-layer metrics of the fastest traced
grid, including ``trace.overhead_s``: the traced grids' ``report_s`` minus
the plain grids', each taken as above. A traced
grid must also fit the scaler on the full dataset exactly once per leaky
cell, and each cell's stage spans must sum to within 5% of its
``wall_time_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Each run is also appended, with
the kernel backend and versions it ran on, to
``.perfbench_out/results.jsonl``; ``compare.py`` compares two such files.
A traced run writes its spans to ``.perfbench_out/spans_<workload>_seed<seed>.jsonl``.
Inputs and reports live in a work directory under ``.perfbench_out/``
that is removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from probe import at_reference_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

# Fresh set-ups per run: at least SETUP_MIN, then more while they have
# taken under SETUP_BUDGET_S in total, up to SETUP_MAX.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 3.0
# A run, workers included, must end within three minutes.
TIME_LIMIT_S = 170.0
COVERAGE_TOLERANCE = 0.05
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {"peak_rss_mb": "MB", "cell_ok_ratio": "ratio", "experiment.cell_s_p50": "s",
         "experiment.cell_s_max": "s", "kernels.dist_evals_per_s": "1/s",
         "model.row_epochs_per_s": "1/s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(job: dict, workdir: Path, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    job = dict(job, t0=_now())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - _now()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def check_runs(runs: list[dict], expected: str | None) -> tuple[int, int, list[str]]:
    """(cells attempted, cells failed, problems) over every grid of a run."""
    reference = expected or runs[0]["digest"]
    attempted = failed = 0
    problems: list[str] = []
    for i, run in enumerate(runs):
        attempted += run["cells"]
        problems += run["missing"]
        if run["digest"] != reference:
            failed += run["cells"]
            problems.append(f"grid {i}: report digest {run['digest']} != {reference}")
        else:
            failed += len(run["faults"])
            problems += run["faults"]
        if run["traced"]:
            full_fits = run["layers"]["pipeline.scaler_fit_full_dataset"]
            if full_fits != run["leaky_cells"]:
                problems.append(
                    f"grid {i}: {full_fits} full-dataset scaler fits for {run['leaky_cells']} leaky cells"
                )
            for key, share in run["coverage"].items():
                if abs(1.0 - share) > COVERAGE_TOLERANCE:
                    problems.append(f"grid {i}: stage spans cover {share:.3f} of {key}")
    return attempted, failed, problems


def scaled_report_s(runs: list[dict]) -> float:
    """Median over the grids of each grid's report time at the probe's reference speed."""
    return statistics.median(at_reference_speed(r["report_s"], r["probe_loop_s"]) for r in runs)


def measure(config: dict, seconds: float, trace: bool, expected: str | None,
            workdir: Path, spans_path: Path, deadline: float) -> dict:
    """Run the workload in fresh processes and check and summarise the outcome."""
    job = {"config": config, "seconds": seconds, "trace": trace, "spans_path": str(spans_path)}
    samples = []
    while not trace and len(samples) < SETUP_MAX - 1 and (
        len(samples) < SETUP_MIN - 1 or sum(s["setup_s"] for s in samples) < SETUP_BUDGET_S
    ):
        samples.append(spawn(dict(job, setup_only=True), workdir, deadline))
    main = spawn(dict(job, setup_only=False), workdir, deadline)
    samples.append(main)
    backends = {s["meta"]["kernel_backend"] for s in samples}
    if len(backends) != 1:
        raise BenchError(f"kernel backend differs between processes: {sorted(backends)}")

    runs = main["runs"]
    attempted, failed, problems = check_runs(runs, expected)
    plain = [r for r in runs if not r["traced"]]
    if trace:
        traced = [r for r in runs if r["traced"]]
        values = dict(min(traced, key=lambda r: r["report_s"])["layers"], **main["data"])
        values["trace.overhead_s"] = scaled_report_s(traced) - scaled_report_s(plain)
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "report_s": scaled_report_s(plain),
            "peak_rss_mb": main["peak_rss_mb"],
            "cell_ok_ratio": 1.0 - failed / attempted,
        }
    return {
        "meta": dict(
            main["meta"],
            digest=runs[0]["digest"],
            grid_report_s=[r["report_s"] for r in runs],
            grid_probe_loop_s=[r["probe_loop_s"] for r in runs],
        ),
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="leakbench grid benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = _now() + TIME_LIMIT_S
    if not (ROOT / "src" / "leakbench" / "__init__.py").is_file():
        print(f"no leakbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        config = workloads.prepare(args.workload, args.seed, workdir)
        outcome = measure(
            config,
            args.seconds,
            bool(args.trace),
            workloads.expected_digest(args.workload, args.seed),
            workdir,
            OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl",
            deadline,
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = outcome["result"]
    meta = dict(outcome["meta"], workload=args.workload, seed=args.seed, trace=args.trace)
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(dict(meta, **result), sort_keys=True) + "\n")
    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# " + json.dumps(meta, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
