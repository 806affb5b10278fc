"""Compare two sets of benchmark runs, per workload and metric.

Usage: python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records ``run.py`` appends to
``.perfbench_out/results.jsonl``. For every workload, trace mode and
metric it prints each side's median and quartiles and the change's
median over the base's. It refuses to compare (exit 2) when the runs
used different kernel backends, since numba and numpy timings differ by
orders of magnitude, and flags any run whose checks failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sides = [load(path) for path in argv]
    backends = {r["kernel_backend"] for side in sides for r in side}
    if len(backends) != 1:
        print(f"refusing to compare runs on different kernel backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    for path, side in zip(argv, sides):
        bad = sum(not r["correct"] for r in side)
        if bad:
            print(f"warning: {bad} run(s) in {path} failed their checks", file=sys.stderr)

    values: dict = defaultdict(lambda: ([], []))
    for i, side in enumerate(sides):
        for r in side:
            for name, metric in r["metrics"].items():
                values[(r["workload"], r["trace"], name)][i].append(metric["value"])

    print(f"{'workload':<13} {'metric':<34} {'base q1/med/q3':>32} {'change q1/med/q3':>32} {'ratio':>7}")
    for (workload, _, name), (base, change) in sorted(values.items()):
        if not base or not change:
            continue
        b, c = quartiles(base), quartiles(change)
        ratio = c[1] / b[1] if b[1] else float("nan")
        print(
            f"{workload:<13} {name:<34} "
            f"{b[0]:>10.4g} {b[1]:>10.4g} {b[2]:>10.4g} "
            f"{c[0]:>10.4g} {c[1]:>10.4g} {c[2]:>10.4g} {ratio:>7.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
