"""Host speed probe: how fast the machine runs a fixed loop while grids run.

On a shared host the same grid runs up to about 1.6x slower for seconds
to minutes at a time, with CPU time tracking wall time: other tenants'
work slows this process's instructions rather than descheduling it. No
choice among one run's grids removes a slow period that outlasts the run,
so the benchmark measures the host's speed beside each grid and scales
the grid's time to a fixed reference speed.

A second thread times a fixed pure-Python loop every ``INTERVAL_S`` in
its own CPU time, so waiting for the CPU or the GIL does not count, only
how fast the loop's instructions ran. The loop depends on nothing in
leakbench, so a change to the program cannot move it. It holds the GIL
for about 0.7 ms every 0.1 s, under 1% of the grid's time.
"""

from __future__ import annotations

import statistics
import threading
import time

INTERVAL_S = 0.1
LOOP = 20_000
# About the loop's thread CPU time on a quiet 2-vCPU 2.1 GHz Xeon host:
# the speed report times are scaled to. It only sets the scale; the
# comparison of two runs does not depend on it.
REFERENCE_S = 0.7e-3


def _loop_s() -> float:
    started = time.thread_time()
    total = 0
    for i in range(LOOP):
        total += i
    return time.thread_time() - started


class HostProbe:
    """Samples the loop's time from a background thread while in use."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-probe", daemon=True)

    def _sample(self) -> None:
        self.samples.append((time.perf_counter(), _loop_s()))

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self) -> HostProbe:
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def loop_s_since(self, start: float) -> float:
        """Mean loop time of the samples taken since ``start`` (the latest one if none)."""
        recent = [s for t, s in self.samples if t >= start]
        return statistics.fmean(recent) if recent else self.samples[-1][1]


def at_reference_speed(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the loop took ``loop_s``, scaled to the reference speed."""
    return seconds * REFERENCE_S / loop_s
