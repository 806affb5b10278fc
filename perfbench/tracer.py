"""Outside-in stage trace: spans recorded around leakbench's public functions.

``run_protocol``, ``run_grid`` and the resamplers look these names up in
their module at call time, so replacing the module attributes records a
span per call without changing the package. Spans stay in memory (name,
start, end, parent, cell key, counters) and are written out once.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

CELL = "experiment.cell"
# Keys every span has; the rest are counters.
SPAN_FIELDS = frozenset({"id", "name", "parent", "start", "end", "cell", "key", "wall_time_s"})


def _dist_evals(args, result) -> dict:
    return {"dist_evals": args[0].shape[0] * args[1].shape[0]}


def _resample_counts(args, result) -> dict:
    return {
        "rows_in": args[0].n_rows,
        "rows_out": result.dataset.n_rows,
        "synthetic": result.n_synthetic,
        "removed": result.n_removed,
    }


def _train_counts(args, result) -> dict:
    cfg = args[0].config
    n = args[1].shape[0]
    return {
        "batches": cfg.epochs * math.ceil(n / cfg.batch_size),
        "row_epochs": cfg.epochs * n,
    }


# (module, attribute, span name, counters taken from (positional args, result)).
# Every target is called with its counted arguments passed positionally.
TARGETS = (
    ("experiment", "run_grid", "experiment.grid", None),
    ("experiment", "run_cell", CELL, lambda a, r: {"key": r.key, "wall_time_s": r.wall_time_s}),
    ("experiment", "emit_report", "experiment.emit", None),
    ("experiment", "generate_synthetic", "data.load", lambda a, r: {"rows": r.n_rows}),
    ("experiment", "load_csv", "data.load", lambda a, r: {"rows": r.n_rows}),
    ("pipeline", "fit_scaler", "pipeline.scale",
     lambda a, r: {"full_fit": int(r.fitted_on == "full_dataset")}),
    ("pipeline", "apply_scaler", "pipeline.scale", None),
    ("pipeline", "split", "pipeline.split", None),
    ("pipeline", "contamination_audit", "pipeline.audit",
     lambda a, r: {"rows": a[0].n_rows + a[1].n_rows}),
    ("pipeline", "apply_resampler", "resample.apply", _resample_counts),
    ("pipeline", "init_mlp", "model.init", None),
    ("pipeline", "train", "model.train", _train_counts),
    ("pipeline", "forward", "model.forward", None),
    ("pipeline", "evaluate", "metrics.evaluate", None),
    ("_kernels", "knn", "kernels.knn", _dist_evals),
    ("_kernels", "pairwise_sq_dists", "kernels.pairwise", _dist_evals),
)


class Tracer:
    """Collects spans while installed over the leakbench modules it is given."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def _wrap(self, fn, name: str, counters):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1]["id"] if self._open else None,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counters is not None:
                span.update(counters(args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        for module_name, attr, name, counters in TARGETS:
            module = self.modules[module_name]
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counters))
        try:
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def take(self) -> list[dict]:
        """Return the spans recorded so far, with cell keys filled in, and reset."""
        spans, self.spans = self.spans, []
        for span in spans:
            parent = None if span["parent"] is None else spans[span["parent"]]
            if span["name"] == CELL:
                span["cell"] = span["key"]
            else:
                span["cell"] = None if parent is None else parent["cell"]
        return spans


def write_spans(path: Path, phases: dict[str, list[dict]]) -> None:
    """One JSON line per span, tagged with its phase; ids and parents count within a phase."""
    path.write_text("".join(
        json.dumps(dict(span, phase=phase), sort_keys=True) + "\n"
        for phase, spans in phases.items()
        for span in spans
    ))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def _staged(spans: list[dict]) -> dict[str, tuple[float, float]]:
    """Per cell key: (sum of its direct stage spans, its recorded wall_time_s)."""
    staged = {s["id"]: 0.0 for s in spans if s["name"] == CELL}
    for span in spans:
        if span["parent"] in staged:
            staged[span["parent"]] += span["end"] - span["start"]
    return {spans[i]["key"]: (total, spans[i]["wall_time_s"]) for i, total in staged.items()}


def cell_coverage(spans: list[dict]) -> dict[str, float]:
    """Per cell: the share of its wall_time_s that its stage spans cover."""
    return {key: staged / wall for key, (staged, wall) in _staged(spans).items()}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced grid run plus its report emission."""
    seconds: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for span, self_s in zip(spans, self_times(spans)):
        name = span["name"]
        seconds[name] = seconds.get(name, 0.0) + span["end"] - span["start"]
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        for key, value in span.items():
            if key not in SPAN_FIELDS:
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    cells = _staged(spans).values()
    walls = [wall for _, wall in cells]
    kernel_s = seconds.get("kernels.knn", 0.0) + seconds.get("kernels.pairwise", 0.0)
    dist_evals = counts.get("kernels.knn.dist_evals", 0) + counts.get("kernels.pairwise.dist_evals", 0)
    train_s = seconds.get("model.train", 0.0)
    return {
        "pipeline.scale_s": seconds.get("pipeline.scale", 0.0),
        "pipeline.split_s": seconds.get("pipeline.split", 0.0),
        "pipeline.audit_s": seconds.get("pipeline.audit", 0.0),
        "pipeline.audit_rows": counts.get("pipeline.audit.rows", 0),
        "pipeline.scaler_fit_full_dataset": counts.get("pipeline.scale.full_fit", 0),
        "resample.apply_s": own.get("resample.apply", 0.0),
        "resample.rows_in": counts.get("resample.apply.rows_in", 0),
        "resample.rows_out": counts.get("resample.apply.rows_out", 0),
        "resample.synthetic_rows": counts.get("resample.apply.synthetic", 0),
        "resample.removed_rows": counts.get("resample.apply.removed", 0),
        "kernels.knn_s": seconds.get("kernels.knn", 0.0),
        "kernels.knn_calls": calls.get("kernels.knn", 0),
        "kernels.pairwise_calls": calls.get("kernels.pairwise", 0),
        "kernels.dist_evals": dist_evals,
        "kernels.dist_evals_per_s": dist_evals / kernel_s,
        "model.train_s": train_s,
        "model.forward_s": seconds.get("model.forward", 0.0),
        "model.batches": counts.get("model.train.batches", 0),
        "model.row_epochs_per_s": counts.get("model.train.row_epochs", 0) / train_s,
        "metrics.evaluate_s": seconds.get("metrics.evaluate", 0.0),
        "experiment.cells": len(walls),
        "experiment.cell_s_p50": statistics.median(walls),
        "experiment.cell_s_max": max(walls),
        "experiment.overhead_s": sum(wall - staged for staged, wall in cells),
        "experiment.emit_s": seconds.get("experiment.emit", 0.0),
    }
