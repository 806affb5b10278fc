"""Grid runner: hidden-layer widths x protocols x seeds, plus reports.

Each cell derives its own RNG streams from (run seed, width, protocol,
seed index), so results never depend on execution order and a repeated
run writes a byte-identical report.json (wall-time fields aside).
Cell failures are recorded in place and the remaining cells proceed.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, SynthConfig, generate_synthetic, load_csv
from .metrics import ConfusionMatrix, MetricReport, ScalarMetrics
from .model import MlpConfig, ModelParams
from .pipeline import (
    PROTOCOLS,
    SCALER_METHODS,
    ContaminationReport,
    SplitSpec,
    run_protocol,
)
from .resample import QUADRATIC_METHODS, ResamplerSpec
from .seeding import CELL_SEED, derive_seed

__all__ = [
    "CellResult",
    "DatasetSpec",
    "GridConfig",
    "GridReport",
    "ModelParams",
    "REFERENCE_RESULTS",
    "emit_from_dict",
    "emit_report",
    "load_grid_dataset",
    "run_cell",
    "run_grid",
]

# Previously reported single-run leaky-protocol results on the full
# transactions file, by hidden-layer width.  summary.md compares the
# leaky f1 medians against these results.
REFERENCE_RESULTS: dict[int, dict[str, float]] = {
    0: {"accuracy": 0.958, "precision": 0.976, "recall": 0.939, "f1": 0.958},
    1: {"accuracy": 0.959, "precision": 0.985, "recall": 0.932, "f1": 0.957},
    2: {"accuracy": 0.967, "precision": 0.976, "recall": 0.958, "f1": 0.967},
    4: {"accuracy": 0.982, "precision": 0.980, "recall": 0.983, "f1": 0.982},
    6: {"accuracy": 0.982, "precision": 0.985, "recall": 0.979, "f1": 0.982},
    8: {"accuracy": 0.986, "precision": 0.988, "recall": 0.985, "f1": 0.986},
    10: {"accuracy": 0.992, "precision": 0.989, "recall": 0.994, "f1": 0.992},
    12: {"accuracy": 0.992, "precision": 0.991, "recall": 0.992, "f1": 0.992},
    16: {"accuracy": 0.996, "precision": 0.992, "recall": 0.999, "f1": 0.996},
}

DEFAULT_N_VALUES = tuple(REFERENCE_RESULTS)

# Datasets larger than this refuse the all-pairs methods unless
# allow_quadratic is set.  A kNN self-search took 0.8-0.9 s for 20,000
# rows and 4.3-4.5 s for 40,000 rows (30 features, k=5, BLAS on both vCPUs
# of a 2-vCPU host): about 490 and 360 million query-reference pairs per
# second, as blocks shrink from 26 rows to 13.  One all-pairs self-search
# at this limit (1e10 pairs, blocks of 5 rows) took about 40 s.  The
# cleaning step of SMOTE-ENN and SMOTE-Tomek searches the oversampled
# rows, up to twice as many, so four times as long.
QUADRATIC_ROW_LIMIT = 100_000

SCHEMA_VERSION = "1"

# The report's per-cell column names, in report order, taken from the
# result dataclasses so that every output lists the same fields.
CONFUSION_NAMES = tuple(f.name for f in fields(ConfusionMatrix))
METRIC_NAMES = tuple(f.name for f in fields(ScalarMetrics))
COUNTER_NAMES = tuple(f.name for f in fields(ContaminationReport))


# Metadata of a GridConfig field that has a Python default but that config
# documents must still give.
DOC_REQUIRED = {"doc_required": True}


@dataclass
class DatasetSpec:
    """Where the grid's dataset comes from and how it is prepared."""

    synthetic: SynthConfig | None = None
    csv_path: str | None = None
    expect_schema: bool = False
    columns: tuple[str, ...] | None = None
    # Echoed into every schema-1 report.json; the field, its check, its echo
    # line and config.py's key go together at the schema-2 bump.
    feature_degree: int = 1

    def __post_init__(self) -> None:
        if (self.synthetic is None) == (self.csv_path is None):
            raise ValueError("dataset needs exactly one of a synthetic config or a csv path")
        if self.columns is not None and len(self.columns) == 0:
            raise ValueError("columns must not be empty")
        if self.columns is not None and len(set(self.columns)) < len(self.columns):
            raise ValueError("columns must not repeat")
        if self.feature_degree != 1:
            raise ValueError("feature_degree must be 1")

    def to_dict(self) -> dict:
        if self.synthetic is not None:
            source = {"synthetic": asdict(self.synthetic)}
        else:
            source = {"csv": {"path": self.csv_path, "expect_schema": self.expect_schema}}
        if self.columns is not None:
            source["columns"] = list(self.columns)
        source["feature_degree"] = self.feature_degree
        return source


@dataclass
class GridConfig:
    dataset: DatasetSpec
    seeds: tuple[int, ...]
    resampler: ResamplerSpec
    split: SplitSpec
    n_values: tuple[int, ...] = field(default=DEFAULT_N_VALUES, metadata=DOC_REQUIRED)
    protocols: tuple[str, ...] = field(default=PROTOCOLS, metadata=DOC_REQUIRED)
    scaler: str = "standardize"
    model: ModelParams = field(default_factory=ModelParams)
    output_dir: str = "leakbench_out"
    formats: tuple[str, ...] = field(default_factory=lambda: tuple(TABLES))
    allow_quadratic: bool = False

    def __post_init__(self) -> None:
        if len(self.seeds) == 0:
            raise ValueError("seeds must not be empty")
        if len(self.n_values) == 0:
            raise ValueError("n_values must not be empty")
        if len(set(self.n_values)) < len(self.n_values):
            raise ValueError("n_values must not repeat")
        if any(n < 0 for n in self.n_values):
            raise ValueError("n_values must be non-negative")
        if len(self.protocols) == 0:
            raise ValueError("protocols must not be empty")
        if len(set(self.protocols)) < len(self.protocols):
            raise ValueError("protocols must not repeat")
        for p in self.protocols:
            if p not in PROTOCOLS:
                raise ValueError(f"unknown protocol {p!r}")
        if self.scaler not in SCALER_METHODS:
            raise ValueError(f"unknown scaler {self.scaler!r}; expected one of {SCALER_METHODS}")
        bad = [f for f in self.formats if f not in FORMATS]
        if bad:
            raise ValueError(f"unknown output formats: {', '.join(bad)}")

    def to_dict(self) -> dict:
        return _document(self)


def document_fields(cls) -> dict[str, bool]:
    """The keys of a config dataclass's document block, each mapped to
    whether a document must give it.  Per-cell seeds stay out."""
    return {
        f.name: f.metadata == DOC_REQUIRED
        or (f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
        if f.metadata != CELL_SEED
    }


def _document(spec) -> dict:
    """A config dataclass as its document block; tuples become lists."""
    doc = {}
    for name in document_fields(type(spec)):
        value = getattr(spec, name)
        if hasattr(value, "to_dict"):
            value = value.to_dict()
        elif is_dataclass(value):
            value = _document(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[name] = value
    return doc


@dataclass
class CellResult:
    key: str
    n_hidden: int
    protocol: str
    seed_index: int
    seed: int
    metrics: MetricReport | None = None
    contamination: ContaminationReport | None = None
    history: list[float] = field(default_factory=list)
    notes: tuple[str, ...] = ()
    wall_time_s: float = 0.0
    error: str | None = None

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        measured = self.metrics is not None
        out["confusion"] = asdict(self.metrics.confusion) if measured else None
        out["metrics"] = asdict(self.metrics.scalars) if measured else None
        out["contamination"] = None if self.contamination is None else asdict(self.contamination)
        out["notes"] = list(self.notes)
        out["history"] = list(self.history)
        return out


@dataclass
class GridReport:
    config: GridConfig
    cells: list[CellResult]
    total_wall_time_s: float

    @property
    def failed_cells(self) -> list[CellResult]:
        return [c for c in self.cells if c.error is not None]

    def aggregates(self) -> dict:
        """Median/min/max of every metric per (protocol, width)."""
        table: dict = {}
        for protocol in self.config.protocols:
            table[protocol] = {}
            for n in self.config.n_values:
                rows = [
                    asdict(c.metrics.scalars)
                    for c in self.cells
                    if c.protocol == protocol and c.n_hidden == n and c.error is None
                ]
                table[protocol][n] = {
                    name: _summary([row[name] for row in rows]) for name in METRIC_NAMES
                }
        return table

    def leakage_gap(self) -> dict:
        """Median leaky f1 minus median clean f1 per width."""
        if not {"leaky", "clean"} <= set(self.config.protocols):
            return {}
        agg = self.aggregates()
        gap: dict = {}
        for n in self.config.n_values:
            leaky = agg["leaky"][n]["f1"]["median"]
            clean = agg["clean"][n]["f1"]["median"]
            gap[n] = {
                "leaky_f1": leaky,
                "clean_f1": clean,
                "gap": None if leaky is None or clean is None else leaky - clean,
            }
        return gap

    def to_dict(self) -> dict:
        agg = self.aggregates()
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "reference": {str(n): dict(m) for n, m in REFERENCE_RESULTS.items()},
            "cells": [c.to_dict() for c in self.cells],
            "aggregates": {
                protocol: {str(n): v for n, v in per_n.items()}
                for protocol, per_n in agg.items()
            },
            "leakage_gap": {str(n): v for n, v in self.leakage_gap().items()},
            "n_failed_cells": len(self.failed_cells),
            "total_wall_time_s": self.total_wall_time_s,
        }


def _summary(values: list[float | None]) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "min": None, "max": None}
    return {
        "median": float(np.median(values)),
        "min": float(min(values)),
        "max": float(max(values)),
    }


# ---------------------------------------------------------------------------
# running the grid
# ---------------------------------------------------------------------------


def load_grid_dataset(spec: DatasetSpec) -> Dataset:
    if spec.synthetic is not None:
        ds = generate_synthetic(spec.synthetic)
    else:
        ds = load_csv(spec.csv_path, expect_schema=spec.expect_schema)
    if spec.columns is not None:
        ds = ds.select_columns(spec.columns)
    return ds


def check_quadratic_gate(cfg: GridConfig, n_rows: int) -> None:
    method = cfg.resampler.method
    if (
        method in QUADRATIC_METHODS
        and n_rows > QUADRATIC_ROW_LIMIT
        and not cfg.allow_quadratic
    ):
        raise ValueError(
            f"{method} runs an all-pairs search over {n_rows} rows; "
            "pass --allow-quadratic to run it anyway"
        )


def cell_key(n_hidden: int, protocol: str, seed_index: int) -> str:
    return f"N{n_hidden}_{protocol}_s{seed_index}"


def run_cell(
    ds: Dataset,
    cfg: GridConfig,
    n_hidden: int,
    protocol: str,
    seed_index: int,
) -> CellResult:
    """Run one grid cell; failures are captured, not raised."""
    seed = cfg.seeds[seed_index]
    stream = derive_seed(seed, n_hidden, protocol, seed_index)
    split_spec = replace(cfg.split, seed=derive_seed(stream, "split"))
    resampler = replace(cfg.resampler, seed=derive_seed(stream, "resample"))
    model_cfg = MlpConfig(
        **asdict(cfg.model),
        n_features=ds.n_features,
        hidden_neurons=n_hidden,
        seed=derive_seed(stream, "model"),
    )
    cell = CellResult(
        key=cell_key(n_hidden, protocol, seed_index),
        n_hidden=n_hidden,
        protocol=protocol,
        seed_index=seed_index,
        seed=seed,
    )
    started = time.perf_counter()
    try:
        arts = run_protocol(ds, protocol, split_spec, resampler, cfg.scaler, model_cfg)
    except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
        cell.error = f"{type(exc).__name__}: {exc}"
    else:
        cell.metrics = arts.report
        cell.contamination = arts.contamination
        cell.history = arts.history
        cell.notes = arts.notes
    cell.wall_time_s = time.perf_counter() - started
    return cell


def run_grid(cfg: GridConfig) -> GridReport:
    """Run every (width, protocol, seed) cell over one shared dataset."""
    ds = load_grid_dataset(cfg.dataset)
    check_quadratic_gate(cfg, ds.n_rows)
    started = time.perf_counter()
    cells = [
        run_cell(ds, cfg, n, protocol, si)
        for n in cfg.n_values
        for protocol in cfg.protocols
        for si in range(len(cfg.seeds))
    ]
    return GridReport(
        config=cfg,
        cells=cells,
        total_wall_time_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def format_value(value, digits: int = 6) -> str:
    """A report value as table text: n/a for None, true/false, floats at ``digits``."""
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def render_json(report_dict: dict) -> str:
    return json.dumps(report_dict, indent=2, sort_keys=True) + "\n"


def render_cells_csv(report_dict: dict) -> str:
    test_fraction = report_dict["config"]["split"]["test_fraction"]
    ids = ("key", "n_hidden", "protocol", "seed_index", "seed")
    blocks = {"confusion": CONFUSION_NAMES, "metrics": METRIC_NAMES, "contamination": COUNTER_NAMES}
    # one column per name of each per-cell block, in block order
    columns = [(block, name) for block, names in blocks.items() for name in names]
    header = [*ids, "test_fraction", *(name for _, name in columns), "wall_time_s", "error"]
    lines = [",".join(header)]
    for cell in report_dict["cells"]:
        row = [
            *(format_value(cell[name]) for name in ids),
            format_value(test_fraction, 4),
            *(format_value((cell[block] or {}).get(name)) for block, name in columns),
            format_value(cell["wall_time_s"], 3),
            "" if cell["error"] is None else cell["error"].replace(",", ";"),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _markdown_table(title: str, header: list[str], rows: list[list]) -> list[str]:
    """A titled markdown table with values at 4 digits, then a blank line."""
    lines = [f"## {title}", "", "| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines.extend("| " + " | ".join(format_value(v, 4) for v in row) + " |" for row in rows)
    return lines + [""]


def render_markdown(report_dict: dict) -> str:
    cfg = report_dict["config"]
    ds = cfg["dataset"]
    source = "synthetic" if "synthetic" in ds else ds["csv"]["path"]
    lines = [
        "# Resampling leakage report",
        "",
        f"- dataset: {source}",
        f"- split: {cfg['split']['strategy']} (test_fraction={cfg['split']['test_fraction']})",
        f"- scaler: {cfg['scaler']}",
        f"- resampler: {cfg['resampler']['method']} (target_ratio={cfg['resampler']['target_ratio']})",
        f"- seeds per cell: {len(cfg['seeds'])}",
        f"- failed cells: {report_dict['n_failed_cells']}",
        "",
    ]
    agg = report_dict["aggregates"]
    # the table abbreviates average to avg to keep its columns narrow
    header = ["hidden", *(name.replace("average", "avg") for name in METRIC_NAMES)]
    for protocol in cfg["protocols"]:
        per_n = agg[protocol]
        rows = [[n, *(per_n[str(n)][m]["median"] for m in METRIC_NAMES)] for n in cfg["n_values"]]
        title = f"Median metrics by hidden width ({protocol} protocol)"
        lines += _markdown_table(title, header, rows)
    gap = report_dict["leakage_gap"]
    if gap:
        keys = ("leaky_f1", "clean_f1", "gap")
        rows = [[n, *(gap[str(n)][k] for k in keys)] for n in cfg["n_values"]]
        header = ["hidden", "leaky f1", "clean f1", "gap"]
        lines += _markdown_table("Leakage gap (median f1, leaky - clean)", header, rows)
    reference = report_dict["reference"]
    ref_widths = sorted(int(n) for n in reference)
    if "leaky" in cfg["protocols"] and set(ref_widths) <= set(cfg["n_values"]):
        rows = []
        for n in ref_widths:
            observed = agg["leaky"][str(n)]["f1"]["median"]
            expected = reference[str(n)]["f1"]
            dev = None if observed is None else abs(observed - expected)
            rows.append([n, observed, expected, dev])
        header = ["hidden", "f1 observed", "f1 reference", "abs deviation"]
        title = "Reference comparison (leaky medians vs published reference)"
        lines += _markdown_table(title, header, rows)
    lines.append(
        "Average precision uses the step-sum definition sum((R_n - R_n-1) * P_n); "
        "metrics with a zero denominator are reported as n/a."
    )
    lines.append("")
    return "\n".join(lines)


# Every table format: its file name under the output directory and the
# renderer that builds the file's text from a report.json payload.
TABLES = {
    "json": ("report.json", render_json),
    "csv": ("cells.csv", render_cells_csv),
    "markdown": ("summary.md", render_markdown),
}
FORMATS = (*TABLES, "svg")


def _curve_svg(points: np.ndarray, xlabel: str, ylabel: str, title: str) -> str:
    size, margin = 420, 50
    span = size - 2 * margin

    def sx(v: float) -> float:
        return margin + v * span

    def sy(v: float) -> float:
        return margin + (1.0 - v) * span

    path = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in points)
    ticks = []
    for t in (0.0, 0.5, 1.0):
        ticks.append(
            f'<text x="{sx(t):.1f}" y="{size - margin + 18}" font-size="11" '
            f'text-anchor="middle">{t:g}</text>'
        )
        ticks.append(
            f'<text x="{margin - 8}" y="{sy(t) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{t:g}</text>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<rect width="{size}" height="{size}" fill="white"/>\n'
        f'<text x="{size / 2}" y="24" font-size="13" text-anchor="middle">{title}</text>\n'
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        f'fill="none" stroke="#888"/>\n'
        + "\n".join(ticks)
        + f'\n<text x="{size / 2}" y="{size - 12}" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>\n'
        f'<text x="16" y="{size / 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {size / 2})">{ylabel}</text>\n'
        f'<polyline points="{path}" fill="none" stroke="#1f5fa8" stroke-width="1.5"/>\n'
        "</svg>\n"
    )


def _curve_csv(points: np.ndarray, xlabel: str, ylabel: str) -> str:
    lines = [f"{xlabel},{ylabel}"]
    lines.extend(f"{float(p[0])!r},{float(p[1])!r}" for p in points)
    return "\n".join(lines) + "\n"


def write_cell_curves(cell: CellResult, curves_dir: Path) -> list[Path]:
    """Write the ROC and PR point lists of one cell as csv and svg."""
    if cell.metrics is None:
        return []
    curves_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, points, xlabel, ylabel in (
        ("roc", cell.metrics.roc_points, "fpr", "tpr"),
        ("prc", cell.metrics.prc_points, "recall", "precision"),
    ):
        csv_path = curves_dir / f"{cell.key}_{kind}.csv"
        csv_path.write_text(_curve_csv(points, xlabel, ylabel), encoding="utf-8")
        svg_path = curves_dir / f"{cell.key}_{kind}.svg"
        svg_text = _curve_svg(points, xlabel, ylabel, f"{cell.key} {kind}")
        svg_path.write_text(svg_text, encoding="utf-8")
        written.extend([csv_path, svg_path])
    return written


def emit_report(report: GridReport, out_dir: str, formats: tuple[str, ...]) -> list[Path]:
    """Write the requested formats under out_dir; returns the paths."""
    tables = tuple(f for f in formats if f in TABLES)
    written = emit_from_dict(report.to_dict(), out_dir, tables)
    if "svg" in formats:
        for cell in report.cells:
            written.extend(write_cell_curves(cell, Path(out_dir) / "curves"))
    return written


def emit_from_dict(report_dict: dict, out_dir: str, formats: tuple[str, ...]) -> list[Path]:
    """Re-emit table formats from a stored report.json payload.

    Curve files cannot be rebuilt from the stored payload (point lists
    live only in the per-cell curve CSVs), so svg is rejected here.
    """
    if "svg" in formats:
        raise ValueError("svg re-emission needs a rerun; report.json keeps no curve points")
    # render every table first, so a payload a renderer cannot read writes nothing
    texts = {name: render(report_dict) for fmt, (name, render) in TABLES.items() if fmt in formats}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name in texts]
