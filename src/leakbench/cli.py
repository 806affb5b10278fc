"""Command-line entry point.

Exit codes: 0 success, 1 when any grid cell failed during execution,
2 for usage, config, or environment problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, build_grid_config, load_config_file
from .data import save_csv
from .experiment import (
    COUNTER_NAMES,
    SCHEMA_VERSION,
    GridConfig,
    check_quadratic_gate,
    emit_from_dict,
    emit_report,
    format_value,
    load_grid_dataset,
    run_cell,
    run_grid,
    write_cell_curves,
)

__all__ = ["build_parser", "main"]

_COMMANDS = {
    "generate": "write the configured synthetic dataset as a CSV file",
    "run": "run the full grid and emit reports",
    "audit": "run one cell per protocol and print the contamination report",
    "curves": "train one cell and write its ROC/PR curve files",
    "report": "re-emit table formats from an existing report.json",
    "help": "show this help and exit",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakbench",
        description=(
            "Measure how much resampling before the train/test split inflates "
            "evaluation metrics on imbalanced data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text, description=text)
        if name == "help":
            continue
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--seed", type=int, help="replace the config's seed list with this one seed")
        cmd.add_argument("--out", help="override the config's output directory")
        cmd.add_argument(
            "--formats",
            help="comma-separated subset of json,csv,markdown,svg overriding the config",
        )
        cmd.add_argument(
            "--allow-quadratic",
            action="store_true",
            help="permit all-pairs resamplers on datasets past the row limit",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command == "help":
        parser.print_help()
        return 0

    handler = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "audit": _cmd_audit,
        "curves": _cmd_curves,
        "report": _cmd_report,
    }[args.command]
    try:
        doc = load_config_file(args.config)
        formats = None
        if args.formats is not None:
            formats = tuple(f.strip() for f in args.formats.split(",") if f.strip())
        cfg = build_grid_config(
            doc,
            seed_override=args.seed,
            out_override=args.out,
            formats_override=formats,
            allow_quadratic_override=args.allow_quadratic,
        )
        return handler(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        # bad config, bad data or unreadable/unwritable files; failures
        # inside a grid cell are recorded per cell and never reach here
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _preflight(cfg: GridConfig):
    """Load the dataset and check the quadratic gate; problems exit 2."""
    ds = load_grid_dataset(cfg.dataset)
    check_quadratic_gate(cfg, ds.n_rows)
    return ds


def _cmd_run(cfg: GridConfig) -> int:
    report = run_grid(cfg)
    paths = emit_report(report, cfg.output_dir, cfg.formats)
    for path in paths:
        print(f"wrote {path}")
    for cell in report.failed_cells:
        print(f"cell {cell.key} failed: {cell.error}", file=sys.stderr)
    print(
        f"{len(report.cells)} cells, {len(report.failed_cells)} failed, "
        f"{report.total_wall_time_s:.1f}s"
    )
    return 1 if report.failed_cells else 0


def _cmd_audit(cfg: GridConfig) -> int:
    ds = _preflight(cfg)
    width = cfg.n_values[0]
    f1 = {}
    failed = False
    for protocol in cfg.protocols:
        cell = run_cell(ds, cfg, width, protocol, 0)
        if cell.error is not None:
            print(f"cell {cell.key} failed: {cell.error}", file=sys.stderr)
            failed = True
            continue
        con = cell.contamination
        counters = (f"{name}={format_value(getattr(con, name))}" for name in COUNTER_NAMES)
        print(" ".join([f"protocol={protocol}", *counters]))
        f1[protocol] = cell.metrics.scalars.f1
    if f1.get("leaky") is not None and f1.get("clean") is not None:
        print(
            f"f1 leaky={f1['leaky']:.4f} clean={f1['clean']:.4f} "
            f"gap={f1['leaky'] - f1['clean']:.4f}"
        )
    return 1 if failed else 0


def _cmd_curves(cfg: GridConfig) -> int:
    ds = _preflight(cfg)
    cell = run_cell(ds, cfg, cfg.n_values[0], cfg.protocols[0], 0)
    if cell.error is not None:
        print(f"cell {cell.key} failed: {cell.error}", file=sys.stderr)
        return 1
    for path in write_cell_curves(cell, Path(cfg.output_dir) / "curves"):
        print(f"wrote {path}")
    return 0


def _cmd_generate(cfg: GridConfig) -> int:
    if cfg.dataset.synthetic is None:
        print("error: generate needs a dataset.synthetic config block", file=sys.stderr)
        return 2
    ds = load_grid_dataset(cfg.dataset)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "synthetic.csv"
    save_csv(ds, str(path))
    print(f"wrote {path} ({ds.n_rows} rows, {int(ds.labels.sum())} positive)")
    return 0


def _cmd_report(cfg: GridConfig) -> int:
    source = Path(cfg.output_dir) / "report.json"
    try:
        payload = json.loads(source.read_text())
    except FileNotFoundError:
        print(f"error: no report found at {source}", file=sys.stderr)
        return 2
    if not isinstance(payload, dict) or payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{source} is not a version-{SCHEMA_VERSION} leakbench report")
    paths = emit_from_dict(payload, cfg.output_dir, cfg.formats)
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
