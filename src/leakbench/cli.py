"""Command-line entry point.

Exit codes: 0 success, 1 when any grid cell failed during execution,
2 for usage, config, or environment problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, build_grid_config, load_config_file
from .data import save_csv
from .experiment import (
    COUNTER_NAMES,
    FORMATS,
    SCHEMA_VERSION,
    GridConfig,
    GridReport,
    emit_from_dict,
    emit_report,
    format_value,
    load_grid_dataset,
    run_grid,
    write_cell_curves,
)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakbench",
        description=(
            "Measure how much resampling before the train/test split inflates "
            "evaluation metrics on imbalanced data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text, description=text)
        if handler is None:
            continue
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--seed", type=int, help="replace the config's seed list with this one seed")
        cmd.add_argument("--out", help="override the config's output directory")
        cmd.add_argument(
            "--formats",
            type=lambda text: tuple(f.strip() for f in text.split(",") if f.strip()),
            help=f"comma-separated subset of {','.join(FORMATS)} overriding the config",
        )
        cmd.add_argument(
            "--allow-quadratic",
            action="store_const",
            const=True,
            help="permit all-pairs resamplers on datasets past the row limit",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    handler = _COMMANDS[args.command][1]
    if handler is None:
        parser.print_help()
        return 0
    try:
        doc = load_config_file(args.config)
        overrides = {
            "seeds": None if args.seed is None else (args.seed,),
            "output_dir": args.out,
            "formats": args.formats,
            "allow_quadratic": args.allow_quadratic,
        }
        cfg = build_grid_config(doc, **{k: v for k, v in overrides.items() if v is not None})
        return handler(cfg)
    except UnicodeEncodeError as exc:
        # a file name the filesystem encoding (ascii under the C locale) cannot spell, or a
        # "wrote <path>" line that stdout's encoding cannot
        print(f"error: cannot encode {exc.object!r} as {exc.encoding}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        # bad config, bad data or unreadable/unwritable files; failures
        # inside a grid cell are recorded per cell and never reach here
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _report_failed_cells(report: GridReport) -> int:
    """Print each failed cell to stderr; the exit code for the cells' outcome."""
    for cell in report.failed_cells:
        print(f"cell {cell.key} failed: {cell.error}", file=sys.stderr)
    return 1 if report.failed_cells else 0


def _cmd_run(cfg: GridConfig) -> int:
    report = run_grid(cfg)
    paths = emit_report(report, cfg.output_dir, cfg.formats)
    for path in paths:
        print(f"wrote {path}")
    code = _report_failed_cells(report)
    print(
        f"{len(report.cells)} cells, {len(report.failed_cells)} failed, "
        f"{report.total_wall_time_s:.1f}s"
    )
    return code


def _cmd_audit(cfg: GridConfig) -> int:
    report = run_grid(replace(cfg, n_values=cfg.n_values[:1], seeds=cfg.seeds[:1]))
    for cell in report.cells:
        if cell.error is not None:
            continue
        con = cell.contamination
        counters = (f"{name}={format_value(getattr(con, name))}" for name in COUNTER_NAMES)
        print(" ".join([f"protocol={cell.protocol}", *counters]))
    gap = report.leakage_gap().get(cfg.n_values[0])
    if gap is not None and gap["gap"] is not None:
        print(f"f1 leaky={gap['leaky_f1']:.4f} clean={gap['clean_f1']:.4f} gap={gap['gap']:.4f}")
    return _report_failed_cells(report)


def _cmd_curves(cfg: GridConfig) -> int:
    narrowed = replace(
        cfg, n_values=cfg.n_values[:1], protocols=cfg.protocols[:1], seeds=cfg.seeds[:1]
    )
    report = run_grid(narrowed)
    for cell in report.cells:
        for path in write_cell_curves(cell, Path(cfg.output_dir) / "curves"):
            print(f"wrote {path}")
    return _report_failed_cells(report)


def _cmd_generate(cfg: GridConfig) -> int:
    if cfg.dataset.synthetic is None:
        raise ValueError("generate needs a dataset.synthetic config block")
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
        payload = json.loads(source.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValueError(f"no report found at {source}") from None
    except ValueError:  # not JSON text; refused below like any other non-report
        payload = None
    if not isinstance(payload, dict) or payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{source} is not a version-{SCHEMA_VERSION} leakbench report")
    try:
        paths = emit_from_dict(payload, cfg.output_dir, cfg.formats)
    except (KeyError, TypeError, AttributeError):
        # a version-1 payload that lacks a field the tables need, or holds one of the wrong type
        raise ValueError(f"{source} is not a version-{SCHEMA_VERSION} leakbench report") from None
    for path in paths:
        print(f"wrote {path}")
    return 0


# name -> (help text, handler); help has no handler and prints the usage
_COMMANDS = {
    "generate": ("write the configured synthetic dataset as a CSV file", _cmd_generate),
    "run": ("run the full grid and emit reports", _cmd_run),
    "audit": ("run one cell per protocol and print the contamination report", _cmd_audit),
    "curves": ("train one cell and write its ROC/PR curve files", _cmd_curves),
    "report": ("re-emit table formats from an existing report.json", _cmd_report),
    "help": ("show this help and exit", None),
}


if __name__ == "__main__":
    sys.exit(main())
