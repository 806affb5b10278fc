"""JSON run-config parsing and validation.

One config document drives every subcommand.  Validation is strict:
unknown keys are errors, as are missing required keys, so a typo never
silently falls back to a default.  The dataclasses are the schema: a
block's keys, required keys and value types come from its dataclass's
fields, and its value checks run in the dataclass's ``__post_init__``.
The dataset csv path may be omitted when the LEAKBENCH_DATA environment
variable points at the file.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import is_dataclass
from typing import get_args, get_origin, get_type_hints

from .experiment import DatasetSpec, GridConfig, document_fields

__all__ = ["ConfigError", "DATA_ENV_VAR", "build_grid_config", "load_config_file"]

DATA_ENV_VAR = "LEAKBENCH_DATA"


class ConfigError(Exception):
    """Bad config document or bad invocation; maps to exit code 2."""


def load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def build_grid_config(doc: dict, **overrides) -> GridConfig:
    """Validate a config document; ``overrides`` replace GridConfig fields by name."""
    return _build(GridConfig, doc, "", **overrides)


def _build(cls, block, path: str, **overrides):
    """Construct ``cls`` from the document block at dotted ``path`` ("" for the top)."""
    keys = document_fields(cls)
    required = {key for key, needed in keys.items() if needed}
    _check_keys(block, set(keys), required, path or "config")
    hints = get_type_hints(cls)
    prefix = f"{path}." if path else ""
    values = {key: _parse(hints[key], block[key], prefix + key) for key in keys if key in block}
    try:
        return cls(**{**values, **overrides})
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None


_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}
_LIST_KINDS = {int: "a non-empty list of integers", str: "a list of strings"}


def _is(kind: type, value) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        # integers count; json.load's NaN, Infinity and integers past the float range do not
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    # integer fields reject 2.5 and 2.0
    return isinstance(value, kind)


def _parse(kind, value, path: str):
    """Check one document value against its field's annotation and convert it."""
    nullable = type(None) in get_args(kind)
    if nullable:
        if value is None:
            return None
        kind = next(arg for arg in get_args(kind) if arg is not type(None))
    if kind is DatasetSpec:
        return _parse_dataset(value)
    if is_dataclass(kind):
        return _build(kind, value, path)
    if get_origin(kind) is tuple:
        # integer lists (seeds, n_values) must be non-empty; string lists may be empty
        item = get_args(kind)[0]
        if isinstance(value, list) and all(_is(item, v) for v in value) and (value or item is not int):
            return tuple(value)
        expected = _LIST_KINDS[item]
    elif _is(kind, value):
        return float(value) if kind is float else value
    else:
        expected = _KINDS[kind]
    raise ConfigError(f"{path} must be {expected}{' or null' if nullable else ''}")


def _parse_dataset(block) -> DatasetSpec:
    """The dataset block; its csv object maps onto DatasetSpec's csv_path and expect_schema."""
    _check_keys(block, {"synthetic", "csv", "columns", "feature_degree"}, set(), "dataset")
    if ("synthetic" in block) == ("csv" in block):
        raise ConfigError("dataset must name exactly one of 'synthetic' or 'csv'")
    doc = {key: value for key, value in block.items() if key != "csv"}
    if "csv" in block:
        csv_block = block["csv"]
        _check_keys(csv_block, {"path", "expect_schema"}, set(), "dataset.csv")
        path = csv_block.get("path")
        if path is None:
            path = os.environ.get(DATA_ENV_VAR)
            if not path:
                raise ConfigError(
                    "dataset.csv has no 'path' and the "
                    f"{DATA_ENV_VAR} environment variable is not set"
                )
        doc["csv_path"] = _parse(str, path, "dataset.csv.path")
        doc["expect_schema"] = _parse(
            bool, csv_block.get("expect_schema", False), "dataset.csv.expect_schema"
        )
    return _build(DatasetSpec, doc, "dataset")


def _check_keys(block, allowed: set, required: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    missing = sorted(required - set(block))
    if missing:
        raise ConfigError(f"{where} is missing required key(s): {', '.join(missing)}")
