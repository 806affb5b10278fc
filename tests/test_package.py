"""The package's exported names resolve and each is listed where it is defined."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import leakbench

MODULES = sorted(m.name for m in pkgutil.iter_modules(leakbench.__path__))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# (module, attribute) pairs that perfbench/worker.py calls, besides the traced ones
WORKER_NAMES = [
    ("_kernels", "backend_name"),
    ("experiment", "load_grid_dataset"),
    ("experiment", "check_quadratic_gate"),
    ("experiment", "run_grid"),
    ("experiment", "emit_report"),
    ("config", "build_grid_config"),
]


# a star import raises AttributeError on a name in __all__ that the module does not define
@pytest.mark.parametrize("package", ["leakbench", *(f"leakbench.{m}" for m in MODULES)])
def test_star_import_resolves_every_listed_name(package):
    exec(f"from {package} import *", {})


def test_package_exports_are_listed_in_their_home_module():
    tree = ast.parse(open(leakbench.__file__, encoding="utf-8").read())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    unlisted = [
        f"{module}.{name}"
        for module, name in imported
        if name not in importlib.import_module(f"leakbench.{module}").__all__
    ]
    assert unlisted == []
    assert set(leakbench.__all__) == {name for _, name in imported} | {"__version__"}


def test_every_name_perfbench_wraps_or_calls_resolves_in_leakbench():
    # tracer.py imports only the standard library, so it loads on its own
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, attr) for module, attr, _, _ in tracer.TARGETS] + WORKER_NAMES
    assert ("_kernels", "knn") in names
    missing = [
        f"leakbench.{module}.{attr}"
        for module, attr in names
        if not callable(getattr(importlib.import_module(f"leakbench.{module}"), attr, None))
    ]
    assert missing == []
