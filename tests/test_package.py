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
# numpy calls that set process-wide state, which every thread of a process shares
NUMPY_GLOBAL_SETTERS = {"setbufsize", "seterr", "seterrcall", "set_printoptions"}


# a star import raises AttributeError on a name in __all__ that the module does not define
@pytest.mark.parametrize("package", ["leakbench", *(f"leakbench.{m}" for m in MODULES)])
def test_star_import_resolves_every_listed_name(package):
    exec(f"from {package} import *", {})


def test_package_exports_are_listed_in_their_home_module():
    tree = ast.parse(Path(leakbench.__file__).read_text(encoding="utf-8"))
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


def test_no_src_module_sets_numpys_global_state():
    # np.errstate blocks are allowed: they restore the state on exit.  A search
    # that set the ufunc buffer or the error state for the whole process would
    # change it under every other thread that searches at the same time
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(leakbench.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in NUMPY_GLOBAL_SETTERS
    ]
    assert calls == []
