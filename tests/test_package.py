"""The package's exported names resolve and each is listed where it is defined."""

import ast
import importlib
import pkgutil

import pytest

import leakbench

MODULES = sorted(m.name for m in pkgutil.iter_modules(leakbench.__path__))


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
