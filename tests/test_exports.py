"""Every exported name resolves, so a deleted function leaves no stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import grid_concentrator

MODULES = sorted(m.name for m in pkgutil.iter_modules(grid_concentrator.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    namespace = {}
    exec(f"from grid_concentrator.{name} import *", namespace)  # raises on a stale name
    module = importlib.import_module(f"grid_concentrator.{name}")
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def _package_imports():
    tree = ast.parse(Path(grid_concentrator.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_package_exports_resolve_and_are_public():
    imports = _package_imports()
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"grid_concentrator.{module_name}")
        assert getattr(grid_concentrator, name) is getattr(module, name)
        assert name in module.__all__, f"{module_name}.{name} is exported but not public"
