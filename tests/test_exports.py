"""Every exported name resolves, so a deleted function leaves no stale export,
and so does every name the traced benchmark patches."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
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


def test_benchmark_trace_targets_resolve(monkeypatch):
    # The traced benchmark patches these names; one that no longer exists
    # would break `bench/run.py --trace 1`, whose own tests are not tier-1.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    targets = tracing.trace_targets()
    assert targets
    for owner, attr, span in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({span})"
