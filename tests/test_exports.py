"""Every exported name resolves, so a deleted function leaves no stale export,
and so does every name the traced benchmark patches; and every public
definition in the package has a caller in the package, or is on the README's
list of library API awaiting callers."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import grid_concentrator

MODULES = sorted(m.name for m in pkgutil.iter_modules(grid_concentrator.__path__))
SRC = Path(grid_concentrator.__file__).parent

# Public definitions that nothing in the package calls yet, each with the
# ROADMAP item that is to call or delete it. README "Library API awaiting
# callers" documents the same list (test_readme_awaiting_callers_match).
AWAITING_CALLERS = {
    "flat_start_jacobian": "item 5",
    "invert_tree_lcpf": "item 5",
    "intrinsic_dimension": "item 4",
    "variance_laplacian": "item 4",
    "lcpf_variance_envelope": "item 6",
    "sample_random_tree": "item 7",
    "sample_er_topology": "item 1 (a benchmark trace target)",
    "sample_rng": "item 8 (the replay contract of sample_uniforms; a benchmark trace target)",
}


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
    # bench/ goes on sys.path, as bench/run.py puts it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    try:
        targets = importlib.import_module("tracing").trace_targets()
    finally:
        sys.modules.pop("tracing", None)
    assert {"sample_rng", "assemble_admittance", "sample_er_topology"} \
        <= {attr for _, attr, _ in targets}
    for owner, attr, span in targets:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({span})"


def _uncalled_public_definitions() -> set:
    """Public top-level names defined in the package that no code in the
    package reads outside the statement defining them. Imports, ``__all__``
    strings and a definition's references to itself are not reads."""
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            defined |= {name for name in own if not name.startswith("_")}
            read |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))} - own
    return defined - read


def test_every_public_definition_has_a_caller():
    uncalled, listed = _uncalled_public_definitions(), set(AWAITING_CALLERS)
    assert not uncalled - listed, f"no caller in the package: {sorted(uncalled - listed)}"
    assert not listed - uncalled, f"listed as awaiting callers, but missing or called: " \
                                  f"{sorted(listed - uncalled)}"


def test_readme_awaiting_callers_match():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("## Library API awaiting callers", 1)[1].splitlines()
    start = lines.index("| name | module | waits on |") + 2
    documented = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        documented += re.findall(r"`(\w+)`", line.split("|")[1])
    assert sorted(documented) == sorted(AWAITING_CALLERS)
