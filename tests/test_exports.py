"""Every exported name resolves, so a deleted function leaves no stale export,
and so does every name the traced benchmark patches; and every public
definition in the package has a caller in the package, or is on the README's
list of library API awaiting callers. The README's config table, line-law
table and library example are checked against the package too."""

import ast
import importlib
import itertools
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import grid_concentrator
from grid_concentrator.admittance import _LAWS
from grid_concentrator.experiment_harness import _PARSERS, SCHEMA

MODULES = sorted(m.name for m in pkgutil.iter_modules(grid_concentrator.__path__))
SRC = Path(grid_concentrator.__file__).parent

# Public definitions that nothing in the package calls yet, each with the
# ROADMAP item that is to call or delete it. README "Library API awaiting
# callers" documents the same list (test_readme_awaiting_callers_match).
AWAITING_CALLERS = {
    "flat_start_jacobian": "item 5",
    "invert_tree_lcpf": "item 5",
    "intrinsic_dimension": "item 4",
    "sample_random_tree": "item 19",
    "sample_er_topology": "item 1 (a benchmark trace target)",
    "sample_rng": "item 8 (the replay contract of sample_uniforms; a benchmark trace target)",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    namespace = {}
    exec(f"from grid_concentrator.{name} import *", namespace)  # raises on a stale name
    module = importlib.import_module(f"grid_concentrator.{name}")
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_package_exports_resolve_and_are_public():
    # The package resolves its exports lazily from this table (PEP 562).
    exports = grid_concentrator._EXPORTS
    assert exports and grid_concentrator.__all__ == sorted(exports)
    assert set(grid_concentrator.__all__) <= set(dir(grid_concentrator))
    for name, module_name in exports.items():
        module = importlib.import_module(f"grid_concentrator.{module_name}")
        assert getattr(grid_concentrator, name) is getattr(module, name)
        assert name in module.__all__, f"{module_name}.{name} is exported but not public"


_FRESH_IMPORT = """
import importlib, sys
import grid_concentrator
assert "numpy" not in sys.modules, "import grid_concentrator loaded numpy"
for name in grid_concentrator.__all__:
    module = importlib.import_module("grid_concentrator." + grid_concentrator._EXPORTS[name])
    assert getattr(grid_concentrator, name) is getattr(module, name), name
try:
    grid_concentrator.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
"""


def test_package_import_loads_no_numpy_and_resolves_lazily():
    # In a fresh process, since this one has loaded numpy: the CLI pins its BLAS
    # threads only while numpy is not loaded, so importing the package must not load it.
    subprocess.run([sys.executable, "-c", _FRESH_IMPORT], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(SRC.parent)})


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


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_rows(section: str, header: str) -> list:
    """The cells of each row of the table under ``section`` headed ``header``."""
    lines = README.read_text(encoding="utf-8").split(section, 1)[1].splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[1:-1])
    return rows


def test_readme_awaiting_callers_match():
    documented = [name for cells in _readme_rows("## Library API awaiting callers",
                                                 "| name | module | waits on |")
                  for name in re.findall(r"`(\w+)`", cells[0])]
    assert sorted(documented) == sorted(AWAITING_CALLERS)


def test_readme_config_table_matches_schema():
    # One row per config field, and every field parsed is read by some experiment;
    # "read by" names exactly the experiments whose SCHEMA entry reads the field
    # ("all": every experiment).
    documented = {}
    for field, read_by, *_ in _readme_rows("### Config fields",
                                           "| field | read by | default | accepted form |"):
        readers = SCHEMA if read_by.strip() == "all" else re.findall(r"`(\w+)`", read_by)
        documented[field.strip().strip("`")] = sorted(readers)
    assert sorted(documented) == sorted(_PARSERS) == sorted({*itertools.chain(*SCHEMA.values())})
    for field, readers in documented.items():
        assert readers == sorted(e for e, reads in SCHEMA.items() if field in reads), field


def test_readme_line_law_table_matches_laws():
    # One row per kind; its fields, each "`name`" or "`name` (default x)" and split
    # by "; ", and its draws are those of the kind's entry in _LAWS.
    documented = {}
    for kind, fields, draws, _ in _readme_rows("### Config fields",
                                               "| kind | fields | draws | law |"):
        parsed = {} if fields.strip() == "none" else dict(
            re.match(r"\s*`(\w+)`(?: \(default ([^)]+)\))?", part).groups()
            for part in fields.split(";"))
        documented[kind.strip().strip("`")] = (parsed, int(re.match(r"\s*(\d+)", draws)[1]))
    assert documented == {
        kind: ({key: None if default is None else str(default) for key, default in fields.items()},
               law.draws)
        for kind, (law, fields) in _LAWS.items()}


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["7.791659216600394", "1.5"]
