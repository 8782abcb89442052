"""Numeric twin of the golden digests: the table values themselves.

``tests/test_golden.py`` pins each table's SHA-256, so it catches any change
down to the last digit. This file stores the values of the same tables (plus
the default ``bruteforce`` and ``thm2_expectation`` runs) in
``golden_values.json`` and checks them to a relative tolerance instead. A
change that moves a digest but passes here is a round-off change; boolean
and empty cells must still match exactly.

A tail cell is a step function of the norms, so where a norm equals the
threshold ``t`` in exact arithmetic, round-off decides which side of ``t`` it
falls. Such a cell passes if the current run reaches the stored value within
``REL_TOL`` of ``t``: ``tail(t (1 + REL_TOL)) <= stored <= tail(t (1 -
REL_TOL))``. No stored table has such a tie now that the default
``bruteforce`` grid stops short of the largest norm.

Regenerate the stored values only as a recorded re-baseline::

    PYTHONPATH=src python tests/test_golden_values.py
"""

import json
import math
from pathlib import Path

import pytest

from grid_concentrator import experiment_harness as eh
from test_golden import GOLDEN

VALUES_PATH = Path(__file__).with_name("golden_values.json")
REL_TOL = 1e-14
TAIL_FIELDS = ("tail_exact", "tail_empirical")

CONFIGS = {
    **{name: cfg for name, (cfg, _) in GOLDEN.items()},
    "bruteforce_default": {"experiment": "bruteforce"},
    "thm2_expectation_default": {"experiment": "thm2_expectation"},
}


def table_values(cfg: dict) -> list:
    """The table of ``cfg`` as JSON-ready rows, in field order."""
    result = eh.run_experiment(eh.ExperimentConfig.from_dict(cfg))
    return json.loads(eh.emit(result, "json", None))


def _cell_matches(old, new) -> bool:
    # Booleans, strings, empty cells and counts must match exactly.
    if not (type(old) is float and type(new) is float):
        return type(old) is type(new) and old == new
    if math.isnan(old) or math.isnan(new):
        return math.isnan(old) and math.isnan(new)
    return abs(new - old) <= REL_TOL * max(abs(old), abs(new))


def _tail_reached_near(cfg: dict, field: str, t: float, value: float) -> bool:
    upper, lower = table_values({**cfg, "t_grid": [t * (1 - REL_TOL), t * (1 + REL_TOL)]})
    return lower[field] <= value <= upper[field]


@pytest.fixture(scope="module")
def stored():
    return json.loads(VALUES_PATH.read_text(encoding="utf-8"))


def test_stored_values_cover_every_config(stored):
    assert sorted(stored) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_values(name, stored):
    cfg = CONFIGS[name]
    old, new = stored[name], table_values(cfg)
    assert len(new) == len(old)
    for index, (old_row, new_row) in enumerate(zip(old, new)):
        assert list(new_row) == list(old_row), f"row {index}: fields differ"
        bad = {field: (old_row[field], new_row[field]) for field in old_row
               if not _cell_matches(old_row[field], new_row[field])
               and not (field in TAIL_FIELDS
                        and _tail_reached_near(cfg, field, old_row["t"], old_row[field]))}
        assert not bad, f"row {index}: {bad}"


if __name__ == "__main__":
    values = {name: table_values(cfg) for name, cfg in sorted(CONFIGS.items())}
    VALUES_PATH.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(values)} tables to {VALUES_PATH}")
