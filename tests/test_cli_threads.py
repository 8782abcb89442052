"""The CLI's one behaviour: imported into a process that has not loaded NumPy, with
no BLAS thread variable set, it pins one BLAS thread, so a default run forks its
chunks where the harness can and prints the one-thread table the goldens and the
benchmark pin. A variable the user set, or a process that already loaded NumPy,
is left as it is. Each check runs in a fresh process, since this one has loaded
NumPy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grid_concentrator import _BLAS_THREAD_VARS
from grid_concentrator.experiment_harness import EXPERIMENT_NAMES

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(argv, blas_env, timeout=300):
    """stdout of ``python argv`` in a fresh process whose only BLAS thread variables
    are ``blas_env``."""
    env = {key: value for key, value in os.environ.items()
           if key not in {*_BLAS_THREAD_VARS, "GOTO_NUM_THREADS"}}
    env.update(blas_env, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env, check=True,
                          capture_output=True, timeout=timeout).stdout


@pytest.mark.parametrize("experiment", EXPERIMENT_NAMES)
def test_default_cli_table_is_the_one_thread_table(experiment):
    # fig1's default table moved in its last digits beside a 2-thread OpenBLAS pool.
    argv = ["-m", "grid_concentrator.cli", experiment]
    table = _run(argv, {})
    assert table and table == _run(argv, {"OPENBLAS_NUM_THREADS": "1"})


_IMPORT_CLI = """
import json, os, sys
{before}
import grid_concentrator.cli
from grid_concentrator.experiment_harness import _workers
print(json.dumps({{"env": {{var: os.environ.get(var) for var in {vars!r}}},
                  "workers": _workers(), "cpus": len(os.sched_getaffinity(0))}}))
"""


def _import_cli(blas_env, before=""):
    """The BLAS thread variables and ``_workers()`` after a fresh process whose only
    BLAS thread variables are ``blas_env`` runs ``before`` and imports the CLI."""
    code = _IMPORT_CLI.format(before=before, vars=_BLAS_THREAD_VARS)
    return json.loads(_run(["-c", code], blas_env, timeout=120))


def test_cli_import_pins_one_blas_thread_and_forks():
    seen = _import_cli({})
    assert seen["env"] == dict.fromkeys(_BLAS_THREAD_VARS, "1")
    assert seen["workers"] == seen["cpus"]


def test_cli_import_leaves_a_user_blas_setting():
    seen = _import_cli({"OPENBLAS_NUM_THREADS": "2"})
    assert seen["env"] == {**dict.fromkeys(_BLAS_THREAD_VARS), "OPENBLAS_NUM_THREADS": "2"}
    assert seen["workers"] == 1


def test_cli_import_leaves_a_process_that_loaded_numpy():
    seen = _import_cli({}, before="import numpy")
    assert seen["env"] == dict.fromkeys(_BLAS_THREAD_VARS)
