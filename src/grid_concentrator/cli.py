"""Command-line entry point.

Usage::

    grid-concentrator <experiment> --config cfg.json [--seed N] [--samples N]
                      [--out path] [--format csv|json] [--assert-bounds]

``<experiment>`` is one of fig1, thm2_tail, thm2_expectation, lcpf_bounds,
manifold, bruteforce and overrides the config file's ``experiment`` field.
Exit codes: 0 success, 1 config error, 2 dominance-check failure when
``--assert-bounds`` is passed.

Importing this module into a process that has not loaded NumPy, with none of
``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` and ``OMP_NUM_THREADS`` set, sets
all three to 1 before NumPy loads. So a run forks its chunks where the harness
can and prints the table the goldens and the benchmark pin; a variable the user
set, or a process that already loaded NumPy, is left as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import _BLAS_THREAD_VARS

if "numpy" not in sys.modules and not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .experiment_harness import (  # noqa: E402
    EXPERIMENT_NAMES,
    ConfigError,
    ExperimentConfig,
    emit,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grid-concentrator",
        description="Concentration-bound validation experiments for random "
                    "power-network admittance matrices.")
    parser.add_argument("experiment", choices=EXPERIMENT_NAMES)
    parser.add_argument("--config", help="JSON experiment config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--samples", type=int, help="sample count override")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt",
                        help="output format override")
    parser.add_argument("--assert-bounds", action="store_true",
                        help="exit 2 if any dominance check fails")
    return parser


def _failing_rows(failing: list, rows: int, shown: int = 5) -> str:
    """Count and first indices of the 0-based ``failing`` rows of ``rows``."""
    more = f" and {len(failing) - shown} more" if len(failing) > shown else ""
    return f"{len(failing)} of {rows} rows: {str(failing[:shown])[1:-1]}{more}"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; treat anything else as a config error.
        return 0 if exc.code == 0 else 1

    cfg_dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg_dict = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError: malformed JSON or non-UTF-8 bytes; RecursionError: deep nesting.
            print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
            return 1
    try:
        overrides = {"experiment": args.experiment, "seed": args.seed,
                     "samples": args.samples, "out": args.out, "format": args.fmt}
        cfg = ExperimentConfig.from_dict(
            cfg_dict, **{k: v for k, v in overrides.items() if v is not None})
        result = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message says how much it could not allocate
        buses = "n" if args.experiment == "fig1" else "the topology's n"
        print(f"config error: out of memory; lower samples or {buses}: {exc}",
              file=sys.stderr)
        return 1

    try:
        text = emit(result, cfg.format, cfg.out)
    except OSError as exc:
        print(f"config error: out cannot be written: {exc}", file=sys.stderr)
        return 1
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        print(f"{cfg.experiment}: wrote {len(result.records)} records to {cfg.out}")
    if failing := result.failing_rows:
        print(f"{cfg.experiment}: dominance check FAILED on "
              f"{_failing_rows(failing, len(result.records))}", file=sys.stderr)
        if args.assert_bounds:
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
