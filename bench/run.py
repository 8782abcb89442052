"""Benchmark of grid-concentrator's experiment pipeline.

Usage (from the repository root)::

    python3 bench/run.py --workload er_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each workload drives ``grid_concentrator.cli.main`` on one pinned experiment
config in a closed loop: one caller, one experiment after another, in a
fresh worker process per workload. The package is imported from ``src/`` of
the checkout, so nothing needs installing.

Times are speed-scaled: every timed call and every set-up probe is scaled by
the time of the workload's reference kernel (``reference.py``) around it, so
that the load of other tenants on a shared host, which can slow the same code
by up to 2x for minutes at a time, cancels out. The raw wall times are
printed and kept as well.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of a traced run instead. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A full results file, with the environment, goes
to ``.bench_out/results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Before numpy loads: the set-up gauge runs here with as many BLAS threads
# as in the worker.
os.environ.update(dict.fromkeys(BLAS_VARS, str(BLAS_THREADS)))

import reference  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS  # noqa: E402

# Fresh processes timed for setup_s; one more runs first, untimed, so the
# median never includes writing bytecode caches.
SETUP_PROBES = 7
# Starting a process and importing modules is interpreter work.
SETUP_GAUGE = "interp"
# Every run must end within 180 s; leave room for the set-up probes.
DEADLINE_S = 165

# Spans reported uniformly as <key>.s, <key>.self_s and <key>.calls.
SPAN_KEYS = (
    "graph_core.sample_er_topology",
    "graph_core.max_degree",
    "admittance.assemble_admittance",
    "spectra.operator_norm",
    "bounds",
    "experiment_harness.sample_rng",
    "experiment_harness.brute_force_distribution",
    "experiment_harness.monte_carlo_distribution",
    "experiment_harness.emit",
)
LAYERS = ("graph_core", "spectra", "admittance", "bounds",
          "experiment_harness", "cli")

# Prints the CLOCK_MONOTONIC time at which the fresh process is ready. The
# clock is shared by all processes, so the parent subtracts its spawn time;
# timing the child's exit instead would add the 50 ms polling steps of
# ``subprocess`` waits that have a timeout.
SETUP_PROBE = (
    "import json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import grid_concentrator\n"
    "from grid_concentrator.experiment_harness import ExperimentConfig\n"
    "with open(sys.argv[2], encoding='utf-8') as fh:\n"
    "    ExperimentConfig.from_dict(dict(json.load(fh), experiment=sys.argv[3]))\n"
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))\n"
)


def child_env() -> dict:
    """Environment of every child: one BLAS thread.

    None of the workloads' kernels gains from a second BLAS thread on small
    matrices, while idle BLAS threads spin and double the CPU time, which
    makes timings on a shared machine depend on its other load.
    """
    return {**os.environ, **dict.fromkeys(BLAS_VARS, str(BLAS_THREADS))}


def measure_setup(workload, config_path: Path, env: dict,
                  deadline: float) -> list[tuple[float, float]]:
    """Wall seconds for fresh processes that import the package and parse
    the workload config, each with the reference time around it."""
    probes = []
    ref_before = reference.measure(SETUP_GAUGE)
    for _ in range(SETUP_PROBES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC),
                                str(config_path), workload.experiment],
                               env=env, check=True, capture_output=True, text=True,
                               timeout=deadline - time.monotonic())
        wall = float(probe.stdout) - start
        ref_after = reference.measure(SETUP_GAUGE, reference.GAUGE_SHARE * wall)
        probes.append((wall, (ref_before + ref_after) / 2))
        ref_before = ref_after
    return probes[1:]


def run_worker(job: dict, tmp: Path, env: dict, deadline: float) -> dict:
    """Run one workload in its own fresh worker process."""
    job_path, result_path = tmp / "job.json", tmp / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path),
                    str(result_path)],
                   env=env, check=True, timeout=deadline - time.monotonic(),
                   stdout=subprocess.DEVNULL)
    return json.loads(result_path.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(workload, result: dict,
               setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Metric values and a human-readable detail line per metric."""
    reps = result["reps"]
    gauge = workload.gauge
    q1, run_s, q3 = quartiles([reference.scaled(rep["wall_s"], rep["ref_s"], gauge)
                               for rep in reps])
    wall_s = statistics.median(rep["wall_s"] for rep in reps)
    ref_s = statistics.median(rep["ref_s"] for rep in reps)
    work = result["work"][workload.work_unit]
    s1, setup_s, s3 = quartiles([reference.scaled(wall, ref, SETUP_GAUGE)
                                 for wall, ref in setup])
    setup_wall_s = statistics.median(wall for wall, _ in setup)
    values = {
        "run_s": run_s,
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {
        "run_s": (f"speed-scaled; q1 {q1:.4f}, q3 {q3:.4f}, n={len(reps)}; "
                  f"{work / run_s:.6g} {workload.work_unit}/s; raw wall median "
                  f"{wall_s:.4f} s; {gauge} reference {ref_s:.4f} s, "
                  f"nominal {reference.KERNELS[gauge][1]} s"),
        "setup_s": (f"speed-scaled; q1 {s1:.4f}, q3 {s3:.4f}, n={len(setup)}; "
                    f"raw wall median {setup_wall_s:.4f} s"),
        "peak_rss_mb": "VmHWM of the worker process after its warm-up call",
    }
    return values, detail


def per_layer(result: dict) -> tuple[dict, dict]:
    """Per-layer values from the traced call whose root time is the median,
    so that its self times add up to its ``cli.main.s``."""
    plain = [rep for rep in result["reps"] if not rep["traced"]]
    traced = sorted((rep for rep in result["reps"] if rep["traced"]),
                    key=lambda rep: rep["wall_s"])
    rep = traced[(len(traced) - 1) // 2]
    keys = rep["trace"]["keys"]
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0}
    values = {}
    for key in SPAN_KEYS:
        for field, value in keys.get(key, zero).items():
            values[f"{key}.{field}"] = value
    root = keys["cli.main"]
    values["cli.main.s"] = root["s"]
    values["cli.self_s"] = root["self_s"]
    values["experiment_harness.self_s"] = keys.get(
        "experiment_harness.run_experiment", zero)["self_s"]
    values["experiment_harness.emit.bytes"] = rep["bytes"]
    for layer in LAYERS:
        values[f"{layer}.errors"] = rep["trace"]["layer_errors"].get(layer, 0)
    for name, count in result["work"].items():
        values[f"work.{name}"] = count
    values["process.cpu_s"] = rep["cpu_s"]
    values["tracing_overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain))
    values["trace.accounted_frac"] = rep["trace"]["self_total_s"] / root["s"]
    buckets = {name: value for name, value in values.items()
               if name.endswith(".self_s")}
    dominant = max(buckets, key=buckets.get)
    detail = {"dominant": dominant,
              "traced_calls": len(traced), "plain_calls": len(plain)}
    return values, detail


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git`` at the root, or None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the report written to the results file."""
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    tmp = OUT / f"tmp-{os.getpid()}-{workload.name}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        config, pinned = tmp / "config.json", tmp / "pinned.json"
        config.write_text(json.dumps(workload.config_for(seed)), encoding="utf-8")
        pinned.write_text(json.dumps(workload.config_for(PINNED_SEED)), encoding="utf-8")
        setup = [] if trace else measure_setup(workload, config, env, deadline)
        job = {"workload": workload.name, "seconds": seconds, "trace": trace,
               "src": str(SRC), "config": str(config), "pinned_config": str(pinned),
               "out": str(tmp / "table.csv")}
        result = run_worker(job, tmp, env, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    calls = [result["warmup"]] + result["reps"]
    failed = [rep for rep in calls if rep["problems"]]
    if trace:
        values, detail = per_layer(result)
    else:
        values, detail = end_to_end(workload, result, setup)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "attempted": len(calls), "failed": len(failed),
        "problems": [rep["problems"] for rep in failed],
        "values": values, "detail": detail,
        "wall_s": [rep["wall_s"] for rep in result["reps"]],
        "ref_s": [rep["ref_s"] for rep in result["reps"]],
        "traced": [rep["traced"] for rep in result["reps"]],
        "setup_s": setup, "work": result["work"],
        "env": {**result["env"], "git_sha": git_sha(ROOT)},
    }


def print_report(report: dict, workload, metrics: list[dict]) -> None:
    name = report["workload"]
    failed, attempted = report["failed"], report["attempted"]
    print(f"{name}: failed_frac {failed / attempted:.4g} ({failed}/{attempted} runs)")
    for problems in report["problems"]:
        print(f"{name}: FAILED: {'; '.join(problems[:5])}", file=sys.stderr)
    for metric in metrics:
        value = report["values"][metric["name"]]
        extra = report["detail"].get(metric["name"], "")
        print(f"{name}: {metric['name']} {value:.6g} {metric['unit']}"
              + (f" ({extra})" if extra else ""))
    if report["trace"]:
        measured = report["detail"]["dominant"]
        verdict = "match" if measured == workload.predicted_dominant else "MISMATCH"
        print(f"{name}: dominant self time predicted {workload.predicted_dominant}, "
              f"measured {measured}: {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grid_concentrator" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'grid_concentrator'}",
              file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = manifest["per_layer" if args.trace else "end_to_end"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = WORKLOADS[name]
        report = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=2), encoding="utf-8")
        print_report(report, workload, metrics)
        total["correct"] = total["correct"] and report["failed"] == 0
        total["attempted"] += report["attempted"]
        total["failed"] += report["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric in metrics:
            total["metrics"][prefix + metric["name"]] = {
                "value": report["values"][metric["name"]], "unit": metric["unit"]}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
