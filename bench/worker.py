"""Runs one workload in a fresh process and writes its measurements.

Usage: ``python3 worker.py JOB.json RESULT.json``. The job names the
workload, the seed, the run length, whether to trace, and where the package
source and the config files are. The worker imports the package, makes one
warm-up call of ``cli.main`` at the pinned seed (whose table is checked
against the stored digest), then calls ``cli.main`` on the seeded config
until the run length is used up. Right before and right after every call it
times the workload's reference kernel in ``reference.py`` for a fifth of a
call's time; the mean of the two is the call's ``ref_s``, which ``run.py`` uses to scale the
call's wall time to a fixed machine speed. With tracing on, plain and traced calls alternate, so
the difference of their medians is the tracing overhead.

Peak RSS is this process's own high-water mark (``VmHWM``) right after the
warm-up call, before the first gauge: the peak of a process that imported
the package and ran the workload once, as a CLI call does. It covers exactly
one workload, and never the reference kernel's own arrays. ``ru_maxrss``
would not do: in a child started by fork and exec it also holds the parent's
size at the fork.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, check_table, sha256, table_rows  # noqa: E402

MIN_REPS = 3


def run_job(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from grid_concentrator import cli

    workload = WORKLOADS[job["workload"]]
    targets = tracing.trace_targets()
    out = job["out"]

    def call(config_path: str, traced: bool, pinned: bool = False) -> dict:
        argv = [workload.experiment, "--config", config_path, "--out", out,
                "--assert-bounds"]
        if os.path.exists(out):
            os.remove(out)
        tracer = tracing.Tracer()
        with tracing.install(tracer, targets) if traced else contextlib.nullcontext():
            main = tracer.wrap("cli.main", cli.main) if traced else cli.main
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crash is a failed run, not a benchmark error
                traceback.print_exc()
                code = "raised"
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        rep = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "problems": []}
        if code != 0:
            rep["problems"].append(f"exit code {code}")
        text = Path(out).read_text(encoding="utf-8") if os.path.exists(out) else ""
        rep["problems"] += check_table(workload, text, pinned)
        rep["sha256"] = sha256(text)
        rep["bytes"] = len(text.encode("utf-8"))
        if traced:
            rep["trace"] = tracing.summarize(tracer.spans)
        return rep

    def gauge(wall: float) -> float:
        return reference.measure(workload.gauge, reference.GAUGE_SHARE * wall)

    warmup = call(job["pinned_config"], traced=False, pinned=True)
    peak_rss_mb = high_water_mb()
    gauge(0.0)  # untimed: the first pass fills caches and makes kernel arrays
    reps = []
    start = time.perf_counter()
    ref_before = gauge(warmup["wall_s"])
    while True:
        rep = call(job["config"], traced=job["trace"] and len(reps) % 2 == 1)
        ref_after = gauge(rep["wall_s"])
        rep["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        if reps and rep["sha256"] != reps[0]["sha256"]:
            rep["problems"].append("table differs from the first run of the same config")
        reps.append(rep)
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        enough = len(reps) >= (2 * MIN_REPS if job["trace"] else MIN_REPS)
        if enough and elapsed + per_rep > job["seconds"]:
            break
    rows = table_rows(Path(out).read_text(encoding="utf-8")) if os.path.exists(out) else []
    config = json.loads(Path(job["config"]).read_text(encoding="utf-8"))
    return {
        "warmup": warmup,
        "reps": reps,
        "work": workload.work_counts(config, rows),
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
        "pid": os.getpid(),
    }


def high_water_mb() -> float:
    """Peak resident set of this process's own address space, in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    job_path, result_path = sys.argv[1], sys.argv[2]
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    Path(result_path).write_text(json.dumps(run_job(job)), encoding="utf-8")
