"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS, check_table  # noqa: E402


def _span(name, parent, start, end):
    return tracing.Span(name, parent, start, end)


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        _span("cli.main", None, 0.0, 10.0),
        _span("experiment_harness.run_experiment", 0, 1.0, 4.0),
        _span("spectra.operator_norm", 1, 2.0, 3.0),
        _span("experiment_harness.emit", 0, 5.0, 9.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    summary = tracing.summarize(spans)
    assert summary["self_total_s"] == pytest.approx(10.0)
    assert summary["keys"]["experiment_harness.run_experiment"] == pytest.approx(
        {"s": 3.0, "self_s": 2.0, "calls": 1})


def test_overlapping_children_are_counted_once():
    spans = [
        _span("cli.main", None, 0.0, 10.0),
        _span("bounds.a", 0, 2.0, 6.0),
        _span("bounds.b", 0, 4.0, 8.0),
        _span("bounds.c", 0, 9.0, 12.0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_calls_and_reports_outermost_time_once():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("bounds.inner", lambda: None)
    outer = tracer.wrap("bounds.outer", lambda: inner())
    failing = tracer.wrap("spectra.operator_norm", lambda: 1 / 0)

    def body():
        outer()
        with pytest.raises(ZeroDivisionError):
            failing()

    tracer.wrap("cli.main", body)()
    summary = tracing.summarize(tracer.spans)
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    # root 0..7, outer 1..4, inner 2..3, failing 5..6
    assert summary["keys"]["bounds"] == {"s": 3.0, "self_s": 3.0, "calls": 2}
    assert summary["keys"]["cli.main"]["self_s"] == 3.0
    assert summary["layer_errors"] == {"cli": 0, "bounds": 0, "spectra": 1}
    assert summary["self_total_s"] == 7.0


def test_install_restores_every_patched_name():
    targets = tracing.trace_targets()
    before = [getattr(owner, attr) for owner, attr, _ in targets]
    with tracing.install(tracing.Tracer(), targets):
        assert all(getattr(o, a) is not f for (o, a, _), f in zip(targets, before))
    assert [getattr(owner, attr) for owner, attr, _ in targets] == before


def test_speed_scaling_cancels_a_slower_machine():
    """Calls that run twice as slow because the whole machine does, as the
    reference kernel around them shows, read the same end-to-end times."""
    workload = WORKLOADS["switching_mc"]
    calls = [(0.60, 0.050), (0.70, 0.055), (0.62, 0.050)]
    probes = [(0.12, 0.050), (0.13, 0.050), (0.15, 0.050)]

    def metrics(factor):
        result = {"reps": [{"wall_s": w * factor, "ref_s": r * factor} for w, r in calls],
                  "work": {"samples": 20000}, "peak_rss_mb": 40.0}
        setup = [(w * factor, r * factor) for w, r in probes]
        return run.end_to_end(workload, result, setup)[0]

    quiet, busy = metrics(1.0), metrics(2.0)
    assert busy == pytest.approx(quiet)
    assert quiet["run_s"] == pytest.approx(
        reference.scaled(0.62, 0.050, workload.gauge))
    assert quiet["setup_s"] == pytest.approx(
        reference.scaled(0.13, 0.050, run.SETUP_GAUGE))


@pytest.mark.parametrize("kernel", sorted(reference.KERNELS))
def test_reference_kernel_fills_the_gauge_time(kernel):
    start = time.perf_counter()
    per_pass = reference.measure(kernel, 0.1)
    assert time.perf_counter() - start >= 0.1
    assert 0 < per_pass <= time.perf_counter() - start


def test_every_workload_names_a_reference_kernel():
    assert {w.gauge for w in WORKLOADS.values()} <= set(reference.KERNELS)


@pytest.fixture(scope="module")
def pinned_mc_table(tmp_path_factory):
    from grid_concentrator import cli

    workload = WORKLOADS["switching_mc"]
    tmp = tmp_path_factory.mktemp("mc")
    config, out = tmp / "config.json", tmp / "table.csv"
    config.write_text(json.dumps(workload.config_for(PINNED_SEED)))
    assert cli.main([workload.experiment, "--config", str(config), "--out", str(out),
                     "--assert-bounds"]) == 0
    return workload, out.read_text()


def test_output_check_accepts_the_pinned_table(pinned_mc_table):
    workload, text = pinned_mc_table
    assert check_table(workload, text, pinned=True) == []


def _set_cell(text, row, col, value):
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[col] = value
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("tamper", [
    lambda t: _set_cell(t, 0, 1, "tail"),                  # header
    lambda t: "".join(t.splitlines(keepends=True)[:-1]),   # row count
    lambda t: _set_cell(t, 1, 0, "nan"),
    lambda t: _set_cell(t, 2, 2, "-inf"),
    lambda t: _set_cell(t, 3, 1, "0.5,0.5"),               # extra cell
    lambda t: _set_cell(t, 3, 4, "maybe"),
], ids=["header", "rows", "nan", "inf", "cells", "text"])
def test_output_check_rejects_a_tampered_table(pinned_mc_table, tamper):
    workload, text = pinned_mc_table
    tampered = tamper(text)
    assert tampered != text
    assert check_table(workload, tampered, pinned=False)


def test_output_check_rejects_one_changed_digit_at_the_pinned_seed(pinned_mc_table):
    workload, text = pinned_mc_table
    header, first, rest = text.split("\n", 2)
    digit = next(i for i, ch in enumerate(first) if ch in "123456789")
    changed = first[:digit] + str(int(first[digit]) % 9 + 1) + first[digit + 1:]
    tampered = "\n".join([header, changed, rest])
    assert check_table(workload, tampered, pinned=False) == []
    assert check_table(workload, tampered, pinned=True)


def _run_worker(tmp_path, name, config):
    tmp = tmp_path / name
    tmp.mkdir()
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    job = {"workload": name, "seconds": 0, "trace": False,
           "src": str(run.SRC), "config": str(path), "pinned_config": str(path),
           "out": str(tmp / "table.csv")}
    return run.run_worker(job, tmp, run.child_env(), time.monotonic() + 120)


def test_peak_rss_is_taken_per_workload_in_a_fresh_process(tmp_path):
    """A large workload followed by a small one: the small one's peak must
    not inherit the large one's, which it would in a shared process."""
    # K40: about 130 MB of dense per-line bases; K3 with 100 samples: none.
    dense = _run_worker(tmp_path, "noise_dense", {
        "topology": {"name": "complete", "n": 40}, "delta": 0.1, "samples": 2, "seed": 1})
    small = _run_worker(tmp_path, "switching_mc",
                        {"backend": "montecarlo", "samples": 100, "seed": 1})
    assert len({dense["pid"], small["pid"], os.getpid()}) == 3
    assert dense["peak_rss_mb"] - small["peak_rss_mb"] > 50


def test_peak_rss_leaves_out_the_reference_kernel(tmp_path):
    """noise_dense's gauge keeps a 98 MB stack; on a K4 config, whose own
    arrays are tiny, the peak must stay near that of a small workload."""
    dense = _run_worker(tmp_path, "noise_dense", {
        "topology": {"name": "complete", "n": 4}, "delta": 0.1, "samples": 2, "seed": 1})
    small = _run_worker(tmp_path, "switching_mc",
                        {"backend": "montecarlo", "samples": 100, "seed": 1})
    assert dense["peak_rss_mb"] - small["peak_rss_mb"] < 30
