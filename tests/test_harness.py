import collections
import dataclasses
import itertools
import json
import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from grid_concentrator import bounds as bnd
from grid_concentrator import cli
from grid_concentrator import experiment_harness as eh
from grid_concentrator import graph_core as gc
from grid_concentrator.admittance import assemble_admittance, complex_from_json
from grid_concentrator.manifold import distance_bound, projection_distance
from grid_concentrator.spectra import operator_norm


def _k3_model(p=0.5):
    t = gc.complete_topology(3)
    return t, bnd.ContingencyModel(t, np.full(3, p), np.ones(3, dtype=complex))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_experiment():
    with pytest.raises(eh.ConfigError, match="unknown experiment"):
        eh.ExperimentConfig(experiment="nope")


@pytest.mark.parametrize("name", [["fig1"], {"fig1": 1}, 3, None])
def test_config_rejects_experiment_that_is_not_a_string(name):
    with pytest.raises(eh.ConfigError, match="^unknown experiment"):
        eh.ExperimentConfig.from_dict({"experiment": name})


def test_config_rejects_unknown_keys():
    with pytest.raises(eh.ConfigError, match="unknown config keys"):
        eh.ExperimentConfig.from_dict({"experiment": "fig1", "bogus": 1})


def test_config_rejects_unsorted_grid():
    with pytest.raises(eh.ConfigError, match="sorted"):
        eh.ExperimentConfig(experiment="thm2_tail", t_grid=(2.0, 1.0))


def test_config_rejects_bad_samples():
    with pytest.raises(eh.ConfigError, match="samples"):
        eh.ExperimentConfig(experiment="fig1", samples=0)


def test_config_topology_parsing():
    cfg = eh.ExperimentConfig.from_dict(
        {"experiment": "thm2_tail", "topology": {"name": "complete", "n": 3}})
    assert cfg.topology == gc.complete_topology(3)
    cfg = eh.ExperimentConfig.from_dict(
        {"experiment": "thm2_tail",
         "topology": {"n": 3, "edges": [[0, 1], [1, 2]]}})
    assert cfg.topology == gc.path_topology(3)
    with pytest.raises(eh.ConfigError, match="topology"):
        eh.ExperimentConfig.from_dict({"experiment": "thm2_tail", "topology": 7})
    with pytest.raises(eh.ConfigError):
        eh.ExperimentConfig.from_dict(
            {"experiment": "thm2_tail", "topology": {"name": "moebius", "n": 3}})


@pytest.mark.parametrize("experiment", eh.EXPERIMENT_NAMES)
def test_parsed_config_parses_to_itself(experiment):
    cfg = eh.ExperimentConfig(experiment=experiment)
    again = dataclasses.replace(cfg)  # every parsed field goes through its parser again
    for name in eh.SCHEMA[experiment]:
        np.testing.assert_equal(getattr(again, name), getattr(cfg, name))


def test_sample_rng_replay_and_splitting():
    a = eh.sample_rng(7, 1, 2).random(4)
    b = eh.sample_rng(7, 1, 2).random(4)
    c = eh.sample_rng(7, 1, 3).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# fig1
# ---------------------------------------------------------------------------

def test_fig1_p_zero_point():
    cfg = eh.ExperimentConfig(experiment="fig1", n=6, samples=5, p_grid=(0.0,))
    result = eh.run_fig1(cfg)
    assert len(result.records) == 5
    for rec in result.records:
        assert rec["m"] == 0
        assert rec["norm"] == 0.0
        assert rec["bound"] == pytest.approx((2.0 / 3.0) * math.log(24.0))
        assert rec["bound_ok"]
    assert result.bounds_ok


def test_fig1_p_one_unit_weights():
    # complete-graph Laplacian norm equals n; the bound must still dominate
    cfg = eh.ExperimentConfig(experiment="fig1", n=10, samples=5, p_grid=(1.0,),
                              line_model={"kind": "fixed", "admittance": [1.0, 0.0]})
    result = eh.run_fig1(cfg)
    for rec in result.records:
        assert rec["m"] == 45
        assert rec["norm"] == pytest.approx(10.0, abs=1e-9)
        assert rec["bound"] >= 10.0
    assert result.bounds_ok


def test_fig1_small_sweep_dominance_and_determinism():
    cfg = eh.ExperimentConfig(experiment="fig1", n=12, samples=20,
                              p_grid=(0.2, 0.5, 0.9), seed=5)
    r1 = eh.run_fig1(cfg)
    r2 = eh.run_fig1(cfg)
    assert r1.records == r2.records
    assert r1.bounds_ok
    assert all(rec["bound_ok"] for rec in r1.records)


def test_fig1_rejects_oversized_weights():
    with pytest.raises(eh.ConfigError, match="<= 1"):
        eh.ExperimentConfig(experiment="fig1", n=5, samples=2, p_grid=(0.5,),
                            line_model={"kind": "fixed", "admittance": [2.0, 0.0]})


_FIG1_LAWS = [{"kind": "disk"}, {"kind": "fixed", "admittance": [0.6, -0.8]},
              {"kind": "bernoulli", "admittance": [0.6, -0.8], "p": 0.4},
              {"kind": "bounded", "center_g": 0.5, "center_b": -0.5, "delta": 0.2},
              {"kind": "sphere", "radius_sq": 0.5}]


def _fig1_per_sample(cfg):
    # Reference: one Topology, one assembled matrix and one norm call per sample.
    records = []
    for sweep_index, p in enumerate(cfg.p_grid):
        for s in range(cfg.samples):
            rng = eh.sample_rng(cfg.seed, sweep_index, s)
            topology = gc.sample_er_topology(cfg.n, p, rng)
            weights = cfg.line_model.transform(rng.random((topology.n_edges,
                                                           cfg.line_model.draws)))
            a = gc.incidence_matrix(topology)  # the runner's zgemm product, not the scatter
            norm = operator_norm(a.T @ (weights[:, None] * a))
            delta = gc.max_degree(topology)
            bound = bnd.thm1_expectation_bound(cfg.n, delta)
            records.append({"p": p, "sample_index": s, "m": topology.n_edges,
                            "delta": delta, "norm": norm, "bound": bound,
                            "bound_ok": bool(bound >= norm)})
    return records


@pytest.mark.parametrize("law", _FIG1_LAWS, ids=lambda law: law["kind"])
def test_fig1_bit_equal_per_sample_reference(law):
    # p = 0 draws samples without lines (m = 0); p = 1 draws the complete graph. At n = 20
    # chunks of 50 and 10 rows take hashed rows; at n = 8 chunks of 20 rows of at most
    # 3 * 28 draws take the stepping kernel.
    for n, samples in [(20, 60), (8, 20)]:
        cfg = eh.ExperimentConfig(experiment="fig1", n=n, samples=samples, seed=8,
                                  p_grid=(0.0, 0.35, 1.0), line_model=law)
        result = eh.run_fig1(cfg)
        reference = _fig1_per_sample(cfg)
        assert result.records == reference
        assert [type(rec["norm"]) for rec in result.records] == [float] * len(reference)
        assert result.bounds_ok == all(rec["bound_ok"] for rec in reference)
        assert {rec["m"] for rec in result.records if rec["p"] == 0.0} == {0}


@pytest.mark.parametrize("law", _FIG1_LAWS, ids=lambda law: law["kind"])
def test_fig1_draws_per_chunk_not_per_sample(monkeypatch, law):
    # 40 samples make one chunk per worker (40 rows, or 20 and 20 in two threads), 7
    # samples one of 7 (or 3 and 4): a short chunk is drawn by the same vectorized stream
    # as a long one. fig1 and manifold each make one draw, one law transform and one norm
    # call per chunk, and no per-sample generator. manifold also assembles, certifies and
    # Holder-bounds each chunk by one call each, plus one Holder bound for the whole run.
    for workers, samples in itertools.product((1, 2), (40, 7)):
        monkeypatch.setattr(eh, "_workers", lambda: workers)
        fig1 = eh.ExperimentConfig(experiment="fig1", n=9, samples=samples, seed=2,
                                   p_grid=(0.3, 1.0), line_model=law)
        manifold = eh.ExperimentConfig(experiment="manifold", samples=samples, seed=2,
                                       topology={"name": "complete", "n": 5}, line_model=law)
        per_chunk = ("sample_uniforms", "transform", "operator_norm")
        for cfg, chunks, per_run, also_per_chunk in [
                (fig1, 2 * workers, {"incidence_matrix": 1}, ()),
                (manifold, workers, {"distance_bound": 1},
                 ("weighted_laplacians", "projection_distance", "distance_bound"))]:
            want = eh.run_experiment(cfg).records
            calls = []
            with monkeypatch.context() as mp:
                for owner, name in [(eh, "sample_rng"), (gc, "sample_er_topology"),
                                    (gc, "incidence_matrix"), (eh, "sample_uniforms"),
                                    (type(cfg.line_model), "transform"),
                                    (eh, "assemble_admittance"), (gc, "weighted_laplacians"),
                                    (eh, "operator_norm"), (eh, "projection_distance"),
                                    (eh, "distance_bound")]:
                    fn = getattr(owner, name)
                    mp.setattr(owner, name,
                               lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
                assert eh.run_experiment(cfg).records == want
            assert collections.Counter(calls) == collections.Counter(per_run) + \
                collections.Counter(dict.fromkeys(per_chunk + also_per_chunk, chunks))


def test_fig1_independent_of_chunking(monkeypatch):
    cfg = eh.ExperimentConfig(experiment="fig1", n=7, samples=15, seed=3,
                              p_grid=(0.2, 0.8))
    whole = eh.run_fig1(cfg).records
    monkeypatch.setattr(eh, "_CHUNK_BYTES", 1)  # one sample per chunk
    assert eh.run_fig1(cfg).records == whole


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

def test_brute_force_all_lines_certain():
    _, model = _k3_model(p=1.0)
    stats = eh.brute_force_distribution(model)
    assert stats.exact
    assert stats.mean == pytest.approx(0.0, abs=1e-15)
    assert stats.tail_at(0.5) == pytest.approx(0.0, abs=1e-15)


def test_brute_force_single_line_half():
    t = gc.Topology(2, [(0, 1)])
    model = bnd.ContingencyModel(t, np.array([0.5]), np.array([1.0 + 0j]))
    stats = eh.brute_force_distribution(model)
    # ||(xi - 1/2) E_01|| = 1 for either switch state
    np.testing.assert_allclose(stats.norms, 1.0, atol=1e-12)
    assert stats.mean == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose([stats.tail_at(0.5), stats.tail_at(1.0)], 1.0)
    assert stats.tail_at(1.0 + 1e-9) == pytest.approx(0.0, abs=1e-15)


def test_brute_force_probabilities_sum_to_one():
    rng = np.random.default_rng(81)
    t = gc.sample_er_topology(5, 0.7, rng)
    model = bnd.ContingencyModel(t, rng.uniform(0.1, 0.9, t.n_edges),
                                 rng.uniform(0.2, 1.0, t.n_edges).astype(complex))
    stats = eh.brute_force_distribution(model)
    assert stats.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(stats.norms) == 2 ** t.n_edges


def test_brute_force_line_cap():
    t = gc.complete_topology(7)  # 21 lines
    model = bnd.ContingencyModel(t, np.full(21, 0.5), np.ones(21, dtype=complex))
    with pytest.raises(ValueError, match="capped"):
        eh.brute_force_distribution(model)


def test_brute_force_k3_expectation_below_bound():
    _, model = _k3_model()
    stats = eh.brute_force_distribution(model)
    explicit = bnd.thm2_expectation_bound(bnd.contingency_factors(model))
    assert stats.mean <= explicit
    assert stats.mean == pytest.approx(1.5, abs=1e-9)


_K4 = gc.complete_topology(4)  # 6 lines, 64 patterns
_REAL_Y = np.linspace(0.3, 1.0, 6).astype(complex)
_MIXED_Y = np.array([0.6 - 0.8j, 1.0, 0.5 - 0.5j, 0.3 - 0.9j, 0.9, 0.2 - 0.7j])
_MIXED_P = np.linspace(0.2, 0.8, 6)
# (probs, admittances, whether the enumeration takes no shortcut)
_ENUMERATION_MODELS = {
    "half_real": (np.full(6, 0.5), _REAL_Y, False),  # eigensolver and half
    "half_complex": (np.full(6, 0.5), _MIXED_Y, False),  # half only
    "mixed_p_real": (_MIXED_P, _REAL_Y, False),  # eigensolver only
    "mixed_p_complex": (_MIXED_P, _MIXED_Y, True),  # neither
}


def _reference_norms(model):
    """Every pattern's own complex matrix, normed one by one (complex SVD)."""
    m = model.topology.n_edges
    patterns = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    coeff = (patterns - model.probs) * model.admittances
    return np.array([operator_norm(gc.weighted_laplacians(model.topology, c)) for c in coeff])


@pytest.mark.parametrize("name", sorted(_ENUMERATION_MODELS))
def test_brute_force_norms_match_complex_reference(name):
    probs, y, bit_equal = _ENUMERATION_MODELS[name]
    model = bnd.ContingencyModel(_K4, probs, y)
    norms = eh.brute_force_distribution(model).norms
    reference = _reference_norms(model)
    if bit_equal:
        np.testing.assert_array_equal(norms, reference)
    else:
        np.testing.assert_allclose(norms, reference, rtol=1e-14, atol=0)
    if np.all(probs == 0.5):  # pattern 2^m - 1 - k is the complement of k
        np.testing.assert_array_equal(norms, norms[::-1])


@pytest.mark.parametrize("workers", [5, 7, 9])
def test_brute_force_independent_of_chunking_across_half(monkeypatch, workers):
    # An odd number of even chunks of the 64 patterns cuts them off the half at 32. At
    # p = 1/2 only the 32 patterns below it are built, in `workers` chunks, and the rest
    # mirrored; at any other p all 64 are built, and a chunk straddles the half.
    half = bnd.ContingencyModel(_K4, np.full(6, 0.5), _MIXED_Y)
    whole = eh.brute_force_distribution(half)
    monkeypatch.setattr(eh, "_workers", lambda: workers)
    chunks, ranges = eh._chunks, []
    monkeypatch.setattr(eh, "_chunks", lambda total, row_bytes, order, chunk: chunks(
        total, row_bytes, order, lambda *span: ranges.append(span) or chunk(*span)))
    chunked = eh.brute_force_distribution(half)
    cuts = sorted(ranges)
    assert len(cuts) == workers and cuts[0][0] == 0 and cuts[-1][1] == 32
    assert all(stop == start for (_, stop), (start, _) in zip(cuts, cuts[1:]))
    np.testing.assert_array_equal(chunked.norms, whole.norms)
    patterns = (np.arange(64)[:, None] >> np.arange(6)) & 1
    product = np.prod(np.where(patterns == 1, half.probs, 1.0 - half.probs), axis=1)
    assert chunked.probabilities.tobytes() == product.tobytes()
    assert chunked.mean == whole.mean
    ranges.clear()
    eh.brute_force_distribution(bnd.ContingencyModel(_K4, _MIXED_P, _MIXED_Y))
    assert sum(stop - start for start, stop in ranges) == 64
    assert any(start < 32 < stop for start, stop in ranges)


# ---------------------------------------------------------------------------
# tail / expectation experiments
# ---------------------------------------------------------------------------

def test_tail_experiment_empty_grid():
    cfg = eh.ExperimentConfig(experiment="thm2_tail", t_grid=())
    result = eh.run_tail_experiment(cfg)
    assert result.records == []
    assert result.bounds_ok


def test_tail_experiment_matches_brute_force():
    _, model = _k3_model()
    grid = (0.5, 1.0, 1.5, 2.5)
    cfg = eh.ExperimentConfig(experiment="thm2_tail", t_grid=grid)
    result = eh.run_tail_experiment(cfg)
    stats = eh.brute_force_distribution(model)
    for rec, threshold in zip(result.records, grid):
        assert rec["tail_empirical"] == pytest.approx(stats.tail_at(threshold), abs=1e-15)
        assert rec["exact"]
        assert rec["valid"] is (threshold >= math.sqrt(2.0) + 2.0 / 3.0)
        assert rec["tail_bound_clamped"] == min(1.0, rec["tail_bound"])
    assert result.bounds_ok


def test_tail_experiment_default_grid_is_valid_window():
    cfg = eh.ExperimentConfig(experiment="thm2_tail")
    result = eh.run_tail_experiment(cfg)
    assert len(result.records) == 20
    assert all(rec["valid"] for rec in result.records)
    assert all(rec["bound_ok"] for rec in result.records)


def test_tail_experiment_monte_carlo_backend():
    cfg = eh.ExperimentConfig(experiment="thm2_tail", backend="montecarlo",
                              samples=500, seed=3, t_grid=(0.5, 1.0, 2.5))
    result = eh.run_tail_experiment(cfg)
    assert len(result.records) == 3
    for rec in result.records:
        assert 0.0 <= rec["tail_empirical"] <= 1.0
        assert not rec["exact"]
    assert result.bounds_ok


def test_expectation_experiment_exact():
    cfg = eh.ExperimentConfig(experiment="thm2_expectation")
    result = eh.run_expectation_experiment(cfg)
    explicit, with_c = result.records
    assert explicit["form"] == "explicit"
    assert explicit["expectation_empirical"] == pytest.approx(1.5, abs=1e-9)
    assert explicit["expectation_bound"] == pytest.approx(16.374652116591715)
    assert explicit["bound_ok"]
    assert with_c["expectation_bound"] == pytest.approx(5.864590000359378)
    assert result.bounds_ok


# ---------------------------------------------------------------------------
# lcpf and manifold experiments
# ---------------------------------------------------------------------------

def test_lcpf_experiment_p3():
    cfg = eh.ExperimentConfig(experiment="lcpf_bounds", samples=2000, seed=9,
                              topology=gc.path_topology(3), delta=0.1)
    result = eh.run_lcpf_experiment(cfg)
    assert result.bounds_ok
    first = result.records[0]
    assert first["expectation_bound"] == pytest.approx(1.0065341232727072)
    assert first["mean_norm"] <= first["expectation_bound"]
    for rec in result.records:
        assert rec["tail_empirical"] <= rec["tail_bound_slack4"]


def test_lcpf_experiment_zero_delta():
    cfg = eh.ExperimentConfig(experiment="lcpf_bounds", samples=50, delta=0.0,
                              topology=gc.path_topology(3), t_grid=(0.1, 0.5))
    result = eh.run_lcpf_experiment(cfg)
    assert result.bounds_ok
    for rec in result.records:
        assert rec["mean_norm"] == 0.0
        assert rec["tail_empirical"] == 0.0
        assert rec["tail_bound"] == 0.0


def test_lcpf_and_monte_carlo_independent_of_chunking(monkeypatch):
    lcpf_cfg = eh.ExperimentConfig(experiment="lcpf_bounds", samples=60, seed=4,
                                   topology=gc.complete_topology(5), delta=0.2)
    t, model = _k3_model(0.3)
    whole = (eh.run_lcpf_experiment(lcpf_cfg).records,
             eh.monte_carlo_distribution(model, 60, seed=4).norms)
    monkeypatch.setattr(eh, "_CHUNK_BYTES", 1)  # one sample per chunk
    assert eh._chunks(3, eh._row_bytes(t), 3, lambda *r: r) == [(0, 1), (1, 2), (2, 3)]
    assert eh.run_lcpf_experiment(lcpf_cfg).records == whole[0]
    np.testing.assert_array_equal(
        eh.monte_carlo_distribution(model, 60, seed=4).norms, whole[1])


@pytest.mark.parametrize("env,serial", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": " 1 "}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": ""}, False),
])
def test_workers_need_a_serial_blas(monkeypatch, env, serial):
    for var in eh._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert eh._workers() == (len(os.sched_getaffinity(0)) if serial else 1)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunks_spread_a_run_evenly_over_the_workers(monkeypatch, workers):
    monkeypatch.setattr(eh, "_workers", lambda: workers)
    row_bytes = eh._row_bytes(gc.complete_topology(3))
    if workers == 2:  # switching_mc: 20000 K3 samples in chunks of at most 8192 rows
        assert eh._chunks(20000, row_bytes, 3, lambda *r: r) == [
            (0, 5000), (5000, 10000), (10000, 15000), (15000, 20000)]
    # A 12-row budget, shared by the workers: 9, 18 or 27 chunks of 100 rows. Order 501:
    # one row's norm drops the GIL, so the budget holds every worker.
    monkeypatch.setattr(eh, "_CHUNK_BYTES", 12 * row_bytes)
    ranges, threads = [], []  # Thread objects: a joined thread's ident may be reused
    for start, stop, thread in eh._chunks(100, row_bytes, 501, lambda start, stop: (
            start, stop, threading.current_thread())):
        ranges.append((start, stop))
        threads.append(thread)
    assert len(ranges) == 9 * workers
    assert [start for start, _ in ranges[1:]] == [stop for _, stop in ranges[:-1]]
    assert ranges[0][0] == 0 and ranges[-1][1] == 100
    assert {stop - start for start, stop in ranges} <= {100 // len(ranges), -(-100 // len(ranges))}
    assert max(stop - start for start, stop in ranges) <= 12 // workers
    # Dealt round robin: chunk i runs on thread i mod workers, thread 0 the caller.
    assert threads == threads[:workers] * 9
    assert len(set(threads)) == workers and threads[0] is threading.current_thread()


def test_chunks_raise_an_error_from_any_chunk(monkeypatch):
    monkeypatch.setattr(eh, "_workers", lambda: 3)
    for bad in [(0,), (1,), (2,), (1, 2)]:
        def chunk(start, stop, bad=bad, chunk_2_ended=threading.Event()):
            if start == 3 and 2 in bad:
                chunk_2_ended.wait(10)  # the first failing chunk in range order fails last
            try:
                if start // 3 in bad:
                    raise np.linalg.LinAlgError(f"chunk {start // 3}")
                return start
            finally:
                if start == 6:
                    chunk_2_ended.set()
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match=f"chunk {bad[0]}"):
            eh._chunks(9, 1, 1, chunk)
        assert threading.active_count() == before  # every chunk thread joined
    assert eh._chunks(9, 1, 1, chunk=lambda start, stop: start) == [0, 3, 6]


def test_chunks_start_no_chunk_after_an_error(monkeypatch):
    # 10 one-row chunks on 2 workers. Chunk 1 fails in the started thread once the
    # caller is in chunk 0, which waits for that thread to end: then neither runs another.
    monkeypatch.setattr(eh, "_workers", lambda: 2)
    before, ran, in_chunk_0 = threading.active_count(), [], threading.Event()

    def chunk(start, stop):
        ran.append(start)
        if start == 1:
            in_chunk_0.wait(10)
            raise KeyboardInterrupt
        in_chunk_0.set()
        for _ in range(10_000):
            if threading.active_count() == before:
                break
            time.sleep(0.001)
    with pytest.raises(KeyboardInterrupt):
        eh._chunks(10, 1, 501, chunk, most=1)
    assert sorted(ran) == [0, 1]
    assert threading.active_count() == before


def test_chunks_cut_workers_to_what_the_budget_holds(monkeypatch):
    # Each worker needs its worker_bytes plus the rows of one norm call that outputs
    # over 500 numbers (and so drops the GIL) within _CHUNK_BYTES.
    monkeypatch.setattr(eh, "_workers", lambda: 3)
    path = gc.path_topology(300)
    for order, want in [(300, 1), (600, 2)]:  # thm2_*, and lcpf_bounds
        threads = eh._chunks(4, eh._row_bytes(path), order, lambda *r: threading.current_thread())
        assert len(set(threads)) == want
    monkeypatch.setattr(eh, "_CHUNK_BYTES", 12)
    for order, worker_bytes, want in [(501, 0, 3), (300, 0, 3), (100, 0, 2), (50, 0, 1),
                                      (501, 3, 3), (501, 5, 2), (501, 11, 1)]:
        threads = eh._chunks(60, 1, order, lambda *r: threading.current_thread(),
                             worker_bytes=worker_bytes)
        assert len(set(threads)) == want, (order, worker_bytes)
        assert len(threads) == 60 // (12 // want)  # each worker's share of the 12 rows


_THREADED_RUNS = {
    "fig1": {"n": 8, "samples": 120, "p_grid": [0.3, 0.9], "seed": 3},
    "thm2_tail": {"topology": {"name": "complete", "n": 4}, "probs": 0.4},
    "thm2_expectation": {"backend": "montecarlo", "samples": 500, "seed": 6,
                         "topology": {"name": "complete", "n": 4}, "admittances": [0.5, 0.3]},
    "lcpf_bounds": {"samples": 300, "seed": 1, "topology": {"name": "complete", "n": 5}},
    "manifold": {"samples": 30, "seed": 5, "topology": {"name": "complete", "n": 5}},
    "bruteforce": {"topology": {"name": "complete", "n": 4}},
}


@pytest.mark.parametrize("experiment", sorted(_THREADED_RUNS))
def test_chunk_threads_emit_the_same_table(monkeypatch, experiment):
    # Each sample's stream and matrix depend on its index alone, so neither the cut
    # of a run into chunks nor the thread a chunk runs on shows in its table.
    cfg = eh.ExperimentConfig.from_dict({"experiment": experiment, **_THREADED_RUNS[experiment]})
    tables = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(eh, "_workers", lambda: workers)
        tables.append(eh.emit(eh.run_experiment(cfg), "csv"))
    assert tables[1] == tables[0] and tables[2] == tables[0]


def _traced_peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lcpf_and_monte_carlo_memory_is_not_per_line():
    # A dense per-line basis takes m*n^2 floats: 1.6 GB for each lifted K100
    # stack, 51 MB for K60. Three samples' matrices need a few MB.
    limit = 16 * 2 ** 20
    lcpf_cfg = eh.ExperimentConfig(experiment="lcpf_bounds", samples=3, seed=1,
                                   topology=gc.complete_topology(100), delta=0.1)
    assert _traced_peak_bytes(lambda: eh.run_lcpf_experiment(lcpf_cfg)) < limit
    k60 = gc.complete_topology(60)
    model = bnd.ContingencyModel(k60, np.full(k60.n_edges, 0.5),
                                 np.ones(k60.n_edges, dtype=complex))
    assert _traced_peak_bytes(
        lambda: eh.monte_carlo_distribution(model, 3, seed=1)) < limit


def test_fig1_memory_is_chunked(monkeypatch):
    # 400 samples of 60 x 60 complex matrices are 23 MB as one stack; with a
    # 4 MiB chunk budget the stack, the per-sample incidence products and
    # the records stay under the same 16 MiB limit.
    monkeypatch.setattr(eh, "_CHUNK_BYTES", 4 * 2 ** 20)
    cfg = eh.ExperimentConfig(experiment="fig1", n=60, samples=400, seed=1, p_grid=(0.5,))
    assert 400 * 16 * 60 ** 2 > 16 * 2 ** 20
    assert _traced_peak_bytes(lambda: eh.run_fig1(cfg)) < 16 * 2 ** 20


def test_fig1_budget_counts_each_workers_incidence_product(monkeypatch):
    # At n = 60 one sample's incidence product, two complex (1770, 60) arrays, takes
    # 3.4 MB: 16 MiB hold it and a GIL-free norm call's rows for 3 workers, 4 MiB for 1.
    monkeypatch.setattr(eh, "_workers", lambda: 3)
    norm, threads = eh.operator_norm, set()
    monkeypatch.setattr(eh, "operator_norm",
                        lambda ys: threads.add(threading.current_thread()) or norm(ys))
    cfg = eh.ExperimentConfig(experiment="fig1", n=60, samples=40, seed=1, p_grid=(0.5,))
    for budget, workers in [(16 * 2 ** 20, 3), (4 * 2 ** 20, 1)]:
        monkeypatch.setattr(eh, "_CHUNK_BYTES", budget)
        threads.clear()
        eh.run_fig1(cfg)
        assert len(threads) == workers and threading.current_thread() in threads


def test_manifold_chunk_memory_is_its_rows(monkeypatch):
    # A dense per-line basis takes m*n^2 complex numbers, 790 MB on K100. A manifold chunk
    # holds its rows: the complex stack, its C-order copy and the line weights, 16 (2 n^2 + m)
    # bytes a sample. Each run follows one that fills the scatter's cached rounds.
    monkeypatch.setattr(eh, "_workers", lambda: 1)
    for topology in (gc.complete_topology(100), gc.path_topology(200)):
        cfg = eh.ExperimentConfig(experiment="manifold", samples=3, seed=1, topology=topology)
        eh.run_manifold_experiment(cfg)
        peak = _traced_peak_bytes(lambda: eh.run_manifold_experiment(cfg))
        rows = 3 * 16 * (2 * topology.n_nodes ** 2 + topology.n_edges)
        assert peak < eh._CHUNK_BYTES
        assert rows <= peak < 1.05 * rows, (topology.n_nodes, peak / rows)


def test_manifold_sphere_chunk_peaks_within_the_budget(monkeypatch):
    # One full K100 chunk of 42 rows under the sphere law. Its transform's temporaries
    # (the uniforms, logs, radii, angles, normals and their squared cumsum), live at once,
    # took the chunk to 1.19 of the budget; the disk law's chunk peaks at 0.999 of it.
    monkeypatch.setattr(eh, "_workers", lambda: 1)
    topology = gc.complete_topology(100)
    rows = eh._CHUNK_BYTES // (16 * (2 * 100 ** 2 + topology.n_edges))
    cfg = eh.ExperimentConfig(experiment="manifold", samples=rows, seed=1, topology=topology,
                              line_model={"kind": "sphere"})
    eh.run_manifold_experiment(cfg)  # fills the scatter's cached rounds
    assert _traced_peak_bytes(lambda: eh.run_manifold_experiment(cfg)) < eh._CHUNK_BYTES


def test_manifold_on_a_300_bus_path_norms_in_two_threads(monkeypatch):
    # A worker's share of the budget holds the 2 rows of a GIL-free 300 x 300 norm call.
    monkeypatch.setattr(eh, "_workers", lambda: 2)
    norm, threads = eh.operator_norm, []
    monkeypatch.setattr(eh, "operator_norm",
                        lambda ys: threads.append(threading.current_thread()) or norm(ys))
    cfg = eh.ExperimentConfig(experiment="manifold", samples=4, seed=1,
                              topology=gc.path_topology(300))
    eh.run_manifold_experiment(cfg)
    assert len(threads) == 2 and len(set(threads)) == 2


def _manifold_per_sample(cfg):
    # Reference: each sample's own generator, assembled matrix and norm call.
    law, m = cfg.line_model, cfg.topology.n_edges
    u_flat = np.ones(cfg.topology.n_nodes, dtype=complex)
    rows = []
    for s in range(cfg.samples):
        rng = eh.sample_rng(cfg.seed, 0, s)
        y = assemble_admittance(cfg.topology, law.transform(rng.random((m, law.draws))))
        y_norm = operator_norm(y)
        residual_cert = 3.0 * projection_distance(y, u_flat, cfg.h)
        holder_cert = distance_bound(cfg.h, y_norm)
        rows.append({"sample_index": s, "y_norm": y_norm,
                     "residual_certificate": residual_cert, "holder_certificate": holder_cert,
                     "residual_ok": bool(residual_cert <= holder_cert + 1e-12)})
    return rows


@pytest.mark.parametrize("law", _FIG1_LAWS, ids=lambda law: law["kind"])
def test_manifold_bit_equal_per_sample_reference(monkeypatch, law):
    # One chunk of 30 rows, then five of 6 rows (30 spread evenly over ceil(30 / 7) chunks)
    # under a budget of 7 of manifold's rows: the complex stack, its C-order copy and the
    # K5 line weights. A real step at node 0 makes every product Y h exact; a complex step
    # at every node makes it a dense product, which rounds by the layout of the stack.
    budgets = (eh._CHUNK_BYTES, 7 * 16 * (2 * 5 ** 2 + 10))
    for h in (0.2, [[0.1, -0.05], [0.03, 0.07], [-0.08, 0.02], [0.0, 0.06], [0.05, -0.04]]):
        cfg = eh.ExperimentConfig(experiment="manifold", samples=30, seed=5, h=h,
                                  topology={"name": "complete", "n": 5}, line_model=law)
        reference = _manifold_per_sample(cfg)
        if law["kind"] != "fixed":  # the norms vary by sample, so a shifted stream shows
            assert len({row["y_norm"] for row in reference}) > 1
        for budget in budgets:
            monkeypatch.setattr(eh, "_CHUNK_BYTES", budget)
            records = eh.run_manifold_experiment(cfg).records
            assert [{key: rec[key] for key in row} for rec, row in zip(records, reference)] \
                == reference
            assert len(records) == len(reference)
            mean_cert = float(np.mean([row["holder_certificate"] for row in reference]))
            assert {rec["mean_certificate"] for rec in records} == {mean_cert}


def test_manifold_experiment_small():
    cfg = eh.ExperimentConfig(experiment="manifold", samples=50, seed=2,
                              topology=gc.path_topology(3), h=0.1)
    result = eh.run_manifold_experiment(cfg)
    assert result.bounds_ok
    for rec in result.records:
        assert rec["residual_certificate"] <= rec["holder_certificate"] + 1e-12
        assert rec["residual_ok"]
    assert result.records[0]["mean_certificate"] <= result.records[0]["analytic_bound"]


def test_bruteforce_experiment_runner():
    cfg = eh.ExperimentConfig(experiment="bruteforce", t_grid=(0.0, 1.0, 2.0))
    result = eh.run_bruteforce(cfg)
    assert [rec["t"] for rec in result.records] == [0.0, 1.0, 2.0]
    assert all(rec["n_patterns"] == 8 for rec in result.records)
    assert result.records[0]["tail_exact"] == 1.0


@pytest.mark.parametrize("ulps", [-1.0, 0.0, 1.0])
def test_bruteforce_default_grid_ends_below_the_largest_norm(monkeypatch, ulps):
    # All eight default K3 norms are 1.5 in exact arithmetic, and round-off spreads
    # them by a few ulps. The default grid stops short of the largest norm, so no
    # row's tail depends on which side of t round-off puts a tied norm.
    norm = eh.operator_norm

    def shifted(a):  # every norm one ulp up or down, or unchanged
        out = norm(a)
        return np.nextafter(out, out + ulps)

    monkeypatch.setattr(eh, "operator_norm", shifted)
    records = eh.run_bruteforce(eh.ExperimentConfig(experiment="bruteforce")).records
    assert len(records) == 20 and records[0]["t"] == 0.0
    assert [rec["tail_exact"] for rec in records] == [1.0] * 20


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_empty_table_header_only():
    text = eh.emit(eh.RunResult([], ["a", "b"]), "csv", None)
    assert text == "a,b\n"


def test_emit_csv_round_trip_17_digits():
    rec = {"x": 1.0 / 3.0, "y": -2.5e-17, "n": 7, "flag": True, "name": "a,b"}
    text = eh.emit(eh.RunResult([rec], list(rec)), "csv", None)
    header, row = text.strip().split("\n")
    assert header == "x,y,n,flag,name"
    cells = row.split(",")
    assert float(cells[0]) == rec["x"]
    assert float(cells[1]) == rec["y"]
    assert int(cells[2]) == 7
    assert cells[3] == "true"
    assert cells[4] + "," + cells[5] == '"a,b"'


def test_emit_json_round_trip():
    rec = {"x": 0.1 + 0.2, "n": 3, "flag": False, "empty": None}
    text = eh.emit(eh.RunResult([rec], list(rec)), "json", None)
    back = json.loads(text)
    assert back == [{"x": 0.30000000000000004, "n": 3, "flag": False, "empty": None}]


def test_emit_csv_cells_pinned():
    # Bytes written by the per-cell formatter before it was batched: numpy
    # scalars, signed zeros, tiny, huge and infinite floats, big ints, quoting.
    records = [
        {"a": None, "b": True, "c": np.bool_(False), "d": np.float64(-0.0), "e": 1e-300,
         "f": np.int64(3), "g": "x,y", "h": 'say "hi"', "i": "two\nlines", "j": "cr\rhere"},
        {"a": 0.1, "b": False, "c": np.bool_(True), "d": -1.5e300, "e": math.inf, "f": 7,
         "g": "", "h": np.float32(0.1), "i": 2 ** 70, "j": "plain"},
    ]
    text = eh.emit(eh.RunResult(records, [*"abcdefghij", 'k,"']), "csv", None)
    assert text == (
        'a,b,c,d,e,f,g,h,i,j,"k,"""\n'
        ',true,false,-0,1e-300,3,"x,y","say ""hi""","two\nlines","cr\rhere",\n'
        '0.10000000000000001,false,true,-1.5000000000000001e+300,inf,7,,'
        '0.10000000149011612,1180591620717411303424,plain,\n')


def test_emit_to_file(tmp_path):
    path = tmp_path / "out.csv"
    assert eh.emit(eh.RunResult([{"a": 1.5}], ["a"]), "csv", path) is None
    assert path.read_text() == "a\n1.5\n"


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        eh.emit(eh.RunResult([], []), "xml", None)


def test_experiment_output_byte_identical(tmp_path):
    cfg = eh.ExperimentConfig(experiment="thm2_tail", seed=42)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = eh.run_experiment(cfg)
    eh.emit(r1, "csv", out1)
    r2 = eh.run_experiment(cfg)
    eh.emit(r2, "csv", out2)
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_success_stdout(capsys):
    assert cli.main(["bruteforce"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t,tail_exact,mean_norm,n_patterns")


def test_cli_success_with_config_and_out(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "topology": {"name": "complete", "n": 3},
        "probs": 0.5,
        "admittances": 1.0,
        "t_grid": [2.5, 3.0],
    }))
    out_path = tmp_path / "tail.csv"
    code = cli.main(["thm2_tail", "--config", str(cfg_path),
                     "--out", str(out_path), "--assert-bounds"])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 grid points


def test_cli_config_error_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    assert cli.main(["fig1", "--config", str(bad)]) == 1
    assert cli.main(["fig1", "--config", str(tmp_path / "missing.json")]) == 1
    not_json = tmp_path / "not.json"
    not_json.write_text("{")
    assert cli.main(["fig1", "--config", str(not_json)]) == 1


# Config files that cannot be read as a JSON object; None is a directory.
BAD_CONFIG_FILES = {"not_utf8.json": b"\xff{}", "deep.json": b"[" * 100_000,
                    "truncated.json": b'{"n": ', "list.json": b"[1, 2]", "directory": None}


@pytest.mark.parametrize("name", BAD_CONFIG_FILES)
def test_cli_unreadable_config_file_is_config_error(tmp_path, capsys, name):
    path = tmp_path / name
    content = BAD_CONFIG_FILES[name]
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert cli.main(["fig1", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert name in err or name == "list.json"  # a list reads fine; the schema rejects it


@pytest.mark.parametrize("experiment,config,field", [
    ("lcpf_bounds", {"delta": float("nan")}, "delta"),
    ("lcpf_bounds", {"delta": "0.1"}, "delta"),
    ("lcpf_bounds", {"samples": 2.5}, "samples"),
    ("lcpf_bounds", {"seed": "abc"}, "seed"),
    ("lcpf_bounds", {"center_g": 1.0}, "center_g"),
    ("thm2_tail", {"probs": float("nan")}, "probs"),
    ("thm2_tail", {"probs": [0.5, float("nan"), 0.5]}, "probs"),
    ("thm2_tail", {"probs": "abc"}, "probs"),
    ("thm2_tail", {"admittances": float("nan")}, "admittances"),
    ("thm2_tail", {"t_grid": [1.0, float("nan")]}, "t_grid"),
    ("thm2_tail", {"backend": "montecarlo", "samples": True}, "samples"),
    ("fig1", {"n": True}, "n"),
    ("fig1", {"seed": False}, "seed"),
    ("fig1", {"line_model": {"kind": "fixed", "admittance": [1]}}, "line_model"),
    ("fig1", {"line_model": {"kind": "fixed", "admittance": [float("nan"), 0]}}, "line_model"),
    ("fig1", {"line_model": {"kind": "fixed", "admittance": [True, False]}}, "line_model"),
    ("fig1", {"line_model": "disk"}, "line_model"),
    ("fig1", {"line_model": {"kind": "bounded", "center_g": 1.0, "center_b": -1.0,
                             "delta": 0.1}}, "line_model"),
    ("manifold", {"line_model": {"kind": "sphere", "radius_sq": 2.0}}, "line_model"),
    ("thm2_tail", {"topology": {"name": "path", "n": 3}, "admittances": [0.5, 0.6]},
     "admittances"),
    ("thm2_tail", {"admittances": True}, "admittances"),
    ("thm2_tail", {"admittances": [1.0, True, 1.0]}, "admittances"),
    ("fig1", {"delta": 0.1}, "delta"),
    ("lcpf_bounds", {"topology": {"name": "path", "n": 2.5}}, "topology"),
    ("lcpf_bounds", {"topology": {"name": "path", "n": True}}, "topology"),
    ("lcpf_bounds", {"topology": {"name": "path", "n": "4"}}, "topology"),
    ("lcpf_bounds", {"topology": {"n": 3, "edges": [[0, 1.7]]}}, "topology"),
    ("lcpf_bounds", {"topology": {"name": "path", "n": 3, "reference": 0.9}}, "topology"),
    ("lcpf_bounds", {"topology": {"name": "path", "n": 3, "bogus": 1}}, "topology"),
    ("lcpf_bounds", {"topology": {"name": "path", "n": 3, "edges": [[0, 1]]}}, "topology"),
    ("thm2_tail", {"probs": True}, "probs"),
    ("thm2_tail", {"probs": [True, 0.5, 0.5]}, "probs"),
    ("manifold", {"h": True}, "h"),
    ("manifold", {"h": [[1, 2, 3], [0, 0], [0, 0]]}, "h"),
    ("manifold", {"h": "abc"}, "h"),
    ("manifold", {"h": float("nan")}, "h"),
    ("manifold", {"h": [[float("inf"), 0], [0, 0], [0, 0]]}, "h"),
    ("fig1", {"p_grid": 0.5}, "p_grid"),
    ("thm2_tail", {"t_grid": 0.5}, "t_grid"),
    ("thm2_tail", {"admittances": 2.0}, "admittances"),
    ("fig1", {"n": 4, "samples": 1, "out": 1}, "out"),
    ("fig1", {"n": 4, "samples": 1, "out": 3}, "out"),
    ("thm2_tail", {"backend": "bruteforce", "samples": 5}, "samples"),
    # each bound takes t >= 0; the verdict of lcpf_bounds needs a row to sit in
    ("thm2_tail", {"t_grid": [-1.0, 0.5]}, "t_grid"),
    ("lcpf_bounds", {"t_grid": [-1.0, 0.5]}, "t_grid"),
    ("lcpf_bounds", {"t_grid": []}, "t_grid"),
    # per-unit fields: a step or noise bound above 1 overflows the certificates or the grid
    ("manifold", {"h": 1e200}, "h"),
    ("manifold", {"h": [0.0, [0.0, 2.0], 0.0]}, "h"),
    ("lcpf_bounds", {"delta": 1e308}, "delta"),
    # the slack bus is not part of the graph: a "reference" key is unknown
    ("lcpf_bounds", {"topology": {"name": "path", "n": 4, "reference": 2}}, "topology"),
    # a JSON integer beyond the float range is not a finite number
    ("lcpf_bounds", {"delta": 10 ** 400}, "delta"),
    ("fig1", {"p_grid": [0.5, 10 ** 400]}, "p_grid"),
    ("thm2_tail", {"t_grid": [-10 ** 400]}, "t_grid"),
    ("thm2_tail", {"admittances": [0.5, 10 ** 400]}, "admittances"),
    ("manifold", {"h": 10 ** 400}, "h"),
    ("manifold", {"line_model": {"kind": "bounded", "center_g": 10 ** 400,
                                 "center_b": 0.0, "delta": 0.1}}, "line_model"),
    # a value outside its choices, given in the file rather than as an option
    ("fig1", {"format": "xml"}, "format"),
    ("thm2_tail", {"backend": "gpu"}, "backend"),
    # a per-line or per-node list of the wrong length (K3: 3 lines; P3: 3 nodes)
    ("thm2_tail", {"probs": [0.5, 0.5]}, "probs"),
    ("thm2_tail", {"admittances": [1.0, 1.0, 1.0, 1.0]}, "admittances"),
    ("manifold", {"h": [0.1, 0.1]}, "h"),
    # K8's 28 lines are past the enumeration cap of the default bruteforce backend
    ("thm2_tail", {"topology": {"name": "complete", "n": 8}}, "topology"),
    ("lcpf_bounds", {"topology": {"n": 3, "edges": [[0, 1, 2]]}}, "topology"),
    # parsed, but it cannot be opened for writing once the run is done
    ("fig1", {"n": 4, "samples": 1, "out": "."}, "out"),
])
def test_cli_invalid_field_is_config_error(tmp_path, capsys, experiment, config, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))  # NaN is written as the JSON token NaN
    assert cli.main([experiment, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} ")


@pytest.mark.parametrize("experiment,config", [
    ("thm2_tail", {"t_grid": [1.7e308]}),
    ("thm2_tail", {"t_grid": [1.7e308], "backend": "montecarlo", "samples": 100}),
    ("lcpf_bounds", {"t_grid": [1.7e308], "delta": 1.0}),
])
def test_cli_tail_bound_at_the_largest_threshold_is_zero(tmp_path, capsys, experiment, config):
    # The exponent's denominator overflows to inf there; the bound is its limit 0.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main([experiment, "--config", str(cfg_path), "--assert-bounds"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    assert dict(zip(header.split(","), row.split(",")))["tail_bound"] == "0"


_UNIT_LAWS = [
    {"kind": "disk"},
    {"kind": "fixed", "admittance": [0.6, -0.8]},
    {"kind": "bernoulli", "admittance": [0.6, -0.8], "p": 0.5},
    {"kind": "bounded", "center_g": 0.5, "center_b": -0.5, "delta": 0.2},
    {"kind": "sphere", "radius_sq": 0.5},
]


@pytest.mark.parametrize("law", _UNIT_LAWS, ids=[law["kind"] for law in _UNIT_LAWS])
@pytest.mark.parametrize("experiment,config,rows", [
    # p = 0 draws topologies without lines
    ("fig1", {"n": 6, "samples": 3, "p_grid": [0.0, 0.5]}, 6),
    ("manifold", {"topology": {"name": "complete", "n": 4}, "samples": 3}, 3),
])
def test_cli_accepts_every_line_law(tmp_path, experiment, config, rows, law):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**config, "line_model": law}))
    out = tmp_path / "out.csv"
    assert cli.main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 1 + rows


def test_admittance_forms():
    assert complex_from_json([0.6, -0.8]) == 0.6 - 0.8j
    with pytest.raises(ValueError, match="pair"):
        complex_from_json([0.6, -0.8, 0.0])

    def parsed(admittances, n_nodes):  # a path: n_nodes - 1 lines
        return eh.ExperimentConfig(experiment="thm2_tail", admittances=admittances,
                                   topology=gc.path_topology(n_nodes)).admittances

    np.testing.assert_array_equal(parsed(1.0, 3), [1.0, 1.0])
    np.testing.assert_array_equal(parsed([0.6, -0.8], 4), np.full(3, 0.6 - 0.8j))
    np.testing.assert_array_equal(parsed([[0.5, 0], [0.6, 0]], 3), [0.5, 0.6])
    np.testing.assert_array_equal(parsed([0.5, [0.6, -0.1]], 3), [0.5, 0.6 - 0.1j])
    with pytest.raises(eh.ConfigError, match="ambiguous"):
        parsed([0.5, 0.6], 3)


def test_cli_unknown_experiment_exit_1(capsys):
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()


def test_verdict_is_read_from_the_ok_cells():
    rows = [{"t": 0.0}, {"bound_ok": None}, {"tail_ok": True, "mean_ok": False},
            {"residual_ok": False}]
    result = eh.RunResult(records=rows, fieldnames=[])
    assert result.failing_rows == [2, 3]  # None is no verdict
    assert not result.bounds_ok
    assert eh.RunResult(records=rows[:2], fieldnames=[]).bounds_ok
    assert eh.RunResult(records=[], fieldnames=[]).bounds_ok


def test_cli_assert_bounds_failure_exit_2(monkeypatch, tmp_path):
    failing = eh.RunResult(records=[{"t": 0.0, "bound_ok": False}], fieldnames=["t", "bound_ok"])
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: failing)
    out = tmp_path / "x.csv"
    assert cli.main(["bruteforce", "--out", str(out), "--assert-bounds"]) == 2
    # without --assert-bounds the failure is reported but exit stays 0
    assert cli.main(["bruteforce", "--out", str(out)]) == 0


@pytest.mark.parametrize("experiment, buses", [("fig1", "n"),
                                                ("lcpf_bounds", "the topology's n")])
def test_cli_out_of_memory_is_config_error(monkeypatch, tmp_path, capsys, experiment, buses):
    # numpy's message for --samples 4294967296 under a 3 GB address-space limit
    numpy_says = "Unable to allocate 32.0 GiB for an array with shape (4294967296,)"

    def run(cfg):
        raise MemoryError(numpy_says)
    monkeypatch.setattr(cli, "run_experiment", run)
    out = tmp_path / "x.csv"
    assert cli.main([experiment, "--samples", "4294967296", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"config error: out of memory; lower samples or {buses}: {numpy_says}\n"
    assert not out.exists()


@pytest.mark.parametrize("samples, rows", [(5, "5 of 5 rows: 0, 1, 2, 3, 4\n"),
                                           (8, "8 of 8 rows: 0, 1, 2, 3, 4 and 3 more\n")])
def test_cli_failure_names_the_failing_rows(tmp_path, capsys, samples, rows):
    # Dense n = 100 grid: every sample's norm exceeds the bound on the mean.
    config = {"n": 100, "p_grid": [1.0], "samples": samples, "seed": 0}
    path, out = tmp_path / "fig1.json", tmp_path / "fig1.csv"
    path.write_text(json.dumps(config))
    assert cli.main(["fig1", "--config", str(path), "--out", str(out), "--assert-bounds"]) == 2
    assert capsys.readouterr().err == f"fig1: dominance check FAILED on {rows}"
    result = eh.run_experiment(eh.ExperimentConfig.from_dict({"experiment": "fig1", **config}))
    assert out.read_text() == eh.emit(result, "csv", None)


def test_cli_seed_and_format_overrides(tmp_path):
    out = tmp_path / "o.json"
    code = cli.main(["thm2_tail", "--seed", "9", "--format", "json",
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert isinstance(payload, list) and payload
