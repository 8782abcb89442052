import collections
import dataclasses
import functools
import itertools
import json
import math
import mmap
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from grid_concentrator import bounds as bnd
from grid_concentrator import cli
from grid_concentrator import experiment_harness as eh
from grid_concentrator import graph_core as gc
from grid_concentrator.admittance import assemble_admittance, complex_from_json
from grid_concentrator.manifold import distance_bound, projection_distance
from grid_concentrator.spectra import operator_norm
from test_golden import _MESH, _MESH_PROBS


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
    assert not result.failing_rows


def test_fig1_p_one_unit_weights():
    # complete-graph Laplacian norm equals n; the bound must still dominate
    cfg = eh.ExperimentConfig(experiment="fig1", n=10, samples=5, p_grid=(1.0,),
                              line_model={"kind": "fixed", "admittance": [1.0, 0.0]})
    result = eh.run_fig1(cfg)
    for rec in result.records:
        assert rec["m"] == 45
        assert rec["norm"] == pytest.approx(10.0, abs=1e-9)
        assert rec["bound"] >= 10.0
    assert not result.failing_rows


def test_fig1_small_sweep_dominance_and_determinism():
    cfg = eh.ExperimentConfig(experiment="fig1", n=12, samples=20,
                              p_grid=(0.2, 0.5, 0.9), seed=5)
    r1 = eh.run_fig1(cfg)
    r2 = eh.run_fig1(cfg)
    assert r1.records == r2.records
    assert not r1.failing_rows
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
        assert (not result.failing_rows) == all(rec["bound_ok"] for rec in reference)
        assert {rec["m"] for rec in result.records if rec["p"] == 0.0} == {0}


@pytest.mark.parametrize("law", _FIG1_LAWS, ids=lambda law: law["kind"])
def test_fig1_draws_per_chunk_not_per_sample(monkeypatch, law):
    # 40 samples make one or two chunks (40 rows, or 20 and 20), 7 samples one of 7 (or 3
    # and 4): a short chunk is drawn by the same vectorized stream as a long one. fig1 and
    # manifold each make one draw, one law transform and one norm call per chunk, and no
    # per-sample generator. manifold also assembles, certifies and Holder-bounds each
    # chunk by one call each, plus one Holder bound for the whole run.
    for chunks_per_sweep, samples in itertools.product((1, 2), (40, 7)):
        most = -(-samples // chunks_per_sweep)
        monkeypatch.setattr(eh, "_FIG1_CHUNK", most)
        monkeypatch.setattr(eh, "_ENUM_CHUNK", most)
        fig1 = eh.ExperimentConfig(experiment="fig1", n=9, samples=samples, seed=2,
                                   p_grid=(0.3, 1.0), line_model=law)
        manifold = eh.ExperimentConfig(experiment="manifold", samples=samples, seed=2,
                                       topology={"name": "complete", "n": 5}, line_model=law)
        per_chunk = ("sample_uniforms", "transform", "operator_norm")
        for cfg, chunks, per_run, also_per_chunk in [
                (fig1, 2 * chunks_per_sweep, {"incidence_matrix": 1}, ()),
                (manifold, chunks_per_sweep, {"distance_bound": 1},
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
    assert stats.tails([0.5]) == [pytest.approx(0.0, abs=1e-15)]


def test_brute_force_single_line_half():
    t = gc.Topology(2, [(0, 1)])
    model = bnd.ContingencyModel(t, np.array([0.5]), np.array([1.0 + 0j]))
    stats = eh.brute_force_distribution(model)
    # ||(xi - 1/2) E_01|| = 1 for either switch state
    np.testing.assert_allclose(stats.norms, 1.0, atol=1e-12)
    assert stats.mean == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(stats.tails([0.5, 1.0]), 1.0)
    assert stats.tails([1.0 + 1e-9]) == [pytest.approx(0.0, abs=1e-15)]


def test_brute_force_probabilities_sum_to_one():
    rng = np.random.default_rng(81)
    t = gc.sample_er_topology(5, 0.7, rng)
    model = bnd.ContingencyModel(t, rng.uniform(0.1, 0.9, t.n_edges),
                                 rng.uniform(0.2, 1.0, t.n_edges).astype(complex))
    stats = eh.brute_force_distribution(model)
    assert stats.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(stats.norms) == 2 ** t.n_edges
    # Each pattern's probability is its lines' factors multiplied from line 0 on, bit for bit.
    mesh = eh.ExperimentConfig(experiment="bruteforce", topology=_MESH, probs=_MESH_PROBS).model
    path13 = gc.path_topology(13)  # 12 lines, no p of 1/2
    for model in (model, mesh, bnd.ContingencyModel(path13, np.linspace(0.05, 0.93, 12),
                                                   np.ones(12, dtype=complex))):
        m = model.topology.n_edges
        bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
        product = np.prod(np.where(bits == 1, model.probs, 1.0 - model.probs), axis=1)
        probs = eh.brute_force_distribution(model).probabilities
        assert probs.tobytes() == product.tobytes()


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


@pytest.mark.parametrize("most", [5, 10, 13])
def test_brute_force_independent_of_chunking_across_half(monkeypatch, most):
    # Chunks of at most 5, 10 or 13 rows cut the 64 patterns into an odd number of even
    # chunks (13, 7 or 5), off the half at 32. At p = 1/2 only the 32 patterns below it
    # are built, in chunks of at most `most`, and the rest mirrored; at any other p all
    # 64 are built, and a chunk straddles the half.
    half = bnd.ContingencyModel(_K4, np.full(6, 0.5), _MIXED_Y)
    whole = eh.brute_force_distribution(half)
    monkeypatch.setattr(eh, "_ENUM_CHUNK", most)
    chunks, ranges = eh._chunks, []
    monkeypatch.setattr(eh, "_chunks", lambda total, row_bytes, order, chunk: chunks(
        total, row_bytes, order, lambda *span: ranges.append(span) or chunk(*span)))
    chunked = eh.brute_force_distribution(half)
    cuts = sorted(ranges)
    assert len(cuts) == -(-32 // most) and cuts[0][0] == 0 and cuts[-1][1] == 32
    assert all(stop == start for (_, stop), (start, _) in zip(cuts, cuts[1:]))
    np.testing.assert_array_equal(chunked.norms, whole.norms)
    patterns = (np.arange(64)[:, None] >> np.arange(6)) & 1
    product = np.prod(np.where(patterns == 1, half.probs, 1.0 - half.probs), axis=1)
    assert chunked.probabilities.tobytes() == product.tobytes()
    assert chunked.mean == whole.mean
    ranges.clear()
    eh.brute_force_distribution(bnd.ContingencyModel(_K4, _MIXED_P, _MIXED_Y))
    assert len(ranges) % 2 == 1 and sum(stop - start for start, stop in ranges) == 64
    assert any(start < 32 < stop for start, stop in ranges)
    # The exact tail path: each chunk decides for itself whether to certify, and the real
    # stacks' tails from their 57th of 64 norms on are the full enumeration's all the same.
    for probs in (np.full(6, 0.5), _MIXED_P):
        real = bnd.ContingencyModel(_K4, probs, _REAL_Y)
        monkeypatch.setattr(eh, "_chunks", chunks)
        full = eh.brute_force_distribution(real)
        floor = float(np.sort(full.norms)[56])
        grid = np.linspace(floor, floor + 2.0, 9)
        monkeypatch.setattr(eh, "_chunks", lambda total, row_bytes, order, chunk: chunks(
            total, row_bytes, order, lambda *span: ranges.append(span) or chunk(*span)))
        tailed = eh.brute_force_distribution(real, _floor=floor)
        assert np.isnan(tailed.norms).any()
        assert tailed.tails(grid) == full.tails(grid)


# ---------------------------------------------------------------------------
# exact tails: patterns certified below the grid's first point are not eigensolved
# ---------------------------------------------------------------------------

_K8_18 = {"n": 8, "edges": [[i, j] for i in range(8) for j in range(i + 1, 8)][:18]}
# Unit admittances of 15 phases, capacitive and inductive: Z is complex symmetric, not a
# complex multiple of a real Z, and its ZZ* differs from Z^2.
_MIXED_PHASES = [[0.6, -0.8], [0.8, 0.6], [0.0, -1.0], [1.0, 0.0], [0.28, -0.96],
                 [0.96, 0.28], [0.6, 0.8], [0.352, -0.936], [0.936, 0.352], [0.8, -0.6],
                 [0.0, 1.0], [0.28, 0.96], [0.96, -0.28], [0.352, 0.936], [0.936, -0.352]]
# (topology, probs, admittances) per thm2_tail config; k8_18 is the bench's switching_exact,
# and k8_18_complex the same lines at one phase. At its default grid star16_p09 norms 99.8%
# of its patterns, the complex mesh 30 of its 32 (its probe takes 2 rows and certifies
# neither) and k6_mixed 2.4% of its 2^14.
_EXACT_TAIL_CONFIGS = {
    "k3": ({"name": "complete", "n": 3}, 0.5, 1.0),
    "p4": ({"name": "path", "n": 4}, 0.5, 1.0),
    "k6_p09": ({"name": "complete", "n": 6}, 0.9, 1.0),
    "k6_mixed": ({"name": "complete", "n": 6}, 0.5, _MIXED_PHASES),
    "star16_p09": ({"name": "star", "n": 16}, 0.9, 1.0),
    "mesh_complex": (_MESH, _MESH_PROBS,
                     [[0.6, -0.8], [0.5, -0.5], [1.0, 0.0], [0.3, -0.9], [0.2, -0.7]]),
    "k8_18": (_K8_18, 0.5, 1.0),
    "k8_18_complex": (_K8_18, 0.5, [0.6, -0.8]),
}


@functools.lru_cache(maxsize=None)
def _exact_tail_config(name):
    """The config at its default grid, and the full enumeration of its model."""
    topology, probs, admittances = _EXACT_TAIL_CONFIGS[name]
    cfg = eh.ExperimentConfig(experiment="thm2_tail", topology=topology, probs=probs,
                              admittances=admittances)
    return cfg, eh.brute_force_distribution(cfg.model)


def _exact_tail_grids(cfg, full):
    """The default grid; grids from an enumerated norm, with 9 in 10 patterns below it, and
    from the float just below that norm; and a grid from 0."""
    norm = float(np.sort(full.norms)[len(full.norms) * 9 // 10])
    return {"default": cfg.t_grid, "at_norm": np.linspace(norm, norm + 3.0, 20),
            "below_norm": np.r_[np.nextafter(norm, 0.0), np.linspace(norm, norm + 3.0, 19)],
            "from_zero": np.linspace(0.0, norm, 20)}


@pytest.mark.parametrize("grid", ["default", "at_norm", "below_norm", "from_zero"])
@pytest.mark.parametrize("name", sorted(_EXACT_TAIL_CONFIGS))
def test_exact_tail_equals_full_enumeration(name, grid):
    cfg, full = _exact_tail_config(name)
    t_grid = _exact_tail_grids(cfg, full)[grid]
    records = eh.run_tail_experiment(dataclasses.replace(cfg, t_grid=t_grid)).records
    assert [rec["tail_empirical"] for rec in records] == full.tails(t_grid)


def _certified_at_or_above(model, floor, full):
    """Patterns certified below ``floor`` whose norm in ``full``, the model's full enumeration,
    reaches it. Every pattern that is normed gets its full-enumeration norm bit for bit."""
    tailed = eh.brute_force_distribution(model, _floor=floor)
    certified = np.isnan(tailed.norms)
    np.testing.assert_array_equal(tailed.norms[~certified], full.norms[~certified])
    return int(np.count_nonzero(full.norms[certified] >= floor))


# P3 with one line far below the other: tr((Z/t)^8) is within round-off of 1 at t = ||Z||.
_NEAR_RANK_ONE = [bnd.ContingencyModel(gc.path_topology(3), [0.5, 0.5],
                                       [0.4625 + k / 80 + 1 / 70, (k + 1) * 2.3e-4])
                  for k in range(40)]


def _near_rank_one_unsound():
    """Certified patterns at or above the floor, each near-rank-one model from each norm."""
    return sum(_certified_at_or_above(model, float(t), full) for model in _NEAR_RANK_ONE
               for full in [eh.brute_force_distribution(model)] for t in np.unique(full.norms))


def test_exact_tail_certificate_is_sound():
    for name in ("k8_18", "k6_mixed"):
        cfg, full = _exact_tail_config(name)
        distinct = np.unique(full.norms)
        for floor in [cfg.t_grid[0], *distinct[len(distinct) // 2::len(distinct) // 8]]:
            assert _certified_at_or_above(cfg.model, float(floor), full) == 0
    assert _near_rank_one_unsound() == 0


@pytest.mark.parametrize("dtype", [float, complex])
def test_exact_tail_certificate_matches_singular_values(dtype):
    # tr((ZZ*/t^2)^4) = sum_i (s_i/t)^8 over Z's singular values s_i. Each symmetric Z is
    # scaled to sum_i s_i^8 = 1, so the floor 0.9^(-1/8) puts the sum at 0.9, which must
    # certify, and 1.1^(-1/8) at 1.1, which must not. 300 matrices span two blocks of rows.
    rng = np.random.default_rng(33)
    for n in (2, 5, 9):
        a = rng.standard_normal((300, n, n))
        if dtype is complex:
            a = a + 1j * rng.standard_normal((300, n, n))
        z = a + np.swapaxes(a, 1, 2)
        s = np.linalg.svd(z, compute_uv=False)
        z /= ((s ** 8).sum(axis=1) ** 0.125)[:, None, None]
        assert eh._certified_below(z, 0.9 ** -0.125).all()
        assert not eh._certified_below(z, 1.1 ** -0.125).any()


def test_exact_tail_soundness_check_has_teeth(monkeypatch):
    monkeypatch.setattr(eh, "_CERT_MARGIN", 0.0)  # round-off at ||Z|| = t certifies
    assert _near_rank_one_unsound() > 0
    monkeypatch.undo()
    certified_below = eh._certified_below
    monkeypatch.setattr(eh, "_certified_below",
                        lambda stack, floor: certified_below(stack, 1.05 * floor))
    cfg, full = _exact_tail_config("k8_18")
    assert _certified_at_or_above(cfg.model, float(cfg.t_grid[0]), full) > 0


def _rows_normed(monkeypatch, process_log):
    """The rows of every operator_norm call from here on, in any process."""
    norm = eh.operator_norm
    monkeypatch.setattr(eh, "operator_norm", lambda a: process_log(len(a)) or norm(a))
    return lambda: sum(rows for _, (rows,) in process_log.read())


def test_exact_tail_eigensolves_only_what_can_reach_the_grid(monkeypatch, process_log):
    # switching_exact builds 2^17 patterns (p = 1/2); 90.5% have norms below the grid.
    cfg, _ = _exact_tail_config("k8_18")
    normed = _rows_normed(monkeypatch, process_log)
    eh.run_tail_experiment(cfg)
    assert 0 < normed() <= 0.13 * (1 << 17)
    for experiment in ("thm2_expectation", "bruteforce"):
        process_log.clear()
        eh.run_experiment(eh.ExperimentConfig(experiment=experiment, topology=_K8_18,
                                              probs=0.5, admittances=1.0))
        assert normed() == 1 << 17


def test_exact_tail_gershgorin_certifies_a_path_without_a_scatter(monkeypatch, process_log):
    # On a path at p = 1/2 every row of Z sums to at most 2 (1/2 per line end), below the
    # default grid's t0 = 2.081: no pattern is scattered or eigensolved, and every tail is
    # the full enumeration's, 0. The 21-bus path builds 2^19 patterns; the full enumeration
    # is taken on the 13-bus path (2^11).
    configs = [eh.ExperimentConfig(experiment="thm2_tail", topology={"name": "path", "n": n},
                                   probs=0.5, admittances=1.0) for n in (13, 21)]
    full = eh.brute_force_distribution(configs[0].model)
    assert full.norms.max() < 2.0
    monkeypatch.setattr(gc, "weighted_laplacians", lambda *args: pytest.fail("scattered"))
    normed = _rows_normed(monkeypatch, process_log)
    for cfg in configs:
        assert cfg.t_grid[0] > 2.08
        tails = [rec["tail_empirical"] for rec in eh.run_tail_experiment(cfg).records]
        assert normed() == 0 and tails == [0.0] * 20
    assert full.tails(configs[0].t_grid) == [0.0] * 20


def test_exact_tail_certifies_complex_stacks(monkeypatch, process_log):
    # Complex stacks take the trace moment too. k6_mixed builds 2^14 patterns (p = 1/2), and
    # Gershgorin's bound (5) certifies none of them below the default grid's 2.90. One phase
    # on every line makes ZZ* the real lines' Z^2: k8_18_complex certifies as k8_18 does.
    normed = _rows_normed(monkeypatch, process_log)
    eh.run_tail_experiment(_exact_tail_config("k6_mixed")[0])
    assert 0 < normed() <= 0.1 * (1 << 14)
    process_log.clear()
    eh.run_tail_experiment(_exact_tail_config("k8_18_complex")[0])
    assert 0 < normed() <= 0.13 * (1 << 17)


@pytest.mark.parametrize("grid", [(), (0.0, 1.0, 2.0)])
def test_exact_tail_grid_empty_or_from_zero_takes_the_full_path(monkeypatch, grid):
    monkeypatch.setattr(eh, "_certified_below", lambda *args: pytest.fail("certified"))
    cfg, full = _exact_tail_config("k3")
    records = eh.run_tail_experiment(dataclasses.replace(cfg, t_grid=np.array(grid))).records
    assert [rec["tail_empirical"] for rec in records] == full.tails(grid)


@pytest.mark.parametrize("grid", [None, (1e-300, 0.5, 1.0)])
def test_exact_tail_degenerate_model(grid):
    # Every line always on or always off: Z = 0 with probability 1. The default grid
    # starts at 0; the patterns of probability 0 still enter the sums.
    cfg = eh.ExperimentConfig(experiment="thm2_tail", probs=[1.0, 0.0, 1.0], t_grid=grid)
    full = eh.brute_force_distribution(cfg.model)
    assert full.mean == 0.0 and (grid or cfg.t_grid[0] == 0.0)
    records = eh.run_tail_experiment(cfg).records
    assert [rec["tail_empirical"] for rec in records] == full.tails(cfg.t_grid)


def test_exact_tail_overflow_never_certifies(monkeypatch):
    # Scaled by 1e300 the products overflow to inf and then NaN: nothing may certify, and
    # numpy must not warn (pyproject.toml turns the package's RuntimeWarnings into errors).
    verdicts, certified_below = [], eh._certified_below
    monkeypatch.setattr(eh, "_certified_below", lambda stack, floor: verdicts.append(
        certified_below(stack, floor)) or verdicts[-1])
    cfg, full = _exact_tail_config("k3")
    grid = np.array([1e-300, 1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = eh.run_tail_experiment(dataclasses.replace(cfg, t_grid=grid)).records
        assert not np.isnan(eh.brute_force_distribution(cfg.model, _floor=1e-300).norms).any()
    assert verdicts and not any(v.any() for v in verdicts)
    assert [rec["tail_empirical"] for rec in records] == full.tails(grid)


# ---------------------------------------------------------------------------
# tail / expectation experiments
# ---------------------------------------------------------------------------

def test_tail_experiment_empty_grid():
    cfg = eh.ExperimentConfig(experiment="thm2_tail", t_grid=())
    result = eh.run_tail_experiment(cfg)
    assert result.records == []
    assert not result.failing_rows


def test_tail_experiment_matches_brute_force():
    _, model = _k3_model()
    grid = (0.5, 1.0, 1.5, 2.5)
    cfg = eh.ExperimentConfig(experiment="thm2_tail", t_grid=grid)
    result = eh.run_tail_experiment(cfg)
    stats = eh.brute_force_distribution(model)
    for rec, threshold, tail in zip(result.records, grid, stats.tails(grid)):
        assert rec["tail_empirical"] == pytest.approx(tail, abs=1e-15)
        assert rec["exact"]
        assert rec["valid"] is (threshold >= math.sqrt(2.0) + 2.0 / 3.0)
        assert rec["tail_bound_clamped"] == min(1.0, rec["tail_bound"])
    assert not result.failing_rows


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
    assert not result.failing_rows


def test_expectation_experiment_exact():
    cfg = eh.ExperimentConfig(experiment="thm2_expectation")
    result = eh.run_expectation_experiment(cfg)
    explicit, with_c = result.records
    assert explicit["form"] == "explicit"
    assert explicit["expectation_empirical"] == pytest.approx(1.5, abs=1e-9)
    assert explicit["expectation_bound"] == pytest.approx(16.374652116591715)
    assert explicit["bound_ok"]
    assert with_c["expectation_bound"] == pytest.approx(5.864590000359378)
    assert not result.failing_rows


# ---------------------------------------------------------------------------
# lcpf and manifold experiments
# ---------------------------------------------------------------------------

def test_lcpf_experiment_p3():
    cfg = eh.ExperimentConfig(experiment="lcpf_bounds", samples=2000, seed=9,
                              topology=gc.path_topology(3), delta=0.1)
    result = eh.run_lcpf_experiment(cfg)
    assert not result.failing_rows
    first = result.records[0]
    assert first["expectation_bound"] == pytest.approx(1.0065341232727072)
    assert first["mean_norm"] <= first["expectation_bound"]
    for rec in result.records:
        assert rec["tail_empirical"] <= rec["tail_bound_slack4"]


def test_lcpf_experiment_zero_delta():
    cfg = eh.ExperimentConfig(experiment="lcpf_bounds", samples=50, delta=0.0,
                              topology=gc.path_topology(3), t_grid=(0.1, 0.5))
    result = eh.run_lcpf_experiment(cfg)
    assert not result.failing_rows
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
    # The real gate, at whatever BLAS threads the suite runs under: a BLAS pool started
    # at import is a second OS thread, and then nothing forks.
    _set_blas_env(monkeypatch, env)
    assert eh._workers() == (_affinity_cpus() if serial and _one_task() else 1)
    # The same process seen with one task, so the variable alone decides.
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path=".": [str(os.getpid())]
                        if path == "/proc/self/task" else listdir(path))
    assert eh._workers() == (_affinity_cpus() if serial else 1)


def _set_blas_env(monkeypatch, env):
    for var in eh._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)


def _affinity_cpus():
    return len(os.sched_getaffinity(0))


def _one_task():
    """True where this process runs one OS thread: no BLAS pool and no Python thread."""
    return len(os.listdir("/proc/self/task")) == 1


def test_workers_are_one_without_procfs(monkeypatch, forks):
    # Every OS but Linux: /proc/self/task cannot be listed, so nothing forks.
    _set_blas_env(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"})

    def no_procfs(path="."):
        raise FileNotFoundError(2, "No such file or directory", path)
    monkeypatch.setattr(os, "listdir", no_procfs)
    assert eh._workers() == 1
    assert eh._chunks(4, 1, 501, lambda start, stop: (start, stop, os.getpid())) == [
        (0, 4, os.getpid())]
    assert forks == []


_MKL_ALONE = """
import os
from grid_concentrator import experiment_harness as eh
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
cfg = eh.ExperimentConfig(experiment="lcpf_bounds", samples=8, seed=1,
                          topology={"name": "path", "n": 100})
eh.run_lcpf_experiment(cfg)
print(eh._workers(), len(os.listdir("/proc/self/task")), len(os.sched_getaffinity(0)),
      len(forks))
"""


def test_workers_are_one_for_mkl_alone_beside_an_openblas_pool():
    # MKL_NUM_THREADS=1 set alone says nothing to OpenBLAS, which starts its pool at import
    # on every CPU of the mask. The gate sees that pool's threads and forks nothing, also
    # on a 100-bus lcpf_bounds run, whose 200 x 200 lifts would fork from one row on.
    env = {key: value for key, value in os.environ.items()
           if key not in {*eh._BLAS_THREAD_VARS, "GOTO_NUM_THREADS"}}
    env.update(MKL_NUM_THREADS="1", PYTHONPATH=os.path.dirname(os.path.dirname(eh.__file__)))
    out = subprocess.run([sys.executable, "-c", _MKL_ALONE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    workers, tasks, cpus, forked = map(int, out.split())
    if tasks > 1:  # a pool runs: on this OpenBLAS, wherever the mask has 2 CPUs or more
        assert (workers, forked) == (1, 0)
    else:
        assert workers == cpus and forked == min(cpus, 4) - 1


def _wait_for(ready, timeout=10.0):
    """Poll ``ready()`` until it is true; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not ready():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def assert_no_child():
    """No child of the test process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunks_spread_a_run_evenly_over_the_workers(monkeypatch, forks, workers):
    monkeypatch.setattr(eh, "_workers", lambda: workers)
    row_bytes = eh._row_bytes(gc.complete_topology(3))
    if workers == 2:  # 20000 K3 rows in chunks of at most 8192 rows
        assert eh._chunks(20000, row_bytes, 3, lambda *r: r) == [
            (0, 5000), (5000, 10000), (10000, 15000), (15000, 20000)]
    # A 12-row budget, shared by the workers: 9, 18 or 27 chunks of 100 rows. Order 501:
    # one row pays for a fork, so the budget holds every worker.
    monkeypatch.setattr(eh, "_CHUNK_BYTES", 12 * row_bytes)
    forks.clear()
    ranges, pids = [], []
    for start, stop, pid in eh._chunks(100, row_bytes, 501, lambda start, stop: (
            start, stop, os.getpid())):
        ranges.append((start, stop))
        pids.append(pid)
    assert len(ranges) == 9 * workers
    assert [start for start, _ in ranges[1:]] == [stop for _, stop in ranges[:-1]]
    assert ranges[0][0] == 0 and ranges[-1][1] == 100
    assert {stop - start for start, stop in ranges} <= {100 // len(ranges), -(-100 // len(ranges))}
    assert max(stop - start for start, stop in ranges) <= 12 // workers
    # Dealt round robin: chunk i runs in worker i mod workers, worker 0 the caller and
    # each further one a child forked for this run.
    assert pids == pids[:workers] * 9
    assert pids[:workers] == [os.getpid(), *forks]
    assert_no_child()


def test_chunks_raise_an_error_from_any_chunk(monkeypatch):
    monkeypatch.setattr(eh, "_workers", lambda: 3)
    for bad in [(0,), (1,), (2,), (1, 2)]:
        # Bytes shared with the children: chunk 1 started, chunk 2 ended. Chunk 2 waits
        # for chunk 1 to start, so that the error of one cannot stop the other.
        def chunk(start, stop, bad=bad, flags=mmap.mmap(-1, 2)):
            if start == 3:
                flags[0] = 1
                if 2 in bad:
                    _wait_for(lambda: flags[1])  # the first failing chunk fails last
            if start == 6 and 1 in bad:
                _wait_for(lambda: flags[0])
            try:
                if start // 3 in bad:
                    raise np.linalg.LinAlgError(f"chunk {start // 3}")
                return start
            finally:
                if start == 6:
                    flags[1] = 1
        with pytest.raises(np.linalg.LinAlgError, match=f"chunk {bad[0]}"):
            eh._chunks(9, 1, 501, chunk)  # order 501: one row pays for a fork
        assert_no_child()  # after an error in the caller's share or in a child
    assert eh._chunks(9, 1, 501, chunk=lambda start, stop: start) == [0, 3, 6]
    assert_no_child()


def test_chunks_start_no_chunk_after_an_error(monkeypatch, process_log):
    # 10 one-row chunks on 2 workers. Chunk 1 fails in the forked child once the caller
    # is in chunk 0, which waits for that child to end: then neither runs another.
    monkeypatch.setattr(eh, "_workers", lambda: 2)
    in_chunk_0 = mmap.mmap(-1, 1)  # shared with the child

    def chunk(start, stop):
        process_log(start)
        if start == 1:
            _wait_for(lambda: in_chunk_0[0])
            raise KeyboardInterrupt
        in_chunk_0[0] = 1
        # Until a child has exited, left unreaped for _chunks (WNOWAIT).
        _wait_for(lambda: os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT))
    with pytest.raises(KeyboardInterrupt):
        eh._chunks(10, 1, 501, chunk, most=1)
    assert sorted(start for _, (start,) in process_log.read()) == [0, 1]
    assert_no_child()


def test_chunks_end_their_children_when_the_caller_is_interrupted(monkeypatch, forks):
    # An interrupt reaches the caller while it reads the pipe of a child that would run for
    # a minute: the child is killed and reaped, and the interrupt raised. The caller's timer
    # is not inherited by the child.
    monkeypatch.setattr(eh, "_workers", lambda: 2)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    def chunk(start, stop):
        if start:
            time.sleep(60)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
        return start
    previous, began = signal.signal(signal.SIGALRM, interrupt), time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            eh._chunks(2, 1, 501, chunk)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1 and time.monotonic() - began < 30
    assert_no_child()


def test_chunks_name_the_signal_that_killed_a_child(monkeypatch):
    monkeypatch.setattr(eh, "_workers", lambda: 2)

    def chunk(start, stop):
        if start:
            os.kill(os.getpid(), signal.SIGKILL)
        return start
    with pytest.raises(RuntimeError, match="killed by SIGKILL"):
        eh._chunks(2, 1, 501, chunk)
    assert_no_child()


def test_chunks_raise_an_unpicklable_error_of_a_child(monkeypatch):
    monkeypatch.setattr(eh, "_workers", lambda: 2)

    def chunk(start, stop):
        if start:
            raise ValueError(lambda: start)  # a lambda does not pickle
        return start
    with pytest.raises(RuntimeError, match="could not be pickled"):
        eh._chunks(2, 1, 501, chunk)
    assert_no_child()


def test_chunks_on_more_workers_than_cpus(monkeypatch, forks, process_log):
    # 5 workers on fewer CPUs: every range once and in order; with failing chunks, the
    # first in range order of those that ran, however the workers interleave; and no
    # child left either way.
    monkeypatch.setattr(eh, "_workers", lambda: 5)
    monkeypatch.setattr(eh, "_CHUNK_BYTES", 5)  # one row per chunk
    assert eh._chunks(60, 1, 501, lambda start, stop: (start, stop)) == [
        (i, i + 1) for i in range(60)]
    assert len(forks) == 4

    def chunk(start, stop):
        process_log(start)
        if start in (17, 23, 41):
            raise np.linalg.LinAlgError(f"chunk {start}")
        return start
    for _ in range(5):
        process_log.clear()
        with pytest.raises(np.linalg.LinAlgError) as raised:
            eh._chunks(60, 1, 501, chunk)
        ran = [start for _, (start,) in process_log.read()]
        assert len(ran) == len(set(ran))  # no chunk twice; the caller may start none
        assert str(raised.value) == f"chunk {min({17, 23, 41} & set(ran))}"
        assert_no_child()


def test_chunks_fork_nothing_beside_another_thread(monkeypatch, forks):
    # A child forked beside a live thread would inherit the locks it holds, with none to
    # release them: with one running, the gate says 1 whatever the BLAS setting.
    _set_blas_env(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"})
    tasks = len(os.listdir("/proc/self/task"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert eh._workers() == 1
        assert eh._chunks(4, 1, 501, lambda start, stop: (start, stop, os.getpid())) == [
            (0, 4, os.getpid())]
    finally:
        release.set()
        thread.join()
    assert forks == []
    # A joined thread's task can outlive the join by a moment.
    _wait_for(lambda: len(os.listdir("/proc/self/task")) == tasks)
    workers = min(_affinity_cpus() if _one_task() else 1, 4)
    assert len(eh._chunks(4, 1, 501, lambda *r: r)) == workers and len(forks) == workers - 1
    assert_no_child()


def test_chunks_fork_only_on_linux(monkeypatch, forks):
    # Linux lists /proc/self/task, so a single-threaded process at one BLAS thread forks
    # one child per further CPU; where it cannot be listed nothing forks (see
    # test_workers_are_one_without_procfs).
    _set_blas_env(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"})
    workers = min(_affinity_cpus() if _one_task() else 1, 4)
    pids = eh._chunks(4, 1, 501, lambda start, stop: os.getpid())
    assert len(pids) == workers and len(set(pids)) == workers and len(forks) == workers - 1
    assert_no_child()


def test_chunks_cut_workers_to_what_the_budget_holds(monkeypatch):
    # Each worker needs its worker_bytes plus the rows that pay for its fork, from
    # _FORK_WORK // order ** 2 + 1 on, within _CHUNK_BYTES.
    monkeypatch.setattr(eh, "_workers", lambda: 3)
    path = gc.path_topology(300)  # the budget holds 2 of its rows
    for order, want in [(200, 1), (300, 2)]:  # 2 rows pay for a fork at order 200, 1 at 300
        pids = eh._chunks(4, eh._row_bytes(path), order, lambda *r: os.getpid())
        assert len(set(pids)) == want
    monkeypatch.setattr(eh, "_CHUNK_BYTES", 12)
    for order, worker_bytes, want in [(501, 0, 3), (300, 0, 3), (120, 0, 2), (50, 0, 1),
                                      (501, 3, 3), (501, 5, 2), (501, 11, 1)]:
        pids = eh._chunks(60, 1, order, lambda *r: os.getpid(), worker_bytes=worker_bytes)
        assert len(set(pids)) == want, (order, worker_bytes)
        assert len(pids) == 60 // (12 // want)  # each worker's share of the 12 rows
    assert_no_child()


# Each run norms at least 3 x (_FORK_WORK // order ** 2 + 1) rows in one _chunks call, so
# 3 workers each get the rows that pay for a fork: fig1 2 sweeps of 1410 on K8, thm2_tail the
# 32768 K6 patterns, Monte Carlo 3000 K8 samples (nearly all distinct), lcpf_bounds 120 lifted
# 25-bus paths, manifold 90 on a 50-bus path and bruteforce the 16384 K6 patterns below the half.
_FORKED_RUNS = {
    "fig1": {"n": 8, "samples": 1410, "p_grid": [0.3, 0.9], "seed": 3},
    "thm2_tail": {"topology": {"name": "complete", "n": 6}, "probs": 0.4},
    "thm2_expectation": {"backend": "montecarlo", "samples": 3000, "seed": 6,
                         "topology": {"name": "complete", "n": 8}, "admittances": [0.5, 0.3]},
    "lcpf_bounds": {"samples": 120, "seed": 1, "topology": {"name": "path", "n": 25}},
    "manifold": {"samples": 90, "seed": 5, "topology": {"name": "path", "n": 50}},
    "bruteforce": {"topology": {"name": "complete", "n": 6}},
}


@pytest.mark.parametrize("experiment", sorted(_FORKED_RUNS))
def test_chunk_workers_emit_the_same_table(monkeypatch, forks, process_log, experiment):
    # Each sample's stream and matrix depend on its index alone, so neither the cut
    # of a run into chunks nor the process a chunk runs in shows in its table.
    cfg = eh.ExperimentConfig.from_dict({"experiment": experiment, **_FORKED_RUNS[experiment]})
    norm, tables = eh.operator_norm, []
    monkeypatch.setattr(eh, "operator_norm", lambda ys: process_log() or norm(ys))
    for workers in (1, 2, 3):
        forks.clear()
        process_log.clear()
        monkeypatch.setattr(eh, "_workers", lambda: workers)
        tables.append(eh.emit(eh.run_experiment(cfg), "csv"))
        assert len(forks) == workers - 1  # fig1 too: one fork per worker for all its sweeps
        assert {pid for pid, _ in process_log.read()} == {os.getpid(), *forks}
        assert_no_child()
    assert tables[1] == tables[0] and tables[2] == tables[0]


def test_monte_carlo_and_enumeration_fork_nothing_for_a_small_run(monkeypatch, forks):
    # K3 norms are 3 x 3: a worker pays for its fork from 60000 // 3 ** 2 + 1 = 6667 rows
    # on, so a run needs 2 x 6667 rows for a second worker. The enumeration builds 4 K3
    # patterns, and a Monte Carlo run deals its distinct patterns, of which K3 has 8.
    assert eh._FORK_WORK == 60000
    monkeypatch.setattr(eh, "_workers", lambda: 2)
    _, model = _k3_model()
    eh.brute_force_distribution(model)
    eh.monte_carlo_distribution(model, 20000, seed=0)
    assert forks == []
    eh._chunks(2 * 6667 - 1, 1, 3, lambda *r: r)
    assert forks == []
    assert eh._chunks(2 * 6667, 1, 3, lambda *r: r) == [(0, 6667), (6667, 2 * 6667)]
    assert len(forks) == 1
    assert_no_child()


def _monte_carlo_k8(monkeypatch, forks, process_log, samples):
    """K8 at p = 1/2 over 28 lines at 2 workers, drawn in chunks of at most 2000 samples and
    normed by one ``_chunks`` call: the processes that draw, with the forks made before each
    draw, and the processes that norm."""
    monkeypatch.setattr(eh, "_workers", lambda: 2)
    monkeypatch.setattr(eh, "_ENUM_CHUNK", 2000)
    drew, uniforms, norm = [], eh.sample_uniforms, eh.operator_norm
    monkeypatch.setattr(eh, "sample_uniforms", lambda *args: drew.append(
        (os.getpid(), len(forks))) or uniforms(*args))
    monkeypatch.setattr(eh, "operator_norm", lambda ys: process_log() or norm(ys))
    k8 = gc.complete_topology(8)
    model = bnd.ContingencyModel(k8, np.full(28, 0.5), np.ones(28, dtype=complex))
    stats = eh.monte_carlo_distribution(model, samples, seed=3)
    return stats, drew, [pid for pid, _ in process_log.read()]


def test_monte_carlo_draws_every_chunk_in_the_calling_process(monkeypatch, forks, process_log):
    _, drew, _ = _monte_carlo_k8(monkeypatch, forks, process_log, 8000)
    assert len(drew) == 4 and len(forks) == 1  # the run's one deal forks one worker
    assert all(pid == os.getpid() for pid, _ in drew)
    assert [forked for _, forked in drew] == [0, 0, 0, 0]  # every draw before the fork
    assert_no_child()


@pytest.mark.parametrize("topology,p,samples", [
    (gc.path_topology(300), 0.9, 40), (gc.complete_topology(8), 0.5, 20000)],
    ids=["path300", "k8"])
def test_monte_carlo_run_forks_once(monkeypatch, forks, process_log, topology, p, samples):
    # One _chunks call deals a run's distinct patterns, so 2 workers fork once however many
    # there are: 40 on a 300-bus path, whose every row pays for a fork, or K8's 20000 samples,
    # nearly all distinct. Norms are stubbed: on a threaded BLAS two processes spin each
    # other's threads.
    monkeypatch.setattr(eh, "_workers", lambda: 2)
    monkeypatch.setattr(eh, "operator_norm", lambda ys: process_log(len(ys)) or np.ones(len(ys)))
    m = topology.n_edges
    model = bnd.ContingencyModel(topology, np.full(m, p), np.ones(m, dtype=complex))
    eh.monte_carlo_distribution(model, samples, seed=3)
    assert len(forks) == 1
    normed = process_log.read()
    assert {pid for pid, _ in normed} == {os.getpid(), forks[0]}
    distinct = np.unique(eh.sample_uniforms(3, 0, 0, samples, m) < p, axis=0)
    assert sum(rows for _, (rows,) in normed) == len(distinct) > samples - 10
    assert_no_child()


def test_monte_carlo_norms_many_distinct_patterns_in_two_processes(monkeypatch, forks,
                                                                   process_log):
    # 2000 samples of 28 fair lines are nearly all distinct: over 2 x (60000 // 8 ** 2 + 1).
    _, drew, normed = _monte_carlo_k8(monkeypatch, forks, process_log, 2000)
    assert len(drew) == 1 and len(forks) == 1
    assert set(normed) == {os.getpid(), forks[0]}
    assert len(np.unique(eh.sample_uniforms(3, 0, 0, 2000, 28) < 0.5, axis=0)) > 2 * 938
    assert_no_child()


def test_monte_carlo_sorted_tails_equal_the_mean_of_the_comparisons():
    # K3 norms take at most 4 values, so every t equal to a drawn norm is a tie; K8's
    # nearly all differ. Also t = 0, t at the largest norm and above it.
    for model, samples in [(_k3_model()[1], 3000), (_k3_model(0.9)[1], 200),
                           (bnd.ContingencyModel(gc.complete_topology(8), np.full(28, 0.5),
                                                 np.full(28, 0.5 - 0.5j)), 500)]:
        stats = eh.monte_carlo_distribution(model, samples, seed=7)
        top = float(stats.norms.max())
        grid = sorted({0.0, *np.unique(stats.norms)[:50].tolist(), top,
                       np.nextafter(top, np.inf), top + 1.0, 0.5 * top})
        want = [float(np.mean(stats.norms >= t)) for t in grid]
        assert np.array(stats.tails(grid)).tobytes() == np.array(want).tobytes()
        assert stats.tails(grid)[0] == 1.0 and stats.tails([top])[0] > 0.0
        assert stats.tails([np.nextafter(top, np.inf)]) == [0.0]
        assert stats.tails([]) == []


def _traced_peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lcpf_and_monte_carlo_memory_is_not_per_line(monkeypatch):
    # A dense per-line basis takes m*n^2 floats: 1.6 GB for each lifted K100
    # stack, 51 MB for K60. Three samples' matrices need a few MB. tracemalloc sees
    # the calling process alone, so every chunk runs there.
    monkeypatch.setattr(eh, "_workers", lambda: 1)
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
    # the records stay under the same 16 MiB limit. tracemalloc sees the calling
    # process alone, so every chunk runs there.
    monkeypatch.setattr(eh, "_workers", lambda: 1)
    monkeypatch.setattr(eh, "_CHUNK_BYTES", 4 * 2 ** 20)
    cfg = eh.ExperimentConfig(experiment="fig1", n=60, samples=400, seed=1, p_grid=(0.5,))
    assert 400 * 16 * 60 ** 2 > 16 * 2 ** 20
    assert _traced_peak_bytes(lambda: eh.run_fig1(cfg)) < 16 * 2 ** 20


def test_fig1_budget_counts_each_workers_incidence_product(monkeypatch, process_log):
    # At n = 60 one sample's incidence product, two complex (1770, 60) arrays, takes
    # 3.4 MB, and the 60000 // 60 ** 2 + 1 = 17 rows that pay for a fork 2.9 MB:
    # 24 MiB hold both for 3 workers, 16 MiB for 2 and 4 MiB for 1.
    monkeypatch.setattr(eh, "_workers", lambda: 3)
    norm = eh.operator_norm
    monkeypatch.setattr(eh, "operator_norm", lambda ys: process_log() or norm(ys))
    cfg = eh.ExperimentConfig(experiment="fig1", n=60, samples=60, seed=1, p_grid=(0.5,))
    for budget, workers in [(24 * 2 ** 20, 3), (16 * 2 ** 20, 2), (4 * 2 ** 20, 1)]:
        monkeypatch.setattr(eh, "_CHUNK_BYTES", budget)
        process_log.clear()
        eh.run_fig1(cfg)
        pids = {pid for pid, _ in process_log.read()}
        assert len(pids) == workers and os.getpid() in pids
    assert_no_child()


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


def test_manifold_on_a_300_bus_path_norms_in_two_processes(monkeypatch, process_log):
    # A worker's share of the budget holds 2 rows, and one 300 x 300 row pays for a fork.
    # Only the norm calls are counted: two processes on a threaded BLAS (the test runs at
    # any BLAS setting; a real run forks only in a single-threaded process at one BLAS
    # thread) spin each other's threads, and two 300 x 300 SVDs then took 10 s.
    monkeypatch.setattr(eh, "_workers", lambda: 2)
    monkeypatch.setattr(eh, "operator_norm", lambda ys: process_log() or np.ones(len(ys)))
    cfg = eh.ExperimentConfig(experiment="manifold", samples=4, seed=1,
                              topology=gc.path_topology(300))
    eh.run_manifold_experiment(cfg)
    pids = [pid for pid, _ in process_log.read()]
    assert len(pids) == 2 and len(set(pids)) == 2 and os.getpid() in pids
    assert_no_child()


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
    assert not result.failing_rows
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


@pytest.mark.parametrize("value, cell", [
    ('a,"b"\nc', '"a,""b""\nc"'), ("plain", "plain"), (np.float64(0.1), "0.10000000000000001"),
    (np.int64(-3), "-3"), (np.bool_(False), "false"), (True, "true"), (False, "false"),
    (None, ""), (-0.0, "-0"), (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
    (7, "7"), (2 ** 70, "1180591620717411303424"), (1.0 / 3.0, "0.33333333333333331"),
])
def test_emit_csv_cell_of_each_type(value, cell):
    # Plain floats, ints, bools and None take a direct path; the rest go through their
    # Python value and the quoting rule.
    assert eh.emit(eh.RunResult([{"v": value}], ["v"]), "csv") == f"v\n{cell}\n"


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
    # Only the fields named *_ok are verdicts; a row without one has no verdict there.
    fields = ["t", "bound_ok", "tail_ok", "mean_ok", "residual_ok"]
    rows = [{"t": 0.0}, {"bound_ok": None}, {"tail_ok": True, "mean_ok": False},
            {"residual_ok": False}, {"t": False, "okay": False}]
    result = eh.RunResult(records=rows, fieldnames=fields)
    assert result.failing_rows == [2, 3]  # None is no verdict
    assert not eh.RunResult(records=rows[:2], fieldnames=fields).failing_rows
    assert not eh.RunResult(records=rows, fieldnames=fields[:3]).failing_rows
    assert not eh.RunResult(records=[], fieldnames=fields).failing_rows


_SMALL_RUNS = {
    "fig1": {"n": 6, "samples": 4, "p_grid": [0.5, 1.0]},
    "thm2_tail": {},
    "thm2_tail_montecarlo": {"backend": "montecarlo", "samples": 40},
    "thm2_expectation": {},
    "thm2_expectation_montecarlo": {"backend": "montecarlo", "samples": 40},
    "lcpf_bounds": {"samples": 40},
    "manifold": {"samples": 4},
    "bruteforce": {},
}


@pytest.mark.parametrize("run", sorted(_SMALL_RUNS))
def test_every_record_has_exactly_its_runners_fields(run):
    # The verdict reads only the *_ok names of the fieldnames, so every record must
    # carry those fields, and no others, in their order.
    experiment = run.removesuffix("_montecarlo")
    result = eh.run_experiment(eh.ExperimentConfig.from_dict(
        {"experiment": experiment, **_SMALL_RUNS[run]}))
    assert result.records
    assert all(list(rec) == result.fieldnames for rec in result.records)


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
