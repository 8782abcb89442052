"""Property tests (Hypothesis) for topology sampling, the real lifts, the
tail bounds and the replay of single experiment samples.

The vectorized Erdos-Renyi sampler must reproduce, bit for bit, the scalar
loop it replaced, so seeded ``fig1`` tables stay the same.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_concentrator import bounds as bnd
from grid_concentrator import experiment_harness as eh
from grid_concentrator import graph_core as gc
from grid_concentrator.admittance import lift_blocks
from grid_concentrator.spectra import operator_norm

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=40)
SEEDS = st.integers(0, 2 ** 32 - 1)


def _er_loop(n_nodes, p, rng):
    # Reference: one uniform per candidate pair, pairs in lexicographic order.
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < p:
                edges.append((i, j))
    return tuple(edges)


@PROPERTIES
@given(n_nodes=st.integers(1, 40),
       p=st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0),
       seed=SEEDS)
def test_er_sampling_matches_scalar_loop(n_nodes, p, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    assert gc.sample_er_topology(n_nodes, p, rng).edges == _er_loop(n_nodes, p, reference)
    assert rng.random() == reference.random()  # same number of draws taken


@PROPERTIES
@given(n_nodes=st.integers(1, 8), seed=SEEDS)
def test_lifts_keep_the_operator_norm(n_nodes, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (2, n_nodes, n_nodes))
    y = (a[0] + a[0].T) + 1j * (a[1] + a[1].T)  # complex symmetric, not Hermitian
    norm = operator_norm(y)
    for sign in (+1.0, -1.0):
        assert operator_norm(lift_blocks(y.real, y.imag, sign)) == pytest.approx(norm, abs=1e-12)


def _non_increasing(values):
    # Finite, and a relative 1e-12 allows the last-digit rounding of exp at nearby t.
    return all(map(math.isfinite, values)) and \
        all(b <= a * (1.0 + 1e-12) for a, b in zip(values, values[1:]))


# Up to the largest float, where the exponent's denominator overflows to inf.
THRESHOLDS = st.lists(st.floats(0.0, 50.0) | st.floats(0.0, sys.float_info.max),
                      min_size=2, max_size=8).map(sorted)


@PROPERTIES
@given(ts=THRESHOLDS, seed=SEEDS, p_one=st.booleans())
def test_thm2_tail_bound_non_increasing_in_t(ts, seed, p_one):
    rng = np.random.default_rng(seed)
    topology = gc.complete_topology(4)
    m = topology.n_edges
    probs = np.ones(m) if p_one else rng.uniform(0.05, 0.95, m)  # p = 1: degenerate
    model = bnd.ContingencyModel(topology, probs, rng.uniform(0.1, 1.0, m).astype(complex))
    profile = bnd.contingency_factors(model)
    assert _non_increasing([bnd.thm2_tail_bound(t, profile) for t in ts])


@PROPERTIES
@given(ts=THRESHOLDS, n_nodes=st.integers(1, 50),
       delta=st.sampled_from([0.0, 0.01]) | st.floats(0.0, 2.0))
def test_lcpf_tail_bound_non_increasing_in_t(ts, n_nodes, delta):
    assert _non_increasing([bnd.lcpf_tail_bound(t, n_nodes, delta) for t in ts])


FIG1 = eh.ExperimentConfig(experiment="fig1", n=7, samples=4, p_grid=(0.2, 0.6, 1.0), seed=13)
FIG1_ROWS = eh.run_fig1(FIG1).records


@PROPERTIES
@given(row=st.integers(0, len(FIG1_ROWS) - 1))
def test_fig1_row_replays_from_its_sample_rng(row):
    record = FIG1_ROWS[row]
    sweep_index = FIG1.p_grid.index(record["p"])
    rng = eh.sample_rng(FIG1.seed, sweep_index, record["sample_index"])
    topology = gc.sample_er_topology(FIG1.n, record["p"], rng)
    weights = FIG1.line_model.transform(rng.random((topology.n_edges, FIG1.line_model.draws)))
    assert topology.n_edges == record["m"]
    assert gc.max_degree(topology) == record["delta"]
    a = gc.incidence_matrix(topology)  # fig1's zgemm product, not the line-order scatter
    assert operator_norm(a.T @ (weights[:, None] * a)) == record["norm"]
