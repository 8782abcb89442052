import dataclasses
import json

import numpy as np
import pytest

from grid_concentrator import graph_core as gc


def test_build_topology_minimal():
    t = gc.Topology(2, [(0, 1)])
    assert t.n_edges == 1
    assert t.edges == ((0, 1),)


def test_build_topology_path():
    t = gc.Topology(3, [(0, 1), (1, 2)])
    assert t.n_edges == 2
    assert t == gc.path_topology(3)


def test_build_topology_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError, match="out of range"):
        gc.Topology(3, [(0, 3)])


def test_build_topology_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        gc.Topology(3, [(1, 1)])


def test_build_topology_rejects_zero_nodes():
    with pytest.raises(ValueError):
        gc.Topology(0, [])


def test_topology_rejects_non_integral_nodes():
    # int() would truncate 1.7 to 1.
    with pytest.raises(TypeError):
        gc.Topology(3, ((0, 1.7),))
    t = gc.Topology(3, ((np.int64(0), np.int32(2)),))
    assert t.edges == ((0, 2),)
    assert all(type(x) is int for x in t.edges[0])


def test_topology_is_nodes_and_edges():
    assert [f.name for f in dataclasses.fields(gc.Topology)] == ["n_nodes", "edges"]


def test_incidence_p3():
    a = gc.incidence_matrix(gc.path_topology(3))
    np.testing.assert_array_equal(a, [[1, -1, 0], [0, 1, -1]])


def test_incidence_single_edge():
    a = gc.incidence_matrix(gc.Topology(2, [(0, 1)]))
    np.testing.assert_array_equal(a, [[1, -1]])


def test_incidence_rows_have_norm_sq_two():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = gc.sample_er_topology(8, 0.4, rng)
        a = gc.incidence_matrix(t)
        if t.n_edges:
            np.testing.assert_allclose((a * a).sum(axis=1), 2.0)


def test_incidence_gram_is_p3_laplacian():
    # A^T A of the path graph; operator norm 3 from the dense eigensolve
    # (eigenvalues 0, 1, 3).
    a = gc.incidence_matrix(gc.path_topology(3))
    lap = a.T @ a
    np.testing.assert_array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    assert np.linalg.norm(lap, 2) == pytest.approx(3.0, abs=1e-12)


def test_degrees_p3():
    t = gc.path_topology(3)
    np.testing.assert_array_equal(gc.degrees(t), [1, 2, 1])
    assert gc.max_degree(t) == 2


def test_degrees_triangle():
    t = gc.complete_topology(3)
    np.testing.assert_array_equal(gc.degrees(t), [2, 2, 2])
    assert gc.max_degree(t) == 2


def test_degrees_star():
    assert gc.max_degree(gc.star_topology(4)) == 4


def test_degrees_count_parallel_edges():
    t = gc.Topology(2, [(0, 1), (0, 1)])
    np.testing.assert_array_equal(gc.degrees(t), [2, 2])


def _incidence_loop(topology):
    # Reference: one row per line, filled entry by entry.
    a = np.zeros((topology.n_edges, topology.n_nodes))
    for l, (i, j) in enumerate(topology.edges):
        a[l, i] = 1.0
        a[l, j] = -1.0
    return a


def _degrees_loop(topology):
    deg = np.zeros(topology.n_nodes, dtype=int)
    for i, j in topology.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


@pytest.mark.parametrize("topology", [
    gc.Topology(1, ()),
    gc.Topology(4, ()),
    gc.Topology(4, ((0, 1), (2, 1), (0, 1), (3, 0), (1, 0), (2, 3))),
    gc.Topology(5, ((4, 0), (4, 0), (4, 0), (2, 3))),
    gc.complete_topology(6),
], ids=["single", "edgeless", "parallel", "triple", "k6"])
def test_incidence_and_degrees_bit_equal_scalar_loop(topology):
    a = gc.incidence_matrix(topology)
    ref = _incidence_loop(topology)
    assert a.dtype == ref.dtype and a.shape == ref.shape
    assert a.flags.c_contiguous == ref.flags.c_contiguous
    assert a.tobytes() == ref.tobytes()
    deg = gc.degrees(topology)
    assert deg.dtype == _degrees_loop(topology).dtype
    np.testing.assert_array_equal(deg, _degrees_loop(topology))
    assert gc.max_degree(topology) == int(_degrees_loop(topology).max(initial=0))


def test_sample_er_topology_draws_lexicographic_pairs():
    # One uniform per pair of K9 in lexicographic order: run_fig1 draws the same lines.
    topology = gc.sample_er_topology(9, 0.4, np.random.default_rng(5))
    on = np.random.default_rng(5).random(36) < 0.4
    assert topology.edges == tuple(e for e, keep in zip(gc.complete_topology(9).edges, on)
                                   if keep)
    assert 0 < topology.n_edges < 36


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batched"])
def test_weighted_laplacians_split_real_and_imaginary(batch):
    # Complex addition is componentwise, so the complex scatter's real and
    # imaginary parts are bit-equal to the scatters of w.real and w.imag.
    t = gc.Topology(4, ((0, 1), (2, 1), (0, 1), (3, 0), (1, 0), (2, 3)))
    rng = np.random.default_rng(12)
    w = rng.standard_normal(batch + (t.n_edges,)) + 1j * rng.standard_normal(batch + (t.n_edges,))
    y = gc.weighted_laplacians(t, w)
    assert y.shape == batch + (4, 4)
    assert np.array_equal(y.real, gc.weighted_laplacians(t, w.real))
    assert np.array_equal(y.imag, gc.weighted_laplacians(t, w.imag))


def test_laplacian_counts_parallel_edges():
    t = gc.Topology(3, [(0, 1), (0, 1), (1, 2)])
    lap = gc.unweighted_laplacian(t)
    np.testing.assert_array_equal(lap, [[2, -2, 0], [-2, 3, -1], [0, -1, 1]])


def test_laplacian_matches_degrees_and_adjacency():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = gc.sample_er_topology(7, 0.5, rng)
        lap = gc.unweighted_laplacian(t)
        np.testing.assert_allclose(np.diag(lap), gc.degrees(t))
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(lap)[0] >= -1e-10


def test_er_p_zero_and_one():
    rng = np.random.default_rng(0)
    assert gc.sample_er_topology(5, 0.0, rng).n_edges == 0
    t = gc.sample_er_topology(5, 1.0, rng)
    assert t.n_edges == 10
    assert t.edges == gc.complete_topology(5).edges


def test_er_rejects_bad_probability():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gc.sample_er_topology(5, 1.5, rng)
    with pytest.raises(ValueError):
        gc.sample_er_topology(5, -0.1, rng)


def test_er_mean_edge_count_binomial_oracle():
    # Binomial oracle: 190 candidate pairs at p = 0.3 gives mean 57 with
    # per-sample std sqrt(190 * 0.3 * 0.7).
    rng = np.random.default_rng(123)
    n_samples = 10_000
    counts = np.array([gc.sample_er_topology(20, 0.3, rng).n_edges
                       for _ in range(n_samples)])
    mean_expected = 190 * 0.3
    stderr = np.sqrt(190 * 0.3 * 0.7) / np.sqrt(n_samples)
    assert abs(counts.mean() - mean_expected) <= 3 * stderr


def test_er_seeded_replay_is_bit_identical():
    t1 = gc.sample_er_topology(12, 0.37, np.random.default_rng(99))
    t2 = gc.sample_er_topology(12, 0.37, np.random.default_rng(99))
    assert t1.edges == t2.edges


def test_is_tree():
    assert gc.is_tree(gc.path_topology(3))
    assert not gc.is_tree(gc.complete_topology(3))
    two_disconnected = gc.Topology(4, [(0, 1), (2, 3)])
    assert not gc.is_tree(two_disconnected)


def test_random_tree_is_tree():
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert gc.is_tree(gc.sample_random_tree(int(rng.integers(1, 25)), rng))


def test_topology_json_round_trip():
    t = gc.Topology(4, [(0, 1), (1, 2), (1, 3)])
    obj = {"n": 4, "edges": [[0, 1], [1, 2], [1, 3]]}
    assert gc.topology_from_json(json.loads(json.dumps(obj))) == t
    assert gc.topology_from_json(t) is t
    assert gc.topology_from_json({"name": "star", "n": 2}) == gc.star_topology(2)


@pytest.mark.parametrize("obj", [{"name": "path", "n": 4, "reference": 2},
                                 {"n": 2, "edges": [[0, 1]], "reference": None}])
def test_topology_json_rejects_reference(obj):
    # The slack bus is the power-flow model's: lcpf functions take it as an argument.
    with pytest.raises(ValueError, match=r"unknown keys \['reference'\]"):
        gc.topology_from_json(obj)
