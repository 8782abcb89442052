import numpy as np
import pytest

from grid_concentrator import graph_core as gc
from grid_concentrator import lcpf


def _single_line():
    # one line to the reference node 1: reduced blocks are 1x1
    return gc.Topology(2, [(0, 1)])


def _blocks(j):
    # G and B read back from [[G, -B], [-B, -G]]
    k = j.shape[0] // 2
    return j[:k, :k], -j[:k, k:]


def test_flat_start_single_reduced_line():
    t = _single_line()
    j = lcpf.flat_start_jacobian(t, [complex(1.0, -1.0)], reference=1)
    np.testing.assert_allclose(j, [[1.0, 1.0], [1.0, -1.0]])


def test_flat_start_p3_real_is_block_diagonal():
    t = gc.path_topology(3)
    j = lcpf.flat_start_jacobian(t, [complex(1.0, 0.0), complex(1.0, 0.0)])
    lap = gc.unweighted_laplacian(t)
    np.testing.assert_allclose(j[:3, :3], lap)
    np.testing.assert_allclose(j[3:, 3:], -lap)
    np.testing.assert_allclose(j[:3, 3:], 0.0)


def test_flat_start_k3_indefinite():
    t = gc.complete_topology(3)
    j = lcpf.flat_start_jacobian(t, [complex(1.0, -1.0)] * 3)
    eigs = np.linalg.eigvalsh(j)
    assert eigs[0] < 0 < eigs[-1]
    np.testing.assert_allclose(j, j.T, atol=1e-12)


def test_flat_start_sign_semidefiniteness():
    # g >= 0 gives G >= 0 and b <= 0 gives B <= 0
    rng = np.random.default_rng(61)
    for _ in range(20):
        t = gc.sample_random_tree(int(rng.integers(2, 10)), rng)
        lines = [complex(rng.uniform(0.01, 2.0), rng.uniform(-2.0, 0.0))
                 for _ in range(t.n_edges)]
        g, b = _blocks(lcpf.flat_start_jacobian(t, lines))
        assert np.linalg.eigvalsh(g)[0] >= -1e-10
        assert np.linalg.eigvalsh(b)[-1] <= 1e-10


def test_flat_start_rejects_length_mismatch():
    with pytest.raises(ValueError):
        lcpf.flat_start_jacobian(gc.path_topology(3), [complex(1.0, 0.0)])
    with pytest.raises(ValueError):  # (g, b) pairs are not an (m,) weight array
        lcpf.flat_start_jacobian(gc.path_topology(3), [(1.0, 0.0), (1.0, 0.0)])


def test_flat_start_matches_incidence_product():
    rng = np.random.default_rng(64)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        er = gc.sample_er_topology(n, 0.6, rng)
        t = gc.Topology(n, er.edges + er.edges[:1])
        r = int(rng.integers(0, n))
        w = rng.uniform(-1, 1, t.n_edges) + 1j * rng.uniform(-1, 1, t.n_edges)
        for reference in (None, r):
            a = gc.incidence_matrix(t)
            if reference is not None:
                a = np.delete(a, reference, axis=1)
            g, b = _blocks(lcpf.flat_start_jacobian(t, w, reference=reference))
            np.testing.assert_allclose(g, a.T @ np.diag(w.real) @ a, rtol=0, atol=1e-12)
            np.testing.assert_allclose(b, a.T @ np.diag(w.imag) @ a, rtol=0, atol=1e-12)


def test_flat_start_reference_deletes_row_and_column():
    # On a meshed graph with a parallel line, grounding at r deletes row and
    # column r from each block of the full Jacobian, bit for bit.
    t = gc.Topology(5, gc.complete_topology(5).edges + ((3, 1),))
    rng = np.random.default_rng(65)
    w = rng.uniform(0, 1, t.n_edges) - 1j * rng.uniform(0, 1, t.n_edges)
    g, b = _blocks(lcpf.flat_start_jacobian(t, w))
    for r in range(t.n_nodes):
        gr, br = _blocks(lcpf.flat_start_jacobian(t, w, reference=np.int64(r)))
        for full, reduced in ((g, gr), (b, br)):
            assert np.array_equal(reduced, np.delete(np.delete(full, r, 0), r, 1))


def test_lcpf_functions_check_reference():
    t, w = gc.path_topology(3), [complex(1.0, -1.0)] * 2
    for build in (lambda r: lcpf.flat_start_jacobian(t, w, reference=r),
                  lambda r: lcpf.invert_tree_lcpf(t, w, r)):
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="reference node"):
                build(bad)
        with pytest.raises(TypeError):  # not truncated to node 0
            build(0.9)
        assert build(np.int64(2)) is not None


def test_invert_single_line():
    t = _single_line()
    j = lcpf.flat_start_jacobian(t, [complex(1.0, -1.0)], reference=1)
    blocks = lcpf.invert_tree_lcpf(t, [complex(1.0, -1.0)], 1)
    np.testing.assert_allclose(blocks.r_matrix, [[0.5]], atol=1e-12)
    np.testing.assert_allclose(blocks.x_matrix, [[0.5]], atol=1e-12)
    np.testing.assert_allclose(j @ blocks.matrix, np.eye(2), atol=1e-12)


def test_invert_pure_conductance_decouples():
    # b = 0: R is the inverse of the reduced conductance Laplacian, X = 0
    t = gc.path_topology(4)
    lines = [complex(1.0, 0.0)] * 3
    g, _ = _blocks(lcpf.flat_start_jacobian(t, lines, reference=0))
    blocks = lcpf.invert_tree_lcpf(t, lines, 0)
    np.testing.assert_allclose(blocks.x_matrix, 0.0, atol=1e-12)
    np.testing.assert_allclose(blocks.r_matrix, np.linalg.inv(g), atol=1e-10)


def test_invert_p3_against_dense_oracle():
    # dense 4x4 inversion oracle, reduced at node 0
    t = gc.path_topology(3)
    lines = [complex(1.0, -1.0), complex(2.0, -1.0)]
    j = lcpf.flat_start_jacobian(t, lines, reference=0)
    blocks = lcpf.invert_tree_lcpf(t, lines, 0)
    dense = np.linalg.inv(j)
    np.testing.assert_allclose(blocks.matrix, dense, atol=1e-10)
    np.testing.assert_allclose(blocks.r_matrix, [[0.5, 0.5], [0.5, 0.9]], atol=1e-10)
    np.testing.assert_allclose(blocks.x_matrix, [[0.5, 0.5], [0.5, 0.7]], atol=1e-10)


def test_invert_errors():
    k3 = gc.complete_topology(3)
    with pytest.raises(ValueError, match="tree"):
        lcpf.invert_tree_lcpf(k3, [complex(1.0, -1.0)] * 3, 0)

    t = gc.path_topology(3)
    with pytest.raises(ValueError, match="conductance"):
        lcpf.invert_tree_lcpf(t, [complex(1.0, -1.0), complex(0.0, -1.0)], 0)


def test_invert_random_trees_both_paths_and_identity():
    rng = np.random.default_rng(62)
    for _ in range(25):
        n = int(rng.integers(2, 31))
        r = int(rng.integers(0, n))
        t = gc.sample_random_tree(n, rng)
        lines = [complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, -0.05))
                 for _ in range(t.n_edges)]
        j = lcpf.flat_start_jacobian(t, lines, reference=r)
        blocks = lcpf.invert_tree_lcpf(t, lines, r)  # raises if paths disagree
        size = 2 * (n - 1)
        np.testing.assert_allclose(j @ blocks.matrix, np.eye(size), atol=1e-9)
        assert np.linalg.eigvalsh((blocks.r_matrix + blocks.r_matrix.T) / 2)[0] > 0
        assert np.linalg.eigvalsh((blocks.x_matrix + blocks.x_matrix.T) / 2)[0] > 0


def test_solve_zero_injections():
    t = _single_line()
    j = lcpf.flat_start_jacobian(t, [complex(1.0, -1.0)], reference=1)
    eps, theta = lcpf.lcpf_solve(j, [0.0], [0.0])
    np.testing.assert_allclose(eps, 0.0)
    np.testing.assert_allclose(theta, 0.0)


def test_solve_single_line():
    t = _single_line()
    j = lcpf.flat_start_jacobian(t, [complex(1.0, -1.0)], reference=1)
    eps, theta = lcpf.lcpf_solve(j, [1.0], [0.0])
    np.testing.assert_allclose(eps, [0.5], atol=1e-12)
    np.testing.assert_allclose(theta, [0.5], atol=1e-12)
    # tree path through the closed-form blocks gives the same answer
    blocks = lcpf.invert_tree_lcpf(t, [complex(1.0, -1.0)], 1)
    eps2, theta2 = lcpf.lcpf_solve(j, [1.0], [0.0], blocks=blocks)
    np.testing.assert_allclose(eps2, eps)
    np.testing.assert_allclose(theta2, theta)


def test_solve_residual_random_p3():
    t = gc.path_topology(3)
    lines = [complex(1.0, -0.5), complex(0.7, -1.2)]
    j = lcpf.flat_start_jacobian(t, lines, reference=0)
    rng = np.random.default_rng(63)
    for _ in range(20):
        p = rng.standard_normal(2)
        q = rng.standard_normal(2)
        eps, theta = lcpf.lcpf_solve(j, p, q)
        residual = j @ np.concatenate([eps, theta]) - np.concatenate([p, q])
        assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm([p, q]))


def test_solve_meshed_network_dense_path():
    # solving is not tree-specific: K4 with a reference works via dense LU
    t = gc.complete_topology(4)
    lines = [complex(1.0, -1.0)] * t.n_edges
    j = lcpf.flat_start_jacobian(t, lines, reference=0)
    rng = np.random.default_rng(64)
    p, q = rng.standard_normal(3), rng.standard_normal(3)
    eps, theta = lcpf.lcpf_solve(j, p, q)
    np.testing.assert_allclose(j @ np.concatenate([eps, theta]),
                               np.concatenate([p, q]), atol=1e-10)


def test_solve_singular_operator_rejected():
    t = gc.path_topology(3)  # unreduced Laplacian blocks are singular
    j = lcpf.flat_start_jacobian(t, [complex(1.0, 0.0), complex(1.0, 0.0)])
    with pytest.raises(np.linalg.LinAlgError):
        lcpf.lcpf_solve(j, np.ones(3), np.zeros(3))


def test_solve_rejects_malformed_jacobian():
    j = lcpf.flat_start_jacobian(_single_line(), [complex(1.0, -1.0)], reference=1)
    for bad in (j[:1], j[0], np.zeros((3, 3))):
        with pytest.raises(ValueError, match=r"\(2k, 2k\)"):
            lcpf.lcpf_solve(bad, [1.0], [0.0])
    with pytest.raises(ValueError, match="length 1"):
        lcpf.lcpf_solve(j, [1.0, 0.0], [0.0])
