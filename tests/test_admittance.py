import warnings

import numpy as np
import pytest

from grid_concentrator import admittance as adm
from grid_concentrator import bounds as bnd
from grid_concentrator import experiment_harness as eh
from grid_concentrator import graph_core as gc
from grid_concentrator.lcpf import flat_start_jacobian, invert_tree_lcpf
from grid_concentrator.spectra import operator_norm


def _unit_line(i, j, n):
    """The one-line Laplacian (e_i - e_j)(e_i - e_j)^T from the scatter kernel."""
    return gc.weighted_laplacians(gc.Topology(n, ((i, j),)), np.ones(1))


def _random_laplacian(rng, n, p=0.6):
    t = gc.sample_er_topology(n, p, rng)
    w = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(t.n_edges)])
    return t, w, adm.assemble_admittance(t, w)


def test_elementary_laplacian_2x2():
    np.testing.assert_array_equal(_unit_line(0, 1, 2),
                                  [[1, -1], [-1, 1]])


def test_elementary_laplacian_3x3():
    np.testing.assert_array_equal(_unit_line(0, 2, 3),
                                  [[1, 0, -1], [0, 0, 0], [-1, 0, 1]])


def test_elementary_laplacian_trace_and_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        i, j = rng.choice(n, size=2, replace=False)
        e = _unit_line(int(i), int(j), n)
        assert np.trace(e) == pytest.approx(2.0)
        assert operator_norm(e) == pytest.approx(2.0, abs=1e-12)
        assert np.linalg.matrix_rank(e) == 1


def test_assemble_single_line_unit():
    t = gc.Topology(2, [(0, 1)])
    y = adm.assemble_admittance(t, [1.0 + 0j])
    assert y.dtype == complex
    np.testing.assert_allclose(y, [[1, -1], [-1, 1]])


def test_assemble_single_line_complex():
    t = gc.Topology(2, [(0, 1)])
    y = adm.assemble_admittance(t, [1.0 - 1.0j])
    np.testing.assert_allclose(y,
                               [[1 - 1j, -1 + 1j], [-1 + 1j, 1 - 1j]])


def test_assemble_k3_unit_norm():
    # complete-graph Laplacian eigenvalues {0, 3, 3}
    t = gc.complete_topology(3)
    y = adm.assemble_admittance(t, np.ones(3, dtype=complex))
    assert operator_norm(y) == pytest.approx(3.0, abs=1e-10)


def test_assemble_rejects_length_mismatch():
    with pytest.raises(ValueError):
        adm.assemble_admittance(gc.complete_topology(3), [1.0 + 0j])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, -float("inf"))])
def test_non_finite_weights_rejected(bad):
    # Assembly, the flat-start Jacobian and the tree inverse all read weights
    # through line_weights, which rejects NaN and Inf.
    t = gc.path_topology(3)
    w = np.array([bad, 1.0 - 1.0j])
    for build in (lambda: adm.assemble_admittance(t, w),
                  lambda: flat_start_jacobian(t, w),
                  lambda: invert_tree_lcpf(t, w, 0)):
        with pytest.raises(ValueError, match="NaN or Inf"):
            build()


def test_assemble_rejects_pairs_and_batches():
    # (g, b) pairs and stacked weight arrays are not an (m,) weight array
    t = gc.complete_topology(3)
    with pytest.raises(ValueError, match=r"\(3, 2\)"):
        adm.assemble_admittance(t, [(1.0, 0.0)] * 3)
    with pytest.raises(ValueError):
        adm.assemble_admittance(t, np.ones((2, 3)))


def test_assemble_invariants_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        t, w, y = _random_laplacian(rng, 6)
        # complex symmetric, zero row sums, and the rank-one reconstruction
        np.testing.assert_allclose(y, y.T, atol=1e-12)
        np.testing.assert_allclose(y.sum(axis=1), 0.0, atol=1e-12)
        rebuilt = sum((wl * _unit_line(i, j, t.n_nodes)
                       for wl, (i, j) in zip(w, t.edges)),
                      start=np.zeros((t.n_nodes, t.n_nodes), dtype=complex))
        np.testing.assert_allclose(y, rebuilt, atol=1e-12)


# P4 plus a chord and two more lines parallel to (0, 1)
_PARALLEL = gc.Topology(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 1), (1, 0)])


def _line_order_sum(t, w):
    """Reference: add w_l times each one-line Laplacian term by term in edge order."""
    y = np.zeros(w.shape[:-1] + (t.n_nodes, t.n_nodes), dtype=np.result_type(w, float))
    for l, (i, j) in enumerate(t.edges):
        y = y + w[..., l, None, None] * _unit_line(i, j, t.n_nodes)
    return y


@pytest.mark.parametrize("batch", [(), (5,), (3, 2)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_weighted_laplacians_bit_equal_line_order_sum(batch, dtype):
    rng = np.random.default_rng(7)
    w = rng.standard_normal(batch + (_PARALLEL.n_edges,))
    if dtype is complex:
        w = w + 1j * rng.standard_normal(w.shape)
    y = gc.weighted_laplacians(_PARALLEL, w)
    assert y.shape == batch + (4, 4) and y.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(y, _line_order_sum(_PARALLEL, w))


@pytest.mark.parametrize("block", [gc._SCATTER_BLOCK, 1], ids=["rounds", "entry_by_entry"])
def test_weighted_laplacians_rounds_bit_equal_on_k50_view(monkeypatch, block):
    # K50 plus two lines parallel to (0, 1), weighted by the non-contiguous
    # (2, samples, m) swapaxes view that run_lcpf_experiment passes.
    monkeypatch.setattr(gc, "_SCATTER_BLOCK", block)
    t = gc.Topology(50, gc.complete_topology(50).edges + ((0, 1), (1, 0)))
    rng = np.random.default_rng(8)
    w = rng.standard_normal((3, 2, t.n_edges)).swapaxes(0, 1)
    assert not w.flags.c_contiguous
    y = gc.weighted_laplacians(t, w)
    assert y.shape == (2, 3, 50, 50)
    np.testing.assert_array_equal(y, _line_order_sum(t, w))


def test_weighted_laplacians_matches_incidence_product():
    rng = np.random.default_rng(13)
    for _ in range(10):
        t = gc.sample_er_topology(9, 0.5, rng)
        w = rng.uniform(-1, 1, t.n_edges) + 1j * rng.uniform(-1, 1, t.n_edges)
        a = gc.incidence_matrix(t)
        np.testing.assert_allclose(gc.weighted_laplacians(t, w), a.T @ np.diag(w) @ a,
                                   rtol=0, atol=1e-12)


def test_weighted_laplacians_no_lines_and_bad_shape():
    t = gc.Topology(3, [])
    np.testing.assert_array_equal(gc.weighted_laplacians(t, np.zeros((2, 0))),
                                  np.zeros((2, 3, 3)))
    with pytest.raises(ValueError):
        gc.weighted_laplacians(gc.complete_topology(3), np.ones(2))


def test_monte_carlo_sample_replays_alone(monkeypatch):
    # Small chunks, so the replayed samples sit in different chunks.
    monkeypatch.setattr(eh, "_CHUNK_BYTES", 2000)
    t = _PARALLEL
    model = bnd.ContingencyModel(t, np.linspace(0.2, 0.8, t.n_edges),
                                 np.full(t.n_edges, 0.6 - 0.8j))
    stats = eh.monte_carlo_distribution(model, 40, seed=17)
    for s in (0, 9, 39):
        pattern = eh.sample_rng(17, 0, s).random(t.n_edges) < model.probs
        ytilde = gc.weighted_laplacians(t, (pattern - model.probs) * model.admittances)
        assert stats.norms[s] == np.linalg.svd(ytilde, compute_uv=False)[0]


def test_lift_real_block_structure_real_y():
    t = gc.path_topology(3)
    y = adm.assemble_admittance(t, np.ones(2, dtype=complex))
    lifted = adm.lift_blocks(y.real, y.imag, +1.0)
    g = y.real
    np.testing.assert_allclose(lifted[:3, :3], g)
    np.testing.assert_allclose(lifted[3:, 3:], -g)
    np.testing.assert_allclose(lifted[:3, 3:], 0.0)
    assert operator_norm(lifted) == pytest.approx(operator_norm(g), abs=1e-10)


def test_lift_real_single_complex_line():
    # |w| * ||E|| = sqrt(2) * 2
    t = gc.Topology(2, [(0, 1)])
    y = adm.assemble_admittance(t, [1.0 - 1.0j])
    expected = 2.0 * np.sqrt(2.0)
    assert operator_norm(y) == pytest.approx(expected, abs=1e-10)
    assert operator_norm(adm.lift_blocks(y.real, y.imag, +1.0)) == \
        pytest.approx(expected, abs=1e-10)


def test_lift_real_norm_identity_random():
    rng = np.random.default_rng(32)
    for _ in range(100):
        _, _, y = _random_laplacian(rng, 5)
        lifted = adm.lift_blocks(y.real, y.imag, +1.0)
        np.testing.assert_allclose(lifted, lifted.T, atol=1e-12)
        assert operator_norm(lifted) == pytest.approx(
            operator_norm(y), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("shape", [(), (4, 4), (3, 4, 4), (2, 3, 4, 4)],
                         ids=["scalar", "matrix", "stack", "stack2"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("sign", [+1.0, -1.0])
def test_lift_blocks_bit_equal_np_block(shape, dtype, sign):
    rng = np.random.default_rng(36)
    g, b = rng.standard_normal((2,) + shape).astype(dtype)
    if dtype is complex:
        g, b = g + 1j * rng.standard_normal(shape), b - 1j * rng.standard_normal(shape)
    if shape:  # signed zeros, whose sign the product and the negation must keep
        g.flat[:2], b.flat[:2] = (0.0, -0.0), (-0.0, 0.0)
    want = np.block([[g, sign * b], [sign * b, -g]])
    got = adm.lift_blocks(g, b, sign)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _line_jacobian(g, b, i, j, n, sign):
    """One line's 2n x 2n term: its 2 x 2 admittance block (x) its Laplacian."""
    return np.kron(adm.lift_blocks(g, b, sign), _unit_line(i, j, n))


def test_elementary_jacobian_norms():
    # 2 * sqrt(g^2 + b^2) in either sign convention
    assert operator_norm(_line_jacobian(1.0, 0.0, 0, 1, 2, +1.0)) == \
        pytest.approx(2.0, abs=1e-12)
    assert operator_norm(_line_jacobian(3.0, 4.0, 0, 1, 2, -1.0)) == \
        pytest.approx(10.0, abs=1e-9)


def test_elementary_jacobian_frobenius_identity():
    # ||M||_F = 2*sqrt(2)*||Upsilon|| for either sign convention
    rng = np.random.default_rng(33)
    for _ in range(20):
        g, b = rng.standard_normal(2)
        for sign in (+1.0, -1.0):
            m = _line_jacobian(g, b, 0, 2, 4, sign)
            upsilon_norm = operator_norm(adm.lift_blocks(g, b, sign))
            assert np.linalg.norm(m, "fro") == pytest.approx(
                2.0 * np.sqrt(2.0) * upsilon_norm, rel=1e-9)
            assert upsilon_norm == pytest.approx(np.hypot(g, b), rel=1e-12)


def test_kronecker_reconstruction_of_lift_and_jacobian():
    rng = np.random.default_rng(34)
    for _ in range(10):
        t, w, y = _random_laplacian(rng, 5)
        n = t.n_nodes
        lifted_sum = np.zeros((2 * n, 2 * n))
        jac_sum = np.zeros((2 * n, 2 * n))
        for wl, (i, j) in zip(w, t.edges):
            lifted_sum += _line_jacobian(wl.real, wl.imag, i, j, n, +1.0)
            jac_sum += _line_jacobian(wl.real, wl.imag, i, j, n, -1.0)
        np.testing.assert_allclose(lifted_sum, adm.lift_blocks(y.real, y.imag, +1.0),
                                   atol=1e-12)
        f = flat_start_jacobian(t, w)
        np.testing.assert_allclose(jac_sum, f, atol=1e-12)
        np.testing.assert_allclose(adm.lift_blocks(y.real, y.imag, -1.0), f, atol=1e-12)


def test_sample_weights_bernoulli_degenerate():
    rng = np.random.default_rng(35)
    always = adm.FixedBernoulli(0.5 - 0.5j, 1.0)
    never = adm.FixedBernoulli(0.5 - 0.5j, 0.0)
    for _ in range(10):
        assert np.all(always.transform(rng.random((4, always.draws))) == 0.5 - 0.5j)
        assert np.all(never.transform(rng.random((4, never.draws))) == 0.0)


def test_sample_weights_sphere_constraint():
    rng = np.random.default_rng(36)
    law = adm.SphereUniform(radius_sq=0.5)
    for _ in range(25):
        w = law.transform(rng.random((8, law.draws)))
        assert w.real @ w.real == pytest.approx(0.5, abs=1e-12)
        assert w.imag @ w.imag == pytest.approx(0.5, abs=1e-12)


def test_sphere_sample_without_lines_is_empty():
    # A zero-length normal vector has norm 0, and so has every vector at radius 0: no
    # division by it. fig1 draws m = 0 topologies at small p.
    u = np.random.default_rng(37).random((3, 6, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for radius_sq in (0.5, 0.0):
            w = adm.SphereUniform(radius_sq).transform(u[:, :0])
            assert w.shape == (3, 0) and w.dtype == complex
        zero = adm.SphereUniform(0.0).transform(u)
        assert zero.dtype == complex and np.all(zero == 0.0)
        # Zero-padded lines (every uniform 0) are a zero vector of their own.
        np.testing.assert_array_equal(adm.SphereUniform(0.5).transform(np.zeros((4, 2))), 0.0)


def test_sample_weights_bounded_support():
    rng = np.random.default_rng(38)
    law = adm.BoundedPerturbation(1.0, -1.0, 0.25)
    for _ in range(50):
        w = law.transform(rng.random((5, law.draws)))
        assert np.all(np.abs(w.real - 1.0) <= 0.25)
        assert np.all(np.abs(w.imag + 1.0) <= 0.25)


def test_expected_admittance_bernoulli():
    t = gc.Topology(2, [(0, 1)])
    law = adm.FixedBernoulli(1.0 + 0.0j, 0.5)
    ey = adm.assemble_admittance(t, np.full(t.n_edges, law.mean))
    np.testing.assert_allclose(ey, 0.5 * _unit_line(0, 1, 2))


def test_center_deterministic_is_zero():
    t = gc.path_topology(3)
    law = adm.FixedDeterministic(0.3 - 0.7j)
    rng = np.random.default_rng(39)
    sample = adm.assemble_admittance(t, law.transform(rng.random((t.n_edges, law.draws))))
    expected = adm.assemble_admittance(t, np.full(t.n_edges, law.mean))
    np.testing.assert_allclose(sample - expected, 0.0, atol=1e-15)


def test_centered_samples_have_zero_mean():
    # 1e5 centered Bernoulli draws: entrywise |mean| <= 5 * stderr.
    t = gc.complete_topology(3)
    probs = np.array([0.3, 0.5, 0.8])
    y = np.array([0.9, -0.5j, 0.4 + 0.4j])
    rng = np.random.default_rng(40)
    n_samples = 100_000
    xi = (rng.random((n_samples, 3)) < probs).astype(float)
    coeff = (xi - probs) * y
    basis = np.stack([_unit_line(i, j, 3) for i, j in t.edges])
    centered = np.einsum("sl,lij->sij", coeff, basis)
    mean = centered.mean(axis=0)
    second = (centered * centered.conj()).real.mean(axis=0)
    stderr = np.sqrt(np.clip(second - np.abs(mean) ** 2, 0.0, None) / n_samples)
    assert np.all(np.abs(mean) <= 5 * stderr + 1e-15)


def test_max_abs_support():
    assert adm.UnitDisk().support == 1.0
    assert adm.FixedDeterministic(0.6 + 0.8j).support == pytest.approx(1.0)
    assert adm.FixedBernoulli(0.5j, 0.3).support == pytest.approx(0.5)
    assert adm.BoundedPerturbation(1.0, -1.0, 0.5).support == \
        pytest.approx(np.hypot(1.5, 1.5))
    assert adm.SphereUniform(0.5).support == pytest.approx(1.0)


def test_line_law_from_json():
    parse = adm.line_law_from_json
    assert parse({"kind": "disk"}) == adm.UnitDisk()
    assert parse({"kind": "fixed"}) == adm.FixedDeterministic(1.0 + 0.0j)
    assert parse({"kind": "fixed", "admittance": [0.5, -0.25]}) == \
        adm.FixedDeterministic(0.5 - 0.25j)
    assert parse({"kind": "bernoulli", "admittance": [1, 0], "p": 0.75}) == \
        adm.FixedBernoulli(1.0 + 0.0j, 0.75)
    assert parse({"kind": "bounded", "center_g": 1.0, "center_b": -2.0,
                  "delta": 0.1}) == adm.BoundedPerturbation(1.0, -2.0, 0.1)
    assert parse({"kind": "sphere"}) == adm.SphereUniform(0.5)
    assert parse({"kind": "sphere", "radius_sq": 0.25}) == adm.SphereUniform(0.25)
    law = adm.SphereUniform(0.1)
    assert parse(law) is law


@pytest.mark.parametrize("spec", [
    "disk",
    {"admittance": [1.0, 0.0]},
    {"kind": "cauchy"},
    {"kind": "disk", "radius": 2.0},
    {"kind": "fixed", "admittance": [1]},
    {"kind": "fixed", "admittance": [float("nan"), 0.0]},
    {"kind": "fixed", "admittance": [True, False]},
    {"kind": "fixed", "admittance": "1+0j"},
    {"kind": "bernoulli", "admittance": [1.0, 0.0]},
    {"kind": "bernoulli", "p": 1.5},
    {"kind": "bounded", "center_g": 1.0, "center_b": -1.0},
    {"kind": "bounded", "center_g": 1.0, "center_b": -1.0, "delta": -0.1},
    {"kind": "sphere", "radius_sq": float("inf")},
])
def test_line_law_from_json_rejects(spec):
    with pytest.raises(ValueError):
        adm.line_law_from_json(spec)


def test_invalid_distribution_parameters():
    with pytest.raises(ValueError):
        adm.FixedBernoulli(1.0, 1.5)
    with pytest.raises(ValueError):
        adm.BoundedPerturbation(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        adm.SphereUniform(-0.5)
