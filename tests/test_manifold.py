import numpy as np
import pytest

from grid_concentrator import bounds as bnd
from grid_concentrator import graph_core as gc
from grid_concentrator import manifold as mf
from grid_concentrator.admittance import assemble_admittance
from grid_concentrator.spectra import operator_norm


def _single_line_y():
    t = gc.Topology(2, [(0, 1)])
    return assemble_admittance(t, [1.0 + 0j])


def _random_instance(rng, n=5):
    t = gc.sample_er_topology(n, 0.6, rng)
    w = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(t.n_edges)]
    y = assemble_admittance(t, w)
    u = rng.uniform(0.9, 1.1, n) * np.exp(1j * rng.uniform(-0.2, 0.2, n))
    h = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return y, u, h


def test_power_flow_map_flat_start_is_zero():
    rng = np.random.default_rng(70)
    for _ in range(10):
        t = gc.sample_er_topology(6, 0.5, rng)
        w = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(t.n_edges)]
        y = assemble_admittance(t, w)
        s = mf.power_flow_map(y, np.ones(6, dtype=complex))
        np.testing.assert_allclose(s, 0.0, atol=1e-12)


def test_power_flow_map_single_line():
    s = mf.power_flow_map(_single_line_y(), [1.0, 0.9])
    np.testing.assert_allclose(s, [0.1, -0.09], atol=1e-14)


def test_power_flow_map_zero_voltage():
    np.testing.assert_allclose(mf.power_flow_map(_single_line_y(), [0.0, 0.0]), 0.0)


def test_power_flow_map_dimension_mismatch():
    with pytest.raises(ValueError):
        mf.power_flow_map(_single_line_y(), [1.0, 1.0, 1.0])


def test_tangent_residual_zero_step():
    y = _single_line_y()
    residual = mf.tangent_residual(y, np.ones(2, dtype=complex), np.zeros(2, dtype=complex))
    np.testing.assert_allclose(residual, 0.0, atol=1e-15)


def test_tangent_residual_single_line():
    y = _single_line_y()
    residual = mf.tangent_residual(y, np.ones(2, dtype=complex), [0.1, 0.0])
    np.testing.assert_allclose(residual, [0.01, 0.0], atol=1e-14)
    assert np.linalg.norm(residual) == pytest.approx(0.01, abs=1e-14)


def test_tangent_residual_rejects_mismatched_lengths():
    y = _single_line_y()
    with pytest.raises(ValueError, match="step"):
        mf.tangent_residual(y, np.ones(2), [0.1, 0.0, 0.0])
    with pytest.raises(ValueError, match="voltage"):
        mf.projection_distance(y, np.ones(3), [0.1, 0.0])


def test_tangent_residual_quadratic_scaling():
    y = _single_line_y()
    u, h = np.ones(2, dtype=complex), np.array([0.1, -0.05 + 0.02j])
    r1 = mf.tangent_residual(y, u, h)
    for alpha in (2.0, 0.5):
        r2 = mf.tangent_residual(y, u, alpha * h)
        np.testing.assert_allclose(r2, alpha ** 2 * r1, rtol=1e-10)


def test_tangent_residual_matches_taylor_subtraction():
    rng = np.random.default_rng(71)
    for _ in range(100):
        y, u, h = _random_instance(rng)
        closed = mf.tangent_residual(y, u, h)  # cross-checks internally to 1e-12
        direct = (mf.power_flow_map(y, u + h) - mf.power_flow_map(y, u)
                  - mf.power_flow_derivative(y, u, h))
        np.testing.assert_allclose(closed, direct, atol=1e-12)


def test_residual_norm_chain():
    rng = np.random.default_rng(72)
    for _ in range(50):
        y, u, h = _random_instance(rng)
        res = np.linalg.norm(mf.tangent_residual(y, u, h))
        y_norm = operator_norm(y)
        hinf = np.max(np.abs(h))
        h2 = np.linalg.norm(h)
        assert res <= hinf * y_norm * h2 + 1e-10


def test_derivative_matches_finite_differences():
    # central finite differences as an independent oracle for the derivative
    rng = np.random.default_rng(73)
    y, u, h = _random_instance(rng, n=4)
    eps = 1e-6
    numeric = (mf.power_flow_map(y, u + eps * h) - mf.power_flow_map(y, u - eps * h)) \
        / (2 * eps)
    np.testing.assert_allclose(mf.power_flow_derivative(y, u, h), numeric,
                               atol=1e-7)


def test_projection_distance_equals_residual_norm():
    rng = np.random.default_rng(74)
    y, u, h = _random_instance(rng)
    assert mf.projection_distance(y, u, h) == pytest.approx(
        float(np.linalg.norm(mf.tangent_residual(y, u, h))), rel=1e-12)
    # the certificate 3||F|| dominates the same-voltage projection proxy
    assert 3.0 * np.linalg.norm(mf.tangent_residual(y, u, h)) >= \
        mf.projection_distance(y, u, h)


def test_distance_bound_values():
    h = np.array([0.1, 0.0], dtype=complex)
    assert mf.distance_bound(h, 2.0) == pytest.approx(0.06, abs=1e-14)
    assert mf.distance_bound(np.zeros(3), 5.0) == 0.0
    # residual certificate from the worked single-line example
    y = _single_line_y()
    residual = mf.tangent_residual(y, np.ones(2, dtype=complex), h)
    assert 3.0 * np.linalg.norm(residual) == pytest.approx(0.03)
    assert mf.distance_bound(h, operator_norm(y)) >= 0.03


def test_distance_bound_holder_never_exceeds_crude():
    # The Holder certificate is the tighter link of the chain
    # 3 ||h||_inf ||h||_2 ||Y|| <= 3 ||h||_2^2 ||Y||.
    rng = np.random.default_rng(75)
    for _ in range(50):
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        y_norm = rng.uniform(0, 5)
        assert mf.distance_bound(h, y_norm) <= \
            3.0 * np.linalg.norm(h) ** 2 * y_norm + 1e-12
    with pytest.raises(ValueError):
        mf.distance_bound(np.ones(2), -1.0)
    with pytest.raises(ValueError):
        mf.distance_bound(np.ones(2), np.nan)


def test_expected_distance_bound_composition():
    h = np.array([0.1, 0.0], dtype=complex)
    source = bnd.thm1_expectation_bound(9, 4)
    bound = mf.distance_bound(h, source)
    assert bound == pytest.approx(3 * 0.1 * 0.1 * source, rel=1e-12)
    assert bound == pytest.approx(0.29883259550810365)
    assert mf.distance_bound(np.zeros(4), source) == 0.0


def test_expected_distance_bound_accepts_thm2_source():
    t = gc.complete_topology(3)
    model = bnd.ContingencyModel(t, np.full(3, 0.5), np.ones(3, dtype=complex))
    source = bnd.thm2_expectation_bound(bnd.contingency_factors(model))
    assert mf.distance_bound(np.array([0.1, 0.0, 0.0]), source) == pytest.approx(0.03 * source)


def test_lossless_specialization_dominated_on_dense_networks():
    # Lossless Bernoulli switching (G = 0, Y = jB) on complete graphs: the
    # general expected-distance bound stays above the contingency-based
    # specialization (C = 1 form). This density regime matters: sparse
    # high-D_bar topologies can invert the comparison.
    h = np.array([0.1, 0.0, 0.0], dtype=complex)
    for n in range(3, 13):
        t = gc.complete_topology(n)
        model = bnd.ContingencyModel(t, np.full(t.n_edges, 0.5),
                                     -1j * np.ones(t.n_edges))
        hn = np.zeros(n, dtype=complex)
        hn[0] = 0.1
        general = mf.distance_bound(
            hn, bnd.thm1_expectation_bound(n, gc.max_degree(t)))
        lossless = mf.distance_bound(
            hn, bnd.thm2_expectation_bound(bnd.contingency_factors(model),
                                           constant=1.0))
        assert general >= lossless


def test_expected_distance_dominates_monte_carlo_proxy():
    # 200 disk-law samples on fixed K3 connectivity
    from grid_concentrator.experiment_harness import sample_rng

    t = gc.complete_topology(3)
    h = np.array([0.1, 0.0, 0.0], dtype=complex)
    source = bnd.thm1_expectation_bound(3, gc.max_degree(t))
    analytic = mf.distance_bound(h, source)
    certs = []
    for s in range(200):
        rng = sample_rng(11, 0, s)
        r = np.sqrt(rng.random(3))
        phi = 2 * np.pi * rng.random(3)
        w = np.abs(r * np.cos(phi)) - 1j * np.abs(r * np.sin(phi))
        y = assemble_admittance(t, w)
        certs.append(3 * np.max(np.abs(h)) * np.linalg.norm(h)
                     * operator_norm(y))
    assert np.mean(certs) <= analytic


def _stack_instance(rng, samples=6, n=5):
    # A C-contiguous stack of complex admittance matrices on one topology, and a dense
    # complex base voltage and step.
    t = gc.complete_topology(n)
    ys = np.stack([assemble_admittance(t, rng.uniform(-1, 1, t.n_edges)
                                       + 1j * rng.uniform(-1, 1, t.n_edges))
                   for _ in range(samples)])
    u = rng.uniform(0.9, 1.1, n) * np.exp(1j * rng.uniform(-0.2, 0.2, n))
    h = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return ys, u, h


@pytest.mark.parametrize("lead", [(6,), (2, 3)])
def test_stack_forms_bit_equal_per_matrix(lead):
    ys, u, h = _stack_instance(np.random.default_rng(76))
    stack = ys.reshape(lead + ys.shape[-2:])
    for fn, args in [(mf.power_flow_map, (u,)), (mf.power_flow_derivative, (u, h)),
                     (mf.tangent_residual, (u, h))]:
        per_matrix = np.stack([fn(y, *args) for y in ys])
        assert np.array_equal(fn(stack, *args), per_matrix.reshape(lead + per_matrix.shape[1:]))
    distances = mf.projection_distance(stack, u, h)
    assert distances.shape == lead
    assert distances.ravel().tolist() == [mf.projection_distance(y, u, h) for y in ys]
    assert type(mf.projection_distance(ys[0], u, h)) is float
    norms = operator_norm(stack)
    bounds = mf.distance_bound(h, norms)
    assert bounds.shape == lead
    assert bounds.ravel().tolist() == [mf.distance_bound(h, y_norm)
                                       for y_norm in norms.ravel().tolist()]
    assert type(mf.distance_bound(h, float(norms.flat[0]))) is float
    with pytest.raises(ValueError):
        mf.distance_bound(h, np.append(norms, -1.0))
    with pytest.raises(ValueError):
        mf.distance_bound(h, np.append(norms, np.nan))


@pytest.mark.parametrize("defect_row, raises", [(0, True), (1, False)])
def test_stack_cross_check_keeps_each_matrix_scale(monkeypatch, defect_row, raises):
    # Row 0's residual has scale about 1, row 1's about 1e3. A 1e-10 defect in row 0's
    # Taylor subtraction breaks its 1e-12 relative identity; under a scale shared by the
    # stack (1e3) it would pass. In row 1 the same defect is within the identity.
    ys, u, h = _stack_instance(np.random.default_rng(77), samples=2)
    h = h / np.max(np.abs(h))
    ys[0] /= np.max(np.abs(h * np.conj(ys[0] @ h)))
    ys[1] *= 1e3 / np.max(np.abs(h * np.conj(ys[1] @ h)))
    closed = mf.tangent_residual(ys, u, h)  # no defect: the identity holds on both rows
    assert np.max(np.abs(closed[0])) == pytest.approx(1.0)
    assert np.max(np.abs(closed[1])) == pytest.approx(1e3)
    derivative = mf.power_flow_derivative

    def defective(y, u, h):
        out = derivative(y, u, h)
        out[defect_row] += 1e-10
        return out
    monkeypatch.setattr(mf, "power_flow_derivative", defective)
    if raises:
        with pytest.raises(ArithmeticError):
            mf.tangent_residual(ys, u, h)
    else:
        assert np.array_equal(mf.tangent_residual(ys, u, h), closed)
