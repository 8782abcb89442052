import hashlib
import math

import numpy as np
import pytest

from grid_concentrator import bounds as bnd
from grid_concentrator import graph_core as gc
from grid_concentrator.admittance import assemble_admittance
from grid_concentrator.experiment_harness import sample_rng
from grid_concentrator.spectra import intrinsic_dimension, operator_norm
from conftest import _random_connected_model


def _k3_model(p=0.5):
    t = gc.complete_topology(3)
    return bnd.ContingencyModel(t, np.full(3, p), np.ones(3, dtype=complex))


def test_contingency_model_validation():
    t = gc.complete_topology(3)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bnd.ContingencyModel(t, np.array([0.5, 0.5, 1.5]), np.ones(3))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bnd.ContingencyModel(t, np.array([0.5, 0.5, np.nan]), np.ones(3))
    with pytest.raises(ValueError, match="per-unit"):
        bnd.ContingencyModel(t, np.full(3, 0.5), np.array([1.0, np.nan, 1.0]))
    with pytest.raises(ValueError, match="per-unit"):
        bnd.ContingencyModel(t, np.full(3, 0.5), np.full(3, 1.5 + 0j))
    with pytest.raises(ValueError, match="need 3"):
        bnd.ContingencyModel(t, np.full(2, 0.5), np.ones(2))


def test_thm1_values():
    # arithmetic evaluations of sqrt(4 d log 4n) + (2/3) log 4n
    assert bnd.thm1_expectation_bound(1, 0) == pytest.approx(
        (2.0 / 3.0) * math.log(4.0), rel=1e-12)
    assert bnd.thm1_expectation_bound(1, 0) == pytest.approx(0.9241962407465937)
    assert bnd.thm1_expectation_bound(9, 4) == pytest.approx(9.961086516936788)


def test_thm1_monotone_in_n_and_delta():
    for n in (2, 5, 20):
        for d in (0, 1, 4):
            base = bnd.thm1_expectation_bound(n, d)
            assert bnd.thm1_expectation_bound(n + 1, d) > base
            assert bnd.thm1_expectation_bound(n, d + 1) > base


def test_thm1_dominates_k3_monte_carlo_mean():
    # 200 samples of a |w| <= 1 law on fixed K3 connectivity
    t = gc.complete_topology(3)
    bound = bnd.thm1_expectation_bound(3, gc.max_degree(t))
    det_bound = 2 * gc.max_degree(t)  # the Laplacian degree bound on ||Y|| for |w| <= 1
    norms = []
    for s in range(200):
        rng = sample_rng(7, 0, s)
        r = np.sqrt(rng.random(3))
        phi = 2 * np.pi * rng.random(3)
        w = np.abs(r * np.cos(phi)) - 1j * np.abs(r * np.sin(phi))
        norms.append(operator_norm(assemble_admittance(t, w)))
    assert np.mean(norms) <= bound
    assert max(norms) <= det_bound + 1e-12


def test_contingency_factors_single_line():
    t = gc.Topology(2, [(0, 1)])
    prof = bnd.contingency_factors(bnd.ContingencyModel(t, np.array([0.5]),
                                                        np.array([1.0 + 0j])))
    assert prof.factors[0] == pytest.approx(0.5)
    for p in (0.0, 1.0):
        prof = bnd.contingency_factors(bnd.ContingencyModel(t, np.array([p]),
                                                            np.array([1.0 + 0j])))
        assert prof.factors[0] == 0.0
        assert prof.degenerate
        assert math.isnan(prof.total_degree)


def test_contingency_factors_k3():
    prof = bnd.contingency_factors(_k3_model())
    np.testing.assert_allclose(prof.factors, 0.5)
    np.testing.assert_allclose(prof.node_degrees, 1.0)
    assert prof.max_criticality == pytest.approx(1.0)
    assert prof.total_degree == pytest.approx(3.0)
    assert not prof.degenerate


def test_node_degrees_bit_equal_scalar_loop():
    rng = np.random.default_rng(31)
    parallel = gc.Topology(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 1), (1, 0)])
    for model in [_random_connected_model(rng) for _ in range(10)] + [bnd.ContingencyModel(
            parallel, rng.uniform(0.1, 0.9, 6), rng.uniform(0.2, 1.0, 6) + 0j)]:
        prof = bnd.contingency_factors(model)
        d = np.zeros(model.topology.n_nodes)
        for l, (i, j) in enumerate(model.topology.edges):
            d[i] += prof.factors[l]
            d[j] += prof.factors[l]
        np.testing.assert_array_equal(prof.node_degrees, d)


def test_thm2_tail_k3_at_3():
    prof = bnd.contingency_factors(_k3_model())
    bound = bnd.thm2_tail_bound(3.0, prof)
    assert bound == pytest.approx(24.0 * math.exp(-9.0 / 8.0), rel=1e-12)
    assert bound == pytest.approx(7.791659216600394)
    assert 3.0 >= bnd.thm2_tail_threshold(prof)  # threshold sqrt(2) + 2/3 ~ 2.0809


def test_thm2_tail_validity_window():
    prof = bnd.contingency_factors(_k3_model())
    threshold = bnd.thm2_tail_threshold(prof)
    assert threshold == pytest.approx(math.sqrt(2.0) + 2.0 / 3.0, rel=1e-15)
    assert bnd.thm2_tail_bound(threshold - 1e-6, prof) > 0.0  # still computed
    assert bnd.thm2_tail_threshold(bnd.contingency_factors(_k3_model(1.0))) == 0.0
    with pytest.raises(ValueError):
        bnd.thm2_tail_bound(-1.0, prof)


def test_thm2_tail_monotone_nonincreasing():
    prof = bnd.contingency_factors(_k3_model(0.3))
    values = [bnd.thm2_tail_bound(t, prof) for t in np.linspace(0, 10, 50)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert all(v >= 0 for v in values)


def test_thm2_expectation_k3():
    prof = bnd.contingency_factors(_k3_model())
    assert bnd.thm2_expectation_bound(prof) == pytest.approx(16.374652116591715)
    assert bnd.thm2_expectation_bound(prof, constant=1.0) == pytest.approx(5.864590000359378)
    with pytest.raises(ValueError):
        bnd.thm2_expectation_bound(prof, constant=0.0)


def test_thm2_degenerate_evaluators():
    prof = bnd.contingency_factors(_k3_model(1.0))
    assert bnd.thm2_tail_bound(0.5, prof) == 0.0
    assert bnd.thm2_tail_bound(0.0, prof) == 1.0
    assert bnd.thm2_expectation_bound(prof) == 0.0


def test_variance_laplacian_matches_profile():
    rng = np.random.default_rng(50)
    for _ in range(20):
        model = _random_connected_model(rng)
        v = bnd.variance_laplacian(model)
        prof = bnd.contingency_factors(model)
        np.testing.assert_allclose(np.diag(v), prof.node_degrees, atol=1e-12)
        np.testing.assert_allclose(v.sum(axis=1), 0.0, atol=1e-12)
        assert np.trace(v) == pytest.approx(prof.node_degrees.sum(), rel=1e-12)


def test_variance_monte_carlo_identity_small():
    # E[(Y-EY)(Y-EY)*] converges entrywise to A^T diag(c) A
    rng = np.random.default_rng(51)
    model = _random_connected_model(rng, n_max=5)
    t = model.topology
    basis = np.stack([np.zeros((t.n_nodes, t.n_nodes))] * t.n_edges) \
        if t.n_edges == 0 else np.stack(
        [np.outer(row, row) for row in gc.incidence_matrix(t)])
    n_samples = 20_000
    xi = (rng.random((n_samples, t.n_edges)) < model.probs).astype(float)
    coeff = (xi - model.probs) * model.admittances
    ytilde = np.einsum("sl,lij->sij", coeff, basis)
    prods = ytilde @ np.conj(ytilde)
    mean = prods.mean(axis=0)
    second = (prods * prods.conj()).real.mean(axis=0)
    stderr = np.sqrt(np.clip(second - np.abs(mean) ** 2, 0.0, None) / n_samples)
    exact = bnd.variance_laplacian(model)
    assert np.all(np.abs(mean - exact) <= 5 * stderr + 1e-12)


def test_variance_norm_sandwich_random_models():
    rng = np.random.default_rng(52)
    for _ in range(25):
        model = _random_connected_model(rng)
        prof = bnd.contingency_factors(model)
        v = bnd.variance_laplacian(model)
        norm = operator_norm(v)
        assert prof.max_criticality <= norm + 1e-10
        assert norm <= 2.0 * prof.max_criticality + 1e-10
        idim = intrinsic_dimension(v)
        assert prof.node_degrees.sum() / (2 * prof.max_criticality) <= idim + 1e-10
        assert idim <= model.topology.n_nodes - 1 + 1e-10


def test_variance_laplacian_is_one_scatter_and_bit_stable(monkeypatch):
    # tests/test_golden.py's _MESH model (parallel lines, complex admittances).
    # The digest pins the bits of the Laplacian and the profile read off its
    # diagonal, as built when each came from a scatter of its own.
    t = gc.Topology(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 1)])
    model = bnd.ContingencyModel(t, [0.5, 0.3, 0.8, 0.6, 0.25],
                                 [0.6 - 0.8j, 0.5 - 0.5j, 1.0, 0.3 - 0.9j, 0.2 - 0.7j])
    scatter, calls = gc.weighted_laplacians, []
    monkeypatch.setattr(bnd, "weighted_laplacians", lambda *a: calls.append(a) or scatter(*a))
    v = bnd.variance_laplacian(model)
    assert len(calls) == 1
    prof = bnd.contingency_factors(model)
    assert len(calls) == 2
    digest = hashlib.sha256()
    for part in (v, prof.factors, prof.node_degrees,
                 np.array([prof.max_criticality, prof.total_degree])):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == \
        "4fbb4da85e8926ae2beeddb001373d8f4e18d85ab40fdd296a5f32b41a9c4f6c"


def test_lcpf_tail_values():
    assert bnd.lcpf_tail_bound(0.5, 4, 0.0) == 0.0
    assert bnd.lcpf_tail_bound(0.0, 4, 0.0) == 4.0
    t, n, d = 1.0, 4, 0.1
    expected = n * math.exp(-t * t / (4 * (d * d * n + d * t / 3)))
    assert bnd.lcpf_tail_bound(t, n, d) == pytest.approx(expected, rel=1e-12)
    # A denominator 4 (delta^2 n + delta t / 3) that overflows or underflows
    assert bnd.lcpf_tail_bound(1.0, 4, 1e200) == 4.0  # -1 / inf: the prefactor
    assert bnd.lcpf_tail_bound(1.7e308, 4, 1.0) == 0.0
    assert bnd.lcpf_tail_bound(1e300, 1, 1e300) == pytest.approx(math.exp(-1.0 / (4.0 + 4.0 / 3.0)))
    assert bnd.lcpf_tail_bound(5.737796805380679e-163, 1, 2.2250738585072014e-308) == 0.0
    # t * t overflows while the denominator stays finite: exp(-400 / (4 (1 + 20/3)))
    assert bnd.lcpf_tail_bound(2e154, 1, 1e153) == pytest.approx(2.164e-6, rel=1e-3)
    assert bnd.lcpf_tail_bound(2e154, 1, 1e153) == pytest.approx(
        math.exp(-400.0 / (4.0 + 80.0 / 3.0)), rel=1e-12)


@pytest.mark.parametrize("n,delta", [(2, 0.1), (3, 0.1), (50, 0.2), (300, 1e-3), (4, 1.0)])
def test_lcpf_tail_threshold_is_where_the_bound_crosses_one(n, delta):
    t = bnd.lcpf_tail_threshold(n, delta)
    assert t > 0.0
    assert bnd.lcpf_tail_bound(t, n, delta) == pytest.approx(1.0, rel=1e-12)


def test_lcpf_tail_threshold_degenerate_and_invalid():
    assert bnd.lcpf_tail_threshold(1, 0.3) == 0.0
    assert bnd.lcpf_tail_threshold(7, 0.0) == 0.0
    for n, delta in [(0, 0.1), (3, -0.1), (3, math.nan)]:
        with pytest.raises(ValueError):
            bnd.lcpf_tail_threshold(n, delta)


def test_lcpf_tail_monotone_nonincreasing():
    values = [bnd.lcpf_tail_bound(t, 5, 0.2) for t in np.linspace(0, 6, 40)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert all(v >= 0 for v in values)


def test_lcpf_expectation_values():
    assert bnd.lcpf_expectation_bound(4, 0.1) == pytest.approx(1.2033301896039925)
    assert bnd.lcpf_expectation_bound(4, 0.0) == 0.0


_K3_PROFILE = bnd.contingency_factors(_k3_model())
# Every evaluator, called with good arguments: name -> function of one argument
# that is passed in place of n, delta, t or constant.
_EVALUATORS = {
    "thm1_expectation_bound(n)": lambda x: bnd.thm1_expectation_bound(x, 4),
    "thm1_expectation_bound(delta)": lambda x: bnd.thm1_expectation_bound(9, x),
    "thm2_tail_bound(t)": lambda x: bnd.thm2_tail_bound(x, _K3_PROFILE),
    "thm2_expectation_bound(constant)": lambda x: bnd.thm2_expectation_bound(_K3_PROFILE, x),
    "lcpf_tail_bound(t)": lambda x: bnd.lcpf_tail_bound(x, 4, 0.1),
    "lcpf_tail_bound(n)": lambda x: bnd.lcpf_tail_bound(1.0, x, 0.1),
    "lcpf_tail_bound(delta)": lambda x: bnd.lcpf_tail_bound(1.0, 4, x),
    "lcpf_expectation_bound(n)": lambda x: bnd.lcpf_expectation_bound(x, 0.1),
    "lcpf_expectation_bound(delta)": lambda x: bnd.lcpf_expectation_bound(4, x),
}


def test_evaluators_return_plain_floats():
    assert {name: type(f(1.0)) for name, f in _EVALUATORS.items()} == \
        dict.fromkeys(_EVALUATORS, float)


@pytest.mark.parametrize("name", _EVALUATORS)
def test_evaluators_reject_nan(name):
    with pytest.raises(ValueError):
        _EVALUATORS[name](math.nan)
