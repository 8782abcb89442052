"""Trace-moment identities of the switching model: two-sided checks of the harness.

Z = Y - EY = sum_l xi_l y_l L_l, with real y_l, L_l = b_l b_l^T for b_l = e_i - e_j, and
independent centered xi_l = (line on) - p_l. Write sigma_l^2 = E xi_l^2 = p_l (1 - p_l),
mu_l = E xi_l^4 = sigma_l^2 ((1 - p_l)^3 + p_l^3), s_l = sigma_l^2 y_l^2 and
d_i = sum_{l at i} s_l. Then, in O(m):

- E tr Z^2 = 4 sum_l s_l = tr V, since L_l^2 = 2 L_l and tr L_l = 2 (V is the variance
  Laplacian, with weights c_l = 2 s_l);
- E tr Z^4 = 9 sum_i d_i^2 + 30 sum_l s_l^2 + 16 sum_l (mu_l - 3 sigma_l^4) y_l^4
  + 60 sum_{l<k parallel} s_l s_k.

Only index pairings survive the expectation: tr L_l^4 = 16, and for l != k the three
pairings give 8 (b_l.b_k)^2 + (b_l.b_k)^4, that is 9 for lines sharing one bus and 48 for
parallel lines. Expanding sum_i d_i^2 counts adjacent pairs once and parallel pairs twice,
which leaves the parallel term. The closed forms are this file's oracle, not library code.

With complex y_l only l = k survives in E ZZ*, so E tr ZZ* = 4 sum_l sigma_l^2 |y_l|^2,
again tr V (c_l = 2 sigma_l^2 |y_l|^2).

``lcpf_bounds`` norms the lifted Jacobian noise Z = sum_l X_l with
X_l = (g_l sigma_z - b_l sigma_x) (x) L_l, for independent g_l, b_l uniform on
[-delta, delta]. The Pauli matrices anticommute, so X_l^2 = (g_l^2 + b_l^2) I_2 (x) 2 L_l
and tr X_l^2 = 8 (g_l^2 + b_l^2); cross terms have mean 0, so E tr Z^2 = 16 m delta^2 / 3.

The traces come from the harness itself: its ``operator_norm`` is swapped for tr Z^2,
tr Z^4 or tr ZZ* of each matrix, so the enumeration's probabilities and mirroring, the
Monte Carlo streams and pattern keys, and the ``lcpf_bounds`` noise law, scatter and lift
are the ones every run uses. A centering, sampling or assembly defect breaks an identity
whichever way it errs.
"""

import dataclasses
import math

import numpy as np
import pytest

from grid_concentrator import bounds as bnd
from grid_concentrator import experiment_harness as eh
from grid_concentrator import graph_core as gc

_MESH_TOPOLOGY = gc.Topology(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 1)])  # lines 0 and 4 parallel
_MODELS = {
    "k3": bnd.ContingencyModel(gc.complete_topology(3), np.full(3, 0.5), np.ones(3)),
    "p4": bnd.ContingencyModel(gc.path_topology(4), np.full(3, 0.5), np.ones(3)),
    "k6_p09": bnd.ContingencyModel(gc.complete_topology(6), np.full(15, 0.9), np.ones(15)),
    # tests/test_golden.py's mesh with real admittances
    "mesh": bnd.ContingencyModel(_MESH_TOPOLOGY, [0.5, 0.3, 0.8, 0.6, 0.25],
                                 [0.6, 0.5, 1.0, 0.3, 0.2]),
}
_TRACES = {
    2: lambda z: np.einsum("...ij,...ij->...", z, z),
    4: lambda z: np.einsum("...ij,...ij->...", z @ z, z @ z),
}
# tests/test_golden.py's mesh with its complex admittances.
_COMPLEX_MESH = bnd.ContingencyModel(_MESH_TOPOLOGY, [0.5, 0.3, 0.8, 0.6, 0.25],
                                     [0.6 - 0.8j, 0.5 - 0.5j, 1.0, 0.3 - 0.9j, 0.2 - 0.7j])
_LCPF_TOPOLOGIES = {"k4": gc.complete_topology(4), "p5": gc.path_topology(5)}


def _closed_forms(model):
    """(E tr Z^2, E tr Z^4) of the switching model with real admittances."""
    p, y = model.probs, model.admittances.real
    var = p * (1.0 - p)
    mu = var * ((1.0 - p) ** 3 + p ** 3)
    s = var * y ** 2
    n, edges = model.topology.n_nodes, model.topology.edges
    i, j = np.array(edges).reshape(-1, 2).T
    d = np.bincount(i, s, n) + np.bincount(j, s, n)
    parallel = sum(s[l] * s[k] for l in range(len(edges)) for k in range(l + 1, len(edges))
                   if set(edges[l]) == set(edges[k]))
    fourth = 9.0 * (d ** 2).sum() + 30.0 * (s ** 2).sum() \
        + 16.0 * ((mu - 3.0 * var ** 2) * y ** 4).sum() + 60.0 * parallel
    return 4.0 * s.sum(), fourth


def _centered_at_half(monkeypatch):
    """The harness with its matrices centered at 1/2, its patterns still drawn at p."""
    norms = eh._centered_norms_for_patterns

    def at_half(model, patterns, floor=0.0):
        half = dataclasses.replace(model, probs=np.full_like(model.probs, 0.5))
        return norms(half, patterns, floor)
    monkeypatch.setattr(eh, "_centered_norms_for_patterns", at_half)


def _exact_trace(monkeypatch, model, power):
    monkeypatch.setattr(eh, "operator_norm", _TRACES[power])
    return eh.brute_force_distribution(model).mean


def _sampled_trace(monkeypatch, model, power):
    monkeypatch.setattr(eh, "operator_norm", _TRACES[power])
    stats = eh.monte_carlo_distribution(model, 20000, 0)
    return stats.mean, stats.stderr


def test_closed_forms_match_the_variance_laplacian_and_the_parallel_term():
    model = _MODELS["mesh"]
    second, fourth = _closed_forms(model)
    assert second == pytest.approx(np.trace(bnd.variance_laplacian(model)).real, rel=1e-14)
    # Without the parallel-line term the mesh's fourth moment reads 1.93747.
    assert fourth == pytest.approx(1.97797, abs=5e-6)


@pytest.mark.parametrize("power", [2, 4])
@pytest.mark.parametrize("name", sorted(_MODELS))
def test_exact_trace_moment_identity(monkeypatch, name, power):
    model = _MODELS[name]
    want = _closed_forms(model)[power // 2 - 1]
    assert _exact_trace(monkeypatch, model, power) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("power", [2, 4])
@pytest.mark.parametrize("name", sorted(_MODELS))
def test_monte_carlo_trace_moment_identity(monkeypatch, name, power):
    model = _MODELS[name]
    want = _closed_forms(model)[power // 2 - 1]
    mean, stderr = _sampled_trace(monkeypatch, model, power)
    assert stderr > 0.0
    assert abs(mean - want) <= 3.0 * stderr


@pytest.mark.parametrize("name", ["k6_p09", "mesh"])
def test_trace_moment_identities_fail_centering_at_half(monkeypatch, name):
    # At p = 1/2 (K3, P4) the mutation changes nothing; elsewhere every identity breaks.
    model = _MODELS[name]
    _centered_at_half(monkeypatch)
    for power in (2, 4):
        want = _closed_forms(model)[power // 2 - 1]
        assert _exact_trace(monkeypatch, model, power) != pytest.approx(want, rel=1e-12)
        mean, stderr = _sampled_trace(monkeypatch, model, power)
        assert abs(mean - want) > 3.0 * stderr
        assert not math.isclose(mean, want, rel_tol=0.05)


def _frobenius_squared(z):
    """tr ZZ* of each matrix of a stack, real or complex."""
    return np.einsum("...ij,...ij->...", z, z.conj()).real


def test_exact_complex_trace_identity(monkeypatch):
    # E tr ZZ* = 4 sum_l p_l (1 - p_l) |y_l|^2 = tr V = 3.3215 on the mesh.
    model = _COMPLEX_MESH
    want = 4.0 * (model.probs * (1.0 - model.probs) * np.abs(model.admittances) ** 2).sum()
    assert want == pytest.approx(np.trace(bnd.variance_laplacian(model)).real, rel=1e-14)
    assert want == pytest.approx(3.3215, rel=1e-12)
    monkeypatch.setattr(eh, "operator_norm", _frobenius_squared)
    assert eh.brute_force_distribution(model).mean == pytest.approx(want, rel=1e-12)
    _centered_at_half(monkeypatch)
    assert eh.brute_force_distribution(model).mean != pytest.approx(want, rel=1e-12)


def _lcpf_trace_z(monkeypatch, topology, scale):
    """z-score of the mean tr Z^2 over ``lcpf_bounds``' lifted stacks (delta 0.3, 4000
    samples, seed 0, noise drawn on [-scale delta, scale delta]) against 16 m delta^2 / 3.
    Every chunk's traces come back to the caller, which takes the stats."""
    captured, sampled = [], eh.SampleStats.sampled
    monkeypatch.setattr(eh.SampleStats, "sampled",
                        staticmethod(lambda norms: captured.append(norms) or sampled(norms)))
    monkeypatch.setattr(eh, "operator_norm", _TRACES[2])
    delta = 0.3
    cfg = eh.ExperimentConfig(experiment="lcpf_bounds", samples=4000, seed=0,
                              topology=topology, delta=scale * delta)
    eh.run_lcpf_experiment(cfg)
    (traces,) = captured
    stderr = traces.std(ddof=1) / math.sqrt(len(traces))
    assert len(traces) == 4000 and stderr > 0.0
    return (traces.mean() - 16.0 * topology.n_edges * delta ** 2 / 3.0) / stderr


@pytest.mark.parametrize("name", sorted(_LCPF_TOPOLOGIES))
def test_lcpf_trace_identity(monkeypatch, name):
    # E tr Z^2 = 16 m delta^2 / 3 within 3 stderr: z = -0.85 on K4 and +0.16 on P5.
    assert abs(_lcpf_trace_z(monkeypatch, _LCPF_TOPOLOGIES[name], 1.0)) <= 3.0


@pytest.mark.parametrize("name", sorted(_LCPF_TOPOLOGIES))
def test_lcpf_trace_identity_fails_noise_on_095_delta(monkeypatch, name):
    # Noise on [-0.95 delta, 0.95 delta] holds 0.9025 of the second moment: z = -22 on K4
    # and -19 on P5.
    assert abs(_lcpf_trace_z(monkeypatch, _LCPF_TOPOLOGIES[name], 0.95)) > 3.0
