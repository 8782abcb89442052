"""Second-moment floors: E||Z||^2 >= ||E Z Z*|| = nu for a centered random matrix Z.

Every other check of a run is a ceiling: a bound must dominate an empirical value.
A norm kernel that returned norms 10% low, or a sampler that drew half the noise,
would pass them all. Jensen gives a floor from the same matrix variance that drives
the ceilings (Tropp, arXiv:1501.01571, section 6.1), and for this repo's models nu is
exact: ||variance_laplacian(model)|| for line switching, and (4 delta^2 / 3) ||A^T A||
for ``lcpf_bounds``' uniform noise on [-delta, delta], whose lifted terms square to
(4 delta^2 / 3) I_2 x A^T A in expectation. No run's output changes.
"""

import math

import numpy as np
import pytest

from grid_concentrator import bounds as bnd
from grid_concentrator import experiment_harness as eh
from grid_concentrator import graph_core as gc
from grid_concentrator.spectra import operator_norm

# tests/test_golden.py's _MESH model: parallel lines, complex admittances, mixed p.
_MESH = bnd.ContingencyModel(gc.Topology(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 1)]),
                             [0.5, 0.3, 0.8, 0.6, 0.25],
                             [0.6 - 0.8j, 0.5 - 0.5j, 1.0, 0.3 - 0.9j, 0.2 - 0.7j])
# (model, E||Z||^2, nu). Not P3 at p = 1/2: there E||Z||^2 = nu = 1.5 exactly.
_EXACT = {
    "k3": (bnd.ContingencyModel(gc.complete_topology(3), np.full(3, 0.5), np.ones(3)),
           2.25, 1.5),
    "p4": (bnd.ContingencyModel(gc.path_topology(4), np.full(3, 0.5), np.ones(3)),
           2.0321, 1.7071),
    "mesh": (_MESH, 2.566, 1.787),
}


def _exact_floor(model):
    """(E||Z||^2, nu) of the switching model, by enumeration."""
    stats = eh.brute_force_distribution(model)
    return float(stats.probabilities @ stats.norms ** 2), \
        operator_norm(bnd.variance_laplacian(model))


def _lcpf_floor(monkeypatch, drawn=0.1, delta=0.1, topology=None, samples=None):
    """(mean(norm^2) + 3 stderr, nu) of ``lcpf_bounds`` at seed 0, by default on P3 with
    10 000 samples, its noise drawn on [-drawn, drawn] and nu taken at ``delta``."""
    captured, sampled = [], eh.SampleStats.sampled
    monkeypatch.setattr(eh.SampleStats, "sampled",
                        staticmethod(lambda norms: captured.append(norms) or sampled(norms)))
    cfg = eh.ExperimentConfig(experiment="lcpf_bounds", delta=drawn, topology=topology,
                              samples=samples)
    eh.run_lcpf_experiment(cfg)
    squares = captured[0] ** 2
    laplacian = gc.weighted_laplacians(cfg.topology, np.ones(cfg.topology.n_edges))
    nu = 4.0 * delta ** 2 / 3.0 * operator_norm(laplacian)
    return squares.mean() + 3.0 * squares.std(ddof=1) / math.sqrt(len(squares)), nu


@pytest.mark.parametrize("name", sorted(_EXACT))
def test_exact_second_moment_floor(name):
    model, second_moment, nu = _EXACT[name]
    got_second_moment, got_nu = _exact_floor(model)
    assert (got_second_moment, got_nu) == pytest.approx((second_moment, nu), abs=5e-4)
    assert got_second_moment >= got_nu


def test_monte_carlo_second_moment_floor(monkeypatch):
    # mean(norm^2) is 0.045763 +- 0.000232 against nu = 0.04 on P3.
    upper, nu = _lcpf_floor(monkeypatch)
    assert nu == pytest.approx(0.04, rel=1e-12)
    assert upper == pytest.approx(0.045763 + 3 * 0.000232, abs=2e-6)
    assert upper >= nu


def test_monte_carlo_second_moment_floor_k50(monkeypatch):
    # K50 at delta 0.1, 100 samples: mean(norm^2) is 2.5213 +- 0.0336, 3.78 times
    # nu = (4 delta^2 / 3) 50.
    upper, nu = _lcpf_floor(monkeypatch, topology=gc.complete_topology(50), samples=100)
    assert nu == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert upper == pytest.approx(2.5213 + 3 * 0.0336, abs=2e-4)
    assert upper >= nu


def test_monte_carlo_second_moment_floor_300_bus_path(monkeypatch):
    # A 300-bus path at delta 0.1, 40 samples: mean(norm^2) is 0.145214 +- 0.001795, 2.72
    # times nu = (4 delta^2 / 3) (2 + 2 cos(pi / 300)). The tolerance holds at one BLAS
    # thread and at the default count, whose LAPACK roundings differ at this size.
    upper, nu = _lcpf_floor(monkeypatch, topology=gc.path_topology(300), samples=40)
    assert nu == pytest.approx(0.04 / 3.0 * (2.0 + 2.0 * math.cos(math.pi / 300)), rel=1e-12)
    assert upper == pytest.approx(0.145214 + 3 * 0.001795, abs=2e-6)
    assert upper >= nu


def test_second_moment_floors_have_teeth(monkeypatch):
    # Noise on [-delta/2, delta/2] holds a quarter of the second moment.
    upper, nu = _lcpf_floor(monkeypatch, drawn=0.05)
    assert upper < nu
    # Norms 10% low hold 0.81 of it: P4 falls to 0.964 of its floor.
    norm = eh.operator_norm
    monkeypatch.setattr(eh, "operator_norm", lambda a: 0.9 * norm(a))
    second_moment, nu = _exact_floor(_EXACT["p4"][0])
    assert second_moment / nu == pytest.approx(0.964, abs=5e-4)
    upper, nu = _lcpf_floor(monkeypatch)
    assert upper < nu
