"""Closed-form concentration bounds for random admittance matrices.

Every evaluator returns the bound as a plain float; tail probabilities are
NOT clamped to 1. Arguments are checked as ``not x >= 0``, so NaN is
rejected with the negatives. Natural logarithms throughout.

The bounds implemented:

* bounded-admittance expectation bound
      E||Y|| <= sqrt(4 * Delta * log(4n)) + (2/3) * log(4n)
  for per-line weights with |w| <= 1, where Delta is the max node degree. It has
  the form of matrix Bernstein, whose terms are centered: for a law with nonzero
  mean, ||EY|| grows like Delta and outgrows it on dense grids.

* Bernoulli line-switching (contingency) bounds, driven by the per-line
  contingency factors c_l = 2 p_l (1 - p_l) |y_l|^2, the nodal criticality
  degrees d_i = sum over incident lines of c_l, their max Delta_c, and the
  normalized total criticality D_bar = sum_i d_i / Delta_c:
      Pr(||Y - EY|| >= t) <= 8 * D_bar * exp(-t^2 / (4 (Delta_c + t/3)))
  valid for t >= sqrt(2 Delta_c) + 2/3 (``thm2_tail_threshold``), and the
  expectation bound in either the fully explicit chain form or the
  single-constant form
      E||Y - EY|| <= C (sqrt(2 Delta_c log(1 + 2 D_bar)) + 2 log(1 + 2 D_bar)).

* flat-start-Jacobian (linear coupled power flow) spectral-error bounds for
  bounded parameter noise |Dg|, |Db| <= delta:
      Pr(||F - EF|| >= t) ~< n exp(-t^2 / (4 (delta^2 n + delta t / 3)))
      E||F - EF||        <= 2 delta sqrt(2) (sqrt(n log 4n) + (1/3) log 4n)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import Topology, weighted_laplacians

__all__ = [
    "UNIT_SLACK",
    "ContingencyModel",
    "CriticalityProfile",
    "thm1_expectation_bound",
    "contingency_factors",
    "variance_laplacian",
    "thm2_tail_threshold",
    "thm2_tail_bound",
    "thm2_expectation_bound",
    "lcpf_tail_bound",
    "lcpf_tail_threshold",
    "lcpf_expectation_bound",
]

# The per-unit hypothesis |y| <= 1 (and |h| <= 1 for a voltage step), with float slack.
UNIT_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class ContingencyModel:
    """Per-line Bernoulli switching model over a fixed topology.

    ``probs[l]`` is the probability line l is switched closed, and
    ``admittances[l]`` its admittance when closed, with |y_l| <= 1 per-unit.
    """

    topology: Topology
    probs: np.ndarray
    admittances: np.ndarray

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.probs, dtype=float))
        y = np.atleast_1d(np.asarray(self.admittances, dtype=complex))
        m = self.topology.n_edges
        if p.shape != (m,) or y.shape != (m,):
            raise ValueError(f"need {m} probabilities and admittances, got "
                             f"{p.shape} and {y.shape}")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("switch probabilities must lie in [0, 1]")
        if not np.all(np.abs(y) <= UNIT_SLACK):
            raise ValueError("|y| must be <= 1 per-unit on every line")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "admittances", y)


@dataclass(frozen=True)
class CriticalityProfile:
    """Contingency factors, nodal criticality degrees, and their summaries.

    ``total_degree`` (D_bar) is NaN when every line is deterministic
    (``max_criticality`` == 0); the ``degenerate`` flag marks that case.
    """

    factors: np.ndarray        # c_l per line
    node_degrees: np.ndarray   # d_i per node
    max_criticality: float     # Delta_c
    total_degree: float        # D_bar, NaN if degenerate

    @property
    def degenerate(self) -> bool:
        return self.max_criticality == 0.0


def _check_n_delta(n: int, delta: float) -> None:
    # delta is the max degree (Theorem 1) or the noise bound (the lcpf bounds).
    if not (n >= 1 and delta >= 0):
        raise ValueError(f"need n >= 1 and delta >= 0, got n = {n!r} and delta = {delta!r}")


def thm1_expectation_bound(n: int, delta: float) -> float:
    """E||Y|| bound for |w| <= 1 laws on a fixed topology with max degree delta.

    A sample may exceed it. For a law with nonzero mean, ||EY|| >= |E w| (delta + 1)
    outgrows it on dense large grids (disk, n = 100, p = 1: ||Y|| 66-68 vs 52.7).
    """
    _check_n_delta(n, delta)
    log4n = math.log(4.0 * n)
    return math.sqrt(4.0 * delta * log4n) + (2.0 / 3.0) * log4n


def contingency_factors(model: ContingencyModel) -> CriticalityProfile:
    """Contingency factors c_l = 2 p_l (1-p_l) |y_l|^2 and nodal criticality."""
    # d is the variance Laplacian's diagonal: c_l added at both ends in line order.
    d = variance_laplacian(model).diagonal().copy()
    delta_c = float(d.max(initial=0.0))
    d_bar = float(d.sum() / delta_c) if delta_c > 0.0 else math.nan
    return CriticalityProfile(factors=_factors(model), node_degrees=d,
                              max_criticality=delta_c, total_degree=d_bar)


def variance_laplacian(model: ContingencyModel) -> np.ndarray:
    """Matrix-valued variance E[(Y-EY)(Y-EY)*] = A^T diag(c) A.

    A graph Laplacian on the same topology with the contingency factors as
    line weights.
    """
    return weighted_laplacians(model.topology, _factors(model))


def _factors(model: ContingencyModel) -> np.ndarray:
    return 2.0 * model.probs * (1.0 - model.probs) * np.abs(model.admittances) ** 2


def thm2_tail_threshold(profile: CriticalityProfile) -> float:
    """Smallest t the contingency tail bound holds for (see the module docstring).

    0 for a degenerate profile, whose tail bound is exact at every t >= 0.
    """
    if profile.degenerate:
        return 0.0
    return math.sqrt(2.0 * profile.max_criticality) + 2.0 / 3.0


def thm2_tail_bound(t: float, profile: CriticalityProfile) -> float:
    """Tail bound 8 D_bar exp(-t^2 / (4 (Delta_c + t/3))) for ||Y - EY||.

    It holds for t >= :func:`thm2_tail_threshold`; the value is computed for
    every t >= 0. With every line deterministic (a degenerate profile) the
    centered matrix is zero, and the bound is the exact tail: 1 at t = 0, else
    0. The prefactor 8 D_bar is 4 times the dilation bound 2 intdim(V) <= 2 D_bar.
    """
    if not t >= 0:
        raise ValueError("threshold t must be >= 0")
    if profile.degenerate:
        return 0.0 if t > 0.0 else 1.0
    denominator = 4.0 * (profile.max_criticality + t / 3.0)
    if math.isinf(denominator):  # Delta_c <= m / 2, so t/3 overflowed: the limit 0
        return 0.0
    return 8.0 * profile.total_degree * math.exp(-t * t / denominator)


def thm2_expectation_bound(profile: CriticalityProfile,
                           constant: float | None = None) -> float:
    """E||Y - EY|| bound under Bernoulli switching.

    With ``constant=None`` returns the fully explicit chain
        sqrt(2 nu log(1+d)) + (2/3) L log(1+d) + 4 sqrt(nu) + (8/3) L
    with nu = 2 Delta_c, L = 2, d = 2 D_bar. With ``constant=C`` returns
        C (sqrt(2 Delta_c log(1 + 2 D_bar)) + 2 log(1 + 2 D_bar)).
    """
    if constant is not None and not constant > 0.0:
        raise ValueError("constant must be > 0")
    if profile.degenerate:  # all lines deterministic: Y - EY is zero
        return 0.0
    dc = profile.max_criticality
    log1d = math.log1p(2.0 * profile.total_degree)  # d = 2 D_bar
    if constant is None:
        nu, big_l = 2.0 * dc, 2.0
        return (math.sqrt(2.0 * nu * log1d) + (2.0 / 3.0) * big_l * log1d
                + 4.0 * math.sqrt(nu) + (8.0 / 3.0) * big_l)
    return constant * (math.sqrt(2.0 * dc * log1d) + 2.0 * log1d)


def lcpf_tail_bound(t: float, n: int, delta: float) -> float:
    """Tail bound n exp(-t^2 / (4 (delta^2 n + delta t / 3))) for ||F - EF||.

    The prefactor n implements the stated up-to-constants form literally; a
    rigorous alternative is the Bernstein 2*(2n) prefactor (dominance checks
    use a slack factor of 4).
    """
    if not t >= 0:
        raise ValueError("threshold t must be >= 0")
    _check_n_delta(n, delta)
    if t == 0.0:
        return float(n)
    if delta == 0.0:
        return 0.0
    denominator = 4.0 * (delta * delta * n + delta * t / 3.0)
    if not 0.0 < denominator < math.inf or t * t == math.inf:  # out of range: divide by t
        return n * math.exp(-t / (4.0 * delta * (delta * n / t + 1.0 / 3.0)))
    return n * math.exp(-t * t / denominator)


def lcpf_tail_threshold(n: int, delta: float) -> float:
    """The t where :func:`lcpf_tail_bound` crosses 1, the root of
    t^2 = 4 log(n) (delta^2 n + delta t / 3): 0 when n = 1 or delta = 0."""
    _check_n_delta(n, delta)
    log_n = math.log(n)
    half_linear = 2.0 * delta * log_n / 3.0
    return half_linear + math.sqrt(half_linear ** 2 + 4.0 * delta * delta * n * log_n)


def lcpf_expectation_bound(n: int, delta: float) -> float:
    """E||F - EF|| <= 2 delta sqrt(2) (sqrt(n log 4n) + (1/3) log 4n)."""
    _check_n_delta(n, delta)
    log4n = math.log(4.0 * n)
    return 2.0 * delta * math.sqrt(2.0) * (math.sqrt(n * log4n) + log4n / 3.0)
