"""Admittance matrices Y = A^T diag(w) A and their lifted real forms.

A line admittance is w = g + jb (conductance, susceptance, per-unit). The
network admittance matrix is the complex symmetric Laplacian built from
rank-one elementary Laplacians, Y = sum_l w_l (e_i - e_j)(e_i - e_j)^T.
Its real 2n x 2n lift [[G, B], [B, -G]] has the same operator norm as Y;
the flat-start power-flow Jacobian [[G, -B], [-B, -G]] differs only in the
sign convention of the 2 x 2 per-line admittance block. Both conventions are
exposed explicitly because conflating them corrupts reconstruction checks.

Randomness enters through per-line distributions:

* ``FixedDeterministic`` -- a known admittance (no randomness);
* ``FixedBernoulli``     -- w = y * xi with xi ~ Ber(p), the line-switching
  contingency model;
* ``BoundedPerturbation``-- w = (g0 + Dg) + j(b0 + Db) with |Dg|, |Db| <=
  delta, sampled uniformly;
* ``SphereUniform``      -- the conductance and susceptance vectors are
  independent and uniform on the sphere g^T g = radius_sq in R^m. This is a
  joint law across all lines, so it cannot be mixed with per-line kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import Topology, incidence_matrix

__all__ = [
    "LineAdmittance",
    "FixedDeterministic",
    "FixedBernoulli",
    "BoundedPerturbation",
    "SphereUniform",
    "AdmittanceMatrix",
    "elementary_laplacian",
    "assemble_admittance",
    "weighted_laplacians",
    "lift_real",
    "flat_start_lift",
    "admittance_block",
    "elementary_jacobian",
    "sample_weights",
    "expected_weights",
    "expected_admittance",
    "center",
    "max_abs_support",
    "distributions_to_json",
    "distributions_from_json",
]


@dataclass(frozen=True)
class LineAdmittance:
    """One line's conductance/susceptance pair (per-unit)."""

    g: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.g) and math.isfinite(self.b)):
            raise ValueError("line admittance must be finite")

    @property
    def w(self) -> complex:
        return complex(self.g, self.b)


@dataclass(frozen=True)
class FixedDeterministic:
    admittance: complex

    @property
    def mean(self) -> complex:
        return complex(self.admittance)


@dataclass(frozen=True)
class FixedBernoulli:
    """Line switched closed with probability ``prob``, carrying ``admittance``."""

    admittance: complex
    prob: float

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"switch probability must lie in [0, 1], got {self.prob}")

    @property
    def mean(self) -> complex:
        return self.prob * complex(self.admittance)


@dataclass(frozen=True)
class BoundedPerturbation:
    """Known center (g, b) plus independent uniform noise bounded by delta."""

    center_g: float
    center_b: float
    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"perturbation bound must be >= 0, got {self.delta}")

    @property
    def mean(self) -> complex:
        return complex(self.center_g, self.center_b)


@dataclass(frozen=True)
class SphereUniform:
    """g and b vectors iid uniform on the sphere of squared radius ``radius_sq``.

    Joint across all m lines: every line of a sampled batch must carry the
    same SphereUniform spec.
    """

    radius_sq: float = 0.5

    def __post_init__(self):
        if self.radius_sq < 0:
            raise ValueError(f"squared radius must be >= 0, got {self.radius_sq}")

    @property
    def mean(self) -> complex:
        return 0j


LineDistribution = FixedDeterministic | FixedBernoulli | BoundedPerturbation | SphereUniform


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Complex symmetric Laplacian Y together with the topology it came from."""

    matrix: np.ndarray
    topology: Topology

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        n = self.topology.n_nodes
        if a.shape != (n, n):
            raise ValueError(f"admittance matrix shape {a.shape} != ({n}, {n})")
        if not np.all(np.isfinite(a)):
            raise ValueError("admittance matrix contains NaN or Inf")
        object.__setattr__(self, "matrix", a)

    @property
    def conductance(self) -> np.ndarray:
        return self.matrix.real

    @property
    def susceptance(self) -> np.ndarray:
        return self.matrix.imag


def elementary_laplacian(i: int, j: int, n: int) -> np.ndarray:
    """Rank-one Laplacian (e_i - e_j)(e_i - e_j)^T of a single unit line.

    Trace 2, operator norm 2, PSD. Raises ValueError for a self-loop or an
    endpoint out of range.
    """
    return weighted_laplacians(Topology(n, ((i, j),)), np.ones(1))


def assemble_admittance(topology: Topology, weights) -> AdmittanceMatrix:
    """Y = A^T diag(w) A from per-line admittances (one per edge, in order)."""
    weights = list(weights)
    if len(weights) != topology.n_edges:
        raise ValueError(
            f"{len(weights)} weights for {topology.n_edges} lines")
    w = np.array([la.w if isinstance(la, LineAdmittance) else complex(la)
                  for la in weights])
    a = incidence_matrix(topology)
    y = a.T @ (w[:, None] * a)
    return AdmittanceMatrix(matrix=y, topology=topology)


def weighted_laplacians(topology: Topology, weights) -> np.ndarray:
    """sum_l w[..., l] (e_i - e_j)(e_i - e_j)^T for a (..., m) weight array.

    Scatters from the edge list in line order: each entry is the same sum as
    adding ``w_l * elementary_laplacian`` term by term, with no per-line matrix.
    """
    w = np.asarray(weights)
    if w.shape[-1:] != (topology.n_edges,):
        raise ValueError(f"weights of shape {w.shape} for {topology.n_edges} lines")
    n = topology.n_nodes
    y = np.zeros(w.shape[:-1] + (n, n), dtype=np.result_type(w, float))
    for l, (i, j) in enumerate(topology.edges):
        c = w[..., l]
        y[..., i, i] += c
        y[..., j, j] += c
        y[..., i, j] -= c
        y[..., j, i] -= c
    return y


def _lift(g: np.ndarray, b: np.ndarray, sign: float) -> np.ndarray:
    return np.block([[g, sign * b], [sign * b, -g]])


def lift_real(y) -> np.ndarray:
    """Real symmetric 2n x 2n lift [[G, B], [B, -G]] of Y = G + jB.

    Has the same operator norm as Y. Accepts an AdmittanceMatrix or a raw
    complex square array.
    """
    m = y.matrix if isinstance(y, AdmittanceMatrix) else np.asarray(y, dtype=complex)
    return _lift(m.real, m.imag, +1.0)


def flat_start_lift(y) -> np.ndarray:
    """Jacobian-convention lift [[G, -B], [-B, -G]] of Y = G + jB."""
    m = y.matrix if isinstance(y, AdmittanceMatrix) else np.asarray(y, dtype=complex)
    return _lift(m.real, m.imag, -1.0)


def admittance_block(g: float, b: float, convention: str = "lifted") -> np.ndarray:
    """Per-line 2 x 2 symmetric admittance block.

    ``lifted`` gives [[g, b], [b, -g]] (the lift of Y); ``jacobian`` gives
    [[g, -b], [-b, -g]] (the flat-start Jacobian). Either way the operator
    norm is sqrt(g^2 + b^2).
    """
    if convention == "lifted":
        return np.array([[g, b], [b, -g]])
    if convention == "jacobian":
        return np.array([[g, -b], [-b, -g]])
    raise ValueError(f"unknown sign convention {convention!r}")


def elementary_jacobian(g: float, b: float, i: int, j: int, n: int,
                        convention: str = "lifted") -> np.ndarray:
    """One line's 2n x 2n contribution: admittance block (x) elementary Laplacian.

    Operator norm is 2*sqrt(g^2 + b^2); Frobenius norm is 2*sqrt(2) times the
    block's operator norm.
    """
    return np.kron(admittance_block(g, b, convention), elementary_laplacian(i, j, n))


def _validate_homogeneous_sphere(dists) -> SphereUniform:
    spheres = [d for d in dists if isinstance(d, SphereUniform)]
    if spheres and len(spheres) != len(dists):
        raise ValueError("sphere law is joint across lines; cannot mix with per-line kinds")
    if spheres:
        r2 = spheres[0].radius_sq
        if any(s.radius_sq != r2 for s in spheres):
            raise ValueError("all sphere entries must share one radius")
        return spheres[0]
    return None


def _sphere_sample(rng: np.random.Generator, m: int, radius_sq: float) -> np.ndarray:
    # Normalized Gaussian vector: rotation invariance gives the uniform
    # sphere law, and the degenerate radius 0 collapses to the zero vector.
    if radius_sq == 0.0:
        return np.zeros(m)
    z = rng.standard_normal(m)
    norm = np.linalg.norm(z)
    while norm == 0.0:  # probability-zero guard
        z = rng.standard_normal(m)
        norm = np.linalg.norm(z)
    return z * (math.sqrt(radius_sq) / norm)


def sample_weights(dists, rng: np.random.Generator) -> list[LineAdmittance]:
    """Draw one admittance per line.

    Per-line kinds sample independently in line order (fixed draw count per
    kind, so replays are deterministic). The sphere kind draws the whole g
    and b vectors jointly, enforcing g^T g = b^T b = radius_sq exactly.
    """
    dists = list(dists)
    sphere = _validate_homogeneous_sphere(dists)
    if sphere is not None:
        m = len(dists)
        g = _sphere_sample(rng, m, sphere.radius_sq)
        b = _sphere_sample(rng, m, sphere.radius_sq)
        return [LineAdmittance(float(g[l]), float(b[l])) for l in range(m)]

    out = []
    for d in dists:
        if isinstance(d, FixedDeterministic):
            w = complex(d.admittance)
        elif isinstance(d, FixedBernoulli):
            w = complex(d.admittance) if rng.random() < d.prob else 0j
        elif isinstance(d, BoundedPerturbation):
            dg = rng.uniform(-d.delta, d.delta)
            db = rng.uniform(-d.delta, d.delta)
            w = complex(d.center_g + dg, d.center_b + db)
        else:
            raise ValueError(f"unknown line distribution {type(d).__name__}")
        out.append(LineAdmittance(w.real, w.imag))
    return out


def expected_weights(dists) -> list[LineAdmittance]:
    """Closed-form per-line means (Bernoulli p*y, bounded center, sphere 0)."""
    means = []
    for d in dists:
        try:
            mu = d.mean
        except AttributeError:
            raise ValueError(f"no closed-form mean for {type(d).__name__}") from None
        means.append(LineAdmittance(mu.real, mu.imag))
    return means


def expected_admittance(topology: Topology, dists) -> AdmittanceMatrix:
    """E[Y] assembled from the per-line closed-form means."""
    return assemble_admittance(topology, expected_weights(dists))


def center(sample: AdmittanceMatrix, expected: AdmittanceMatrix) -> np.ndarray:
    """Centered admittance matrix Y - E[Y] (zero mean by construction)."""
    if sample.matrix.shape != expected.matrix.shape:
        raise ValueError("sample/expected shape mismatch")
    return sample.matrix - expected.matrix


def max_abs_support(dist: LineDistribution) -> float:
    """Supremum of |w| over the distribution's support.

    Used to validate the |w| <= 1 hypothesis of the bounded-admittance
    expectation bound before applying it.
    """
    if isinstance(dist, FixedDeterministic):
        return abs(complex(dist.admittance))
    if isinstance(dist, FixedBernoulli):
        return abs(complex(dist.admittance))
    if isinstance(dist, BoundedPerturbation):
        return math.hypot(abs(dist.center_g) + dist.delta, abs(dist.center_b) + dist.delta)
    if isinstance(dist, SphereUniform):
        # Each coordinate of either vector can carry the full radius.
        return math.sqrt(2.0 * dist.radius_sq)
    raise ValueError(f"unknown line distribution {type(dist).__name__}")


def _complex_pair(w: complex) -> list[float]:
    w = complex(w)
    return [w.real, w.imag]


def distributions_to_json(dists) -> list[dict]:
    """JSON-friendly per-line distribution spec list."""
    out = []
    for d in dists:
        if isinstance(d, FixedDeterministic):
            out.append({"kind": "fixed", "admittance": _complex_pair(d.admittance)})
        elif isinstance(d, FixedBernoulli):
            out.append({"kind": "bernoulli", "admittance": _complex_pair(d.admittance),
                        "p": d.prob})
        elif isinstance(d, BoundedPerturbation):
            out.append({"kind": "bounded", "center_g": d.center_g,
                        "center_b": d.center_b, "delta": d.delta})
        elif isinstance(d, SphereUniform):
            out.append({"kind": "sphere", "radius_sq": d.radius_sq})
        else:
            raise ValueError(f"unknown line distribution {type(d).__name__}")
    return out


def distributions_from_json(items) -> list[LineDistribution]:
    """Inverse of :func:`distributions_to_json`."""
    out = []
    for item in items:
        kind = item.get("kind")
        if kind == "fixed":
            re, im = item["admittance"]
            out.append(FixedDeterministic(complex(re, im)))
        elif kind == "bernoulli":
            re, im = item["admittance"]
            out.append(FixedBernoulli(complex(re, im), float(item["p"])))
        elif kind == "bounded":
            out.append(BoundedPerturbation(float(item["center_g"]),
                                           float(item["center_b"]),
                                           float(item["delta"])))
        elif kind == "sphere":
            out.append(SphereUniform(float(item.get("radius_sq", 0.5))))
        else:
            raise ValueError(f"unknown line distribution kind {kind!r}")
    return out
