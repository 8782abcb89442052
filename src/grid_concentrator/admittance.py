"""Admittance matrices Y = A^T diag(w) A and their lifted real forms.

A line admittance is w = g + jb (conductance, susceptance, per-unit). The
network admittance matrix is the complex symmetric Laplacian
Y = sum_l w_l (e_i - e_j)(e_i - e_j)^T, held as a plain complex (n, n)
array. Its real 2n x 2n lift [[G, B], [B, -G]] has the same operator norm as
Y; the flat-start power-flow Jacobian [[G, -B], [-B, -G]] differs only in the
sign of the off-diagonal blocks. :func:`lift_blocks` takes that sign
explicitly, because conflating the two corrupts reconstruction checks.

Randomness enters through line laws. A law is one object for all m lines
with scalar parameters. It takes ``law.draws`` uniforms per line, and
``law.transform`` maps any (..., m, draws) uniform array, such as a whole
chunk of samples, to complex (..., m) weights: ``law.transform(rng.random((m,
law.draws)))`` is one sample. ``law.mean`` is E[w_l] and ``law.support`` is the
largest |w| it can draw (the |w| <= 1 hypothesis of the degree bound is
checked against it).

* ``UnitDisk``           -- uniform on the unit disk, reflected to g >= 0, b <= 0;
* ``FixedDeterministic`` -- a known admittance (no randomness);
* ``FixedBernoulli``     -- w = y * xi with xi ~ Ber(p), the line-switching
  contingency model;
* ``BoundedPerturbation``-- w = (g0 + Dg) + j(b0 + Db) with |Dg|, |Db| <=
  delta, sampled uniformly;
* ``SphereUniform``      -- the conductance and susceptance vectors are
  independent and uniform on the sphere g^T g = radius_sq in R^m (a joint
  law across the lines, not iid per line), by Box-Muller normals.

The same uniforms give the same weights, so a seed replays.
:func:`line_law_from_json` parses the JSON form ``{"kind": ..., fields}``.
Weights are complex (m,) arrays in edge order everywhere.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .graph_core import Topology, weighted_laplacians

__all__ = [
    "UnitDisk",
    "FixedDeterministic",
    "FixedBernoulli",
    "BoundedPerturbation",
    "SphereUniform",
    "LineLaw",
    "line_law_from_json",
    "real_from_json",
    "complex_from_json",
    "line_weights",
    "assemble_admittance",
    "lift_blocks",
]


def _complex(g, b) -> np.ndarray:
    w = np.empty(np.shape(g), dtype=complex)
    w.real = g
    w.imag = b
    return w


@dataclass(frozen=True)
class UnitDisk:
    """w uniform on the unit disk, reflected to g >= 0, b <= 0.

    Line l takes two uniforms (u0, u1), then r = sqrt(u0), phi = 2 pi u1 and
    w = |r cos phi| - j |r sin phi|.
    """

    mean = complex(4.0 / (3.0 * math.pi), -4.0 / (3.0 * math.pi))
    support = 1.0
    draws = 2

    def transform(self, u: np.ndarray) -> np.ndarray:
        r = np.sqrt(u[..., 0])
        phi = 2.0 * math.pi * u[..., 1]
        return _complex(np.abs(r * np.cos(phi)), -np.abs(r * np.sin(phi)))


@dataclass(frozen=True)
class FixedDeterministic:
    """The same known admittance on every line; draws nothing."""

    admittance: complex
    draws = 0

    def transform(self, u: np.ndarray) -> np.ndarray:
        return np.full(u.shape[:-1], complex(self.admittance))

    @property
    def mean(self) -> complex:
        return complex(self.admittance)

    @property
    def support(self) -> float:
        return abs(complex(self.admittance))


@dataclass(frozen=True)
class FixedBernoulli:
    """Each line closed with probability ``prob``, carrying ``admittance``.

    One uniform per line: closed when it is below ``prob``.
    """

    admittance: complex
    prob: float
    draws = 1

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"switch probability must lie in [0, 1], got {self.prob}")

    def transform(self, u: np.ndarray) -> np.ndarray:
        return np.where(u[..., 0] < self.prob, complex(self.admittance), 0j)

    @property
    def mean(self) -> complex:
        return self.prob * complex(self.admittance)

    @property
    def support(self) -> float:
        return abs(complex(self.admittance))


@dataclass(frozen=True)
class BoundedPerturbation:
    """Known center (g, b) plus independent uniform noise bounded by delta.

    Two uniforms per line, Dg then Db, each -delta + 2 delta u: bit for bit
    ``Generator.uniform(-delta, delta)``.
    """

    center_g: float
    center_b: float
    delta: float
    draws = 2

    def __post_init__(self):
        if not self.delta >= 0:
            raise ValueError(f"perturbation bound must be >= 0, got {self.delta}")

    def transform(self, u: np.ndarray) -> np.ndarray:
        d = -self.delta + (2 * self.delta) * u
        return _complex(self.center_g + d[..., 0], self.center_b + d[..., 1])

    @property
    def mean(self) -> complex:
        return complex(self.center_g, self.center_b)

    @property
    def support(self) -> float:
        return math.hypot(abs(self.center_g) + self.delta, abs(self.center_b) + self.delta)


@dataclass(frozen=True)
class SphereUniform:
    """g and b vectors iid uniform on the sphere of squared radius ``radius_sq``.

    Box-Muller: line l's two uniforms (u0, u1) give its g and b normals r cos phi
    and r sin phi, with r = sqrt(-2 ln(1 - u0)) and phi = 2 pi u1. Each of the
    two normal m-vectors is scaled to length sqrt(radius_sq); rotation invariance
    makes it uniform on the sphere. A zero vector (m = 0, or probability zero)
    stays zero.
    """

    radius_sq: float = 0.5
    mean = 0j
    draws = 2

    def __post_init__(self):
        if not self.radius_sq >= 0:
            raise ValueError(f"squared radius must be >= 0, got {self.radius_sq}")

    def transform(self, u: np.ndarray) -> np.ndarray:
        # math.log per element: numpy's AVX-512 log loop rounds unlike its baseline loop.
        # The radii are written in place and dropped with the angles once z holds them:
        # all live at once, they took a full K100 manifold chunk to 1.19 of its budget.
        r = np.fromiter(map(math.log, (1.0 - u[..., 0]).flat), float, u[..., 0].size)
        phi = 2.0 * math.pi * u[..., 1]
        z = np.stack([np.cos(phi), np.sin(phi)])
        z *= np.sqrt(np.multiply(r, -2.0, out=r), out=r).reshape(phi.shape)
        del r, phi
        # Squared norms summed in line order, so zero-padded lines leave them unchanged.
        norm = np.sqrt(np.cumsum(z * z, axis=-1)[..., -1:])
        z *= np.divide(math.sqrt(self.radius_sq), norm, out=np.zeros_like(norm), where=norm > 0)
        return _complex(z[0], z[1])

    @property
    def support(self) -> float:
        # Each coordinate of either vector can carry the full radius.
        return math.sqrt(2.0 * self.radius_sq)


LineLaw = UnitDisk | FixedDeterministic | FixedBernoulli | BoundedPerturbation | SphereUniform

# kind -> (law, its JSON fields in argument order with their defaults; None: required)
_LAWS = {
    "disk": (UnitDisk, {}),
    "fixed": (FixedDeterministic, {"admittance": 1.0}),
    "bernoulli": (FixedBernoulli, {"admittance": 1.0, "p": None}),
    "bounded": (BoundedPerturbation, {"center_g": None, "center_b": None, "delta": None}),
    "sphere": (SphereUniform, {"radius_sq": 0.5}),
}


def real_from_json(value, key: str = "", low: float = -math.inf,
                   high: float = math.inf) -> float:
    """``value`` as a float. Raises ValueError, naming ``key`` if given, unless
    it is an integer or float (not a boolean) in [low, high] and in the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not max(low, -sys.float_info.max) <= value <= min(high, sys.float_info.max):
        within = "" if (low, high) == (-math.inf, math.inf) else f" in [{low}, {high}]"
        raise ValueError(f"{key} must be a finite number{within}, got {value!r}".lstrip())
    return float(value)


def complex_from_json(value, key: str = "") -> complex:
    """A real number, or an ``[re, im]`` pair of them, as a complex number
    (a complex number passes through if finite)."""
    if isinstance(value, (complex, np.complexfloating)):
        value = [value.real, value.imag]
    if not isinstance(value, (list, tuple)):
        return complex(real_from_json(value, key))
    if len(value) != 2:
        raise ValueError(f"{key} must be a number or an [re, im] pair, got {value!r}".lstrip())
    return complex(real_from_json(value[0], key), real_from_json(value[1], key))


def line_law_from_json(obj) -> LineLaw:
    """Parse ``{"kind": ..., fields}`` into a line law (a law passes through).

    The kinds, their fields and defaults are those of ``_LAWS``; ``admittance``
    is a number or an [re, im] pair, every other field a number. Raises
    ValueError for any other kind, an unknown or missing field, or a field
    that is not finite.
    """
    if isinstance(obj, LineLaw):
        return obj
    if not isinstance(obj, dict) or obj.get("kind") not in _LAWS:
        raise ValueError(f"must be an object with a 'kind' in "
                         f"{', '.join(_LAWS)}, got {obj!r}")
    kind = obj["kind"]
    law, fields = _LAWS[kind]
    unknown = set(obj) - {"kind", *fields}
    if unknown:
        raise ValueError(f"has unknown fields {sorted(unknown)} for kind {kind!r}")
    return law(*((complex_from_json if key == "admittance" else real_from_json)(
        obj.get(key, default), key) for key, default in fields.items()))


def line_weights(topology: Topology, weights) -> np.ndarray:
    """``weights`` as a complex (m,) array: one admittance per line, in edge
    order. Raises ValueError for any other shape or a NaN or Inf weight."""
    w = np.asarray(weights, dtype=complex)
    if w.shape != (topology.n_edges,):
        raise ValueError(f"weights of shape {w.shape} for {topology.n_edges} lines")
    if not np.all(np.isfinite(w)):
        raise ValueError("line weights contain NaN or Inf")
    return w


def assemble_admittance(topology: Topology, weights) -> np.ndarray:
    """Y = A^T diag(w) A as a complex (n, n) array, from (m,) line admittances."""
    return weighted_laplacians(topology, line_weights(topology, weights))


def lift_blocks(g, b, sign: float) -> np.ndarray:
    """[[g, sign*b], [sign*b, -g]] from scalars, matrices or (..., k, k) stacks
    (joined along the last two axes). ``sign`` +1 lifts Y = G + jB; -1 is
    the flat-start Jacobian convention. The four blocks are written into one
    array, bit-equal to ``np.block`` of them, with no temporary per block."""
    g, b = np.atleast_2d(g, b)
    k, j = g.shape[-2:]
    out = np.empty(g.shape[:-2] + (2 * k, 2 * j), dtype=np.result_type(g, b, float(sign)))
    out[..., :k, :j] = g
    np.multiply(sign, b, out=out[..., :k, j:])
    out[..., k:, :j] = out[..., :k, j:]
    np.negative(g, out=out[..., k:, j:])
    return out
