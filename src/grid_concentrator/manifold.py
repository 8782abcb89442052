"""Power-flow manifold map, tangent-step residuals, and distance bounds.

The AC power-flow manifold in complex coordinates is the graph of the
quadratic map psi(u) = diag(u) * conj(Y u) from voltages to injections. A
tangent step h from a base point (u, psi(u)) lands at

    (u + h, psi(u) + Dpsi(u)[h]),

and because psi is exactly quadratic the off-manifold residual is the closed
form diag(h) * conj(Y h). Three times its norm certifies the Euclidean
distance to the manifold, which chains into the expectation bounds on ||Y||:

    E[dist] <= 3 ||h||_inf ||h||_2 E[||Y||] <= 3 ||h||_2^2 E[||Y||].

True projection onto the manifold is nonconvex and not attempted; the
certificate plus the same-voltage projection proxy sandwich the distance.
Complex vectors are identified with stacked real/imaginary parts, so the
complex 2-norm is the ambient Euclidean norm. Every function takes plain
arrays: ``y`` is the admittance matrix Y as a complex (n, n) array or a C-order
(..., n, n) stack, with one result per matrix, bit-equal to per-matrix calls;
``u`` is the base voltage and ``h`` the step, both of length n. The residual
functions evaluate psi(u) from the given ``y``, so the two cannot disagree.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "power_flow_map",
    "power_flow_derivative",
    "tangent_residual",
    "projection_distance",
    "distance_bound",
]

_RESIDUAL_TOL = 1e-12


def _as_complex_vector(v, n: int | None = None, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=complex).ravel()
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf")
    if n is not None and a.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got {a.shape}")
    return a


def power_flow_map(y, u) -> np.ndarray:
    """Injections s = diag(u) * conj(Y u)."""
    ym = np.asarray(y, dtype=complex)
    uv = _as_complex_vector(u, ym.shape[-1], "voltage")
    return uv * np.conj(ym @ uv)


def power_flow_derivative(y, u, h) -> np.ndarray:
    """Frechet derivative Dpsi(u)[h] = diag(h) conj(Y u) + diag(u) conj(Y h)."""
    ym = np.asarray(y, dtype=complex)
    uv = _as_complex_vector(u, ym.shape[-1], "voltage")
    hv = _as_complex_vector(h, ym.shape[-1], "step")
    return hv * np.conj(ym @ uv) + uv * np.conj(ym @ hv)


def tangent_residual(y, u, h) -> np.ndarray:
    """Second-order remainder psi(u+h) - psi(u) - Dpsi(u)[h] of the step h from u.

    Computed by the closed form diag(h) * conj(Y h) and cross-checked
    against the direct Taylor subtraction, with psi(u) taken from the same
    ``y`` (the map is exactly quadratic, so the two must agree to 1e-12 of
    each matrix's own residual scale).
    """
    ym = np.asarray(y, dtype=complex)
    uv = _as_complex_vector(u, ym.shape[-1], "voltage")
    hv = _as_complex_vector(h, ym.shape[-1], "step")
    closed = hv * np.conj(ym @ hv)
    direct = (power_flow_map(ym, uv + hv) - power_flow_map(ym, uv)
              - power_flow_derivative(ym, uv, hv))
    scale = np.maximum(1.0, np.max(np.abs(closed), axis=-1, initial=0.0))
    if np.any(np.max(np.abs(closed - direct), axis=-1, initial=0.0) > _RESIDUAL_TOL * scale):
        raise ArithmeticError("quadratic-map identity violated beyond 1e-12")
    return closed


def projection_distance(y, u, h):
    """Distance from the tangent point of step h at u to the manifold point sharing its voltage.

    An upper proxy for the true manifold distance: only the injection part
    differs, so it equals the 2-norm of the tangent residual (a float, or an
    array of a stack's leading shape).
    """
    residual = tangent_residual(y, u, h)
    # np.linalg.norm's two BLAS dot products per row, in one pass (axis=-1 rounds unlike it).
    re, im = residual.real[..., None, :], residual.imag[..., None, :]
    norms = np.sqrt((re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0])
    return float(norms) if norms.ndim == 0 else norms


def distance_bound(h, y_norm):
    """Holder distance certificate 3 ||h||_inf ||h||_2 ||Y|| from the residual norm chain,
    for a norm ``y_norm`` (a float) or an array of them (an array)."""
    norms = np.asarray(y_norm, dtype=float)
    if not np.all(norms >= 0):
        raise ValueError("operator norm must be >= 0")
    hv = _as_complex_vector(h, name="step")
    bound = 3.0 * float(np.max(np.abs(hv), initial=0.0)) * float(np.linalg.norm(hv)) * norms
    return float(bound) if bound.ndim == 0 else bound
