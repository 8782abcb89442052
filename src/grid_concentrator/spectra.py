"""Dense linear-algebra services: operator norms, intrinsic dimension, PSD ordering.

Matrices are plain numpy arrays (real or complex); :func:`operator_norm` also
takes (..., k, k) stacks. All of it is exact dense algebra for desk-scale
networks (n up to a few hundred), with no iterative or randomized path.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "operator_norm",
    "intrinsic_dimension",
    "psd_dominates",
]

# Max-abs asymmetry up to which the PSD checks (intrinsic_dimension with
# psd=True, psd_dominates) accept a matrix as Hermitian; operator_norm
# does not use it.
HERMITIAN_TOL = 1e-10


def _as_finite_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def _is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    if a.shape[0] != a.shape[1]:
        return False
    return float(np.max(np.abs(a - a.conj().T), initial=0.0)) <= tol


def operator_norm(m):
    """Largest singular value of a matrix, or of each matrix of a (..., k, j) stack.

    A real input whose matrices are all exactly symmetric goes to the
    symmetric eigensolver; everything else, complex input included, goes to
    SVD. Returns a float for a matrix and an array of the leading shape for a
    stack (zeros for empty matrices). Raises on a NaN or Inf anywhere.
    """
    a = np.asarray(m)
    if a.ndim < 2:
        raise ValueError(f"matrix must be 2-dimensional or a stack, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    if a.size == 0:
        norms = np.zeros(a.shape[:-2])
    # array_equal makes only a boolean temporary, not a float a - a^T.
    elif not np.iscomplexobj(a) and np.array_equal(a, np.swapaxes(a, -1, -2)):
        norms = np.abs(np.linalg.eigvalsh(a)).max(axis=-1)
    else:
        norms = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(norms) if a.ndim == 2 else norms


def intrinsic_dimension(m, psd: bool = False) -> float:
    """Effective rank tr(M)/||M||.

    With ``psd=True`` the input must be Hermitian with smallest eigenvalue
    >= -1e-10, and the result then lies in [1, rank(M)]. With ``psd=False``
    the ratio is returned literally (real part of the trace), which is how
    the dilation bookkeeping uses it on indefinite input.
    """
    a = _as_finite_matrix(m)
    norm = operator_norm(a)
    if norm == 0.0:
        raise ValueError("intrinsic dimension undefined for the zero matrix")
    if psd:
        if not _is_hermitian(a):
            raise ValueError("psd check requires a Hermitian matrix")
        h = (a + a.conj().T) / 2.0
        lam_min = float(np.linalg.eigvalsh(h)[0])
        if lam_min < -1e-10:
            raise ValueError(f"matrix is not PSD: lambda_min = {lam_min:.3e}")
    return float(np.real(np.trace(a))) / norm


def psd_dominates(a, b, tol: float = 0.0) -> bool:
    """True iff a <= b in the PSD (Loewner) order, up to tol.

    Both inputs must be Hermitian (within ``HERMITIAN_TOL``) and of equal
    shape; the test is lambda_min(b - a) >= -tol.
    """
    am = _as_finite_matrix(a, "a")
    bm = _as_finite_matrix(b, "b")
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    for name, x in (("a", am), ("b", bm)):
        if not _is_hermitian(x):
            raise ValueError(f"{name} is not Hermitian within {HERMITIAN_TOL}")
    d = bm - am
    d = (d + d.conj().T) / 2.0
    return bool(np.linalg.eigvalsh(d)[0] >= -tol)

