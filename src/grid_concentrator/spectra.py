"""Dense linear-algebra services: operator norms and intrinsic dimension.

Matrices are plain numpy arrays (real or complex); :func:`operator_norm` also
takes (..., k, k) stacks, normed by one LAPACK call. All of it is exact dense
algebra for desk-scale networks (n up to a few hundred), with no iterative or
randomized path.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "operator_norm",
    "intrinsic_dimension",
]

# Max-abs asymmetry up to which intrinsic_dimension's PSD check accepts a
# matrix as Hermitian; operator_norm does not use it.
HERMITIAN_TOL = 1e-10


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


def intrinsic_dimension(m) -> float:
    """Effective rank tr(M)/||M|| of a PSD matrix, which lies in [1, rank(M)].

    The input must be square, finite, Hermitian (within ``HERMITIAN_TOL``) and
    nonzero, with smallest eigenvalue >= -1e-10; raises ValueError otherwise.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or np.max(np.abs(a - a.conj().T), initial=0.0) > HERMITIAN_TOL:
        raise ValueError("psd check requires a finite Hermitian matrix")
    eigenvalues = np.linalg.eigvalsh((a + a.conj().T) / 2.0)  # ascending
    norm = float(np.abs(eigenvalues).max(initial=0.0))
    if norm == 0.0:
        raise ValueError("intrinsic dimension undefined for the zero matrix")
    if eigenvalues[0] < -1e-10:
        raise ValueError(f"matrix is not PSD: lambda_min = {eigenvalues[0]:.3e}")
    return float(np.real(np.trace(a))) / norm
