"""Dense linear-algebra services: operator norms and intrinsic dimension.

Matrices are plain numpy arrays (real or complex); :func:`operator_norm` also
takes (..., k, k) stacks. All of it is exact dense algebra for desk-scale
networks (n up to a few hundred), with no iterative or randomized path.

When the BLAS runs single-threaded, a large stack is normed on every CPU the
process may run on: it is cut along its leading axis into one contiguous part
per CPU, and each part goes to the same numpy LAPACK loop in its own thread
(the loop releases the GIL). Each matrix still meets the same LAPACK call on
the same bytes, so the norms are bit-identical to a serial run; BLAS
threading plays no part in the split, and a threaded BLAS turns it off.
"""

from __future__ import annotations

import os
import threading

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "operator_norm",
    "intrinsic_dimension",
]

# Max-abs asymmetry up to which intrinsic_dimension's PSD check accepts a
# matrix as Hermitian; operator_norm does not use it.
HERMITIAN_TOL = 1e-10

# Least work (matrices times k^3) of one part of a split stack, since each part
# but the first starts a thread. Measured on a 2-vCPU VM: halves of eigvalsh
# stacks of 3 x 3 to 50 x 50 matrices break even near 5e4 of work and take
# 0.6-0.9 of the serial time from 1e5 (about 0.8 ms serial) up.
_PART_WORK = 50_000
# numpy runs a (g)ufunc loop without the GIL only when it outputs more than 500
# numbers, here stack size times k. A part at or below that holds the GIL, so
# the threads would take turns: halves of 10 eigvalsh of 99 x 99 ran 1.13x the
# serial time, of 10 of 101 x 101 0.60x.
_GIL_FREE_OUTPUT = 500
# The variables through which OpenBLAS and MKL take their thread count. A split
# pays only when each LAPACK call runs on one BLAS thread. Two threads calling a
# threaded OpenBLAS at once wait on its one pool, and its idle threads spin: 88
# eigvalsh of 100 x 100, split on 2 CPUs, took 1.86x the serial time.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _workers() -> int:
    """Threads a stack may be split over: the CPUs this process may run on (its
    affinity mask where the OS has one) when the first of ``_BLAS_THREAD_VARS``
    that is set says one BLAS thread, else 1."""
    blas_threads = next((os.environ[var] for var in _BLAS_THREAD_VARS if var in os.environ), "")
    if blas_threads.strip() != "1":
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def operator_norm(m):
    """Largest singular value of a matrix, or of each matrix of a (..., k, j) stack.

    A real input whose matrices are all exactly symmetric goes to the
    symmetric eigensolver; everything else, complex input included, goes to
    SVD. Returns a float for a matrix and an array of the leading shape for a
    stack (zeros for empty matrices). Raises on a NaN or Inf anywhere.

    When the BLAS runs one thread per call (``OPENBLAS_NUM_THREADS=1``, as
    the benchmark sets it), a stack with enough work is cut along its leading
    axis into contiguous parts, at most one per CPU, that are normed in
    threads and joined in order (:func:`_split_norms`). Each matrix goes
    through the same LAPACK call on the same bytes as in one serial call, so
    the norms are bit-identical to it; no BLAS threading is involved. An
    error raised in any part is raised here, after every thread has ended.
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
        norms = _split_norms(_symmetric_norms, a)
    else:
        norms = _split_norms(_svd_norms, a)
    return float(norms) if a.ndim == 2 else norms


def _symmetric_norms(a):
    return np.abs(np.linalg.eigvalsh(a)).max(axis=-1)


def _svd_norms(a):
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def _split_norms(kernel, a):
    """kernel(a), with a stack's leading axis cut into one part per thread: at
    most ``_workers()``, each with ``_PART_WORK`` and a GIL-free output. No
    thread outlives the call, so a fork copies none."""
    parts = 1
    if a.ndim > 2:
        k = min(a.shape[-2:])
        per_row = a[0].size // (a.shape[-2] * a.shape[-1])  # matrices per leading index
        least_rows = _GIL_FREE_OUTPUT // (per_row * k) + 1
        parts = min(_workers(), len(a) // least_rows, a.size * k // _PART_WORK)
    if parts < 2:
        return kernel(a)
    cuts = [len(a) * p // parts for p in range(parts + 1)]
    results, errors = [None] * parts, [None] * parts

    def run(p):
        try:
            results[p] = kernel(a[cuts[p]:cuts[p + 1]])
        except BaseException as exc:  # raised again in the calling thread
            errors[p] = exc
    threads = [threading.Thread(target=run, args=(p,)) for p in range(1, parts)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return np.concatenate(results)


def intrinsic_dimension(m) -> float:
    """Effective rank tr(M)/||M|| of a PSD matrix, which lies in [1, rank(M)].

    The input must be square, Hermitian (within ``HERMITIAN_TOL``) and
    nonzero, with smallest eigenvalue >= -1e-10; raises ValueError otherwise.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    norm = operator_norm(a)  # raises on NaN or Inf
    if norm == 0.0:
        raise ValueError("intrinsic dimension undefined for the zero matrix")
    if float(np.max(np.abs(a - a.conj().T), initial=0.0)) > HERMITIAN_TOL:
        raise ValueError("psd check requires a Hermitian matrix")
    h = (a + a.conj().T) / 2.0
    lam_min = float(np.linalg.eigvalsh(h)[0])
    if lam_min < -1e-10:
        raise ValueError(f"matrix is not PSD: lambda_min = {lam_min:.3e}")
    return float(np.real(np.trace(a))) / norm
