"""Fixed reference kernels that gauge how fast the machine runs right now.

On a shared host the same code runs up to twice as slow for minutes at a
time, depending on the host's other load; a run's wall times alone then
measure the host more than the program. The benchmark therefore times a
reference kernel right before and right after every timed call and scales
the call's wall time by ``nominal / reference time``: a *speed-scaled* time,
which reads as the seconds the call would take at the speed where the kernel
takes its nominal time. The kernels use only Python and numpy, never the
package under test, so a change to the package moves the scaled time and not
the kernel.

The host's load does not slow every kind of work alike: interpreter loops can
lose a third of their speed while a bandwidth-bound einsum keeps its own. So
each workload is gauged by the kernel that does the same kind of work as it:

- ``interp``: interpreter loops, per-sample ``SeedSequence`` generators and
  many numpy calls on small arrays, like a fresh process importing the
  package and reading a config;
- ``sweep``: 80 Erdos-Renyi samples on 20 nodes at p = 1/2 (generator, one
  scalar draw per candidate line, two per line for its weight, incidence
  matrix, complex ``Y``, SVD), like the per-sample loop of ``fig1``;
- ``per_sample``: one Monte Carlo sample of K3's switch pattern per pass of
  its loop (generator, draw, einsum, SVD of one 3x3 matrix), like the Monte
  Carlo backend;
- ``batched``: one complex einsum into a stack of 8x8 matrices and their
  batched SVD, like the enumeration kernel;
- ``dense``: an einsum over a 98 MB stack of 1225 dense 100x100 matrices and
  ``eigvalsh``, like one kron'd-basis noise Jacobian of ``lcpf_bounds`` on
  K50. The stack must be as large as the workload's: how fast it streams
  depends on how much of it the host's shared cache holds.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

# A single pass gauges the speed of a few hundredths of a second; on a call
# of seconds its scatter adds noise instead of removing it. So the kernel
# runs for this share of the timed call before it, in as many passes as fit.
GAUGE_SHARE = 0.2

_rng = np.random.default_rng(20251017)
_SQUARE = _rng.standard_normal((20, 20))
_COEFF = (_rng.random((2048, 18)) - 0.5) * (1.0 + 0.5j)
_BASIS = _rng.standard_normal((18, 8, 8))
_WEIGHTS = _rng.random(1225)
_TRIANGLE = np.zeros((3, 3, 3))  # elementary Laplacians of K3's lines
for _line, (_i, _j) in enumerate(((0, 1), (0, 2), (1, 2))):
    _TRIANGLE[_line, [_i, _j], [_i, _j]] = 1.0
    _TRIANGLE[_line, [_i, _j], [_j, _i]] = -1.0


def _interp() -> float:
    total = 0.0
    table = {}
    for i in range(15_000):
        table[i & 255] = table.get(i & 255, 0) + (i * i) % 7
        total += math.sqrt(i)
    for i in range(600):
        gen = np.random.default_rng(np.random.SeedSequence((1, 2, i)))
        row = gen.random(20)
        total += float(np.abs(row).sum()) + float(row @ row) + gen.random()
    for i in range(2_000):
        row = _SQUARE[i % 20]
        total += float(np.abs(row).sum()) + float(row @ row)
    for _ in range(100):
        total += float(np.linalg.svd(_SQUARE, compute_uv=False)[0])
        total += float(np.linalg.eigvalsh(_SQUARE + _SQUARE.T)[-1])
    return total


def _sweep() -> float:
    total = 0.0
    for i in range(80):
        gen = np.random.default_rng(np.random.SeedSequence((7, 1, i)))
        edges = [(a, b) for a in range(20) for b in range(a + 1, 20)
                 if gen.random() < 0.5]
        weights = []
        for _ in edges:
            r = math.sqrt(gen.random())
            phi = 2.0 * math.pi * gen.random()
            weights.append(complex(abs(r * math.cos(phi)), -abs(r * math.sin(phi))))
        incidence = np.zeros((len(edges), 20))
        for line, (a, b) in enumerate(edges):
            incidence[line, a], incidence[line, b] = 1.0, -1.0
        matrix = incidence.T @ (np.array(weights)[:, None] * incidence)
        total += float(np.linalg.svd(matrix, compute_uv=False)[0])
    return total


def _per_sample() -> float:
    total = 0.0
    for i in range(800):
        gen = np.random.default_rng(np.random.SeedSequence((7, 0, i)))
        pattern = (gen.random(3) < 0.5).astype(float)
        coeff = (pattern - 0.5) * (1.0 - 0.5j)
        stack = np.einsum("sl,lij->sij", coeff[None, :], _TRIANGLE)
        total += float(np.linalg.svd(stack, compute_uv=False)[0, 0])
    return total


def _batched() -> float:
    stack = np.einsum("sl,lij->sij", _COEFF, _BASIS)
    return float(np.linalg.svd(stack, compute_uv=False)[:, 0].sum())


@functools.cache
def _dense_stack() -> np.ndarray:
    """Made at the first pass, which the worker leaves untimed, and kept."""
    stack = np.ones((_WEIGHTS.size, 100, 100))
    stack[:, 0, 0] = 2.0
    return stack


def _dense() -> float:
    matrix = np.einsum("l,lij->ij", _WEIGHTS, _dense_stack())
    return float(np.linalg.eigvalsh(matrix + matrix.T)[-1])


# name -> (one pass, its nominal seconds: the time of one pass in a quiet
# period on the machine of bench/README.md)
KERNELS = {
    "interp": (_interp, 0.025),
    "sweep": (_sweep, 0.025),
    "per_sample": (_per_sample, 0.02),
    "batched": (_batched, 0.025),
    "dense": (_dense, 0.01),
}


def measure(kernel: str, min_seconds: float = 0.0) -> float:
    """Mean wall seconds of one pass of ``kernel``, over as many passes as
    fill ``min_seconds`` (at least one)."""
    run_pass = KERNELS[kernel][0]
    passes = 0
    start = time.perf_counter()
    while True:
        run_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / passes


def scaled(wall: float, ref: float, kernel: str) -> float:
    """``wall`` scaled to the speed at which ``kernel`` takes its nominal time,
    given that it took ``ref`` seconds around the timed call."""
    return wall * KERNELS[kernel][1] / ref
