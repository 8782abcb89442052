"""Flat-start Jacobian assembly and its closed-form inverse on trees.

The linear coupled power flow model relates injections to voltage deviations
at the flat start (unit magnitudes, zero angles, no shunts):

    [p; q] = [[G, -B], [-B, -G]] [eps; theta],   eps := v - 1,

with G = A^T diag(g) A and B = A^T diag(b) A. The Jacobian J is a plain real
(2k, 2k) array; its blocks read back as G = J[:k, :k] and B = -J[:k, k:].
The slack (reference) bus r is an argument, not part of the topology:
grounding at r deletes row and column r of G and B (column r of A). On a
tree grounded at r, the reduced incidence A is square and invertible, and
the block matrix inverts in closed form to [[R, X], [X, -R]], where

    R = A^{-1} diag(g / (g^2 + b^2)) A^{-T},
    X = A^{-1} diag(-b / (g^2 + b^2)) A^{-T}

are the resistance and reactance matrices. The same blocks fall out of the
Schur complement of the block matrix in -G: R = (G + B G^{-1} B)^{-1} and
X = -R B G^{-1}. :func:`invert_tree_lcpf` builds G and B from the topology
and weights it is given, computes both derivations and cross-checks them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .admittance import assemble_admittance, lift_blocks, line_weights
from .graph_core import Topology, incidence_matrix, is_tree

__all__ = [
    "ImpedanceBlocks",
    "flat_start_jacobian",
    "invert_tree_lcpf",
]

# Agreement tolerance between the Schur and line-space inverses, relative to
# the larger of 1 and their largest absolute entry.
_AGREE_TOL = 1e-9


@dataclass(frozen=True)
class ImpedanceBlocks:
    """Resistance/reactance blocks of the inverse operator [[R, X], [X, -R]]."""

    r_matrix: np.ndarray
    x_matrix: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return lift_blocks(self.r_matrix, self.x_matrix, +1.0)


def _laplacian_blocks(topology: Topology, weights, reference) -> np.ndarray:
    # The (2, k, k) stack [G, B] = [Y.real, Y.imag], grounded at ``reference``
    # unless it is None. operator.index raises TypeError on 0.9.
    y = assemble_admittance(topology, weights)
    gb = np.stack([y.real, y.imag])
    if reference is None:
        return gb
    if not 0 <= operator.index(reference) < topology.n_nodes:
        raise ValueError(f"reference node {reference} out of range for {topology.n_nodes} nodes")
    keep = np.arange(topology.n_nodes) != reference
    return gb[:, keep][..., keep]


def flat_start_jacobian(topology: Topology, weights, reference=None) -> np.ndarray:
    """The real (2k, 2k) array [[G, -B], [-B, -G]] from line admittances w = g + jb.

    ``weights`` is a complex (m,) array in edge order. With a ``reference``
    node its row and column are deleted from G and B (blocks become
    (n-1) x (n-1)), which is the invertible form used on trees.
    """
    return lift_blocks(*_laplacian_blocks(topology, weights, reference), -1.0)


def _check_numerical_agreement(lhs: np.ndarray, rhs: np.ndarray, what: str):
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    err = float(np.max(np.abs(lhs - rhs)))
    if err > _AGREE_TOL * scale:
        raise ArithmeticError(f"{what} disagree: max deviation {err:.3e} "
                              f"(tolerance {_AGREE_TOL:.0e} at scale {scale:.3e})")


def invert_tree_lcpf(topology: Topology, weights, reference) -> ImpedanceBlocks:
    """Closed-form inverse blocks R, X of the flat-start operator grounded at
    the ``reference`` node.

    Requires a tree and all conductances strictly positive. R and X are
    computed twice -- through the Schur complement chain on the reduced G
    and B and through the line-space closed form -- and the two must agree
    to 1e-9; the Schur result is returned.
    """
    if not is_tree(topology):
        raise ValueError("closed-form inverse requires a tree topology")
    w = line_weights(topology, weights)
    g, b = w.real, w.imag
    if np.any(g <= 0.0):
        raise ValueError("all line conductances must be > 0 (G would be singular)")

    # Schur path: R = (G + B G^{-1} B)^{-1}, X = -R B G^{-1}.
    gm, bm = _laplacian_blocks(topology, w, reference)
    g_inv_b = np.linalg.solve(gm, bm)
    r_schur = np.linalg.inv(gm + bm @ g_inv_b)
    x_schur = -r_schur @ g_inv_b.T

    # Line-space path: R = A^{-1} diag(r) A^{-T}, per-line r = g/(g^2+b^2),
    # x = -b/(g^2+b^2).
    a = np.delete(incidence_matrix(topology), reference, axis=1)
    denom = g * g + b * b
    r_line = _congruence_by_inverse(a, g / denom)
    x_line = _congruence_by_inverse(a, -b / denom)

    _check_numerical_agreement(r_schur, r_line, "Schur and line-space resistance matrices")
    _check_numerical_agreement(x_schur, x_line, "Schur and line-space reactance matrices")
    return ImpedanceBlocks(r_matrix=r_schur, x_matrix=x_schur)


def _congruence_by_inverse(a: np.ndarray, diag: np.ndarray) -> np.ndarray:
    # A^{-1} diag(d) A^{-T} without forming the inverse explicitly.
    z = np.linalg.solve(a, np.diag(diag))
    return np.linalg.solve(a, z.T).T
