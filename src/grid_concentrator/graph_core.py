"""Network topology: incidence matrices, Laplacians, degrees, random graphs.

A power network is an undirected graph on ``n_nodes`` buses with an ordered
list of candidate lines. The edge list order is significant: line ``l`` keeps
the fixed index ``l`` for the lifetime of the topology, so incidence matrices
and per-line weight vectors align by position. Parallel lines (repeated node
pairs) are permitted; degrees count edge incidences. A topology is nodes and
edges only: the slack bus is an argument of the power-flow model in ``lcpf``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Topology",
    "path_topology",
    "complete_topology",
    "star_topology",
    "incidence_matrix",
    "weighted_laplacians",
    "degrees",
    "max_degree",
    "unweighted_laplacian",
    "sample_er_topology",
    "sample_random_tree",
    "is_connected",
    "is_tree",
    "int_from_json",
    "topology_from_json",
]


@dataclass(frozen=True)
class Topology:
    """Immutable node/edge structure of a network.

    Attributes
    ----------
    n_nodes : int
        Number of buses, indexed ``0 .. n_nodes-1``.
    edges : tuple of (int, int)
        Ordered candidate lines. Line ``l`` connects ``edges[l]``; the pair
        order fixes the incidence row sign convention (first endpoint +1).
    """

    n_nodes: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("topology needs at least one node")
        # operator.index raises TypeError on 1.7 where int() would truncate it.
        object.__setattr__(self, "edges", tuple((operator.index(i), operator.index(j))
                                                for i, j in self.edges))
        for l, (i, j) in enumerate(self.edges):
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge {l} endpoint out of range: ({i}, {j})")
            if i == j:
                raise ValueError(f"edge {l} is a self-loop at node {i}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def path_topology(n_nodes: int) -> Topology:
    """Path graph P_n: edges (0,1), (1,2), ..., (n-2, n-1)."""
    return Topology(n_nodes, tuple((i, i + 1) for i in range(n_nodes - 1)))


def complete_topology(n_nodes: int) -> Topology:
    """Complete graph K_n with edges in lexicographic order."""
    edges = tuple((i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes))
    return Topology(n_nodes, edges)


def star_topology(n_leaves: int) -> Topology:
    """Star with hub 0 and ``n_leaves`` leaves."""
    return Topology(n_leaves + 1, tuple((0, k + 1) for k in range(n_leaves)))


def incidence_matrix(topology: Topology) -> np.ndarray:
    """Branch-to-bus incidence matrix: an (m, n) array with row ``e_i - e_j``
    for line l = (i, j), entries in {-1, 0, +1}."""
    ends = np.array(topology.edges, dtype=np.intp).reshape(-1, 2)
    a = np.zeros((len(ends), topology.n_nodes))
    a[np.arange(len(ends))[:, None], ends] = [1.0, -1.0]
    return a


# Bytes of one fancy-indexed operand of the scatter: 64 KiB stays in cache and
# below glibc's default mmap threshold. Measured against whole-round operands
# on a 2-vCPU VM, switching_exact's K8 run went 485 -> 435 ms, switching_mc's
# K3 run 17.5 -> 16.3 ms, and the Monte Carlo run's resident peak 0.4 MB lower.
_SCATTER_BLOCK = 1 << 16


def weighted_laplacians(topology: Topology, weights) -> np.ndarray:
    """sum_l w[..., l] (e_i - e_j)(e_i - e_j)^T for a (..., m) weight array,
    scattered from the edge list in line order: each entry is the sum of its
    per-line terms added one by one from +0.0, with no per-line matrix.

    The scatter runs in rounds (:func:`_scatter_rounds`): round r adds (on the
    diagonal) or subtracts (off it) every entry's r-th line term at once, by
    fancy indexing along a leading lines-first axis, in blocks of at most
    ``_SCATTER_BLOCK`` bytes. That takes max-degree rounds for the diagonal
    and one per parallel-line multiplicity off it (49 + 1 on K50, for 4 m =
    4900 strided adds one line at a time), and each entry still takes its
    terms in line order. The result is a (..., n, n) view of the entries-first
    buffer, so it is not C-contiguous when ``weights`` is a stack.
    """
    w = np.asarray(weights)
    if w.shape[-1:] != (topology.n_edges,):
        raise ValueError(f"weights of shape {w.shape} for {topology.n_edges} lines")
    n, lead = topology.n_nodes, w.shape[:-1]
    lines_first = np.moveaxis(w, -1, 0)
    y = np.zeros((n * n,) + lead, dtype=np.result_type(w, float))
    step = max(1, _SCATTER_BLOCK // max(1, y[0].nbytes))  # entries per block
    for entries, lines, plus in _scatter_rounds(topology):
        for first in range(0, len(entries), step):
            block, terms = entries[first:first + step], lines_first[lines[first:first + step]]
            if plus:
                y[block] += terms
            else:
                y[block] -= terms
    return np.moveaxis(y.reshape((n, n) + lead), (0, 1), (-2, -1))


@functools.lru_cache(maxsize=8)
def _scatter_rounds(topology: Topology) -> tuple:
    """(entries, lines, plus) per round of the line-order scatter: round r takes
    the r-th line, in line order, of each flat entry i * n + j it names; ``plus``
    on the diagonal, minus off it. No entry repeats within a round."""
    n = topology.n_nodes
    i, j = np.array(topology.edges, dtype=np.intp).reshape(-1, 2).T
    entries = np.concatenate([i * (n + 1), j * (n + 1), i * n + j, j * n + i])
    lines = np.tile(np.arange(len(i)), 4)
    order = np.lexsort((lines, entries))  # by entry, then by line
    entries, lines = entries[order], lines[order]
    rank = np.arange(len(entries)) - np.searchsorted(entries, entries)
    diagonal = entries % (n + 1) == 0
    rounds = []
    for r in range(rank.max(initial=-1) + 1):
        for plus in (True, False):
            take = (rank == r) & (diagonal == plus)
            if take.any():
                rounds.append((entries[take], lines[take], plus))
    return tuple(rounds)  # only read, as indices


def degrees(topology: Topology) -> np.ndarray:
    """Per-node count of incident lines (parallel lines counted separately)."""
    return np.bincount(np.ravel(topology.edges).astype(np.intp), minlength=topology.n_nodes)


def max_degree(topology: Topology) -> int:
    """Maximum node degree; 0 for an edgeless graph."""
    return int(degrees(topology).max(initial=0))


def unweighted_laplacian(topology: Topology) -> np.ndarray:
    """Combinatorial graph Laplacian A^T A (degrees on the diagonal)."""
    return weighted_laplacians(topology, np.ones(topology.n_edges))


def sample_er_topology(n_nodes: int, p: float, rng: np.random.Generator) -> Topology:
    """Homogeneous Erdos-Renyi topology: each pair of K_n, in lexicographic order,
    a line when its one uniform variate is below p, so a generator state replays."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    pairs = complete_topology(n_nodes).edges
    return Topology(n_nodes, tuple(e for e, u in zip(pairs, rng.random(len(pairs))) if u < p))


def sample_random_tree(n_nodes: int, rng: np.random.Generator) -> Topology:
    """Uniform random attachment tree: node k joins a uniformly chosen
    earlier node, for k = 1 .. n-1."""
    if n_nodes < 1:
        raise ValueError("tree needs at least one node")
    edges = tuple((int(rng.integers(0, k)), k) for k in range(1, n_nodes))
    return Topology(n_nodes, edges)


def is_connected(topology: Topology) -> bool:
    """True iff every node is reachable from node 0."""
    adj = [[] for _ in range(topology.n_nodes)]
    for i, j in topology.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == topology.n_nodes


def is_tree(topology: Topology) -> bool:
    """True iff the graph is connected with exactly n-1 edges."""
    return topology.n_edges == topology.n_nodes - 1 and is_connected(topology)


def int_from_json(value, key: str = "", minimum: int | None = None) -> int:
    """``value`` as an int. Raises ValueError, naming ``key`` if given, unless
    it is an integer (not a boolean) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or (minimum is not None and value < minimum):
        least = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{key} must be an integer{least}, got {value!r}".lstrip())
    return int(value)


_NAMED = {"path": path_topology, "complete": complete_topology, "star": star_topology}


def topology_from_json(obj) -> Topology:
    """Parse ``{"name": "path"|"complete"|"star", "n": N}`` (N leaves for a
    star) or ``{"n": N, "edges": [[i, j], ...]}``; a Topology passes
    through. Raises ValueError for an unknown key or name, or a count or
    node that is not an integer. The slack bus is not part of the graph, so
    no key names one."""
    if isinstance(obj, Topology):
        return obj
    if not isinstance(obj, dict):
        raise ValueError(f"must be an object, got {obj!r}")
    form = "name" if "name" in obj else "edges"
    unknown = set(obj) - {form, "n"}
    if unknown:
        raise ValueError(f"has unknown keys {sorted(unknown)}; the {form!r} form "
                         f"takes {form!r} and 'n'")
    n = int_from_json(obj.get("n"), "n", minimum=1)
    if form == "name":
        if obj["name"] not in _NAMED:
            raise ValueError(f"name must be one of {', '.join(_NAMED)}, got {obj['name']!r}")
        return _NAMED[obj["name"]](n)
    edges = obj.get("edges", [])
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2
                                              for e in edges):
        raise ValueError(f"edges must be a list of [i, j] pairs, got {edges!r}")
    return Topology(n, tuple((int_from_json(i, "edge endpoint"), int_from_json(j, "edge endpoint"))
                             for i, j in edges))
