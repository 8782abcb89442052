"""Monte Carlo and exhaustive experiments validating the analytic bounds.

Each experiment consumes an :class:`ExperimentConfig` (usually parsed from a
JSON file), runs a deterministic sampling or enumeration loop, and produces a
flat table of records ready for CSV/JSON emission. Sample s of a sweep draws
the stream of :func:`sample_rng`, seeded by ``SeedSequence((master_seed,
sweep_index, sample_index))``, so any sample replays in isolation and identical
configs give byte-identical output files at one BLAS thread count, which the CLI
pins unless its user set one. Every sampled runner draws those streams a chunk at
a time by :func:`sample_uniforms` and maps them to line weights by one law
transform per chunk.

Every runner works in bounded chunks of rows, each normed by one batched call, and
makes one :func:`_chunks` call, which maps its chunk function over them in the caller
and one forked process per further CPU where :func:`_workers` allows it (one BLAS thread
set, as the CLI sets it, and one OS thread running) and each worker's rows pay for its
fork: a run forks at most once per further worker. The Monte Carlo, enumeration,
``lcpf_bounds`` and ``manifold`` chunks are assembled by one line-order scatter, so their
per-sample memory is O(n^2); an ``lcpf_bounds`` or ``manifold`` chunk is uniforms, law,
scatter, norm. Monte Carlo draws and keys every sample in the calling process and deals the
run's distinct switch patterns; the enumeration's chunks return norms, its caller fills the
probabilities. Both decode patterns in :func:`_centered_norms_for_patterns`; a tail is one masked
count per t. Exact ``thm2_tail`` reads each pattern's bin on its grid, not its norm: Gershgorin's
bound, or tr((ZZ*)^4) where each |Z_ii| <= ||Z|| is below the grid, certifies a pattern below it,
repeated squaring of ZZ* bins the rest, and only bounds that straddle a grid point are eigensolved.
Only ``fig1`` builds a product per sample from a complex m x n incidence (175 MB at n = 200, p = 1).

Experiments
-----------
``fig1``
    Homogeneous Erdos-Renyi sweep: per sweep probability p, sample a topology
    and per-line weights with |w| <= 1, record the sampled operator norm
    against the degree-based expectation bound evaluated at the realized max
    degree of that sample.
``thm2_tail`` / ``thm2_expectation``
    Bernoulli line-switching model on a fixed topology; exact (all 2^m
    switch patterns, m <= 20) or Monte Carlo statistics of ||Y - EY||
    against the contingency tail/expectation bounds.
``lcpf_bounds``
    Bounded conductance/susceptance noise on a fixed topology; empirical
    tails and mean of ||F - EF|| against the flat-start-Jacobian bounds
    (the tail check carries the documented slack factor of 4).
``manifold``
    Random admittance samples on a fixed topology; tangent-step residual
    certificates against the expected-distance bound.
``bruteforce``
    Dump the exact switch-pattern distribution (oracle for the others).
"""

from __future__ import annotations

import itertools
import json
import math
import mmap
import os
import pickle
import re
import signal
from dataclasses import dataclass
from functools import partial
from io import StringIO

import numpy as np

from . import _BLAS_THREAD_VARS
from . import bounds as bnd
from . import graph_core as gc
from .admittance import (
    BoundedPerturbation,
    LineLaw,
    assemble_admittance,  # not called here: bench/tracing patches it (ROADMAP item 1)
    complex_from_json,
    lift_blocks,
    line_law_from_json,
    real_from_json,
)
from .manifold import distance_bound, projection_distance
from .spectra import operator_norm

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SCHEMA",
    "SampleStats",
    "RunResult",
    "EXPERIMENT_NAMES",
    "sample_rng",
    "sample_uniforms",
    "run_fig1",
    "brute_force_distribution",
    "monte_carlo_distribution",
    "run_tail_experiment",
    "run_expectation_experiment",
    "run_lcpf_experiment",
    "run_manifold_experiment",
    "run_bruteforce",
    "run_experiment",
    "emit",
]

BRUTE_FORCE_MAX_LINES = 20
_ENUM_CHUNK = 8192
_CHUNK_BYTES = 1 << 24
# Rows per fig1 chunk: the law transforms' temporaries grow with them (200 rows: +5 MB RSS).
_FIG1_CHUNK = 50
# Exact tails: rows per block of the certificate's products (whole chunks of K8's first 18 lines
# raised peak RSS by 4 MB), every bound's margin, and bytes of Z per block of the bin chain (16 ms
# there against 20 for 256 rows, 20 against 34 on K6 at p 0.9, and 155 both on star-16 at p 0.9).
_CERT_ROWS, _CERT_MARGIN, _CHAIN_BYTES = 256, 1e-6, 1 << 19


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Experiment parameters, each parsed once for the named experiment.

    ``None`` means "not given": a field the experiment reads then takes its
    default from :data:`SCHEMA`, and any other field must stay ``None``.
    Raises :class:`ConfigError`, starting with the field's name, otherwise.
    """

    experiment: str
    n: int | None = None
    samples: int | None = None
    seed: int | None = None
    p_grid: tuple | None = None
    line_model: LineLaw | None = None
    topology: gc.Topology | None = None
    probs: np.ndarray | None = None
    admittances: np.ndarray | None = None
    t_grid: np.ndarray | None = None
    backend: str | None = None
    delta: float | None = None
    h: np.ndarray | None = None
    out: str | None = None
    format: str | None = None

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in SCHEMA:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {', '.join(EXPERIMENT_NAMES)}")
        reads = SCHEMA[self.experiment]
        for name, parse in _PARSERS.items():
            value = getattr(self, name)
            if name not in reads:
                if value is not None:
                    raise ConfigError(f"{name} is not used by {self.experiment}")
                continue
            if value is None:
                value = reads[name](self) if callable(reads[name]) else reads[name]
            try:
                if value is not None:
                    value = parse(value, self)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name} {exc}") from exc
            object.__setattr__(self, name, value)

    @property
    def model(self) -> bnd.ContingencyModel:
        """The line-switching model of ``topology``, ``probs`` and ``admittances``."""
        return bnd.ContingencyModel(self.topology, self.probs, self.admittances)

    @classmethod
    def from_dict(cls, obj: dict, **overrides) -> "ExperimentConfig":
        """Build from a JSON-style dict, ``overrides`` replacing its fields.
        The README's config table lists the fields, the experiments that
        read them, their defaults and forms."""
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted({*obj, *overrides} - {"experiment", *_PARSERS})
        if unknown:
            raise ConfigError(f"{unknown[0]} is not a config field "
                              f"(unknown config keys: {unknown})")
        return cls(**{"experiment": None, **obj, **overrides})


_probability = partial(real_from_json, low=0.0, high=1.0)


def _numbers(value, item=real_from_json) -> list:
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ValueError(f"must be a list, got {value!r}")
    return [item(x) for x in value]


def _one_of(value, *options):
    if value not in options:
        raise ValueError(f"must be one of {', '.join(options)}, got {value!r}")
    return value


def _out(value, cfg):
    if not isinstance(value, str) or not value:
        raise ValueError(f"must be a file path, got {value!r}")
    return value


def _line_model(value, cfg):
    # The degree bound (fig1) and the Holder certificate (manifold) assume
    # |w| <= 1 per-unit on every line.
    law = line_law_from_json(value)
    if law.support > bnd.UNIT_SLACK:
        raise ValueError(f"must have |w| <= 1 per-unit for {cfg.experiment}, "
                         f"but its support reaches {law.support:.6g}")
    return law


def _samples(value, cfg):
    if cfg.backend == "bruteforce":
        raise ValueError("is not used by the bruteforce backend")
    samples = gc.int_from_json(value, minimum=1)
    if samples > 1 << 32:  # each sample index hashes as one 32-bit seed word
        raise ValueError(f"must be at most 2^32, got {samples}")
    return samples


def _topology(value, cfg):
    topology = gc.topology_from_json(value)
    enumerates = cfg.experiment == "bruteforce" or cfg.backend == "bruteforce"
    if enumerates and topology.n_edges > BRUTE_FORCE_MAX_LINES:
        raise ValueError(f"has {topology.n_edges} lines; exhaustive enumeration is "
                         f"capped at {BRUTE_FORCE_MAX_LINES}")
    return topology


def _each(value, count: int, item) -> np.ndarray:
    """One value for all ``count`` lines (or nodes), or a list of ``count``."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        return np.full(count, item(value))
    if len(value) != count:
        raise ValueError(f"must be one value or a list of {count}, got {len(value)}")
    return np.array([item(x) for x in value])


def _admittances(value, cfg):
    # On two lines a flat pair could mean one complex value or two real
    # ones, so it is rejected there; elsewhere it holds for every line.
    m = cfg.topology.n_edges
    if isinstance(value, (list, tuple)) and len(value) == 2 \
            and not any(isinstance(x, (list, tuple)) for x in value):
        if m == 2:
            raise ValueError(f"{list(value)!r} is ambiguous on 2 lines: "
                             "give per-line [re, im] pairs")
        value = [value] * m
    y = _each(value, m, complex_from_json)
    bnd.ContingencyModel(cfg.topology, cfg.probs, y)  # its checks: |y| <= 1 per line
    return y


def _step(value, cfg):
    # A number is the step at node 0; a list gives every node's step. Like the
    # line weights, a step is per-unit: |h| <= 1 keeps the certificates finite.
    if isinstance(value, (list, tuple, np.ndarray)):
        h = _each(value, cfg.topology.n_nodes, complex_from_json)
    else:
        h = np.zeros(cfg.topology.n_nodes, dtype=complex)
        h[0] = real_from_json(value)
    if np.any(np.abs(h) > bnd.UNIT_SLACK):
        raise ValueError(f"must have |h| <= 1 per-unit at every node, "
                         f"got {float(np.max(np.abs(h))):.6g}")
    return h


def _t_grid(value, cfg):
    grid = np.array(_numbers(value, partial(real_from_json, low=0.0)), dtype=float)
    if np.any(grid[1:] < grid[:-1]):
        raise ValueError("must be sorted ascending")
    if cfg.experiment == "lcpf_bounds" and not len(grid):
        raise ValueError("must not be empty for lcpf_bounds: its rows carry the mean_ok verdict")
    return grid


# Field parsers in dependency order: ``samples`` and ``topology`` need ``backend``;
# the per-line fields, ``h`` and the default ``t_grid`` need the topology.
_PARSERS = {
    "backend": lambda value, cfg: _one_of(value, "bruteforce", "montecarlo"),
    "n": lambda value, cfg: gc.int_from_json(value, minimum=1),
    "samples": _samples,
    "seed": lambda value, cfg: gc.int_from_json(value),
    "out": _out,
    "format": lambda value, cfg: _one_of(value, "csv", "json"),
    "p_grid": lambda value, cfg: tuple(_numbers(value, _probability)),
    "line_model": _line_model,
    # per-unit like every admittance field; near 1e308 the default t_grid overflows
    "delta": lambda value, cfg: real_from_json(value, low=0.0, high=1.0),
    "topology": _topology,
    "probs": lambda value, cfg: _each(value, cfg.topology.n_edges, _probability),
    "admittances": _admittances,
    "h": _step,
    "t_grid": _t_grid,
}


def _default_tail_grid(cfg: ExperimentConfig) -> np.ndarray:
    profile = bnd.contingency_factors(cfg.model)
    threshold = bnd.thm2_tail_threshold(profile)  # 0 if degenerate
    return np.linspace(threshold, threshold + (1.0 if profile.degenerate else 3.0), 20)


def _lcpf_default_grid(cfg: ExperimentConfig) -> np.ndarray:
    # Start where the raw tail bound crosses 1 (informative regime) and stop
    # past the almost-sure ceiling 2*sqrt(2)*delta*m of ||F - EF||.
    t_start = bnd.lcpf_tail_threshold(cfg.topology.n_nodes, cfg.delta)
    ceiling = 2.0 * math.sqrt(2.0) * cfg.delta * max(cfg.topology.n_edges, 1)
    return np.linspace(t_start, max(1.2 * ceiling, t_start + 1e-6), 10)


_RUN = {"seed": 0, "out": None, "format": "csv"}
_DISK = {"kind": "disk"}
_K3 = {"name": "complete", "n": 3}
_P3 = {"name": "path", "n": 3}
_SWITCHING = {"topology": _K3, "probs": 0.5, "admittances": 1.0}
_THM2 = {**_SWITCHING, "backend": "bruteforce",
         "samples": lambda cfg: 20000 if cfg.backend == "montecarlo" else None, **_RUN}

# Per experiment, every field it reads and its default. A callable default
# is computed from the fields parsed before it; a None default stays None
# (``out``: write to stdout; bruteforce's ``t_grid``: 20 points from 0 up
# to, not including, the largest norm; ``samples`` of the bruteforce
# backend, which draws nothing). The README's config table mirrors this one.
SCHEMA = {
    "fig1": {"n": 20, "samples": 200, "p_grid": [round(0.1 * k, 2) for k in range(1, 11)],
             "line_model": _DISK, **_RUN},
    "thm2_tail": {**_THM2, "t_grid": _default_tail_grid},
    "thm2_expectation": _THM2,
    "lcpf_bounds": {"topology": _P3, "samples": 10000, "delta": 0.1,
                    "t_grid": _lcpf_default_grid, **_RUN},
    "manifold": {"topology": _P3, "samples": 200, "line_model": _DISK, "h": 0.1, **_RUN},
    "bruteforce": {**_SWITCHING, "t_grid": None, **_RUN},
}
EXPERIMENT_NAMES = tuple(SCHEMA)


@dataclass(frozen=True)
class SampleStats:
    """Operator-norm statistics from sampling or exhaustive enumeration.

    ``probabilities`` is None for equally weighted Monte Carlo samples and carries the exact
    pattern probabilities for enumeration (``exact``), whose ``norms`` an exact tail run floors
    to its grid, with ``mean`` NaN. ``stderr`` is the mean's standard error (0 when exact).
    """

    norms: np.ndarray
    probabilities: np.ndarray | None
    mean: float
    stderr: float

    @property
    def exact(self) -> bool:
        """True for enumeration, whose norms carry exact pattern probabilities."""
        return self.probabilities is not None

    @classmethod
    def sampled(cls, norms: np.ndarray) -> "SampleStats":
        """Equally weighted samples: their mean and its standard error."""
        count = len(norms)
        stderr = float(np.std(norms, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
        return cls(norms=norms, probabilities=None, mean=float(np.mean(norms)), stderr=stderr)

    def tails(self, grid) -> list:
        """Pr(norm >= t) under the sample/pattern weights, for each t of ``grid``, by one masked
        comparison per t: a NaN norm (a bin below an exact tail run's grid) is below every t."""
        if self.probabilities is None:
            return [float(np.count_nonzero(self.norms >= t)) / len(self.norms) for t in grid]
        return [float(self.probabilities[self.norms >= t].sum()) for t in grid]


@dataclass
class RunResult:
    """Records plus the schema; the dominance verdict is read from the records."""

    records: list
    fieldnames: list

    @property
    def failing_rows(self) -> list:
        """0-based indices of the rows with a ``*_ok`` field that is False."""
        verdicts = [key for key in self.fieldnames if key.endswith("_ok")]
        return [index for index, rec in enumerate(self.records)
                if any(rec.get(key) is False for key in verdicts)]


def sample_rng(seed: int, sweep_index: int, sample_index: int) -> np.random.Generator:
    """Deterministic per-sample generator: hash of (master seed, sweep, sample). The seed
    wraps modulo 2^64, so -5 and 2^64 - 5 draw the same streams. The sampled runners draw
    the same streams by :func:`sample_uniforms` (tests/test_streams.py)."""
    return np.random.default_rng(
        np.random.SeedSequence((int(seed) % (1 << 64), int(sweep_index), int(sample_index))))


_M32, _M64, _PCG_MULT = (1 << 32) - 1, (1 << 64) - 1, 0x2360ED051FC65DA44385DF649FCCF645
# Every chunk of rows x draws runs the vectorized SeedSequence hash (~0.3 ms a call); then the
# kernel steps rows of up to _KERNEL_MAX_DRAWS draws and hashed rows (~4 us each) fill longer
# ones. 2-vCPU VM, kernel / hashed, ms: 8192x3 1.37/42.8, 8192x100 25.1/44.2, 8192x160 46.7/
# 46.8, 3616x128 18.7/19.8, 3616x200 15.5/11.5, 1553x132 7.29/4.73, 162x39 1.87/1.18, 104x98
# 4.30/0.85. Chunks of a few rows pay the hash: 1x3 0.28, 15x39 1.15 (own generators 0.02, 0.22).
_KERNEL_MAX_DRAWS = 150


def _mul_add128(x, c: int, add):
    """x * c + add mod 2^128, for x and add as (low, high) uint64 array halves."""
    (lo, hi), c_lo, c_hi = x, c & _M64, c >> 64
    a0, a1, b0, b1 = lo & _M32, lo >> 32, c_lo & _M32, c_lo >> 32
    p01, p10, low = a0 * b1, a1 * b0, lo * c_lo + add[0]
    mid = ((a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)) >> 32
    high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + mid + hi * c_lo + lo * c_hi + add[1]
    return low, high + (low < add[0])


def sample_uniforms(seed: int, sweep_index: int, start: int, stop: int,
                    count: int) -> np.ndarray:
    """Row k is ``sample_rng(seed, sweep_index, start + k).random(count)`` bit for bit.

    ``SeedSequence`` and ``PCG64`` seeding (NEP 19 stable) run as wrapping
    uint32/uint64 array ops over all rows at once; then rows of up to
    ``_KERNEL_MAX_DRAWS`` draws step every row's LCG once per draw, and longer
    ones set one ``PCG64`` to each row's state in turn and fill the row in C.
    """
    if not 0 <= start <= stop <= 1 << 32 or sweep_index < 0:
        raise ValueError(f"indices must be >= 0 and below 2^32: {sweep_index}, [{start}, {stop})")
    out = np.empty((stop - start, count))
    words = [np.full(1, x >> shift & _M32, np.uint32)  # one element: mixed once, then broadcast
             for x in (int(seed) % (1 << 64), int(sweep_index))
             for shift in range(0, max(x.bit_length(), 1), 32)]
    words.append(np.arange(start, stop, dtype=np.uint32))
    consts, xorshift = [0x43B0D7E5], lambda v: v ^ v >> 16

    def hashmix(value, mult=0x931E8875):  # the hash constant advances on every call
        consts.append(consts[-1] * mult & _M32)
        return xorshift((value ^ consts[-2]) * consts[-1])
    pool = [hashmix(w) for w in (words + [0 * words[0]])[:4]]  # mix_entropy
    for i, j in itertools.permutations(range(4), 2):
        pool[j] = xorshift(pool[j] * 0xCA01F9DD - hashmix(pool[i]) * 0x4973F715)
    for w in words[4:]:
        pool = [xorshift(p * 0xCA01F9DD - hashmix(w) * 0x4973F715) for p in pool]
    consts.append(0x8B51F9DD)  # generate_state(4, uint64) restarts the hash constant
    halves = [hashmix(pool[i % 4], 0x58F38DED).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (halves[i] | halves[i + 1] << 32 for i in (0, 2, 4, 6))
    inc = (seq_lo << 1 | 1, seq_hi << 1 | seq_lo >> 63)  # PCG64 from here on
    del words, pool, halves  # free the hashing arrays before the draws
    low = inc[0] + seed_lo  # srandom: a step from inc + seed, added mod 2^128
    state = _mul_add128((low, inc[1] + seed_hi + (low < seed_lo)), _PCG_MULT, inc)
    if count > _KERNEL_MAX_DRAWS:
        generator = np.random.Generator(np.random.PCG64(0))
        for row, s_lo, s_hi, i_lo, i_hi in zip(out, *(half.tolist() for half in (*state, *inc))):
            generator.bit_generator.state = {
                "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}}
            generator.random(out=row)
        return out
    for column in out.T:  # each draw steps the LCG, then takes XSL-RR's top 53 bits
        lo, hi = state = _mul_add128(state, _PCG_MULT, inc)
        x, rot = lo ^ hi, hi >> 58
        column[:] = ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0 ** -53
    return out


# A forked worker pays for itself from _FORK_WORK // order ** 2 + 1 rows on. Its round
# trip (the fork, the pages both processes then copy on write, the pickled results and the
# reaping) took 4-6 ms in a process that had run fig1, and an enumeration row, the cheapest
# of any runner's, about 0.1 order^2 us (order 3: 1.4 us, 8: 7.2, 10: 11, 50: 158, 100: 640).
# Halving enumeration rows over 2 workers broke even near 1500 rows at order 8 and 1000 at
# order 10 (2-vCPU VM, one BLAS thread, medians of 15 calls).
_FORK_WORK = 60000


def _workers() -> int:
    """The one fork gate: the CPUs in the affinity mask when the first of
    ``_BLAS_THREAD_VARS`` that is set says 1 and the process runs one OS thread
    (``/proc/self/task`` has one entry; unreadable on every OS but Linux), else 1. A child
    forked beside another thread, a BLAS pool's too, inherits locks none can release; MKL
    and OpenMP start their pools only at the first LAPACK call, so the variable counts."""
    blas_threads = next((os.environ[var] for var in _BLAS_THREAD_VARS if var in os.environ), "")
    try:
        alone = blas_threads.strip() == "1" and len(os.listdir("/proc/self/task")) == 1
    except OSError:
        alone = False
    return len(os.sched_getaffinity(0)) if alone else 1


def _fork_worker(deal, w: int) -> tuple[int, int]:
    """Fork a child that runs ``deal(w)``, pickles what it returns to a pipe and leaves by
    ``os._exit``, so it never unwinds into the caller's frames, flushes its copy of their
    buffers or runs their ``finally``. Returns the child's pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        results, errors = deal(w)
        try:
            payload = pickle.dumps((results, errors))
        except Exception as exc:  # an unpicklable result or error
            payload = pickle.dumps(({}, {min(errors, default=w): RuntimeError(
                f"chunk results could not be pickled: {exc!r}")}))
        with open(write, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _chunks(total: int, row_bytes: int, order: int, chunk, most: int | None = None,
            worker_bytes: int = 0) -> list:
    """``chunk(start, stop)`` over ranges of ``range(total)``, in that order.

    A range holds at most ``most`` (default ``_ENUM_CHUNK``) rows of ``row_bytes``
    and a worker's share of ``_CHUNK_BYTES``; its rows are normed as matrices of
    order ``order``. :func:`_workers`, which alone decides whether anything forks, is
    cut so that the run, and the budget with each worker's ``worker_bytes`` (held beyond
    its rows), give each enough rows to pay for its fork: a smaller run forks nothing.
    Ranges, a multiple of the workers with rows spread evenly, are dealt round robin to
    the caller and one forked child per further worker, which pickles its results and
    errors back over a pipe and leaves by ``os._exit``. After an error no worker starts
    another; the first in range order is raised once every pipe is read and every child
    reaped, on every path.
    """
    least = _FORK_WORK // order ** 2 + 1
    workers = min(total // least, _CHUNK_BYTES // (worker_bytes + least * row_bytes))
    workers = min(_workers(), workers) if workers > 1 else 1  # the gate lists /proc: ~30 us
    rows = max(1, min(most or _ENUM_CHUNK, _CHUNK_BYTES // workers // row_bytes))
    count = -(-total // rows)
    count = min(total, -(-count // workers) * workers)
    cuts = [total * c // max(count, 1) for c in range(count + 1)]
    tasks = list(zip(cuts, cuts[1:]))
    failed = mmap.mmap(-1, 1)  # one byte the children share: set by any chunk that raises

    def deal(first):
        results, errors = {}, {}
        for i in range(first, len(tasks), workers):
            if failed[0]:
                break
            try:
                results[i] = chunk(*tasks[i])
            except BaseException as exc:  # raised again in the caller
                errors[i], failed[0] = exc, 1
        return results, errors
    children, payloads, statuses = [], [], []
    try:
        for w in range(1, min(workers, len(tasks))):
            children.append(_fork_worker(deal, w))
        results, errors = deal(0)  # the caller's own share
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for pid, read in children:
            if len(payloads) < len(children):  # the caller is raising: end every child now
                os.kill(pid, signal.SIGKILL)
            os.close(read)
            statuses.append(os.waitpid(pid, 0)[1])
    for payload, status in zip(payloads, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise RuntimeError(f"a chunk worker was killed by {signal.Signals(-code).name}"
                               if code < 0 else f"a chunk worker exited with status {code}")
        share_results, share_errors = pickle.loads(payload)
        results.update(share_results)
        errors.update(share_errors)
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(len(tasks))]


def _row_bytes(topology: gc.Topology) -> int:
    # 8 n^2 + 3 m floats per sample. A full lcpf_bounds chunk, with its lift (4 n^2),
    # n x n parts (2 n^2) and boolean masks, peaks at 0.75-0.88 of it (K30,
    # K50, K100, 100- and 300-bus paths).
    return 8 * (8 * topology.n_nodes ** 2 + 3 * topology.n_edges)


# ---------------------------------------------------------------------------
# fig1: Erdos-Renyi sweep against the degree-based expectation bound
# ---------------------------------------------------------------------------

FIG1_FIELDS = ["p", "sample_index", "m", "delta", "norm", "bound", "bound_ok"]


def run_fig1(cfg: ExperimentConfig) -> RunResult:
    """Erdos-Renyi sweep: per-sample norm vs the realized-degree bound.

    Each record carries the sweep probability, the sampled line count and
    max degree, the sampled ||Y||, and the expectation bound evaluated at
    that sample's realized max degree. ``bound_ok`` checks each sample against
    that bound on E||Y||: the default n = 20 grid passes, dense large grids
    fail (see :func:`bounds.thm1_expectation_bound`).

    Sample s draws the stream of ``sample_rng(seed, sweep, s)``: one uniform per
    candidate line of K_n in lexicographic order (on below p), then the law's
    ``draws`` per line that is on. A chunk draws its rows by one
    :func:`sample_uniforms` call and takes masks, degrees and bounds at once. Its
    law draws form one (rows, most lines in the chunk, draws) block, zero past
    each row's lines, that is transformed at once; each sample's Y is one
    product of rows of the K_n incidence with its row's leading weights.
    """
    n, samples, law, draws = cfg.n, cfg.samples, cfg.line_model, cfg.line_model.draws
    # int8, cast to complex a sample at a time: at n = 200, p = 1 the CLI run peaks at
    # 175 MB, against 192 MB for per-sample incidences and 229 MB for a float64 copy.
    incidence = gc.incidence_matrix(gc.complete_topology(n)).astype(np.int8)
    candidates = len(incidence)
    stars = np.nonzero(incidence.T)[1].reshape(n, n - 1)  # the candidate lines at each bus
    # The stack, and per candidate line the uniforms, law slots, mask and complex weight.
    row_bytes = 8 * (2 * n * n + (4 + 2 * draws) * candidates)

    def sweep_chunk(sweep_index, start, stop):
        p, records = cfg.p_grid[sweep_index], []
        u = sample_uniforms(cfg.seed, sweep_index, start, stop, (1 + draws) * candidates)
        on = u[:, :candidates] < p
        lines = on.sum(axis=1)
        degrees = on[:, stars].sum(axis=2).max(axis=1).tolist()
        most = int(lines.max())
        block = u[:, candidates:candidates + draws * most].reshape(stop - start, most, draws)
        # Zero past each row's lines: the sphere's norms are summed over the whole row.
        block[np.arange(most) >= lines[:, None]] = 0.0
        ys = np.empty((stop - start, n, n), dtype=complex)
        for y, mask, w, m in zip(ys, on, law.transform(block), lines.tolist()):
            # zgemm, not weighted_laplacians: its sum order is in the er_sweep digest.
            a = incidence[mask].astype(complex)
            np.matmul(a.T, w[:m, None] * a, out=y)
        bounds = {d: bnd.thm1_expectation_bound(n, d) for d in set(degrees)}
        for s, m, delta, norm in zip(range(start, stop), lines.tolist(), degrees,
                                     operator_norm(ys).tolist()):
            records.append({"p": p, "sample_index": s, "m": m, "delta": delta, "norm": norm,
                            "bound": bounds[delta], "bound_ok": bool(bounds[delta] >= norm)})
        return records

    def chunk(start, stop):  # rows sweep after sweep, cut at the sweeps' bounds
        return [record for sweep in range(start // samples, -(-stop // samples))
                for record in sweep_chunk(sweep, max(start - sweep * samples, 0),
                                          min(stop - sweep * samples, samples))]
    # One call for the whole run, so it forks once. Each worker holds one sample's
    # incidence product, two complex (lines, n) arrays.
    records = list(itertools.chain(*_chunks(
        len(cfg.p_grid) * samples, row_bytes, n, chunk, _FIG1_CHUNK, 32 * candidates * n)))
    return RunResult(records, FIG1_FIELDS)


# ---------------------------------------------------------------------------
# exact and Monte Carlo distributions of the centered admittance norm
# ---------------------------------------------------------------------------

def _certified_below(stack: np.ndarray, floor: float) -> np.ndarray:
    """Per Z of a symmetric stack: tr((Z conj(Z)/floor^2)^4) < 1 - margin (never on inf, NaN)."""
    below = np.empty(len(stack), bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, len(stack), _CERT_ROWS):
            z = np.divide(stack[i:i + _CERT_ROWS], floor, order="C")  # two blocks held at once
            z = z @ z.conj()  # ZZ*, as Z^T = Z; a real array's conj() and .real are itself
            z = z @ z
            below[i:i + _CERT_ROWS] = \
                np.einsum("rij,rij->r", z, z.conj()).real < 1.0 - _CERT_MARGIN
    return below


def _grid_counts(grid: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Per row, the grid points at or below ``lower`` (1 - margin), or -1 where one lies in
    (that, ``upper`` (1 + margin)] or either bound is inf or NaN."""
    low = np.searchsorted(grid, lower * (1.0 - _CERT_MARGIN), "right")
    high = np.searchsorted(grid, upper * (1.0 + _CERT_MARGIN), "right")
    return np.where((low == high) & np.isfinite(lower) & np.isfinite(upper), low, -1)


def _grid_bins(stack: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per Z of a symmetric stack, the grid points at or below ||Z||, or -1 where one lies between
    its bounds after 6 squarings of W = ZZ*/t0^2, each divided by its trace: A = W^(2^k), k >= 2,
    gives tr(A^2)/tr(A) <= ||W||^(2^k) <= tr(A^2)^(1/2) (A is PSD), with ||W|| = (||Z||/t0)^2."""
    counts, t0 = np.full(len(stack), -1), grid[0]
    block = max(1, _CHAIN_BYTES // (stack.itemsize * stack.shape[-1] ** 2))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(0, len(stack), block):
            z = np.divide(stack[i:i + block], t0, order="C")
            rows, scale = np.arange(i, i + len(z)), 0.0  # A = e^scale w
            for k in range(7):
                w = w @ w if k else z @ z.conj()
                trace = np.einsum("rii->r", w).real
                w /= trace[:, None, None]
                scale = 2.0 * scale + np.log(trace)
                if k >= 2:
                    square = np.log(np.einsum("rij,rij->r", w, w.conj()).real)  # log tr(w^2)
                    counts[rows] = _grid_counts(grid, t0 * np.exp((scale + square) / 2 ** (k + 1)),
                                                t0 * np.exp((scale + square / 2) / 2 ** (k + 1)))
                    if not (left := counts[rows] < 0).any():
                        break
                    w, rows, scale = w[left], rows[left], scale[left]
    return counts


def _centered_norms_for_patterns(model: bnd.ContingencyModel, patterns: np.ndarray,
                                 grid: np.ndarray | None = None) -> np.ndarray:
    """||Y - EY|| of each switch pattern, a row of little-endian bytes whose bit l closes line l,
    so pattern k of the enumeration is the bytes of k. Given a ``grid`` from t0 > 0, its bin
    instead: NaN below t0, else the largest grid point at or below the norm. Gershgorin's bound,
    or a trace moment where no |Z_ii| <= ||Z|| reaches t0, certifies patterns below t0; the rest
    are scattered again for :func:`_grid_bins`, and only what it leaves is normed."""
    y = model.admittances  # real lines: a real symmetric stack, for eigvalsh
    bits = np.unpackbits(patterns, axis=1, count=len(model.probs), bitorder="little")
    coeff = (bits - model.probs) * (y if np.any(y.imag) else y.real)  # (s, m)
    if grid is None or not len(grid) or grid[0] <= 0:
        return operator_norm(gc.weighted_laplacians(model.topology, coeff))
    floor = float(grid[0])
    # Gershgorin: ||Z|| is at most Z's largest absolute row sum, 2 max_i sum_{l at i} |c_l|.
    # Node-major, so the max runs across rows (along each row's n sums it took 5x as long).
    ends = np.abs(gc.incidence_matrix(model.topology)).T
    sums = ends @ np.abs(coeff).T
    may_reach = 2.0 * sums.max(axis=0, initial=0.0) >= floor * (1.0 - _CERT_MARGIN)
    norms = np.full(len(patterns), np.nan)
    if not may_reach.any():
        return norms
    # |Z_ii| = |sum_{l at i} c_l| <= ||Z||: a diagonal at the floor rules the certificate out.
    moment = may_reach & (np.abs(ends @ coeff.T).max(axis=0) < floor)
    moment[moment] = _certified_below(gc.weighted_laplacians(model.topology, coeff[moment]), floor)
    may_reach &= ~moment
    stack = gc.weighted_laplacians(model.topology, coeff[may_reach])
    counts = _grid_bins(stack, grid)
    if (undecided := counts < 0).any():
        counts[undecided] = np.searchsorted(grid, operator_norm(stack[undecided]), "right")
    norms[may_reach] = np.r_[np.nan, grid][counts]
    return norms


def brute_force_distribution(model: bnd.ContingencyModel, *, _grid=None) -> SampleStats:
    """Exact distribution of ||Y - EY|| over all 2^m switch patterns (m <= 20 lines).

    Real admittances give real symmetric matrices, for the eigensolver. If every p_l = 1/2,
    pattern 2^m - 1 - k has the negated matrix of pattern k, so only the first half is built, its
    norms mirrored. The probabilities are filled a line at a time, each pattern's the product of
    its lines' factors from line 0 on. A tail run's private ``_grid`` from t0 > 0 gives each
    pattern's bin (NaN below t0) for its norm, and NaN for ``mean``, as any grid does.
    """
    m = model.topology.n_edges
    if m > BRUTE_FORCE_MAX_LINES:
        raise ValueError(f"exhaustive enumeration capped at "
                         f"{BRUTE_FORCE_MAX_LINES} lines, got {m}")
    total = 1 << m
    built = total >> 1 if m and np.all(model.probs == 0.5) else total
    norms, probs = np.empty(total), np.ones(total)
    np.concatenate(_chunks(built, _row_bytes(model.topology), model.topology.n_nodes,
                           lambda a, b: _centered_norms_for_patterns(model, np.arange(
                               a, b, dtype="<u8")[:, None].view(np.uint8), _grid)),
                   out=norms[:built])
    norms[built:] = norms[:total - built][::-1]  # complements, when p = 1/2
    for line, p in enumerate(model.probs.tolist()):  # patterns with bit `line` set take p
        np.multiply(probs[:1 << line], p, out=probs[1 << line:2 << line])
        probs[:1 << line] *= 1.0 - p
    total_prob = probs.sum()
    if abs(total_prob - 1.0) > 1e-12:
        raise ArithmeticError(f"pattern probabilities sum to {total_prob!r}, not 1")
    return SampleStats(norms=norms, probabilities=probs, stderr=0.0,
                       mean=float(probs @ norms) if _grid is None else math.nan)


def monte_carlo_distribution(model: bnd.ContingencyModel, samples: int,
                             seed: int) -> SampleStats:
    """Monte Carlo estimate of the ||Y - EY|| distribution: sample s switches line l on when
    draw l of ``sample_rng(seed, 0, s)`` is below p_l. The calling process draws and keys every
    sample by its pattern's bytes. One :func:`_chunks` call norms the distinct patterns, each
    once, bit for bit the norm a sample gets alone (the same matrix and LAPACK call)."""
    m = len(model.probs)
    rows = max(1, min(_ENUM_CHUNK, _CHUNK_BYTES // (8 * m or 1)))  # a draw's m uniforms
    # Row keys: the packed bits in a power-of-2 width with a spare bit (for m = 0), one uint
    # a row up to 63 lines (uint8 and uint16 sort by radix), else bytes (void sorts 3x slower).
    width = 1 << (m // 8).bit_length()
    keys = np.zeros((samples, width), np.uint8)
    for start in range(0, samples, rows):
        stop = min(start + rows, samples)
        keys[start:stop, :-(-m // 8)] = np.packbits(  # np.pad took 2.5x as long
            sample_uniforms(seed, 0, start, stop, m) < model.probs, axis=1, bitorder="little")
    _, first, inverse = np.unique(keys.view(f"u{width}" if width <= 8 else f"S{width}")[:, 0],
                                  return_index=True, return_inverse=True)
    parts = _chunks(len(first), _row_bytes(model.topology), model.topology.n_nodes,
                    lambda a, b: _centered_norms_for_patterns(model, keys[first[a:b]]))
    return SampleStats.sampled(np.concatenate(parts)[inverse])


def _contingency_stats(cfg: ExperimentConfig, grid: np.ndarray | None = None) -> SampleStats:
    if cfg.backend == "montecarlo":
        return monte_carlo_distribution(cfg.model, cfg.samples, cfg.seed)
    return brute_force_distribution(cfg.model, _grid=grid)


TAIL_FIELDS = ["t", "tail_empirical", "tail_bound", "tail_bound_clamped",
               "valid", "exact", "bound_ok"]


def run_tail_experiment(cfg: ExperimentConfig) -> RunResult:
    """Contingency tail probabilities against the analytic tail bound.

    With the exact backend, dominance is required outright at every valid
    grid point; with Monte Carlo, up to a 99% binomial confidence allowance.
    The exact backend bins its patterns on the grid, eigensolving only bounds that straddle it.
    """
    profile = bnd.contingency_factors(cfg.model)
    threshold = bnd.thm2_tail_threshold(profile)
    stats = _contingency_stats(cfg, cfg.t_grid)
    records = []
    for t, emp in zip(cfg.t_grid.tolist(), stats.tails(cfg.t_grid)):
        bound = bnd.thm2_tail_bound(t, profile)
        valid = t >= threshold
        n_samp = len(stats.norms)
        allowance = 0.0 if stats.exact else \
            2.576 * math.sqrt(max(emp * (1 - emp), 0.0) / n_samp) + 1.0 / n_samp
        records.append({"t": t, "tail_empirical": float(emp),
                        "tail_bound": bound, "tail_bound_clamped": min(1.0, bound),
                        "valid": valid, "exact": stats.exact,
                        "bound_ok": not valid or bool(emp <= bound + allowance)})
    return RunResult(records, TAIL_FIELDS)


EXPECTATION_FIELDS = ["form", "constant", "expectation_empirical",
                      "expectation_bound", "exact", "bound_ok"]


def run_expectation_experiment(cfg: ExperimentConfig) -> RunResult:
    """E||Y - EY|| against the explicit-chain and single-constant bounds.

    Dominance is asserted for the explicit chain (fully pinned constants);
    the C = 1 form is reported alongside without a verdict.
    """
    profile = bnd.contingency_factors(cfg.model)
    stats = _contingency_stats(cfg)
    explicit = bnd.thm2_expectation_bound(profile)
    with_c1 = bnd.thm2_expectation_bound(profile, constant=1.0)
    slack = 0.0 if stats.exact else 3.0 * stats.stderr
    records = [
        {"form": "explicit", "constant": None,
         "expectation_empirical": stats.mean, "expectation_bound": explicit,
         "exact": stats.exact, "bound_ok": bool(stats.mean <= explicit + slack)},
        {"form": "with_constant", "constant": 1.0,
         "expectation_empirical": stats.mean, "expectation_bound": with_c1,
         "exact": stats.exact, "bound_ok": None},
    ]
    return RunResult(records, EXPECTATION_FIELDS)


# ---------------------------------------------------------------------------
# lcpf_bounds: bounded parameter noise on the flat-start Jacobian
# ---------------------------------------------------------------------------

LCPF_FIELDS = ["t", "tail_empirical", "tail_bound", "tail_bound_slack4",
               "tail_ok", "mean_norm", "expectation_bound", "mean_ok"]

LCPF_TAIL_SLACK = 4.0


def run_lcpf_experiment(cfg: ExperimentConfig) -> RunResult:
    """Empirical ||F - EF|| statistics against the flat-start-Jacobian bounds.

    Line parameters are known centers plus independent uniform noise on
    [-delta, delta]. The centered operator F - EF is the pure-noise
    Jacobian, so the centers drop out; its norms are compared against the
    expectation bound and, per grid threshold, against the tail bound with
    slack factor 4. The noise is the ``bounded`` line law at center 0.
    """
    topology, samples, delta = cfg.topology, cfg.samples, cfg.delta
    n, m = topology.n_nodes, topology.n_edges
    noise = BoundedPerturbation(0.0, 0.0, delta)

    def chunk(start, stop):
        # Generator.uniform(-delta, delta, (2, m)) per sample, dG then dB. Weights held through
        # the lift made glibc trim the heap between serial K50 chunks (3.4x the page faults).
        y = gc.weighted_laplacians(topology, noise.transform(
            sample_uniforms(cfg.seed, 0, start, stop, 2 * m).reshape(stop - start, 2, m)
            .swapaxes(1, 2)))
        return operator_norm(lift_blocks(y.real, y.imag, -1.0))
    stats = SampleStats.sampled(np.concatenate(
        _chunks(samples, _row_bytes(topology), 2 * n, chunk)))
    exp_bound = bnd.lcpf_expectation_bound(n, delta)
    mean_ok = bool(stats.mean <= exp_bound)
    records = []
    for t, tail_emp in zip(cfg.t_grid, stats.tails(cfg.t_grid)):
        tail_bound = bnd.lcpf_tail_bound(float(t), n, delta)
        slacked = LCPF_TAIL_SLACK * tail_bound
        records.append({"t": float(t), "tail_empirical": tail_emp,
                        "tail_bound": tail_bound,
                        "tail_bound_slack4": slacked, "tail_ok": bool(tail_emp <= slacked),
                        "mean_norm": stats.mean,
                        "expectation_bound": exp_bound, "mean_ok": mean_ok})
    return RunResult(records, LCPF_FIELDS)


# ---------------------------------------------------------------------------
# manifold: tangent-step residual certificates vs the expected-distance bound
# ---------------------------------------------------------------------------

MANIFOLD_FIELDS = ["sample_index", "y_norm", "residual_certificate",
                   "holder_certificate", "residual_ok", "mean_certificate",
                   "analytic_bound", "bound_ok"]


def run_manifold_experiment(cfg: ExperimentConfig) -> RunResult:
    """Tangent residual certificates on random admittance samples.

    Per sample: draw |w| <= 1 line weights on a fixed topology, take the
    configured voltage step from the flat start, and record the residual
    certificate 3*||diag(h) conj(Y h)|| against the per-sample Holder
    certificate 3*||h||_inf*||h||_2*||Y||. The mean Holder certificate is
    compared against the expected-distance bound built from the topology's
    max degree. Sample s transforms ``sample_rng(seed, 0, s).random((m,
    law.draws))``; a chunk is drawn, transformed, assembled, normed, certified
    and Holder-bounded by one call each.
    """
    topology, samples, h, law = cfg.topology, cfg.samples, cfg.h, cfg.line_model
    n, m = topology.n_nodes, topology.n_edges
    analytic = distance_bound(h, bnd.thm1_expectation_bound(n, gc.max_degree(topology)))

    def chunk(start, stop):
        weights = law.transform(sample_uniforms(cfg.seed, 0, start, stop, law.draws * m)
                                .reshape(stop - start, m, law.draws))
        # C order: on the scatter's strided view a dense complex Y h rounds otherwise.
        ys = np.ascontiguousarray(gc.weighted_laplacians(topology, weights))
        y_norms = operator_norm(ys)
        residual_certs = 3.0 * projection_distance(ys, np.ones(n), h)  # from the flat start
        holder_certs = distance_bound(h, y_norms)
        return [dict(zip(MANIFOLD_FIELDS, row)) for row in zip(  # the first five fields
            range(start, stop), y_norms.tolist(), residual_certs.tolist(), holder_certs.tolist(),
            (residual_certs <= holder_certs + 1e-12).tolist())]
    # The complex stack, its C-order copy and the complex line weights.
    rows = list(itertools.chain(*_chunks(samples, 16 * (2 * n * n + m), n, chunk)))
    mean_cert = float(np.mean([row["holder_certificate"] for row in rows]))
    bound_ok = bool(mean_cert <= analytic) and all(row["residual_ok"] for row in rows)
    for row in rows:
        row.update({"mean_certificate": mean_cert, "analytic_bound": analytic,
                    "bound_ok": bound_ok})
    return RunResult(rows, MANIFOLD_FIELDS)


# ---------------------------------------------------------------------------
# bruteforce: dump the exact switch-pattern distribution
# ---------------------------------------------------------------------------

BRUTEFORCE_FIELDS = ["t", "tail_exact", "mean_norm", "n_patterns"]


def run_bruteforce(cfg: ExperimentConfig) -> RunResult:
    """Exact tail table of ||Y - EY|| over all switch patterns."""
    stats = brute_force_distribution(cfg.model)
    grid = cfg.t_grid
    if grid is None:  # the default needs the enumerated norms
        top = float(stats.norms.max(initial=0.0))
        grid = np.linspace(0.0, top if top > 0 else 1.0, 20, endpoint=False)
    records = [{"t": float(t), "tail_exact": tail,
                "mean_norm": stats.mean, "n_patterns": len(stats.norms)}
               for t, tail in zip(grid, stats.tails(grid))]
    return RunResult(records, BRUTEFORCE_FIELDS)


_RUNNERS = {
    "fig1": run_fig1,
    "thm2_tail": run_tail_experiment,
    "thm2_expectation": run_expectation_experiment,
    "lcpf_bounds": run_lcpf_experiment,
    "manifold": run_manifold_experiment,
    "bruteforce": run_bruteforce,
}


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Dispatch to the runner named by ``cfg.experiment``."""
    return _RUNNERS[cfg.experiment](cfg)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

# Never quoted, by exact type: floats' digits, '.', 'e', signs, inf or nan, and ints' digits.
_PLAIN_CELLS = {float: "{:.17g}".format, int: str, bool: ("false", "true").__getitem__,
                type(None): lambda value: ""}


def _csv_cell(value) -> str:
    """One RFC 4180 cell: floats at 17 digits, None empty, ``true``/``false``, else str."""
    plain = _PLAIN_CELLS.get(type(value))
    if plain is None:  # numpy scalars and other types
        value = _json_ready(value)
        plain = _PLAIN_CELLS.get(type(value))
    if plain is not None:
        return plain(value)
    cell = str(value)
    return '"' + cell.replace('"', '""') + '"' if re.search('[,"\r\n]', cell) else cell


def _json_ready(value):
    return value.item() if isinstance(value, np.generic) else value


def emit(result: RunResult, fmt: str = "csv", path=None):
    """Write a run's records as CSV (RFC 4180, floats at 17 significant digits)
    or JSON, with the run's field names as the header or keys (so an empty
    table still has its header). Returns the rendered string when ``path`` is
    None, else writes the file and returns None.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    records, fieldnames = result.records, result.fieldnames
    if fmt == "csv":
        out = StringIO()
        out.write(",".join(map(_csv_cell, map(str, fieldnames))) + "\n")
        for rec in records:
            out.write(",".join(map(_csv_cell, map(rec.get, fieldnames))) + "\n")
        text = out.getvalue()
    else:
        payload = [{f: _json_ready(rec.get(f)) for f in fieldnames} for rec in records]
        text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        return text
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return None
