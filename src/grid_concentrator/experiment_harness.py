"""Monte Carlo and exhaustive experiments validating the analytic bounds.

Each experiment consumes an :class:`ExperimentConfig` (usually parsed from a
JSON file), runs a deterministic sampling or enumeration loop, and produces a
flat table of records ready for CSV/JSON emission. Per-sample generators are
derived as ``SeedSequence((master_seed, sweep_index, sample_index))``, so any
sample can be replayed in isolation and identical configs give byte-identical
output files.

The Monte Carlo, enumeration and ``lcpf_bounds`` runners work in bounded
chunks of samples, each assembled by one line-order scatter and normed by one
batched call, so their per-sample memory is O(n^2), not O(m n^2).

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

import json
import math
from dataclasses import dataclass
from io import StringIO

import numpy as np

from . import bounds as bnd
from . import graph_core as gc
from .admittance import (
    LineLaw,
    UnitDisk,
    assemble_admittance,
    line_law_from_json,
    weighted_laplacians,
)
from .manifold import expected_distance_bound, tangent_residual, tangent_step
from .spectra import operator_norm

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SampleStats",
    "RunResult",
    "EXPERIMENT_NAMES",
    "sample_rng",
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

EXPERIMENT_NAMES = ("fig1", "thm2_tail", "thm2_expectation", "lcpf_bounds",
                    "manifold", "bruteforce")

BRUTE_FORCE_MAX_LINES = 20
_ENUM_CHUNK = 8192
_CHUNK_BYTES = 1 << 24


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters.

    Fields are a union over all experiments; each runner reads the subset it
    needs. ``None`` means "use the experiment's default". See
    :meth:`from_dict` for the JSON schema.
    """

    experiment: str
    n: int = 20
    samples: int | None = None
    seed: int = 0
    p_grid: tuple = ()
    line_model: LineLaw = UnitDisk()
    topology: gc.Topology | None = None
    probs: tuple | float = 0.5
    admittances: object = 1.0
    t_grid: tuple | None = None
    backend: str = "bruteforce"
    delta: float = 0.1
    center_g: object = 1.0
    center_b: object = -1.0
    h: object = 0.1
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {', '.join(EXPERIMENT_NAMES)}")
        for name in ("n", "samples", "seed"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, (int, np.integer))):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.samples is not None and self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.t_grid is not None:
            grid = tuple(_finite("t_grid", t) for t in self.t_grid)
            if any(b < a for a, b in zip(grid, grid[1:])):
                raise ConfigError("t_grid must be sorted ascending")
            object.__setattr__(self, "t_grid", grid)
        if self.backend not in ("bruteforce", "montecarlo"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        object.__setattr__(self, "delta", _finite("delta", self.delta))
        if self.delta < 0:
            raise ConfigError("delta must be >= 0")
        object.__setattr__(self, "p_grid", tuple(_finite("p_grid", p) for p in self.p_grid))
        try:
            object.__setattr__(self, "line_model", line_law_from_json(self.line_model))
        except ValueError as exc:
            raise ConfigError(f"line_model {exc}") from exc
        for p in self.p_grid:
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"sweep probability {p} outside [0, 1]")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """Build from a JSON-style dict.

        Recognized keys: experiment, n, samples, seed, p_grid, line_model
        (see :func:`~grid_concentrator.admittance.line_law_from_json`),
        topology (either {"name": "path"|"complete"|"star", "n": N} or
        {"n": N, "edges": [[i,j],...], "reference": int|null}), probs
        (scalar or per-line list), admittances (scalar, [re,im] pair when
        m != 2, or a per-line list of scalars and pairs), t_grid, backend,
        delta, center_g, center_b (scalar or per-line list), h (scalar
        magnitude or list of [re,im] pairs), out, format.
        """
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        if "topology" in kwargs and kwargs["topology"] is not None:
            kwargs["topology"] = _parse_topology(kwargs["topology"])
        try:
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def _finite(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _parse_topology(obj) -> gc.Topology:
    if isinstance(obj, gc.Topology):
        return obj
    if not isinstance(obj, dict):
        raise ConfigError("topology must be an object")
    try:
        if "name" in obj:
            name, n = obj["name"], int(obj["n"])
            ref = obj.get("reference")
            ref = None if ref is None else int(ref)
            if name == "path":
                return gc.path_topology(n, ref)
            if name == "complete":
                return gc.complete_topology(n, ref)
            if name == "star":
                return gc.star_topology(n, ref)
            raise ConfigError(f"unknown named topology {name!r}")
        return gc.Topology(
            n_nodes=int(obj["n"]),
            edges=tuple((int(i), int(j)) for i, j in obj.get("edges", ())),
            reference_node=None if obj.get("reference") is None else int(obj["reference"]),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad topology spec: {exc}") from exc


@dataclass(frozen=True)
class SampleStats:
    """Operator-norm statistics from sampling or exhaustive enumeration.

    ``probabilities`` is None for equally weighted Monte Carlo samples and
    carries the exact pattern probabilities for enumeration (``exact``).
    ``stderr`` is the standard error of the mean (0 when exact).
    """

    norms: np.ndarray
    probabilities: np.ndarray | None
    mean: float
    stderr: float
    thresholds: np.ndarray
    tail_frequencies: np.ndarray
    exact: bool

    def tail_at(self, t: float) -> float:
        """Pr(norm >= t) under the sample/pattern weights."""
        if self.probabilities is None:
            return float(np.mean(self.norms >= t))
        return float(self.probabilities[self.norms >= t].sum())


@dataclass
class RunResult:
    """Records plus the schema and the overall dominance verdict."""

    records: list
    fieldnames: list
    bounds_ok: bool


def sample_rng(seed: int, sweep_index: int, sample_index: int) -> np.random.Generator:
    """Deterministic per-sample generator: hash of (master seed, sweep, sample)."""
    return np.random.default_rng(
        np.random.SeedSequence((int(seed) % (1 << 64), int(sweep_index), int(sample_index))))


def _broadcast_per_line(value, m: int, name: str) -> np.ndarray:
    try:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be numbers: {exc}") from exc
    if arr.shape == (1,):
        arr = np.full(m, float(arr[0]))
    if arr.shape != (m,) or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be a finite scalar or a list of {m} finite values")
    return arr


def _admittance_value(item) -> complex:
    if isinstance(item, complex):
        item = (item.real, item.imag)
    if isinstance(item, (list, tuple)) and len(item) == 2:
        return complex(_finite("admittances", item[0]), _finite("admittances", item[1]))
    return complex(_finite("admittances", item))


def _parse_admittances(value, m: int) -> np.ndarray:
    """Scalar, [re, im] pair (m != 2), or per-line list -> complex (m,) array.

    On two lines a flat pair could mean one complex value or two real ones,
    so it is rejected there; write per-line pairs [[re, im], [re, im]].
    """
    if not isinstance(value, (list, tuple)):
        return np.full(m, _admittance_value(value))
    if len(value) == 2 and not any(isinstance(x, (list, tuple)) for x in value):
        if m == 2:
            raise ConfigError(f"admittances {list(value)!r} is ambiguous on 2 lines: "
                              "give per-line [re, im] pairs")
        return np.full(m, _admittance_value(value))
    if len(value) != m:
        raise ConfigError(f"admittances must broadcast to {m} lines")
    return np.array([_admittance_value(item) for item in value])


def _contingency_model(cfg: ExperimentConfig) -> tuple[gc.Topology, bnd.ContingencyModel]:
    topology = cfg.topology or gc.complete_topology(3)
    m = topology.n_edges
    probs = _broadcast_per_line(cfg.probs, m, "probs")
    admittances = _parse_admittances(cfg.admittances, m)
    try:
        model = bnd.ContingencyModel(topology, probs, admittances)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return topology, model


def _chunks(total: int, topology: gc.Topology):
    """(start, stop) ranges over ``range(total)``: at most ``_ENUM_CHUNK`` rows and
    ``_CHUNK_BYTES`` of rows of 8 n^2 + 3 m floats (lifted matrix, n x n parts, draws)."""
    row_bytes = 8 * (8 * topology.n_nodes ** 2 + 3 * topology.n_edges)
    rows = max(1, min(_ENUM_CHUNK, _CHUNK_BYTES // row_bytes))
    for start in range(0, total, rows):
        yield start, min(start + rows, total)


def _require_unit_support(cfg: ExperimentConfig):
    """The degree bound assumes |w| <= 1 per-unit on every line."""
    support = cfg.line_model.support
    if support > 1.0 + 1e-12:
        raise ConfigError(f"line_model must have |w| <= 1 per-unit for {cfg.experiment}, "
                          f"but its support reaches {support:.6g}")


def _batched_operator_norms(batch: np.ndarray) -> np.ndarray:
    """Largest singular value per matrix of a (s, k, k) stack."""
    if np.iscomplexobj(batch):
        return np.linalg.svd(batch, compute_uv=False)[:, 0]
    return np.abs(np.linalg.eigvalsh(batch)).max(axis=1)


# ---------------------------------------------------------------------------
# fig1: Erdos-Renyi sweep against the degree-based expectation bound
# ---------------------------------------------------------------------------

FIG1_FIELDS = ["p", "sample_index", "m", "delta", "norm", "bound", "bound_ok"]


def run_fig1(cfg: ExperimentConfig) -> RunResult:
    """Erdos-Renyi sweep: per-sample norm vs the realized-degree bound.

    Each record carries the sweep probability, the sampled line count and
    max degree, the sampled ||Y||, and the expectation bound evaluated at
    that sample's realized max degree.
    """
    _require_unit_support(cfg)
    p_grid = cfg.p_grid or tuple(round(0.1 * k, 2) for k in range(1, 11))
    samples = cfg.samples if cfg.samples is not None else 200
    records = []
    all_ok = True
    for sweep_index, p in enumerate(p_grid):
        for sample_index in range(samples):
            rng = sample_rng(cfg.seed, sweep_index, sample_index)
            topology = gc.sample_er_topology(cfg.n, p, rng)
            weights = cfg.line_model.sample(rng, topology.n_edges)
            norm = operator_norm(assemble_admittance(topology, weights).matrix)
            delta = gc.max_degree(topology)
            bound = bnd.thm1_expectation_bound(cfg.n, delta).value
            ok = bool(bound >= norm)
            all_ok = all_ok and ok
            records.append({"p": p, "sample_index": sample_index,
                            "m": topology.n_edges, "delta": delta,
                            "norm": norm, "bound": bound, "bound_ok": ok})
    return RunResult(records, FIG1_FIELDS, all_ok)


# ---------------------------------------------------------------------------
# exact and Monte Carlo distributions of the centered admittance norm
# ---------------------------------------------------------------------------

def _centered_norms_for_patterns(topology: gc.Topology, model: bnd.ContingencyModel,
                                 patterns: np.ndarray) -> np.ndarray:
    coeff = (patterns - model.probs) * model.admittances  # (s, m) complex
    return _batched_operator_norms(weighted_laplacians(topology, coeff))


def brute_force_distribution(topology: gc.Topology, model: bnd.ContingencyModel,
                             thresholds=()) -> SampleStats:
    """Exact distribution of ||Y - EY|| over all 2^m switch patterns.

    Enumerates every on/off pattern with its Bernoulli probability, computes
    the centered norm exactly, and returns exact mean and tail values.
    Limited to m <= 20 lines.
    """
    m = topology.n_edges
    if m > BRUTE_FORCE_MAX_LINES:
        raise ValueError(f"exhaustive enumeration capped at "
                         f"{BRUTE_FORCE_MAX_LINES} lines, got {m}")
    if topology is not model.topology and topology.edges != model.topology.edges:
        raise ValueError("topology does not match the contingency model")
    total = 1 << m
    norms = np.empty(total)
    probs = np.empty(total)
    bit_index = np.arange(m, dtype=np.uint64)
    for start, stop in _chunks(total, topology):
        idx = np.arange(start, stop, dtype=np.uint64)
        patterns = ((idx[:, None] >> bit_index) & 1).astype(float)
        norms[start:stop] = _centered_norms_for_patterns(topology, model, patterns)
        probs[start:stop] = np.prod(
            np.where(patterns == 1.0, model.probs, 1.0 - model.probs), axis=1)
    total_prob = probs.sum()
    if abs(total_prob - 1.0) > 1e-12:
        raise ArithmeticError(f"pattern probabilities sum to {total_prob!r}, not 1")
    thresholds = np.asarray(thresholds, dtype=float)
    tails = np.array([probs[norms >= t].sum() for t in thresholds])
    return SampleStats(norms=norms, probabilities=probs,
                       mean=float(probs @ norms), stderr=0.0,
                       thresholds=thresholds, tail_frequencies=tails, exact=True)


def monte_carlo_distribution(topology: gc.Topology, model: bnd.ContingencyModel,
                             samples: int, seed: int, thresholds=(),
                             sweep_index: int = 0) -> SampleStats:
    """Monte Carlo estimate of the ||Y - EY|| distribution (per-sample seeds)."""
    m = topology.n_edges
    norms = np.empty(samples)
    for start, stop in _chunks(samples, topology):
        draws = np.empty((stop - start, m))
        for k, s in enumerate(range(start, stop)):
            draws[k] = sample_rng(seed, sweep_index, s).random(m)
        patterns = (draws < model.probs).astype(float)
        norms[start:stop] = _centered_norms_for_patterns(topology, model, patterns)
    thresholds = np.asarray(thresholds, dtype=float)
    tails = np.array([float(np.mean(norms >= t)) for t in thresholds])
    stderr = float(np.std(norms, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return SampleStats(norms=norms, probabilities=None, mean=float(np.mean(norms)),
                       stderr=stderr, thresholds=thresholds,
                       tail_frequencies=tails, exact=False)


def _default_tail_grid(profile: bnd.CriticalityProfile, points: int = 20) -> np.ndarray:
    if profile.degenerate:
        return np.linspace(0.0, 1.0, points)
    threshold = math.sqrt(2.0 * profile.max_criticality) + 2.0 / 3.0
    return np.linspace(threshold, threshold + 3.0, points)


def _contingency_stats(cfg: ExperimentConfig, topology: gc.Topology,
                       model: bnd.ContingencyModel, grid=()) -> SampleStats:
    if cfg.backend == "montecarlo":
        samples = cfg.samples if cfg.samples is not None else 20000
        return monte_carlo_distribution(topology, model, samples, cfg.seed, grid)
    try:
        return brute_force_distribution(topology, model, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


TAIL_FIELDS = ["t", "tail_empirical", "tail_bound", "tail_bound_clamped",
               "valid", "exact", "bound_ok"]


def run_tail_experiment(cfg: ExperimentConfig) -> RunResult:
    """Contingency tail probabilities against the analytic tail bound.

    With the exact backend, dominance is required outright at every valid
    grid point; with Monte Carlo, up to a 99% binomial confidence allowance.
    """
    topology, model = _contingency_model(cfg)
    profile = bnd.contingency_factors(model)
    grid = np.asarray(cfg.t_grid, dtype=float) if cfg.t_grid is not None \
        else _default_tail_grid(profile)
    stats = _contingency_stats(cfg, topology, model, grid)
    records = []
    all_ok = True
    for t, emp in zip(grid, stats.tail_frequencies):
        report = bnd.thm2_tail_bound(float(t), profile)
        if stats.exact:
            ok = bool(emp <= report.value) if report.valid else True
        else:
            n_samp = len(stats.norms)
            allowance = 2.576 * math.sqrt(max(emp * (1 - emp), 0.0) / n_samp) + 1.0 / n_samp
            ok = bool(emp <= report.value + allowance) if report.valid else True
        all_ok = all_ok and ok
        records.append({"t": float(t), "tail_empirical": float(emp),
                        "tail_bound": report.value,
                        "tail_bound_clamped": report.clamped,
                        "valid": report.valid, "exact": stats.exact,
                        "bound_ok": ok})
    return RunResult(records, TAIL_FIELDS, all_ok)


EXPECTATION_FIELDS = ["form", "constant", "expectation_empirical",
                      "expectation_bound", "exact", "bound_ok"]


def run_expectation_experiment(cfg: ExperimentConfig) -> RunResult:
    """E||Y - EY|| against the explicit-chain and single-constant bounds.

    Dominance is asserted for the explicit chain (fully pinned constants);
    the C = 1 form is reported alongside without a verdict.
    """
    topology, model = _contingency_model(cfg)
    profile = bnd.contingency_factors(model)
    stats = _contingency_stats(cfg, topology, model)
    explicit = bnd.thm2_expectation_bound(profile)
    with_c1 = bnd.thm2_expectation_bound(profile, constant=1.0)
    slack = 0.0 if stats.exact else 3.0 * stats.stderr
    explicit_ok = bool(stats.mean <= explicit.value + slack)
    records = [
        {"form": "explicit", "constant": None,
         "expectation_empirical": stats.mean, "expectation_bound": explicit.value,
         "exact": stats.exact, "bound_ok": explicit_ok},
        {"form": "with_constant", "constant": 1.0,
         "expectation_empirical": stats.mean, "expectation_bound": with_c1.value,
         "exact": stats.exact, "bound_ok": None},
    ]
    return RunResult(records, EXPECTATION_FIELDS, explicit_ok)


# ---------------------------------------------------------------------------
# lcpf_bounds: bounded parameter noise on the flat-start Jacobian
# ---------------------------------------------------------------------------

LCPF_FIELDS = ["t", "tail_empirical", "tail_bound", "tail_bound_slack4",
               "tail_ok", "mean_norm", "expectation_bound", "mean_ok"]

LCPF_TAIL_SLACK = 4.0


def _lcpf_default_grid(n: int, delta: float, m: int, points: int = 10) -> np.ndarray:
    # Start where the raw tail bound crosses 1 (informative regime) and stop
    # past the almost-sure ceiling 2*sqrt(2)*delta*m of ||F - EF||.
    log_n = math.log(n) if n > 1 else 0.0
    if delta == 0.0 or log_n == 0.0:
        t_start = 0.0
    else:
        half_linear = 2.0 * delta * log_n / 3.0
        t_start = half_linear + math.sqrt(half_linear ** 2 + 4.0 * delta * delta * n * log_n)
    ceiling = 2.0 * math.sqrt(2.0) * delta * max(m, 1)
    return np.linspace(t_start, max(1.2 * ceiling, t_start + 1e-6), points)


def run_lcpf_experiment(cfg: ExperimentConfig) -> RunResult:
    """Empirical ||F - EF|| statistics against the flat-start-Jacobian bounds.

    Line parameters are the configured centers plus independent uniform
    noise on [-delta, delta]; the centered operator is the pure-noise
    Jacobian, whose norms are compared against the expectation bound and,
    per grid threshold, against the tail bound with slack factor 4.
    """
    topology = cfg.topology or gc.path_topology(3)
    n, m = topology.n_nodes, topology.n_edges
    samples = cfg.samples if cfg.samples is not None else 10000
    delta = float(cfg.delta)
    _broadcast_per_line(cfg.center_g, m, "center_g")  # validated; centers drop out
    _broadcast_per_line(cfg.center_b, m, "center_b")
    norms = np.empty(samples)
    for start, stop in _chunks(samples, topology):
        draws = np.empty((2, stop - start, m))
        for k, s in enumerate(range(start, stop)):  # per sample: all of dG, then all of dB
            draws[:, k] = sample_rng(cfg.seed, 0, s).uniform(-delta, delta, (2, m))
        g, b = weighted_laplacians(topology, draws)
        norms[start:stop] = _batched_operator_norms(np.block([[g, -b], [-b, -g]]))
    mean_norm = float(np.mean(norms))
    exp_bound = bnd.lcpf_expectation_bound(n, delta)
    mean_ok = bool(mean_norm <= exp_bound.value)
    grid = np.asarray(cfg.t_grid, dtype=float) if cfg.t_grid is not None \
        else _lcpf_default_grid(n, delta, m)
    records = []
    all_ok = mean_ok
    for t in grid:
        tail_emp = float(np.mean(norms >= t))
        tail_bound = bnd.lcpf_tail_bound(float(t), n, delta)
        slacked = LCPF_TAIL_SLACK * tail_bound.value
        ok = bool(tail_emp <= slacked)
        all_ok = all_ok and ok
        records.append({"t": float(t), "tail_empirical": tail_emp,
                        "tail_bound": tail_bound.value,
                        "tail_bound_slack4": slacked, "tail_ok": ok,
                        "mean_norm": mean_norm,
                        "expectation_bound": exp_bound.value, "mean_ok": mean_ok})
    return RunResult(records, LCPF_FIELDS, all_ok)


# ---------------------------------------------------------------------------
# manifold: tangent-step residual certificates vs the expected-distance bound
# ---------------------------------------------------------------------------

MANIFOLD_FIELDS = ["sample_index", "y_norm", "residual_certificate",
                   "holder_certificate", "residual_ok", "mean_certificate",
                   "analytic_bound", "bound_ok"]


def _parse_step(value, n: int) -> np.ndarray:
    if isinstance(value, (int, float)):
        h = np.zeros(n, dtype=complex)
        h[0] = float(value)
        return h
    h = np.array([complex(float(re), float(im)) for re, im in value])
    if h.shape != (n,):
        raise ConfigError(f"step vector must have length {n}")
    return h


def run_manifold_experiment(cfg: ExperimentConfig) -> RunResult:
    """Tangent residual certificates on random admittance samples.

    Per sample: draw |w| <= 1 line weights on a fixed topology, take the
    configured voltage step from the flat start, and record the residual
    certificate 3*||diag(h) conj(Y h)|| against the per-sample Holder
    certificate 3*||h||_inf*||h||_2*||Y||. The mean Holder certificate is
    compared against the expected-distance bound built from the topology's
    max degree.
    """
    topology = cfg.topology or gc.path_topology(3)
    _require_unit_support(cfg)
    samples = cfg.samples if cfg.samples is not None else 200
    h = _parse_step(cfg.h, topology.n_nodes)
    h2 = float(np.linalg.norm(h))
    hinf = float(np.max(np.abs(h), initial=0.0))
    u_flat = np.ones(topology.n_nodes, dtype=complex)
    source = bnd.thm1_expectation_bound(topology.n_nodes, gc.max_degree(topology))
    analytic = expected_distance_bound(h, source)
    certs = np.empty(samples)
    residual_all_ok = True
    rows = []
    for s in range(samples):
        rng = sample_rng(cfg.seed, 0, s)
        y = assemble_admittance(topology, cfg.line_model.sample(rng, topology.n_edges))
        y_norm = operator_norm(y.matrix)
        step = tangent_step(y, u_flat, h)
        residual_cert = 3.0 * float(np.linalg.norm(tangent_residual(y, step)))
        holder_cert = 3.0 * hinf * h2 * y_norm
        res_ok = bool(residual_cert <= holder_cert + 1e-12)
        residual_all_ok = residual_all_ok and res_ok
        certs[s] = holder_cert
        rows.append({"sample_index": s, "y_norm": y_norm,
                     "residual_certificate": residual_cert,
                     "holder_certificate": holder_cert, "residual_ok": res_ok})
    mean_cert = float(np.mean(certs))
    bound_ok = bool(mean_cert <= analytic.value) and residual_all_ok
    for row in rows:
        row.update({"mean_certificate": mean_cert, "analytic_bound": analytic.value,
                    "bound_ok": bound_ok})
    return RunResult(rows, MANIFOLD_FIELDS, bound_ok)


# ---------------------------------------------------------------------------
# bruteforce: dump the exact switch-pattern distribution
# ---------------------------------------------------------------------------

BRUTEFORCE_FIELDS = ["t", "tail_exact", "mean_norm", "n_patterns"]


def run_bruteforce(cfg: ExperimentConfig) -> RunResult:
    """Exact tail table of ||Y - EY|| over all switch patterns."""
    topology, model = _contingency_model(cfg)
    if topology.n_edges > BRUTE_FORCE_MAX_LINES:
        raise ConfigError(f"bruteforce requires m <= {BRUTE_FORCE_MAX_LINES} lines")
    stats = brute_force_distribution(topology, model)
    if cfg.t_grid is not None:
        grid = np.asarray(cfg.t_grid, dtype=float)
    else:
        top = float(stats.norms.max(initial=0.0))
        grid = np.linspace(0.0, top if top > 0 else 1.0, 20)
    records = [{"t": float(t), "tail_exact": stats.tail_at(t),
                "mean_norm": stats.mean, "n_patterns": len(stats.norms)}
               for t in grid]
    return RunResult(records, BRUTEFORCE_FIELDS, True)


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

def _format_cell(value) -> str:
    value = _json_ready(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _csv_quote(cell: str) -> str:
    if any(ch in cell for ch in (',', '"', '\n', '\r')):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _json_ready(value):
    return value.item() if isinstance(value, np.generic) else value


def emit(records, fmt: str = "csv", path=None, fieldnames=None):
    """Write records as CSV (RFC 4180, floats at 17 significant digits) or JSON.

    Field names come from the first record unless given explicitly (needed
    for header-only output of an empty table). Returns the rendered string
    when ``path`` is None, else writes the file and returns None.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    records = list(records)
    if fieldnames is None:
        fieldnames = list(records[0].keys()) if records else []
    if fmt == "csv":
        out = StringIO()
        out.write(",".join(_csv_quote(str(f)) for f in fieldnames) + "\n")
        for rec in records:
            out.write(",".join(_csv_quote(_format_cell(rec.get(f))) for f in fieldnames) + "\n")
        text = out.getvalue()
    else:
        payload = [{f: _json_ready(rec.get(f)) for f in fieldnames} for rec in records]
        text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        return text
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return None
