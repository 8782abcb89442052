"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded only around public functions, from the benchmark's own
code: :func:`install` swaps each function for a wrapper at the name through
which its caller looks it up, and restores the original afterwards. A span
records its name, start, end, parent and whether it ended by raising.

A span's *self time* is its duration minus the part of its interval that its
child spans cover. Summed over every span of a call tree, self times add up
to the root span's duration, so the per-layer numbers account for the
end-to-end time of ``cli.main``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans of one call tree; nesting follows the call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each clipped to the span's own interval."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def metric_key(name: str) -> str:
    """Bounds functions are reported as one ``bounds`` group."""
    return "bounds" if name.startswith("bounds.") else name


def summarize(spans: list[Span]) -> dict:
    """Per metric key: ``s`` (time inside the key's outermost spans),
    ``self_s`` and ``calls``; per layer: spans that ended by raising."""
    selfs = self_times(spans)
    keys = [metric_key(s.name) for s in spans]
    per_key: dict[str, dict] = {}
    layer_errors: dict[str, int] = {}
    for i, (span, key) in enumerate(zip(spans, keys)):
        entry = per_key.setdefault(key, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["self_s"] += selfs[i]
        entry["calls"] += 1
        if not _has_ancestor_key(spans, keys, i):
            entry["s"] += span.end - span.start
        layer_errors[span.layer] = layer_errors.get(span.layer, 0) + int(span.error)
    return {"keys": per_key, "layer_errors": layer_errors,
            "self_total_s": sum(selfs)}


def _has_ancestor_key(spans, keys, i) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if keys[parent] == keys[i]:
            return True
        parent = spans[parent].parent
    return False


def trace_targets():
    """(owner, attribute, span name) for every traced public function.

    Names are patched where the experiment runners and the CLI look them up:
    the ``from ... import`` bindings in ``experiment_harness`` and ``cli``,
    and the ``gc.*`` / ``bnd.*`` module attributes.
    """
    from grid_concentrator import bounds, cli, graph_core
    from grid_concentrator import experiment_harness as harness

    targets = [
        (cli, "run_experiment", "experiment_harness.run_experiment"),
        (cli, "emit", "experiment_harness.emit"),
        (harness, "sample_rng", "experiment_harness.sample_rng"),
        (harness, "brute_force_distribution", "experiment_harness.brute_force_distribution"),
        (harness, "monte_carlo_distribution", "experiment_harness.monte_carlo_distribution"),
        (harness, "assemble_admittance", "admittance.assemble_admittance"),
        (harness, "operator_norm", "spectra.operator_norm"),
        (graph_core, "sample_er_topology", "graph_core.sample_er_topology"),
        (graph_core, "max_degree", "graph_core.max_degree"),
    ]
    for attr in sorted(vars(bounds)):
        if attr.startswith(("thm1_", "thm2_", "lcpf_")) or attr == "contingency_factors":
            targets.append((bounds, attr, f"bounds.{attr}"))
    return targets


@contextlib.contextmanager
def install(tracer: Tracer, targets):
    """Patch every target with a tracing wrapper for the ``with`` body."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for (owner, attr, name), (_, _, fn) in zip(targets, originals):
            setattr(owner, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
