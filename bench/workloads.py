"""The benchmark's pinned workloads and the checks applied to their output.

Each workload is one experiment config. ``--seed`` becomes the config's
master seed, so the same seed gives the same inputs. The table produced at
``PINNED_SEED`` must hash to the workload's stored SHA-256, which catches
output drift between commits; every other table is checked for its header,
row count and finite numeric cells.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

PINNED_SEED = 0

FIG1_FIELDS = ("p", "sample_index", "m", "delta", "norm", "bound", "bound_ok")
TAIL_FIELDS = ("t", "tail_empirical", "tail_bound", "tail_bound_clamped",
               "valid", "exact", "bound_ok")
LCPF_FIELDS = ("t", "tail_empirical", "tail_bound", "tail_bound_slack4",
               "tail_ok", "mean_norm", "expectation_bound", "mean_ok")

# First 18 lexicographic edges of K8: 2^18 switch patterns to enumerate.
K8_FIRST_18_EDGES = [[i, j] for i in range(8) for j in range(i + 1, 8)][:18]

FLOAT_BYTES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    config: dict
    fields: tuple
    rows: int
    digest: str
    work_unit: str
    predicted_dominant: str
    gauge: str  # the reference kernel that does the same kind of work

    def config_for(self, seed: int) -> dict:
        return {**self.config, "seed": seed}

    def work_counts(self, cfg: dict, table: list[dict]) -> dict:
        """Work done by one run, computed from its config and its table.

        ``basis_bytes`` is the size of the dense per-line bases the runner
        allocates (``m*n^2`` floats, plus ``2*m*(2n)^2`` for the lifted
        Jacobian bases), computed from array shapes, not measured.
        """
        counts = {"samples": 0, "patterns": 0, "lines_drawn": 0,
                  "basis_bytes": 0, "rows_emitted": len(table)}
        if self.experiment == "fig1":
            counts.update(samples=len(table),
                          lines_drawn=sum(int(row["m"]) for row in table))
            return counts
        n, m = _topology_size(cfg.get("topology"))
        basis = m * n * n * FLOAT_BYTES
        if cfg.get("backend") == "bruteforce":
            counts.update(patterns=1 << m, basis_bytes=basis)
        elif self.experiment == "thm2_tail":
            counts.update(samples=cfg["samples"], lines_drawn=cfg["samples"] * m,
                          basis_bytes=basis)
        else:  # lcpf_bounds: one conductance and one susceptance draw per line
            counts.update(samples=cfg["samples"], lines_drawn=2 * cfg["samples"] * m,
                          basis_bytes=basis + 2 * m * (2 * n) ** 2 * FLOAT_BYTES)
        return counts


def _topology_size(topology: dict | None) -> tuple[int, int]:
    if topology is None:  # the contingency experiments default to K3
        return 3, 3
    n = topology["n"]
    if topology.get("name") == "complete":
        return n, n * (n - 1) // 2
    return n, len(topology["edges"])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="er_sweep", experiment="fig1",
        config={"n": 20, "samples": 200},
        fields=FIG1_FIELDS, rows=10 * 200,
        digest="f3236df6e6faf8d965f477bb3b59d05ebfaf00e41587cab5f984fc9a73186357",
        work_unit="samples", predicted_dominant="experiment_harness.self_s",
        gauge="sweep"),
    Workload(
        name="switching_exact", experiment="thm2_tail",
        config={"backend": "bruteforce",
                "topology": {"n": 8, "edges": K8_FIRST_18_EDGES},
                "probs": 0.5, "admittances": 1.0},
        fields=TAIL_FIELDS, rows=20,
        digest="7329bb50a3b9254b127300ef03fc79342dc21b145809489ac7ca45fc28fb1dae",
        work_unit="patterns",
        predicted_dominant="experiment_harness.brute_force_distribution.self_s",
        gauge="batched"),
    Workload(
        name="switching_mc", experiment="thm2_tail",
        config={"backend": "montecarlo", "samples": 20000},
        fields=TAIL_FIELDS, rows=20,
        digest="ff86ee9bdd62b822e7c563facab11225a0fe19e2f20340a519e4e68e535b6295",
        work_unit="samples",
        predicted_dominant="experiment_harness.monte_carlo_distribution.self_s",
        gauge="per_sample"),
    Workload(
        name="noise_dense", experiment="lcpf_bounds",
        config={"topology": {"name": "complete", "n": 50}, "delta": 0.1,
                "samples": 100},
        fields=LCPF_FIELDS, rows=10,
        digest="01d7240e366ec9316e14228b6e1167368f4dc1f40da4ddec5aa479f9168c5dd9",
        work_unit="samples", predicted_dominant="experiment_harness.self_s",
        gauge="dense"),
)}


def table_rows(text: str) -> list[dict]:
    """Rows of a table written by ``emit`` (no quoted cells), by column."""
    lines = text.splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_table(workload: Workload, text: str, pinned: bool) -> list[str]:
    """Problems found in one output table; an empty list means it passed."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    problems = []
    if tuple(header) != workload.fields:
        problems.append(f"header {header} != {list(workload.fields)}")
    if len(lines) - 1 != workload.rows:
        problems.append(f"{max(len(lines) - 1, 0)} rows, expected {workload.rows}")
    for index, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            problems.append(f"row {index} has {len(cells)} cells")
        bad = [cell for cell in cells if not _finite_or_flag(cell)]
        if bad:
            problems.append(f"row {index} has non-finite or non-numeric cells {bad}")
    if pinned and sha256(text) != workload.digest:
        problems.append(f"SHA-256 {sha256(text)} != pinned {workload.digest}")
    return problems


def _finite_or_flag(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return cell in ("", "true", "false")
