"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from grid_concentrator import bounds as bnd
from grid_concentrator import experiment_harness as eh
from grid_concentrator import graph_core as gc
from grid_concentrator import lcpf
from grid_concentrator import manifold as mf
from grid_concentrator.admittance import assemble_admittance, lift_blocks
from grid_concentrator.spectra import intrinsic_dimension, operator_norm


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _line_basis(topology):
    a = gc.incidence_matrix(topology)
    return np.stack([np.outer(row, row) for row in a])


def _random_connected_model(rng, n_max=8):
    n = int(rng.integers(3, n_max + 1))
    tree = gc.sample_random_tree(n, rng)
    extra = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                  if (i, j) not in tree.edges and rng.random() < 0.3)
    t = gc.Topology(n, tree.edges + extra)
    probs = rng.uniform(0.1, 0.9, t.n_edges)
    mags = rng.uniform(0.2, 1.0, t.n_edges)
    phases = rng.uniform(0, 2 * np.pi, t.n_edges)
    return bnd.ContingencyModel(t, probs, mags * np.exp(1j * phases))


def test_criterion_01_fig1_dominance_and_growth():
    # n=20 Erdos-Renyi sweep, 200 samples per point, |w| <= 1 disk law:
    # zero bound violations and Spearman rho > 0.95 between mean line count
    # and mean norm across sweep points; runtime < 30 s.
    start = time.perf_counter()
    cfg = eh.ExperimentConfig(experiment="fig1", n=20, samples=200, seed=20240)
    result = eh.run_fig1(cfg)
    elapsed = time.perf_counter() - start

    violations = sum(1 for rec in result.records if not rec["bound_ok"])
    by_p = {}
    for rec in result.records:
        by_p.setdefault(rec["p"], []).append(rec)
    mean_m = [np.mean([r["m"] for r in recs]) for recs in by_p.values()]
    mean_norm = [np.mean([r["norm"] for r in recs]) for recs in by_p.values()]
    rho = sps.spearmanr(mean_m, mean_norm).statistic

    ok = (violations == 0 and len(result.records) == 2000
          and rho > 0.95 and elapsed < 30.0)
    _report(1, ok, f"0 violations required (got {violations}) over "
                   f"{len(result.records)} records, Spearman rho = {rho:.4f}, "
                   f"{elapsed:.1f} s")


def test_criterion_02_thm2_exact_verification():
    # K3 and P4 at p = 0.5, |y| = 1: exhaustive enumeration; tail bound
    # dominates the exact tail at 20 valid grid points; exact expectation
    # under the explicit-chain bound (K3 chain value 16.3747). Runtime < 5 s.
    start = time.perf_counter()
    details = []
    ok = True
    for name, topology in (("K3", gc.complete_topology(3)),
                           ("P4", gc.path_topology(4))):
        m = topology.n_edges
        model = bnd.ContingencyModel(topology, np.full(m, 0.5),
                                     np.ones(m, dtype=complex))
        profile = bnd.contingency_factors(model)
        threshold = math.sqrt(2.0 * profile.max_criticality) + 2.0 / 3.0
        grid = np.linspace(threshold, threshold + 3.0, 20)
        stats_exact = eh.brute_force_distribution(model)
        for t, exact in zip(grid, stats_exact.tails(grid)):
            valid = t >= bnd.thm2_tail_threshold(profile)
            ok = ok and valid and bnd.thm2_tail_bound(float(t), profile) >= exact
        explicit = bnd.thm2_expectation_bound(profile)
        ok = ok and stats_exact.mean <= explicit
        details.append(f"{name}: E||Ytilde|| = {stats_exact.mean:.4f} <= "
                       f"{explicit:.4f}")
    k3_profile = bnd.contingency_factors(bnd.ContingencyModel(
        gc.complete_topology(3), np.full(3, 0.5), np.ones(3, dtype=complex)))
    ok = ok and bnd.thm2_expectation_bound(k3_profile) == \
        pytest.approx(16.374652116591715)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(2, ok, "; ".join(details) + f"; {elapsed:.2f} s")


def test_criterion_03_matrix_variance_identity():
    # Monte Carlo E[(Y-EY)(Y-EY)*] at 1e5 samples matches A^T diag(c) A
    # entrywise within 5x the per-entry standard error, on 5 random models
    # with n <= 8. Runtime < 60 s.
    start = time.perf_counter()
    rng = np.random.default_rng(31337)
    n_samples = 100_000
    chunk = 10_000
    ok = True
    worst = 0.0
    for _ in range(5):
        model = _random_connected_model(rng)
        basis = _line_basis(model.topology)
        n = model.topology.n_nodes
        acc = np.zeros((n, n), dtype=complex)
        acc_sq = np.zeros((n, n))
        for _ in range(n_samples // chunk):
            xi = (rng.random((chunk, model.topology.n_edges)) < model.probs)
            coeff = (xi.astype(float) - model.probs) * model.admittances
            ytilde = np.einsum("sl,lij->sij", coeff, basis)
            prods = ytilde @ np.conj(ytilde)
            acc += prods.sum(axis=0)
            acc_sq += (prods * prods.conj()).real.sum(axis=0)
        mean = acc / n_samples
        second = acc_sq / n_samples
        stderr = np.sqrt(np.clip(second - np.abs(mean) ** 2, 0.0, None) / n_samples)
        exact = bnd.variance_laplacian(model)
        deviation = np.abs(mean - exact)
        ok = ok and bool(np.all(deviation <= 5.0 * stderr + 1e-12))
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(stderr > 0, deviation / stderr, 0.0)
        worst = max(worst, float(np.max(ratio)))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(3, ok, f"5 models x {n_samples} samples, worst entrywise deviation "
                   f"= {worst:.2f} stderr (<= 5), {elapsed:.1f} s")


def test_criterion_04_variance_norm_sandwich():
    # Delta_c <= ||A^T C A|| <= 2 Delta_c and
    # sum(d_i)/(2 Delta_c) <= intdim <= n-1 on 100 random connected models.
    rng = np.random.default_rng(424242)
    failures = 0
    for _ in range(100):
        model = _random_connected_model(rng)
        profile = bnd.contingency_factors(model)
        v = bnd.variance_laplacian(model)
        norm = operator_norm(v)
        idim = intrinsic_dimension(v)
        lower_ok = profile.max_criticality <= norm + 1e-10
        upper_ok = norm <= 2.0 * profile.max_criticality + 1e-10
        idim_lower = profile.node_degrees.sum() / (2 * profile.max_criticality) \
            <= idim + 1e-10
        idim_upper = idim <= model.topology.n_nodes - 1 + 1e-10
        if not (lower_ok and upper_ok and idim_lower and idim_upper):
            failures += 1
    _report(4, failures == 0, f"{failures} failures in 100 random connected models")


def test_criterion_05_sphere_variance_envelope():
    # 1e5 sphere-law samples on P3: lambda_min((2/n) I_2 (x) A^T A - E[FF*])
    # >= -5 stderr, and the scalar variance statistic equals 2 exactly.
    # The per-line second moment the envelope assumes is E[g_l^2] = 1/(2n),
    # i.e. radius^2 = m/(2n) for the m-dimensional sphere (the envelope is
    # then tight, so only sampling noise is tolerated).
    topology = gc.path_topology(3)
    n, m = 3, 2
    laplacian = gc.weighted_laplacians(topology, np.ones(m))  # A^T A
    envelope = (2.0 / n) * np.kron(np.eye(2), laplacian)
    nu = (2.0 / n) * operator_norm(laplacian)
    nu_ok = abs(nu - 2.0) < 1e-9

    rng = np.random.default_rng(55555)
    n_samples = 100_000
    radius_sq = m / (2.0 * n)
    basis = _line_basis(topology)
    g_basis = np.stack([np.kron(np.array([[1.0, 0.0], [0.0, -1.0]]), e) for e in basis])
    b_basis = np.stack([np.kron(np.array([[0.0, -1.0], [-1.0, 0.0]]), e) for e in basis])

    def sphere_rows(count):
        z = rng.standard_normal((count, m))
        return z * (math.sqrt(radius_sq) / np.linalg.norm(z, axis=1, keepdims=True))

    acc = np.zeros((2 * n, 2 * n))
    acc_sq = np.zeros((2 * n, 2 * n))
    chunk = 10_000
    for _ in range(n_samples // chunk):
        g = sphere_rows(chunk)
        b = sphere_rows(chunk)
        f = np.einsum("sl,lij->sij", g, g_basis) + np.einsum("sl,lij->sij", b, b_basis)
        ffs = f @ f
        acc += ffs.sum(axis=0)
        acc_sq += (ffs * ffs).sum(axis=0)
    mean = acc / n_samples
    var = np.clip(acc_sq / n_samples - mean * mean, 0.0, None)
    stderr = float(np.sqrt(var.sum() / n_samples))
    lam_min = float(np.linalg.eigvalsh(envelope - mean)[0])
    ok = nu_ok and lam_min >= -5.0 * stderr
    _report(5, ok, f"nu = {nu:.12f} (= 2), lambda_min(envelope - mean) = "
                   f"{lam_min:.2e} >= -5 * {stderr:.2e}")


def test_criterion_06_lcpf_bounds():
    # P3 with delta = 0.1 and 1e4 bounded-perturbation samples: the mean
    # centered norm is below the expectation bound (1.0065 at n = 3) and the
    # empirical tail stays below 4x the tail bound on the default grid.
    cfg = eh.ExperimentConfig(experiment="lcpf_bounds", samples=10_000, seed=606,
                              topology=gc.path_topology(3), delta=0.1)
    result = eh.run_lcpf_experiment(cfg)
    first = result.records[0]
    bound_value_ok = first["expectation_bound"] == pytest.approx(1.0065341232727072)
    mean_ok = all(rec["mean_ok"] for rec in result.records)
    tail_ok = all(rec["tail_ok"] for rec in result.records)
    ok = bool(bound_value_ok and mean_ok and tail_ok and not result.failing_rows)
    _report(6, ok, f"mean ||F-EF|| = {first['mean_norm']:.4f} <= "
                   f"{first['expectation_bound']:.4f}; tails within 4x bound at "
                   f"{len(result.records)} grid points")


def test_criterion_07_tree_inversion():
    # 50 random trees, n <= 30, g in (0, 2], b in [-2, 0): Schur and
    # line-space paths agree to 1e-9, the block inverse reproduces the
    # identity to 1e-9, and R, X are positive definite.
    rng = np.random.default_rng(7007)
    failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 31))
        r = int(rng.integers(0, n))
        t = gc.sample_random_tree(n, rng)
        g = 2.0 * (1.0 - rng.random(t.n_edges))   # in (0, 2]
        b = -2.0 + 2.0 * rng.random(t.n_edges)    # in [-2, 0)
        lines = g + 1j * b
        jac = lcpf.flat_start_jacobian(t, lines, reference=r)
        blocks = lcpf.invert_tree_lcpf(t, lines, r)
        # independent line-space oracle
        a = np.delete(gc.incidence_matrix(t), r, axis=1)
        a_inv = np.linalg.inv(a)
        denom = g * g + b * b
        r_line = a_inv @ np.diag(g / denom) @ a_inv.T
        x_line = a_inv @ np.diag(-b / denom) @ a_inv.T
        agree = (np.max(np.abs(blocks.r_matrix - r_line)) <= 1e-9 *
                 max(1.0, np.max(np.abs(r_line)))
                 and np.max(np.abs(blocks.x_matrix - x_line)) <= 1e-9 *
                 max(1.0, np.max(np.abs(x_line))))
        identity = np.max(np.abs(jac @ blocks.matrix
                                 - np.eye(2 * (n - 1)))) <= 1e-9
        r_pd = np.linalg.eigvalsh((blocks.r_matrix + blocks.r_matrix.T) / 2)[0] > 0
        x_pd = np.linalg.eigvalsh((blocks.x_matrix + blocks.x_matrix.T) / 2)[0] > 0
        if not (agree and identity and r_pd and x_pd):
            failures += 1
    _report(7, failures == 0, f"{failures} failures in 50 random trees")


def test_criterion_08_manifold_identities():
    # 100 random (Y, u, h): closed-form residual equals the Taylor
    # subtraction to 1e-12; the Holder chain bounds the residual norm; and
    # scaling h by alpha scales the residual by alpha^2 to 1e-10 relative.
    rng = np.random.default_rng(808)
    failures = 0
    for _ in range(100):
        t = gc.sample_er_topology(int(rng.integers(2, 7)), 0.6, rng)
        w = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(t.n_edges)])
        y = assemble_admittance(t, w)
        n = t.n_nodes
        u = rng.uniform(0.9, 1.1, n) * np.exp(1j * rng.uniform(-0.3, 0.3, n))
        h = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        closed = mf.tangent_residual(y, u, h)
        direct = (mf.power_flow_map(y, u + h) - mf.power_flow_map(y, u)
                  - mf.power_flow_derivative(y, u, h))
        taylor_ok = np.max(np.abs(closed - direct)) <= 1e-12
        chain_ok = (np.linalg.norm(closed) <= np.max(np.abs(h))
                    * operator_norm(y) * np.linalg.norm(h) + 1e-12)
        scaling_ok = True
        for alpha in (2.0, 0.5):
            scaled = mf.tangent_residual(y, u, alpha * h)
            ref = alpha ** 2 * closed
            denom = max(np.max(np.abs(ref)), 1e-300)
            scaling_ok = scaling_ok and \
                float(np.max(np.abs(scaled - ref))) / denom <= 1e-10
        if not (taylor_ok and chain_ok and scaling_ok):
            failures += 1
    _report(8, failures == 0, f"{failures} failures in 100 random instances")


def test_criterion_09_norm_lift_and_kronecker_reconstruction():
    # 100 random complex-symmetric Laplacians: ||lift(Y)|| = ||Y|| to 1e-9;
    # the Kronecker sums rebuild the lift and the flat-start Jacobian to
    # 1e-12 entrywise.
    rng = np.random.default_rng(909)
    failures = 0
    for _ in range(100):
        t = gc.sample_er_topology(int(rng.integers(2, 8)), 0.6, rng)
        w = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(t.n_edges)])
        y = assemble_admittance(t, w)
        n = t.n_nodes
        lifted = lift_blocks(y.real, y.imag, +1.0)
        norm_ok = abs(operator_norm(lifted) - operator_norm(y)) <= 1e-9
        lift_sum = np.zeros((2 * n, 2 * n))
        jac_sum = np.zeros((2 * n, 2 * n))
        for wl, (i, j) in zip(w, t.edges):
            line = gc.weighted_laplacians(gc.Topology(n, ((i, j),)), np.ones(1))
            lift_sum += np.kron(lift_blocks(wl.real, wl.imag, +1.0), line)
            jac_sum += np.kron(lift_blocks(wl.real, wl.imag, -1.0), line)
        f = lcpf.flat_start_jacobian(t, w)
        recon_ok = (np.max(np.abs(lift_sum - lifted), initial=0.0) <= 1e-12
                    and np.max(np.abs(jac_sum - f), initial=0.0) <= 1e-12
                    and np.max(np.abs(lift_blocks(y.real, y.imag, -1.0) - f),
                               initial=0.0) <= 1e-12)
        if not (norm_ok and recon_ok):
            failures += 1
    _report(9, failures == 0, f"{failures} failures in 100 random Laplacians")


def test_criterion_10_determinism(tmp_path):
    # Two runs of every experiment with identical config and seed produce
    # byte-identical CSV files.
    configs = [
        eh.ExperimentConfig(experiment="fig1", n=8, samples=10,
                            p_grid=(0.2, 0.8), seed=10),
        eh.ExperimentConfig(experiment="thm2_tail", seed=10),
        eh.ExperimentConfig(experiment="thm2_expectation", backend="montecarlo",
                            samples=300, seed=10),
        eh.ExperimentConfig(experiment="lcpf_bounds", samples=300, seed=10,
                            topology=gc.path_topology(3)),
        eh.ExperimentConfig(experiment="manifold", samples=30, seed=10,
                            topology=gc.path_topology(3)),
        eh.ExperimentConfig(experiment="bruteforce", seed=10),
    ]
    mismatched = []
    for idx, cfg in enumerate(configs):
        paths = [tmp_path / f"{cfg.experiment}_{run}.csv" for run in (1, 2)]
        for path in paths:
            result = eh.run_experiment(cfg)
            eh.emit(result, "csv", path)
        if paths[0].read_bytes() != paths[1].read_bytes():
            mismatched.append(cfg.experiment)
    _report(10, not mismatched,
            f"byte-identical CSV for all {len(configs)} experiments"
            + (f"; mismatches: {mismatched}" if mismatched else ""))
