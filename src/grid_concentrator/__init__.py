"""Random admittance matrices for power networks: concentration bounds for
the operator norm, flat-start (linear coupled) power flow, power-flow
manifold error certificates, and the Monte Carlo / exhaustive experiments
that validate every bound at desk scale.

Each exported name is imported from its module on first use (PEP 562), so
``import grid_concentrator`` loads no NumPy and the CLI can pin its BLAS
threads before NumPy starts a pool."""

import importlib

__version__ = "0.1.0"

# The variables through which OpenBLAS and MKL take their thread count: the CLI pins
# them and the harness's fork gate reads them. Chunk workers pay only when each LAPACK
# call runs on one BLAS thread: in two processes on 2 CPUs, each BLAS pool's idle threads
# spin against the other's (a 300 x 300 complex SVD in each of two forked processes took
# 0.61 s, against 0.023 s alone).
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

# Exported name -> the module it is defined in.
_EXPORTS = {name: module for module, names in {
    "graph_core": ("Topology", "complete_topology", "degrees", "incidence_matrix",
                   "is_connected", "is_tree", "max_degree", "path_topology",
                   "sample_er_topology", "sample_random_tree", "star_topology",
                   "topology_from_json", "weighted_laplacians"),
    "spectra": ("intrinsic_dimension", "operator_norm"),
    "admittance": ("BoundedPerturbation", "FixedBernoulli", "FixedDeterministic",
                   "SphereUniform", "UnitDisk", "assemble_admittance", "line_law_from_json"),
    "bounds": ("ContingencyModel", "CriticalityProfile", "contingency_factors",
               "lcpf_expectation_bound", "lcpf_tail_bound", "thm1_expectation_bound",
               "thm2_expectation_bound", "thm2_tail_bound", "variance_laplacian"),
    "lcpf": ("ImpedanceBlocks", "flat_start_jacobian", "invert_tree_lcpf"),
    "manifold": ("distance_bound", "power_flow_derivative", "power_flow_map",
                 "projection_distance", "tangent_residual"),
    "experiment_harness": ("ConfigError", "ExperimentConfig", "RunResult", "SampleStats",
                           "brute_force_distribution", "emit", "monte_carlo_distribution",
                           "run_experiment"),
}.items() for name in names}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
