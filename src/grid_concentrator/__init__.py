"""Random admittance matrices for power networks: concentration bounds for
the operator norm, flat-start (linear coupled) power flow, power-flow
manifold error certificates, and the Monte Carlo / exhaustive experiments
that validate every bound at desk scale."""

from .graph_core import (
    Topology,
    complete_topology,
    degrees,
    incidence_matrix,
    is_connected,
    is_tree,
    max_degree,
    path_topology,
    sample_er_topology,
    sample_random_tree,
    star_topology,
    topology_from_json,
    unweighted_laplacian,
    weighted_laplacians,
)
from .spectra import intrinsic_dimension, operator_norm
from .admittance import (
    BoundedPerturbation,
    FixedBernoulli,
    FixedDeterministic,
    SphereUniform,
    UnitDisk,
    assemble_admittance,
    line_law_from_json,
)
from .bounds import (
    ContingencyModel,
    CriticalityProfile,
    bernstein_tail,
    contingency_factors,
    lcpf_expectation_bound,
    lcpf_tail_bound,
    lcpf_variance_envelope,
    thm1_expectation_bound,
    thm2_expectation_bound,
    thm2_tail_bound,
    variance_laplacian,
)
from .lcpf import (
    ImpedanceBlocks,
    flat_start_jacobian,
    invert_tree_lcpf,
    lcpf_solve,
)
from .manifold import (
    distance_bound,
    power_flow_derivative,
    power_flow_map,
    projection_distance,
    tangent_residual,
)
from .experiment_harness import (
    ConfigError,
    ExperimentConfig,
    RunResult,
    SampleStats,
    brute_force_distribution,
    emit,
    monte_carlo_distribution,
    run_experiment,
)

__version__ = "0.1.0"
