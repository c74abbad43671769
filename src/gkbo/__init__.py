"""Derivative-free multi-modal global optimization with interacting particles.

The main solver runs a leader-follower kinetic population: leaders drift
toward per-cluster softmax consensus points, followers track their nearest
leader under multiplicative noise, and leadership is re-negotiated every step
from rank-based weights. A clustered consensus baseline, multi-modal benchmark
objectives, and a Monte Carlo experiment harness round out the toolkit.
"""

from .bench import (
    CSV_HEADER,
    SUCCESS_THRESHOLD,
    ExperimentConfig,
    ExperimentSummary,
    SweepResult,
    evaluate_success,
    read_results,
    run_experiment,
    write_results,
)
from .ensemble import (
    Ensemble,
    apply_label_transitions,
    compute_weights,
    deterministic_label_pass,
    init_uniform,
)
from .errors import EmptyLeaderSetError, NumericError
from .objectives import (
    BASE_MINIMUM,
    PRESET_NAMES,
    Kind,
    ObjectiveSpec,
    evaluate_base,
    preset,
)
from .pcbo import PcboConfig, pcbo_assign, pcbo_step, run_pcbo
from .solver import (
    ClusterState,
    DiffusionMode,
    RunReport,
    SolverConfig,
    StallTracker,
    assign_clusters,
    check_stall,
    cluster_consensus,
    cluster_weights,
    interaction_step,
    run_gkbo,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_MINIMUM",
    "CSV_HEADER",
    "ClusterState",
    "DiffusionMode",
    "EmptyLeaderSetError",
    "Ensemble",
    "ExperimentConfig",
    "ExperimentSummary",
    "Kind",
    "NumericError",
    "ObjectiveSpec",
    "PRESET_NAMES",
    "PcboConfig",
    "RunReport",
    "SUCCESS_THRESHOLD",
    "SolverConfig",
    "StallTracker",
    "SweepResult",
    "apply_label_transitions",
    "assign_clusters",
    "check_stall",
    "cluster_consensus",
    "cluster_weights",
    "compute_weights",
    "deterministic_label_pass",
    "evaluate_base",
    "evaluate_success",
    "init_uniform",
    "interaction_step",
    "pcbo_assign",
    "pcbo_step",
    "preset",
    "read_results",
    "run_experiment",
    "run_gkbo",
    "run_pcbo",
    "write_results",
    "__version__",
]
