"""The paper's contribution: centralized primal–dual + MPC round compression."""

from repro.core.accounting import (
    PhaseCost,
    broadcast_round_count,
    cluster_width,
    fanin_round_count,
    fanout_for,
    final_phase_cost,
    phase_cost,
)
from repro.core.asymptotics import (
    AsymptoticPrediction,
    centralized_iteration_bound,
    paper_gamma,
    paper_phase_count_bound,
    paper_phase_recursion,
    predict,
)
from repro.core.centralized import CentralizedResult, run_centralized, termination_bound
from repro.core.certificates import (
    CoverCertificate,
    certify_cover,
    fractional_matching_violation,
)
from repro.core.initialization import (
    INIT_SCHEMES,
    degree_scaled_init,
    max_degree_scaled_init,
    uniform_init,
)
from repro.core.mpc_mwvc import VectorizedEngine, minimum_weight_vertex_cover
from repro.core.orientation import OrientationReport, orient_edges, orientation_report
from repro.core.params import MPCParameters
from repro.core.phase_kernel import (
    GlobalState,
    PhaseOutcome,
    PhasePlan,
    apply_outcome,
    plan_phase,
    simulate_phase_vectorized,
)
from repro.core.postprocess import prune_redundant_vertices
from repro.core.result import MWVCResult, PhaseRecord
from repro.core.thresholds import ThresholdSampler

__all__ = [
    "minimum_weight_vertex_cover",
    "MWVCResult",
    "PhaseRecord",
    "MPCParameters",
    "run_centralized",
    "CentralizedResult",
    "termination_bound",
    "ThresholdSampler",
    "INIT_SCHEMES",
    "degree_scaled_init",
    "uniform_init",
    "max_degree_scaled_init",
    "certify_cover",
    "CoverCertificate",
    "fractional_matching_violation",
    "GlobalState",
    "PhasePlan",
    "PhaseOutcome",
    "plan_phase",
    "simulate_phase_vectorized",
    "apply_outcome",
    "VectorizedEngine",
    "orientation_report",
    "orient_edges",
    "OrientationReport",
    "PhaseCost",
    "phase_cost",
    "final_phase_cost",
    "cluster_width",
    "fanout_for",
    "broadcast_round_count",
    "fanin_round_count",
    "prune_redundant_vertices",
    "predict",
    "AsymptoticPrediction",
    "paper_gamma",
    "paper_phase_recursion",
    "paper_phase_count_bound",
    "centralized_iteration_bound",
]
