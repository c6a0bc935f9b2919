"""Result types for the MPC MWVC algorithm."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.certificates import CoverCertificate
from repro.core.params import MPCParameters
from repro.core.phase_kernel import PhaseOutcome, PhasePlan
from repro.graphs.graph import WeightedGraph

__all__ = ["PhaseRecord", "MWVCResult"]


@dataclass(frozen=True)
class PhaseRecord:
    """Observables of one compressed phase (one row of experiments E1/E3/E4)."""

    phase_index: int
    avg_degree: float
    cutoff: float
    num_high: int
    num_inactive: int
    num_machines: int
    iterations: int
    num_edges_high: int
    num_local_edges: int
    max_machine_edges: int
    newly_frozen: int
    nonfrozen_edges_after: int
    avg_degree_after: float
    rounds: int

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class MWVCResult:
    """Solution + model costs + certificate for one MWVC run.

    Attributes
    ----------
    in_cover:
        Boolean vertex mask — the (2+O(ε))-approximate cover.
    x:
        Final edge duals (near-feasible fractional matching).
    cover_weight, dual_value:
        ``w(C)`` and ``Σ_e x_e``.
    certificate:
        Duality certificate (validity + certified approximation ratio).
    phases:
        Per-phase records (empty when the input was small enough to go
        straight to the final centralized phase).
    num_phases:
        Number of compressed phases executed.
    mpc_rounds:
        Total MPC rounds, including the final phase (measured on the
        cluster engine, predicted identically on the vectorized engine).
    final_iterations:
        Iterations of the concluding centralized run (Line 3).
    final_edges:
        Residual edge count handed to the final phase.
    engine:
        ``"vectorized"`` or ``"cluster"``.
    params:
        The parameter set used.
    stalled:
        True if the phase loop exited via the stall guard rather than the
        stop rule (never observed on the benchmark families; kept honest).
    traces:
        Optional per-phase ``(plan, outcome)`` pairs (``collect_trace=True``)
        feeding the coupling experiment E6 and the orientation diagnostics.
    cluster_metrics:
        Cluster-engine runs only: the measured communication summary
        (rounds, total words, per-round maxima, memory high-water).
    """

    in_cover: np.ndarray
    x: np.ndarray
    cover_weight: float
    dual_value: float
    certificate: CoverCertificate
    phases: List[PhaseRecord]
    num_phases: int
    mpc_rounds: int
    final_iterations: int
    final_edges: int
    engine: str
    params: MPCParameters
    stalled: bool = False
    traces: Optional[List[Tuple[PhasePlan, PhaseOutcome]]] = None
    cluster_metrics: Optional[dict] = None

    def cover_size(self) -> int:
        """Number of vertices in the cover."""
        return int(self.in_cover.sum())

    def verify(self, graph: WeightedGraph) -> bool:
        """Re-check cover validity against the graph."""
        return graph.is_vertex_cover(self.in_cover)

    def summary(self) -> dict:
        """Scalar summary for tables."""
        return {
            "cover_weight": self.cover_weight,
            "cover_size": self.cover_size(),
            "dual_value": self.dual_value,
            "certified_ratio": self.certificate.certified_ratio,
            "num_phases": self.num_phases,
            "mpc_rounds": self.mpc_rounds,
            "final_iterations": self.final_iterations,
            "final_edges": self.final_edges,
            "engine": self.engine,
            "stalled": self.stalled,
        }
