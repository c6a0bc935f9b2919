"""Algorithm 2: MPC simulation for minimum weight vertex cover.

:func:`minimum_weight_vertex_cover` is the package's headline entry point.
It executes the phase loop of Algorithm 2 — plan (Lines 2a–2f), simulate
(2g–2i), fold back (2h–2k) — until the residual problem fits a single
machine, then finishes with the centralized Algorithm 1 (Line 3) and returns
the frozen vertices together with the dual certificate.

Two engines execute the phases:

* ``engine="vectorized"`` — NumPy whole-graph arrays; MPC round costs are
  *predicted* from :mod:`repro.core.accounting`.  This is the engine for
  experiments at scale.
* ``engine="cluster"`` — explicit message passing on a
  :class:`repro.mpc.Cluster` with capacity enforcement; round costs are
  *measured*.  This is the engine that proves the algorithm really is a
  valid MPC protocol; it matches the vectorized engine decision-for-decision
  (same seeds, same plans, same freezes).

Example
-------
>>> from repro.graphs import gnp_average_degree, uniform_weights
>>> g = gnp_average_degree(2000, 32.0, seed=1)
>>> g = g.with_weights(uniform_weights(g.n, seed=2))
>>> res = minimum_weight_vertex_cover(g, eps=0.1, seed=3)
>>> bool(res.verify(g))
True
>>> res.certificate.certified_ratio < 3.0
True
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core import accounting
from repro.core.centralized import run_centralized
from repro.core.certificates import certify_cover
from repro.core.params import MPCParameters
from repro.core.phase_kernel import (
    GlobalState,
    PhaseOutcome,
    PhasePlan,
    apply_outcome,
    plan_phase,
    simulate_phase_vectorized,
)
from repro.core.result import MWVCResult, PhaseRecord
from repro.graphs.graph import WeightedGraph
from repro.utils.rng import (
    PURPOSE_PARTITION,
    PURPOSE_THRESHOLDS,
    RngFactory,
    SeedLike,
)

__all__ = ["minimum_weight_vertex_cover", "VectorizedEngine"]

#: Phase-index offset for the final centralized phase's threshold stream
#: (keeps it disjoint from any compressed phase's stream).
_FINAL_PHASE_STREAM = 1_000_000


class VectorizedEngine:
    """Array-based phase executor with analytic round accounting."""

    name = "vectorized"

    def __init__(
        self,
        graph: WeightedGraph,
        weights: np.ndarray,
        params: MPCParameters,
        num_workers: int,
        capacity: int | None,
    ):
        self.graph = graph
        self.weights = weights
        self.params = params
        self.num_workers = int(num_workers)
        self.capacity = capacity
        self.rounds = 0

    def sync_state(self, wprime, resid_degree, frozen) -> None:
        """No distributed state to mirror in the vectorized engine."""

    def run_phase(self, plan: PhasePlan, *, trace: bool = False) -> PhaseOutcome:
        outcome = simulate_phase_vectorized(plan, self.params, trace=trace)
        self.rounds += accounting.phase_cost(
            n=self.graph.n,
            n_high=plan.num_high,
            num_workers=self.num_workers,
            num_sim_machines=plan.num_machines,
            capacity=self.capacity,
        ).total
        return outcome

    def finalize(self, remaining_edges: int, frozen_mask: np.ndarray) -> None:
        """Charge the final mask broadcast + gather + solve rounds."""
        self.rounds += accounting.final_phase_cost(
            num_workers=self.num_workers,
            remaining_edges=remaining_edges,
            n=self.graph.n,
            capacity=self.capacity,
        )


def _make_engine(
    engine: str,
    graph: WeightedGraph,
    weights: np.ndarray,
    params: MPCParameters,
    num_workers: int,
    capacity: int | None,
):
    if engine == "vectorized":
        return VectorizedEngine(graph, weights, params, num_workers, capacity)
    if engine == "cluster":
        from repro.core.engine_cluster import ClusterEngine

        return ClusterEngine(graph, weights, params, num_workers, capacity)
    raise ValueError(f"unknown engine {engine!r}; expected 'vectorized' or 'cluster'")


def minimum_weight_vertex_cover(
    graph: WeightedGraph,
    *,
    eps: float = 0.1,
    params: Optional[MPCParameters] = None,
    seed: SeedLike = None,
    engine: str = "vectorized",
    collect_trace: bool = False,
) -> MWVCResult:
    """Compute a (2+O(ε))-approximate minimum weight vertex cover in MPC.

    Parameters
    ----------
    graph:
        Input :class:`~repro.graphs.WeightedGraph` (weights strictly
        positive).
    eps:
        Accuracy parameter ε ∈ (0, 1/4); ignored if ``params`` is given.
    params:
        Full :class:`~repro.core.params.MPCParameters`; overrides ``eps``.
    seed:
        Root seed; runs with equal seeds (and either engine) make identical
        freezing decisions.
    engine:
        ``"vectorized"`` (default) or ``"cluster"`` (model-faithful message
        passing with capacity enforcement).
    collect_trace:
        Attach per-phase ``(plan, outcome)`` pairs, including per-iteration
        estimator traces, to the result (experiments E4/E6).

    Returns
    -------
    MWVCResult
        Cover, duals, certificate, per-phase records, and MPC round count.
    """
    if params is None:
        params = MPCParameters(eps=eps)
    n = graph.n
    weights = graph.weights
    state = GlobalState.initial(graph, weights)
    factory = RngFactory(seed)

    capacity = params.machine_capacity_words(n) if n else None
    initial_machines = params.num_machines(graph.average_degree)
    num_workers = accounting.cluster_width(
        n=n, m_edges=graph.m, initial_machines=initial_machines, capacity=capacity
    )
    eng = _make_engine(engine, graph, weights, params, num_workers, capacity)

    phases: List[PhaseRecord] = []
    traces: List[Tuple[PhasePlan, PhaseOutcome]] = []
    stall = 0
    stalled = False
    edges_before = state.nonfrozen_edge_count(graph)
    phase_index = 0

    while params.should_continue(
        n=n, nonfrozen_edges=edges_before, avg_degree=state.average_residual_degree(graph)
    ):
        if phase_index >= params.max_phases:
            stalled = True
            break
        partition_seed = int(
            factory.for_purpose(PURPOSE_PARTITION, phase_index).integers(2**63)
        )
        threshold_seed = int(
            factory.for_purpose(PURPOSE_THRESHOLDS, phase_index).integers(2**63)
        )
        plan = plan_phase(
            graph,
            state,
            params,
            phase_index=phase_index,
            partition_seed=partition_seed,
            threshold_seed=threshold_seed,
            max_machines=num_workers,
        )
        rounds_before = eng.rounds
        eng.sync_state(state.wprime, state.resid_degree, state.frozen)
        outcome = eng.run_phase(plan, trace=collect_trace)
        newly = apply_outcome(graph, weights, state, plan, outcome)
        edges_after = state.nonfrozen_edge_count(graph)
        phases.append(
            PhaseRecord(
                phase_index=phase_index,
                avg_degree=plan.avg_degree,
                cutoff=plan.cutoff,
                num_high=plan.num_high,
                num_inactive=plan.num_inactive,
                num_machines=plan.num_machines,
                iterations=plan.iterations,
                num_edges_high=plan.num_edges_high,
                num_local_edges=int(outcome.machine_edge_counts.sum()),
                max_machine_edges=int(outcome.machine_edge_counts.max(initial=0)),
                newly_frozen=newly,
                nonfrozen_edges_after=edges_after,
                avg_degree_after=state.average_residual_degree(graph),
                rounds=eng.rounds - rounds_before,
            )
        )
        if collect_trace:
            traces.append((plan, outcome))
        stall = stall + 1 if edges_after >= edges_before else 0
        edges_before = edges_after
        phase_index += 1
        if stall >= params.stall_phases:
            stalled = True
            break

    # The engine sees the state the phases left (the cluster engine audits
    # its last step G against it).
    eng.sync_state(state.wprime, state.resid_degree, state.frozen)

    # ------------------------------------------------------------------ #
    # Line 3: final centralized phase on the nonfrozen induced subgraph.
    # ------------------------------------------------------------------ #
    final_edges = edges_before
    final_iterations = 0
    nonfrozen_ids = np.nonzero(~state.frozen)[0]
    if final_edges > 0 and nonfrozen_ids.size:
        eng.finalize(final_edges, state.frozen)
        sub, vids, eids = graph.induced_subgraph(nonfrozen_ids)
        final_seed = int(
            factory.for_purpose(PURPOSE_THRESHOLDS, _FINAL_PHASE_STREAM).integers(2**63)
        )
        res = run_centralized(
            sub,
            eps=params.eps,
            weights=state.wprime[vids],
            init="degree_scaled",
            seed=final_seed,
        )
        state.frozen[vids[res.in_cover]] = True
        state.x_final[eids] = res.x
        final_iterations = res.iterations

    in_cover = state.frozen.copy()
    x = state.x_final.copy()
    cert = certify_cover(graph, in_cover, x, weights=weights)
    if not cert.is_cover:
        uncovered = graph.uncovered_edges(in_cover)
        raise AssertionError(
            f"algorithm returned a non-cover ({uncovered.size} uncovered edges) — internal bug"
        )

    cluster = getattr(eng, "cluster", None)
    return MWVCResult(
        in_cover=in_cover,
        x=x,
        cover_weight=cert.cover_weight,
        dual_value=cert.dual_value,
        certificate=cert,
        phases=phases,
        num_phases=len(phases),
        mpc_rounds=eng.rounds,
        final_iterations=final_iterations,
        final_edges=final_edges,
        engine=eng.name,
        params=params,
        stalled=stalled,
        traces=traces if collect_trace else None,
        cluster_metrics=cluster.metrics.summary() if cluster is not None else None,
    )
