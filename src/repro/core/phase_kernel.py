"""One compressed phase of Algorithm 2: planning, simulation, state update.

The orchestrator (:mod:`repro.core.mpc_mwvc`) runs Algorithm 2 as a loop of
phases.  Each phase is split into three stages so that the two execution
engines can share everything except the communication layer:

1. :func:`plan_phase` — the coordinator-side computation of Lines (2a)–(2f):
   average degree, the ``V^high`` / ``V^inactive`` split, residual weights,
   initial duals, machine count, iteration count, and the random partition.
   Pure function of the global state and two integer seeds; both engines
   call it identically.
2. ``simulate`` — Lines (2g)–(2i): the per-machine local simulation plus the
   edge-weight finalization and safety freeze.  The vectorized form lives
   here (:func:`simulate_phase_vectorized`); the message-passing form lives
   in :mod:`repro.core.engine_cluster`.  Both must produce bit-identical
   :class:`PhaseOutcome` for the same :class:`PhasePlan` (this holds because
   every floating-point reduction is per-vertex over that vertex's local
   edges in global-edge-id order in both engines).
3. :func:`apply_outcome` — Lines (2h aftermath)–(2k): fold the outcome into
   the global state (frozen flags, finalized duals, residual degrees and
   weights).

Vectorization note: the "for each machine in parallel" loop of Line (2g) is
computed as single whole-graph array operations.  This is sound because the
local simulation on machine ``i`` touches only edges with both endpoints on
machine ``i`` and only vertices assigned to machine ``i`` — the union over
machines is a disjoint union, so one masked pass over all local edges is the
same computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.params import MPCParameters
from repro.core.thresholds import ThresholdSampler
from repro.graphs.graph import WeightedGraph
from repro.mpc.partition import random_assignment

__all__ = ["PhasePlan", "PhaseOutcome", "GlobalState", "plan_phase", "simulate_phase_vectorized", "apply_outcome"]

#: Relative tolerance below which a residual weight counts as depleted.
_DEPLETED_RTOL = 1e-12


@dataclass
class GlobalState:
    """Mutable cross-phase state of Algorithm 2.

    Invariants (checked by :func:`apply_outcome` after every phase):

    * ``x_final[e] == 0`` for every nonfrozen edge — so residual weights are
      simply ``w - incident_sums(x_final)``;
    * ``wprime >= 0`` (up to float tolerance) for every nonfrozen vertex;
    * ``resid_degree[v]`` equals the number of nonfrozen edges at ``v``.
    """

    frozen: np.ndarray
    x_final: np.ndarray
    resid_degree: np.ndarray
    wprime: np.ndarray

    @classmethod
    def initial(cls, graph: WeightedGraph, weights: np.ndarray) -> "GlobalState":
        return cls(
            frozen=np.zeros(graph.n, dtype=bool),
            x_final=np.zeros(graph.m, dtype=np.float64),
            resid_degree=graph.degrees.astype(np.int64).copy(),
            wprime=weights.astype(np.float64).copy(),
        )

    def nonfrozen_edge_mask(self, graph: WeightedGraph) -> np.ndarray:
        fu, fv = graph.endpoint_values(self.frozen)
        return ~(fu | fv)

    def nonfrozen_edge_count(self, graph: WeightedGraph) -> int:
        return int(self.nonfrozen_edge_mask(graph).sum())

    def average_residual_degree(self, graph: WeightedGraph) -> float:
        """``d̄ = (1/n) Σ_{v nonfrozen} d(v)`` — denominator always ``n``
        (paper footnote 4)."""
        if graph.n == 0:
            return 0.0
        return float(self.resid_degree[~self.frozen].sum()) / graph.n


@dataclass
class PhasePlan:
    """Everything Lines (2a)–(2f) decide, frozen for the simulation stage."""

    phase_index: int
    n: int
    avg_degree: float
    cutoff: float
    high_ids: np.ndarray
    num_inactive: int
    num_machines: int
    iterations: int
    partition_seed: int
    threshold_seed: int
    assignment: np.ndarray
    wprime_high: np.ndarray
    edges_high: np.ndarray
    hu: np.ndarray
    hv: np.ndarray
    x0: np.ndarray

    @property
    def num_high(self) -> int:
        return int(self.high_ids.size)

    @property
    def num_edges_high(self) -> int:
        return int(self.edges_high.size)


@dataclass
class PhaseOutcome:
    """Results of Lines (2g)–(2i) for one phase.

    Attributes
    ----------
    freeze_iter:
        Per-``V^high``-vertex local freeze iteration in ``[0, I]``; ``I``
        means the vertex survived the local simulation.
    x_high:
        Line (2h) dual for every edge of ``E[V^high]``:
        ``x0 / (1-ε)^{t'}`` with ``t' = min(freeze_iter[u], freeze_iter[v])``.
    y_mpc:
        Line (2i) dual load ``Σ_{e∋v, e∈E[V^high]} x_high`` per high vertex.
    safety_frozen:
        High vertices frozen by the Line (2i) check
        (active after the simulation and ``y_mpc ≥ w'``).
    machine_edge_counts:
        ``|E[V_i]|`` per simulation machine — the Lemma 4.1 observable.
    trace_ytilde, trace_active:
        Per-iteration estimator values and active masks (coupling
        experiment E6); populated only when tracing.
    """

    freeze_iter: np.ndarray
    x_high: np.ndarray
    y_mpc: np.ndarray
    safety_frozen: np.ndarray
    machine_edge_counts: np.ndarray
    trace_ytilde: List[np.ndarray] = field(default_factory=list)
    trace_active: List[np.ndarray] = field(default_factory=list)

    def frozen_mask(self, iterations: int) -> np.ndarray:
        """High vertices frozen this phase (local sim or safety check)."""
        return (self.freeze_iter < iterations) | self.safety_frozen


def plan_phase(
    graph: WeightedGraph,
    state: GlobalState,
    params: MPCParameters,
    *,
    phase_index: int,
    partition_seed: int,
    threshold_seed: int,
    max_machines: Optional[int] = None,
) -> PhasePlan:
    """Lines (2a)–(2f): compute the phase plan from the global state.

    Deterministic given the two integer seeds; identical in both engines.
    """
    n = graph.n
    avg_degree = state.average_residual_degree(graph)
    cutoff = params.high_degree_cutoff(avg_degree)
    nonfrozen = ~state.frozen
    is_high = nonfrozen & (state.resid_degree >= cutoff)
    high_ids = np.nonzero(is_high)[0].astype(np.int64)
    num_inactive = int(nonfrozen.sum()) - int(high_ids.size)

    m_machines = params.num_machines(avg_degree)
    if max_machines is not None:
        m_machines = max(1, min(m_machines, int(max_machines)))
    iterations = params.iterations_per_phase(avg_degree, m_machines)

    assignment = random_assignment(
        np.random.default_rng(partition_seed), high_ids.size, m_machines
    )

    # Line (2c): initial duals on E[V^high] from residual weights and
    # *residual* degrees (Remark 4.2 — d(v) counts nonfrozen neighbors, not
    # neighbors inside V^high).
    eu, ev = graph.edges_u, graph.edges_v
    ehigh_mask = is_high[eu] & is_high[ev]
    edges_high = np.nonzero(ehigh_mask)[0].astype(np.int64)
    pos = np.full(n, -1, dtype=np.int64)
    pos[high_ids] = np.arange(high_ids.size, dtype=np.int64)
    hu = pos[eu[edges_high]]
    hv = pos[ev[edges_high]]

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            state.resid_degree > 0, state.wprime / np.maximum(state.resid_degree, 1), np.inf
        )
    x0 = np.minimum(ratio[eu[edges_high]], ratio[ev[edges_high]])

    return PhasePlan(
        phase_index=phase_index,
        n=n,
        avg_degree=avg_degree,
        cutoff=cutoff,
        high_ids=high_ids,
        num_inactive=num_inactive,
        num_machines=m_machines,
        iterations=iterations,
        partition_seed=int(partition_seed),
        threshold_seed=int(threshold_seed),
        assignment=assignment,
        wprime_high=state.wprime[high_ids].copy(),
        edges_high=edges_high,
        hu=hu,
        hv=hv,
        x0=x0,
    )


def simulate_phase_vectorized(
    plan: PhasePlan, params: MPCParameters, *, trace: bool = False
) -> PhaseOutcome:
    """Lines (2g)–(2i), all machines at once (see module docstring).

    The per-iteration loop matches Algorithm 2 Line (2g) exactly:
    at iteration ``t`` the estimator uses the *current* duals
    ``x^MPC_{e,t}`` of **all** local edges (frozen edges contribute their
    frozen value), freezing happens against threshold column ``t``, then
    still-active local edges grow by ``1/(1-ε)``.
    """
    n_high = plan.num_high
    I = plan.iterations
    m = plan.num_machines
    growth = params.growth_factor()

    au = plan.assignment[plan.hu] if plan.num_edges_high else np.empty(0, np.int64)
    av = plan.assignment[plan.hv] if plan.num_edges_high else np.empty(0, np.int64)
    is_local = au == av
    lu = plan.hu[is_local]
    lv = plan.hv[is_local]
    x_loc = plan.x0[is_local].copy()
    owner = au[is_local]
    machine_edge_counts = np.bincount(owner, minlength=m).astype(np.int64)

    sampler = ThresholdSampler(plan.threshold_seed, n_high, params.eps)
    freeze_iter = np.full(n_high, I, dtype=np.int64)
    active_v = np.ones(n_high, dtype=bool)
    outcome_trace_y: List[np.ndarray] = []
    outcome_trace_active: List[np.ndarray] = []

    for t in range(I):
        sums = np.bincount(lu, weights=x_loc, minlength=n_high) + np.bincount(
            lv, weights=x_loc, minlength=n_high
        )
        ytilde = params.bias(t, m) * plan.wprime_high + m * sums
        if trace:
            outcome_trace_y.append(ytilde)
            outcome_trace_active.append(active_v.copy())
        thresholds = sampler.column(t)
        newly = active_v & (ytilde >= thresholds * plan.wprime_high)
        freeze_iter[newly] = t
        active_v &= ~newly
        active_e = active_v[lu] & active_v[lv]
        x_loc[active_e] *= growth

    # Line (2h): finalize duals for every E[V^high] edge, local or cross.
    tprime = (
        np.minimum(freeze_iter[plan.hu], freeze_iter[plan.hv])
        if plan.num_edges_high
        else np.empty(0, np.int64)
    )
    x_high = plan.x0 * growth ** tprime.astype(np.float64)

    # Line (2i): safety freeze against the true (non-sampled) dual load.
    y_mpc = np.bincount(plan.hu, weights=x_high, minlength=n_high) + np.bincount(
        plan.hv, weights=x_high, minlength=n_high
    )
    safety_frozen = active_v & (y_mpc >= plan.wprime_high)

    return PhaseOutcome(
        freeze_iter=freeze_iter,
        x_high=x_high,
        y_mpc=y_mpc,
        safety_frozen=safety_frozen,
        machine_edge_counts=machine_edge_counts,
        trace_ytilde=outcome_trace_y,
        trace_active=outcome_trace_active,
    )


def apply_outcome(
    graph: WeightedGraph,
    weights: np.ndarray,
    state: GlobalState,
    plan: PhasePlan,
    outcome: PhaseOutcome,
) -> int:
    """Fold a phase outcome into the global state (Lines 2h-finalize .. 2k).

    Returns the number of vertices newly frozen this phase.

    Steps:

    * freeze the high vertices the outcome marked (local sim + safety);
    * finalize ``x_final`` for the now-frozen ``E[V^high]`` edges at their
      Line (2h) value;
    * edges of ``E[V^inactive; V^high]`` frozen by this phase keep
      ``x_final = 0`` (Line 2j) — already the array default;
    * recompute residual degrees (Line 2k) and residual weights (Line 2b of
      the next phase, done eagerly so the loop condition sees fresh state);
    * depleted-weight guard: any nonfrozen vertex whose residual weight has
      been driven to (numerical) zero is frozen defensively — its dual
      constraint is tight, so including it is exactly what Algorithm 1 would
      eventually do, and it removes zero-initial-dual edges that would stall
      the final centralized phase.
    """
    frozen_local = outcome.frozen_mask(plan.iterations)
    newly = plan.high_ids[frozen_local]
    state.frozen[newly] = True

    if plan.num_edges_high:
        edge_frozen_now = frozen_local[plan.hu] | frozen_local[plan.hv]
        ids = plan.edges_high[edge_frozen_now]
        state.x_final[ids] = outcome.x_high[edge_frozen_now]

    # Depleted-weight guard (see docstring).
    loads = graph.incident_sums(state.x_final)
    wprime = weights - loads
    depleted = (~state.frozen) & (wprime <= _DEPLETED_RTOL * weights)
    if depleted.any():
        state.frozen[depleted] = True
        # Their nonfrozen incident edges freeze at dual 0 — nothing to write.

    edge_nonfrozen = state.nonfrozen_edge_mask(graph)
    state.resid_degree = graph.incident_counts(edge_nonfrozen)
    state.wprime = np.maximum(wprime, 0.0)

    nz = state.x_final[edge_nonfrozen]
    if nz.size and float(np.abs(nz).max()) != 0.0:
        raise AssertionError("invariant violated: nonfrozen edge has nonzero final dual")
    # Frozen vertices may legitimately carry loads up to (1+6ε)·w
    # (Theorem 4.7); only *nonfrozen* vertices must keep w' >= 0.
    bad = (~state.frozen) & (wprime < -1e-9 * np.maximum(weights, 1.0))
    if bool(bad.any()):
        worst = float(wprime[~state.frozen].min())
        raise AssertionError(
            f"invariant violated: residual weight went negative ({worst:.3e}); "
            "the Line (2i) safety freeze should prevent this"
        )

    return int(frozen_local.sum()) + int(depleted.sum())
