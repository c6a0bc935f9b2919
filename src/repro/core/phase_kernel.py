"""One compressed phase of Algorithm 2: planning, simulation, state update.

The orchestrator (:mod:`repro.core.mpc_mwvc`) runs Algorithm 2 as a loop of
phases.  Each phase is split into three stages, and this module is the only
home of their arithmetic; the two execution engines differ only in how the
data reaches it:

1. :func:`plan_phase` — the coordinator-side computation of Lines (2a)–(2f):
   average degree, the ``V^high`` / ``V^inactive`` split, residual weights,
   initial duals, machine count, iteration count, and the random partition.
   Pure function of the global state and two integer seeds.  The per-vertex
   and per-edge parts (:func:`split_high`, :func:`high_edges`) are the ones
   the cluster engine's workers re-derive from the broadcast state.
2. ``simulate`` — Lines (2g)–(2i).  One loop, :func:`local_iterations`,
   runs the local iterations: :func:`simulate_phase_vectorized` calls it
   once over all local edges, and each simulation machine of
   :mod:`repro.core.engine_cluster` calls it on the edges it received,
   relabeled to the machine's own vertices.
   :func:`final_duals` is the Line (2h) finalization and
   :func:`safety_check` the Line (2i) decision for both.  Both engines
   produce bit-identical :class:`PhaseOutcome` for the same
   :class:`PhasePlan` (every floating-point reduction is per-vertex over
   that vertex's edges in global-edge-id order in both).
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
from typing import List, Optional, Tuple

import numpy as np

from repro.core.params import MPCParameters
from repro.core.thresholds import ThresholdSampler
from repro.graphs.graph import WeightedGraph
from repro.mpc.partition import random_assignment

__all__ = [
    "PhasePlan", "PhaseOutcome", "GlobalState", "plan_phase", "simulate_phase_vectorized",
    "apply_outcome", "split_high", "high_edges", "local_iterations", "final_duals",
    "safety_check", "endpoint_sums",
]

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

    Line (2j) finalizes every edge with a frozen endpoint, and frozen is
    forever, so the phases select and count over the live edges instead of
    all ``m``:

    * ``live_edges`` — the ascending ids of the nonfrozen edges,
      ``flatnonzero`` of :meth:`nonfrozen_edge_mask`;
    * ``live_u``, ``live_v`` — their endpoints, ``graph.edges_u[live_edges]``
      and ``graph.edges_v[live_edges]``.
    """

    frozen: np.ndarray
    x_final: np.ndarray
    resid_degree: np.ndarray
    wprime: np.ndarray
    live_edges: np.ndarray
    live_u: np.ndarray
    live_v: np.ndarray

    @classmethod
    def initial(cls, graph: WeightedGraph, weights: np.ndarray) -> "GlobalState":
        return cls(
            frozen=np.zeros(graph.n, dtype=bool),
            x_final=np.zeros(graph.m, dtype=np.float64),
            resid_degree=graph.degrees.astype(np.int64).copy(),
            wprime=weights.astype(np.float64).copy(),
            live_edges=np.arange(graph.m, dtype=np.int64),
            live_u=graph.edges_u,
            live_v=graph.edges_v,
        )

    def nonfrozen_edge_mask(self, graph: WeightedGraph) -> np.ndarray:
        fu, fv = graph.endpoint_values(self.frozen)
        return ~(fu | fv)

    def nonfrozen_edge_count(self, graph: WeightedGraph) -> int:
        return int(self.live_edges.size)

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


def endpoint_sums(
    pu: np.ndarray, pv: np.ndarray, x: Optional[np.ndarray], size: int
) -> np.ndarray:
    """Per-vertex sums of the edge values ``x`` (edge counts if ``None``)
    over the edges ``(pu, pv)`` — a vertex's edges in their array order."""
    return np.bincount(pu, weights=x, minlength=size) + np.bincount(
        pv, weights=x, minlength=size
    )


def split_high(
    nonfrozen: np.ndarray, resid_degree: np.ndarray, wprime: np.ndarray, cutoff: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lines (2a)–(2c) per vertex: ``(is_high, high_ids, pos, ratio)``.

    ``pos`` maps a vertex to its index in the ascending ``high_ids``
    (``-1`` outside ``V^high``); ``ratio`` is ``w'(v)/d(v)`` (``inf`` at
    degree 0), whose smaller endpoint value is an edge's initial dual.
    """
    is_high = nonfrozen & (resid_degree >= cutoff)
    high_ids = np.flatnonzero(is_high)
    pos = np.full(is_high.size, -1, dtype=np.int64)
    pos[high_ids] = np.arange(high_ids.size, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(resid_degree > 0, wprime / np.maximum(resid_degree, 1), np.inf)
    return is_high, high_ids, pos, ratio


def high_edges(
    eu: np.ndarray, ev: np.ndarray, is_high: np.ndarray, pos: np.ndarray, ratio: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Line (2c) per edge: the ascending indices ``sel`` of the edges
    ``(eu, ev)`` inside ``V^high``, their endpoints' ``V^high`` positions
    ``pu``/``pv`` and initial duals ``x0``.  ``x0`` uses *residual* degrees
    (Remark 4.2 — ``d(v)`` counts nonfrozen neighbors, not neighbors inside
    ``V^high``)."""
    sel = np.flatnonzero(is_high[eu] & is_high[ev])
    su, sv = eu[sel], ev[sel]
    return sel, pos[su], pos[sv], np.minimum(ratio[su], ratio[sv])


def local_iterations(
    lu: np.ndarray,
    lv: np.ndarray,
    x: np.ndarray,
    active: np.ndarray,
    wprime_high: np.ndarray,
    sampler: ThresholdSampler,
    params: MPCParameters,
    num_machines: int,
    iterations: int,
    *,
    trace: bool,
    rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, List[np.ndarray], List[np.ndarray]]:
    """Line (2g) over the local edges ``(lu, lv)`` with initial duals ``x``.

    At iteration ``t`` the estimator uses the *current* duals of **all**
    local edges (frozen edges contribute their frozen value), the
    ``active`` vertices freeze against threshold column ``t``, then the
    still-active edges grow by ``1/(1-ε)``.  The inputs are not modified.

    ``rows`` gives the ``V^high`` position of each vertex when the arrays
    are indexed by machine-local ids (``sampler`` rows are positions); by
    default vertex ``i`` is position ``i``.

    Returns ``(freeze_iter, trace_ytilde, trace_active)``: each vertex's
    freeze iteration (``iterations`` if it never froze) and, when tracing,
    each iteration's estimates and active mask.
    """
    growth = params.growth_factor()
    x = x.copy()
    active = active.copy()
    num_vertices = active.size
    freeze_iter = np.full(num_vertices, iterations, dtype=np.int64)
    trace_ytilde: List[np.ndarray] = []
    trace_active: List[np.ndarray] = []
    for t in range(iterations):
        sums = endpoint_sums(lu, lv, x, num_vertices)
        ytilde = params.bias(t, num_machines) * wprime_high + num_machines * sums
        if trace:
            trace_ytilde.append(ytilde)
            trace_active.append(active.copy())
        column = sampler.column(t) if rows is None else sampler.column(t)[rows]
        newly = active & (ytilde >= column * wprime_high)
        freeze_iter[newly] = t
        active &= ~newly
        x[np.flatnonzero(active[lu] & active[lv])] *= growth
    return freeze_iter, trace_ytilde, trace_active


def final_duals(
    x0: np.ndarray, freeze_iter: np.ndarray, pu: np.ndarray, pv: np.ndarray, growth: float
) -> np.ndarray:
    """Line (2h): ``x0 / (1-ε)^{t'}`` with ``t' = min(freeze_iter[u],
    freeze_iter[v])`` for the ``E[V^high]`` edges ``(pu, pv)``."""
    tprime = np.minimum(freeze_iter[pu], freeze_iter[pv])
    return x0 * growth ** tprime.astype(np.float64)


def safety_check(
    plan: PhasePlan, freeze_iter: np.ndarray, growth: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lines (2h)–(2i) from the combined freeze iterations:
    ``(x_high, y_mpc, safety_frozen)``.

    ``x_high`` is :func:`final_duals` on every ``E[V^high]`` edge, local or
    cross; ``y_mpc`` is each high vertex's dual load summed over its edges
    in edge-id order; ``safety_frozen`` marks the vertices that survived
    the simulation with ``y_mpc >= w'``.  Both engines decide Line (2i)
    here, so a load that ties its weight up to rounding (unit weights make
    such ties common) freezes in both engines or in neither.
    """
    x_high = final_duals(plan.x0, freeze_iter, plan.hu, plan.hv, growth)
    y_mpc = endpoint_sums(plan.hu, plan.hv, x_high, plan.num_high)
    safety_frozen = (freeze_iter == plan.iterations) & (y_mpc >= plan.wprime_high)
    return x_high, y_mpc, safety_frozen


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
    avg_degree = state.average_residual_degree(graph)
    cutoff = params.high_degree_cutoff(avg_degree)
    nonfrozen = ~state.frozen
    is_high, high_ids, pos, ratio = split_high(
        nonfrozen, state.resid_degree, state.wprime, cutoff
    )
    num_inactive = int(nonfrozen.sum()) - int(high_ids.size)

    m_machines = params.num_machines(avg_degree)
    if max_machines is not None:
        m_machines = max(1, min(m_machines, int(max_machines)))
    iterations = params.iterations_per_phase(avg_degree, m_machines)

    assignment = random_assignment(
        np.random.default_rng(partition_seed), high_ids.size, m_machines
    )
    # V^high vertices are nonfrozen, so E[V^high] lies inside the live edges.
    sel, hu, hv, x0 = high_edges(state.live_u, state.live_v, is_high, pos, ratio)
    edges_high = state.live_edges[sel]

    return PhasePlan(
        phase_index=phase_index,
        n=graph.n,
        avg_degree=avg_degree,
        cutoff=cutoff,
        high_ids=high_ids,
        num_inactive=num_inactive,
        num_machines=m_machines,
        iterations=iterations,
        partition_seed=int(partition_seed),
        threshold_seed=int(threshold_seed),
        assignment=assignment,
        wprime_high=state.wprime[high_ids],
        edges_high=edges_high,
        hu=hu,
        hv=hv,
        x0=x0,
    )


def simulate_phase_vectorized(
    plan: PhasePlan, params: MPCParameters, *, trace: bool = False
) -> PhaseOutcome:
    """Lines (2g)–(2i), all machines at once (see module docstring): one
    :func:`local_iterations` over every local edge with every ``V^high``
    vertex active."""
    n_high = plan.num_high
    I = plan.iterations
    au = plan.assignment[plan.hu]
    is_local = np.flatnonzero(au == plan.assignment[plan.hv])
    machine_edge_counts = np.bincount(au[is_local], minlength=plan.num_machines)

    freeze_iter, trace_ytilde, trace_active = local_iterations(
        plan.hu[is_local],
        plan.hv[is_local],
        plan.x0[is_local],
        np.ones(n_high, dtype=bool),
        plan.wprime_high,
        ThresholdSampler(plan.threshold_seed, n_high, params.eps),
        params,
        plan.num_machines,
        I,
        trace=trace,
    )

    # Lines (2h)–(2i): final duals, then the safety freeze against the
    # true (non-sampled) dual load.
    x_high, y_mpc, safety_frozen = safety_check(plan, freeze_iter, params.growth_factor())

    return PhaseOutcome(
        freeze_iter=freeze_iter,
        x_high=x_high,
        y_mpc=y_mpc,
        safety_frozen=safety_frozen,
        machine_edge_counts=machine_edge_counts,
        trace_ytilde=trace_ytilde,
        trace_active=trace_active,
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
      the next phase, done eagerly so the loop condition sees fresh state),
      the degrees over the live edges only (see :class:`GlobalState`);
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
        edge_frozen_now = np.flatnonzero(frozen_local[plan.hu] | frozen_local[plan.hv])
        state.x_final[plan.edges_high[edge_frozen_now]] = outcome.x_high[edge_frozen_now]

    # Depleted-weight guard (see docstring).
    wprime = weights - graph.incident_sums(state.x_final)
    depleted = (~state.frozen) & (wprime <= _DEPLETED_RTOL * weights)
    if depleted.any():
        state.frozen[depleted] = True
        # Their nonfrozen incident edges freeze at dual 0 — nothing to write.

    still = np.flatnonzero(~(state.frozen[state.live_u] | state.frozen[state.live_v]))
    state.live_edges = state.live_edges[still]
    state.live_u = state.live_u[still]
    state.live_v = state.live_v[still]
    state.resid_degree = endpoint_sums(state.live_u, state.live_v, None, graph.n)
    state.wprime = np.maximum(wprime, 0.0)

    if state.x_final[state.live_edges].any():
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
