"""Cluster engine: Algorithm 2 executed with explicit MPC messages.

This engine runs every phase of the MWVC algorithm as a real protocol on a
:class:`repro.mpc.Cluster` — machine 0 is the coordinator, machines
``1..W`` are workers holding a static round-robin partition of the edges
("home" storage).  Capacities are enforced by the cluster, so a completed
run *is* a certificate that the algorithm respects the MPC model's memory
and communication limits (Lemma 4.1 becomes an enforced runtime invariant,
not just a measured statistic).

The per-phase arithmetic is :mod:`repro.core.phase_kernel`'s
(:func:`~repro.core.phase_kernel.split_high`,
:func:`~repro.core.phase_kernel.high_edges`,
:func:`~repro.core.phase_kernel.local_iterations`,
:func:`~repro.core.phase_kernel.final_duals`,
:func:`~repro.core.phase_kernel.safety_check`); this module supplies only
the data each machine holds and the messages between machines.

Protocol per phase (steps match :mod:`repro.core.accounting`):

A. coordinator broadcasts the phase state: residual weights, residual
   degrees, nonfrozen mask (``3n`` words) plus scalars (seeds, machine and
   iteration counts, cutoff).  Workers *derive* the ``V^high`` set, the
   random partition, the thresholds, and initial duals from this state —
   exactly the paper's observation that shared randomness need not be
   communicated (footnote to Line 2d).  Every worker receives the one
   payload object and the derivation is a pure function of it, so it is
   computed once per phase and stands for every worker's; it is audited
   against the orchestrator's plan.
B. each worker selects its home ``E[V^high]`` edges once, from its live
   home edges (``V^high`` vertices are nonfrozen), and routes those whose
   endpoints share a simulation machine to that machine (1 round), grouped
   by owner with one stable sort, each message in ascending edge id.  The
   simulation machines store their induced subgraphs — if Lemma 4.1
   failed, this store would raise
   :class:`~repro.mpc.exceptions.MemoryLimitExceeded` — and relabel them
   to machine-local vertex ids (Line 2e), so the local iterations run on
   arrays of the machine's own vertices only.
C. simulation machines run the local iterations (compute-only) and their
   per-vertex freeze iterations are gathered to the coordinator (tree).
D. coordinator broadcasts the combined freeze iterations (tree).
E. workers finalize Line (2h) duals on their step-B selection and
   aggregate the dual loads ``y^MPC`` to the coordinator (tree).
F. coordinator applies the Line (2i) safety freeze and broadcasts the
   updated frozen mask (tree).
G. workers store finalized duals for the newly frozen edges of their
   step-B selection, then aggregate the stacked [dual sums; live degree
   counts] (``2n`` words, tree): the dual sums run over all home edges
   (a live edge's dual is 0), the counts over the live home edges only.
   The coordinator rebuilds the residual state.

Steps B, E and G share one selection per worker, and each worker keeps the
ascending positions (and endpoints) of its live home edges from one step G
to the next; both live on the Python side like the step-A derivation (they
are recomputable from home storage and the broadcast state, so they are
not charged as machine memory).  The broadcast frozen mask, too, is one
object, converted once.

Step-G audit: the orchestrator (:mod:`repro.core.mpc_mwvc`) owns the
canonical state and installs it with :meth:`ClusterEngine.sync_state`
before every phase and once after the last.  That call first checks the
coordinator's rebuilt state against it — equal nonfrozen masks and
residual degrees, and ``w'`` on nonfrozen vertices within the step-F
tolerance — and raises an ``AssertionError`` naming the phase on a
mismatch.  The one allowed difference is the orchestrator's
depleted-weight guard, which runs after step G: a vertex it froze must be
depleted by step G's own ``w'``.

Floating-point discipline: every per-vertex dual reduction on a machine
runs over that machine's edges in ascending global edge id, which is the
same per-vertex accumulation order the vectorized engine uses — so the two
engines' freezing decisions coincide bit-for-bit (checked by the
engine-equivalence tests).  The only tree-order float sums are the
``y^MPC`` aggregates and step G's dual sums.  The order of the former can
move a load that ties ``w'`` across the Line (2i) ``≥ w'`` comparison, so
the coordinator makes that comparison on the kernel's edge-id-order sums
(:func:`~repro.core.phase_kernel.safety_check`) and audits the aggregates
against them; the latter are audited and then replaced by the
orchestrator's state.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core import accounting
from repro.core.params import MPCParameters
from repro.core.phase_kernel import (
    _DEPLETED_RTOL,
    PhaseOutcome,
    PhasePlan,
    endpoint_sums,
    final_duals,
    high_edges,
    local_iterations,
    safety_check,
    split_high,
)
from repro.core.thresholds import ThresholdSampler
from repro.graphs.graph import WeightedGraph
from repro.mpc.cluster import Cluster
from repro.mpc.message import Message
from repro.mpc.partition import random_assignment
from repro.mpc.primitives import aggregate_sum, broadcast, gather_concat

__all__ = ["ClusterEngine"]

#: ``allclose`` tolerances for tree-summed floats against the orchestrator's.
_RTOL, _ATOL = 1e-9, 1e-12

#: Fields of a simulation machine's received subgraph (step B messages).
_SUBGRAPH_FIELDS = (("eids", np.int64), ("pu", np.int64), ("pv", np.int64), ("x0", np.float64))


def _by_machine(owner: np.ndarray, num_machines: int) -> np.ndarray:
    """Stable argsort of machine ids: the ids are cast to the narrowest
    unsigned type that holds them, whose stable sort NumPy runs as a radix
    sort."""
    return np.argsort(owner.astype(np.min_scalar_type(num_machines - 1)), kind="stable")


class ClusterEngine:
    """Message-passing phase executor (see module docstring)."""

    name = "cluster"

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
        self.cluster = Cluster(self.num_workers + 1, capacity)
        # Per worker, the ascending positions of its home edges that were
        # live at its last step G (a superset of the live ones when the
        # orchestrator's depleted-weight guard froze more) and their
        # endpoints.  Like the step-A derivation they are recomputable from
        # home storage and the broadcasts, so they are not charged.
        self._live: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Phase whose step-G state the coordinator holds, not yet audited.
        self._audit_phase: int | None = None
        self._distribute_edges()
        # Coordinator persistently holds the O(n) vertex state.
        coord = self.cluster.machine(0)
        coord.store("weights", weights)

    # ------------------------------------------------------------------ #
    @property
    def rounds(self) -> int:
        return self.cluster.metrics.rounds

    def _distribute_edges(self) -> None:
        """Round-robin the input edges to worker home storage (uncharged:
        MPC inputs arrive already distributed)."""
        m = self.graph.m
        for w in range(1, self.num_workers + 1):
            mine = np.arange(w - 1, m, self.num_workers, dtype=np.int64)
            machine = self.cluster.machine(w)
            machine.store("home_eids", mine)
            hu, hv = self.graph.edges_u[mine], self.graph.edges_v[mine]
            machine.store("home_u", hu)
            machine.store("home_v", hv)
            machine.store("home_x", np.zeros(mine.size, dtype=np.float64))
            self._live[w] = (np.arange(mine.size, dtype=np.int64), hu, hv)

    # ------------------------------------------------------------------ #
    def run_phase(self, plan: PhasePlan, *, trace: bool = False) -> PhaseOutcome:
        n = self.graph.n
        n_high = plan.num_high
        I = plan.iterations
        m_sim = plan.num_machines
        growth = self.params.growth_factor()
        fanouts = accounting.phase_fanouts(n, n_high, self.capacity)
        worker_ids = list(range(1, self.num_workers + 1))

        # -------------------------------------------------------------- #
        # Step A: broadcast phase state; workers derive the plan.
        # The coordinator ships w', d(v), nonfrozen (3n words + scalars);
        # workers recompute V^high, positions, the partition, and x0 —
        # shared randomness travels as seeds, not arrays.
        # -------------------------------------------------------------- #
        coord_state = self.cluster.machine(0).load("phase_state")
        payload = {
            "wprime": coord_state["wprime"],
            "resid_degree": coord_state["resid_degree"],
            "nonfrozen": coord_state["nonfrozen"],
            "partition_seed": plan.partition_seed,
            "threshold_seed": plan.threshold_seed,
            "num_machines": m_sim,
            "iterations": I,
            "cutoff": plan.cutoff,
        }
        received = broadcast(
            self.cluster, 0, "state", payload, dst_ids=worker_ids, fanout=fanouts["state"]
        )

        # Every worker holds the one broadcast payload object, and the
        # derivation is a pure function of it: one derivation stands for
        # every worker's.
        st = received[worker_ids[0]]
        is_high, high_ids, pos, ratio = split_high(
            st["nonfrozen"].astype(bool), st["resid_degree"], st["wprime"], st["cutoff"]
        )
        assignment = random_assignment(
            np.random.default_rng(st["partition_seed"]), high_ids.size, st["num_machines"]
        )
        wprime_high = st["wprime"][high_ids]
        # Audit: worker derivation must equal the orchestrator's plan.
        if not np.array_equal(high_ids, plan.high_ids):
            raise AssertionError("cluster engine: derived V^high disagrees with plan")
        if not np.array_equal(assignment, plan.assignment):
            raise AssertionError("cluster engine: derived partition disagrees with plan")

        # -------------------------------------------------------------- #
        # Step B: each worker selects its home E[V^high] edges once from
        # its live home edges (V^high vertices are nonfrozen; steps E and
        # G reuse the selection) and routes the local ones, grouped by
        # owner with one stable sort, to their simulation machines.
        # -------------------------------------------------------------- #
        selection: Dict[int, dict] = {}
        out: List[Message] = []
        for w in worker_ids:
            machine = self.cluster.machine(w)
            live, lu, lv = self._live[w]
            in_live, pu, pv, x0 = high_edges(lu, lv, is_high, pos, ratio)
            sel = live[in_live]
            selection[w] = {"sel": sel, "in_live": in_live, "pu": pu, "pv": pv, "x0": x0}
            owner = assignment[pu]
            local = np.flatnonzero(owner == assignment[pv])
            routed = local[_by_machine(owner[local], m_sim)]
            columns = {
                "eids": machine.load("home_eids")[sel[routed]],
                "pu": pu[routed], "pv": pv[routed], "x0": x0[routed],
            }
            counts = np.bincount(owner[local], minlength=m_sim)
            ends = np.cumsum(counts)
            for s in np.flatnonzero(counts):
                part = {key: col[ends[s] - counts[s] : ends[s]] for key, col in columns.items()}
                out.append(Message(w, 1 + int(s), "subgraph", part))
        inboxes = self.cluster.exchange(out)

        # -------------------------------------------------------------- #
        # Local simulation on each simulation machine (compute only), on
        # its induced subgraph relabeled to machine-local vertex ids
        # (Line 2e): the arrays span the machine's own vertices only.
        # Threshold columns depend only on (seed, t): one sampler stands
        # for every machine's regeneration from the shared seed.
        # -------------------------------------------------------------- #
        sampler = ThresholdSampler(plan.threshold_seed, n_high, self.params.eps)
        freeze_parts: Dict[int, np.ndarray] = {}
        machine_edge_counts = np.zeros(m_sim, dtype=np.int64)
        trace_rows_y: List[np.ndarray] = [np.zeros(n_high) for _ in range(I)] if trace else []
        trace_rows_a: List[np.ndarray] = (
            [np.zeros(n_high, dtype=bool) for _ in range(I)] if trace else []
        )
        # Each machine's own V^high positions, ascending, and every
        # position's machine-local id.
        by_machine = _by_machine(assignment, m_sim)
        vertex_counts = np.bincount(assignment, minlength=m_sim)
        vertex_ends = np.cumsum(vertex_counts)
        vertex_starts = vertex_ends - vertex_counts
        local_id = np.empty(n_high, dtype=np.int64)
        local_id[by_machine] = np.arange(n_high) - np.repeat(vertex_starts, vertex_counts)
        for s in range(m_sim):
            cluster_id = 1 + s
            msgs = inboxes.get(cluster_id, [])
            sub = {
                key: np.concatenate([mm.payload[key] for mm in msgs] + [np.empty(0, dtype)])
                for key, dtype in _SUBGRAPH_FIELDS
            }
            order = np.argsort(sub["eids"], kind="stable")
            sub = {key: col[order] for key, col in sub.items()}
            machine = self.cluster.machine(cluster_id)
            machine.store("sim_subgraph", sub)
            machine_edge_counts[s] = order.size

            mine = by_machine[vertex_starts[s] : vertex_ends[s]]
            freeze_iter_mine, rows_y, rows_a = local_iterations(
                local_id[sub["pu"]], local_id[sub["pv"]],
                sub["x0"], np.ones(mine.size, dtype=bool), wprime_high[mine], sampler,
                self.params, m_sim, I, trace=trace, rows=mine,
            )
            for full, part in zip(trace_rows_y + trace_rows_a, rows_y + rows_a):
                full[mine] = part
            pairs = np.empty(2 * mine.size, dtype=np.int64)
            pairs[0::2] = mine
            pairs[1::2] = freeze_iter_mine
            freeze_parts[cluster_id] = pairs
            machine.free("sim_subgraph")

        # -------------------------------------------------------------- #
        # Step C: gather freeze iterations to coordinator.
        # -------------------------------------------------------------- #
        gathered = gather_concat(
            self.cluster, "freeze_up", freeze_parts, root=0, fanout=fanouts["freeze_up"]
        )
        freeze_iter = np.full(n_high, I, dtype=np.int64)
        if gathered.size:
            freeze_iter[gathered[0::2]] = gathered[1::2]

        # -------------------------------------------------------------- #
        # Step D: broadcast combined freeze iterations.
        # -------------------------------------------------------------- #
        freeze_down = broadcast(
            self.cluster,
            0,
            "freeze_down",
            freeze_iter,
            dst_ids=worker_ids,
            fanout=fanouts["freeze_down"],
        )

        # -------------------------------------------------------------- #
        # Step E: workers finalize Line (2h) duals on their step-B
        # selection; aggregate dual loads.
        # -------------------------------------------------------------- #
        load_partials: Dict[int, np.ndarray] = {}
        for w in worker_ids:
            sw = selection[w]
            pu, pv = sw["pu"], sw["pv"]
            x_high = final_duals(sw["x0"], freeze_down[w], pu, pv, growth)
            sw["x_high"] = x_high
            load_partials[w] = endpoint_sums(pu, pv, x_high, n_high)
        y_mpc = aggregate_sum(
            self.cluster, "loads", load_partials, root=0, fanout=fanouts["loads"]
        )

        # -------------------------------------------------------------- #
        # Step F: coordinator safety freeze; broadcast updated frozen mask.
        # The tree-summed loads differ from the kernel's edge-id-order sums
        # only in rounding (audited below); the comparison uses the latter,
        # read like the outcome's global x_high from the plan, so a load
        # that ties w' up to rounding is decided as the vectorized engine
        # decides it.  The messages and charges are the aggregate's.
        # -------------------------------------------------------------- #
        x_high_full, y_direct, safety_frozen = safety_check(plan, freeze_iter, growth)
        if not np.allclose(y_mpc, y_direct, rtol=_RTOL, atol=_ATOL):
            raise AssertionError("cluster engine: aggregated dual loads diverged from direct sums")
        frozen_local = (freeze_iter < I) | safety_frozen
        frozen_mask_next = ~coord_state["nonfrozen"].astype(bool)
        frozen_mask_next[plan.high_ids[frozen_local]] = True
        mask_down = broadcast(
            self.cluster,
            0,
            "frozen_mask",
            frozen_mask_next.astype(np.int64),
            dst_ids=worker_ids,
            fanout=fanouts["mask"],
        )

        # -------------------------------------------------------------- #
        # Step G: workers store finalized duals for the newly frozen edges
        # of their step-B selection, then sum their home duals (a live
        # edge's is 0) and count their live home edges.
        # -------------------------------------------------------------- #
        frozen = mask_down[worker_ids[0]].astype(bool)  # one object for all workers
        update_partials: Dict[int, np.ndarray] = {}
        for w in worker_ids:
            machine = self.cluster.machine(w)
            home_x = machine.load("home_x")
            sw = selection[w]
            live, lu, lv = self._live[w]
            edge_frozen = frozen[lu] | frozen[lv]
            if sw["sel"].size:
                # Selected edges were live, so their stored dual is still 0.
                now = np.flatnonzero(edge_frozen[sw["in_live"]])
                home_x[sw["sel"][now]] = sw["x_high"][now]
                machine.store("home_x", home_x)
            stacked = np.empty(2 * n, dtype=np.float64)
            stacked[:n] = endpoint_sums(machine.load("home_u"), machine.load("home_v"), home_x, n)
            still = np.flatnonzero(~edge_frozen)
            live, lu, lv = live[still], lu[still], lv[still]
            self._live[w] = (live, lu, lv)
            stacked[n:] = endpoint_sums(lu, lv, None, n)
            update_partials[w] = stacked
        updates = aggregate_sum(
            self.cluster, "updates", update_partials, root=0, fanout=fanouts["updates"]
        )
        self.cluster.machine(0).store(
            "phase_state",
            {
                "wprime": np.maximum(self.weights - updates[:n], 0.0),
                "resid_degree": updates[n:].astype(np.int64),
                "nonfrozen": (~frozen_mask_next).astype(np.int64),
            },
        )
        self._audit_phase = plan.phase_index

        return PhaseOutcome(
            freeze_iter=freeze_iter,
            x_high=x_high_full,
            y_mpc=y_direct,
            safety_frozen=safety_frozen,
            machine_edge_counts=machine_edge_counts,
            trace_ytilde=trace_rows_y,
            trace_active=trace_rows_a,
        )

    # ------------------------------------------------------------------ #
    def sync_state(self, wprime: np.ndarray, resid_degree: np.ndarray, frozen: np.ndarray) -> None:
        """Audit the last phase's step G, then install the orchestrator's
        (coordinator's) state before a phase.

        The orchestrator owns the canonical state arrays; this mirrors them
        into machine 0's storage so phase broadcasts ship the real thing and
        the coordinator's memory is charged.
        """
        nonfrozen = ~np.asarray(frozen, dtype=bool)
        if self._audit_phase is not None:
            self._audit_step_g(self._audit_phase, wprime, resid_degree, nonfrozen)
            self._audit_phase = None
        self.cluster.machine(0).store(
            "phase_state",
            {
                "wprime": np.asarray(wprime, dtype=np.float64),
                "resid_degree": np.asarray(resid_degree, dtype=np.int64),
                "nonfrozen": nonfrozen.astype(np.int64),
            },
        )

    def _audit_step_g(
        self, phase: int, wprime: np.ndarray, resid_degree: np.ndarray, nonfrozen: np.ndarray
    ) -> None:
        """Check the coordinator's step-G state against the orchestrator's.

        The nonfrozen masks and residual degrees must be equal and ``w'``
        must agree on nonfrozen vertices up to tree-sum rounding — except
        that the orchestrator's depleted-weight guard may freeze vertices
        after step G.  Such a vertex must be depleted by step G's own
        ``w'``; its edges then only lower the degrees the orchestrator
        counts, by at most the degrees step G gave those vertices.
        """
        got = self.cluster.machine(0).load("phase_state")
        got_nonfrozen = got["nonfrozen"].astype(bool)
        got_wprime, got_resid = got["wprime"], got["resid_degree"]
        resid_degree = np.asarray(resid_degree)
        late = got_nonfrozen & ~nonfrozen
        lowered = got_resid - resid_degree
        if late.any():
            degrees_agree = bool(
                (lowered >= 0).all() and lowered[~late].sum() <= got_resid[late].sum()
            )
        else:
            degrees_agree = np.array_equal(got_resid, resid_degree)
        if (nonfrozen & ~got_nonfrozen).any() or (
            got_wprime[late] > (_DEPLETED_RTOL + _RTOL) * self.weights[late]
        ).any():
            problem = "nonfrozen masks"
        elif not degrees_agree:
            problem = "residual degrees"
        elif not np.allclose(
            got_wprime[nonfrozen], np.asarray(wprime)[nonfrozen], rtol=_RTOL, atol=_ATOL
        ):
            problem = "residual weights"
        else:
            return
        raise AssertionError(
            f"cluster engine: phase {phase} step-G {problem} disagree with the orchestrator's"
        )

    def finalize(self, remaining_edges: int, frozen_mask: np.ndarray) -> None:
        """Broadcast the final frozen mask, gather the residual edges to the
        coordinator, and charge one compute round for the local solve."""
        n = self.graph.n
        worker_ids = list(range(1, self.num_workers + 1))
        mask_fanout = accounting.fanout_for(self.capacity, max(1, n))
        received = broadcast(
            self.cluster,
            0,
            "final_mask",
            np.asarray(frozen_mask, dtype=np.int64),
            dst_ids=worker_ids,
            fanout=mask_fanout,
        )
        fz = received[worker_ids[0]].astype(bool)  # one object for all workers
        parts: Dict[int, np.ndarray] = {}
        for w in worker_ids:
            live, lu, lv = self._live[w]
            still = np.flatnonzero(~(fz[lu] | fz[lv]))
            triples = np.empty(3 * still.size, dtype=np.int64)
            triples[0::3] = self.cluster.machine(w).load("home_eids")[live[still]]
            triples[1::3] = lu[still]
            triples[2::3] = lv[still]
            parts[w] = triples
        gather_fanout = accounting.fanout_for(self.capacity, 3 * max(1, remaining_edges))
        gathered = gather_concat(
            self.cluster, "final_edges", parts, root=0, fanout=gather_fanout
        )
        self.cluster.machine(0).store("final_subproblem", gathered)
        if gathered.size // 3 != remaining_edges:
            raise AssertionError(
                "cluster engine: gathered residual edge count "
                f"{gathered.size // 3} != expected {remaining_edges}"
            )
        self.cluster.local_round()
