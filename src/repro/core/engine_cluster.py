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
   communicated (footnote to Line 2d).
B. each worker selects its home ``E[V^high]`` edges once and routes those
   whose endpoints share a simulation machine to that machine (1 round).
   The simulation machines store their induced subgraphs — if Lemma 4.1
   failed, this store would raise
   :class:`~repro.mpc.exceptions.MemoryLimitExceeded`.
C. simulation machines run the local iterations (compute-only) and their
   per-vertex freeze iterations are gathered to the coordinator (tree).
D. coordinator broadcasts the combined freeze iterations (tree).
E. workers finalize Line (2h) duals on their step-B selection and
   aggregate the dual loads ``y^MPC`` to the coordinator (tree).
F. coordinator applies the Line (2i) safety freeze and broadcasts the
   updated frozen mask (tree).
G. workers store finalized duals for the newly frozen edges of their
   step-B selection, then aggregate the stacked [frozen dual sums;
   nonfrozen degree counts] (``2n`` words, tree); the coordinator rebuilds
   the residual state.

Steps B, E and G share one selection per worker, kept on the Python side
like the step-A derivation (it is recomputable from home storage and the
broadcast state, so it is not charged as machine memory).

Floating-point discipline: every per-vertex dual reduction on a machine
runs over that machine's edges in ascending global edge id, which is the
same per-vertex accumulation order the vectorized engine uses — so the two
engines' freezing decisions coincide bit-for-bit (checked by the
engine-equivalence tests).  The only tree-order float sums are the
``y^MPC`` aggregates.  Their order can move a load that ties ``w'`` across
the Line (2i) ``≥ w'`` comparison, so the coordinator makes that
comparison on the kernel's edge-id-order sums
(:func:`~repro.core.phase_kernel.safety_check`) and audits the
aggregates against them.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core import accounting
from repro.core.params import MPCParameters
from repro.core.phase_kernel import (
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

#: Fields of a simulation machine's received subgraph (step B messages).
_SUBGRAPH_FIELDS = (("eids", np.int64), ("pu", np.int64), ("pv", np.int64), ("x0", np.float64))


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
            machine.store("home_u", self.graph.edges_u[mine])
            machine.store("home_v", self.graph.edges_v[mine])
            machine.store("home_x", np.zeros(mine.size, dtype=np.float64))

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

        # Workers derive the shared plan quantities (identical arithmetic on
        # identical floats => identical results on every machine).
        derived: Dict[int, dict] = {}
        for w in worker_ids:
            st = received[w]
            is_high, high_ids, pos, ratio = split_high(
                st["nonfrozen"].astype(bool), st["resid_degree"], st["wprime"], st["cutoff"]
            )
            derived[w] = {
                "is_high": is_high,
                "pos": pos,
                "assignment": random_assignment(
                    np.random.default_rng(st["partition_seed"]),
                    high_ids.size,
                    st["num_machines"],
                ),
                "ratio": ratio,
                "wprime_high": st["wprime"][high_ids],
                "high_ids": high_ids,
            }
        # Audit: worker derivation must equal the orchestrator's plan.
        w0 = derived[worker_ids[0]]
        if not np.array_equal(w0["high_ids"], plan.high_ids):
            raise AssertionError("cluster engine: derived V^high disagrees with plan")
        if not np.array_equal(w0["assignment"], plan.assignment):
            raise AssertionError("cluster engine: derived partition disagrees with plan")

        # -------------------------------------------------------------- #
        # Step B: each worker selects its home E[V^high] edges once (steps
        # E and G reuse the selection) and routes the local ones to their
        # simulation machines.
        # -------------------------------------------------------------- #
        selection: Dict[int, dict] = {}
        out: List[Message] = []
        for w in worker_ids:
            machine = self.cluster.machine(w)
            dv = derived[w]
            hu_g, hv_g = machine.load("home_u"), machine.load("home_v")
            sel, pu, pv, x0 = high_edges(hu_g, hv_g, dv["is_high"], dv["pos"], dv["ratio"])
            selection[w] = {"sel": sel, "pu": pu, "pv": pv, "x0": x0}
            e_sel = machine.load("home_eids")[sel]
            owner_u = dv["assignment"][pu]
            local = owner_u == dv["assignment"][pv]
            for s in np.unique(owner_u[local]):
                mask = local & (owner_u == s)
                payload = {"eids": e_sel[mask], "pu": pu[mask], "pv": pv[mask], "x0": x0[mask]}
                out.append(Message(w, 1 + int(s), "subgraph", payload))
        inboxes = self.cluster.exchange(out)

        # -------------------------------------------------------------- #
        # Local simulation on each simulation machine (compute only).
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

            dv = derived[cluster_id]
            mine = dv["assignment"] == s
            freeze_iter_mine, rows_y, rows_a = local_iterations(
                sub["pu"], sub["pv"], sub["x0"], mine, dv["wprime_high"], sampler,
                self.params, m_sim, I, trace=trace,
            )
            for full, part in zip(trace_rows_y + trace_rows_a, rows_y + rows_a):
                full[mine] = part[mine]
            my_pos = np.flatnonzero(mine)
            pairs = np.empty(2 * my_pos.size, dtype=np.int64)
            pairs[0::2] = my_pos
            pairs[1::2] = freeze_iter_mine[my_pos]
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
        if not np.allclose(y_mpc, y_direct, rtol=1e-9, atol=1e-12):
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
        # of their step-B selection; aggregate state updates.
        # -------------------------------------------------------------- #
        update_partials: Dict[int, np.ndarray] = {}
        for w in worker_ids:
            machine = self.cluster.machine(w)
            hu_g = machine.load("home_u")
            hv_g = machine.load("home_v")
            home_x = machine.load("home_x")
            fz_mask = mask_down[w].astype(bool)
            edge_frozen = fz_mask[hu_g] | fz_mask[hv_g]
            sw = selection[w]
            sel = sw["sel"]
            if sel.size:
                now_frozen = edge_frozen[sel] & (home_x[sel] == 0.0)
                home_x[sel[now_frozen]] = sw["x_high"][now_frozen]
                machine.store("home_x", home_x)
            stacked = np.zeros(2 * n, dtype=np.float64)
            stacked[:n] = endpoint_sums(hu_g, hv_g, home_x * edge_frozen, n)
            live = ~edge_frozen
            stacked[n:] = endpoint_sums(hu_g[live], hv_g[live], None, n)
            update_partials[w] = stacked
        updates = aggregate_sum(
            self.cluster, "updates", update_partials, root=0, fanout=fanouts["updates"]
        )
        coord = self.cluster.machine(0)
        new_wprime = np.maximum(self.weights - updates[:n], 0.0)
        new_resid = updates[n:].astype(np.int64)
        coord.store(
            "phase_state",
            {
                "wprime": new_wprime,
                "resid_degree": new_resid,
                "nonfrozen": (~frozen_mask_next).astype(np.int64),
            },
        )

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
        """Install the orchestrator's (coordinator's) state before a phase.

        The orchestrator owns the canonical state arrays; this mirrors them
        into machine 0's storage so phase broadcasts ship the real thing and
        the coordinator's memory is charged.
        """
        self.cluster.machine(0).store(
            "phase_state",
            {
                "wprime": np.asarray(wprime, dtype=np.float64),
                "resid_degree": np.asarray(resid_degree, dtype=np.int64),
                "nonfrozen": (~np.asarray(frozen, dtype=bool)).astype(np.int64),
            },
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
        parts: Dict[int, np.ndarray] = {}
        for w in worker_ids:
            machine = self.cluster.machine(w)
            hu_g = machine.load("home_u")
            hv_g = machine.load("home_v")
            eids = machine.load("home_eids")
            fz = received[w].astype(bool)
            live = ~(fz[hu_g] | fz[hv_g])
            triples = np.empty(3 * int(live.sum()), dtype=np.int64)
            triples[0::3] = eids[live]
            triples[1::3] = hu_g[live]
            triples[2::3] = hv_g[live]
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
