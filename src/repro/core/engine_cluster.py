"""Cluster engine: Algorithm 2 executed with explicit MPC messages.

This engine runs every phase of the MWVC algorithm as a real protocol on a
:class:`repro.mpc.Cluster` — machine 0 is the coordinator, machines
``1..W`` are workers holding a static round-robin partition of the edges
("home" storage).  Capacities are enforced by the cluster, so a completed
run *is* a certificate that the algorithm respects the MPC model's memory
and communication limits (Lemma 4.1 becomes an enforced runtime invariant,
not just a measured statistic).

Protocol per phase (steps match :mod:`repro.core.accounting`):

A. coordinator broadcasts the phase state: residual weights, residual
   degrees, nonfrozen mask (``3n`` words) plus scalars (seeds, machine and
   iteration counts, cutoff).  Workers *derive* the ``V^high`` set, the
   random partition, the thresholds, and initial duals from this state —
   exactly the paper's observation that shared randomness need not be
   communicated (footnote to Line 2d).
B. each worker routes each home edge of ``E[V^high]`` whose endpoints share
   a simulation machine to that machine (1 round).  The simulation machines
   store their induced subgraphs — if Lemma 4.1 failed, this store would
   raise :class:`~repro.mpc.exceptions.MemoryLimitExceeded`.
C. simulation machines run the local iterations (compute-only) and their
   per-vertex freeze iterations are gathered to the coordinator (tree).
D. coordinator broadcasts the combined freeze iterations (tree).
E. workers finalize Line (2h) duals for home ``E[V^high]`` edges and
   aggregate the dual loads ``y^MPC`` to the coordinator (tree).
F. coordinator applies the Line (2i) safety freeze and broadcasts the
   updated frozen mask (tree).
G. workers store finalized duals for newly frozen home edges, then
   aggregate the stacked [frozen dual sums; nonfrozen degree counts]
   (``2n`` words, tree); the coordinator rebuilds the residual state.

Floating-point discipline: every per-vertex dual reduction on a machine
runs over that machine's edges in ascending global edge id, which is the
same per-vertex accumulation order the vectorized engine uses — so the two
engines' freezing decisions coincide bit-for-bit (checked by the
engine-equivalence tests).  The only tree-order float sums are the
``y^MPC`` aggregates, which feed a single ``≥ w'`` comparison; the audit
checks in this module verify agreement against the directly assembled
values.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core import accounting
from repro.core.params import MPCParameters
from repro.core.phase_kernel import PhaseOutcome, PhasePlan
from repro.core.thresholds import ThresholdSampler
from repro.graphs.graph import WeightedGraph
from repro.mpc.cluster import Cluster
from repro.mpc.message import Message
from repro.mpc.primitives import aggregate_sum, broadcast, gather_concat

__all__ = ["ClusterEngine"]


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
        *,
        kill_schedule=None,
    ):
        self.graph = graph
        self.weights = weights
        self.params = params
        self.num_workers = int(num_workers)
        self.capacity = capacity
        self.cluster = Cluster(self.num_workers + 1, capacity, kill_schedule=kill_schedule)
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
        eids = np.arange(m, dtype=np.int64)
        for w in range(1, self.num_workers + 1):
            mine = eids[eids % self.num_workers == (w - 1)]
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
        fanouts = accounting.phase_fanouts(n, n_high, m_sim, self.capacity)
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
            is_high = st["nonfrozen"].astype(bool) & (st["resid_degree"] >= st["cutoff"])
            high_ids = np.nonzero(is_high)[0].astype(np.int64)
            pos = np.full(n, -1, dtype=np.int64)
            pos[high_ids] = np.arange(high_ids.size, dtype=np.int64)
            assignment = np.random.default_rng(st["partition_seed"]).integers(
                0, st["num_machines"], size=high_ids.size, dtype=np.int64
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(
                    st["resid_degree"] > 0,
                    st["wprime"] / np.maximum(st["resid_degree"], 1),
                    np.inf,
                )
            derived[w] = {
                "is_high": is_high,
                "pos": pos,
                "assignment": assignment,
                "ratio": ratio,
                "wprime": st["wprime"],
                "high_ids": high_ids,
            }
        # Audit: worker derivation must equal the orchestrator's plan.
        w0 = derived[worker_ids[0]]
        if not np.array_equal(w0["high_ids"], plan.high_ids):
            raise AssertionError("cluster engine: derived V^high disagrees with plan")
        if not np.array_equal(w0["assignment"], plan.assignment):
            raise AssertionError("cluster engine: derived partition disagrees with plan")

        # -------------------------------------------------------------- #
        # Step B: route local E[V^high] edges to simulation machines.
        # -------------------------------------------------------------- #
        out: List[Message] = []
        for w in worker_ids:
            machine = self.cluster.machine(w)
            hu_g = machine.load("home_u")
            hv_g = machine.load("home_v")
            eids = machine.load("home_eids")
            dv = derived[w]
            both_high = dv["is_high"][hu_g] & dv["is_high"][hv_g]
            pu = dv["pos"][hu_g[both_high]]
            pv = dv["pos"][hv_g[both_high]]
            e_sel = eids[both_high]
            owner_u = dv["assignment"][pu]
            owner_v = dv["assignment"][pv]
            local = owner_u == owner_v
            x0_sel = np.minimum(dv["ratio"][hu_g[both_high]], dv["ratio"][hv_g[both_high]])
            for s in np.unique(owner_u[local]):
                sel = local & (owner_u == s)
                out.append(
                    Message(
                        w,
                        1 + int(s),
                        "subgraph",
                        {
                            "eids": e_sel[sel],
                            "pu": pu[sel],
                            "pv": pv[sel],
                            "x0": x0_sel[sel],
                        },
                    )
                )
        inboxes = self.cluster.exchange(out)

        # -------------------------------------------------------------- #
        # Local simulation on each simulation machine (compute only).
        # -------------------------------------------------------------- #
        freeze_parts: Dict[int, np.ndarray] = {}
        machine_edge_counts = np.zeros(m_sim, dtype=np.int64)
        trace_rows_y: List[np.ndarray] = [np.zeros(n_high) for _ in range(I)] if trace else []
        trace_rows_a: List[np.ndarray] = (
            [np.zeros(n_high, dtype=bool) for _ in range(I)] if trace else []
        )
        for s in range(m_sim):
            cluster_id = 1 + s
            msgs = inboxes.get(cluster_id, [])
            if msgs:
                eids = np.concatenate([mm.payload["eids"] for mm in msgs])
                pu = np.concatenate([mm.payload["pu"] for mm in msgs])
                pv = np.concatenate([mm.payload["pv"] for mm in msgs])
                x0 = np.concatenate([mm.payload["x0"] for mm in msgs])
                order = np.argsort(eids, kind="stable")
                eids, pu, pv, x0 = eids[order], pu[order], pv[order], x0[order]
            else:
                eids = np.empty(0, np.int64)
                pu = pv = np.empty(0, np.int64)
                x0 = np.empty(0, np.float64)
            machine = self.cluster.machine(cluster_id)
            machine.store("sim_subgraph", {"eids": eids, "pu": pu, "pv": pv, "x0": x0})
            machine_edge_counts[s] = eids.size

            dv = derived[cluster_id]
            mine = dv["assignment"] == s
            wprime_high = dv["wprime"][dv["high_ids"]]
            sampler = ThresholdSampler(plan.threshold_seed, n_high, self.params.eps)
            x_loc = x0.copy()
            active = mine.copy()
            freeze_iter_mine = np.full(n_high, I, dtype=np.int64)
            for t in range(I):
                sums = np.bincount(pu, weights=x_loc, minlength=n_high) + np.bincount(
                    pv, weights=x_loc, minlength=n_high
                )
                ytilde = self.params.bias(t, m_sim) * wprime_high + m_sim * sums
                if trace:
                    trace_rows_y[t][mine] = ytilde[mine]
                    trace_rows_a[t][mine] = active[mine]
                thresholds = sampler.column(t)
                newly = active & (ytilde >= thresholds * wprime_high)
                freeze_iter_mine[newly] = t
                active &= ~newly
                active_e = active[pu] & active[pv]
                x_loc[active_e] *= growth
            my_pos = np.nonzero(mine)[0].astype(np.int64)
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
        # Step E: workers finalize Line (2h) duals; aggregate dual loads.
        # -------------------------------------------------------------- #
        x_high_full = np.zeros(plan.num_edges_high, dtype=np.float64)
        load_partials: Dict[int, np.ndarray] = {}
        worker_ehigh: Dict[int, dict] = {}
        for w in worker_ids:
            machine = self.cluster.machine(w)
            hu_g = machine.load("home_u")
            hv_g = machine.load("home_v")
            eids = machine.load("home_eids")
            dv = derived[w]
            fz = freeze_down[w]
            both_high = dv["is_high"][hu_g] & dv["is_high"][hv_g]
            pu = dv["pos"][hu_g[both_high]]
            pv = dv["pos"][hv_g[both_high]]
            e_sel = eids[both_high]
            x0_sel = np.minimum(dv["ratio"][hu_g[both_high]], dv["ratio"][hv_g[both_high]])
            order = np.argsort(e_sel, kind="stable")
            pu, pv, e_sel, x0_sel = pu[order], pv[order], e_sel[order], x0_sel[order]
            tprime = np.minimum(fz[pu], fz[pv]) if e_sel.size else np.empty(0, np.int64)
            x_high = x0_sel * growth ** tprime.astype(np.float64)
            load = np.bincount(pu, weights=x_high, minlength=n_high) + np.bincount(
                pv, weights=x_high, minlength=n_high
            )
            load_partials[w] = load
            worker_ehigh[w] = {"eids": e_sel, "pu": pu, "pv": pv, "x_high": x_high}
            # Out-of-band assembly of the global x_high (observational; the
            # in-model data stays distributed on the workers).
            if e_sel.size:
                positions = np.searchsorted(plan.edges_high, e_sel)
                x_high_full[positions] = x_high
        y_mpc = aggregate_sum(
            self.cluster, "loads", load_partials, root=0, fanout=fanouts["loads"]
        )

        # Audit: tree-summed loads must agree with a direct summation.
        direct = np.bincount(plan.hu, weights=x_high_full, minlength=n_high) + np.bincount(
            plan.hv, weights=x_high_full, minlength=n_high
        )
        if not np.allclose(y_mpc, direct, rtol=1e-9, atol=1e-12):
            raise AssertionError("cluster engine: aggregated dual loads diverged from direct sums")

        # -------------------------------------------------------------- #
        # Step F: coordinator safety freeze; broadcast updated frozen mask.
        # -------------------------------------------------------------- #
        coord_state = self.cluster.machine(0).load("phase_state")
        wprime_high = coord_state["wprime"][plan.high_ids]
        active_after = freeze_iter == I
        safety_frozen = active_after & (y_mpc >= wprime_high)
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
        # Step G: workers store finalized duals; aggregate state updates.
        # -------------------------------------------------------------- #
        update_partials: Dict[int, np.ndarray] = {}
        for w in worker_ids:
            machine = self.cluster.machine(w)
            hu_g = machine.load("home_u")
            hv_g = machine.load("home_v")
            eids = machine.load("home_eids")
            home_x = machine.load("home_x")
            fz_mask = mask_down[w].astype(bool)
            we = worker_ehigh[w]
            if we["eids"].size:
                e_frozen = fz_mask[hu_g] | fz_mask[hv_g]
                local_idx = np.searchsorted(eids, we["eids"])
                now_frozen = e_frozen[local_idx] & (home_x[local_idx] == 0.0)
                sel = local_idx[now_frozen]
                home_x[sel] = we["x_high"][now_frozen]
                machine.store("home_x", home_x)
            edge_frozen = fz_mask[hu_g] | fz_mask[hv_g]
            stacked = np.zeros(2 * n, dtype=np.float64)
            stacked[:n] = np.bincount(
                hu_g, weights=home_x * edge_frozen, minlength=n
            ) + np.bincount(hv_g, weights=home_x * edge_frozen, minlength=n)
            live = ~edge_frozen
            stacked[n:] = np.bincount(hu_g[live], minlength=n) + np.bincount(
                hv_g[live], minlength=n
            )
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
            y_mpc=y_mpc,
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
