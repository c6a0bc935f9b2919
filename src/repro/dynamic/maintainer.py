"""Incremental cover maintenance: local repair + certificate tracking.

:class:`IncrementalCoverMaintainer` keeps a *valid, certified* vertex cover
over a :class:`~repro.dynamic.DynamicGraph` as updates stream in, without
re-solving from scratch.  The invariants after every
:meth:`apply_batch` call:

1. **Validity** — the maintained mask covers every current edge.  Only edge
   *insertions* can uncover (deletions and weight changes cannot), so the
   repair pass touches exactly the inserted edges whose endpoints are both
   outside the cover.
2. **Sound lower bound** — the maintainer carries per-edge duals ``x_e``
   (a near-feasible fractional matching on the *current* graph): duals of
   deleted edges are retired immediately, repairs pay new duals by the
   local-ratio/pricing rule (raise ``x_e`` by the smaller *residual*
   ``w(v) − y_v`` of the endpoints; the endpoint whose residual hits zero
   enters the cover), and weight decreases are absorbed into the measured
   ``load_factor``.  By weak duality ``Σ_e x_e / load_factor ≤ OPT`` of the
   current graph, so the certificate is checkable at any moment.
3. **Local minimality** — after repair, vertices *touched* by the batch are
   greedily pruned (most expensive first) if all their current neighbors
   are covered; untouched vertices keep their state, so the pass is
   O(batch-neighborhood), not O(n).

The hot path applies each batch with whole-array operations and runs the
vectorized kernels of :mod:`repro.dynamic.repair` over the dynamic
graph's arrays.

The certificate degrades (``drift``) as churn accumulates — deletions strand
cover weight whose paying edges are gone, weight changes bend the dual
loads.  The maintainer only *measures* drift; deciding when to trigger a
full re-solve is :class:`repro.dynamic.ResolvePolicy`'s job, and executing
it through the batch service is :func:`repro.dynamic.stream.run_stream`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.certificates import CoverCertificate
from repro.core.postprocess import greedy_prune_pass, prune_redundant_vertices
from repro.core.result import MWVCResult
from repro.dynamic.duals import decode_edge_codes, encode_edge_codes
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.repair import certificate_from_state, pricing_repair_pass
from repro.graphs.updates import OP_DELETE, OP_INSERT, OP_REWEIGHT, UpdateColumns
from repro.utils.timing import Stopwatch

__all__ = ["IncrementalCoverMaintainer", "BatchReport", "KERNEL_PROFILE_KEYS"]

#: Sections of :attr:`IncrementalCoverMaintainer.last_batch_profile`.
KERNEL_PROFILE_KEYS = ("adjacency_s", "repair_s", "prune_s", "certificate_s")


@dataclass(frozen=True)
class BatchReport:
    """Observables of one :meth:`IncrementalCoverMaintainer.apply_batch`.

    Attributes
    ----------
    num_updates, applied:
        Events received / events that changed the graph (inserting a
        present edge etc. are no-ops).
    inserts, deletes, reweights:
        Effective events by kind.
    repaired_edges:
        Inserted edges that arrived uncovered and were patched by the
        pricing rule.
    added_to_cover, pruned_from_cover:
        Cover membership churn caused by the batch.
    retired_dual:
        Dual mass removed with deleted edges (certificate damage).
    certificate:
        The post-batch duality certificate.
    drift:
        ``certified_ratio / base_ratio − 1`` where ``base_ratio`` is the
        certified ratio right after the last adopted re-solve.
    """

    num_updates: int
    applied: int
    inserts: int
    deletes: int
    reweights: int
    repaired_edges: int
    added_to_cover: int
    pruned_from_cover: int
    retired_dual: float
    certificate: CoverCertificate
    drift: float

    def to_dict(self) -> dict:
        """Exact JSON-friendly form, the certificate nested in full (its own
        ``to_dict``)."""
        return {
            "num_updates": int(self.num_updates),
            "applied": int(self.applied),
            "inserts": int(self.inserts),
            "deletes": int(self.deletes),
            "reweights": int(self.reweights),
            "repaired_edges": int(self.repaired_edges),
            "added_to_cover": int(self.added_to_cover),
            "pruned_from_cover": int(self.pruned_from_cover),
            "retired_dual": float(self.retired_dual),
            "certificate": self.certificate.to_dict(),
            "drift": float(self.drift),
        }

    def summary(self) -> dict:
        """Flat JSON-friendly dict (one row of ``repro stream`` output)."""
        row = self.to_dict()
        cert = row.pop("certificate")
        row["cover_weight"] = cert["cover_weight"]
        row["dual_value"] = cert["dual_value"]
        row["certified_ratio"] = cert["certified_ratio"]
        # `drift` stays the last key, matching the historical row layout.
        row["drift"] = row.pop("drift")
        return row


def _runs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the first and of the last element of each run of equal
    values in a sorted array."""
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    last = np.ones(keys.size, dtype=bool)
    last[:-1] = first[1:]
    return first, last


class IncrementalCoverMaintainer:
    """Maintains a certified vertex cover on a :class:`DynamicGraph`.

    Typical lifecycle::

        dyn = DynamicGraph(graph)
        maintainer = IncrementalCoverMaintainer(dyn)
        maintainer.adopt(minimum_weight_vertex_cover(graph, eps=0.1))
        for batch in batches(update_stream):
            report = maintainer.apply_batch(batch)
            if policy.should_resolve(...):
                maintainer.adopt(re_solve(dyn.compact()))

    On an edgeless initial graph :meth:`adopt` is optional — the empty
    cover is trivially valid and repairs bootstrap the duals from zero.

    Every :meth:`apply_batch` times its kernel sections
    (:data:`KERNEL_PROFILE_KEYS`, seconds) into a fresh
    :attr:`last_batch_profile`; it is ``None`` before the first batch.
    """

    def __init__(self, dyn: DynamicGraph):
        self.dyn = dyn
        n = dyn.n
        self._cover = np.zeros(n, dtype=bool)
        self._dual_codes = np.empty(0, dtype=np.int64)
        self._dual_values = np.empty(0, dtype=np.float64)
        self._loads = np.zeros(n, dtype=np.float64)
        self._dual_value = 0.0
        self._base_ratio: Optional[float] = None
        self._batches = 0
        self.last_batch_profile: Optional[Dict[str, float]] = None
        if dyn.m:
            # A nonempty graph has no valid empty cover; start from the
            # trivial all-vertices cover (duals empty → ratio inf) so the
            # validity invariant holds from the first moment.  Callers are
            # expected to adopt() a real solution before streaming.
            self._cover[:] = True

    # ------------------------------------------------------------------ #
    # state accessors
    # ------------------------------------------------------------------ #
    @property
    def cover(self) -> np.ndarray:
        """The maintained cover mask (a defensive copy)."""
        return self._cover.copy()

    @property
    def dual_value(self) -> float:
        """Current ``Σ_e x_e``."""
        return self._dual_value

    @property
    def cover_weight(self) -> float:
        """Current ``w(C)`` under the dynamic weights."""
        return float(self.dyn.weights[self._cover].sum())

    @property
    def base_ratio(self) -> Optional[float]:
        """Certified ratio measured right after the last :meth:`adopt`."""
        return self._base_ratio

    @property
    def batches_applied(self) -> int:
        """Number of :meth:`apply_batch` calls so far."""
        return self._batches

    def edge_duals(self) -> Dict[Tuple[int, int], float]:
        """Nonzero per-edge duals keyed by canonical endpoint pair (copy)."""
        u, v = decode_edge_codes(self._dual_codes)
        return dict(zip(zip(u.tolist(), v.tolist()), self._dual_values.tolist()))

    # ------------------------------------------------------------------ #
    # snapshot/restore support
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """The maintainer's full mutable state as plain arrays/scalars.

        The exact float payload is exported — loads and the dual total are
        *not* recomputed — so a maintainer restored via :meth:`from_state`
        is bit-identical and every subsequent :meth:`apply_batch` evolves
        it exactly as the original (the property
        ``tests/recovery/test_equivalence.py`` checks).  The duals are
        exported as held: ascending edge codes of :mod:`repro.dynamic.duals`
        and their values, so the export is deterministic for a given state
        (content digests of two exports of one state match).
        """
        return {
            "cover": self._cover.copy(),
            "loads": self._loads.copy(),
            "dual_codes": self._dual_codes.copy(),
            "dual_values": self._dual_values.copy(),
            "dual_value": float(self._dual_value),
            "base_ratio": self._base_ratio,
            "batches_applied": int(self._batches),
        }

    @classmethod
    def from_state(cls, dyn: DynamicGraph, state: dict) -> "IncrementalCoverMaintainer":
        """Reconstruct a maintainer around ``dyn`` from :meth:`export_state`.

        ``dyn`` must already hold the graph the state was exported against;
        the state is validated structurally (shapes, dual codes are
        distinct current edges, in any order) so a mismatched graph/state
        pair fails loudly instead of silently corrupting the certificate.
        """
        n = dyn.n
        cover = np.asarray(state["cover"], dtype=bool)
        loads = np.asarray(state["loads"], dtype=np.float64)
        if cover.shape != (n,):
            raise ValueError(f"cover mask has shape {cover.shape}, expected ({n},)")
        if loads.shape != (n,):
            raise ValueError(f"loads have shape {loads.shape}, expected ({n},)")
        codes = np.asarray(state["dual_codes"], dtype=np.int64)
        vals = np.asarray(state["dual_values"], dtype=np.float64)
        if codes.ndim != 1 or codes.shape != vals.shape:
            raise ValueError(
                f"dual arrays disagree: codes {codes.shape}, values {vals.shape}"
            )
        order = np.argsort(codes, kind="stable")
        codes, vals = codes[order], vals[order]
        missing = np.flatnonzero(~dyn.has_codes(codes))
        if missing.size:
            u, v = decode_edge_codes(codes[missing[:1]])
            raise ValueError(
                f"dual on ({int(u[0])}, {int(v[0])}) which is not an edge of "
                f"the restored graph"
            )
        repeated = np.flatnonzero(codes[1:] == codes[:-1])
        if repeated.size:
            u, v = decode_edge_codes(codes[repeated[:1]])
            raise ValueError(f"repeated dual on ({int(u[0])}, {int(v[0])})")
        maintainer = cls.__new__(cls)
        maintainer.dyn = dyn
        maintainer._cover = cover.copy()
        maintainer._loads = loads.copy()
        maintainer._dual_codes = codes
        maintainer._dual_values = vals
        maintainer._dual_value = float(state["dual_value"])
        base = state["base_ratio"]
        maintainer._base_ratio = None if base is None else float(base)
        maintainer._batches = int(state["batches_applied"])
        maintainer.last_batch_profile = None
        return maintainer

    # ------------------------------------------------------------------ #
    # certification
    # ------------------------------------------------------------------ #
    def certificate(self) -> CoverCertificate:
        """The duality certificate of the maintained state.

        ``is_cover`` here asserts the maintainer's invariant (it is
        recomputed exactly by :meth:`verify`, which materializes the
        graph).  The OPT lower bound is
        :func:`~repro.dynamic.repair.certificate_from_state`'s.
        """
        return certificate_from_state(
            weights=self.dyn.weights,
            cover=self._cover,
            loads=self._loads,
            dual_value=self._dual_value,
        )

    def certified_ratio(self) -> float:
        """Current certified approximation-ratio upper bound."""
        return self.certificate().certified_ratio

    def drift(self) -> float:
        """Relative certificate degradation since the last :meth:`adopt`."""
        return self._drift(self.certified_ratio())

    def _drift(self, ratio: float) -> float:
        """:meth:`drift` of a certified ratio of the current state."""
        base = self._base_ratio
        if base is None or not np.isfinite(base) or base <= 0:
            return 0.0 if np.isfinite(ratio) else float("inf")
        return ratio / base - 1.0

    def verify(self) -> bool:
        """Exact validity check against the materialized current graph."""
        return self.dyn.materialize().is_vertex_cover(self._cover)

    # ------------------------------------------------------------------ #
    # adopting a full solution
    # ------------------------------------------------------------------ #
    def adopt(self, result: MWVCResult, *, graph=None) -> CoverCertificate:
        """Replace the maintained state with a freshly solved one.

        The adopted cover is pruned with
        :func:`~repro.core.postprocess.prune_redundant_vertices` (never
        heavier, usually lighter; the duals — and thus the lower bound —
        are unaffected).

        Parameters
        ----------
        result:
            A solver result for the dynamic graph's *current* state
            (typically via ``solver.solve(SolveRequest(dyn.compact(), ...))``).
        graph:
            The graph the result was computed on; defaults to
            ``dyn.materialize()``.  Its edges are canonical (lex-sorted),
            so the codes of the edges with ``result.x > 0`` are already
            the ascending dual codes the maintainer holds.

        Returns the post-adoption certificate (the new drift baseline).
        """
        g = self.dyn.materialize() if graph is None else graph
        if g.n != self.dyn.n:
            raise ValueError(f"result graph has n={g.n}, expected {self.dyn.n}")
        cover = np.asarray(result.in_cover, dtype=bool)
        if cover.shape != (g.n,):
            raise ValueError(f"cover mask has shape {cover.shape}, expected ({g.n},)")
        if not g.is_vertex_cover(cover):
            raise ValueError("adopted result is not a vertex cover of the current graph")
        x = np.asarray(result.x, dtype=np.float64)
        if x.shape != (g.m,):
            raise ValueError(f"duals have shape {x.shape}, expected ({g.m},)")
        cover = prune_redundant_vertices(g, cover, weights=self.dyn.weights)
        nz = np.flatnonzero(x)
        self._cover = cover.copy()
        self._dual_codes = encode_edge_codes(g.edges_u[nz], g.edges_v[nz])
        self._dual_values = x[nz]
        self._loads = g.incident_sums(x)
        self._dual_value = float(x.sum())
        cert = self.certificate()
        self._base_ratio = cert.certified_ratio
        return cert

    # ------------------------------------------------------------------ #
    # the incremental path
    # ------------------------------------------------------------------ #
    def apply_batch(self, updates: UpdateColumns) -> BatchReport:
        """Apply a batch of updates and repair the cover locally.

        ``updates`` is one batch as :class:`UpdateColumns` (a slice of a
        stream, or ``UpdateColumns.from_rows`` rows).  The batch is
        validated whole first (:meth:`UpdateColumns.validate`, positions
        counted from the batch's first event), so a batch with a bad
        event raises :class:`~repro.graphs.updates.InvalidUpdateError`
        and changes nothing.  The repair budget is proportional to the batch's touched
        neighborhood: uncovered inserted edges are patched by the pricing
        rule, then touched vertices are pruned greedily.  The certificate
        in the returned report reflects the post-repair state.  The
        sections after validation are timed into :attr:`last_batch_profile`.
        """
        updates.validate(self.dyn.n, batch_index=self._batches, start=0)
        watch = Stopwatch()
        events = self._apply_events(updates)
        inserts, deletes, reweights, retired, touched, uncovered = events
        watch.lap("adjacency_s")
        repaired, entered = self._repair(uncovered)
        watch.lap("repair_s")
        pruned = self._prune_touched(touched)
        watch.lap("prune_s")
        # Amortized: fold the delta into a fresh snapshot once it outgrows
        # the base (the maintainer's edge-code-keyed state is
        # snapshot-independent, so compaction is invisible here).  Booked
        # under adjacency_s — it is CSR maintenance, not prune work.
        self.dyn.maybe_compact()
        watch.lap("adjacency_s")

        self._batches += 1
        cert = self.certificate()
        report = BatchReport(
            num_updates=len(updates),
            applied=inserts + deletes + reweights,
            inserts=inserts,
            deletes=deletes,
            reweights=reweights,
            repaired_edges=repaired,
            added_to_cover=entered,
            pruned_from_cover=pruned,
            retired_dual=retired,
            certificate=cert,
            drift=self._drift(cert.certified_ratio),
        )
        watch.lap("certificate_s")
        self.last_batch_profile = watch.seconds
        return report

    def _apply_events(self, cols: UpdateColumns) -> Tuple:
        """Apply a validated batch to the graph with whole-array operations.

        Returns ``(inserts, deletes, reweights, retired, touched,
        uncovered)``: effective events by kind, the dual mass retired with
        deleted edges, the touched vertices (an id array), and the sorted
        codes of the edges the repair must patch.  The result equals
        applying the events one at a time in stream order:

        * Edge events are stable-sorted by edge code, one run per code.
          Each run's final target goes to one
          :meth:`DynamicGraph.set_presence` call, which returns the
          presence before the run's first event; before any later event
          it is the previous event's target.  An event is *effective* iff
          its target differs from that presence.
        * Reweights group by vertex the same way: effective iff the weight
          differs from the one before it; the last one wins.
        * The cover does not change until repair, so the edges to patch
          are those with an effective insert that are present at batch
          end (their run's final target) and have both endpoints
          uncovered.  An edge inserted and then deleted again is not one.
        * Only an edge present at batch start can hold a dual, so each
          such edge's first effective delete retires it, in stream order
          (:meth:`_retire_duals`).
        """
        inserts, deletes, retired, edge_touched, uncovered = self._apply_edge_events(
            cols
        )
        reweights, weight_touched = self._apply_reweights(cols)
        touched = np.unique(np.concatenate([edge_touched, weight_touched]))
        return inserts, deletes, reweights, retired, touched, uncovered

    def _apply_edge_events(self, cols: UpdateColumns) -> Tuple:
        """The edge half of :meth:`_apply_events`: ``(inserts, deletes,
        retired, touched, uncovered)``."""
        op = cols.op
        edge_pos = np.flatnonzero((op == OP_INSERT) | (op == OP_DELETE))
        u, v = cols.u[edge_pos], cols.v[edge_pos]
        proper = u != v  # a self-loop delete is a no-op (inserts are refused)
        if not proper.all():
            edge_pos, u, v = edge_pos[proper], u[proper], v[proper]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        codes = encode_edge_codes(lo, hi)
        order = np.argsort(codes, kind="stable")
        codes, lo, hi, edge_pos = codes[order], lo[order], hi[order], edge_pos[order]
        target = op[edge_pos] == OP_INSERT
        first, last = _runs(codes)
        run_codes, end = codes[last], target[last]
        start = self.dyn.set_presence(run_codes, end)
        before = np.empty_like(target)
        before[1:] = target[:-1]
        before[first] = start
        effective = target != before
        eff_insert = effective & target

        # A code's first effective event is a delete iff the code was
        # present at batch start; that delete retires its dual.
        run = np.cumsum(first) - 1
        eff_idx = np.flatnonzero(effective)
        lead = eff_idx[np.diff(run[eff_idx], prepend=-1) != 0]
        retiring = lead[~target[lead]]
        retiring = retiring[np.argsort(edge_pos[retiring])]
        retired = self._retire_duals(codes[retiring])

        inserted = np.zeros(run_codes.size, dtype=bool)
        inserted[run[eff_insert]] = True
        cover = self._cover
        uncovered = inserted & end & ~(cover[lo[last]] | cover[hi[last]])
        return (
            int(eff_insert.sum()),
            int(effective.sum()) - int(eff_insert.sum()),
            retired,
            np.concatenate([lo[effective], hi[effective]]),
            run_codes[uncovered],
        )

    def _apply_reweights(self, cols: UpdateColumns) -> Tuple[int, np.ndarray]:
        """The reweight half of :meth:`_apply_events`: ``(reweights,
        touched)``."""
        pos = np.flatnonzero(cols.op == OP_REWEIGHT)
        v, w = cols.v[pos], cols.w[pos]
        order = np.argsort(v, kind="stable")
        v, w = v[order], w[order]
        first, last = _runs(v)
        before = np.empty_like(w)
        before[1:] = w[:-1]
        before[first] = self.dyn.weights[v[first]]
        changed = w != before
        if changed.any():
            self.dyn.set_weights(v[last], w[last])
        return int(changed.sum()), v[changed]

    def _retire_duals(self, codes: np.ndarray) -> float:
        """Drop the duals of deleted edges ``codes`` (in stream order);
        returns the retired mass.

        The per-edge rule subtracts the dual from both endpoint loads and
        from the dual total, clamping each at zero (accumulated float
        noise).  These only decrease, so when none ends below zero no
        clamp fired on the way, and ``np.subtract.at``/``accumulate`` —
        which apply their operands strictly in order — equal the
        edge-at-a-time loop bit for bit.  Otherwise the loop runs.
        """
        held_codes = self._dual_codes
        if not (codes.size and held_codes.size):
            return 0.0
        at = np.minimum(np.searchsorted(held_codes, codes), held_codes.size - 1)
        held = held_codes[at] == codes
        pays = np.where(held, self._dual_values[at], 0.0)
        self._dual_codes = np.delete(held_codes, at[held])
        self._dual_values = np.delete(self._dual_values, at[held])
        paid = np.flatnonzero(pays)
        if not paid.size:
            return 0.0
        pays = pays[paid]
        u, v = decode_edge_codes(codes[paid])
        ends = np.stack([u, v], axis=1).ravel()
        loads = self._loads
        saved = loads[ends]
        np.subtract.at(loads, ends, np.repeat(pays, 2))
        dual = float(np.subtract.accumulate(np.r_[self._dual_value, pays])[-1])
        if dual < 0.0 or (loads[ends] < 0.0).any():
            loads[ends] = saved
            dual = self._dual_value
            for t, pay in zip(ends.tolist(), np.repeat(pays, 2).tolist()):
                loads[t] -= pay
                if loads[t] < 0.0:
                    loads[t] = 0.0
            for pay in pays.tolist():
                dual -= pay
                if dual < 0.0:
                    dual = 0.0
        self._dual_value = dual
        return float(np.add.accumulate(pays)[-1])

    def _repair(self, codes: np.ndarray) -> Tuple[int, int]:
        """Patch the uncovered edges ``codes`` via the pricing-repair
        kernel; returns ``(repaired, entered)``.

        For each still-uncovered edge, raise its dual by the smaller
        endpoint residual ``w − y``; every endpoint whose residual is
        exhausted enters the cover.  An endpoint already fully paid
        (residual ≤ 0, possible after an adopted solve with load factor
        > 1 or a weight decrease) enters for free.  The pass itself is
        :func:`repro.dynamic.repair.pricing_repair_pass`.

        Its new duals are merged with one ``np.insert``.  No paid code
        already holds a dual: duals are held only on present edges, and a
        paid edge was inserted in this batch, so it was absent at batch
        start or deleted earlier in the batch, which retired its dual.
        """
        outcome = pricing_repair_pass(
            codes,
            weights=self.dyn.weights,
            cover=self._cover,
            loads=self._loads,
            dual_value=self._dual_value,
        )
        self._dual_value = outcome.dual_value
        if outcome.paid_codes.size:
            at = np.searchsorted(self._dual_codes, outcome.paid_codes)
            self._dual_codes = np.insert(self._dual_codes, at, outcome.paid_codes)
            self._dual_values = np.insert(self._dual_values, at, outcome.pays)
        return outcome.repaired, outcome.entered

    def _prune_touched(self, touched: np.ndarray) -> int:
        """Greedy redundancy pruning restricted to the touched vertices.

        Every vertex the repair put into the cover is an endpoint of an
        effective insert, so it is touched already.  The kernel walks the
        dynamic CSR directly — O(batch neighborhood), *never*
        materializing the graph: decreasing ``w/deg`` order, droppable iff
        every incident edge's other endpoint is covered, and dropping
        ``v`` locks its neighbors — each now solely covers its edge to
        ``v``.
        """
        candidates = touched[self._cover[touched]]
        if not candidates.size:
            return 0
        pruned = greedy_prune_pass(
            candidates,
            weights=self.dyn.weights,
            cover=self._cover,
            degrees_of=self.dyn.degrees_of,
            gather=self.dyn.prune_gather,
        )
        return len(pruned)
