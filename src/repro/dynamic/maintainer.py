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

The hot path runs the vectorized kernels of :mod:`repro.dynamic.repair`
over the dynamic graph's CSR-delta arrays.

The certificate degrades (``drift``) as churn accumulates — deletions strand
cover weight whose paying edges are gone, weight changes bend the dual
loads.  The maintainer only *measures* drift; deciding when to trigger a
full re-solve is :class:`repro.dynamic.ResolvePolicy`'s job, and executing
it through the batch service is :func:`repro.dynamic.stream.run_stream`'s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.certificates import CoverCertificate
from repro.core.postprocess import prune_redundant_vertices
from repro.core.result import MWVCResult
from repro.dynamic.duals import DualStore, decode_edge_codes, encode_edge_codes
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.repair import (
    certificate_from_state,
    greedy_prune_pass,
    pricing_repair_pass,
)
from repro.graphs.updates import EdgeDelete, EdgeInsert, GraphUpdate, WeightChange

__all__ = ["IncrementalCoverMaintainer", "BatchReport", "KERNEL_PROFILE_KEYS"]

#: Sections of the per-batch kernel timing breakdown (``profile=True``).
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
        """Exact JSON-friendly form; inverse of :meth:`from_dict`.

        The certificate is nested in full (its own ``to_dict``), so this is
        the one schema shared by stream records and the write-ahead log.
        """
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

    @classmethod
    def from_dict(cls, spec: dict) -> "BatchReport":
        """Rebuild a report from its :meth:`to_dict` form."""
        if not isinstance(spec, dict):
            raise ValueError(f"batch report must be a dict, got {type(spec).__name__}")
        missing = {f for f in cls.__dataclass_fields__} - set(spec)
        if missing:
            raise ValueError(f"batch report missing keys {sorted(missing)}")
        return cls(
            num_updates=int(spec["num_updates"]),
            applied=int(spec["applied"]),
            inserts=int(spec["inserts"]),
            deletes=int(spec["deletes"]),
            reweights=int(spec["reweights"]),
            repaired_edges=int(spec["repaired_edges"]),
            added_to_cover=int(spec["added_to_cover"]),
            pruned_from_cover=int(spec["pruned_from_cover"]),
            retired_dual=float(spec["retired_dual"]),
            certificate=CoverCertificate.from_dict(spec["certificate"]),
            drift=float(spec["drift"]),
        )

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

    Parameters
    ----------
    profile:
        Accumulate a per-batch kernel timing breakdown
        (:data:`KERNEL_PROFILE_KEYS`) in :attr:`kernel_profile` /
        :attr:`last_batch_profile`.  Off by default: the hot path stays
        timer-free.
    """

    def __init__(self, dyn: DynamicGraph, *, profile: bool = False):
        self.dyn = dyn
        n = dyn.n
        self._cover = np.zeros(n, dtype=bool)
        self._x = DualStore()
        self._loads = np.zeros(n, dtype=np.float64)
        self._dual_value = 0.0
        self._base_ratio: Optional[float] = None
        self._batches = 0
        self._init_profile(profile)
        if dyn.m:
            # A nonempty graph has no valid empty cover; start from the
            # trivial all-vertices cover (duals empty → ratio inf) so the
            # validity invariant holds from the first moment.  Callers are
            # expected to adopt() a real solution before streaming.
            self._cover[:] = True

    def _init_profile(self, profile: bool) -> None:
        self._profile = bool(profile)
        self._profile_acc: Dict[str, float] = {k: 0.0 for k in KERNEL_PROFILE_KEYS}
        self.last_batch_profile: Optional[Dict[str, float]] = None

    def set_profiling(self, enabled: bool) -> None:
        """Switch kernel profiling on/off (resets the accumulated split)."""
        self._init_profile(enabled)

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

    @property
    def kernel_profile(self) -> Optional[Dict[str, float]]:
        """Cumulative kernel timing breakdown (``None`` unless profiling)."""
        return dict(self._profile_acc) if self._profile else None

    def edge_duals(self) -> Dict[Tuple[int, int], float]:
        """Nonzero per-edge duals keyed by canonical endpoint pair (copy)."""
        return self._x.as_dict()

    # ------------------------------------------------------------------ #
    # snapshot/restore support
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """The maintainer's full mutable state as plain arrays/scalars.

        The exact float payload is exported — loads and the dual total are
        *not* recomputed — so a maintainer restored via :meth:`from_state`
        is bit-identical and every subsequent :meth:`apply_batch` evolves
        it exactly as the original (the property
        ``tests/recovery/test_equivalence.py`` checks).  Dual keys are
        emitted in sorted order (one vectorized code sort), making the
        export deterministic for a given state (content digests of two
        exports of one state match).
        """
        dual_codes, dual_values = self._x.sorted_codes()
        du, dv = decode_edge_codes(dual_codes)
        dual_keys = (
            np.stack([du, dv], axis=1) if dual_codes.size else dual_codes.reshape(0, 2)
        )
        return {
            "cover": self._cover.copy(),
            "loads": self._loads.copy(),
            "dual_keys": dual_keys,
            "dual_codes": dual_codes,
            "dual_values": dual_values,
            "dual_value": float(self._dual_value),
            "base_ratio": self._base_ratio,
            "batches_applied": int(self._batches),
        }

    @classmethod
    def from_state(
        cls,
        dyn: DynamicGraph,
        state: dict,
        *,
        profile: bool = False,
    ) -> "IncrementalCoverMaintainer":
        """Reconstruct a maintainer around ``dyn`` from :meth:`export_state`.

        ``dyn`` must already hold the graph the state was exported against;
        the state is validated structurally (shapes, dual keys are current
        edges) so a mismatched graph/state pair fails loudly instead of
        silently corrupting the certificate.
        """
        n = dyn.n
        cover = np.asarray(state["cover"], dtype=bool)
        loads = np.asarray(state["loads"], dtype=np.float64)
        if cover.shape != (n,):
            raise ValueError(f"cover mask has shape {cover.shape}, expected ({n},)")
        if loads.shape != (n,):
            raise ValueError(f"loads have shape {loads.shape}, expected ({n},)")
        keys = np.asarray(state["dual_keys"], dtype=np.int64)
        vals = np.asarray(state["dual_values"], dtype=np.float64)
        if keys.ndim != 2 or keys.shape[1] != 2 or keys.shape[0] != vals.shape[0]:
            raise ValueError(
                f"dual arrays disagree: keys {keys.shape}, values {vals.shape}"
            )
        if keys.shape[0]:
            present = dyn.has_edges(keys[:, 0], keys[:, 1])
            if not present.all():
                u, v = keys[np.nonzero(~present)[0][0]]
                raise ValueError(
                    f"dual on ({int(u)}, {int(v)}) which is not an edge of "
                    f"the restored graph"
                )
        maintainer = cls.__new__(cls)
        maintainer.dyn = dyn
        maintainer._cover = cover.copy()
        maintainer._loads = loads.copy()
        maintainer._x = DualStore.from_arrays(keys, vals)
        maintainer._dual_value = float(state["dual_value"])
        base = state["base_ratio"]
        maintainer._base_ratio = None if base is None else float(base)
        maintainer._batches = int(state["batches_applied"])
        maintainer._init_profile(profile)
        return maintainer

    # ------------------------------------------------------------------ #
    # certification
    # ------------------------------------------------------------------ #
    def load_factor(self) -> float:
        """``max(1, max_v y_v / w(v))`` against the *current* weights."""
        if self.dyn.n == 0:
            return 1.0
        return max(1.0, float((self._loads / self.dyn.weights).max()))

    def dual_excess(self) -> float:
        """Total dual overload ``Σ_v max(0, y_v − w(v))``.

        For any cover ``C``, ``Σ_e x_e ≤ Σ_{v∈C} y_v ≤ w(C) + Σ_v (y_v −
        w_v)_+`` (every edge has an endpoint in ``C``), so ``Σ_e x_e −
        dual_excess ≤ OPT`` — a per-vertex-tight companion to the global
        ``load_factor`` scaling.
        """
        if self.dyn.n == 0:
            return 0.0
        return float(np.maximum(self._loads - self.dyn.weights, 0.0).sum())

    def certificate(self) -> CoverCertificate:
        """The duality certificate of the maintained state.

        ``is_cover`` here asserts the maintainer's invariant (it is
        recomputed exactly by :meth:`verify`, which materializes the
        graph).  The OPT lower bound is the better of the two sound
        repairs of a violated dual: global scaling ``Σx / load_factor``
        (as in :func:`repro.core.certificates.certify_cover`) and excess
        subtraction ``Σx − dual_excess`` — the latter is far tighter when
        a few reweighted vertices carry all the violation.
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
        ratio = self.certified_ratio()
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
    def adopt(
        self, result: MWVCResult, *, graph=None, prune: bool = True
    ) -> CoverCertificate:
        """Replace the maintained state with a freshly solved one.

        Parameters
        ----------
        result:
            A solver result for the dynamic graph's *current* state
            (typically via ``solver.solve(SolveRequest(dyn.compact(), ...))``).
        graph:
            The graph the result was computed on; defaults to
            ``dyn.materialize()``.  Its canonical edge order maps
            ``result.x`` into the maintainer's edge-code-keyed duals.
        prune:
            Run :func:`~repro.core.postprocess.prune_redundant_vertices`
            on the adopted cover (never heavier, usually lighter; the
            duals — and thus the lower bound — are unaffected).

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
        if prune:
            cover = prune_redundant_vertices(g, cover, weights=self.dyn.weights)
        # Edge-indexed duals → edge-code-keyed store, one vectorized encode.
        nz = np.nonzero(x)[0]
        self._cover = cover.copy()
        self._x = DualStore.from_codes(
            encode_edge_codes(g.edges_u[nz], g.edges_v[nz]), x[nz]
        )
        self._loads = g.incident_sums(x)
        self._dual_value = float(x.sum())
        cert = self.certificate()
        self._base_ratio = cert.certified_ratio
        return cert

    # ------------------------------------------------------------------ #
    # the incremental path
    # ------------------------------------------------------------------ #
    def apply_batch(self, updates: Sequence[GraphUpdate]) -> BatchReport:
        """Apply a batch of updates and repair the cover locally.

        The repair budget is proportional to the batch's touched
        neighborhood: uncovered inserted edges are patched by the pricing
        rule, then touched vertices are pruned greedily.  The certificate
        in the returned report reflects the post-repair state.
        """
        updates = list(updates)
        dyn = self.dyn
        profiling = self._profile
        t_mark = time.perf_counter() if profiling else 0.0
        applied = inserts = deletes = reweights = 0
        retired = 0.0
        touched: Set[int] = set()
        uncovered: List[Tuple[int, int]] = []

        for upd in updates:
            changed = dyn.apply(upd)
            if not changed:
                continue
            applied += 1
            if isinstance(upd, EdgeInsert):
                inserts += 1
                key = dyn._key(int(upd.u), int(upd.v))
                touched.update(key)
                if not (self._cover[key[0]] or self._cover[key[1]]):
                    uncovered.append(key)
            elif isinstance(upd, EdgeDelete):
                deletes += 1
                key = dyn._key(int(upd.u), int(upd.v))
                touched.update(key)
                retired += self._retire_dual(key)
            elif isinstance(upd, WeightChange):
                reweights += 1
                touched.add(int(upd.v))
        if profiling:
            now = time.perf_counter()
            adjacency_s, t_mark = now - t_mark, now

        repaired, entered = self._repair(uncovered)
        touched |= entered
        if profiling:
            now = time.perf_counter()
            repair_s, t_mark = now - t_mark, now
        pruned = self._prune_touched(touched)
        if profiling:
            now = time.perf_counter()
            prune_s, t_mark = now - t_mark, now
        # Amortized: fold the delta log into a fresh snapshot once it
        # outgrows the base (the maintainer's edge-code-keyed state is
        # snapshot-independent, so compaction is invisible here).  Booked
        # under adjacency_s — it is CSR maintenance, not prune work.
        self.dyn.maybe_compact()
        if profiling:
            now = time.perf_counter()
            adjacency_s += now - t_mark
            t_mark = now

        self._batches += 1
        cert = self.certificate()
        report = BatchReport(
            num_updates=len(updates),
            applied=applied,
            inserts=inserts,
            deletes=deletes,
            reweights=reweights,
            repaired_edges=repaired,
            added_to_cover=len(entered),
            pruned_from_cover=pruned,
            retired_dual=retired,
            certificate=cert,
            drift=self.drift(),
        )
        if profiling:
            certificate_s = time.perf_counter() - t_mark
            delta = {
                "adjacency_s": adjacency_s,
                "repair_s": repair_s,
                "prune_s": prune_s,
                "certificate_s": certificate_s,
            }
            acc = self._profile_acc
            for key, value in delta.items():
                acc[key] += value
            self.last_batch_profile = delta
        return report

    def _retire_dual(self, key: Tuple[int, int]) -> float:
        """Drop a deleted edge's dual; returns the retired mass."""
        pay = self._x.pop(key, 0.0)
        if pay:
            for t in key:
                self._loads[t] -= pay
                if self._loads[t] < 0.0:  # accumulated float noise
                    self._loads[t] = 0.0
            self._dual_value -= pay
            if self._dual_value < 0.0:
                self._dual_value = 0.0
        return pay

    def _repair(self, uncovered: Iterable[Tuple[int, int]]) -> Tuple[int, Set[int]]:
        """Patch uncovered edges via the pricing-repair kernel.

        For each still-uncovered edge, raise its dual by the smaller
        endpoint residual ``w − y``; every endpoint whose residual is
        exhausted enters the cover.  An endpoint already fully paid
        (residual ≤ 0, possible after an adopted solve with load factor
        > 1 or a weight decrease) enters for free.  The pass itself is
        :func:`repro.dynamic.repair.pricing_repair_pass`.
        """
        outcome = pricing_repair_pass(
            sorted(set(uncovered)),
            weights=self.dyn.weights,
            cover=self._cover,
            loads=self._loads,
            duals=self._x,
            dual_value=self._dual_value,
            has_edges=self.dyn.has_edges,
        )
        self._dual_value = outcome.dual_value
        return outcome.repaired, outcome.entered

    def _prune_touched(self, touched: Set[int]) -> int:
        """Greedy redundancy pruning restricted to the touched vertices.

        The kernel walks the dynamic CSR directly — O(batch
        neighborhood), *never* materializing the graph: decreasing
        ``w/deg`` order, droppable iff every incident edge's other
        endpoint is covered, and dropping ``v`` locks its neighbors —
        each now solely covers its edge to ``v``.
        """
        candidates = [v for v in touched if self._cover[v]]
        if not candidates:
            return 0
        pruned = greedy_prune_pass(
            candidates,
            weights=self.dyn.weights,
            cover=self._cover,
            degrees_of=self.dyn.degrees_of,
            gather=self.dyn.prune_gather,
        )
        return len(pruned)
