"""Coordination layer of the sharded stream pipeline.

:func:`run_sharded_stream` is the partition-parallel sibling of
:func:`repro.dynamic.stream.run_stream` (``repro stream --shards N``).
The vertex space is partitioned (:func:`repro.mpc.partition.make_partition`),
updates are routed to the shard(s) owning their endpoints
(:mod:`repro.dynamic.ingest`), and per-shard workers
(:mod:`repro.dynamic.shard_worker`) apply them to their local subgraphs in
parallel.  The coordinator here keeps the *authoritative* O(n) state —
cover mask, dual loads, weights, dual total — and stitches the shard work
back into exactly the monolithic result:

1. **Effects replay.**  Shards return the batch's effective edge events
   (with retired dual mass) tagged by global stream position; the
   coordinator replays them in that order, so dual retirement performs the
   same float operations in the same sequence a monolithic run would.
2. **Merged repair frontier.**  Shards report still-present uncovered
   insertions; the coordinator merges them and runs the one shared
   :func:`~repro.dynamic.repair.pricing_repair_pass` over the sorted
   union.  Repairs only interact through shared endpoints, so the merged
   pass equals the monolithic pass edge for edge; the resulting dual/cover
   deltas are broadcast back so shard replicas converge.
3. **Two-level pruning.**  Prune decisions interact only between adjacent
   candidates, so candidate components that live entirely inside one
   shard are pruned there, in parallel; components crossing a cut edge
   are shipped (with full neighbor lists) and pruned here sequentially.
4. **Duality reconciliation.**  Cut-edge duals are replicated on both
   incident shards but counted once (at the edge's home shard), and the
   coordinator's loads/dual-total replay keeps the global certificate —
   computed by the same :func:`~repro.dynamic.repair.certificate_from_state`
   the maintainer uses — valid after every batch.

The equivalence is exact, not approximate: for any update stream and any
shard count the final cover mask, duals, and per-batch reports are
bit-identical to the monolithic engine's (``--shards 1`` trivially so).
``tests/dynamic/test_sharded.py`` and
``tests/properties/test_property_sharding.py`` enforce this.

Durability mirrors the monolithic path: the same ``config.json`` /
``graph.npz`` / ``updates.npz`` / ``wal.jsonl`` layout, with snapshots
written as per-shard generations (:mod:`repro.dynamic.shard_checkpoint`).
WAL state stamps combine the per-shard edge digests with the
coordinator's weights digest — computed in parallel, verified the same
way on replay.  :func:`resume_sharded_stream` restores the newest intact
generation (falling back under ``keep_snapshots``) and replays the WAL
tail through the exact per-batch machinery.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dynamic.checkpoint import CheckpointError
from repro.dynamic.duals import DualStore, decode_edge_codes
from repro.dynamic.ingest import UpdateRouter, open_update_source
from repro.dynamic.maintainer import KERNEL_PROFILE_KEYS, BatchReport
from repro.dynamic.repair import (
    PruneView,
    adopt_solution,
    certificate_from_state,
    greedy_prune_pass,
    pricing_repair_pass,
)
from repro.dynamic.shard_checkpoint import (
    list_sharded_snapshots,
    load_sharded_snapshot,
    prune_sharded_snapshots,
    save_sharded_snapshot,
)
from repro.dynamic.shard_worker import ShardInit, ShardPool
from repro.dynamic.stream import (
    CheckpointConfig,
    StreamRecord,
    StreamSummary,
    _batches,
    _compact_wal_in_place,
    _load_config,
    _newest_intact,
    _prepare_checkpoint_dir,
    _resume_setup,
)
from repro.dynamic.policy import ResolvePolicy
from repro.dynamic.wal import WriteAheadLog
from repro.graphs.graph import WeightedGraph
from repro.graphs.io import load_npz
from repro.graphs.updates import GraphUpdate, WeightChange
from repro.mpc.partition import make_partition
from repro.service.batch import BatchSolver
from repro.service.schema import SolveRequest

__all__ = ["run_sharded_stream", "resume_sharded_stream"]

PathLike = Union[str, "os.PathLike[str]"]

EdgeKey = Tuple[int, int]


def _weights_digest(weights: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(b"repro-sharded-weights\0")
    h.update(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
    return h.hexdigest()


def _combined_digest(
    n: int, num_shards: int, weights_digest: str, shard_digests: Sequence[str]
) -> str:
    """The sharded stream's WAL state stamp.

    Shard edge digests are computed in parallel (each over its home-edge
    set) and combined with the coordinator's weights digest; the formula
    differs from the monolithic graph digest, but ``config.json`` records
    the shard count, so replay always recomputes the matching flavor.
    """
    h = hashlib.sha256()
    h.update(b"repro-sharded-state\0")
    h.update(f"{n}\0{num_shards}\0".encode("ascii"))
    h.update(weights_digest.encode("ascii"))
    for digest in shard_digests:
        h.update(digest.encode("ascii"))
    return h.hexdigest()


def _duals_by_shard(
    duals: DualStore, assignment: np.ndarray, num_shards: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Sorted dual ``(keys, values)`` arrays bucketed by incident shard.

    One vectorized code sort + per-shard incidence mask — no Python-level
    key walk.  A cut edge lands in both incident shards' buckets (its
    dual is replicated so either side can retire it on delete);
    per-bucket order stays sorted.
    """
    codes, vals = duals.sorted_codes()
    u, v = decode_edge_codes(codes)
    su = assignment[u] if codes.size else np.zeros(0, np.int64)
    sv = assignment[v] if codes.size else np.zeros(0, np.int64)
    buckets = []
    for s in range(num_shards):
        mask = (su == s) | (sv == s)
        keys = (
            np.stack([u[mask], v[mask]], axis=1)
            if codes.size
            else np.empty((0, 2), np.int64)
        )
        buckets.append((keys, vals[mask] if codes.size else vals))
    return buckets


def _build_shard_inits(
    edges_u: np.ndarray,
    edges_v: np.ndarray,
    assignment: np.ndarray,
    num_shards: int,
    weights: np.ndarray,
    cover: np.ndarray,
    duals,
) -> List[ShardInit]:
    """Scatter global state into per-shard construction blobs."""
    u = np.asarray(edges_u, dtype=np.int64)
    v = np.asarray(edges_v, dtype=np.int64)
    store = duals if isinstance(duals, DualStore) else DualStore(duals)
    buckets = _duals_by_shard(store, assignment, num_shards)
    inits = []
    for s in range(num_shards):
        mask = (assignment[u] == s) | (assignment[v] == s) if u.size else np.zeros(0, bool)
        dual_keys, dual_values = buckets[s]
        inits.append(
            ShardInit(
                shard_id=s,
                num_shards=num_shards,
                assignment=assignment,
                edges_u=u[mask],
                edges_v=v[mask],
                weights=np.array(weights, dtype=np.float64),
                cover=np.array(cover, dtype=bool),
                dual_keys=dual_keys,
                dual_values=dual_values,
            )
        )
    return inits


class _ShardedEngine:
    """Per-batch machinery of ``run_sharded_stream``/``resume_sharded_stream``.

    Owns the authoritative arrays, the router, the shard pool, and the
    mutable counters; performs one batch end-to-end through the two-round
    shard protocol (see the module docstring).
    """

    def __init__(
        self,
        *,
        n: int,
        num_shards: int,
        partition: str,
        partition_seed: int,
        assignment: np.ndarray,
        pool: ShardPool,
        policy: ResolvePolicy,
        solver: BatchSolver,
        eps: float,
        seed: int,
        engine: str,
        verify_every: int,
        checkpoint: Optional[CheckpointConfig] = None,
        wal: Optional[WriteAheadLog] = None,
        weights: np.ndarray,
        cover: np.ndarray,
        loads: np.ndarray,
        dual_value: float = 0.0,
        base_ratio: Optional[float] = None,
        batches_applied: int = 0,
        profile: bool = False,
    ):
        self.n = n
        self.num_shards = num_shards
        self.partition = partition
        self.partition_seed = partition_seed
        self.assignment = assignment
        self.router = UpdateRouter(assignment, num_shards)
        self.pool = pool
        self.policy = policy
        self.solver = solver
        self.eps = eps
        self.seed = seed
        self.engine = engine
        self.verify_every = verify_every
        self.checkpoint = checkpoint
        self.wal = wal
        self.weights = np.array(weights, dtype=np.float64)
        self.cover = np.array(cover, dtype=bool)
        self.loads = np.array(loads, dtype=np.float64)
        self.dual_value = float(dual_value)
        self.base_ratio = base_ratio
        self.batches_applied = int(batches_applied)
        self.pending_clears: List[int] = []
        self.records: List[StreamRecord] = []
        self.num_resolves = 0
        self.cache_hits = 0
        self.batches_since = 0
        self.updates_applied = 0
        self.ingest_s = 0.0
        self.repair_s = 0.0
        self.resolve_s = 0.0
        self.profile_enabled = bool(profile)
        self.profile_acc = {k: 0.0 for k in KERNEL_PROFILE_KEYS}
        self.last_batch_profile: Optional[dict] = None

    # -- counters (snapshot metadata) ------------------------------------ #
    def restore_counters(self, extra: dict) -> None:
        self.batches_since = int(extra.get("batches_since_resolve", 0))
        self.updates_applied = int(extra.get("updates_applied", 0))

    def counters(self, next_batch_index: int) -> dict:
        return {
            "next_batch_index": int(next_batch_index),
            "updates_applied": int(self.updates_applied),
            "batches_since_resolve": int(self.batches_since),
            "num_resolves": int(self.num_resolves),
            "num_resolve_cache_hits": int(self.cache_hits),
        }

    # -- certification ---------------------------------------------------- #
    def certificate(self):
        return certificate_from_state(
            weights=self.weights,
            cover=self.cover,
            loads=self.loads,
            dual_value=self.dual_value,
        )

    def drift(self, ratio: float) -> float:
        base = self.base_ratio
        if base is None or not np.isfinite(base) or base <= 0:
            return 0.0 if np.isfinite(ratio) else float("inf")
        return ratio / base - 1.0

    # -- gather / verify -------------------------------------------------- #
    def gather_graph(self) -> WeightedGraph:
        """Merge the shards' home edges into the global current graph."""
        exports = self.pool.broadcast("export_edges")
        us = [u for u, _ in exports]
        vs = [v for _, v in exports]
        u = np.concatenate(us) if us else np.empty(0, np.int64)
        v = np.concatenate(vs) if vs else np.empty(0, np.int64)
        return WeightedGraph(self.n, u, v, self.weights.copy())

    def verify(self) -> bool:
        """Exact validity check against the gathered current graph."""
        return self.gather_graph().is_vertex_cover(self.cover)

    # -- the solve path --------------------------------------------------- #
    def resolve(self, graph: Optional[WeightedGraph] = None) -> bool:
        """Full re-solve through the service; returns cache-hit flag.

        Gathers the current graph from the shards (unless the caller just
        built it), solves through the shared batch service — the request
        digest equals a monolithic run's, so the result cache warm-starts
        across engines — and scatters the adopted state back.
        """
        t0 = time.perf_counter()
        if graph is None:
            graph = self.gather_graph()
        request = SolveRequest(
            graph=graph, eps=self.eps, seed=self.seed, engine=self.engine
        )
        result = self.solver.solve(request)
        if not result.ok or result.result is None:
            raise RuntimeError(f"re-solve failed: {result.error}")
        state = adopt_solution(graph, result.result, weights=self.weights)
        self.cover = state.cover
        self.loads = state.loads
        self.dual_value = state.dual_value
        cert = self.certificate()
        self.base_ratio = cert.certified_ratio
        # Scatter: full cover replica + each shard's incident duals.
        buckets = _duals_by_shard(state.duals, self.assignment, self.num_shards)
        payloads = [
            {
                "cover": self.cover,
                "dual_keys": dual_keys,
                "dual_values": dual_values,
            }
            for dual_keys, dual_values in buckets
        ]
        self.pool.call_all("adopt", payloads)
        self.pending_clears = []  # superseded by the full cover scatter
        self.num_resolves += 1
        self.cache_hits += int(result.cache_hit)
        self.resolve_s += time.perf_counter() - t0
        return result.cache_hit

    # -- durability -------------------------------------------------------- #
    def write_snapshot(self, next_batch_index: int) -> None:
        if self.checkpoint is None:
            return
        checkpoint = self.checkpoint
        save_sharded_snapshot(
            checkpoint.directory,
            next_batch_index=next_batch_index,
            pool=self.pool,
            num_shards=self.num_shards,
            partition=self.partition,
            partition_seed=self.partition_seed,
            n=self.n,
            weights=self.weights,
            cover=self.cover,
            loads=self.loads,
            dual_value=self.dual_value,
            base_ratio=self.base_ratio,
            batches_applied=self.batches_applied,
            extra=self.counters(next_batch_index),
            fsync=checkpoint.fsync,
            compress_arrays=checkpoint.compress_arrays,
        )
        prune_sharded_snapshots(checkpoint.directory, checkpoint.keep_snapshots)
        if checkpoint.compact_wal and self.wal is not None:
            retained = list_sharded_snapshots(checkpoint.directory)
            floor = min(
                (idx for idx, _ in retained[: checkpoint.keep_snapshots]),
                default=next_batch_index,
            )
            self.wal = _compact_wal_in_place(checkpoint, self.wal, floor)

    def state_digest(self, shard_digests: Sequence[str], weights_digest: str) -> str:
        return _combined_digest(
            self.n, self.num_shards, weights_digest, shard_digests
        )

    # -- one batch --------------------------------------------------------- #
    def process_batch(
        self,
        index: int,
        batch: List[GraphUpdate],
        *,
        log_to_wal: bool,
        expect_digest: Optional[str] = None,
    ) -> StreamRecord:
        t_start = time.perf_counter()
        stamping = (
            log_to_wal
            and self.wal is not None
            and self.checkpoint is not None
            and self.checkpoint.stamp_digests
        )
        want_digest = stamping or bool(expect_digest)

        # ---- round 1: route, scatter, apply ---------------------------- #
        t0 = time.perf_counter()
        routed = self.router.route(batch)
        weights_digest = _weights_digest(self.weights) if want_digest else ""
        clears = self.pending_clears
        payloads = [
            {
                "events": routed.slices[s],
                "cover_clears": clears,
                "want_digest": want_digest,
            }
            for s in range(self.num_shards)
        ]
        self.ingest_s += time.perf_counter() - t0
        # The shard round does the apply/detect work the monolithic engine
        # books under repair_s; attribute it the same way so the split
        # stays comparable across engines.
        t_apply = time.perf_counter()
        responses = self.pool.call_all("apply_batch", payloads)
        shard_round_s = time.perf_counter() - t_apply
        self.repair_s += shard_round_s
        self.pending_clears = []

        digest = ""
        if want_digest:
            digest = self.state_digest(
                [r["digest"] for r in responses], weights_digest
            )
        if expect_digest and digest != expect_digest:
            raise CheckpointError(
                f"WAL batch {index} was logged against sharded state "
                f"{expect_digest[:12]}… but replay reached {digest[:12]}… — "
                f"snapshot/WAL/stream mismatch"
            )
        if log_to_wal and self.wal is not None:
            t_wal = time.perf_counter()
            self.wal.append(
                index,
                batch,
                num_vertices=self.n,
                position=self.updates_applied,
                state_digest=digest,
            )
            self.ingest_s += time.perf_counter() - t_wal

        # ---- replay: reweights + merged edge effects ------------------- #
        t1 = time.perf_counter()
        profiling = self.profile_enabled
        t_mark = time.perf_counter() if profiling else 0.0
        applied = inserts = deletes = reweights = 0
        retired = 0.0
        touched = set()
        for upd in batch:
            if isinstance(upd, WeightChange):
                v = int(upd.v)
                w = float(upd.weight)
                if not np.isfinite(w) or w <= 0:
                    raise ValueError(
                        f"vertex weights must be finite and > 0, got {w}"
                    )
                if self.weights[v] != w:
                    self.weights[v] = w
                    applied += 1
                    reweights += 1
                    touched.add(v)
        effects: List[tuple] = []
        for response in responses:
            effects.extend(response["effects"])
        effects.sort(key=lambda e: e[0])
        loads = self.loads
        for _, op, u, v, pay in effects:
            applied += 1
            touched.add(u)
            touched.add(v)
            if op == "i":
                inserts += 1
            else:
                deletes += 1
                if pay:
                    loads[u] -= pay
                    if loads[u] < 0.0:  # accumulated float noise
                        loads[u] = 0.0
                    loads[v] -= pay
                    if loads[v] < 0.0:
                        loads[v] = 0.0
                    self.dual_value -= pay
                    if self.dual_value < 0.0:
                        self.dual_value = 0.0
                retired += pay

        if profiling:
            now = time.perf_counter()
            adjacency_s = (now - t_mark) + shard_round_s
            t_mark = now

        # ---- merged repair frontier ------------------------------------ #
        uncovered = set()
        for response in responses:
            uncovered.update(tuple(k) for k in response["uncovered"])
        outcome = pricing_repair_pass(
            sorted(uncovered),
            weights=self.weights,
            cover=self.cover,
            loads=self.loads,
            duals=DualStore(),
            dual_value=self.dual_value,
        )
        self.dual_value = outcome.dual_value
        touched |= outcome.entered
        if profiling:
            now = time.perf_counter()
            repair_kernel_s, t_mark = now - t_mark, now

        # ---- round 2: sync repair, two-level prune --------------------- #
        candidates = sorted(v for v in touched if self.cover[v])
        paying = [(key, pay) for key, pay in outcome.events if pay > 0.0]
        if paying:
            dual_u = np.asarray([k[0] for k, _ in paying], dtype=np.int64)
            dual_v = np.asarray([k[1] for k, _ in paying], dtype=np.int64)
            dual_pay = np.asarray([p for _, p in paying], dtype=np.float64)
        else:
            dual_u = np.empty(0, np.int64)
            dual_v = np.empty(0, np.int64)
            dual_pay = np.empty(0, np.float64)
        responses2 = self.pool.broadcast(
            "finish_batch",
            {
                "dual_u": dual_u,
                "dual_v": dual_v,
                "dual_pay": dual_pay,
                "entered": sorted(outcome.entered),
                "candidates": candidates,
            },
        )
        pruned: List[int] = []
        shipment: Dict[int, Tuple[int, List[int]]] = {}
        for response in responses2:
            pruned.extend(response["pruned"])
            for v, deg, neigh in response["boundary"]:
                shipment[v] = (int(deg), neigh)
        for v in pruned:
            self.cover[v] = False
        boundary_pruned = greedy_prune_pass(
            sorted(shipment),
            weights=self.weights,
            cover=self.cover,
            view=PruneView(
                neighbors=lambda v: shipment[v][1],
                degree=lambda v: shipment[v][0],
            ),
        )
        pruned.extend(boundary_pruned)
        self.pending_clears = sorted(pruned)
        if profiling:
            now = time.perf_counter()
            prune_s, t_mark = now - t_mark, now

        self.batches_applied += 1
        self.updates_applied += len(batch)
        self.batches_since += 1
        cert = self.certificate()
        report = BatchReport(
            num_updates=len(batch),
            applied=applied,
            inserts=inserts,
            deletes=deletes,
            reweights=reweights,
            repaired_edges=outcome.repaired,
            added_to_cover=len(outcome.entered),
            pruned_from_cover=len(pruned),
            retired_dual=retired,
            certificate=cert,
            drift=self.drift(cert.certified_ratio),
        )
        self.repair_s += time.perf_counter() - t1
        if profiling:
            certificate_s = time.perf_counter() - t_mark
            batch_profile = {
                "adjacency_s": adjacency_s,
                "repair_s": repair_kernel_s,
                "prune_s": prune_s,
                "certificate_s": certificate_s,
            }
            for key, value in batch_profile.items():
                self.profile_acc[key] += value
            self.last_batch_profile = batch_profile

        decision = self.policy.should_resolve(
            certified_ratio=cert.certified_ratio,
            base_ratio=self.base_ratio,
            batches_since_resolve=self.batches_since,
        )
        hit = False
        if decision:
            hit = self.resolve()
            self.batches_since = 0
        if self.verify_every and (index + 1) % self.verify_every == 0:
            if not self.verify():  # pragma: no cover - invariant guard
                raise RuntimeError(
                    f"invalid cover after batch {index} — sharded engine bug"
                )
        record = StreamRecord(
            batch_index=index,
            report=report,
            resolved=bool(decision),
            resolve_reason=decision.reason,
            resolve_cache_hit=hit,
            certified_ratio_after=self.certificate().certified_ratio,
            elapsed_s=time.perf_counter() - t_start,
            kernel_profile=self.last_batch_profile if profiling else None,
        )
        self.records.append(record)
        if (
            self.checkpoint is not None
            and (index + 1) % self.checkpoint.snapshot_every == 0
        ):
            self.write_snapshot(index + 1)
        return record

    # -- the summary -------------------------------------------------------- #
    def summarize(
        self,
        *,
        num_updates: int,
        elapsed_s: float,
        resumed_from_batch: Optional[int] = None,
        recovered_torn_tail: bool = False,
        snapshot_fallbacks: int = 0,
    ) -> StreamSummary:
        cert = self.certificate()
        return StreamSummary(
            num_updates=num_updates,
            num_batches=len(self.records),
            num_resolves=self.num_resolves,
            num_resolve_cache_hits=self.cache_hits,
            final_cover_weight=cert.cover_weight,
            final_dual_value=cert.dual_value,
            final_certified_ratio=cert.certified_ratio,
            final_is_cover=self.verify(),
            elapsed_s=elapsed_s,
            records=self.records,
            final_cover=self.cover.copy(),
            resumed_from_batch=resumed_from_batch,
            ingest_s=self.ingest_s,
            repair_s=self.repair_s,
            resolve_s=self.resolve_s,
            kernel_profile=dict(self.profile_acc) if self.profile_enabled else None,
            recovered_torn_tail=recovered_torn_tail,
            snapshot_fallbacks=snapshot_fallbacks,
        )


def run_sharded_stream(
    graph: WeightedGraph,
    updates,
    *,
    num_shards: int,
    partition: str = "hash",
    partition_seed: int = 0,
    batch_size: int = 64,
    policy: Optional[ResolvePolicy] = None,
    solver: Optional[BatchSolver] = None,
    eps: float = 0.1,
    seed: int = 0,
    engine: str = "vectorized",
    verify_every: int = 0,
    checkpoint: Optional[CheckpointConfig] = None,
    use_processes: bool = True,
    profile: bool = False,
) -> StreamSummary:
    """Maintain a certified cover with partition-parallel shard workers.

    The sharded counterpart of :func:`repro.dynamic.stream.run_stream` —
    same parameters plus the shard layout, same wire schema out, and
    bit-identical covers/records for any ``num_shards`` (including 1).

    Parameters
    ----------
    updates:
        Anything :func:`repro.dynamic.ingest.open_update_source` accepts —
        an in-memory sequence, a JSON-lines file, or a directory of
        segment files.
    num_shards, partition, partition_seed:
        Shard layout: the vertex space is split by
        :func:`repro.mpc.partition.make_partition` and recorded in the
        checkpoint config, so a resumed run re-derives it exactly.
    use_processes:
        Run each shard in its own worker process (one single-worker pool
        per shard).  ``False`` keeps shards in-process — bit-identical,
        no parallelism; the right mode on one core and under test.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    updates = open_update_source(updates).collect()
    policy = policy or ResolvePolicy()
    if checkpoint is not None:
        _prepare_checkpoint_dir(
            checkpoint,
            graph,
            updates,
            batch_size=batch_size,
            policy=policy,
            eps=eps,
            seed=seed,
            engine=engine,
            verify_every=verify_every,
            # Not used by the sharded engine (shards keep dict adjacency),
            # but stored valid so tooling reading the config never chokes.
            compact_fraction=0.25,
            extra_config={
                "shards": int(num_shards),
                "partition": str(partition),
                "partition_seed": int(partition_seed),
            },
        )
    own_solver = solver is None
    if own_solver:
        solver = BatchSolver(use_processes=False)

    start = time.perf_counter()
    assignment = make_partition(
        partition, graph.n, num_shards, seed=partition_seed
    )
    cover = np.zeros(graph.n, dtype=bool)
    if graph.m:
        # Mirror the maintainer's bootstrap: a nonempty graph has no valid
        # empty cover, so start from all-vertices until the initial solve.
        cover[:] = True
    inits = _build_shard_inits(
        graph.edges_u,
        graph.edges_v,
        assignment,
        num_shards,
        graph.weights,
        cover,
        {},
    )
    pool = ShardPool(inits, use_processes=use_processes)
    try:
        wal = (
            WriteAheadLog(checkpoint.wal_path, fsync=checkpoint.fsync)
            if checkpoint is not None
            else None
        )
    except BaseException:
        pool.close()
        if own_solver:
            solver.close()
        raise
    engine_ = _ShardedEngine(
        n=graph.n,
        num_shards=num_shards,
        partition=partition,
        partition_seed=partition_seed,
        assignment=assignment,
        pool=pool,
        policy=policy,
        solver=solver,
        eps=eps,
        seed=seed,
        engine=engine,
        verify_every=verify_every,
        checkpoint=checkpoint,
        wal=wal,
        weights=graph.weights,
        cover=cover,
        loads=np.zeros(graph.n, dtype=np.float64),
        profile=profile,
    )
    try:
        if graph.m:
            engine_.resolve(graph=graph)
        engine_.write_snapshot(0)
        for index, batch in enumerate(_batches(updates, batch_size)):
            engine_.process_batch(index, batch, log_to_wal=True)
        engine_.write_snapshot(len(engine_.records))
        return engine_.summarize(
            num_updates=len(updates), elapsed_s=time.perf_counter() - start
        )
    finally:
        if engine_.wal is not None:
            engine_.wal.close()
        pool.close()
        if own_solver:
            solver.close()


def resume_sharded_stream(
    directory: PathLike,
    *,
    updates=None,
    solver: Optional[BatchSolver] = None,
    use_processes: bool = True,
    profile: bool = False,
) -> StreamSummary:
    """Resume a checkpointed sharded stream after a crash (or completion).

    The sharded counterpart of
    :func:`repro.dynamic.stream.resume_stream`: restore the newest intact
    snapshot generation (older generations are fallbacks under
    ``keep_snapshots``; a missing snapshot cold-starts from ``graph.npz``),
    re-derive the shard layout from the stored partition parameters,
    replay the committed WAL tail through the exact per-batch machinery —
    verifying each record's combined state stamp — and finish the stream.
    """
    config = _load_config(CheckpointConfig(directory=directory))
    if "shards" not in config:
        raise CheckpointError(
            f"checkpoint {os.fspath(directory)} holds a monolithic stream; "
            f"resume it with repro.dynamic.resume_stream"
        )
    num_shards = int(config["shards"])
    partition = str(config.get("partition", "hash"))
    partition_seed = int(config.get("partition_seed", 0))
    if updates is not None:
        updates = open_update_source(updates).collect()
    checkpoint, policy, batch_size, updates, wal_records, torn = _resume_setup(
        directory, config, updates
    )

    own_solver = solver is None
    if own_solver:
        solver = BatchSolver(use_processes=False)
    start = time.perf_counter()
    pool = None
    engine_ = None
    try:
        restored, fallbacks = _restore_latest(checkpoint)
        initial_graph = None
        if restored is not None:
            n = int(restored.manifest["n"])
            if int(restored.manifest["num_shards"]) != num_shards:
                raise CheckpointError(
                    f"snapshot was taken with {restored.manifest['num_shards']} "
                    f"shards but the checkpoint config says {num_shards}"
                )
            weights = restored.weights
            cover = restored.cover
            loads = restored.loads
            dual_value = restored.dual_value
            base_ratio = restored.base_ratio
            batches_applied = restored.batches_applied
            edges_u, edges_v = restored.edges_u, restored.edges_v
            duals = restored.duals
            extra = restored.manifest.get("extra", {})
            next_index = int(extra.get("next_batch_index", 0))
            cold_start = False
        else:
            # No snapshot survived — rebuild from the initial graph and
            # replay the WAL from the beginning.
            try:
                initial_graph = load_npz(checkpoint.graph_path)
            except FileNotFoundError:
                raise CheckpointError(
                    f"checkpoint {os.fspath(directory)} has neither a "
                    f"snapshot nor the initial graph (graph.npz); nothing "
                    f"to restore"
                ) from None
            except Exception as exc:
                raise CheckpointError(
                    f"{checkpoint.graph_path} is unreadable ({exc}); the "
                    f"checkpoint cannot cold-start without it"
                ) from exc
            if initial_graph.content_digest() != config.get("graph_digest"):
                raise CheckpointError(
                    f"{checkpoint.graph_path} does not match the "
                    f"checkpointed run's graph digest"
                )
            n = initial_graph.n
            weights = np.array(initial_graph.weights, dtype=np.float64)
            cover = np.zeros(n, dtype=bool)
            if initial_graph.m:
                cover[:] = True
            loads = np.zeros(n, dtype=np.float64)
            dual_value = 0.0
            base_ratio = None
            batches_applied = 0
            edges_u, edges_v = initial_graph.edges_u, initial_graph.edges_v
            duals = {}
            extra = {}
            next_index = 0
            cold_start = True

        assignment = make_partition(partition, n, num_shards, seed=partition_seed)
        inits = _build_shard_inits(
            edges_u, edges_v, assignment, num_shards, weights, cover, duals
        )
        pool = ShardPool(inits, use_processes=use_processes)
        engine_ = _ShardedEngine(
            n=n,
            num_shards=num_shards,
            partition=partition,
            partition_seed=partition_seed,
            assignment=assignment,
            pool=pool,
            policy=policy,
            solver=solver,
            eps=float(config["eps"]),
            seed=int(config["seed"]),
            engine=str(config["engine"]),
            verify_every=int(config["verify_every"]),
            checkpoint=checkpoint,
            wal=None,  # replay first; the WAL reopens for the continuation
            weights=weights,
            cover=cover,
            loads=loads,
            dual_value=dual_value,
            base_ratio=base_ratio,
            batches_applied=batches_applied,
            profile=profile,
        )
        engine_.restore_counters(extra)
        resumed_from = next_index
        updates_at_restore = engine_.updates_applied
        if cold_start and initial_graph is not None and initial_graph.m:
            engine_.resolve(graph=initial_graph)

        # ---- replay the committed WAL tail ---------------------------- #
        tail = [r for r in wal_records if r.batch_index >= next_index]
        expected = next_index
        for record in tail:
            if record.batch_index != expected:
                raise CheckpointError(
                    f"WAL gap: expected batch {expected}, found "
                    f"{record.batch_index} — the snapshot cannot bridge it"
                )
            engine_.process_batch(
                expected,
                list(record.updates),
                log_to_wal=False,
                expect_digest=record.state_digest or None,
            )
            expected += 1
        if engine_.updates_applied > len(updates):
            raise CheckpointError(
                f"WAL replay consumed {engine_.updates_applied} updates but "
                f"the stream holds only {len(updates)}"
            )

        # ---- continue with the uncommitted remainder ------------------ #
        engine_.wal = WriteAheadLog(checkpoint.wal_path, fsync=checkpoint.fsync)
        remainder = updates[engine_.updates_applied :]
        next_index = expected
        for offset, batch in enumerate(_batches(remainder, batch_size)):
            engine_.process_batch(expected + offset, batch, log_to_wal=True)
            next_index = expected + offset + 1
        engine_.write_snapshot(next_index)
        return engine_.summarize(
            num_updates=engine_.updates_applied - updates_at_restore,
            elapsed_s=time.perf_counter() - start,
            resumed_from_batch=resumed_from,
            recovered_torn_tail=torn,
            snapshot_fallbacks=fallbacks,
        )
    finally:
        if engine_ is not None and engine_.wal is not None:
            engine_.wal.close()
        if pool is not None:
            pool.close()
        if own_solver:
            solver.close()


def _restore_latest(checkpoint: CheckpointConfig):
    """Newest intact sharded snapshot (or ``None``), and fallbacks taken."""
    return _newest_intact(
        list_sharded_snapshots(checkpoint.directory),
        load_sharded_snapshot,
        checkpoint.directory,
    )
