"""End-to-end stream processing: maintainer + policy + batch service.

:func:`run_stream` is the orchestration layer behind ``repro stream``: it
chops an update stream into batches, drives
:class:`~repro.dynamic.IncrementalCoverMaintainer` over them, evaluates the
:class:`~repro.dynamic.ResolvePolicy` after each batch, and executes
triggered re-solves through a :class:`~repro.service.BatchSolver`.

Re-solves are *warm-started at the service layer*: the request is keyed by
the compacted graph's content digest, so a graph state seen before (e.g.
sliding-window churn that returns to a previous window, or replaying a
stream) is answered from the result cache without touching the solver.

Every batch yields a :class:`StreamRecord` (JSON-friendly), and the final
state is verified exactly against the materialized graph before the
summary is returned — ``run_stream`` never hands back an unverified cover.

Durability (``repro stream --checkpoint-dir`` / ``repro resume``)
-----------------------------------------------------------------
With a :class:`CheckpointConfig`, ``run_stream`` makes the whole run
crash-recoverable.  The checkpoint directory holds:

* ``config.json`` — the run parameters (batch size, solve params, policy)
  written once up front, so ``resume`` needs no flags re-specified;
* ``graph.npz`` + ``updates.npz`` — the initial graph and the full update
  stream (the replay sources), the stream as the columnar arrays of
  :class:`~repro.graphs.updates.UpdateColumns`;
* ``wal.jsonl`` — the write-ahead log: every batch is validated, then
  committed (fsync'd, CRC-checked, version-2 columnar records, stamped
  with the pre-apply :meth:`DynamicGraph.state_stamp`) *before* it is
  applied (:mod:`repro.dynamic.wal`);
* ``snapshot.npz`` (or ``snapshot-<batch>.npz`` under ``keep_snapshots >
  1``) — maintainer snapshots in format version 3, rewritten atomically
  every ``snapshot_every`` batches (:mod:`repro.dynamic.checkpoint`).

Directories written before this layout hold ``updates.jsonl`` instead of
``updates.npz`` (their ``config.json`` names no ``updates_file``),
version-1 WAL records stamped with SHA-256 content digests, and
version-2 snapshots.  They resume exactly: each piece is read in its own
format, each record's stamp is checked in its own flavor, and the
continuation appends version-2 records to the same log.

:func:`resume_stream` restores ``last snapshot + WAL tail replay`` and
continues the run.  Because every component is deterministic — the
maintainer's repair pass, the policy, and the seeded solver — a resumed
run reproduces the uninterrupted run's cover mask and certificate exactly,
whatever batch boundary the process died at (the property
``tests/recovery`` enforces).
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dynamic.checkpoint import (
    CheckpointCorruptionError,
    CheckpointError,
    load_snapshot,
    save_snapshot,
)
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.ingest import iter_update_batches
from repro.dynamic.maintainer import BatchReport, IncrementalCoverMaintainer
from repro.dynamic.policy import ResolvePolicy
from repro.dynamic.wal import WriteAheadLog, compact_wal, read_wal, repair_wal
from repro.graphs.graph import WeightedGraph
from repro.graphs.io import load_npz, save_npz, write_bytes_atomic
from repro.graphs.updates import (
    GraphUpdate,
    load_update_stream,
    save_update_stream,
)
from repro.service.batch import BatchSolver
from repro.service.schema import SolveRequest

__all__ = [
    "CONFIG_FORMAT_VERSION",
    "CheckpointConfig",
    "StreamRecord",
    "StreamSummary",
    "resume_stream",
    "run_stream",
]

PathLike = Union[str, "os.PathLike[str]"]

#: Version gate of ``config.json`` in a checkpoint directory.
CONFIG_FORMAT_VERSION = 1

_CONFIG_FILE = "config.json"
_GRAPH_FILE = "graph.npz"
_UPDATES_FILE = "updates.npz"
#: The stream copy of directories whose config names no ``updates_file``.
_LEGACY_UPDATES_FILE = "updates.jsonl"
_WAL_FILE = "wal.jsonl"
_SNAPSHOT_FILE = "snapshot.npz"
_SNAPSHOT_FILE_GZ = "snapshot.npz.gz"


@dataclass(frozen=True)
class CheckpointConfig:
    """Durability policy of a checkpointed :func:`run_stream`.

    Attributes
    ----------
    directory:
        Checkpoint directory (created if needed; must not already hold a
        stream — resume one with :func:`resume_stream` instead).
    snapshot_every:
        Write a fresh snapshot every this many batches.  Smaller values
        shorten recovery replay; larger values cost less I/O.  A snapshot
        is always written right after the initial solve and at stream end.
    fsync:
        Flush WAL records and snapshots to disk at commit time.  Keep on
        for crash-consistency against power loss; turning it off still
        survives process kills (buffers are flushed per batch).
    compress:
        gzip-wrap snapshots (``snapshot.npz.gz``).
    snapshot_compression:
        Compression of the NPZ array members inside a snapshot:
        ``"gzip"`` (deflate at level 1, the default; weights and loads
        are stored either way) or ``"none"`` (stored).  ``"none"`` trades
        file size for write speed.  Recorded in ``config.json`` so a
        resumed run keeps the same policy.
    stamp_digests:
        Stamp each WAL record with the pre-apply
        :meth:`DynamicGraph.state_stamp` so replay verifies, record by
        record, that it rebuilds the exact state the original run saw.
        Costs O(delta + n) per batch — the base edges are hashed once
        per compaction — never an O(m) pass.
    keep_snapshots:
        Retain the last this-many snapshots instead of one.  With ``1``
        (the default) the single ``snapshot.npz`` is overwritten in place,
        exactly the pre-rotation behavior.  With ``k > 1`` snapshots are
        written as ``snapshot-<batch>.npz`` and older files beyond ``k``
        are pruned after each commit; :func:`resume_stream` restores the
        newest snapshot that passes integrity checks, falling back to an
        older one when the newest is corrupt.
    compact_wal:
        After each committed snapshot, drop WAL records older than the
        *oldest retained* snapshot (they can never be replayed again), so
        an unbounded stream keeps a bounded log.  ``repro wal-compact``
        performs the same truncation offline.
    """

    directory: PathLike
    snapshot_every: int = 8
    fsync: bool = True
    compress: bool = False
    stamp_digests: bool = True
    keep_snapshots: int = 1
    compact_wal: bool = False
    snapshot_compression: str = "gzip"

    def __post_init__(self):
        if self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.keep_snapshots < 1:
            raise ValueError(
                f"keep_snapshots must be >= 1, got {self.keep_snapshots}"
            )
        if self.snapshot_compression not in ("gzip", "none"):
            raise ValueError(
                f"snapshot_compression must be 'gzip' or 'none', got "
                f"{self.snapshot_compression!r}"
            )

    @property
    def compress_arrays(self) -> bool:
        """True iff snapshot NPZ members are deflate-compressed."""
        return self.snapshot_compression != "none"

    @property
    def config_path(self) -> str:
        return os.path.join(os.fspath(self.directory), _CONFIG_FILE)

    @property
    def graph_path(self) -> str:
        return os.path.join(os.fspath(self.directory), _GRAPH_FILE)

    @property
    def updates_path(self) -> str:
        return os.path.join(os.fspath(self.directory), _UPDATES_FILE)

    @property
    def wal_path(self) -> str:
        return os.path.join(os.fspath(self.directory), _WAL_FILE)

    @property
    def snapshot_path(self) -> str:
        name = _SNAPSHOT_FILE_GZ if self.compress else _SNAPSHOT_FILE
        return os.path.join(os.fspath(self.directory), name)

    def numbered_snapshot_path(self, next_batch_index: int) -> str:
        """Rotated snapshot filename for ``keep_snapshots > 1`` runs."""
        suffix = ".npz.gz" if self.compress else ".npz"
        return os.path.join(
            os.fspath(self.directory),
            f"snapshot-{int(next_batch_index):08d}{suffix}",
        )

    def list_snapshots(self) -> List[Tuple[int, str]]:
        """Available snapshots, newest first: ``(next_batch_index, path)``.

        Numbered (rotated) snapshots sort by their batch position; the
        legacy single ``snapshot.npz`` sorts last (position ``-1``) so a
        run upgraded from ``keep_snapshots=1`` still prefers its newer
        rotated files.
        """
        directory = os.fspath(self.directory)
        out: List[Tuple[int, str]] = []
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        pattern = re.compile(r"^snapshot-(\d{8,})\.npz(?:\.gz)?$")
        for name in names:
            match = pattern.match(name)
            if match:
                out.append((int(match.group(1)), os.path.join(directory, name)))
        out.sort(reverse=True)
        for legacy in (_SNAPSHOT_FILE, _SNAPSHOT_FILE_GZ):
            if legacy in names:
                out.append((-1, os.path.join(directory, legacy)))
        return out


@dataclass(frozen=True)
class StreamRecord:
    """One processed batch: maintainer report + policy outcome + timing.

    ``kernel_profile`` (``--profile`` runs only) is this batch's kernel
    timing breakdown — repair / prune / adjacency / certificate seconds —
    so per-batch regressions are attributable, not just wall clock.
    """

    batch_index: int
    report: BatchReport
    resolved: bool
    resolve_reason: str
    resolve_cache_hit: bool
    certified_ratio_after: float
    elapsed_s: float
    kernel_profile: Optional[dict] = None

    def summary(self) -> dict:
        """Flat JSON-friendly row (one line of ``repro stream --out``)."""
        row = {"batch_index": self.batch_index}
        row.update(self.report.summary())
        row.update(
            {
                "resolved": self.resolved,
                "resolve_reason": self.resolve_reason,
                "resolve_cache_hit": self.resolve_cache_hit,
                "certified_ratio_after": self.certified_ratio_after,
                "elapsed_s": round(self.elapsed_s, 6),
            }
        )
        if self.kernel_profile is not None:
            row["kernel_profile"] = {
                k: round(v, 6) for k, v in self.kernel_profile.items()
            }
        return row


@dataclass
class StreamSummary:
    """Aggregate outcome of :func:`run_stream` / :func:`resume_stream`.

    ``num_updates``/``num_batches`` count the work performed by *this*
    invocation — for a resumed run that is the WAL tail replay plus the
    continuation, not the batches already folded into the restored
    snapshot.  ``final_cover`` is the maintained cover mask itself
    (excluded from ``summary()``; written by ``--cover-out``).

    ``ingest_s``/``repair_s``/``resolve_s`` split the wall clock: time
    spent getting updates into the engine (WAL commits), time spent
    applying/repairing/pruning (the incremental path), and time spent in
    triggered full re-solves.
    The three do not sum to ``elapsed_s`` — verification, snapshots and
    bookkeeping are outside all three buckets.

    A resumed run also says what recovery had to do:
    ``recovered_torn_tail`` is True when an uncommitted record cut
    mid-write was dropped from the WAL, and ``snapshot_fallbacks`` counts
    the newer snapshots that failed integrity checks and were passed over.

    ``kernel_profile`` (``profile=True`` runs only) splits ``repair_s``
    further by kernel: adjacency maintenance, pricing repair, greedy
    prune, and certificate computation, summed over every batch.
    """

    num_updates: int
    num_batches: int
    num_resolves: int
    num_resolve_cache_hits: int
    final_cover_weight: float
    final_dual_value: float
    final_certified_ratio: float
    final_is_cover: bool
    elapsed_s: float
    records: List[StreamRecord] = field(repr=False, default_factory=list)
    final_cover: Optional[np.ndarray] = field(repr=False, default=None)
    resumed_from_batch: Optional[int] = None
    ingest_s: float = 0.0
    repair_s: float = 0.0
    resolve_s: float = 0.0
    kernel_profile: Optional[dict] = None
    recovered_torn_tail: bool = False
    snapshot_fallbacks: int = 0

    def summary(self) -> dict:
        """Scalar JSON-friendly summary (the ``repro stream`` footer)."""
        row = {
            "num_updates": self.num_updates,
            "num_batches": self.num_batches,
            "num_resolves": self.num_resolves,
            "num_resolve_cache_hits": self.num_resolve_cache_hits,
            "final_cover_weight": self.final_cover_weight,
            "final_dual_value": self.final_dual_value,
            "final_certified_ratio": self.final_certified_ratio,
            "final_is_cover": self.final_is_cover,
            "elapsed_s": round(self.elapsed_s, 6),
            "ingest_s": round(self.ingest_s, 6),
            "repair_s": round(self.repair_s, 6),
            "resolve_s": round(self.resolve_s, 6),
        }
        if self.kernel_profile is not None:
            row["kernel_profile"] = {
                k: round(v, 6) for k, v in self.kernel_profile.items()
            }
        if self.resumed_from_batch is not None:
            row["resumed_from_batch"] = self.resumed_from_batch
            row["recovered_torn_tail"] = self.recovered_torn_tail
            row["snapshot_fallbacks"] = self.snapshot_fallbacks
        return row


class _StreamEngine:
    """Shared per-batch machinery of ``run_stream`` and ``resume_stream``.

    Owns the mutable counters (stream position, cooldown, re-solve tally)
    and performs one batch end-to-end: optional WAL commit *before* the
    state mutation, repair, policy evaluation, triggered re-solve,
    periodic verification, record keeping, and periodic snapshots.
    """

    def __init__(
        self,
        maintainer: IncrementalCoverMaintainer,
        policy: ResolvePolicy,
        solver: BatchSolver,
        *,
        eps: float,
        seed: int,
        engine: str,
        verify_every: int,
        checkpoint: Optional[CheckpointConfig] = None,
        wal: Optional[WriteAheadLog] = None,
    ):
        self.maintainer = maintainer
        self.policy = policy
        self.solver = solver
        self.eps = eps
        self.seed = seed
        self.engine = engine
        self.verify_every = verify_every
        self.checkpoint = checkpoint
        self.wal = wal
        self.records: List[StreamRecord] = []
        self.num_resolves = 0
        self.cache_hits = 0
        self.batches_since = 0
        self.updates_applied = 0
        self.ingest_s = 0.0
        self.repair_s = 0.0
        self.resolve_s = 0.0

    # -- state restored from a snapshot's extra counters ---------------- #
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

    # -- the solve path -------------------------------------------------- #
    def resolve(self) -> bool:
        """Full re-solve through the service; returns cache-hit flag."""
        t0 = time.perf_counter()
        graph = self.maintainer.dyn.compact()
        request = SolveRequest(
            graph=graph, eps=self.eps, seed=self.seed, engine=self.engine
        )
        result = self.solver.solve(request)
        if not result.ok or result.result is None:
            raise RuntimeError(f"re-solve failed: {result.error}")
        self.maintainer.adopt(result.result, graph=graph)
        self.num_resolves += 1
        self.cache_hits += int(result.cache_hit)
        self.resolve_s += time.perf_counter() - t0
        return result.cache_hit

    # -- durability ------------------------------------------------------ #
    def write_snapshot(self, next_batch_index: int) -> None:
        if self.checkpoint is None:
            return
        checkpoint = self.checkpoint
        if checkpoint.keep_snapshots == 1:
            path = checkpoint.snapshot_path
        else:
            path = checkpoint.numbered_snapshot_path(next_batch_index)
        save_snapshot(
            path,
            self.maintainer,
            extra=self.counters(next_batch_index),
            fsync=checkpoint.fsync,
            compress_arrays=checkpoint.compress_arrays,
        )
        retained_floor = next_batch_index
        if checkpoint.keep_snapshots > 1:
            snapshots = checkpoint.list_snapshots()
            numbered = [(i, p) for i, p in snapshots if i >= 0]
            for _, stale in numbered[checkpoint.keep_snapshots :]:
                os.remove(stale)
            retained = numbered[: checkpoint.keep_snapshots]
            if retained:
                retained_floor = min(i for i, _ in retained)
        if checkpoint.compact_wal and self.wal is not None:
            # The append handle points at the pre-rewrite inode: close it
            # around the atomic rewrite and reopen on the new file.
            self.wal.close()
            compact_wal(checkpoint.wal_path, retained_floor, fsync=checkpoint.fsync)
            self.wal = WriteAheadLog(checkpoint.wal_path, fsync=checkpoint.fsync)

    # -- one batch ------------------------------------------------------- #
    def process_batch(
        self, index: int, batch: List[GraphUpdate], *, log_to_wal: bool
    ) -> StreamRecord:
        if log_to_wal and self.wal is not None:
            t_wal = time.perf_counter()
            dyn = self.maintainer.dyn
            stamping = self.checkpoint is not None and self.checkpoint.stamp_digests
            # Validated against the graph before anything is written; the
            # stamp is taken only for a batch that passed.
            self.wal.append(
                index,
                batch,
                state_digest=dyn.state_stamp if stamping else "",
                num_vertices=dyn.n,
                position=self.updates_applied,
            )
            self.ingest_s += time.perf_counter() - t_wal
        t0 = time.perf_counter()
        report = self.maintainer.apply_batch(batch)
        self.repair_s += time.perf_counter() - t0
        self.updates_applied += len(batch)
        self.batches_since += 1
        decision = self.policy.should_resolve(
            certified_ratio=report.certificate.certified_ratio,
            base_ratio=self.maintainer.base_ratio,
            batches_since_resolve=self.batches_since,
        )
        hit = False
        if decision:
            hit = self.resolve()
            self.batches_since = 0
        if self.verify_every and (index + 1) % self.verify_every == 0:
            if not self.maintainer.verify():  # pragma: no cover - invariant guard
                raise RuntimeError(
                    f"invalid cover after batch {index} — maintainer bug"
                )
        record = StreamRecord(
            batch_index=index,
            report=report,
            resolved=bool(decision),
            resolve_reason=decision.reason,
            resolve_cache_hit=hit,
            certified_ratio_after=self.maintainer.certified_ratio(),
            elapsed_s=time.perf_counter() - t0,
            kernel_profile=self.maintainer.last_batch_profile,
        )
        self.records.append(record)
        if (
            self.checkpoint is not None
            and (index + 1) % self.checkpoint.snapshot_every == 0
        ):
            self.write_snapshot(index + 1)
        return record

    # -- the summary ----------------------------------------------------- #
    def summarize(
        self,
        *,
        num_updates: int,
        elapsed_s: float,
        resumed_from_batch: Optional[int] = None,
        recovered_torn_tail: bool = False,
        snapshot_fallbacks: int = 0,
    ) -> StreamSummary:
        cert = self.maintainer.certificate()
        return StreamSummary(
            num_updates=num_updates,
            num_batches=len(self.records),
            num_resolves=self.num_resolves,
            num_resolve_cache_hits=self.cache_hits,
            final_cover_weight=cert.cover_weight,
            final_dual_value=cert.dual_value,
            final_certified_ratio=cert.certified_ratio,
            final_is_cover=self.maintainer.verify(),
            elapsed_s=elapsed_s,
            records=self.records,
            final_cover=self.maintainer.cover,
            resumed_from_batch=resumed_from_batch,
            ingest_s=self.ingest_s,
            repair_s=self.repair_s,
            resolve_s=self.resolve_s,
            kernel_profile=self.maintainer.kernel_profile,
            recovered_torn_tail=recovered_torn_tail,
            snapshot_fallbacks=snapshot_fallbacks,
        )


def _write_config(
    checkpoint: CheckpointConfig,
    graph: WeightedGraph,
    updates: Sequence[GraphUpdate],
    *,
    batch_size: int,
    policy: ResolvePolicy,
    eps: float,
    seed: int,
    engine: str,
    verify_every: int,
    compact_fraction: float,
) -> None:
    config = {
        "format_version": CONFIG_FORMAT_VERSION,
        "batch_size": int(batch_size),
        "eps": float(eps),
        "seed": int(seed),
        "engine": str(engine),
        "verify_every": int(verify_every),
        "compact_fraction": float(compact_fraction),
        "policy": asdict(policy),
        "snapshot_every": int(checkpoint.snapshot_every),
        "fsync": bool(checkpoint.fsync),
        "stamp_digests": bool(checkpoint.stamp_digests),
        "compress": bool(checkpoint.compress),
        "keep_snapshots": int(checkpoint.keep_snapshots),
        "compact_wal": bool(checkpoint.compact_wal),
        "snapshot_compression": str(checkpoint.snapshot_compression),
        "num_updates": len(updates),
        "updates_file": _UPDATES_FILE,
        "graph_digest": graph.content_digest(),
        "snapshot_file": os.path.basename(checkpoint.snapshot_path),
    }
    write_bytes_atomic(
        checkpoint.config_path,
        (json.dumps(config, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        fsync=checkpoint.fsync,
    )


def _prepare_checkpoint_dir(
    checkpoint: CheckpointConfig,
    graph: WeightedGraph,
    updates: Sequence[GraphUpdate],
    **config_params,
) -> None:
    directory = os.fspath(checkpoint.directory)
    os.makedirs(directory, exist_ok=True)
    if os.path.exists(checkpoint.config_path):
        raise CheckpointError(
            f"checkpoint directory {directory} already holds a stream "
            f"(found {_CONFIG_FILE}); resume it with `repro resume` or "
            f"point --checkpoint-dir at a fresh directory"
        )
    save_npz(graph, checkpoint.graph_path)
    save_update_stream(updates, checkpoint.updates_path)
    _write_config(checkpoint, graph, updates, **config_params)


def run_stream(
    graph: WeightedGraph,
    updates: Sequence[GraphUpdate],
    *,
    batch_size: int = 64,
    policy: Optional[ResolvePolicy] = None,
    solver: Optional[BatchSolver] = None,
    eps: float = 0.1,
    seed: int = 0,
    engine: str = "vectorized",
    verify_every: int = 0,
    compact_fraction: float = 0.25,
    checkpoint: Optional[CheckpointConfig] = None,
    profile: bool = False,
) -> StreamSummary:
    """Maintain a certified cover over ``graph`` while replaying ``updates``.

    Parameters
    ----------
    graph:
        Initial graph; solved once up front to seed the maintainer.
    updates:
        The update stream (see :mod:`repro.graphs.updates`).
    batch_size:
        Updates per repair batch (the granularity of policy evaluation).
    policy:
        Re-solve trigger; defaults to ``ResolvePolicy()`` (25% drift).
    solver:
        Batch service used for the initial solve and all re-solves; a
        private in-process solver is created (and closed) when omitted.
    eps, seed, engine:
        Solve parameters forwarded to every :class:`SolveRequest` — they
        are part of the cache key, so a replay with equal parameters is
        answered from cache.
    verify_every:
        When > 0, exactly re-verify the cover against the materialized
        graph every k batches (defense in depth; the final state is always
        verified).
    compact_fraction:
        Delta-log compaction threshold of the underlying
        :class:`DynamicGraph`.
    checkpoint:
        When given, make the run durable: write-ahead-log every batch and
        snapshot periodically into ``checkpoint.directory`` so a killed
        process can be picked up by :func:`resume_stream` at the exact
        state it died in.
    profile:
        Collect the per-batch kernel timing breakdown (repair / prune /
        adjacency / certificate) into every record and the summary's
        ``kernel_profile`` (``repro stream --profile``).

    Raises
    ------
    RuntimeError
        If a re-solve fails, or a verification pass catches an invalid
        cover (which would be a maintainer bug, not a data error).
    CheckpointError
        If the checkpoint directory already holds a stream.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
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
            compact_fraction=compact_fraction,
        )
    own_solver = solver is None
    if own_solver:
        solver = BatchSolver(use_processes=False)

    start = time.perf_counter()
    dyn = DynamicGraph(graph, compact_fraction=compact_fraction)
    maintainer = IncrementalCoverMaintainer(dyn, profile=profile)
    wal = (
        WriteAheadLog(checkpoint.wal_path, fsync=checkpoint.fsync)
        if checkpoint is not None
        else None
    )
    engine_ = _StreamEngine(
        maintainer,
        policy,
        solver,
        eps=eps,
        seed=seed,
        engine=engine,
        verify_every=verify_every,
        checkpoint=checkpoint,
        wal=wal,
    )
    try:
        if graph.m:
            engine_.resolve()
        engine_.write_snapshot(0)
        for index, batch in enumerate(iter_update_batches(updates, batch_size)):
            engine_.process_batch(index, batch, log_to_wal=True)
        engine_.write_snapshot(len(engine_.records))
    finally:
        if wal is not None:
            wal.close()
        if own_solver:
            solver.close()

    return engine_.summarize(
        num_updates=len(updates), elapsed_s=time.perf_counter() - start
    )


def _newest_intact(checkpoint: CheckpointConfig):
    """Load the newest snapshot that passes integrity checks.

    With ``keep_snapshots > 1`` a corrupt newest snapshot falls back to
    the next older one — that is what retaining history is *for*.  When
    every present snapshot is corrupt the aggregate corruption error is
    raised (a damaged checkpoint must fail loudly, never silently
    cold-start past it); version errors always raise immediately.
    Returns ``(restored, fallbacks)``: ``restored`` is ``None`` when no
    snapshots exist, ``fallbacks`` counts the corrupt newer snapshots
    passed over.
    """
    snapshots = checkpoint.list_snapshots()
    if not snapshots:
        return None, 0
    last_error: Optional[CheckpointCorruptionError] = None
    for fallbacks, (_, path) in enumerate(snapshots):
        try:
            return load_snapshot(path), fallbacks
        except CheckpointCorruptionError as exc:
            last_error = exc
    raise CheckpointCorruptionError(
        f"all {len(snapshots)} snapshot(s) in {os.fspath(checkpoint.directory)} "
        f"failed integrity checks; newest error: {last_error}"
    )


def _load_config(checkpoint: CheckpointConfig) -> dict:
    try:
        with open(checkpoint.config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(
            f"no stream checkpoint in {os.fspath(checkpoint.directory)} "
            f"(missing {_CONFIG_FILE})"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read {checkpoint.config_path}: {exc}") from exc
    version = config.get("format_version")
    if version != CONFIG_FORMAT_VERSION:
        raise CheckpointError(
            f"{checkpoint.config_path}: config format version {version!r} is "
            f"not supported (this build reads version {CONFIG_FORMAT_VERSION})"
        )
    if "shards" in config:
        raise CheckpointError(
            f"directory {os.fspath(checkpoint.directory)} holds a sharded "
            f"checkpoint ({config['shards']} shard(s)); this build no longer "
            f"resumes or compacts that format"
        )
    return config


def resume_stream(
    directory: PathLike,
    *,
    updates: Optional[Sequence[GraphUpdate]] = None,
    solver: Optional[BatchSolver] = None,
    profile: bool = False,
) -> StreamSummary:
    """Resume a checkpointed stream after a crash (or completion).

    Recovery procedure:

    1. read ``config.json`` (run parameters travel with the checkpoint —
       no flags to re-specify);
    2. repair a torn WAL tail (a record cut mid-write was never
       committed), then read the committed records;
    3. restore the latest snapshot — or, when the snapshot file is
       *missing*, cold-start from ``graph.npz`` and replay the WAL from
       batch 0 (a corrupt snapshot raises instead: a damaged checkpoint
       must never silently restore);
    4. replay the WAL records past the snapshot through the exact
       per-batch machinery of :func:`run_stream` (each record's pre-apply
       digest is verified when stamped);
    5. continue with the remaining updates from the stored stream,
       write-ahead-logging and snapshotting as usual.

    Determinism makes the result *exact*: the resumed run's final cover
    mask and certificate equal the uninterrupted run's.

    Parameters
    ----------
    directory:
        The checkpoint directory of the interrupted run.
    updates:
        Override the stored update stream (defaults to the directory's
        ``updates.npz``, or ``updates.jsonl`` in older directories).
    solver:
        Batch service for re-solves; a private in-process solver is
        created (and closed) when omitted.

    Raises
    ------
    CheckpointError
        Missing/invalid checkpoint pieces (no config, corrupt snapshot or
        WAL, a WAL gap the snapshot cannot bridge, or a stream/WAL state
        mismatch), or a checkpoint written by the removed sharded engine.
    """
    config = _load_config(CheckpointConfig(directory=directory))
    checkpoint = CheckpointConfig(
        directory=directory,
        snapshot_every=int(config["snapshot_every"]),
        fsync=bool(config.get("fsync", True)),
        compress=bool(config.get("compress", False)),
        stamp_digests=bool(config.get("stamp_digests", True)),
        keep_snapshots=int(config.get("keep_snapshots", 1)),
        compact_wal=bool(config.get("compact_wal", False)),
        snapshot_compression=str(config.get("snapshot_compression", "gzip")),
    )
    policy = ResolvePolicy(**config["policy"])
    batch_size = int(config["batch_size"])
    if updates is None:
        name = config.get("updates_file", _LEGACY_UPDATES_FILE)
        try:
            updates = load_update_stream(os.path.join(os.fspath(directory), name))
        except FileNotFoundError:
            raise CheckpointError(
                f"checkpoint {os.fspath(directory)} has no stored update "
                f"stream ({name}); pass the stream explicitly"
            ) from None
    if len(updates) != int(config["num_updates"]):
        raise CheckpointError(
            f"update stream length {len(updates)} does not match the "
            f"checkpointed run's {config['num_updates']}"
        )
    torn = repair_wal(checkpoint.wal_path)
    wal_records, _ = read_wal(checkpoint.wal_path)

    own_solver = solver is None
    if own_solver:
        solver = BatchSolver(use_processes=False)
    start = time.perf_counter()
    wal = None
    try:
        restored, fallbacks = _newest_intact(checkpoint)
        if restored is not None:
            maintainer = restored.maintainer
            maintainer.set_profiling(profile)
            restored.dyn.compact_fraction = float(config["compact_fraction"])
            extra = restored.meta.get("extra", {})
            next_index = int(extra.get("next_batch_index", 0))
            cold_start = False
        else:
            # No snapshot survived — rebuild from the initial graph and
            # replay the WAL from the beginning.
            try:
                graph = load_npz(checkpoint.graph_path)
            except FileNotFoundError:
                raise CheckpointError(
                    f"checkpoint {os.fspath(directory)} has neither a "
                    f"snapshot nor the initial graph ({_GRAPH_FILE}); "
                    f"nothing to restore"
                ) from None
            except Exception as exc:  # a damaged npz surfaces many shapes
                raise CheckpointError(
                    f"{checkpoint.graph_path} is unreadable ({exc}); the "
                    f"checkpoint cannot cold-start without it"
                ) from exc
            if graph.content_digest() != config.get("graph_digest"):
                raise CheckpointError(
                    f"{checkpoint.graph_path} does not match the "
                    f"checkpointed run's graph digest"
                )
            dyn = DynamicGraph(
                graph, compact_fraction=float(config["compact_fraction"])
            )
            maintainer = IncrementalCoverMaintainer(dyn, profile=profile)
            extra = {}
            next_index = 0
            cold_start = True

        engine_ = _StreamEngine(
            maintainer,
            policy,
            solver,
            eps=float(config["eps"]),
            seed=int(config["seed"]),
            engine=str(config["engine"]),
            verify_every=int(config["verify_every"]),
            checkpoint=checkpoint,
            wal=None,  # replay first; the WAL reopens for the continuation
        )
        engine_.restore_counters(extra)
        resumed_from = next_index
        updates_at_restore = engine_.updates_applied
        if cold_start and maintainer.dyn.m:
            engine_.resolve()

        # ---- replay the committed WAL tail ---------------------------- #
        tail = [r for r in wal_records if r.batch_index >= next_index]
        expected = next_index
        for record in tail:
            if record.batch_index != expected:
                raise CheckpointError(
                    f"WAL gap: expected batch {expected}, found "
                    f"{record.batch_index} — the snapshot cannot bridge it"
                )
            if record.state_digest:
                # Each record is checked in the stamp flavor it was written
                # with: version-1 records carry SHA-256 content digests.
                dyn = maintainer.dyn
                current = (
                    dyn.content_digest() if record.version == 1 else dyn.state_stamp()
                )
                if current != record.state_digest:
                    raise CheckpointError(
                        f"WAL batch {record.batch_index} was logged against "
                        f"graph state {record.state_digest[:12]}… but replay "
                        f"reached {current[:12]}… — snapshot/WAL/stream "
                        f"mismatch"
                    )
            engine_.process_batch(expected, list(record.updates), log_to_wal=False)
            expected += 1
        if engine_.updates_applied > len(updates):
            raise CheckpointError(
                f"WAL replay consumed {engine_.updates_applied} updates but "
                f"the stream holds only {len(updates)}"
            )

        # ---- continue with the uncommitted remainder ------------------ #
        wal = WriteAheadLog(checkpoint.wal_path, fsync=checkpoint.fsync)
        engine_.wal = wal
        remainder = updates[engine_.updates_applied :]
        next_index = expected
        for offset, batch in enumerate(iter_update_batches(remainder, batch_size)):
            engine_.process_batch(expected + offset, batch, log_to_wal=True)
            next_index = expected + offset + 1
        engine_.write_snapshot(next_index)
    finally:
        if wal is not None:
            wal.close()
        if own_solver:
            solver.close()

    return engine_.summarize(
        num_updates=engine_.updates_applied - updates_at_restore,
        elapsed_s=time.perf_counter() - start,
        resumed_from_batch=resumed_from,
        recovered_torn_tail=torn,
        snapshot_fallbacks=fallbacks,
    )
