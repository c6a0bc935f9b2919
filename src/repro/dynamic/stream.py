"""End-to-end stream processing: maintainer + policy + batch service.

:func:`run_stream` is the orchestration layer behind ``repro stream``: it
slices an :class:`~repro.graphs.updates.UpdateColumns` stream into batches
(views of its arrays), validates each whole batch before any of it is
logged or applied, drives
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
  committed (fsync'd, CRC-checked version-3 records of its size and event
  checksum, stamped with the pre-apply :meth:`DynamicGraph.state_stamp`)
  *before* it is applied (:mod:`repro.dynamic.wal`);
* ``snapshot-<batch>.npz`` — maintainer snapshots in format version 3,
  written atomically every ``snapshot_every`` batches and named by the
  stream position they hold; the newest ``keep_snapshots`` survive
  (:mod:`repro.dynamic.checkpoint`).

:func:`resume_stream` reads exactly what :func:`run_stream` writes: a
``config.json`` holding every key it writes and no other, version-3 WAL
records and numbered version-3 snapshots.  A directory in an older
build's layout (an ``updates.jsonl`` stream copy, version-1/2 WAL
records, version-1/2 snapshots, a single ``snapshot.npz(.gz)``) fails
with a specific error: its ``config.json`` with a :class:`CheckpointError`
naming the unknown or missing key, an older WAL line with a
:class:`~repro.dynamic.wal.WALCorruptionError` naming the line, an older
snapshot with a :class:`~repro.dynamic.checkpoint.CheckpointVersionError`
naming its version.  Finish such a stream with the build that wrote it.

:func:`resume_stream` checks every committed WAL record against the
stored stream, restores ``last snapshot + WAL tail replay`` and continues
the run through the same driver as :func:`run_stream`.  Because every
component is deterministic — the maintainer's repair pass, the policy,
and the seeded solver — a resumed run reproduces the uninterrupted run's
cover mask and certificate exactly, whatever batch boundary the process
died at (the property ``tests/recovery`` enforces).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.certificates import CoverCertificate
from repro.dynamic.checkpoint import (
    CheckpointCorruptionError,
    CheckpointError,
    load_snapshot,
    save_snapshot,
)
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.maintainer import (
    KERNEL_PROFILE_KEYS,
    BatchReport,
    IncrementalCoverMaintainer,
)
from repro.dynamic.policy import ResolvePolicy
from repro.dynamic.wal import (
    WALRecord,
    WriteAheadLog,
    compact_wal,
    read_wal,
    repair_wal,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.io import fsync_directory, load_npz, save_npz, write_bytes_atomic
from repro.graphs.updates import UpdateColumns, load_update_stream, save_update_stream
from repro.service.batch import BatchSolver
from repro.service.schema import SolveRequest
from repro.utils.timing import Stopwatch

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
_WAL_FILE = "wal.jsonl"


@dataclass(frozen=True)
class CheckpointConfig:
    """Durability policy of a checkpointed :func:`run_stream`.

    Every WAL record holds a batch's size and event checksum, stamped
    with the pre-apply :meth:`DynamicGraph.state_stamp`, so a resume
    verifies that the stream holds the original events of every committed
    batch, and replay, record by record, that it rebuilds the exact state
    the original run saw.  A stamp hashes the base edges once per
    compaction, and per batch the delta, the n weights and one O(m)
    pass over the keep mask (~0.2–0.3 ms at n = 10k, m = 45k).

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
        Flush WAL records and snapshots to disk at commit time, and the
        stored graph and stream before ``config.json`` names them.  Keep on
        for crash-consistency against power loss; turning it off still
        survives process kills (buffers are flushed per batch).
    keep_snapshots:
        Every snapshot is written as ``snapshot-<batch>.npz``
        (:meth:`snapshot_path`); after each one, the newest this-many
        survive and the rest are deleted (:meth:`prune_snapshots`).
        :func:`resume_stream`
        restores the newest snapshot that passes integrity checks, falling
        back to an older one when the newest is corrupt.
    compact_wal:
        After each committed snapshot, drop WAL records older than the
        *oldest retained* snapshot (they can never be replayed again), so
        an unbounded stream keeps a bounded log.  ``repro wal-compact``
        performs the same truncation offline.
    """

    directory: PathLike
    snapshot_every: int = 8
    fsync: bool = True
    keep_snapshots: int = 1
    compact_wal: bool = False

    def __post_init__(self):
        if self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.keep_snapshots < 1:
            raise ValueError(
                f"keep_snapshots must be >= 1, got {self.keep_snapshots}"
            )

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

    def snapshot_path(self, next_batch_index: int) -> str:
        """The snapshot holding the state after ``next_batch_index`` batches."""
        return os.path.join(
            os.fspath(self.directory), f"snapshot-{int(next_batch_index):08d}.npz"
        )

    def list_snapshots(self) -> List[Tuple[int, str]]:
        """Available snapshots, newest first: ``(next_batch_index, path)``."""
        directory = os.fspath(self.directory)
        out: List[Tuple[int, str]] = []
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        pattern = re.compile(r"^snapshot-(\d{8,})\.npz$")
        for name in names:
            match = pattern.match(name)
            if match:
                out.append((int(match.group(1)), os.path.join(directory, name)))
        out.sort(reverse=True)
        return out

    def prune_snapshots(self) -> Optional[int]:
        """Delete all but the newest ``keep_snapshots`` snapshots; return
        the oldest retained one's batch position, or ``None`` when there is
        no snapshot."""
        snapshots = self.list_snapshots()
        for _, stale in snapshots[self.keep_snapshots :]:
            os.remove(stale)
        if not snapshots:
            return None
        return snapshots[: self.keep_snapshots][-1][0]


@dataclass(frozen=True)
class StreamRecord:
    """One processed batch: maintainer report + policy outcome + timing.

    ``elapsed_s`` is the batch's wall clock from validation through the
    WAL commit, apply, policy, a triggered re-solve and verification, up
    to the record itself.  ``kernel_profile`` (``--profile`` runs only) is
    this batch's kernel timing breakdown — repair / prune / adjacency /
    certificate seconds, within ``elapsed_s`` — so per-batch regressions
    are attributable, not just wall clock.
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
    spent getting updates into the engine (validation and WAL commits),
    time spent applying/repairing/pruning (the incremental path), and time
    spent in full solves (the initial solve, a cold-start resume's solve
    and every triggered re-solve).  All three are laps of the one
    stopwatch whose total is ``elapsed_s``, so they never exceed it; the
    remainder is verification, snapshots, policy and bookkeeping.

    A resumed run also says what recovery had to do:
    ``recovered_torn_tail`` is True when an uncommitted record cut
    mid-write was dropped from the WAL, and ``snapshot_fallbacks`` counts
    the newer snapshots that failed integrity checks and were passed over.

    ``kernel_profile`` (``profile=True`` runs only) splits ``repair_s``
    further by kernel: adjacency maintenance, pricing repair, greedy
    prune, and certificate computation, summed over the records.
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
    """Per-batch machinery of :func:`_drive`, the stream driver.

    Owns the mutable counters (stream position, cooldown, re-solve tally)
    and performs one batch end-to-end: validation and WAL commit (while
    the log is open) *before* the state mutation, repair, policy
    evaluation, triggered re-solve, periodic verification, record keeping,
    and periodic snapshots.  As a context manager it closes the WAL and a
    solver it created.

    ``watch`` is the run's one clock: it laps ``ingest_s``, ``repair_s``
    and ``resolve_s``, and ``other_s`` for everything between them.
    ``profile`` only decides whether records and the summary carry the
    maintainer's kernel sections.  ``counters`` are a restored snapshot's
    (``None``: a fresh run, to be snapshotted at its position).
    """

    def __init__(
        self,
        maintainer: IncrementalCoverMaintainer,
        policy: ResolvePolicy,
        solver: Optional[BatchSolver],
        params: dict,
        *,
        watch: Stopwatch,
        profile: bool,
        checkpoint: Optional[CheckpointConfig],
        counters: Optional[dict],
    ):
        self.maintainer = maintainer
        self.policy = policy
        self.own_solver = solver is None
        self.solver = BatchSolver(use_processes=False) if solver is None else solver
        self.solve_params = {key: params[key] for key in ("eps", "seed", "engine")}
        self.verify_every = params["verify_every"]
        self.checkpoint = checkpoint
        self.wal: Optional[WriteAheadLog] = None
        restored = counters or {}
        self.records: List[StreamRecord] = []
        self.next_index = int(restored.get("next_batch_index", 0))
        self.num_resolves = 0
        self.cache_hits = 0
        self.batches_since = int(restored.get("batches_since_resolve", 0))
        self.updates_applied = int(restored.get("updates_applied", 0))
        #: The stream position of the last snapshot written or restored.
        self.snapshot_at = None if counters is None else self.next_index
        self.watch = watch
        self.profile = profile

    def __enter__(self) -> "_StreamEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.wal is not None:
            self.wal.close()
            self.wal = None
        if self.own_solver:
            self.solver.close()

    def counters(self) -> dict:
        return {
            "next_batch_index": int(self.next_index),
            "updates_applied": int(self.updates_applied),
            "batches_since_resolve": int(self.batches_since),
            "num_resolves": int(self.num_resolves),
            "num_resolve_cache_hits": int(self.cache_hits),
        }

    # -- the solve path -------------------------------------------------- #
    def resolve(self) -> Tuple[bool, CoverCertificate]:
        """Full re-solve through the service; returns the cache-hit flag
        and the adopted state's certificate."""
        self.watch.lap("other_s")
        graph = self.maintainer.dyn.compact()
        result = self.solver.solve(SolveRequest(graph=graph, **self.solve_params))
        if not result.ok or result.result is None:
            raise RuntimeError(f"re-solve failed: {result.error}")
        cert = self.maintainer.adopt(result.result, graph=graph)
        self.num_resolves += 1
        self.cache_hits += int(result.cache_hit)
        self.watch.lap("resolve_s")
        return result.cache_hit, cert

    # -- durability ------------------------------------------------------ #
    def write_snapshot(self) -> None:
        """Snapshot the state, prune old snapshots and compact the WAL; a
        no-op without a checkpoint or at a position already written."""
        if self.checkpoint is None or self.snapshot_at == self.next_index:
            return
        checkpoint = self.checkpoint
        save_snapshot(
            checkpoint.snapshot_path(self.next_index),
            self.maintainer,
            extra=self.counters(),
            fsync=checkpoint.fsync,
        )
        self.snapshot_at = self.next_index
        retained_floor = checkpoint.prune_snapshots()
        if checkpoint.compact_wal and self.wal is not None:
            # The append handle points at the pre-rewrite inode: close it
            # around the atomic rewrite and reopen on the new file.
            self.wal.close()
            compact_wal(checkpoint.wal_path, retained_floor, fsync=checkpoint.fsync)
            self.wal = WriteAheadLog(checkpoint.wal_path, fsync=checkpoint.fsync)

    # -- one batch ------------------------------------------------------- #
    def process_batch(self, batch: UpdateColumns) -> None:
        """Apply ``batch`` as batch :attr:`next_index`, logging it first
        and snapshotting after it while the WAL is open.  A replay runs
        with the log closed and writes nothing: its batches are durable
        in the WAL and the stored stream already."""
        index = self.next_index
        watch = self.watch
        watch.lap("other_s")
        started = watch.total
        # Validated whole before any of it is logged or applied.
        dyn = self.maintainer.dyn
        batch.validate(dyn.n, batch_index=index, start=self.updates_applied)
        if self.wal is not None:
            self.wal.append(index, batch, state_digest=dyn.state_stamp())
        watch.lap("ingest_s")
        report = self.maintainer.apply_batch(batch)
        watch.lap("repair_s")
        self.updates_applied += len(batch)
        self.batches_since += 1
        decision = self.policy.should_resolve(
            certified_ratio=report.certificate.certified_ratio,
            base_ratio=self.maintainer.base_ratio,
            batches_since_resolve=self.batches_since,
        )
        hit = False
        cert = report.certificate
        if decision:
            hit, cert = self.resolve()
            self.batches_since = 0
        if self.verify_every and (index + 1) % self.verify_every == 0:
            if not self.maintainer.verify():  # pragma: no cover - invariant guard
                raise RuntimeError(
                    f"invalid cover after batch {index} — maintainer bug"
                )
        watch.lap("other_s")
        record = StreamRecord(
            batch_index=index,
            report=report,
            resolved=bool(decision),
            resolve_reason=decision.reason,
            resolve_cache_hit=hit,
            certified_ratio_after=cert.certified_ratio,
            elapsed_s=watch.total - started,
            kernel_profile=self.maintainer.last_batch_profile if self.profile else None,
        )
        self.records.append(record)
        self.next_index = index + 1
        if (
            self.wal is not None
            and self.next_index % self.checkpoint.snapshot_every == 0
        ):
            self.write_snapshot()


def _prepare_checkpoint_dir(
    checkpoint: CheckpointConfig,
    graph: WeightedGraph,
    updates: UpdateColumns,
    params: dict,
) -> None:
    """Store the graph, the stream and ``config.json`` — the run
    ``params`` plus the checkpoint's — in a fresh directory.

    With ``checkpoint.fsync`` the graph, the stream and their directory
    entries reach disk before ``config.json`` is written, so a committed
    config never names stream bytes that a power loss took.
    """
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
    if checkpoint.fsync:
        for path in (checkpoint.graph_path, checkpoint.updates_path):
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        fsync_directory(directory)
    config = {
        "format_version": CONFIG_FORMAT_VERSION,
        **params,
        "snapshot_every": int(checkpoint.snapshot_every),
        "fsync": bool(checkpoint.fsync),
        "keep_snapshots": int(checkpoint.keep_snapshots),
        "compact_wal": bool(checkpoint.compact_wal),
        "num_updates": len(updates),
        "updates_file": _UPDATES_FILE,
        "graph_digest": graph.content_digest(),
    }
    write_bytes_atomic(
        checkpoint.config_path,
        (json.dumps(config, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        fsync=checkpoint.fsync,
    )


def run_stream(
    graph: WeightedGraph,
    updates: UpdateColumns,
    *,
    batch_size: int = 64,
    policy: Optional[ResolvePolicy] = None,
    solver: Optional[BatchSolver] = None,
    eps: float = 0.1,
    seed: int = 0,
    engine: str = "vectorized",
    verify_every: int = 0,
    checkpoint: Optional[CheckpointConfig] = None,
    profile: bool = False,
) -> StreamSummary:
    """Maintain a certified cover over ``graph`` while replaying ``updates``.

    Parameters
    ----------
    graph:
        Initial graph; solved once up front to seed the maintainer.
    updates:
        The update stream as :class:`~repro.graphs.updates.UpdateColumns`
        (from :func:`~repro.graphs.updates.load_update_stream`, a
        generator of :mod:`repro.graphs.streams`, or
        :meth:`~repro.graphs.updates.UpdateColumns.from_rows`).
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
    checkpoint:
        When given, make the run durable: write-ahead-log every batch and
        snapshot periodically into ``checkpoint.directory`` so a killed
        process can be picked up by :func:`resume_stream` at the exact
        state it died in.
    profile:
        Report the per-batch kernel timing breakdown (repair / prune /
        adjacency / certificate), which the maintainer always measures, in
        every record and the summary's ``kernel_profile``
        (``repro stream --profile``).

    Raises
    ------
    InvalidUpdateError
        A ``ValueError`` naming the batch and stream position of an event
        the graph would refuse; no event of that batch is logged or applied.
    RuntimeError
        If a re-solve fails, or a verification pass catches an invalid
        cover (which would be a maintainer bug, not a data error).
    CheckpointError
        If the checkpoint directory already holds a stream.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    policy = policy or ResolvePolicy()
    params = {
        "batch_size": int(batch_size),
        "eps": float(eps),
        "seed": int(seed),
        "engine": str(engine),
        "verify_every": int(verify_every),
        "policy": asdict(policy),
    }
    if checkpoint is not None:
        _prepare_checkpoint_dir(checkpoint, graph, updates, params)
    watch = Stopwatch()
    maintainer = IncrementalCoverMaintainer(DynamicGraph(graph))
    return _drive(
        maintainer,
        updates,
        params,
        policy,
        solver=solver,
        checkpoint=checkpoint,
        profile=profile,
        watch=watch,
    )


def _drive(
    maintainer: IncrementalCoverMaintainer,
    updates: UpdateColumns,
    params: dict,
    policy: ResolvePolicy,
    *,
    solver: Optional[BatchSolver],
    checkpoint: Optional[CheckpointConfig],
    profile: bool,
    watch: Stopwatch,
    counters: Optional[dict] = None,
    records: Optional[List[WALRecord]] = None,
    fallbacks: int = 0,
) -> StreamSummary:
    """The one driver of :func:`run_stream` and :func:`resume_stream`.

    ``counters`` are a restored snapshot's (``None``: the maintainer holds
    the unsolved initial graph); ``records`` are a resume's committed WAL
    records, checked against ``updates`` by :func:`_check_committed`
    (``None``: a fresh run).  In order:

    1. refuse a restored position the records do not continue, then
       solve the initial graph unless a snapshot was restored;
    2. replay the records past that position with the log closed,
       checking each one's pre-apply stamp — replay writes nothing;
    3. truncate a torn WAL tail;
    4. snapshot the initial solve (when nothing was replayed), open the
       log, and log and process the rest of the stream;
    5. write the final snapshot.
    """
    batch_size = params["batch_size"]
    with _StreamEngine(
        maintainer,
        policy,
        solver,
        params,
        watch=watch,
        profile=profile,
        checkpoint=checkpoint,
        counters=counters,
    ) as engine_:
        position, updates_at_start = engine_.next_index, engine_.updates_applied
        replay = records or []
        if replay:
            first, last = replay[0].batch_index, replay[-1].batch_index
            if not first <= position <= last + 1:
                raise CheckpointError(
                    f"WAL gap: the restored state is at batch {position} but "
                    f"the log holds batches {first}-{last} — the snapshot "
                    f"cannot bridge it"
                )
            replay = replay[position - first :]
        if counters is None and maintainer.dyn.m:
            engine_.resolve()

        for record in replay:
            current = maintainer.dyn.state_stamp()
            if current != record.state_digest:
                raise CheckpointError(
                    f"WAL batch {record.batch_index} was logged against graph "
                    f"state {record.state_digest[:12]}… but replay reached "
                    f"{current[:12]}… — snapshot/WAL mismatch"
                )
            start = engine_.updates_applied
            engine_.process_batch(updates[start : start + batch_size])  # a view

        torn = checkpoint is not None and repair_wal(checkpoint.wal_path)
        if not replay:
            engine_.write_snapshot()
        if checkpoint is not None:
            engine_.wal = WriteAheadLog(checkpoint.wal_path, fsync=checkpoint.fsync)
        for offset in range(engine_.updates_applied, len(updates), batch_size):
            engine_.process_batch(updates[offset : offset + batch_size])  # a view
        engine_.write_snapshot()

    watch.lap("other_s")
    seconds = watch.seconds
    kernel_profile = None
    if profile:
        kernel_profile = {
            key: sum(r.kernel_profile[key] for r in engine_.records)
            for key in KERNEL_PROFILE_KEYS
        }
    cert = maintainer.certificate()
    return StreamSummary(
        num_updates=engine_.updates_applied - updates_at_start,
        num_batches=len(engine_.records),
        num_resolves=engine_.num_resolves,
        num_resolve_cache_hits=engine_.cache_hits,
        final_cover_weight=cert.cover_weight,
        final_dual_value=cert.dual_value,
        final_certified_ratio=cert.certified_ratio,
        final_is_cover=maintainer.verify(),
        elapsed_s=watch.total,
        records=engine_.records,
        final_cover=maintainer.cover,
        resumed_from_batch=None if records is None else position,
        ingest_s=seconds.get("ingest_s", 0.0),
        repair_s=seconds.get("repair_s", 0.0),
        resolve_s=seconds.get("resolve_s", 0.0),
        kernel_profile=kernel_profile,
        recovered_torn_tail=torn,
        snapshot_fallbacks=fallbacks,
    )


def _check_committed(
    records: List[WALRecord], updates: UpdateColumns, batch_size: int
) -> None:
    """Refuse committed WAL records that ``updates`` does not reproduce.

    Batch ``k`` starts at stream position ``k * batch_size``, so every
    record is checked — its size and event checksum against the stream's
    slice there, its index against its predecessor's — before any state
    is restored, and a stream that differs inside any committed batch is
    refused, however old the batch.
    """
    first = records[0].batch_index if records else 0
    for expected, record in enumerate(records, first):
        index = record.batch_index
        if index != expected:
            raise CheckpointError(f"WAL gap: expected batch {expected}, found {index}")
        start = index * batch_size
        batch = updates[start : start + batch_size]  # a view
        if len(batch) != record.size or batch.checksum() != record.batch_crc:
            raise CheckpointError(
                f"WAL batch {index} (stream position {start}) does not "
                f"match the update stream — stream/WAL mismatch"
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


#: Every ``config.json`` key :func:`_prepare_checkpoint_dir` writes but
#: ``format_version``, with its JSON type; all are required.
_CONFIG_KEYS = {
    "batch_size": int,
    "compact_wal": bool,
    "engine": str,
    "eps": (int, float),
    "fsync": bool,
    "graph_digest": str,
    "keep_snapshots": int,
    "num_updates": int,
    "policy": dict,
    "seed": int,
    "snapshot_every": int,
    "updates_file": str,
    "verify_every": int,
}


def _load_config(directory: PathLike) -> Tuple[CheckpointConfig, ResolvePolicy, dict]:
    """Read and check a checkpoint directory's ``config.json``.

    Returns its :class:`CheckpointConfig`, the run's :class:`ResolvePolicy`
    and the config.  Any damage — a missing, mistyped or unknown key —
    raises :class:`CheckpointError` naming the file and the key.
    """
    path = os.path.join(os.fspath(directory), _CONFIG_FILE)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(
            f"no stream checkpoint in {os.fspath(directory)} "
            f"(missing {_CONFIG_FILE})"
        ) from None
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise CheckpointError(
            f"{path}: expected a JSON object, found {type(config).__name__}"
        )
    version = config.get("format_version")
    if version != CONFIG_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: config format version {version!r} is "
            f"not supported (this build reads version {CONFIG_FORMAT_VERSION})"
        )
    unknown = sorted(set(config) - set(_CONFIG_KEYS) - {"format_version"})
    if unknown:
        raise CheckpointError(
            f"{path}: unknown keys {unknown}; this build does not write "
            f"them, so finish the stream with the build that wrote it"
        )
    for key, kind in _CONFIG_KEYS.items():
        if key not in config:
            raise CheckpointError(f"{path}: missing key {key!r}")
        value = config[key]
        # bool is an int subclass; only the bool keys may hold one.
        if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
            raise CheckpointError(f"{path}: key {key!r} has a bad value {value!r}")
    try:
        checkpoint = CheckpointConfig(
            directory=directory,
            snapshot_every=config["snapshot_every"],
            fsync=config["fsync"],
            keep_snapshots=config["keep_snapshots"],
            compact_wal=config["compact_wal"],
        )
        if config["batch_size"] < 1:
            raise ValueError(f"batch_size must be >= 1, got {config['batch_size']}")
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    try:
        policy = ResolvePolicy(**config["policy"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: key 'policy' is invalid ({exc})") from exc
    return checkpoint, policy, config


def resume_stream(
    directory: PathLike,
    *,
    updates: Optional[UpdateColumns] = None,
    solver: Optional[BatchSolver] = None,
    profile: bool = False,
) -> StreamSummary:
    """Resume a checkpointed stream after a crash (or completion).

    Recovery procedure:

    1. read ``config.json`` (run parameters travel with the checkpoint —
       no flags to re-specify);
    2. read the committed WAL records (a torn tail, cut mid-write, was
       never committed) and check every one against the update stream —
       its size and event checksum, and that no index is missing —
       before anything is restored;
    3. restore the latest snapshot — or, when no snapshot file is left,
       cold-start from ``graph.npz`` and replay the WAL from batch 0 (a
       corrupt snapshot raises instead: a damaged checkpoint must never
       silently restore);
    4. replay the records past the snapshot through the exact per-batch
       machinery of :func:`run_stream`, each batch re-taken from the
       stream and checked against its record's pre-apply stamp;
    5. only then truncate a torn WAL tail, continue with the remaining
       updates from the stream, write-ahead-logging and snapshotting as
       usual, and write the one final snapshot.

    Steps 3-5 are the driver :func:`run_stream` runs too.  Nothing is
    written before step 5, so a resume refused at any step leaves the
    directory byte for byte as it found it.

    Determinism makes the result *exact*: the resumed run's final cover
    mask and certificate equal the uninterrupted run's.

    Parameters
    ----------
    directory:
        The checkpoint directory of the interrupted run.
    updates:
        Override the stored update stream (defaults to the directory's
        ``updates.npz``).  It must hold the run's number of events and
        match every committed batch; only the uncommitted remainder may
        differ.
    solver:
        Batch service for re-solves; a private in-process solver is
        created (and closed) when omitted.
    profile:
        As in :func:`run_stream`: report the kernel timing breakdown of
        this invocation's batches (``repro resume --profile``).

    Raises
    ------
    CheckpointError
        Missing/invalid checkpoint pieces (no or a damaged config, an
        unreadable stored stream, corrupt snapshot or WAL, a WAL gap the
        snapshot cannot bridge, a stream that differs inside a committed
        batch, or a snapshot/WAL state mismatch), or pieces
        in a format this build does not write (an unknown config key, an
        older snapshot version).
    """
    checkpoint, policy, config = _load_config(directory)
    if updates is None:
        name = config["updates_file"]
        try:
            updates = load_update_stream(os.path.join(os.fspath(directory), name))
        except FileNotFoundError:
            raise CheckpointError(
                f"checkpoint {os.fspath(directory)} has no stored update "
                f"stream ({name}); pass the stream explicitly"
            ) from None
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint {os.fspath(directory)}: the stored update stream "
                f"({name}) is unreadable: {exc}"
            ) from None
    if len(updates) != config["num_updates"]:
        raise CheckpointError(
            f"update stream length {len(updates)} does not match the "
            f"checkpointed run's {config['num_updates']}"
        )
    records, _ = read_wal(checkpoint.wal_path)
    _check_committed(records, updates, config["batch_size"])

    watch = Stopwatch()
    restored, fallbacks = _newest_intact(checkpoint)
    if restored is not None:
        maintainer = restored.maintainer
        counters = restored.meta.get("extra", {})
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
        if graph.content_digest() != config["graph_digest"]:
            raise CheckpointError(
                f"{checkpoint.graph_path} does not match the "
                f"checkpointed run's graph digest"
            )
        maintainer = IncrementalCoverMaintainer(DynamicGraph(graph))
        counters = None
    return _drive(
        maintainer,
        updates,
        config,
        policy,
        solver=solver,
        checkpoint=checkpoint,
        profile=profile,
        watch=watch,
        counters=counters,
        records=records,
        fallbacks=fallbacks,
    )
