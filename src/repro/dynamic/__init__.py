"""Dynamic-graph subsystem: certified MWVC over update streams.

The MPC algorithm solves one static instance per invocation; production
graphs mutate continuously.  This package maintains a valid, certified
cover under edge churn and weight changes, re-solving only when the
certificate drifts past a policy bound:

:mod:`repro.dynamic.dynamic_graph`
    :class:`DynamicGraph` — a sorted-array delta over the immutable
    :class:`~repro.graphs.WeightedGraph`, applied a batch at a time, with
    periodic compaction back to canonical CSR form.
:mod:`repro.dynamic.maintainer`
    :class:`IncrementalCoverMaintainer` — local pricing repair + touched
    pruning + a live duality certificate; its per-edge duals are a sorted
    edge-code array plus a value array, the form snapshots store.
:mod:`repro.dynamic.policy`
    :class:`ResolvePolicy` — drift-bounded re-solve trigger.
:mod:`repro.dynamic.stream`
    :func:`run_stream` — batches, policy evaluation, and warm-started
    re-solves through the batch service (``repro stream``); plus
    :class:`CheckpointConfig` and :func:`resume_stream` for durable,
    crash-recoverable runs (``repro resume``).
:mod:`repro.dynamic.checkpoint`
    Versioned, digest-stamped snapshots of maintainer + graph state.
:mod:`repro.dynamic.wal`
    Append-only, checksummed write-ahead log of batch commits.
:mod:`repro.dynamic.repair`
    The vectorized repair/prune/certification kernels the maintainer
    runs.
:mod:`repro.dynamic.duals`
    The ``int64`` edge code ``(u << 32) | v`` that keys per-edge state.

The update events and their wire formats live in
:mod:`repro.graphs.updates` and are re-exported here.
:class:`UpdateColumns` is the one event type, from decode to apply:
:func:`load_update_stream` reads a file, a segment directory or stdin
into it, and a stream built by hand is
``UpdateColumns.from_rows([(OP_INSERT, u, v, 0.0), ...])`` with the op
codes of :mod:`repro.graphs.updates`.
"""

from repro.dynamic.checkpoint import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointVersionError,
    RestoredState,
    load_snapshot,
    save_snapshot,
)
from repro.dynamic.duals import decode_edge_codes, encode_edge_codes
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.maintainer import (
    KERNEL_PROFILE_KEYS,
    BatchReport,
    IncrementalCoverMaintainer,
)
from repro.dynamic.policy import ResolveDecision, ResolvePolicy
from repro.dynamic.stream import (
    CheckpointConfig,
    StreamRecord,
    StreamSummary,
    resume_stream,
    run_stream,
)
from repro.dynamic.wal import (
    WALCorruptionError,
    WALError,
    WALRecord,
    WriteAheadLog,
    compact_wal,
    read_wal,
    repair_wal,
)
from repro.graphs.updates import (
    InvalidUpdateError,
    UpdateColumns,
    load_update_stream,
    save_update_stream,
)

__all__ = [
    "BatchReport",
    "CheckpointConfig",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointVersionError",
    "DynamicGraph",
    "IncrementalCoverMaintainer",
    "InvalidUpdateError",
    "KERNEL_PROFILE_KEYS",
    "ResolveDecision",
    "ResolvePolicy",
    "RestoredState",
    "StreamRecord",
    "StreamSummary",
    "UpdateColumns",
    "WALCorruptionError",
    "WALError",
    "WALRecord",
    "WriteAheadLog",
    "compact_wal",
    "decode_edge_codes",
    "encode_edge_codes",
    "load_snapshot",
    "load_update_stream",
    "read_wal",
    "repair_wal",
    "resume_stream",
    "run_stream",
    "save_snapshot",
    "save_update_stream",
]
