"""Dynamic-graph subsystem: certified MWVC over update streams.

The MPC algorithm solves one static instance per invocation; production
graphs mutate continuously.  This package maintains a valid, certified
cover under edge churn and weight changes, re-solving only when the
certificate drifts past a policy bound:

:mod:`repro.dynamic.dynamic_graph`
    :class:`DynamicGraph` — delta log over the immutable
    :class:`~repro.graphs.WeightedGraph`, with periodic compaction back to
    canonical CSR form.
:mod:`repro.dynamic.maintainer`
    :class:`IncrementalCoverMaintainer` — local pricing repair + touched
    pruning + a live duality certificate.
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
    Append-only, checksummed write-ahead log of applied update batches.
:mod:`repro.dynamic.repair`
    The vectorized repair/prune/certification kernels the maintainer
    runs.
:mod:`repro.dynamic.duals`
    :class:`DualStore` — array-backed per-edge duals keyed by encoded
    ``int64`` edge codes.
:mod:`repro.dynamic.ingest`
    Pluggable update sources (file / directory segments / memory).

The update events (:class:`EdgeInsert` / :class:`EdgeDelete` /
:class:`WeightChange`) and their wire formats live in
:mod:`repro.graphs.updates` and are re-exported here.
"""

from repro.dynamic.checkpoint import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointVersionError,
    RestoredState,
    load_snapshot,
    save_snapshot,
)
from repro.dynamic.duals import DualStore, decode_edge_codes, encode_edge_codes
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.maintainer import (
    KERNEL_PROFILE_KEYS,
    BatchReport,
    IncrementalCoverMaintainer,
)
from repro.dynamic.policy import ResolveDecision, ResolvePolicy
from repro.dynamic.ingest import (
    DirectorySource,
    FileSource,
    MemorySource,
    UpdateSource,
    iter_update_batches,
    open_update_source,
)
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
    EdgeDelete,
    EdgeInsert,
    GraphUpdate,
    InvalidUpdateError,
    UpdateColumns,
    WeightChange,
    load_update_stream,
    save_update_stream,
    update_from_json,
    update_to_json,
)

__all__ = [
    "BatchReport",
    "CheckpointConfig",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointVersionError",
    "DirectorySource",
    "DualStore",
    "DynamicGraph",
    "EdgeDelete",
    "EdgeInsert",
    "FileSource",
    "GraphUpdate",
    "IncrementalCoverMaintainer",
    "InvalidUpdateError",
    "KERNEL_PROFILE_KEYS",
    "MemorySource",
    "ResolveDecision",
    "ResolvePolicy",
    "RestoredState",
    "StreamRecord",
    "StreamSummary",
    "UpdateColumns",
    "UpdateSource",
    "WALCorruptionError",
    "WALError",
    "WALRecord",
    "WriteAheadLog",
    "compact_wal",
    "decode_edge_codes",
    "encode_edge_codes",
    "iter_update_batches",
    "load_snapshot",
    "load_update_stream",
    "open_update_source",
    "read_wal",
    "repair_wal",
    "resume_stream",
    "run_stream",
    "save_snapshot",
    "save_update_stream",
    "update_from_json",
    "update_to_json",
]
