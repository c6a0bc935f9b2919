"""Versioned, digest-stamped snapshots of dynamic-stream state.

A *snapshot* is one self-contained file holding everything needed to
reconstruct an equivalent :class:`~repro.dynamic.IncrementalCoverMaintainer`
mid-stream:

* the **current graph** (canonical endpoint arrays + live weights — the
  delta log is folded away; restore starts from a fresh base snapshot,
  which the maintainer's edge-code-keyed state is explicitly independent of);
* the **maintainer state** exported bit-exactly by
  :meth:`~repro.dynamic.IncrementalCoverMaintainer.export_state` (cover
  mask, loads, edge-coded duals, dual total, drift baseline, batch count);
* a **metadata header** (JSON): format version, the graph's content
  digest, scalar state, and caller counters (stream position, policy
  cooldown, re-solve tally).

The container is an NPZ archive (arrays stay binary, ``np.load`` reads it;
the header is one JSON string member).  Format version 3, the only one
this build writes or reads, stores the edges as two ``int32`` arrays in
canonical order — ``edge_row_deltas`` (the step of the lower endpoint from
the previous edge, mostly 0) and ``edge_cols`` (the upper endpoint) — taken
straight from the graph's sorted edge codes, so a save never materializes
a :class:`~repro.graphs.WeightedGraph`.  Members are deflated at level 1,
except weights and loads, which barely deflate and are stored.  The duals
are the maintainer's own arrays: ascending ``dual_codes`` (the
``(u << 32) | v`` encoding of :mod:`repro.dynamic.duals`) and
``dual_values``, stored as held, with no conversion either way.
Two integrity layers make restores trustworthy:

1. a **content digest** over the header + every array, recomputed on load
   (bit rot, torn copies, and hand-edits raise
   :class:`CheckpointCorruptionError` instead of restoring a wrong cover);
2. a **format version** gate — a snapshot of any other format (an older
   build's version 1 or 2, or a future one) fails with
   :class:`CheckpointVersionError` naming its version; finish such a
   stream with the build that wrote it.

Writes are atomic (temp file + rename, fsync'd), so a crash mid-snapshot
leaves the previous snapshot intact; see
:mod:`repro.dynamic.wal` for the companion write-ahead log and
:func:`repro.dynamic.stream.resume_stream` for the recovery procedure.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.dynamic.duals import decode_edge_codes
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.dynamic.maintainer import IncrementalCoverMaintainer
from repro.graphs.graph import WeightedGraph, graph_content_digest
from repro.graphs.io import write_bytes_atomic

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointVersionError",
    "RestoredState",
    "save_snapshot",
    "load_snapshot",
]

PathLike = Union[str, "os.PathLike[str]"]

CHECKPOINT_FORMAT_VERSION = 3

_MAGIC = "repro-dynamic-snapshot"

#: Array members of the archive, in digest order.
_ARRAY_FIELDS = (
    "edge_row_deltas",
    "edge_cols",
    "weights",
    "cover",
    "loads",
    "dual_codes",
    "dual_values",
)


class CheckpointError(Exception):
    """A snapshot could not be written or restored."""


class CheckpointCorruptionError(CheckpointError):
    """A snapshot failed integrity checks (digest mismatch, damaged file)."""


class CheckpointVersionError(CheckpointError):
    """A snapshot's format version is not readable by this build."""


@dataclass(frozen=True)
class RestoredState:
    """Outcome of :func:`load_snapshot`.

    Attributes
    ----------
    dyn:
        The reconstructed dynamic graph (base snapshot = the saved graph,
        empty delta log).
    maintainer:
        The reconstructed maintainer, bit-identical to the exported one.
    meta:
        The verified metadata header, including the caller's ``extra``
        counters (stream position etc.).
    """

    dyn: DynamicGraph
    maintainer: IncrementalCoverMaintainer
    meta: dict


def _digest(meta_sans_digest: dict, arrays: dict) -> str:
    """SHA-256 over the canonical header and every array's raw bytes."""
    h = hashlib.sha256()
    h.update(_MAGIC.encode("ascii"))
    h.update(
        json.dumps(meta_sans_digest, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
    )
    for name in _ARRAY_FIELDS:
        arr = arrays[name]
        h.update(name.encode("ascii"))
        h.update(str(arr.dtype).encode("ascii"))
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


#: Members written stored while the rest are deflated: float64 vertex
#: weights and loads deflate to ~95% at level 1, for ~5 ms a save at
#: n = 10k.
_STORED_MEMBERS = ("weights", "loads")


def _npz_bytes(members: dict) -> bytes:
    """An NPZ archive of ``members``, deflated at level 1 but for
    :data:`_STORED_MEMBERS`."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, arr in members.items():
            npy = io.BytesIO()
            np.lib.format.write_array(npy, np.asarray(arr), allow_pickle=False)
            stored = name in _STORED_MEMBERS
            zf.writestr(
                name + ".npy",
                npy.getvalue(),
                compress_type=zipfile.ZIP_STORED if stored else zipfile.ZIP_DEFLATED,
                compresslevel=1,
            )
    return buf.getvalue()


def save_snapshot(
    path: PathLike,
    maintainer: IncrementalCoverMaintainer,
    *,
    extra: Optional[dict] = None,
    fsync: bool = True,
) -> str:
    """Serialize ``maintainer`` (and its current graph) to ``path``.

    ``extra`` is an arbitrary JSON-friendly dict stored verbatim in the
    header — the stream layer records its position and counters there.
    The file appears atomically; with ``fsync`` it also survives power
    loss.  Returns the snapshot's content digest.
    """
    dyn = maintainer.dyn
    edges_u, edges_v = decode_edge_codes(dyn.edge_codes())
    weights = dyn.weights
    state = maintainer.export_state()
    arrays = {
        "edge_row_deltas": np.diff(edges_u, prepend=0).astype(np.int32),
        "edge_cols": edges_v.astype(np.int32),
        "weights": weights,
        "cover": state["cover"],
        "loads": state["loads"],
        "dual_codes": state["dual_codes"],
        "dual_values": state["dual_values"],
    }
    meta = {
        "magic": _MAGIC,
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "n": int(dyn.n),
        "m": int(edges_u.size),
        "graph_digest": graph_content_digest(dyn.n, edges_u, edges_v, weights),
        "dual_value": state["dual_value"],
        "base_ratio": state["base_ratio"],
        "batches_applied": state["batches_applied"],
        "extra": dict(extra or {}),
    }
    digest = _digest(meta, arrays)
    meta["content_digest"] = digest

    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    members = {"meta_json": np.frombuffer(header, dtype=np.uint8), **arrays}
    data = _npz_bytes(members)
    try:
        write_bytes_atomic(path, data, fsync=fsync)
    except OSError as exc:
        raise CheckpointError(f"cannot write snapshot {os.fspath(path)}: {exc}") from exc
    return digest


def _read(path: PathLike) -> Tuple[dict, dict]:
    """Read + integrity-check a snapshot file; no object reconstruction."""
    name = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"snapshot file not found: {name}") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {name}: {exc}") from exc
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            if "meta_json" not in archive:
                raise CheckpointCorruptionError(
                    f"snapshot {name}: missing metadata header"
                )
            meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
            if not isinstance(meta, dict) or meta.get("magic") != _MAGIC:
                raise CheckpointCorruptionError(
                    f"snapshot {name}: not a {_MAGIC} file"
                )
            version = meta.get("format_version")
            if version != CHECKPOINT_FORMAT_VERSION:
                raise CheckpointVersionError(
                    f"snapshot {name}: format version {version!r} is not "
                    f"supported (this build reads version "
                    f"{CHECKPOINT_FORMAT_VERSION} only); finish the stream "
                    f"with the build that wrote it"
                )
            missing = [f for f in _ARRAY_FIELDS if f not in archive]
            if missing:
                raise CheckpointCorruptionError(
                    f"snapshot {name}: missing array members {missing}"
                )
            arrays = {f: archive[f] for f in _ARRAY_FIELDS}
    except CheckpointError:
        raise
    except Exception as exc:  # zipfile/zlib/json damage comes in many shapes
        raise CheckpointCorruptionError(
            f"snapshot {name}: cannot parse archive ({exc})"
        ) from exc

    stored = meta.get("content_digest")
    check = dict(meta)
    check.pop("content_digest", None)
    computed = _digest(check, arrays)
    if stored != computed:
        raise CheckpointCorruptionError(
            f"snapshot {name}: content digest mismatch (stored "
            f"{str(stored)[:12]}…, computed {computed[:12]}…) — the file is "
            f"corrupt; restore from an older snapshot or replay the full WAL"
        )
    return meta, arrays


def load_snapshot(path: PathLike) -> RestoredState:
    """Restore a snapshot into a live ``(DynamicGraph, maintainer)`` pair.

    Raises
    ------
    CheckpointError
        Missing/unreadable file.
    CheckpointCorruptionError
        Any integrity failure — digest mismatch, damaged archive, or a
        header inconsistent with the arrays.
    CheckpointVersionError
        A format version this build cannot read.
    """
    meta, arrays = _read(path)
    edges_u = np.cumsum(arrays["edge_row_deltas"], dtype=np.int64)
    edges_v = arrays["edge_cols"].astype(np.int64)
    try:
        graph = WeightedGraph(int(meta["n"]), edges_u, edges_v, arrays["weights"])
    except (KeyError, ValueError) as exc:
        raise CheckpointCorruptionError(
            f"snapshot {os.fspath(path)}: graph arrays are inconsistent ({exc})"
        ) from exc
    if graph.content_digest() != meta.get("graph_digest"):
        raise CheckpointCorruptionError(
            f"snapshot {os.fspath(path)}: restored graph digest "
            f"{graph.content_digest()[:12]}… does not match the stamped "
            f"{str(meta.get('graph_digest'))[:12]}…"
        )
    dyn = DynamicGraph(graph)
    state = {
        "cover": arrays["cover"],
        "loads": arrays["loads"],
        "dual_codes": arrays["dual_codes"],
        "dual_values": arrays["dual_values"],
        "dual_value": meta["dual_value"],
        "base_ratio": meta["base_ratio"],
        "batches_applied": meta["batches_applied"],
    }
    try:
        maintainer = IncrementalCoverMaintainer.from_state(dyn, state)
    except (KeyError, ValueError) as exc:
        raise CheckpointCorruptionError(
            f"snapshot {os.fspath(path)}: maintainer state is inconsistent "
            f"with the stored graph ({exc})"
        ) from exc
    return RestoredState(dyn=dyn, maintainer=maintainer, meta=meta)
