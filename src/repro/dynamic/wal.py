"""Write-ahead log of applied update batches.

The durability contract of a dynamic stream (see
:mod:`repro.dynamic.checkpoint` for the companion snapshots):

* **Write-ahead.**  Each batch is appended — and by default fsync'd — to
  the log *before* it is applied to the in-memory maintainer, so every
  state the process can die in is reconstructible as
  ``last snapshot + replay of the WAL tail``.
* **Per-record checksums.**  Each record is one line carrying a CRC32 of
  its body.  A committed record that fails its checksum is *corruption*
  and raises :class:`WALCorruptionError` — a damaged log must never be
  replayed into a silently wrong cover.
* **Torn tails are expected.**  A crash mid-append leaves a final line
  without its newline terminator (or cut mid-JSON).  That record was never
  committed — the batch it describes produced no durable state — so
  :func:`read_wal` drops it and reports the truncation instead of failing.

Record wire format, version 2 (one per line)::

    {"v":2,"crc":"1a2b3c4d","body":{"batch_index":3,"op":"iidr",
     "u":[0,5,2,0],"v":[1,9,3,4],"w":[2.5],"state_digest":"..."}}

The body is columnar (:class:`~repro.graphs.updates.UpdateColumns`): one
``op`` letter per event (``i``nsert, ``d``elete, ``r``eweight), the ``u``
and ``v`` of every event (a reweight has ``u`` 0 and its vertex in ``v``),
and in ``w`` the new weight of each reweight, in order.  ``crc`` is
``zlib.crc32`` over the body's raw bytes, written as 8 hex digits so the
header has a fixed width: a reader finds the body by position, and
:func:`compact_wal` verifies and copies a retained line byte for byte
without decoding it.  The body always starts with ``batch_index``.

``state_digest`` optionally stamps :meth:`DynamicGraph.state_stamp
<repro.dynamic.DynamicGraph.state_stamp>` of the graph the batch applies
*to* (the pre-apply state), letting replay verify, record by record, that
it reached the same graph the original run saw.

Version-1 records (one object per event, CRC32 over the canonical
sorted-keys JSON without the ``crc`` key, SHA-256
:meth:`~repro.dynamic.DynamicGraph.content_digest` stamps) keep reading,
so a log may mix both versions::

    {"batch_index":3,"crc":123456789,"state_digest":"...",
     "updates":[{"op":"insert","u":0,"v":1}, ...],"v":1}
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.graphs.updates import OP_REWEIGHT, UpdateColumns, decode_update

__all__ = [
    "WAL_FORMAT_VERSION",
    "WALError",
    "WALCorruptionError",
    "WALRecord",
    "WriteAheadLog",
    "compact_wal",
    "read_wal",
    "repair_wal",
]

PathLike = Union[str, "os.PathLike[str]"]

WAL_FORMAT_VERSION = 2

#: Fixed-width head of a version-2 line: ``{"v":2,"crc":"<8 hex>","body":``.
_V2_HEAD = b'{"v":2,"crc":"'
_V2_BODY = b'","body":'
_V2_BODY_START = len(_V2_HEAD) + 8 + len(_V2_BODY)
_BATCH_KEY = b'{"batch_index":'


class WALError(Exception):
    """A write-ahead log could not be read or written."""


class WALCorruptionError(WALError):
    """A committed WAL record is damaged (bad checksum / malformed body)."""


@dataclass(frozen=True)
class WALRecord:
    """One committed batch: its index, its updates, and an optional stamp.

    Attributes
    ----------
    batch_index:
        Zero-based position of the batch in the stream.
    updates:
        The batch's events as :class:`~repro.graphs.updates.UpdateColumns`
        in application order (version-1 records decode into columns too).
    state_digest:
        Stamp of the graph the batch applies *to* (the pre-apply state;
        empty when the writer did not stamp one).  Replay checks it
        before applying the record, so a WAL paired with the wrong
        snapshot or stream fails loudly instead of rebuilding a wrong
        cover.
    version:
        The record's wire-format version, which also names the stamp
        flavor: version 1 stamps are SHA-256 content digests, version 2
        stamps are state stamps.
    """

    batch_index: int
    updates: UpdateColumns
    state_digest: str = ""
    version: int = WAL_FORMAT_VERSION


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _crc(payload: dict) -> int:
    """Version-1 checksum: CRC32 of the canonical JSON payload."""
    return zlib.crc32(_canonical(payload).encode("utf-8"))


def _encode(batch_index: int, cols: UpdateColumns, state_digest: str) -> bytes:
    """One version-2 line, newline included."""
    body = {
        "batch_index": int(batch_index),
        "op": cols.op.tobytes().decode("ascii"),
        "u": cols.u.tolist(),
        "v": cols.v.tolist(),
        "w": cols.w[cols.op == OP_REWEIGHT].tolist(),
    }
    if state_digest:
        body["state_digest"] = state_digest
    raw = json.dumps(body, separators=(",", ":")).encode("utf-8")
    return b"%s%08x%s%s}\n" % (_V2_HEAD, zlib.crc32(raw), _V2_BODY, raw)


def _check_line(name: str, lineno: int, line: bytes) -> Tuple[int, int, object]:
    """Checksum-verify one committed line; ``(version, batch_index, body)``.

    ``body`` is the raw body bytes of a version-2 line and the decoded
    payload of a version-1 line.
    """
    where = f"WAL {name} line {lineno}"
    if line.startswith(_V2_HEAD):
        crc_hex = line[len(_V2_HEAD) : len(_V2_HEAD) + 8]
        body = line[_V2_BODY_START:-1]
        if line[len(_V2_HEAD) + 8 : _V2_BODY_START] != _V2_BODY or not all(
            c in b"0123456789abcdef" for c in crc_hex
        ):
            raise WALCorruptionError(f"{where}: unparseable record header")
        crc = int(crc_hex, 16)
        computed = zlib.crc32(body)
        if not line.endswith(b"}") or computed != crc:
            raise WALCorruptionError(
                f"{where}: checksum mismatch (stored {crc}, computed "
                f"{computed}) — the log is damaged"
            )
        try:
            if not body.startswith(_BATCH_KEY):
                raise ValueError("body does not start with batch_index")
            end = body.index(b",", len(_BATCH_KEY))
            batch_index = int(body[len(_BATCH_KEY) : end])
        except ValueError as exc:
            raise WALCorruptionError(
                f"{where}: malformed WAL record body: {exc}"
            ) from None
        return 2, batch_index, body
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WALCorruptionError(
            f"{where}: unparseable committed record ({exc})"
        ) from exc
    if not isinstance(payload, dict) or "crc" not in payload:
        raise WALCorruptionError(f"{where}: record has no checksum")
    crc = payload.pop("crc")
    if _crc(payload) != crc:
        raise WALCorruptionError(
            f"{where}: checksum mismatch (stored {crc}, computed "
            f"{_crc(payload)}) — the log is damaged"
        )
    version = payload.get("v")
    if version != 1:
        raise WALCorruptionError(
            f"{where}: unsupported WAL record version {version!r} (this "
            f"build reads versions 1 and {WAL_FORMAT_VERSION})"
        )
    try:
        batch_index = int(payload["batch_index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WALCorruptionError(f"{where}: malformed WAL record body: {exc}") from exc
    return 1, batch_index, payload


def _decode(version: int, batch_index: int, body) -> WALRecord:
    """The record of a checksum-verified line (``ValueError`` etc. if malformed)."""
    if version == 1:
        updates = UpdateColumns.from_rows(decode_update(u) for u in body["updates"])
        return WALRecord(batch_index, updates, str(body.get("state_digest", "")), 1)
    payload = json.loads(body)
    op = np.frombuffer(payload["op"].encode("ascii"), dtype=np.uint8)
    reweight = op == OP_REWEIGHT
    if len(payload["w"]) != int(reweight.sum()):
        raise ValueError("'w' does not hold one weight per reweight")
    w = np.zeros(op.shape[0], dtype=np.float64)
    w[reweight] = payload["w"]
    cols = UpdateColumns(
        op,
        np.array(payload["u"], dtype=np.int64),
        np.array(payload["v"], dtype=np.int64),
        w,
    )
    return WALRecord(batch_index, cols, str(payload.get("state_digest", "")))


class WriteAheadLog:
    """Append-only JSONL log with per-record checksums and fsync commits.

    Parameters
    ----------
    path:
        Log file; created if absent, appended to if present (resuming a
        stream continues its existing log).
    fsync:
        Flush every appended record to disk before returning.  Disabling
        it trades the power-loss guarantee for throughput (an OS crash may
        then lose the newest records; a mere process kill loses nothing
        either way since the file buffer is flushed per append).
    """

    def __init__(self, path: PathLike, *, fsync: bool = True):
        self.path = os.fspath(path)
        self.fsync = bool(fsync)
        existed = os.path.exists(self.path)
        try:
            self._fh = open(self.path, "ab")
        except OSError as exc:
            raise WALError(f"cannot open WAL {self.path}: {exc}") from exc
        if self.fsync and not existed:
            # A record fsync flushes data into an entry the directory may
            # not know about yet; flush the dirent once at creation.
            from repro.graphs.io import fsync_directory

            fsync_directory(os.path.dirname(self.path) or ".")

    def append(
        self, batch_index: int, updates: UpdateColumns, *, state_digest: str = ""
    ) -> None:
        """Commit one batch record stamped with ``state_digest``.

        The caller validates the batch first, as the stream engine does
        before it stamps and logs one: a committed bad record would fail
        every later replay.
        """
        if self._fh is None:
            raise WALError("WAL is closed")
        self._fh.write(_encode(batch_index, updates, state_digest))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _committed_lines(path: PathLike) -> Tuple[List[bytes], bool]:
    """The log's newline-terminated lines, and whether a torn tail followed."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return [], False
    except OSError as exc:
        raise WALError(f"cannot read WAL {os.fspath(path)}: {exc}") from exc
    torn = bool(raw) and not raw.endswith(b"\n")
    lines = raw.split(b"\n")
    lines.pop()  # "" after the last newline, or the uncommitted tail
    return lines, torn


def _check_order(name: str, lineno: int, index: int, last: Optional[int]) -> None:
    if last is not None and index <= last:
        raise WALCorruptionError(
            f"WAL {name} line {lineno}: batch index {index} does not "
            f"increase past {last}"
        )


def read_wal(path: PathLike) -> Tuple[List[WALRecord], bool]:
    """Read a WAL; returns ``(records, torn_tail)``.

    Every committed record (newline-terminated line) must parse and pass
    its checksum, and batch indices must be strictly increasing —
    anything else raises :class:`WALCorruptionError` naming the offending
    line.  A final line without its newline terminator is a *torn tail*
    from a crash mid-append: it is dropped (never inspected beyond that)
    and reported via the second return value.

    A missing file reads as an empty, untorn log — a stream that crashed
    before its first commit.
    """
    name = os.fspath(path)
    lines, torn = _committed_lines(path)
    records: List[WALRecord] = []
    last: Optional[int] = None
    for lineno, line in enumerate(lines, start=1):
        version, index, body = _check_line(name, lineno, line)
        try:
            record = _decode(version, index, body)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise WALCorruptionError(
                f"WAL {name} line {lineno}: malformed WAL record body: {exc}"
            ) from exc
        _check_order(name, lineno, index, last)
        last = index
        records.append(record)
    return records, torn


def compact_wal(path: PathLike, min_batch_index: int, *, fsync: bool = True) -> int:
    """Drop WAL records with ``batch_index < min_batch_index``; atomic.

    An unbounded stream otherwise grows its log forever: once a snapshot
    covers every batch up to ``k``, the records before ``k`` can never be
    replayed again (recovery always starts at a retained snapshot).  The
    caller picks ``min_batch_index`` as the *oldest retained* snapshot's
    position — compacting past a newer snapshot would strand the older
    ones.

    Every committed line is checksum-verified and retained lines are
    copied byte for byte — no record is decoded or re-encoded.  The log
    is rewritten through a temp file + rename, so a crash mid-compaction
    leaves either the old or the new log, both valid.  A torn tail
    (crash mid-append) is dropped, exactly as :func:`repair_wal` would.
    Returns the number of records removed.

    Raises
    ------
    WALCorruptionError
        If a committed record is damaged — a corrupt log must be
        inspected, not silently rewritten.
    """
    name = os.fspath(path)
    lines, torn = _committed_lines(path)
    keep: List[bytes] = []
    last: Optional[int] = None
    for lineno, line in enumerate(lines, start=1):
        _, index, _ = _check_line(name, lineno, line)
        _check_order(name, lineno, index, last)
        last = index
        if index >= int(min_batch_index):
            keep.append(line)
    if len(keep) == len(lines) and not torn:
        return 0
    data = b"".join(line + b"\n" for line in keep)
    from repro.graphs.io import write_bytes_atomic

    try:
        write_bytes_atomic(path, data, fsync=fsync)
    except OSError as exc:
        raise WALError(f"cannot compact WAL {name}: {exc}") from exc
    return len(lines) - len(keep)


def repair_wal(path: PathLike) -> bool:
    """Truncate a torn tail in place; True iff bytes were removed.

    Appending to a log whose last record was cut mid-write would weld the
    new record onto the fragment and corrupt *both*; callers reopening a
    WAL after a crash must repair it first (``resume_stream`` does).  Only
    the unterminated tail is dropped — committed records are untouched —
    and the truncation itself is crash-safe (re-running it is a no-op).
    """
    try:
        with open(path, "rb+") as fh:
            raw = fh.read()
            if not raw or raw.endswith(b"\n"):
                return False
            keep = raw.rfind(b"\n") + 1  # 0 when no record ever committed
            fh.seek(keep)
            fh.truncate()
            fh.flush()
            os.fsync(fh.fileno())
    except FileNotFoundError:
        return False
    except OSError as exc:
        raise WALError(f"cannot repair WAL {os.fspath(path)}: {exc}") from exc
    return True
