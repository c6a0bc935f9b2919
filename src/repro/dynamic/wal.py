"""Write-ahead log of committed update batches.

The durability contract of a dynamic stream (see
:mod:`repro.dynamic.checkpoint` for the companion snapshots):

* **Write-ahead.**  Each batch is appended — and by default fsync'd — to
  the log *before* it is applied to the in-memory maintainer, so every
  state the process can die in is reconstructible as
  ``last snapshot + replay of the WAL tail``.
* **Commits, not copies.**  A record holds a batch's size and checksum,
  not its events: replay re-takes the batch from the checkpoint's stored
  stream (``updates.npz``) and checks it against both.
* **Per-record checksums.**  Each record is one line carrying a CRC32 of
  its body.  A committed record that fails its checksum is *corruption*
  and raises :class:`WALCorruptionError` — a damaged log must never be
  replayed into a silently wrong cover.
* **Torn tails are expected.**  A crash mid-append leaves a final line
  without its newline terminator (or cut mid-JSON).  That record was never
  committed — the batch it describes produced no durable state — so
  :func:`read_wal` drops it and reports the truncation instead of failing.

Record wire format, version 3, the only one this build writes or reads
(one record per line)::

    {"v":3,"crc":"1a2b3c4d","body":{"batch_index":3,"size":1000,
     "batch_crc":2480866765,"state_digest":"..."}}

``size`` is the batch's event count, ``batch_crc`` its
:meth:`UpdateColumns.checksum <repro.graphs.updates.UpdateColumns.checksum>`,
and ``state_digest`` stamps :meth:`DynamicGraph.state_stamp
<repro.dynamic.DynamicGraph.state_stamp>` of the graph the batch applies
*to* (the pre-apply state).  ``crc`` is ``zlib.crc32`` over the body's raw
bytes, written as 8 hex digits so the header has a fixed width and a
reader finds the body by position; :func:`compact_wal` verifies every
line and copies a retained one byte for byte.

A committed line in any other shape — an older build's version-1 or
version-2 record (which held the batch's events) included — is
:class:`WALCorruptionError` naming its line; finish such a stream with
the build that wrote it.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.graphs.updates import UpdateColumns

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

WAL_FORMAT_VERSION = 3

#: Fixed-width head of a line: ``{"v":3,"crc":"<8 hex>","body":``.
_HEAD = b'{"v":3,"crc":"'
_BODY = b'","body":'
_BODY_START = len(_HEAD) + 8 + len(_BODY)


class WALError(Exception):
    """A write-ahead log could not be read or written."""


class WALCorruptionError(WALError):
    """A committed WAL record is damaged (bad checksum / malformed body)."""


@dataclass(frozen=True)
class WALRecord:
    """One committed batch: its index, size, checksum and stamp.

    Attributes
    ----------
    batch_index:
        Zero-based position of the batch in the stream.
    size, batch_crc:
        The batch's event count and the checksum of its events; replay
        re-takes that many events of the stream and refuses them unless
        their checksum matches.
    state_digest:
        Stamp of the graph the batch applies *to* (the pre-apply state).
        Replay checks it before applying the batch, so a WAL paired with
        the wrong snapshot fails loudly instead of rebuilding a wrong
        cover.
    """

    batch_index: int
    size: int
    batch_crc: int
    state_digest: str


def _encode(batch_index: int, updates: UpdateColumns, state_digest: str) -> bytes:
    """One record line, newline included."""
    body = {
        "batch_index": int(batch_index),
        "size": len(updates),
        "batch_crc": updates.checksum(),
        "state_digest": state_digest,
    }
    raw = json.dumps(body, separators=(",", ":")).encode("utf-8")
    return b"%s%08x%s%s}\n" % (_HEAD, zlib.crc32(raw), _BODY, raw)


def _check_line(name: str, lineno: int, line: bytes) -> WALRecord:
    """Checksum-verify and decode one committed line."""
    where = f"WAL {name} line {lineno}"
    crc_hex = line[len(_HEAD) : len(_HEAD) + 8]
    if (
        not line.startswith(_HEAD)
        or line[len(_HEAD) + 8 : _BODY_START] != _BODY
        or not all(c in b"0123456789abcdef" for c in crc_hex)
    ):
        raise WALCorruptionError(
            f"{where}: unparseable record header (this build reads WAL "
            f"format version {WAL_FORMAT_VERSION} only)"
        )
    crc = int(crc_hex, 16)
    body = line[_BODY_START:-1]
    computed = zlib.crc32(body)
    if not line.endswith(b"}") or computed != crc:
        raise WALCorruptionError(
            f"{where}: checksum mismatch (stored {crc}, computed "
            f"{computed}) — the log is damaged"
        )
    try:
        payload = json.loads(body)
        fields = [payload[key] for key in ("batch_index", "size", "batch_crc", "state_digest")]
        if [type(field) for field in fields] != [int, int, int, str]:
            raise ValueError(f"fields of the wrong types: {fields}")
    except (KeyError, TypeError, ValueError) as exc:
        raise WALCorruptionError(
            f"{where}: malformed WAL record body: {type(exc).__name__}: {exc}"
        ) from None
    return WALRecord(*fields)


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
        self, batch_index: int, updates: UpdateColumns, *, state_digest: str
    ) -> None:
        """Commit one batch: its size and checksum, stamped with
        ``state_digest``.

        The caller validates the batch first, as the stream engine does
        before it stamps and logs one: a committed bad batch would fail
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


def _committed(path: PathLike) -> Tuple[List[bytes], List[WALRecord], bool]:
    """The log's committed (newline-terminated) lines, their verified
    records, and whether a torn tail followed them."""
    name = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return [], [], False
    except OSError as exc:
        raise WALError(f"cannot read WAL {name}: {exc}") from exc
    torn = bool(raw) and not raw.endswith(b"\n")
    lines = raw.split(b"\n")
    lines.pop()  # "" after the last newline, or the uncommitted tail
    records: List[WALRecord] = []
    for lineno, line in enumerate(lines, start=1):
        record = _check_line(name, lineno, line)
        if records and record.batch_index <= records[-1].batch_index:
            raise WALCorruptionError(
                f"WAL {name} line {lineno}: batch index {record.batch_index} "
                f"does not increase past {records[-1].batch_index}"
            )
        records.append(record)
    return lines, records, torn


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
    _, records, torn = _committed(path)
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
    copied byte for byte — no record is re-encoded.  The log
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
    lines, records, torn = _committed(path)
    keep = [
        line
        for line, record in zip(lines, records)
        if record.batch_index >= int(min_batch_index)
    ]
    if len(keep) == len(lines) and not torn:
        return 0
    data = b"".join(line + b"\n" for line in keep)
    from repro.graphs.io import write_bytes_atomic

    try:
        write_bytes_atomic(path, data, fsync=fsync)
    except OSError as exc:
        raise WALError(f"cannot compact WAL {os.fspath(path)}: {exc}") from exc
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
