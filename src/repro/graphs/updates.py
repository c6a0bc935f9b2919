"""Graph update events and their JSON-lines wire format.

A dynamic workload is a stream of three event kinds:

* ``{"op": "insert", "u": 3, "v": 7}``      — add edge ``{3, 7}``;
* ``{"op": "delete", "u": 3, "v": 7}``      — remove edge ``{3, 7}``;
* ``{"op": "reweight", "v": 3, "weight": 2.5}`` — set ``w(3) = 2.5``.

The vertex set is fixed for the lifetime of a stream (vertex churn is
modeled as weight changes plus edge churn around the vertex); endpoints are
unordered, so ``insert 3 7`` and ``insert 7 3`` denote the same event.

On the wire each event is one JSON object per line: vertex ids are JSON
integers within ``int64`` and a weight is a finite JSON number > 0;
:func:`decode_update` refuses anything else.  Blank lines and ``#``
comments are skipped on load, mirroring the batch-manifest format.
A load parses 1024 lines at a time with one ``json.loads`` and checks
the records as arrays; a chunk that fails any check is decoded again line
by line, so strictness is that of :func:`decode_update` and its errors
still name their line.

:class:`UpdateColumns` holds events as four parallel arrays
(``op``/``u``/``v``/``w``).  It is the one form an event takes from a
source to the kernel: :func:`load_update_stream` decodes into it, the
generators of :mod:`repro.graphs.streams` return it, :func:`save_update_stream`
writes from it, it is the on-disk form of a ``.npz`` stream file, and
it is where a batch is validated and checksummed for the write-ahead log.
A stream built by hand is a list of ``(op, u, v, w)`` rows::

    UpdateColumns.from_rows([(OP_INSERT, 3, 7, 0.0), (OP_REWEIGHT, 0, 3, 2.5)])

This module lives in the graph substrate layer (events *are* graph
mutations) and imports from the rest of the package only
:func:`repro.graphs.io.read_npz`, so both :mod:`repro.graphs.streams` and
the :mod:`repro.dynamic` subsystem can depend on it without entangling the
two packages.
"""

from __future__ import annotations

import glob
import gzip
import json
import math
import os
import re
import zlib
from dataclasses import dataclass
from itertools import islice, repeat
from operator import itemgetter
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.graphs.io import read_npz

__all__ = [
    "InvalidUpdateError",
    "UpdateColumns",
    "decode_update",
    "save_update_stream",
    "save_update_stream_segments",
    "load_update_stream",
]

PathLike = Union[str, "os.PathLike[str]"]

#: ``UpdateColumns.op`` codes: one ASCII letter per event, so an ``op``
#: column is also a readable string (``"iidr"``).
OP_INSERT, OP_DELETE, OP_REWEIGHT = ord("i"), ord("d"), ord("r")

#: One event as a column row: ``(op, u, v, w)``.
Row = Tuple[int, int, int, float]
_ROW = np.dtype([("op", np.uint8), ("u", np.int64), ("v", np.int64), ("w", np.float64)])


class InvalidUpdateError(ValueError):
    """An update the graph would refuse, caught before it was logged.

    ``batch_index`` and ``position`` (zero-based offset in the whole
    stream) locate the offending event.
    """

    def __init__(self, reason: str, *, batch_index: int, position: int):
        super().__init__(
            f"invalid update at stream position {position} "
            f"(batch {batch_index}): {reason}"
        )
        self.batch_index = batch_index
        self.position = position


@dataclass(frozen=True, eq=False)
class UpdateColumns:
    """Update events as four parallel arrays, in stream order.

    ``op`` holds :data:`OP_INSERT`/:data:`OP_DELETE`/:data:`OP_REWEIGHT`
    per event (``uint8``).  Edge events keep their endpoints in ``u`` and
    ``v`` as given (``int64``); a reweight keeps its vertex in ``v`` and
    its weight in ``w`` (``float64``).  Unused slots hold 0.

    The stream engine and ``apply_batch`` work on the arrays.  ``len()``
    counts the events and a slice is another :class:`UpdateColumns` over
    views of them; there is no per-event view, so indexing by an integer
    and iterating raise ``TypeError``.
    """

    op: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        lengths = {a.shape[0] for a in (self.op, self.u, self.v, self.w)}
        if len(lengths) != 1:
            raise ValueError("update columns have different lengths")

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "UpdateColumns":
        """Columns of ``(op, u, v, w)`` rows, one per event."""
        table = np.fromiter(rows, dtype=_ROW)
        return cls(*(np.ascontiguousarray(table[name]) for name in _ROW.names))

    def __len__(self) -> int:
        return int(self.op.shape[0])

    #: Not iterable: ``iter()`` and ``in`` raise ``TypeError`` rather
    #: than fall back to integer indexing.
    __iter__ = None

    def __getitem__(self, key: slice) -> "UpdateColumns":
        if not isinstance(key, slice):
            raise TypeError(
                f"UpdateColumns takes only slices, not {type(key).__name__}"
            )
        return UpdateColumns(self.op[key], self.u[key], self.v[key], self.w[key])

    def checksum(self) -> int:
        """CRC-32 of ``op``, ``v``, the ``u`` of edge events and the ``w`` of
        reweights in canonical dtypes: equal events, equal checksum, whatever
        their dtypes or unused slots (the write-ahead log commits it)."""
        reweight = self.op == OP_REWEIGHT
        crc = zlib.crc32(np.ascontiguousarray(self.op, dtype="u1"))
        crc = zlib.crc32(np.ascontiguousarray(self.v, dtype="<i8"), crc)
        crc = zlib.crc32(np.ascontiguousarray(self.u[~reweight], dtype="<i8"), crc)
        return zlib.crc32(np.ascontiguousarray(self.w[reweight], dtype="<f8"), crc)

    def validate(self, n: int, *, batch_index: int, start: int) -> None:
        """Raise :class:`InvalidUpdateError` for the first event a graph on
        ``n`` vertices would refuse.

        The checks are the graph's invariants — vertex range, no
        self-loop inserts, finite positive weights; deleting a self-loop
        is a no-op and passes.  ``start`` is the stream position of
        the first event, so the error names the offending event's position
        in the whole stream.
        """
        op, u, v, w = self.op, self.u, self.v, self.w
        insert = op == OP_INSERT
        edge = insert | (op == OP_DELETE)
        reweight = op == OP_REWEIGHT
        bad_u = edge & ((u < 0) | (u >= n))
        bad_v = (v < 0) | (v >= n)
        loop = insert & (u == v)
        # NaN fails both comparisons, inf the second.
        bad_w = reweight & ~((w > 0) & (w < np.inf))
        bad = ~(edge | reweight) | bad_u | bad_v | loop | bad_w
        if not bad.any():
            return
        i = int(np.argmax(bad))
        if not (edge[i] or reweight[i]):
            reason = f"unknown update op code {int(op[i])}"
        elif bad_u[i] or bad_v[i]:
            vertex = int(u[i]) if bad_u[i] else int(v[i])
            reason = f"vertex {vertex} out of range [0, {n})"
        elif loop[i]:
            reason = f"self-loop at vertex {int(u[i])} is not allowed"
        else:
            reason = f"vertex weights must be finite and > 0, got {float(w[i])}"
        raise InvalidUpdateError(reason, batch_index=batch_index, position=start + i)


#: Wire-format op name of each edge event's ``UpdateColumns.op`` code.
_EDGE_OPS = {OP_INSERT: "insert", OP_DELETE: "delete"}
#: The exact key set of each op's wire-format object.
_KEYS = {
    "insert": frozenset(("op", "u", "v")),
    "delete": frozenset(("op", "u", "v")),
    "reweight": frozenset(("op", "v", "weight")),
}
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _vertex(x) -> int:
    # ``type`` rather than ``isinstance``: JSON's ``true`` is a bool, and
    # bool is an int subclass.
    if type(x) is not int or not _INT64_MIN <= x <= _INT64_MAX:
        raise ValueError(f"vertex ids must be JSON integers within int64, got {x!r}")
    return x


def _weight(x) -> float:
    if type(x) is float or type(x) is int:
        try:
            w = float(x)
        except OverflowError:  # an integer beyond float range
            w = math.inf
        if 0.0 < w < math.inf:
            return w
    raise ValueError(f"reweight weight must be a finite JSON number > 0, got {x!r}")


def decode_update(spec) -> Row:
    """One wire-format JSON object as an ``(op, u, v, w)`` column row.

    The one check every JSON decode runs: ``op`` names a known event, the
    keys are exactly that event's, vertex ids are JSON integers within
    ``int64`` (not bools, floats or strings) and a weight is a finite JSON
    number > 0.  Anything else raises ``ValueError``.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"update record must be a JSON object, got {type(spec).__name__}")
    op = spec.get("op")
    keys = _KEYS.get(op) if type(op) is str else None
    if keys is None:
        raise ValueError(f"unknown op {op!r}; expected 'insert', 'delete' or 'reweight'")
    if spec.keys() != keys:
        extra = spec.keys() - keys
        if extra:
            raise ValueError(f"unknown keys {sorted(extra)} for op {op!r}")
        need = " and ".join(repr(k) for k in sorted(keys - {"op"}))
        raise ValueError(f"op {op!r} needs keys {need}")
    if op == "reweight":
        return OP_REWEIGHT, 0, _vertex(spec["v"]), _weight(spec["weight"])
    code = OP_INSERT if op == "insert" else OP_DELETE
    return code, _vertex(spec["u"]), _vertex(spec["v"]), 0.0


_OP_CODES = {"insert": OP_INSERT, "delete": OP_DELETE, "reweight": OP_REWEIGHT}


def _records_columns(records) -> Optional[UpdateColumns]:
    """The columns of a list of parsed wire-format records, from array
    passes; ``None`` unless :func:`decode_update` accepts every record, in
    which case they equal the columns of its rows."""
    if not {dict}.issuperset(map(type, records)):
        return None
    n = len(records)
    # TypeError: an unknown op; KeyError: no "v"; OverflowError: out of range.
    try:
        ops = map(dict.get, records, repeat("op"))
        op = np.fromiter(map(_OP_CODES.get, ops), np.uint8, n)
        v = list(map(itemgetter("v"), records))
        u = list(map(dict.get, records, repeat("u"), repeat(0)))
        w = list(map(dict.get, records, repeat("weight"), repeat(0.0)))
        # Three keys each, "u" exactly on the edge events: an edge holds
        # op/u/v, a reweight op/v and one more, which a weight > 0 shows
        # is "weight".  ``type`` sets, as in ``_vertex``/``_weight``: no bools.
        has_u = np.fromiter(map(dict.__contains__, records, repeat("u")), bool, n)
        if (
            set(map(len, records)) - {3}
            or not np.array_equal(has_u, op != OP_REWEIGHT)
            or not {int}.issuperset(map(type, u + v))
            or not {int, float}.issuperset(map(type, w))
        ):
            return None
        cols = UpdateColumns(
            op, np.array(u, np.int64), np.array(v, np.int64), np.array(w, np.float64)
        )
    except (TypeError, KeyError, OverflowError):
        return None
    ok = (cols.w > 0) & (cols.w < np.inf)  # edges carry 0.0
    return cols if np.array_equal(ok, cols.op == OP_REWEIGHT) else None


def _encode_row(op: int, u: int, v: int, w: float) -> str:
    """One event as its wire-format JSON line (newline included)."""
    if op == OP_REWEIGHT:
        spec = {"op": "reweight", "v": v, "weight": w}
    elif op in _EDGE_OPS:
        spec = {"op": _EDGE_OPS[op], "u": u, "v": v}
    else:
        raise ValueError(f"unknown update op code {op!r}")
    return json.dumps(spec) + "\n"


def _is_npz(path) -> bool:
    return isinstance(path, (str, os.PathLike)) and os.fspath(path).endswith(".npz")


def save_update_stream(updates: UpdateColumns, path: PathLike) -> None:
    """Write a stream as JSON lines (gzip-compressed iff ``path`` ends ``.gz``).

    A path ending ``.npz`` gets the columnar form instead: one store-only
    archive of the :class:`UpdateColumns` arrays, which loads without
    parsing any text.
    """
    if _is_npz(path):
        np.savez(path, op=updates.op, u=updates.u, v=updates.v, w=updates.w)
        return
    opener = gzip.open if str(path).endswith(".gz") else open
    rows = zip(
        updates.op.tolist(), updates.u.tolist(), updates.v.tolist(), updates.w.tolist()
    )
    with opener(path, "wt", encoding="utf-8") as fh:
        fh.writelines(_encode_row(*row) for row in rows)


def save_update_stream_segments(
    updates: UpdateColumns,
    directory: PathLike,
    *,
    segment_size: int = 10_000,
    compress: bool = False,
) -> List[str]:
    """Write a stream as numbered JSON-lines segment files in ``directory``.

    Segments are named ``part-00000.jsonl`` (``.jsonl.gz`` with
    ``compress``) and hold ``segment_size`` events each; the lexicographic
    filename order is the stream order, which is how
    :func:`load_update_stream` reads the directory back.
    Returns the written paths.
    """
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")
    os.makedirs(os.fspath(directory), exist_ok=True)
    suffix = ".jsonl.gz" if compress else ".jsonl"
    paths: List[str] = []
    for start in range(0, len(updates), segment_size):
        path = os.path.join(os.fspath(directory), f"part-{len(paths):05d}{suffix}")
        save_update_stream(updates[start : start + segment_size], path)
        paths.append(path)
    return paths


def _json_lines(
    lines: Iterable[Union[str, bytes]], where: str = "", start: int = 1
) -> Iterator[Row]:
    for lineno, raw in enumerate(lines, start=start):
        try:
            # Bytes are decoded here, line by line, as strict UTF-8 (the
            # default), so a line that is not UTF-8 is named like any other
            # bad line; ``json.loads`` gets text only (given bytes it would
            # also accept UTF-16/32).
            if isinstance(raw, bytes):
                raw = raw.decode()
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield decode_update(json.loads(line))
        except ValueError as exc:
            raise ValueError(f"{where}update stream line {lineno}: {exc}") from exc


#: Lines parsed by one ``json.loads`` (some 40 KiB of wire records):
#: whole-file parsing would hold every line's objects at once.
_CHUNK_LINES = 1 << 10


def _chunk_columns(chunk: list) -> Optional[UpdateColumns]:
    """One chunk's columns from a single ``json.loads``, or ``None`` unless
    they are what :func:`_json_lines` gives for its lines."""
    try:
        lines = [x.decode() if isinstance(x, bytes) else x for x in chunk]
        lines = [s for s in map(str.strip, lines) if s and s[0] != "#"]
        # Each line becomes its own array.  With no bracket inside any
        # line, k arrays holding one value each parse only from k lines
        # that each hold exactly that value: no string or duplicate key
        # can reach across a separator.
        text = "\n".join(lines)
        if "[" in text or "]" in text:
            return None
        wrapped = json.loads("[[" + "],[".join(lines) + "]]")
    except (ValueError, TypeError, RecursionError):
        return None
    if len(wrapped) != len(lines) or set(map(len, wrapped)) != {1}:
        return None
    return _records_columns(list(map(itemgetter(0), wrapped)))


def _json_chunks(
    lines: Iterable[Union[str, bytes]], where: str = ""
) -> Iterator[UpdateColumns]:
    """Columns ``_CHUNK_LINES`` lines at a time; a chunk the bulk path
    refuses is decoded again line by line, so its error names the line and
    comes from :func:`decode_update`."""
    lines = iter(lines)
    start = 1
    for chunk in iter(lambda: list(islice(lines, _CHUNK_LINES)), []):
        cols = _chunk_columns(chunk)
        if cols is None:
            cols = UpdateColumns.from_rows(_json_lines(chunk, where, start))
        yield cols
        start += len(chunk)


def _json_files(paths: Iterable[str]) -> Iterator[UpdateColumns]:
    for path in paths:
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "rb") as fh:
            yield from _json_chunks(fh, f"{path}: ")


def _segments(directory: str) -> List[str]:
    """The ``*.jsonl*`` files of ``directory``, ``part-2`` before ``part-10``."""
    paths = glob.glob(os.path.join(directory, "*.jsonl*"))
    if not paths and os.listdir(directory):
        raise ValueError(
            f"update directory {directory} has no segments matching '*.jsonl*'"
        )

    def natural(path: str):
        pieces = re.split(r"(\d+)", os.path.basename(path))
        return tuple(int(p) if p.isdigit() else p for p in pieces)

    return sorted(paths, key=natural)


#: The dtype each member of a ``.npz`` stream must have.
_NPZ_DTYPES = {"op": np.uint8, "u": np.integer, "v": np.integer, "w": np.floating}


def _load_npz(path: PathLike) -> UpdateColumns:
    name = os.fspath(path)
    op, u, v, w = read_npz(path, _NPZ_DTYPES, what="an update stream").values()
    for key, arr in zip(_NPZ_DTYPES, (op, u, v, w)):
        if arr.ndim != 1:
            problem = f"shape {arr.shape}, not 1-D"
        elif not np.issubdtype(arr.dtype, _NPZ_DTYPES[key]):
            problem = f"dtype {arr.dtype}, expected {_NPZ_DTYPES[key].__name__}"
        elif arr.shape[0] != op.shape[0]:
            problem = f"{arr.shape[0]} entries, 'op' has {op.shape[0]}"
        else:
            continue
        raise ValueError(f"{name}: member {key!r} has {problem}")
    return UpdateColumns(
        op, u.astype(np.int64), v.astype(np.int64), w.astype(np.float64)
    )


def load_update_stream(
    source: Union[PathLike, IO, Iterable[Union[str, bytes]]]
) -> UpdateColumns:
    """Load an update stream as :class:`UpdateColumns`.

    ``source`` is a JSON-lines file (``.gz`` transparently decompressed),
    a columnar ``.npz`` file, a directory of JSON-lines segments (as
    :func:`save_update_stream_segments` writes them; an empty directory is
    an empty stream), or an open stream / iterable of JSON lines as text
    or UTF-8 bytes (such as stdin).  Bad input fails here, loudly: a line
    that is not UTF-8 or that :func:`decode_update` refuses raises
    ``ValueError`` naming its line number (and its file, for a file or
    segment), a malformed ``.npz`` member (``op`` must be ``uint8``, ``u``/``v`` integer, ``w``
    floating, all 1-D of one length) one naming the file and the member,
    and an unreadable ``.npz`` archive (empty, truncated, corrupt) one
    naming the file.

    JSON lines are decoded a chunk of lines at a time, with one
    ``json.loads`` per chunk; the result and the strictness are the
    per-line decode's, because a chunk that fails any check is decoded
    again line by line and the error comes from :func:`decode_update`.
    """
    if _is_npz(source):
        return _load_npz(source)
    if isinstance(source, (str, bytes, os.PathLike)):
        path = os.fspath(source)
        parts = _json_files(_segments(path) if os.path.isdir(path) else [path])
    else:
        parts = _json_chunks(source)
    parts = [UpdateColumns.from_rows(()), *parts]
    return UpdateColumns(
        *(np.concatenate([getattr(p, name) for p in parts]) for name in _ROW.names)
    )
