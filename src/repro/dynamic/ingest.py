"""Ingestion layer: pluggable update sources and the partition router.

The first stage of the sharded stream pipeline
(:mod:`repro.dynamic.sharded`).  Two concerns live here:

**Sources.**  A stream may arrive as an in-memory sequence, a JSON-lines
file (plain or gzipped), or a directory of numbered segment files (the
shape a log-shipping producer writes — see
:func:`repro.graphs.updates.save_update_stream_segments`).
:func:`open_update_source` coerces any of those into an
:class:`UpdateSource`, and :func:`iter_update_batches` chops one into
repair batches.

**Routing.**  :class:`UpdateRouter` owns the vertex partition (an
assignment array from :func:`repro.mpc.partition.make_partition`) and
routes every event to the shard(s) that must see it:

* edge events go to the owner shard of *each* endpoint (one shard for an
  internal edge, both for a cut edge) — every shard holds exactly the
  edges incident to its owned vertices;
* weight changes are broadcast to every shard, because any shard may need
  the weight of a ghost neighbor during pruning.

Events are routed as compact wire tuples carrying their global stream
position (``seq``), so each shard applies its slice in original stream
order and the coordinator can replay cross-shard effects (dual
retirements) in the exact global order — the float-level determinism the
differential equivalence tests rely on.
"""

from __future__ import annotations

import glob
import os
import re
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.updates import (
    EdgeDelete,
    EdgeInsert,
    GraphUpdate,
    UpdateColumns,
    WeightChange,
    load_update_stream,
)

__all__ = [
    "DirectorySource",
    "FileSource",
    "IterableSource",
    "MemorySource",
    "RoutedBatch",
    "UpdateRouter",
    "UpdateSource",
    "iter_update_batches",
    "open_update_source",
]

PathLike = Union[str, "os.PathLike[str]"]

#: Wire tuples shipped to shard workers: ``(seq, op, a, b)`` where ``op``
#: is ``"i"``/``"d"`` (a, b = canonical endpoints) or ``"w"`` (a = vertex,
#: b = new weight).
WireEvent = Tuple[int, str, int, float]


class UpdateSource:
    """An iterable of :data:`GraphUpdate` events in stream order."""

    def __iter__(self) -> Iterator[GraphUpdate]:  # pragma: no cover - abstract
        raise NotImplementedError

    def count(self) -> Optional[int]:
        """Number of events, when knowable without consuming the source."""
        return None

    def collect(self) -> List[GraphUpdate]:
        """Materialize the source as a list (consumes one-shot sources)."""
        return list(self)


class MemorySource(UpdateSource):
    """An in-memory sequence of events."""

    def __init__(self, updates: Sequence[GraphUpdate]):
        self._updates = list(updates)

    def __iter__(self) -> Iterator[GraphUpdate]:
        return iter(self._updates)

    def count(self) -> int:
        return len(self._updates)

    def collect(self) -> List[GraphUpdate]:
        return list(self._updates)


class FileSource(UpdateSource):
    """An update file: JSON lines (gzip-compressed iff the name ends
    ``.gz``) or the columnar ``.npz`` form."""

    def __init__(self, path: PathLike):
        self.path = os.fspath(path)

    def __iter__(self) -> Iterator[GraphUpdate]:
        return iter(load_update_stream(self.path))


class DirectorySource(UpdateSource):
    """A directory of JSON-lines segment files, read in filename order.

    The default pattern matches the segments written by
    :func:`repro.graphs.updates.save_update_stream_segments`; pass a
    custom glob for differently named logs.  An empty directory is an
    empty stream; a directory with no matching files raises (a typo'd
    pattern must not silently read zero updates from a populated log).
    """

    def __init__(self, directory: PathLike, *, pattern: str = "*.jsonl*"):
        self.directory = os.fspath(directory)
        self.pattern = pattern

    def segments(self) -> List[str]:
        paths = glob.glob(os.path.join(self.directory, self.pattern))
        if not paths and os.listdir(self.directory):
            raise ValueError(
                f"update directory {self.directory} has no segments matching "
                f"{self.pattern!r}"
            )
        # Numeric-aware ordering: a writer that outgrows its zero padding
        # (part-99999 → part-100000) must not have its segments replayed
        # lexicographically out of order.
        def natural(path: str):
            name = os.path.basename(path)
            return tuple(
                int(piece) if piece.isdigit() else piece
                for piece in re.split(r"(\d+)", name)
            )

        return sorted(paths, key=natural)

    def __iter__(self) -> Iterator[GraphUpdate]:
        for path in self.segments():
            yield from load_update_stream(path)


class IterableSource(UpdateSource):
    """A one-shot iterator of events (consumed on first traversal)."""

    def __init__(self, iterable: Iterable[GraphUpdate]):
        self._iterable = iterable

    def __iter__(self) -> Iterator[GraphUpdate]:
        return iter(self._iterable)


def open_update_source(
    spec: Union[UpdateSource, Sequence[GraphUpdate], Iterable[GraphUpdate], PathLike]
) -> UpdateSource:
    """Coerce ``spec`` into an :class:`UpdateSource`.

    Accepts an existing source, a path (file or directory), a sequence of
    events, or any iterable of events.
    """
    if isinstance(spec, UpdateSource):
        return spec
    if isinstance(spec, (str, os.PathLike)):
        path = os.fspath(spec)
        if os.path.isdir(path):
            return DirectorySource(path)
        return FileSource(path)
    if isinstance(spec, Sequence):
        return MemorySource(spec)
    if isinstance(spec, Iterable):
        return IterableSource(spec)
    raise TypeError(f"cannot read updates from {type(spec).__name__}")


def iter_update_batches(
    source: Union[UpdateSource, Sequence[GraphUpdate], PathLike],
    batch_size: int,
) -> Iterator[List[GraphUpdate]]:
    """Chop a source into lists of at most ``batch_size`` events."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if isinstance(source, UpdateColumns):
        for start in range(0, len(source), batch_size):
            yield source[start : start + batch_size].to_updates()
        return
    batch: List[GraphUpdate] = []
    for upd in open_update_source(source):
        batch.append(upd)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


class RoutedBatch:
    """One batch split into per-shard wire slices (stream order kept)."""

    __slots__ = ("slices", "num_events")

    def __init__(self, slices: List[List[WireEvent]], num_events: int):
        self.slices = slices
        self.num_events = num_events


class UpdateRouter:
    """Routes events to the shards owning their endpoints.

    Parameters
    ----------
    assignment:
        ``int64`` array mapping vertex id → shard id (see
        :func:`repro.mpc.partition.make_partition`).
    num_shards:
        Number of shards; every assignment entry must lie in
        ``[0, num_shards)``.
    """

    def __init__(self, assignment: np.ndarray, num_shards: int):
        self.assignment = np.asarray(assignment, dtype=np.int64)
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= num_shards
        ):
            raise ValueError(
                f"assignment entries must lie in [0, {num_shards})"
            )
        self.num_shards = num_shards

    def owner(self, v: int) -> int:
        """Shard owning vertex ``v``."""
        return int(self.assignment[v])

    def home(self, u: int, v: int) -> int:
        """Home shard of edge ``{u, v}``: the owner of the min endpoint."""
        return int(self.assignment[min(u, v)])

    def route(self, batch: Sequence[GraphUpdate], *, base_seq: int = 0) -> RoutedBatch:
        """Split ``batch`` into per-shard wire slices.

        Each event keeps its global position ``base_seq + i``; slices
        preserve relative order, so a shard applying its slice sees its
        events in original stream order.  Endpoint range is validated here
        (routing needs the owner); self-loop and weight validation happen
        at the shard/coordinator, mirroring the monolithic engine.
        """
        slices: List[List[WireEvent]] = [[] for _ in range(self.num_shards)]
        a = self.assignment
        n = a.shape[0]
        for i, upd in enumerate(batch):
            seq = base_seq + i
            if isinstance(upd, EdgeInsert) or isinstance(upd, EdgeDelete):
                op = "i" if isinstance(upd, EdgeInsert) else "d"
                u, v = int(upd.u), int(upd.v)
                if u > v:
                    u, v = v, u
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(
                        f"edge endpoints ({u}, {v}) out of range [0, {n})"
                    )
                event = (seq, op, u, v)
                su = int(a[u])
                slices[su].append(event)
                sv = int(a[v])
                if sv != su:
                    slices[sv].append(event)
            elif isinstance(upd, WeightChange):
                w_vertex = int(upd.v)
                if not 0 <= w_vertex < n:
                    raise ValueError(
                        f"vertex {w_vertex} out of range [0, {n})"
                    )
                event = (seq, "w", w_vertex, float(upd.weight))
                for s in range(self.num_shards):
                    slices[s].append(event)
            else:
                raise TypeError(f"not a graph update: {type(upd).__name__}")
        return RoutedBatch(slices=slices, num_events=len(batch))
