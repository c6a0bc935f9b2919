"""Ingestion layer: pluggable update sources.

A stream may arrive as an in-memory sequence, a JSON-lines file (plain or
gzipped), a columnar ``.npz`` file, or a directory of numbered segment
files (the shape a log-shipping producer writes — see
:func:`repro.graphs.updates.save_update_stream_segments`).
:func:`open_update_source` coerces any of those into an
:class:`UpdateSource`, and :func:`iter_update_batches` chops one into
repair batches.
"""

from __future__ import annotations

import glob
import os
import re
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.graphs.updates import GraphUpdate, UpdateColumns, load_update_stream

__all__ = [
    "DirectorySource",
    "FileSource",
    "IterableSource",
    "MemorySource",
    "UpdateSource",
    "iter_update_batches",
    "open_update_source",
]

PathLike = Union[str, "os.PathLike[str]"]


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
