"""Bounded LRU cache for solve results.

Repeated traffic to a solving service is dominated by repeated instances
(the same graph re-submitted with the same parameters), so results are
cached under the canonical request digest
(:func:`repro.service.schema.request_digest`).  Because
:class:`~repro.core.result.MWVCResult` is effectively immutable — callers
only read it — hits return the stored object without copying.

The cache is thread-safe (a single lock around the ordered map); the
process-pool workers never touch it — only the coordinating
:class:`~repro.service.batch.BatchSolver` in the parent process does.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.result import MWVCResult

__all__ = ["CacheStats", "ResultCache"]


@dataclass
class CacheStats:
    """Counters observed since cache construction (or the last reset)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_entries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """LRU map ``digest -> MWVCResult`` with at most ``max_entries`` entries.

    ``max_entries=0`` disables storage (every lookup misses); this lets the
    batch solver treat "no cache" uniformly.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self._max = int(max_entries)
        self._data: "OrderedDict[str, MWVCResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def max_entries(self) -> int:
        return self._max

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: str) -> Optional[MWVCResult]:
        """The cached result for ``key``, refreshing its recency; None on miss."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._hits += 1
                return self._data[key]
            self._misses += 1
            return None

    def put(self, key: str, result: MWVCResult) -> None:
        """Insert (or refresh) ``key``, evicting the least recent on overflow."""
        if self._max == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = result
                return
            self._data[key] = result
            while len(self._data) > self._max:
                self._data.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop all entries (stats are kept)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        """A snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                max_entries=self._max,
            )
