"""One lap timer for every timed path."""

from __future__ import annotations

import time
from typing import Dict

__all__ = ["Stopwatch"]


class Stopwatch:
    """Named laps on one monotonic clock.

    :meth:`lap` books the seconds since the previous lap (or since
    construction) under ``seconds[name]``, so consecutive laps partition
    the elapsed time and :attr:`total` is their sum.
    """

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self._mark = time.perf_counter()

    def lap(self, name: str) -> float:
        """Add the seconds since the previous lap to ``seconds[name]``."""
        now = time.perf_counter()
        elapsed, self._mark = now - self._mark, now
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        return elapsed

    @property
    def total(self) -> float:
        """Sum of every lap so far."""
        return sum(self.seconds.values())
