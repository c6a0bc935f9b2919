"""A single MPC machine: bounded local storage with usage accounting.

A machine is a key-value store whose total size may never exceed the
capacity ``S`` (in words; see :func:`repro.mpc.message.payload_words` for the
charging rules).  The high-water mark is tracked so experiments can report
*peak* memory per machine (Lemma 4.1 is a statement about the peak).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.mpc.exceptions import MemoryLimitExceeded
from repro.mpc.message import payload_words

__all__ = ["Machine"]


class Machine:
    """Bounded-memory machine.

    Parameters
    ----------
    machine_id:
        Identifier in ``0 .. num_machines - 1``.
    capacity_words:
        Local memory ``S`` in words.  ``None`` disables enforcement (used by
        unit tests of other components, never by model-faithful runs).
    """

    __slots__ = ("machine_id", "capacity_words", "_store", "_sizes", "used_words", "high_water")

    def __init__(self, machine_id: int, capacity_words: int | None):
        self.machine_id = int(machine_id)
        self.capacity_words = None if capacity_words is None else int(capacity_words)
        self._store: Dict[str, Any] = {}
        self._sizes: Dict[str, int] = {}
        self.used_words = 0
        self.high_water = 0

    # ------------------------------------------------------------------ #
    def store(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``, replacing any previous value.

        Raises :class:`MemoryLimitExceeded` if the new total exceeds capacity
        (the store is rolled back — the machine keeps its previous state).
        """
        new_size = payload_words(value)
        old_size = self._sizes.get(key, 0)
        new_total = self.used_words - old_size + new_size
        if self.capacity_words is not None and new_total > self.capacity_words:
            raise MemoryLimitExceeded(self.machine_id, new_total, self.capacity_words, key)
        self._store[key] = value
        self._sizes[key] = new_size
        self.used_words = new_total
        if new_total > self.high_water:
            self.high_water = new_total

    def load(self, key: str) -> Any:
        """Retrieve the value stored under ``key`` (KeyError if absent)."""
        return self._store[key]

    def free(self, key: str) -> None:
        """Delete ``key`` (no-op when absent)."""
        if key in self._store:
            self.used_words -= self._sizes.pop(key)
            del self._store[key]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "∞" if self.capacity_words is None else str(self.capacity_words)
        return (
            f"Machine(id={self.machine_id}, used={self.used_words}/{cap}, "
            f"high_water={self.high_water})"
        )
