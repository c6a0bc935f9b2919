"""Exceptions raised by the MPC cluster simulator.

These model the *hard constraints* of the MPC model (Section 1.1 of the
paper): local memory of ``S`` words, and per-round communication bounded by
``S`` words sent and received per machine.  An algorithm that violates a
constraint is wrong in the model even if it computes the right answer, so
the simulator refuses to proceed rather than warn.
"""

from __future__ import annotations

__all__ = [
    "MPCError",
    "MemoryLimitExceeded",
    "CommunicationLimitExceeded",
    "ProtocolError",
]


class MPCError(RuntimeError):
    """Base class for MPC-model violations."""


class MemoryLimitExceeded(MPCError):
    """A machine's local storage exceeded its ``S``-word capacity."""

    def __init__(self, machine_id: int, used: int, capacity: int, key: str = ""):
        self.machine_id = machine_id
        self.used = used
        self.capacity = capacity
        self.key = key
        detail = f" while storing {key!r}" if key else ""
        super().__init__(
            f"machine {machine_id} memory limit exceeded{detail}: "
            f"{used} words used, capacity {capacity}"
        )


class CommunicationLimitExceeded(MPCError):
    """A machine sent or received more than ``S`` words in one round."""

    def __init__(self, machine_id: int, direction: str, words: int, capacity: int):
        self.machine_id = machine_id
        self.direction = direction
        self.words = words
        self.capacity = capacity
        super().__init__(
            f"machine {machine_id} {direction} {words} words in one round, "
            f"capacity {capacity}"
        )


class ProtocolError(MPCError):
    """The algorithm misused the cluster API (e.g. unknown machine id)."""
