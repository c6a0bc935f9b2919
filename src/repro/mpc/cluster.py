"""Synchronous-round MPC cluster simulator.

The simulator realizes the model of Section 1.1 of the paper: ``M`` reliable
machines with ``S`` words of local memory each; computation proceeds in
synchronous rounds; in each round every machine performs local computation
and then sends messages, subject to the constraint that no machine sends or
receives more than ``S`` words per round.  Violations raise (see
:mod:`repro.mpc.exceptions`) — a run that completes is, by construction, a
valid MPC execution, and its :class:`~repro.mpc.metrics.ClusterMetrics`
(rounds, words, memory) are the model costs reported in the benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.mpc.exceptions import CommunicationLimitExceeded, ProtocolError
from repro.mpc.machine import Machine
from repro.mpc.message import Message
from repro.mpc.metrics import ClusterMetrics

__all__ = ["Cluster"]


class Cluster:
    """A fixed set of machines exchanging messages in synchronous rounds.

    Parameters
    ----------
    num_machines:
        Number of machines ``M`` (>= 1).
    capacity_words:
        Per-machine memory and per-round communication bound ``S`` in words;
        ``None`` disables enforcement.
    """

    def __init__(self, num_machines: int, capacity_words: int | None):
        if num_machines < 1:
            raise ValueError(f"num_machines must be >= 1, got {num_machines}")
        self.num_machines = int(num_machines)
        self.capacity_words = None if capacity_words is None else int(capacity_words)
        self.machines = [Machine(i, self.capacity_words) for i in range(self.num_machines)]
        self.metrics = ClusterMetrics()

    # ------------------------------------------------------------------ #
    def machine(self, machine_id: int) -> Machine:
        """Machine by id, with bounds checking."""
        if not (0 <= machine_id < self.num_machines):
            raise ProtocolError(f"machine id {machine_id} out of range [0, {self.num_machines})")
        return self.machines[machine_id]

    # ------------------------------------------------------------------ #
    def exchange(self, outgoing: Iterable[Message]) -> Dict[int, List[Message]]:
        """Execute one communication round.

        Takes all messages produced by the machines' local computation this
        round, enforces the model constraints, counts the round, and
        returns the inboxes (``dst -> [messages]``, in deterministic
        ``(src, dst)`` order) for the next round's local computation.

        Raises
        ------
        CommunicationLimitExceeded
            If a machine's total sent or received words exceed ``S``.
        ProtocolError
            On out-of-range machine ids.
        """
        msgs = sorted(outgoing, key=lambda mm: (mm.src, mm.dst, mm.tag))
        sent = [0] * self.num_machines
        received = [0] * self.num_machines
        inboxes: Dict[int, List[Message]] = {}
        for msg in msgs:
            if not (0 <= msg.src < self.num_machines):
                raise ProtocolError(f"message source {msg.src} out of range")
            if not (0 <= msg.dst < self.num_machines):
                raise ProtocolError(f"message destination {msg.dst} out of range")
            sent[msg.src] += msg.words
            received[msg.dst] += msg.words
            inboxes.setdefault(msg.dst, []).append(msg)
        if self.capacity_words is not None:
            for mid in range(self.num_machines):
                if sent[mid] > self.capacity_words:
                    raise CommunicationLimitExceeded(mid, "sent", sent[mid], self.capacity_words)
                if received[mid] > self.capacity_words:
                    raise CommunicationLimitExceeded(
                        mid, "received", received[mid], self.capacity_words
                    )
        self.metrics.record_round(
            messages=len(msgs),
            total_words=sum(m.words for m in msgs),
            max_sent_words=max(sent),
            max_received_words=max(received),
        )
        for machine in self.machines:
            self.metrics.observe_memory(machine.high_water)
        return inboxes

    def local_round(self) -> None:
        """Account a round in which machines compute but send nothing.

        The MPC model charges rounds, not messages; a purely local phase
        still costs one round of the complexity measure.
        """
        self.exchange([])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "∞" if self.capacity_words is None else str(self.capacity_words)
        return f"Cluster(M={self.num_machines}, S={cap}, rounds={self.metrics.rounds})"
