"""Round and communication metrics for cluster executions.

The MPC cost model cares about three quantities, all captured here:

* **rounds** — the headline complexity measure (Theorem 1.1);
* **communication** — words sent/received per machine per round, which must
  stay within ``S``;
* **memory** — per-machine high-water storage, which must stay within ``S``
  (Lemma 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ClusterMetrics"]


@dataclass
class ClusterMetrics:
    """Aggregated metrics over a cluster execution."""

    rounds: int = 0
    total_messages: int = 0
    total_words: int = 0
    max_sent_words: int = 0
    max_received_words: int = 0
    memory_high_water: int = 0

    def record_round(
        self, *, messages: int, total_words: int, max_sent_words: int, max_received_words: int
    ) -> None:
        """Fold one round's communication totals into the aggregates."""
        self.rounds += 1
        self.total_messages += messages
        self.total_words += total_words
        self.max_sent_words = max(self.max_sent_words, max_sent_words)
        self.max_received_words = max(self.max_received_words, max_received_words)

    def observe_memory(self, high_water: int) -> None:
        """Update the cluster-wide memory high-water mark."""
        if high_water > self.memory_high_water:
            self.memory_high_water = high_water

    def summary(self) -> dict:
        """Plain-dict summary for table printers and JSON dumps."""
        return {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "total_words": self.total_words,
            "max_sent_words": self.max_sent_words,
            "max_received_words": self.max_received_words,
            "memory_high_water": self.memory_high_water,
        }
