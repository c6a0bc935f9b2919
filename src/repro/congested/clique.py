"""The congested clique model [LPSPP05].

``n`` nodes, fully connected; computation proceeds in synchronous rounds; in
each round every ordered pair of nodes may exchange one ``O(log n)``-bit
message — one machine word in this package's accounting.  Local memory and
computation are unbounded (the model's stated assumption).

The simulator enforces the per-link word limit and counts rounds; it is the
substrate for the BDH18 equivalence adapter in :mod:`repro.congested.mwvc`.
The tests also run Algorithm 1 natively on it, message by message
(``tests/clique_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.mpc.message import payload_words

__all__ = ["CongestedClique", "CliqueMessage", "LinkCapacityExceeded"]


class LinkCapacityExceeded(RuntimeError):
    """A single link carried more than the per-round word budget."""

    def __init__(self, src: int, dst: int, words: int, limit: int):
        self.src, self.dst, self.words, self.limit = src, dst, words, limit
        super().__init__(
            f"link {src}->{dst} carried {words} words in one round, limit {limit}"
        )


@dataclass(frozen=True)
class CliqueMessage:
    """One directed message for one round."""

    src: int
    dst: int
    payload: Any
    words: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "words", payload_words(self.payload))


class CongestedClique:
    """Synchronous congested-clique communication with link-capacity checks.

    Parameters
    ----------
    num_nodes:
        Number of clique nodes (``n``).
    words_per_link:
        Per-round, per-ordered-pair word budget (default 1, the
        ``O(log n)``-bit message of the model).
    """

    def __init__(self, num_nodes: int, *, words_per_link: int = 1):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if words_per_link < 1:
            raise ValueError("words_per_link must be >= 1")
        self.num_nodes = int(num_nodes)
        self.words_per_link = int(words_per_link)
        self.rounds = 0
        self.total_messages = 0
        self.total_words = 0
        self.max_node_inflow = 0
        self.max_node_outflow = 0

    def exchange(self, messages: Iterable[CliqueMessage]) -> Dict[int, List[CliqueMessage]]:
        """One synchronous round; returns per-destination inboxes.

        Raises :class:`LinkCapacityExceeded` if an ordered pair carries more
        than ``words_per_link`` words, and ``ValueError`` on bad node ids or
        self-messages.
        """
        link_words: Dict[Tuple[int, int], int] = {}
        inflow = [0] * self.num_nodes
        outflow = [0] * self.num_nodes
        inboxes: Dict[int, List[CliqueMessage]] = {}
        msgs = sorted(messages, key=lambda mm: (mm.src, mm.dst))
        for msg in msgs:
            if not (0 <= msg.src < self.num_nodes and 0 <= msg.dst < self.num_nodes):
                raise ValueError(f"node id out of range in message {msg.src}->{msg.dst}")
            if msg.src == msg.dst:
                raise ValueError("self-messages are not part of the model")
            key = (msg.src, msg.dst)
            link_words[key] = link_words.get(key, 0) + msg.words
            if link_words[key] > self.words_per_link:
                raise LinkCapacityExceeded(msg.src, msg.dst, link_words[key], self.words_per_link)
            inflow[msg.dst] += msg.words
            outflow[msg.src] += msg.words
            inboxes.setdefault(msg.dst, []).append(msg)
        self.rounds += 1
        self.total_messages += len(msgs)
        self.total_words += sum(mm.words for mm in msgs)
        if inflow:
            self.max_node_inflow = max(self.max_node_inflow, max(inflow))
            self.max_node_outflow = max(self.max_node_outflow, max(outflow))
        return inboxes

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "total_words": self.total_words,
            "max_node_inflow": self.max_node_inflow,
            "max_node_outflow": self.max_node_outflow,
        }
