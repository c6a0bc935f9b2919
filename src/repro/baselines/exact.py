"""Exact minimum weight vertex cover for small instances.

:func:`exact_mwvc` is a branch and bound.  It branches on the vertex with
the largest live degree: either it joins the cover, or it stays out and
*all* its live neighbors join (the standard VC dichotomy, valid for
arbitrary weights).  Pruning uses the Bar-Yehuda–Even dual of the live
subgraph as an admissible lower bound.  Practical to ~60 vertices at
benchmark densities — comfortably covering the "exact OPT" column of
experiment E2.  The tests cross-check it against a subset-enumeration
oracle (``tests/oracles.py``) and the LP lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph

__all__ = ["ExactResult", "exact_mwvc"]


@dataclass(frozen=True)
class ExactResult:
    """Provably optimal cover."""

    in_cover: np.ndarray
    opt_weight: float
    nodes_explored: int


class _Searcher:
    """Branch-and-bound state machine with an explicit undo journal.

    Mutating operations (``take`` = vertex into cover; ``drop`` = vertex
    excluded) append ``(kind, vertex, saved_degree)`` entries; undoing in
    reverse order restores the exact prior state because each vertex's
    alive-neighbor set at undo time equals its set at do time.
    """

    def __init__(self, graph: WeightedGraph, node_limit: int):
        self.n = graph.n
        self.w = graph.weights.astype(np.float64)
        # Higher neighbours first, then lower: branch costs are float sums
        # in this order, so keeping it keeps ``opt_weight`` (and the
        # search's pruning) bit-stable.
        self.adj: List[np.ndarray] = []
        for v in range(self.n):
            row = graph.neighbors(v)
            self.adj.append(np.concatenate([row[row > v], row[row < v]]))
        self.alive = np.ones(self.n, dtype=bool)
        self.in_cover = np.zeros(self.n, dtype=bool)
        self.live_deg = graph.degrees.astype(np.int64).copy()
        self.best_weight = float(self.w.sum())
        self.best_cover = np.ones(self.n, dtype=bool)
        self.nodes = 0
        self.node_limit = node_limit

    # -- mutations ------------------------------------------------------ #
    def _deactivate(self, u: int, journal: List[Tuple[str, int, int]], kind: str) -> None:
        saved = int(self.live_deg[u])
        self.alive[u] = False
        for v in self.adj[u]:
            if self.alive[v]:
                self.live_deg[v] -= 1
        self.live_deg[u] = 0
        journal.append((kind, u, saved))

    def take(self, u: int, journal: List[Tuple[str, int, int]]) -> float:
        self.in_cover[u] = True
        self._deactivate(u, journal, "take")
        return float(self.w[u])

    def drop(self, u: int, journal: List[Tuple[str, int, int]]) -> None:
        self._deactivate(u, journal, "drop")

    def unwind(self, journal: List[Tuple[str, int, int]]) -> None:
        for kind, u, saved in reversed(journal):
            if kind == "take":
                self.in_cover[u] = False
            for v in self.adj[u]:
                if self.alive[v]:
                    self.live_deg[v] += 1
            self.alive[u] = True
            self.live_deg[u] = saved

    # -- bounding ------------------------------------------------------- #
    def lower_bound(self) -> float:
        """Bar-Yehuda–Even dual on the live subgraph (admissible: any cover
        of the live edges pays at least the raised dual)."""
        res = np.where(self.alive, self.w, 0.0)
        bound = 0.0
        for u in range(self.n):
            if not self.alive[u] or self.live_deg[u] == 0:
                continue
            ru = res[u]
            if ru <= 0.0:
                continue
            for v in self.adj[u]:
                if v <= u or not self.alive[v]:
                    continue
                rv = res[v]
                if rv <= 0.0 or ru <= 0.0:
                    continue
                pay = ru if ru < rv else rv
                bound += pay
                ru -= pay
                res[v] = rv - pay
            res[u] = ru
        return bound

    def branch_vertex(self) -> int:
        cand = np.nonzero(self.alive & (self.live_deg > 0))[0]
        if cand.size == 0:
            return -1
        order = np.lexsort((-self.w[cand], -self.live_deg[cand]))
        return int(cand[order[0]])

    # -- search --------------------------------------------------------- #
    def search(self, current: float) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise RuntimeError(f"exact_mwvc exceeded node limit {self.node_limit}")
        if current >= self.best_weight:
            return
        u = self.branch_vertex()
        if u < 0:
            self.best_weight = current
            self.best_cover = self.in_cover.copy()
            return
        if current + self.lower_bound() >= self.best_weight:
            return

        # Branch 1: u joins the cover.
        journal: List[Tuple[str, int, int]] = []
        cost = self.take(u, journal)
        self.search(current + cost)
        self.unwind(journal)

        # Branch 2: u stays out => every live neighbor joins.
        neighbors = [int(v) for v in self.adj[u] if self.alive[v]]
        journal = []
        self.drop(u, journal)
        cost = 0.0
        for v in neighbors:
            cost += self.take(v, journal)
        self.search(current + cost)
        self.unwind(journal)


def exact_mwvc(graph: WeightedGraph, *, node_limit: int = 5_000_000) -> ExactResult:
    """Branch-and-bound exact MWVC (see module docstring).

    Parameters
    ----------
    node_limit:
        Abort (``RuntimeError``) after exploring this many search nodes;
        guards the test suite against accidentally huge inputs.
    """
    searcher = _Searcher(graph, node_limit)
    searcher.search(0.0)
    return ExactResult(
        in_cover=searcher.best_cover,
        opt_weight=searcher.best_weight,
        nodes_explored=searcher.nodes,
    )
