"""Reference implementations and checkers the tests compare against.

None of these run on a user path; each one is an independent restatement
of something :mod:`repro` computes, kept here so a bug in the library
cannot hide itself:

* :func:`validate_graph` re-derives every structural invariant of a
  :class:`~repro.graphs.graph.WeightedGraph` without the construction code;
* :func:`exact_mwvc_bruteforce` enumerates all subsets, the oracle for the
  branch-and-bound :func:`~repro.baselines.exact.exact_mwvc`;
* :func:`is_minimal_cover` checks the output of
  :func:`~repro.core.postprocess.prune_redundant_vertices`;
* :func:`local_ratio_vertex_cover` is the Bar-Yehuda–Even local-ratio
  algorithm, the same dual ascent as
  :func:`~repro.baselines.pricing.pricing_vertex_cover` written as a
  weight decomposition; in the same edge order both give identical covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.baselines.exact import ExactResult
from repro.graphs.graph import WeightedGraph

# ---------------------------------------------------------------------------
# graph invariants
# ---------------------------------------------------------------------------


class GraphInvariantError(AssertionError):
    """Raised when a graph violates a structural invariant."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GraphInvariantError(message)


def validate_graph(graph: WeightedGraph) -> None:
    """Raise :class:`GraphInvariantError` unless all invariants hold.

    Checked invariants:

    I1. endpoint arrays have equal length and dtype int64;
    I2. every endpoint lies in ``[0, n)``;
    I3. canonical orientation ``u < v`` for every edge (hence no self-loops);
    I4. edges strictly lexicographically sorted (hence no duplicates);
    I5. weights positive, finite, length ``n``;
    I6. degrees equal an independent recount;
    I7. CSR adjacency is consistent: ``indptr`` monotone with total ``2m``,
        per-slot (head, tail, edge-id) triples match the edge arrays.
    """
    n, m = graph.n, graph.m
    u, v = graph.edges_u, graph.edges_v

    _require(u.shape == (m,) and v.shape == (m,), "I1: endpoint shape mismatch")
    _require(u.dtype == np.int64 and v.dtype == np.int64, "I1: endpoint dtype must be int64")
    if m:
        _require(int(u.min()) >= 0 and int(v.max()) < n, "I2: endpoint out of range")
        _require(bool((u < v).all()), "I3: edges must satisfy u < v")
        if m > 1:
            lex = (u[:-1] < u[1:]) | ((u[:-1] == u[1:]) & (v[:-1] < v[1:]))
            _require(bool(lex.all()), "I4: edges must be strictly sorted")

    w = graph.weights
    _require(w.shape == (n,), "I5: weight length mismatch")
    if n:
        _require(bool(np.isfinite(w).all()) and bool((w > 0).all()), "I5: weights must be finite and > 0")

    recount = np.zeros(n, dtype=np.int64)
    for arr in (u, v):
        np.add.at(recount, arr, 1)
    _require(bool(np.array_equal(recount, graph.degrees)), "I6: degree mismatch")

    indptr = graph.indptr
    adj_v = graph.adj_vertices
    adj_e = graph.adj_edges
    _require(indptr.shape == (n + 1,), "I7: indptr shape")
    _require(int(indptr[0]) == 0 and int(indptr[-1]) == 2 * m, "I7: indptr bounds")
    _require(bool((np.diff(indptr) == graph.degrees).all()), "I7: indptr vs degrees")
    for head in range(n):
        lo, hi = int(indptr[head]), int(indptr[head + 1])
        for slot in range(lo, hi):
            eid = int(adj_e[slot])
            tail = int(adj_v[slot])
            a, b = int(u[eid]), int(v[eid])
            _require(
                (a == head and b == tail) or (b == head and a == tail),
                f"I7: adjacency slot {slot} of vertex {head} disagrees with edge {eid}",
            )


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def exact_mwvc_bruteforce(graph: WeightedGraph) -> ExactResult:
    """Enumerate all subsets (n ≤ 22) — validation oracle for the B&B."""
    n = graph.n
    if n > 22:
        raise ValueError(f"brute force limited to n <= 22, got {n}")
    w = graph.weights
    eu, ev = graph.edges_u, graph.edges_v
    best_weight = float(w.sum())
    best_mask = (1 << n) - 1
    idx = np.arange(n)
    for mask in range(1 << n):
        if graph.m:
            sel_u = (mask >> eu) & 1
            sel_v = (mask >> ev) & 1
            if not ((sel_u | sel_v) == 1).all():
                continue
        weight = float(w[(mask >> idx) & 1 == 1].sum())
        if weight < best_weight:
            best_weight = weight
            best_mask = mask
    in_cover = ((best_mask >> idx) & 1).astype(bool)
    return ExactResult(in_cover=in_cover, opt_weight=best_weight, nodes_explored=1 << n)


def is_minimal_cover(graph: WeightedGraph, in_cover: np.ndarray) -> bool:
    """True iff ``in_cover`` is a vertex cover with no removable vertex."""
    cover = np.asarray(in_cover, dtype=bool)
    if not graph.is_vertex_cover(cover):
        return False
    eu, ev = graph.edges_u, graph.edges_v
    only_u = cover[eu] & ~cover[ev]
    only_v = cover[ev] & ~cover[eu]
    needed = np.bincount(eu[only_u], minlength=graph.n) + np.bincount(
        ev[only_v], minlength=graph.n
    )
    # A cover vertex with needed == 0 could be dropped.  Isolated cover
    # vertices (degree 0) are trivially droppable too.
    droppable = cover & (needed == 0)
    return not bool(droppable.any())


@dataclass(frozen=True)
class LocalRatioResult:
    """Cover + weight decomposition from the local-ratio algorithm."""

    in_cover: np.ndarray
    cover_weight: float
    reductions: List[Tuple[int, float]]
    lower_bound: float

    @property
    def num_reductions(self) -> int:
        return len(self.reductions)


def local_ratio_vertex_cover(graph: WeightedGraph) -> LocalRatioResult:
    """Run the local-ratio algorithm in canonical edge order.

    Repeatedly take an edge ``(u, v)`` with both residual weights positive
    and subtract ``δ = min`` of them from both endpoints; vertices whose
    residual reaches zero form the cover.  ``reductions`` is the weight
    decomposition (edge id, δ); ``lower_bound = Σ δ`` satisfies
    ``lower_bound ≤ OPT`` and ``cover_weight ≤ 2 · lower_bound``.
    """
    residual = graph.weights.astype(np.float64).copy()
    eu, ev = graph.edges_u, graph.edges_v
    reductions: List[Tuple[int, float]] = []
    for e in range(graph.m):
        u = int(eu[e])
        v = int(ev[e])
        ru = residual[u]
        rv = residual[v]
        if ru <= 0.0 or rv <= 0.0:
            continue
        delta = ru if ru < rv else rv
        residual[u] = ru - delta
        residual[v] = rv - delta
        reductions.append((e, float(delta)))
    in_cover = residual <= 0.0
    return LocalRatioResult(
        in_cover=in_cover,
        cover_weight=float(graph.weights[in_cover].sum()),
        reductions=reductions,
        lower_bound=float(sum(d for _, d in reductions)),
    )
