"""Cover post-processing: redundancy pruning.

Primal–dual covers are not inclusion-minimal: when both endpoints of an
edge freeze in the same iteration, either one alone may already suffice.
:func:`prune_redundant_vertices` removes vertices greedily (most expensive
first) as long as the set remains a cover.  The result is inclusion-minimal
and never heavier; the approximation guarantee is untouched (the pruned
cover is a subset of the guaranteed one).

This is deliberately *not* part of Algorithm 2 — the paper's output is the
frozen set, and the reproduction keeps it that way.  Pruning is offered as
the optional quality pass a production deployment would bolt on (measured
in the E9 ablation bench).

In MPC terms the pass costs O(1) rounds per sweep: each vertex needs one
bit per incident edge ("is my counterpart in the cover?"), which is one
exchange over the edge set; the greedy order can be replaced by a random
priority order to stay symmetric.  The implementation here is the
sequential greedy (the strongest variant) since it is evaluated for
solution quality, not round complexity.

One kernel, :func:`greedy_prune_pass`, runs every prune: the full sweep of
:func:`prune_redundant_vertices` over a graph's CSR, and the incremental maintainer's prune over the dynamic graph's touched
neighborhood.  Its pass-start droppability mask is exact, not
approximate: the loop re-reads ``cover`` per candidate, but cover bits
only change at *dropped* vertices, and dropping ``v`` locks every
neighbor of ``v`` — so any candidate whose droppability inputs changed
mid-pass is locked and skipped anyway.  The original set-at-a-time loop
is kept in ``tests/kernel_oracle.py`` as the executable spec.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.graphs.graph import WeightedGraph

__all__ = ["greedy_prune_pass", "prune_redundant_vertices"]


def greedy_prune_pass(
    candidates: Union[np.ndarray, Sequence[int]],
    *,
    weights: np.ndarray,
    cover: np.ndarray,
    degrees_of: Callable[[np.ndarray], np.ndarray],
    gather: Callable[[np.ndarray], tuple],
) -> List[int]:
    """Greedy redundancy prune restricted to ``candidates``.

    Decreasing ``w/deg`` order (most expensive per covered edge first;
    isolated vertices lead; ties by id for determinism), droppable iff
    every current neighbor is covered, and dropping ``v`` locks its
    neighbors — each now solely covers its edge to ``v``.  ``cover`` is
    mutated in place; returns the pruned vertex ids.

    ``degrees_of(ids)`` gathers current degrees and ``gather(ids)``
    returns every *complete* current neighborhood as ``(concat, starts,
    ends)`` (:meth:`~repro.dynamic.DynamicGraph.prune_gather`) — a
    partial neighborhood would silently break the cover.  Ordering is
    one ``lexsort``, droppability is one gathered ``cover`` reduction over
    the concatenated neighbor arrays, and the sequential tail does O(1)
    work per candidate.  The pass-start droppability mask never disagrees
    with a live re-check for an unlocked candidate (see the module
    docstring).
    """
    cand = np.asarray(candidates, dtype=np.int64).reshape(-1)
    cand = cand[cover[cand]]
    if cand.size == 0:
        return []

    degs = degrees_of(cand)
    w = np.asarray(weights, dtype=np.float64)[cand]
    with np.errstate(divide="ignore"):
        eff = np.where(degs > 0, w / np.maximum(degs, 1), np.inf)
    ordered = cand[np.lexsort((cand, -eff))]

    # One gather for the whole candidate set.
    concat, starts, ends = gather(ordered)
    sizes = ends - starts
    droppable = np.ones(ordered.size, dtype=bool)
    nonempty = np.nonzero(sizes)[0]
    if nonempty.size:
        droppable[nonempty] = np.minimum.reduceat(
            cover[concat], starts[nonempty]
        )
    drop_flags = droppable.tolist()
    seg_starts = starts.tolist()
    seg_ends = ends.tolist()
    locked = np.zeros(cover.shape[0], dtype=bool)
    pruned: List[int] = []
    for i, v in enumerate(ordered.tolist()):
        if not drop_flags[i] or not cover[v] or locked[v]:
            continue
        cover[v] = False
        pruned.append(v)
        seg = concat[seg_starts[i] : seg_ends[i]]
        if seg.size:
            locked[seg] = True
    return pruned


def _csr_gather(graph: WeightedGraph) -> Callable[[np.ndarray], tuple]:
    """:func:`greedy_prune_pass`'s ``gather`` over a static graph's CSR."""
    indptr, adj = graph.indptr, graph.adj_vertices

    def gather(vertices: np.ndarray) -> tuple:
        lo = indptr[vertices]
        sizes = indptr[vertices + 1] - lo
        ends = np.cumsum(sizes)
        starts = ends - sizes
        slots = np.arange(int(ends[-1]), dtype=np.int64)
        return adj[slots + np.repeat(lo - starts, sizes)], starts, ends

    return gather


def prune_redundant_vertices(
    graph: WeightedGraph,
    in_cover: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Greedily drop cover vertices whose removal keeps the cover valid.

    Vertices are visited in decreasing ``w(v)/deg(v)`` — the least
    cost-effective cover members go first (isolated vertices, with no
    coverage at all, lead; ties by id for determinism).  A vertex is
    droppable iff every incident edge's other endpoint is also in the
    (current) cover.  The sweep is :func:`greedy_prune_pass` over the
    graph's CSR.

    Returns a new boolean mask; the input is not modified.  (The
    maintainer's restricted sweep over a batch's touched vertices runs
    :func:`greedy_prune_pass` directly.)

    Raises
    ------
    ValueError
        If ``in_cover`` is not a vertex cover to begin with.
    """
    cover = np.asarray(in_cover, dtype=bool).copy()
    if cover.shape != (graph.n,):
        raise ValueError(f"in_cover must have shape ({graph.n},)")
    if not graph.is_vertex_cover(cover):
        raise ValueError("in_cover is not a vertex cover; nothing to prune")
    w = graph.weights if weights is None else np.asarray(weights, dtype=np.float64)
    greedy_prune_pass(
        np.arange(graph.n, dtype=np.int64),
        weights=w,
        cover=cover,
        degrees_of=lambda ids: graph.degrees[ids],
        gather=_csr_gather(graph),
    )
    return cover
