"""Additional graph families: community, geometric, and growth models.

These extend the core generator set with the workload classes common in
MPC systems papers:

* :func:`stochastic_block_model` — planted communities (dense inside,
  sparse across); covers must pay for intra-community density.
* :func:`random_geometric` — points in the unit square joined within a
  radius; high clustering, grid-like locality (KD-tree accelerated).
* :func:`hypercube` — the d-dimensional Boolean hypercube; regular,
  bipartite, diameter d.
* :func:`preferential_attachment` — Barabási–Albert growth; power-law tail
  with guaranteed connectivity (unlike the configuration model).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.utils.rng import SeedLike, spawn_rng, PURPOSE_TOPOLOGY

__all__ = [
    "stochastic_block_model",
    "random_geometric",
    "hypercube",
    "preferential_attachment",
]


def stochastic_block_model(
    block_sizes,
    p_in: float,
    p_out: float,
    *,
    seed: SeedLike = None,
) -> WeightedGraph:
    """Planted-partition graph: blocks with internal density ``p_in`` and
    cross density ``p_out``.

    Vertices are labeled block by block in the given order.  Edge counts
    per block pair are drawn binomially and the edges sampled uniformly,
    so the construction is exact SBM without materializing all pairs.
    """
    sizes = [int(s) for s in block_sizes]
    if any(s < 0 for s in sizes):
        raise ValueError("block sizes must be >= 0")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    n = sum(sizes)
    rng = spawn_rng(seed, PURPOSE_TOPOLOGY)
    starts = np.cumsum([0] + sizes)
    us, vs = [], []
    for i in range(len(sizes)):
        for j in range(i, len(sizes)):
            if i == j:
                pairs = sizes[i] * (sizes[i] - 1) // 2
                p = p_in
            else:
                pairs = sizes[i] * sizes[j]
                p = p_out
            if pairs == 0 or p == 0.0:
                continue
            count = int(rng.binomial(pairs, p))
            if count == 0:
                continue
            # Rejection-light sampling of distinct pairs within the block
            # pair; duplicates collapse in canonicalization, so oversample.
            a = rng.integers(starts[i], starts[i + 1], size=2 * count + 8)
            if i == j:
                b = rng.integers(starts[i], starts[i + 1], size=2 * count + 8)
                ok = a != b
                a, b = a[ok][:count], b[ok][:count]
            else:
                b = rng.integers(starts[j], starts[j + 1], size=2 * count + 8)[: a.size]
                a, b = a[:count], b[:count]
            us.append(a)
            vs.append(b)
    if not us:
        return WeightedGraph.empty(n)
    return WeightedGraph(n, np.concatenate(us), np.concatenate(vs))


def random_geometric(n: int, radius: float, *, seed: SeedLike = None) -> WeightedGraph:
    """Random geometric graph in the unit square (KD-tree neighbor query)."""
    n = int(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if n == 0:
        return WeightedGraph.empty(0)
    rng = spawn_rng(seed, PURPOSE_TOPOLOGY)
    points = rng.random((n, 2))
    from scipy.spatial import cKDTree  # SciPy loads only for this family

    tree = cKDTree(points)
    pairs = tree.query_pairs(r=float(radius), output_type="ndarray")
    if pairs.size == 0:
        return WeightedGraph.empty(n)
    return WeightedGraph(n, pairs[:, 0], pairs[:, 1])


def hypercube(dimension: int) -> WeightedGraph:
    """The ``d``-dimensional Boolean hypercube ``Q_d`` (n = 2^d)."""
    d = int(dimension)
    if d < 0:
        raise ValueError("dimension must be >= 0")
    n = 1 << d
    if d == 0:
        return WeightedGraph.empty(1)
    ids = np.arange(n, dtype=np.int64)
    us, vs = [], []
    for bit in range(d):
        mask = 1 << bit
        lower = ids[(ids & mask) == 0]
        us.append(lower)
        vs.append(lower | mask)
    return WeightedGraph(n, np.concatenate(us), np.concatenate(vs))


def preferential_attachment(
    n: int, attachments: int = 2, *, seed: SeedLike = None
) -> WeightedGraph:
    """Barabási–Albert growth: each new vertex attaches to ``attachments``
    existing vertices chosen proportionally to degree.

    Implemented with the repeated-endpoints trick: sampling uniformly from
    the flat list of all edge endpoints is exactly degree-proportional.
    Starts from a star on ``attachments + 1`` vertices.
    """
    n = int(n)
    k = int(attachments)
    if k < 1:
        raise ValueError("attachments must be >= 1")
    if n < k + 1:
        raise ValueError(f"need n >= attachments + 1 = {k + 1}")
    rng = spawn_rng(seed, PURPOSE_TOPOLOGY)
    us: list[int] = []
    vs: list[int] = []
    endpoint_pool: list[int] = []
    for leaf in range(1, k + 1):
        us.append(0)
        vs.append(leaf)
        endpoint_pool.extend((0, leaf))
    for new in range(k + 1, n):
        targets: set[int] = set()
        while len(targets) < k:
            pick = endpoint_pool[int(rng.integers(0, len(endpoint_pool)))]
            targets.add(pick)
        for tgt in sorted(targets):
            us.append(tgt)
            vs.append(new)
            endpoint_pool.extend((tgt, new))
    return WeightedGraph(n, np.asarray(us), np.asarray(vs))
