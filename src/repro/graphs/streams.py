"""Synthetic update-stream generators for dynamic workloads.

Three churn models, mirroring the traffic shapes a production cover service
sees (``repro stream --churn ...``):

* **uniform** — inserts/deletes/reweights land on uniformly random
  endpoints; the memoryless baseline.
* **hub** — churn concentrates on high-degree vertices (degree-biased
  endpoint sampling from the *initial* graph), modeling celebrity accounts
  and hot services whose neighborhoods never sit still.
* **sliding_window** — edges arrive, live for a fixed-size window, and
  expire FIFO, modeling interaction logs with retention; after warm-up
  every insert is paired with the expiry of the oldest windowed edge.

Every generator keeps a faithful mirror of the evolving edge set, so the
emitted stream is *coherent*: deletes always name a present edge, inserts
an absent one, and reweights stay strictly positive.  Streams come back as
:class:`repro.graphs.updates.UpdateColumns` — serialize with
:func:`repro.graphs.updates.save_update_stream`.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from repro.graphs.graph import WeightedGraph
from repro.graphs.updates import (
    OP_DELETE,
    OP_INSERT,
    OP_REWEIGHT,
    Row,
    UpdateColumns,
)

__all__ = [
    "CHURN_MODELS",
    "make_update_stream",
    "uniform_churn_stream",
    "hub_churn_stream",
    "sliding_window_stream",
]

CHURN_MODELS = ("uniform", "hub", "sliding_window")

#: Rejection-sampling budget for "an absent pair"; graphs this package
#: targets are sparse, so hitting it means the caller churns a near-clique.
_MAX_TRIES = 10_000


class _EdgeMirror:
    """Incremental mirror of the evolving edge set with O(1) sampling."""

    def __init__(self, graph: WeightedGraph):
        self.pairs: List[Tuple[int, int]] = [
            (int(u), int(v)) for u, v in zip(graph.edges_u, graph.edges_v)
        ]
        self.index = {pair: i for i, pair in enumerate(self.pairs)}

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return pair in self.index

    def __len__(self) -> int:
        return len(self.pairs)

    def add(self, pair: Tuple[int, int]) -> None:
        self.index[pair] = len(self.pairs)
        self.pairs.append(pair)

    def remove(self, pair: Tuple[int, int]) -> None:
        i = self.index.pop(pair)
        last = self.pairs.pop()
        if i < len(self.pairs):
            self.pairs[i] = last
            self.index[last] = i

    def sample(self, rng: np.random.Generator) -> Tuple[int, int]:
        return self.pairs[int(rng.integers(len(self.pairs)))]


def _sample_absent_pair(
    rng: np.random.Generator,
    n: int,
    present: _EdgeMirror,
    *,
    endpoint_p: Optional[np.ndarray] = None,
) -> Tuple[int, int]:
    """A uniformly (or endpoint-biased) random pair not currently an edge."""
    if n < 2:
        raise ValueError("need at least 2 vertices to insert edges")
    for _ in range(_MAX_TRIES):
        if endpoint_p is not None:
            u = int(rng.choice(n, p=endpoint_p))
        else:
            u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        pair = (u, v) if u < v else (v, u)
        if pair not in present:
            return pair
    raise ValueError(
        f"could not sample an absent edge after {_MAX_TRIES} tries "
        f"(graph too dense: n={n}, m={len(present)})"
    )


def _reweight_event(
    rng: np.random.Generator, weights: np.ndarray, *, scale: float
) -> Row:
    """Multiplicative jitter of a random vertex weight (mirror updated)."""
    v = int(rng.integers(weights.size))
    factor = float(scale ** rng.uniform(-1.0, 1.0))
    new_w = max(float(weights[v]) * factor, 1e-12)
    weights[v] = new_w
    return OP_REWEIGHT, 0, v, new_w


def uniform_churn_stream(
    graph: WeightedGraph,
    num_updates: int,
    *,
    seed: int = 0,
    p_insert: float = 0.4,
    p_delete: float = 0.4,
    p_reweight: float = 0.2,
    weight_scale: float = 2.0,
) -> UpdateColumns:
    """Memoryless churn: each event is an insert / delete / reweight draw.

    ``p_insert + p_delete + p_reweight`` must sum to 1.  A delete drawn on
    an edgeless state degrades to an insert, so the stream is always
    coherent.  ``weight_scale`` bounds the multiplicative jitter of
    reweights (each is a factor in ``[1/scale, scale]``).
    """
    return _churn(
        graph,
        num_updates,
        seed=seed,
        p_insert=p_insert,
        p_delete=p_delete,
        p_reweight=p_reweight,
        weight_scale=weight_scale,
        endpoint_p=None,
    )


def hub_churn_stream(
    graph: WeightedGraph,
    num_updates: int,
    *,
    seed: int = 0,
    p_insert: float = 0.4,
    p_delete: float = 0.4,
    p_reweight: float = 0.2,
    weight_scale: float = 2.0,
) -> UpdateColumns:
    """Churn biased toward high-degree vertices of the *initial* graph.

    Inserted edges pick one endpoint with probability proportional to
    ``degree + 1``; deletions sample uniformly among present edges (which
    are themselves hub-heavy under this insertion bias), so hot
    neighborhoods see most of the action — the stress case for local
    repair, since the same vertices are touched over and over.
    """
    deg = graph.degrees.astype(np.float64) + 1.0
    endpoint_p = deg / deg.sum() if graph.n else None
    return _churn(
        graph,
        num_updates,
        seed=seed,
        p_insert=p_insert,
        p_delete=p_delete,
        p_reweight=p_reweight,
        weight_scale=weight_scale,
        endpoint_p=endpoint_p,
    )


def _churn(
    graph: WeightedGraph,
    num_updates: int,
    *,
    seed: int,
    p_insert: float,
    p_delete: float,
    p_reweight: float,
    weight_scale: float,
    endpoint_p: Optional[np.ndarray],
) -> UpdateColumns:
    if num_updates < 0:
        raise ValueError(f"num_updates must be >= 0, got {num_updates}")
    total = p_insert + p_delete + p_reweight
    if not np.isclose(total, 1.0):
        raise ValueError(f"event probabilities must sum to 1, got {total}")
    if weight_scale < 1.0:
        raise ValueError(f"weight_scale must be >= 1, got {weight_scale}")
    rng = np.random.default_rng(seed)
    mirror = _EdgeMirror(graph)
    weights = np.array(graph.weights, dtype=np.float64)
    out: List[Row] = []
    for _ in range(num_updates):
        r = float(rng.random())
        if r < p_reweight and graph.n:
            out.append(_reweight_event(rng, weights, scale=weight_scale))
            continue
        delete = r < p_reweight + p_delete and len(mirror) > 0
        if delete:
            pair = mirror.sample(rng)
            mirror.remove(pair)
            out.append((OP_DELETE, *pair, 0.0))
        else:
            pair = _sample_absent_pair(rng, graph.n, mirror, endpoint_p=endpoint_p)
            mirror.add(pair)
            out.append((OP_INSERT, *pair, 0.0))
    return UpdateColumns.from_rows(out)


def sliding_window_stream(
    graph: WeightedGraph,
    num_updates: int,
    *,
    seed: int = 0,
    window: Optional[int] = None,
    p_reweight: float = 0.0,
    weight_scale: float = 2.0,
) -> UpdateColumns:
    """FIFO edge arrivals with expiry: the retention-log churn model.

    Fresh random edges arrive one per event; once more than ``window`` of
    them are live (default: ``max(1, m/4)`` of the initial graph), each
    arrival is preceded by the expiry of the oldest windowed edge — so the
    steady state alternates delete/insert and the structural delta keeps
    cycling through the same size.  Initial edges never expire (they are
    the retained backbone).  With ``p_reweight > 0`` reweight events are
    interleaved at that rate.
    """
    if num_updates < 0:
        raise ValueError(f"num_updates must be >= 0, got {num_updates}")
    if not 0.0 <= p_reweight < 1.0:
        raise ValueError(f"p_reweight must be in [0, 1), got {p_reweight}")
    if window is not None and window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window is None:
        window = max(1, graph.m // 4)
    rng = np.random.default_rng(seed)
    mirror = _EdgeMirror(graph)
    weights = np.array(graph.weights, dtype=np.float64)
    live: deque = deque()
    out: List[Row] = []
    while len(out) < num_updates:
        if p_reweight and float(rng.random()) < p_reweight and graph.n:
            out.append(_reweight_event(rng, weights, scale=weight_scale))
            continue
        if len(live) >= window:
            pair = live.popleft()
            mirror.remove(pair)
            out.append((OP_DELETE, *pair, 0.0))
            if len(out) >= num_updates:
                break
        pair = _sample_absent_pair(rng, graph.n, mirror)
        mirror.add(pair)
        live.append(pair)
        out.append((OP_INSERT, *pair, 0.0))
    return UpdateColumns.from_rows(out)


def make_update_stream(
    model: str,
    graph: WeightedGraph,
    num_updates: int,
    *,
    seed: int = 0,
    **kwargs,
) -> UpdateColumns:
    """Dispatch to a churn model by name (the CLI's ``--churn`` hook)."""
    if model == "uniform":
        return uniform_churn_stream(graph, num_updates, seed=seed, **kwargs)
    if model == "hub":
        return hub_churn_stream(graph, num_updates, seed=seed, **kwargs)
    if model == "sliding_window":
        return sliding_window_stream(graph, num_updates, seed=seed, **kwargs)
    raise ValueError(f"unknown churn model {model!r}; known: {CHURN_MODELS}")
