"""Algorithm 1 executed natively on the congested clique: the test oracle
for :func:`repro.core.centralized.run_centralized`.

Unlike the BDH18 adapter (:mod:`repro.congested.mwvc`), which *translates*
round counts, this module actually runs the primal–dual algorithm as a
message-passing protocol with one vertex per clique node:

* node ``v`` holds ``w(v)``, its incident edges' duals (each dual is
  replicated at both endpoints and evolves identically on both, because
  both apply the same deterministic update rule), and the freeze state of
  itself and its neighbors;
* per LOCAL iteration, each active node computes its dual load ``y_v``
  locally, freezes itself against the shared-seed threshold ``T_{v,t}``,
  and notifies each neighbor with a 1-word message (within the per-link
  budget by construction — messages travel only along graph edges);
* a convergence check (does any active edge remain?) costs one
  aggregate-to-root and one broadcast round per iteration.

Total: **3 congested-clique rounds per LOCAL iteration**.  The protocol is
deterministic given the threshold seed, and
``tests/congested/test_local_vc.py`` checks its output equals
:func:`~repro.core.centralized.run_centralized` bit for bit — a distributed
execution certifying the centralized implementation (and vice versa).

The collectives it runs on are the standard O(1)-round primitives of the
model, implemented with real
:class:`~repro.congested.clique.CongestedClique` messages so
``tests/congested/test_primitives.py`` can pin their round counts and link
loads:

* :func:`broadcast_value` — 1 round (source sends one word on each link);
* :func:`aggregate_sum` — 1 round (every node sends its value to the root;
  the root receives ``n-1`` words, but on *distinct* links — legal);
* :func:`allreduce_sum` — 2 rounds (aggregate, then broadcast);
* :func:`compute_degree_sum` — 1 aggregate round gives node 0 the degree
  *sum* of a vertex-per-node distributed graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.congested.clique import CliqueMessage, CongestedClique
from repro.core.centralized import termination_bound
from repro.core.initialization import degree_scaled_init
from repro.core.thresholds import ThresholdSampler
from repro.graphs.graph import WeightedGraph
from repro.utils.rng import SeedLike
from repro.utils.validation import check_fraction


def broadcast_value(cc: CongestedClique, src: int, value: float) -> Dict[int, float]:
    """Source sends one word to every other node; 1 round."""
    msgs = [
        CliqueMessage(src, dst, float(value)) for dst in range(cc.num_nodes) if dst != src
    ]
    inboxes = cc.exchange(msgs)
    out = {src: float(value)}
    for dst, box in inboxes.items():
        out[dst] = float(box[0].payload)
    return out


def aggregate_sum(cc: CongestedClique, values: Dict[int, float], *, root: int = 0) -> float:
    """Every node ships its value to ``root``; root returns the total; 1 round."""
    msgs = [
        CliqueMessage(node, root, float(v)) for node, v in sorted(values.items()) if node != root
    ]
    inboxes = cc.exchange(msgs)
    total = float(values.get(root, 0.0))
    for msg in inboxes.get(root, []):
        total += float(msg.payload)
    return total


def allreduce_sum(cc: CongestedClique, values: Dict[int, float], *, root: int = 0) -> Dict[int, float]:
    """Aggregate to ``root`` then broadcast; 2 rounds; all nodes learn the sum."""
    total = aggregate_sum(cc, values, root=root)
    return broadcast_value(cc, root, total)


def compute_degree_sum(cc: CongestedClique, degrees: np.ndarray, *, root: int = 0) -> float:
    """Node ``v`` holds ``degrees[v]``; root learns ``Σ_v d(v)``; 1 round.

    This is the congested-clique realization of evaluating the Line 2
    condition ``d̄ > threshold`` when the graph is distributed one vertex
    per node.
    """
    if degrees.shape != (cc.num_nodes,):
        raise ValueError(f"degrees must have shape ({cc.num_nodes},)")
    return aggregate_sum(cc, {v: float(degrees[v]) for v in range(cc.num_nodes)}, root=root)


@dataclass(frozen=True)
class CliqueVertexCoverResult:
    """Output of the native congested-clique primal–dual run."""

    in_cover: np.ndarray
    x: np.ndarray
    iterations: int
    cc_rounds: int
    cover_weight: float
    dual_value: float


def congested_clique_local_vc(
    graph: WeightedGraph,
    *,
    eps: float = 0.1,
    seed: SeedLike = None,
) -> CliqueVertexCoverResult:
    """Run Algorithm 1 as a real congested-clique protocol (see module doc).

    Parameters mirror the centralized runner; ``seed`` feeds the shared
    threshold sampler (every node derives its own thresholds from it —
    shared randomness travels as a seed, not as messages).
    """
    check_fraction("eps", eps, low=0.0, high=0.25)
    n = graph.n
    if n == 0:
        return CliqueVertexCoverResult(
            in_cover=np.zeros(0, dtype=bool),
            x=np.empty(0),
            iterations=0,
            cc_rounds=0,
            cover_weight=0.0,
            dual_value=0.0,
        )
    cc = CongestedClique(max(n, 2))
    sampler = ThresholdSampler(seed, n, eps)
    w = graph.weights
    x = degree_scaled_init(graph).copy()
    growth = 1.0 / (1.0 - eps)

    active_v = np.ones(n, dtype=bool)
    active_e = np.ones(graph.m, dtype=bool)
    eu, ev = graph.edges_u, graph.edges_v
    guard = termination_bound(x, w, eps)

    t = 0
    while True:
        # Convergence check: root learns the live-edge count (each node
        # contributes its count of active incident edges; the total is
        # 2x the live edges), then broadcasts continue/stop.
        live_counts = graph.incident_counts(active_e).astype(np.float64)
        total = aggregate_sum(cc, {v: float(live_counts[v]) for v in range(n)})
        broadcast_value(cc, 0, total)
        if total == 0.0:
            break
        if t >= guard:  # pragma: no cover - same guard as centralized
            raise RuntimeError("congested-clique run exceeded its termination bound")

        # LOCAL iteration as one communication round: each node decides
        # from its *local* duals, then notifies neighbors.
        y = graph.incident_sums(x)
        thresholds = sampler.column(t)
        newly = active_v & (y >= thresholds * w)
        msgs = []
        new_ids = np.nonzero(newly)[0]
        for v in new_ids:
            for u in graph.neighbors(int(v)):
                msgs.append(CliqueMessage(int(v), int(u), 1.0))
        cc.exchange(msgs)
        # Both endpoints of every edge now know this round's freezes (their
        # own locally, their neighbors' by message) and update identically.
        active_v &= ~newly
        active_e &= active_v[eu] & active_v[ev]
        x[active_e] *= growth
        t += 1

    # The cover is exactly the frozen set, as in the centralized algorithm;
    # vertices that never froze (including isolated ones) stay out.
    in_cover = np.logical_not(active_v)
    return CliqueVertexCoverResult(
        in_cover=in_cover,
        x=x,
        iterations=t,
        cc_rounds=cc.rounds,
        cover_weight=float(w[in_cover].sum()),
        dual_value=float(x.sum()),
    )
