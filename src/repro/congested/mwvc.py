"""MWVC in the congested clique via the BDH18 equivalence (paper §1.3).

Behnezhad, Derakhshan & Hajiaghayi [BDH18, Theorem 3.2] show the near-linear
memory MPC regime ("semi-MapReduce") and the congested clique simulate each
other with constant-factor round overhead.  The paper invokes this to
conclude an ``O(log log d)``-round congested-clique algorithm for
(2+ε)-approximate MWVC.

This module realizes the MPC→CC direction as an *accounted adapter*:

* one graph vertex per clique node (the model's native input distribution);
* each MPC machine (capacity ``S = c·n`` words) is hosted by a group of
  clique nodes; one MPC round moves at most ``S`` words in and out of each
  machine, which Lenzen's routing theorem delivers in ``O(⌈S/n⌉)`` CC
  rounds — we charge ``LENZEN_ROUNDS · ⌈S/n⌉`` per MPC round, with the
  routing constant pinned at 2 (one round to spread messages over the
  group, one to deliver), the standard accounting for Lenzen routing;
* the underlying MPC execution is Algorithm 2 itself, so the *decisions*
  (and the returned cover) are identical to the MPC run — only the round
  accounting is translated.

The adapter simulates no clique rounds: it returns the MPC round count and
its translation, the product above, for experiment E10.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.core.params import MPCParameters
from repro.core.result import MWVCResult
from repro.graphs.graph import WeightedGraph
from repro.utils.rng import SeedLike

__all__ = ["CongestedCliqueMWVCResult", "congested_clique_mwvc", "LENZEN_ROUNDS"]

#: CC rounds charged per n-word routing batch (Lenzen's routing theorem
#: delivers any instance with n-word per-node in/out demand in O(1) rounds;
#: 2 is the textbook constant: distribute, then deliver).
LENZEN_ROUNDS = 2


@dataclass(frozen=True)
class CongestedCliqueMWVCResult:
    """MWVC solution with congested-clique round accounting."""

    mpc_result: MWVCResult
    cc_rounds: int
    cc_rounds_per_mpc_round: int
    num_nodes: int

    @property
    def in_cover(self) -> np.ndarray:
        return self.mpc_result.in_cover

    @property
    def cover_weight(self) -> float:
        return self.mpc_result.cover_weight


def congested_clique_mwvc(
    graph: WeightedGraph,
    *,
    eps: float = 0.1,
    params: MPCParameters | None = None,
    seed: SeedLike = None,
) -> CongestedCliqueMWVCResult:
    """Solve MWVC with congested-clique round accounting (see module doc).

    The cover and certificate equal the MPC run's exactly; ``cc_rounds`` is
    the translated round count ``LENZEN_ROUNDS · ⌈S/n⌉ · mpc_rounds``.
    """
    if params is None:
        params = MPCParameters(eps=eps)
    if graph.n == 0:
        raise ValueError("congested clique needs at least one node")
    res = minimum_weight_vertex_cover(
        graph, params=params, seed=seed, engine="vectorized"
    )
    capacity = params.machine_capacity_words(graph.n)
    per_round = LENZEN_ROUNDS * max(1, ceil(capacity / max(1, graph.n)))
    return CongestedCliqueMWVCResult(
        mpc_result=res,
        cc_rounds=per_round * res.mpc_rounds,
        cc_rounds_per_mpc_round=per_round,
        num_nodes=graph.n,
    )
