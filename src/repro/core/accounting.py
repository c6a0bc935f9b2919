"""MPC round-cost model shared by both execution engines.

The cluster engine (:mod:`repro.core.engine_cluster`) executes Algorithm 2
with explicit messages on a :class:`repro.mpc.Cluster` and therefore *measures*
its round count.  The vectorized engine computes identical results without
messages and must *predict* the same round count.  Both draw the per-step
fan-outs and round counts from this module, with the cluster engine passing
the prescribed fan-outs into the collectives, so the two engines agree by
construction (verified by experiment E11 and the engine-equality tests).

Protocol of one compressed phase (coordinator = machine 0, workers 1..W):

====  ==========================================================  =========
step  communication                                               rounds
====  ==========================================================  =========
A     broadcast phase state (w', residual degrees, nonfrozen       tree
      mask, seeds, scalars) — ``3n + O(1)`` words
B     route E[V^high] edges to their simulation machines           1
      (local simulation happens inside this round's compute)
C     gather per-vertex freeze iterations to coordinator           tree
D     broadcast combined freeze iterations — ``n_high`` words      tree
E     aggregate dual loads ``y^MPC`` (dense ``n``)                 tree
F     broadcast post-safety frozen mask — ``n`` words              tree
G     aggregate stacked [frozen dual sums; nonfrozen degree        tree
      counts] (dense ``2n``)
====  ==========================================================  =========

The final centralized phase gathers the ≤ ``S/8`` residual edges to the
coordinator (tree) and solves locally (one compute round).

Tree shapes replicate :mod:`repro.mpc.primitives` exactly:
*broadcast* grows the holder set by ``holders · fanout`` new targets per
round; *fan-in* (aggregate / gather) shrinks the participant count by
``⌈count / fanout⌉`` per round.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Dict

__all__ = [
    "fanout_for",
    "broadcast_round_count",
    "fanin_round_count",
    "PhaseCost",
    "phase_cost",
    "final_phase_cost",
    "cluster_width",
    "STATE_WORDS_PER_VERTEX",
    "HOME_WORDS_PER_EDGE",
    "SCALAR_STATE_WORDS",
]

#: Words per vertex in the phase-state broadcast: residual weight (float),
#: residual degree (int), nonfrozen flag (int).
STATE_WORDS_PER_VERTEX = 3

#: Scalar payload accompanying the state broadcast: seeds, machine count,
#: iteration count, cutoff — plus the dictionary key strings, which the
#: word-accounting model charges too (≈14 words).  Sized with headroom so
#: the prescribed broadcast fan-out never overshoots capacity, even on
#: tiny graphs where the fixed overhead is a visible fraction of S.
SCALAR_STATE_WORDS = 24

#: Words per edge in a worker's persistent home storage: endpoints, edge id,
#: finalized dual.
HOME_WORDS_PER_EDGE = 4


def fanout_for(capacity_words: int | None, item_words: int) -> int:
    """Tree fan-out for items of ``item_words`` under capacity ``S``.

    The one fan-out rule: the cluster engine passes it to every collective
    of :mod:`repro.mpc.primitives`, and the round counts below assume it.
    ``max(2, S // item)`` keeps one tree level within ``S`` words sent and
    received (unbounded capacity => fan out to 1024, an arbitrary
    'everything in one round' stand-in that both engines share).
    """
    if capacity_words is None:
        return 1024
    if item_words <= 0:
        return 1024
    return max(2, capacity_words // max(1, item_words))


def broadcast_round_count(num_targets: int, fanout: int) -> int:
    """Rounds for a broadcast tree reaching ``num_targets`` non-source machines."""
    if num_targets <= 0:
        return 0
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    holders, pending, rounds = 1, num_targets, 0
    while pending > 0:
        sent = min(pending, holders * fanout)
        pending -= sent
        holders += sent
        rounds += 1
    return rounds


def fanin_round_count(num_participants: int, fanout: int) -> int:
    """Rounds for a fan-in tree (aggregate/gather) over ``num_participants``."""
    if num_participants <= 1:
        return 0
    if fanout < 2:
        raise ValueError("fan-in fanout must be >= 2")
    count, rounds = num_participants, 0
    while count > 1:
        count = math.ceil(count / fanout)
        rounds += 1
    return rounds


@dataclass(frozen=True)
class PhaseCost:
    """Round breakdown of one compressed phase (steps A..G above)."""

    broadcast_state: int
    route_edges: int
    gather_freeze: int
    broadcast_freeze: int
    aggregate_loads: int
    broadcast_frozen_mask: int
    aggregate_state_updates: int

    @property
    def total(self) -> int:
        return sum(astuple(self))


def phase_fanouts(n: int, n_high: int, capacity: int | None) -> Dict[str, int]:
    """Prescribed fan-outs for each tree step of a phase."""
    return {
        "state": fanout_for(capacity, STATE_WORDS_PER_VERTEX * n + SCALAR_STATE_WORDS),
        "freeze_up": fanout_for(capacity, 2 * max(1, n_high)),
        "freeze_down": fanout_for(capacity, max(1, n_high)),
        "loads": fanout_for(capacity, max(1, n)),
        "mask": fanout_for(capacity, max(1, n)),
        "updates": fanout_for(capacity, 2 * max(1, n)),
    }


def phase_cost(
    *, n: int, n_high: int, num_workers: int, num_sim_machines: int, capacity: int | None
) -> PhaseCost:
    """Predicted MPC rounds for one compressed phase.

    Parameters
    ----------
    n:
        Number of vertices in the input graph.
    n_high:
        ``|V^high|`` this phase.
    num_workers:
        Total worker machines ``W`` (home storage holders).
    num_sim_machines:
        Machines participating in the local simulation this phase
        (``min(m, W)``).
    capacity:
        Per-machine capacity ``S`` in words.
    """
    f = phase_fanouts(n, n_high, capacity)
    return PhaseCost(
        broadcast_state=broadcast_round_count(num_workers, f["state"]),
        route_edges=1,
        gather_freeze=fanin_round_count(num_sim_machines + 1, f["freeze_up"]),
        broadcast_freeze=broadcast_round_count(num_workers, f["freeze_down"]),
        aggregate_loads=fanin_round_count(num_workers + 1, f["loads"]),
        broadcast_frozen_mask=broadcast_round_count(num_workers, f["mask"]),
        aggregate_state_updates=fanin_round_count(num_workers + 1, f["updates"]),
    )


def final_phase_cost(
    *, num_workers: int, remaining_edges: int, n: int, capacity: int | None
) -> int:
    """Predicted rounds for the final centralized phase.

    One broadcast tree distributing the up-to-date frozen mask (``n`` words,
    so workers know which home edges are still alive), one gather tree
    moving ``3 · remaining_edges`` words to the coordinator, plus one
    compute round for the local solve.
    """
    mask_fanout = fanout_for(capacity, max(1, n))
    gather_fanout = fanout_for(capacity, 3 * max(1, remaining_edges))
    return (
        broadcast_round_count(num_workers, mask_fanout)
        + fanin_round_count(num_workers + 1, gather_fanout)
        + 1
    )


def cluster_width(*, n: int, m_edges: int, initial_machines: int, capacity: int | None) -> int:
    """Number of worker machines ``W`` for a cluster run.

    Three lower bounds: at least 2 workers (so trees are non-trivial), at
    least the phase-0 simulation width, and enough machines that each
    worker's persistent home storage (``HOME_WORDS_PER_EDGE`` words/edge)
    occupies at most a quarter of its capacity — leaving room for the phase
    state and the received induced subgraph.
    """
    if capacity is None:
        return max(2, initial_machines)
    budget = max(1, capacity // 4)
    needed = math.ceil(HOME_WORDS_PER_EDGE * max(1, m_edges) / budget)
    return max(2, initial_machines, needed)
