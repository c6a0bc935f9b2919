"""Collective communication primitives on top of :class:`~repro.mpc.cluster.Cluster`.

The MPC literature freely uses "broadcast a seed", "aggregate the degree
counts", "route each edge to its machine" as O(1)-round steps; in the
near-linear memory regime they are implemented with fan-out/fan-in trees
whose fan-out is chosen so every transfer respects the per-round ``S``-word
limit.  This module implements exactly those trees, so that every collective
costs its true round count and the cluster's metrics remain model-accurate.

Every collective takes its ``fanout`` from the caller: the one rule is
:func:`repro.core.accounting.fanout_for`, which the analytic round counts
of :mod:`repro.core.accounting` use too.  The cluster still checks every
hop against ``S``, so a fan-out too wide for the payload raises rather
than under-counts.

All primitives are deterministic: message order is fixed by machine id.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.mpc.cluster import Cluster
from repro.mpc.message import Message

__all__ = ["broadcast", "aggregate_sum", "gather_concat"]


def broadcast(
    cluster: Cluster,
    src: int,
    tag: str,
    payload,
    *,
    fanout: int,
    dst_ids: Optional[Sequence[int]] = None,
) -> Dict[int, object]:
    """Broadcast ``payload`` from machine ``src`` to ``dst_ids`` (default all).

    Uses a fan-out tree: in each round, every machine already holding the
    payload forwards it to up to ``fanout`` machines that do not.  Returns
    ``{machine_id: payload}`` for all destinations (including ``src`` if it
    is a destination).  Round cost:
    :func:`~repro.core.accounting.broadcast_round_count`.
    """
    targets = list(range(cluster.num_machines)) if dst_ids is None else sorted(set(dst_ids))
    holders = [src]
    pending = [t for t in targets if t != src]
    received: Dict[int, object] = {}
    if src in targets:
        received[src] = payload
    while pending:
        out: List[Message] = []
        assignments = []
        for h_idx, holder in enumerate(holders):
            lo = h_idx * fanout
            chunk = pending[lo : lo + fanout]
            for dst in chunk:
                out.append(Message(holder, dst, tag, payload))
                assignments.append(dst)
            if lo >= len(pending):
                break
        inboxes = cluster.exchange(out)
        for dst in assignments:
            received[dst] = inboxes[dst][0].payload
        holders = holders + assignments
        pending = pending[len(assignments) :]
    return received


def aggregate_sum(
    cluster: Cluster,
    tag: str,
    partials: Dict[int, np.ndarray],
    *,
    fanout: int,
    root: int = 0,
) -> np.ndarray:
    """Sum dense numpy vectors held by machines, delivering the total to ``root``.

    Fan-in tree: machines are grouped in blocks of ``fanout``; block members
    send their partial to the block leader, leaders sum, and the process
    repeats on the leaders.  Round cost:
    :func:`~repro.core.accounting.fanin_round_count`.

    Parameters
    ----------
    partials:
        ``machine_id -> vector``; all vectors must share shape and dtype.
        Machines without an entry contribute zero (and send nothing).
        They are never written, and the returned total never shares
        memory with them.
    """
    if not partials:
        raise ValueError("aggregate_sum needs at least one partial")
    shapes = {v.shape for v in partials.values()}
    if len(shapes) != 1:
        raise ValueError(f"partial vectors disagree in shape: {shapes}")
    (shape,) = shapes
    # Work on the sorted list of participating machines; fold `root` in so
    # the final value lands there.
    current: Dict[int, np.ndarray] = {
        mid: np.asarray(v, dtype=np.float64) for mid, v in partials.items()
    }
    if root not in current:
        current[root] = np.zeros(shape, dtype=np.float64)
    while len(current) > 1:
        ids = sorted(current.keys(), key=lambda i: (i != root, i))
        # ids[0] is root; leaders are every `fanout`-th machine in this order.
        out: List[Message] = []
        leaders: Dict[int, np.ndarray] = {}
        for idx, mid in enumerate(ids):
            leader = ids[(idx // fanout) * fanout]
            if mid == leader:
                leaders[mid] = current[mid]
            else:
                out.append(Message(mid, leader, tag, current[mid]))
        inboxes = cluster.exchange(out)
        for leader, acc in leaders.items():
            for msg in inboxes.get(leader, []):
                acc = acc + msg.payload
            leaders[leader] = acc
        current = leaders
    total = current[root]
    # A lone partial at the root is never summed into a new array.
    aliased = any(np.may_share_memory(total, v) for v in partials.values())
    return total.copy() if aliased else total


def gather_concat(
    cluster: Cluster,
    tag: str,
    parts: Dict[int, np.ndarray],
    *,
    fanout: int,
    root: int = 0,
) -> np.ndarray:
    """Gather variable-length vectors to ``root``, concatenated in machine order.

    Fan-in tree like :func:`aggregate_sum`, but payload sizes grow as parts
    merge; each hop is separately capacity-checked by the cluster.  Parts are
    tagged with their origin so the final concatenation is ordered by source
    machine id regardless of tree shape.
    """
    if not parts:
        raise ValueError("gather_concat needs at least one part")
    dtype = next(iter(parts.values())).dtype
    current: Dict[int, List] = {
        mid: [(mid, np.asarray(v))] for mid, v in parts.items()
    }
    if root not in current:
        current[root] = [(root, np.empty(0, dtype=dtype))]
    while len(current) > 1:
        ids = sorted(current.keys(), key=lambda i: (i != root, i))
        out: List[Message] = []
        leaders: Dict[int, List] = {}
        for idx, mid in enumerate(ids):
            leader = ids[(idx // fanout) * fanout]
            if mid == leader:
                leaders[mid] = current[mid]
            else:
                out.append(Message(mid, leader, tag, current[mid]))
        inboxes = cluster.exchange(out)
        for leader in leaders:
            for msg in inboxes.get(leader, []):
                leaders[leader] = leaders[leader] + msg.payload
        current = leaders
    pieces = sorted(current[root], key=lambda kv: kv[0])
    arrays = [np.asarray(a) for _, a in pieces if np.asarray(a).size]
    if not arrays:
        return np.empty(0, dtype=dtype)
    return np.concatenate(arrays)
