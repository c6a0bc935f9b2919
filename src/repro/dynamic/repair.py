"""Repair kernels: pricing repair, greedy prune, certification.

The three state transitions of :class:`~repro.dynamic.IncrementalCoverMaintainer`
that involve floating point live here as free functions over plain arrays:

* :func:`pricing_repair_pass` — the local-ratio/pricing repair of
  uncovered edges, processed in canonical sorted-key order;
* :func:`greedy_prune_pass` — the sequential greedy redundancy prune over
  a candidate set, reading neighborhoods through the dynamic graph's
  batched degree and gather accessors;
* :func:`certificate_from_state` — the duality certificate from the raw
  ``(weights, cover, loads, dual_value)`` arrays.

Both mutation kernels do a masked array *prepass* (presence,
covered-endpoint, residual/tolerance precomputation for the repair;
effectiveness ordering and bulk droppability for the prune) so the
sequential tail loop — whose float-accumulation *order* fixes every
result bit and therefore cannot be parallelized — only touches surviving
items through preextracted Python locals.  The original object-at-a-time
loops are kept in ``tests/kernel_oracle.py`` as the executable spec: the
Hypothesis suite ``tests/properties/test_property_kernels.py`` and the
``benchmarks/bench_repair_kernels.py`` microbenchmark drive both over
identical streams and require bit-for-bit equal covers, duals, and dual
totals.

Why the prepass is exact, not approximate: the repair loop skips an edge
iff it is absent or an endpoint is covered *when reached*; an edge absent
or covered before the pass starts is skipped with no side effects, so
filtering those up front removes only no-op iterations.  The prune loop
re-reads ``cover`` per candidate, but cover bits only change at *dropped*
vertices, and dropping ``v`` locks every neighbor of ``v`` — so any
candidate whose droppability inputs changed mid-pass is locked and skipped
anyway, making the pass-start droppability mask decision-equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Set, Tuple

import numpy as np

from repro.core.certificates import CoverCertificate
from repro.dynamic.duals import DualStore

__all__ = [
    "RepairOutcome",
    "certificate_from_state",
    "greedy_prune_pass",
    "pricing_repair_pass",
]

#: Relative tolerance for "residual weight is exhausted" decisions.
RESIDUAL_RTOL = 1e-9

EdgeKey = Tuple[int, int]


@dataclass(frozen=True)
class RepairOutcome:
    """Result of one :func:`pricing_repair_pass`.

    Attributes
    ----------
    repaired:
        Number of edges processed (present and uncovered when reached).
    entered:
        Vertices that entered the cover during the pass.
    dual_value:
        The updated dual total (additions applied in processing order).
    """

    repaired: int
    entered: Set[int]
    dual_value: float


def pricing_repair_pass(
    keys: Iterable[EdgeKey],
    *,
    weights: np.ndarray,
    cover: np.ndarray,
    loads: np.ndarray,
    duals: DualStore,
    dual_value: float,
    has_edges: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> RepairOutcome:
    """Patch uncovered edges via the local-ratio/pricing rule.

    ``keys`` must be canonical ``(u, v)`` pairs with ``u < v`` in sorted
    order.  For each edge still present and still uncovered, the dual is
    raised by the smaller endpoint residual ``w − y``; every endpoint
    whose residual is exhausted enters the cover.  An endpoint already
    fully paid (residual ≤ 0, possible after an adopted solve with load
    factor > 1 or a weight decrease) enters for free.  ``cover``,
    ``loads`` and ``duals`` are mutated in place.

    ``has_edges(u_arr, v_arr) -> bool array`` answers presence for the
    whole frontier at once (an edge inserted then deleted within the same
    batch is skipped).  The vectorized prepass removes edges that are
    absent or covered at pass start and precomputes per-edge
    weights/tolerances; the ordered dual-accumulation tail runs over the
    survivors only (see the module docstring for the exactness argument).
    """
    key_list = keys if isinstance(keys, list) else list(keys)
    if not key_list:
        return RepairOutcome(repaired=0, entered=set(), dual_value=dual_value)

    arr = np.asarray(key_list, dtype=np.int64).reshape(len(key_list), 2)
    u_arr, v_arr = arr[:, 0], arr[:, 1]
    keep = ~(cover[u_arr] | cover[v_arr]) & has_edges(u_arr, v_arr)
    if not keep.any():
        return RepairOutcome(repaired=0, entered=set(), dual_value=dual_value)

    su, sv = u_arr[keep], v_arr[keep]
    w_u = weights[su]
    w_v = weights[sv]
    # IEEE-identical to per-edge scalar products.
    tols_u = (RESIDUAL_RTOL * w_u).tolist()
    tols_v = (RESIDUAL_RTOL * w_v).tolist()
    us, vs = su.tolist(), sv.tolist()
    wus, wvs = w_u.tolist(), w_v.tolist()

    repaired = 0
    entered: Set[int] = set()
    add_pay = duals.add_pay
    for i in range(len(us)):
        u = us[i]
        v = vs[i]
        if cover[u] or cover[v]:
            continue  # an earlier repair already covered this edge
        wu = wus[i]
        wv = wvs[i]
        ru = wu - float(loads[u])
        rv = wv - float(loads[v])
        pay = max(0.0, min(ru, rv))
        if pay > 0.0:
            add_pay(u, v, pay)
            loads[u] += pay
            loads[v] += pay
            dual_value += pay
        if ru - pay <= tols_u[i]:
            cover[u] = True
            entered.add(u)
        if rv - pay <= tols_v[i]:
            cover[v] = True
            entered.add(v)
        if not (cover[u] or cover[v]):  # pragma: no cover
            # min(ru, rv) - pay == 0 exactly for at least one endpoint;
            # defensive fallback for pathological float inputs.
            cheap = u if wu <= wv else v
            cover[cheap] = True
            entered.add(cheap)
        repaired += 1
    return RepairOutcome(repaired=repaired, entered=entered, dual_value=dual_value)


def greedy_prune_pass(
    candidates: Iterable[int],
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
    ends, extras)`` (:meth:`~repro.dynamic.DynamicGraph.prune_gather`) —
    a partial neighborhood would silently break the cover.  Ordering is
    one ``lexsort``, droppability is one gathered ``cover`` reduction over
    the concatenated neighbor arrays, and the sequential tail does O(1)
    work per candidate.  The pass-start droppability mask never disagrees
    with a live re-check for an unlocked candidate (see the module
    docstring).
    """
    cand = np.fromiter(
        (v for v in candidates if cover[v]), dtype=np.int64
    )
    if cand.size == 0:
        return []

    degs = degrees_of(cand)
    w = np.asarray(weights, dtype=np.float64)[cand]
    with np.errstate(divide="ignore"):
        eff = np.where(degs > 0, w / np.maximum(degs, 1), np.inf)
    ordered = cand[np.lexsort((cand, -eff))]

    # One index build + one fancy gather for the whole candidate set
    # (overlay-inserted neighbors ride in `extras`).
    concat, starts, ends, extras = gather(ordered)
    sizes = ends - starts
    droppable = np.ones(ordered.size, dtype=bool)
    nonempty = np.nonzero(sizes)[0]
    if nonempty.size:
        droppable[nonempty] = np.minimum.reduceat(
            cover[concat], starts[nonempty]
        )
    for i, arr in extras.items():
        if droppable[i] and not cover[arr].all():
            droppable[i] = False
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
        extra = extras.get(i)
        if extra is not None:
            locked[extra] = True
    return pruned


def certificate_from_state(
    *,
    weights: np.ndarray,
    cover: np.ndarray,
    loads: np.ndarray,
    dual_value: float,
) -> CoverCertificate:
    """The duality certificate of a maintained ``(cover, duals)`` state.

    The OPT lower bound is the better of the two sound repairs of a
    violated dual: global scaling ``Σx / load_factor`` and excess
    subtraction ``Σx − Σ_v (y_v − w_v)_+`` (see
    :meth:`repro.dynamic.IncrementalCoverMaintainer.certificate`).
    ``is_cover`` asserts the caller's validity invariant — it is not
    recomputed here.
    """
    cover_weight = float(weights[cover].sum())
    n = weights.shape[0]
    if n == 0:
        load_factor = 1.0
        excess = 0.0
    else:
        load_factor = max(1.0, float((loads / weights).max()))
        excess = float(np.maximum(loads - weights, 0.0).sum())
    if dual_value > 0:
        lower = max(dual_value / load_factor, dual_value - excess)
        ratio = cover_weight / lower if lower > 0 else float("inf")
    else:
        lower = 0.0
        ratio = 1.0 if cover_weight == 0.0 else float("inf")
    return CoverCertificate(
        is_cover=True,
        cover_weight=cover_weight,
        dual_value=dual_value,
        load_factor=load_factor,
        opt_lower_bound=lower,
        certified_ratio=ratio,
    )
