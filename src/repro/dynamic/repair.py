"""Repair kernels: pricing repair, greedy prune, certification.

The three state transitions of :class:`~repro.dynamic.IncrementalCoverMaintainer`
that involve floating point or cover membership are free functions over
plain arrays:

* :func:`pricing_repair_pass` — the local-ratio/pricing repair of
  uncovered edges, processed in canonical sorted-key order;
* :func:`~repro.core.postprocess.greedy_prune_pass` — the sequential
  greedy redundancy prune over a candidate set, reading neighborhoods
  through the dynamic graph's batched degree and gather accessors (it
  lives in :mod:`repro.core.postprocess`, which also runs it over a static
  graph's CSR, and is re-exported here);
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

Why the repair prepass is exact, not approximate: the loop skips an edge
iff it is absent or an endpoint is covered *when reached*; an edge absent
or covered before the pass starts is skipped with no side effects, so
filtering those up front removes only no-op iterations.  The prune's
argument is in :mod:`repro.core.postprocess`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.certificates import CoverCertificate
from repro.core.postprocess import greedy_prune_pass
from repro.dynamic.duals import encode_edge_codes

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
    paid_codes, pays:
        The edge codes whose dual the pass raised, ascending, and the
        amount each was raised by.
    """

    repaired: int
    entered: Set[int]
    dual_value: float
    paid_codes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    pays: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))


def pricing_repair_pass(
    keys: Union[np.ndarray, Sequence[EdgeKey]],
    *,
    weights: np.ndarray,
    cover: np.ndarray,
    loads: np.ndarray,
    dual_value: float,
    has_edges: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> RepairOutcome:
    """Patch uncovered edges via the local-ratio/pricing rule.

    ``keys`` must be canonical ``(u, v)`` pairs with ``u < v`` in sorted
    order (a ``(k, 2)`` array or a sequence of pairs).  For each edge still
    present and still uncovered, the dual is raised by the smaller
    endpoint residual ``w − y``; every endpoint whose residual is
    exhausted enters the cover.  An endpoint already fully paid
    (residual ≤ 0, possible after an adopted solve with load factor > 1
    or a weight decrease) enters for free.  ``cover`` and ``loads`` are
    mutated in place; the new duals are returned as
    :attr:`RepairOutcome.paid_codes` and :attr:`RepairOutcome.pays`.

    ``has_edges(u_arr, v_arr) -> bool array`` answers presence for the
    whole frontier at once (an edge inserted then deleted within the same
    batch is skipped).  The vectorized prepass removes edges that are
    absent or covered at pass start and precomputes per-edge
    weights/tolerances; the ordered dual-accumulation tail runs over the
    survivors only (see the module docstring for the exactness argument).
    """
    arr = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    if not arr.size:
        return RepairOutcome(repaired=0, entered=set(), dual_value=dual_value)

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
    paid: List[int] = []
    pays: List[float] = []
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
            paid.append(i)
            pays.append(pay)
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
    return RepairOutcome(
        repaired=repaired,
        entered=entered,
        dual_value=dual_value,
        paid_codes=encode_edge_codes(su[paid], sv[paid]),
        pays=np.array(pays, dtype=np.float64),
    )


def certificate_from_state(
    *,
    weights: np.ndarray,
    cover: np.ndarray,
    loads: np.ndarray,
    dual_value: float,
) -> CoverCertificate:
    """The duality certificate of a maintained ``(cover, duals)`` state.

    The OPT lower bound is the better of the two sound repairs of a
    violated dual (loads ``y_v`` may exceed ``w_v`` after an adopted
    solve with load factor > 1 or a weight decrease):

    * global scaling ``Σx / load_factor`` with ``load_factor = max(1,
      max_v y_v / w_v)``, as in
      :func:`repro.core.certificates.certify_cover`;
    * excess subtraction ``Σx − excess`` with ``excess = Σ_v (y_v −
      w_v)_+``.  For any cover ``C``, ``Σ_e x_e ≤ Σ_{v∈C} y_v ≤ w(C) +
      excess`` (every edge has an endpoint in ``C``), so ``Σx − excess ≤
      OPT``.  It is far tighter than scaling when a few reweighted
      vertices carry all the violation.

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
