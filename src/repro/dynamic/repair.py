"""Repair kernels: pricing repair, greedy prune, certification.

The three state transitions of :class:`~repro.dynamic.IncrementalCoverMaintainer`
that involve floating point or cover membership are free functions over
plain arrays:

* :func:`pricing_repair_pass` — the local-ratio/pricing repair of
  uncovered edges, processed in ascending edge-code order;
* :func:`~repro.core.postprocess.greedy_prune_pass` — the sequential
  greedy redundancy prune over a candidate set, reading neighborhoods
  through the dynamic graph's batched degree and gather accessors (it
  lives in :mod:`repro.core.postprocess`, which also runs it over a static
  graph's CSR, and is re-exported here);
* :func:`certificate_from_state` — the duality certificate from the raw
  ``(weights, cover, loads, dual_value)`` arrays.

Both mutation kernels do an array *prepass* (residual/tolerance
precomputation for the repair; effectiveness ordering and bulk
droppability for the prune) so the
sequential tail loop — whose float-accumulation *order* fixes every
result bit and therefore cannot be parallelized — only touches surviving
items through preextracted Python locals.  The original object-at-a-time
loops are kept in ``tests/kernel_oracle.py`` as the executable spec: the
Hypothesis suite ``tests/properties/test_property_kernels.py`` and the
``benchmarks/bench_repair_kernels.py`` microbenchmark drive both over
identical streams and require bit-for-bit equal covers, duals, and dual
totals.

Why filtering the repair's input is exact, not approximate: the
edge-at-a-time loop skips an edge iff it is absent at batch end or an
endpoint is covered *when reached*.  An edge already absent or covered
when the pass starts is skipped with no side effects, so filtering it out
beforehand removes only a no-op iteration.  The maintainer filters while
it applies the batch: it passes the sorted codes of exactly the effective
inserts whose event run ends present and whose endpoints are both
uncovered.  The kernel then checks only cover membership, which an
earlier repair of the same pass may have changed.
The prune's argument is in :mod:`repro.core.postprocess`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.certificates import CoverCertificate
from repro.core.postprocess import greedy_prune_pass
from repro.dynamic.duals import decode_edge_codes

__all__ = [
    "RepairOutcome",
    "certificate_from_state",
    "greedy_prune_pass",
    "pricing_repair_pass",
]

#: Relative tolerance for "residual weight is exhausted" decisions.
RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class RepairOutcome:
    """Result of one :func:`pricing_repair_pass`.

    Attributes
    ----------
    repaired:
        Number of edges processed (uncovered when reached).
    entered:
        Number of vertices that entered the cover during the pass.
    dual_value:
        The updated dual total (additions applied in processing order).
    paid_codes, pays:
        The edge codes whose dual the pass raised, ascending, and the
        amount each was raised by.
    """

    repaired: int
    entered: int
    dual_value: float
    paid_codes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    pays: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))


def pricing_repair_pass(
    codes: np.ndarray,
    *,
    weights: np.ndarray,
    cover: np.ndarray,
    loads: np.ndarray,
    dual_value: float,
) -> RepairOutcome:
    """Patch uncovered edges via the local-ratio/pricing rule.

    ``codes`` are the ascending ``int64`` edge codes
    (:mod:`repro.dynamic.duals`) of present edges.  For each edge still
    uncovered when reached, the dual is raised by the smaller endpoint
    residual ``w − y``; every endpoint whose residual is exhausted enters
    the cover.  An endpoint already fully paid (residual ≤ 0, possible
    after an adopted solve with load factor > 1 or a weight decrease)
    enters for free.  ``cover`` and ``loads`` are mutated in place; the
    new duals are returned as :attr:`RepairOutcome.paid_codes` and
    :attr:`RepairOutcome.pays`.

    The vectorized prepass precomputes per-edge weights/tolerances; the
    ordered dual-accumulation tail runs over Python locals (see the
    module docstring for why the caller's filtering is exact).
    """
    codes = np.asarray(codes, dtype=np.int64)
    if not codes.size:
        return RepairOutcome(repaired=0, entered=0, dual_value=dual_value)

    su, sv = decode_edge_codes(codes)
    w_u = weights[su]
    w_v = weights[sv]
    # IEEE-identical to per-edge scalar products.
    tols_u = (RESIDUAL_RTOL * w_u).tolist()
    tols_v = (RESIDUAL_RTOL * w_v).tolist()
    us, vs = su.tolist(), sv.tolist()
    wus, wvs = w_u.tolist(), w_v.tolist()

    repaired = 0
    entered = 0
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
            entered += 1
        if rv - pay <= tols_v[i]:
            cover[v] = True
            entered += 1
        if not (cover[u] or cover[v]):  # pragma: no cover
            # min(ru, rv) - pay == 0 exactly for at least one endpoint;
            # defensive fallback for pathological float inputs.
            cheap = u if wu <= wv else v
            cover[cheap] = True
            entered += 1
        repaired += 1
    return RepairOutcome(
        repaired=repaired,
        entered=entered,
        dual_value=dual_value,
        paid_codes=codes[paid],
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
