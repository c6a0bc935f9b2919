"""Reference repair/prune kernels: the executable spec of the hot path.

:mod:`repro.dynamic.repair` runs vectorized kernels whose results must
equal these original object-at-a-time loops bit for bit.
:class:`ReferenceMaintainer` swaps them into an
:class:`~repro.dynamic.IncrementalCoverMaintainer`, so a differential test
or a benchmark can replay one stream through both and compare covers,
duals and dual totals exactly.  ``tests/properties/test_property_kernels.py``
and ``benchmarks/bench_repair_kernels.py`` drive it.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Set, Tuple

import numpy as np

from repro.core.postprocess import prune_redundant_vertices
from repro.dynamic import IncrementalCoverMaintainer
from repro.dynamic.repair import RESIDUAL_RTOL, RepairOutcome

EdgeKey = Tuple[int, int]


def reference_pricing_repair_pass(
    keys: Iterable[EdgeKey],
    *,
    weights: np.ndarray,
    cover: np.ndarray,
    loads: np.ndarray,
    duals,
    dual_value: float,
    has_edge: Callable[[int, int], bool],
) -> RepairOutcome:
    """The original edge-at-a-time pricing repair loop.

    Same contract as :func:`repro.dynamic.repair.pricing_repair_pass`,
    with a scalar presence test and tuple-keyed dual updates.
    """
    repaired = 0
    entered: Set[int] = set()
    for key in keys:
        u, v = key
        if not has_edge(u, v):
            continue  # inserted then deleted within the same batch
        if cover[u] or cover[v]:
            continue  # an earlier repair already covered this edge
        ru = float(weights[u] - loads[u])
        rv = float(weights[v] - loads[v])
        pay = max(0.0, min(ru, rv))
        if pay > 0.0:
            duals[key] = duals.get(key, 0.0) + pay
            loads[u] += pay
            loads[v] += pay
            dual_value += pay
        tol_u = RESIDUAL_RTOL * float(weights[u])
        tol_v = RESIDUAL_RTOL * float(weights[v])
        if ru - pay <= tol_u:
            cover[u] = True
            entered.add(u)
        if rv - pay <= tol_v:
            cover[v] = True
            entered.add(v)
        if not (cover[u] or cover[v]):  # pragma: no cover
            cheap = u if weights[u] <= weights[v] else v
            cover[cheap] = True
            entered.add(cheap)
        repaired += 1
    return RepairOutcome(repaired=repaired, entered=entered, dual_value=dual_value)


def reference_greedy_prune_pass(
    candidates: Iterable[int],
    *,
    weights: np.ndarray,
    cover: np.ndarray,
    graph,
) -> List[int]:
    """The original set-at-a-time greedy prune over ``graph.neighbors``."""
    cands = [v for v in candidates if cover[v]]
    if not cands:
        return []

    def effectiveness(v: int) -> float:
        d = graph.degree(v)
        return weights[v] / d if d else float("inf")

    cands.sort(key=lambda v: (-effectiveness(v), v))
    locked: Set[int] = set()
    pruned: List[int] = []
    for v in cands:
        if not cover[v] or v in locked:
            continue
        neigh = set(graph.neighbors(v).tolist())
        if all(cover[u] for u in neigh):
            cover[v] = False
            pruned.append(v)
            locked |= neigh
    return pruned


class ReferenceMaintainer(IncrementalCoverMaintainer):
    """A maintainer running the reference kernels instead of the vectorized ones.

    Touched sets above an eighth of the graph are pruned by the restricted
    sweep of :func:`repro.core.postprocess.prune_redundant_vertices` on the
    materialized graph — the same greedy order and droppability rule, so
    the result is unchanged.
    """

    def _repair(self, uncovered: Iterable[EdgeKey]) -> Tuple[int, Set[int]]:
        outcome = reference_pricing_repair_pass(
            sorted(set(uncovered)),
            weights=self.dyn.weights,
            cover=self._cover,
            loads=self._loads,
            duals=self._x,
            dual_value=self._dual_value,
            has_edge=self.dyn.has_edge,
        )
        self._dual_value = outcome.dual_value
        return outcome.repaired, outcome.entered

    def _prune_touched(self, touched: Set[int]) -> int:
        candidates = [v for v in touched if self._cover[v]]
        if not candidates:
            return 0
        if len(candidates) * 8 > self.dyn.n:
            before = int(self._cover.sum())
            self._cover = prune_redundant_vertices(
                self.dyn.materialize(),
                self._cover,
                weights=self.dyn.weights,
                candidates=np.asarray(candidates, dtype=np.int64),
            )
            return before - int(self._cover.sum())
        pruned = reference_greedy_prune_pass(
            candidates, weights=self.dyn.weights, cover=self._cover, graph=self.dyn
        )
        return len(pruned)
