"""Reference kernels: the executable spec of the hot path.

:mod:`repro.dynamic.repair` runs vectorized kernels, and
:meth:`IncrementalCoverMaintainer.apply_batch
<repro.dynamic.IncrementalCoverMaintainer.apply_batch>` applies a whole
batch with array operations; their results must equal these original object-at-a-time loops
bit for bit.  :class:`ReferenceMaintainer` swaps them into an
:class:`~repro.dynamic.IncrementalCoverMaintainer`, so a differential test
or a benchmark can replay one stream through both and compare covers,
duals, dual totals and batch reports exactly.  :func:`apply_event` and
:func:`has_edge` are the per-event path over a
:class:`~repro.dynamic.DynamicGraph`, built on its bulk mutations.
``tests/properties/test_property_kernels.py`` and
``benchmarks/bench_repair_kernels.py`` drive it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer, decode_edge_codes
from repro.dynamic.repair import RESIDUAL_RTOL, RepairOutcome
from tests.events import EdgeDelete, EdgeInsert, GraphUpdate, WeightChange, events

EdgeKey = Tuple[int, int]


def _edge_code(dyn: DynamicGraph, u: int, v: int) -> int:
    u, v = int(u), int(v)
    for x in (u, v):
        if not 0 <= x < dyn.n:
            raise ValueError(f"vertex {x} out of range [0, {dyn.n})")
    return (u << 32) | v if u < v else (v << 32) | u


def has_edge(dyn: DynamicGraph, u: int, v: int) -> bool:
    """True iff edge ``{u, v}`` exists in ``dyn``'s current graph."""
    code = _edge_code(dyn, u, v)
    return u != v and bool(dyn.has_codes(np.array([code]))[0])


def apply_event(dyn: DynamicGraph, update: GraphUpdate) -> bool:
    """Apply one event object to ``dyn``; True iff it changed the graph.

    Inserting a present edge, deleting an absent edge, re-setting a weight
    to its current value and deleting a self-loop are no-ops returning
    False.  An out-of-range vertex, a self-loop insert or a weight that is
    not finite and > 0 raises ``ValueError``, as
    :meth:`UpdateColumns.validate <repro.graphs.updates.UpdateColumns.validate>`
    does for a batch.
    """
    if isinstance(update, WeightChange):
        v = int(update.v)
        if not 0 <= v < dyn.n:
            raise ValueError(f"vertex {v} out of range [0, {dyn.n})")
        weight = float(update.weight)
        if not np.isfinite(weight) or weight <= 0:
            raise ValueError(f"vertex weights must be finite and > 0, got {weight}")
        if dyn.weights[v] == weight:
            return False
        dyn.set_weights(np.array([v]), np.array([weight]))
        return True
    if not isinstance(update, (EdgeInsert, EdgeDelete)):
        raise TypeError(f"not a graph update: {type(update).__name__}")
    insert = isinstance(update, EdgeInsert)
    code = _edge_code(dyn, update.u, update.v)
    if update.u == update.v:
        if insert:
            raise ValueError(f"self-loop at vertex {update.u} is not allowed")
        return False
    if has_edge(dyn, update.u, update.v) == insert:
        return False
    dyn.set_presence(np.array([code], dtype=np.int64), np.array([insert]))
    return True


def reference_pricing_repair_pass(
    keys: Iterable[EdgeKey],
    *,
    weights: np.ndarray,
    cover: np.ndarray,
    loads: np.ndarray,
    duals: Dict[int, float],
    entered: Set[int],
    dual_value: float,
    has_edge: Callable[[int, int], bool],
) -> RepairOutcome:
    """The original edge-at-a-time pricing repair loop.

    Same contract as :func:`repro.dynamic.repair.pricing_repair_pass`,
    but over sorted ``(u, v)`` keys that may include absent edges, which
    the scalar presence test skips.  Each pay is added into ``duals``
    (edge code → value) and each vertex that enters the cover into
    ``entered`` as it happens, instead of being returned.
    """
    repaired = 0
    start = len(entered)
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
            code = (u << 32) | v
            duals[code] = duals.get(code, 0.0) + pay
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
    return RepairOutcome(
        repaired=repaired, entered=len(entered) - start, dual_value=dual_value
    )


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
    """A maintainer running the reference loops instead of the fast paths.

    Events are applied one :data:`tests.events.GraphUpdate` object at a
    time, dispatched by ``isinstance``.  Whether an event is
    effective is decided against :attr:`model_edges`, a plain Python set
    of the current canonical edges kept here — not by the graph's bulk
    mutation code, which the production path shares — and each event
    then reaches the graph through :func:`apply_event`, which must agree.
    A test can check ``dyn.edge_codes()`` against :meth:`model_codes`
    after every batch.  Deleted edges' duals retire one at a time, clamping each load
    and the dual total at zero, and each pay lands as its own
    single-element edit of the dual arrays (added to a dual the edge
    already holds, if any), never through the production merge.  The
    repair gets every effective insert that arrived uncovered and tests
    each one's presence itself, and the prune's candidates are the touched
    vertices plus the entered ones, which the oracle keeps itself: the
    differential suites thus check the maintainer's end-of-batch filter
    and that every entered vertex is touched, instead of assuming them.
    Every prune is :func:`reference_greedy_prune_pass`, so the oracle
    never runs the production prune kernel it checks.
    """

    @property
    def model_edges(self) -> Set[EdgeKey]:
        """The oracle's own edge set (seeded from the graph on first use)."""
        if not hasattr(self, "_model_edges"):
            u, v = decode_edge_codes(self.dyn.edge_codes())
            self._model_edges = set(zip(u.tolist(), v.tolist()))
        return self._model_edges

    def model_codes(self) -> List[int]:
        """Sorted edge codes of :attr:`model_edges`."""
        return sorted((u << 32) | v for u, v in self.model_edges)

    def _apply_events(self, cols) -> Tuple:
        dyn, edges = self.dyn, self.model_edges
        inserts = deletes = reweights = 0
        retired = 0.0
        touched: Set[int] = set()
        uncovered: List[EdgeKey] = []
        for upd in events(cols):
            if isinstance(upd, WeightChange):
                effective = float(dyn.weights[upd.v]) != upd.weight
                assert apply_event(dyn, upd) == effective
                if effective:
                    reweights += 1
                    touched.add(upd.v)
                continue
            key = (upd.u, upd.v) if upd.u < upd.v else (upd.v, upd.u)
            insert = isinstance(upd, EdgeInsert)
            effective = upd.u != upd.v and (key in edges) != insert
            assert apply_event(dyn, upd) == effective, f"graph and model disagree on {upd}"
            if not effective:
                continue
            touched.update(key)
            if insert:
                edges.add(key)
                inserts += 1
                if not (self._cover[key[0]] or self._cover[key[1]]):
                    uncovered.append(key)
            else:
                edges.discard(key)
                deletes += 1
                retired += self._retire_dual(key)
        return inserts, deletes, reweights, retired, touched, uncovered

    def _dual_slot(self, code: int) -> Tuple[int, bool]:
        """Position of ``code`` in the sorted dual codes, and whether it
        holds a dual."""
        i = int(np.searchsorted(self._dual_codes, code))
        return i, i < self._dual_codes.size and int(self._dual_codes[i]) == code

    def _add_dual(self, code: int, pay: float) -> None:
        i, held = self._dual_slot(code)
        if held:
            self._dual_values = self._dual_values.copy()
            self._dual_values[i] += pay
        else:
            self._dual_codes = np.insert(self._dual_codes, i, code)
            self._dual_values = np.insert(self._dual_values, i, pay)

    def _retire_dual(self, key: EdgeKey) -> float:
        u, v = key
        i, held = self._dual_slot((u << 32) | v)
        pay = 0.0
        if held:
            pay = float(self._dual_values[i])
            self._dual_codes = np.delete(self._dual_codes, i)
            self._dual_values = np.delete(self._dual_values, i)
        if pay:
            for t in key:
                self._loads[t] -= pay
                if self._loads[t] < 0.0:  # accumulated float noise
                    self._loads[t] = 0.0
            self._dual_value -= pay
            if self._dual_value < 0.0:
                self._dual_value = 0.0
        return pay

    def _repair(self, uncovered: Iterable[EdgeKey]) -> Tuple[int, int]:
        paid: Dict[int, float] = {}
        self._entered: Set[int] = set()
        outcome = reference_pricing_repair_pass(
            sorted(set(uncovered)),
            weights=self.dyn.weights,
            cover=self._cover,
            loads=self._loads,
            duals=paid,
            entered=self._entered,
            dual_value=self._dual_value,
            has_edge=lambda u, v: has_edge(self.dyn, u, v),
        )
        for code, pay in paid.items():
            self._add_dual(code, pay)
        self._dual_value = outcome.dual_value
        return outcome.repaired, outcome.entered

    def _prune_touched(self, touched: Set[int]) -> int:
        # The oracle does not assume that every entered vertex is touched.
        candidates = [v for v in touched | self._entered if self._cover[v]]
        if not candidates:
            return 0
        pruned = reference_greedy_prune_pass(
            candidates, weights=self.dyn.weights, cover=self._cover, graph=self.dyn
        )
        return len(pruned)
