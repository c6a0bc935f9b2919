"""Property: vectorized repair/prune kernels ≡ the reference oracle.

The vectorized dynamic hot path (CSR-delta adjacency, array-backed duals,
batched pricing/prune kernels) promises *bit-identical* covers, duals,
and certificates to the original object-at-a-time kernels kept in
``tests/kernel_oracle.py``.  Hypothesis drives random graphs and random
churn sequences through two maintainers — the production
:class:`IncrementalCoverMaintainer` and the oracle's
:class:`ReferenceMaintainer` — and through the bare kernel functions on
synthetic states; every float in the resulting state must match exactly,
not approximately.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.dynamic import DualStore, DynamicGraph, IncrementalCoverMaintainer
from repro.dynamic.repair import greedy_prune_pass, pricing_repair_pass
from repro.graphs.updates import EdgeDelete, EdgeInsert, WeightChange

from tests.kernel_oracle import (
    ReferenceMaintainer,
    reference_greedy_prune_pass,
    reference_pricing_repair_pass,
)
from tests.properties.strategies import weighted_graphs

EPS = 0.1
SEED = 3


@st.composite
def update_sequences(draw, n: int, max_events: int = 50):
    """A random (not necessarily coherent) event sequence over ``n`` vertices."""
    events = []
    num = draw(st.integers(0, max_events))
    for _ in range(num):
        kind = draw(st.integers(0, 2))
        if kind == 2 or n < 2:
            v = draw(st.integers(0, n - 1))
            w = draw(st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False))
            events.append(WeightChange(v, w))
            continue
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
        if kind == 0:
            events.append(EdgeInsert(u, v))
        else:
            events.append(EdgeDelete(u, v))
    return events


def _assert_same_maintainer_state(a: IncrementalCoverMaintainer, b):
    assert np.array_equal(a.cover, b.cover), "cover masks differ"
    assert a.edge_duals() == b.edge_duals(), "duals differ"
    assert a.dual_value == b.dual_value, "dual totals differ"
    assert np.array_equal(a._loads, b._loads), "loads differ"


class TestMaintainerEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=2, max_n=16))
    def test_vectorized_stream_equals_reference_stream(self, data, graph):
        updates = data.draw(update_sequences(graph.n))
        batch = data.draw(st.integers(1, 12))
        maintainers = []
        for maintainer_cls in (IncrementalCoverMaintainer, ReferenceMaintainer):
            dyn = DynamicGraph(graph, min_compact=4, compact_fraction=0.5)
            m = maintainer_cls(dyn)
            if graph.m:
                m.adopt(minimum_weight_vertex_cover(graph, eps=EPS, seed=SEED))
            reports = []
            for i in range(0, len(updates), batch):
                reports.append(m.apply_batch(updates[i : i + batch]))
            maintainers.append((m, reports))
        (vec, vec_reports), (ref, ref_reports) = maintainers
        _assert_same_maintainer_state(vec, ref)
        assert vec.verify() and ref.verify()
        for rv, rr in zip(vec_reports, ref_reports):
            assert rv == rr, "per-batch reports differ"


class TestBareKernels:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=2, max_n=20))
    def test_pricing_repair_pass_matches_reference(self, data, graph):
        n = graph.n
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        cover = rng.random(n) < data.draw(st.floats(0.0, 0.9))
        loads = rng.random(n) * np.asarray(graph.weights)
        keys = sorted(
            {
                (int(u), int(v))
                for u, v in zip(graph.edges_u, graph.edges_v)
            }
        )
        dyn = DynamicGraph(graph)
        args = dict(weights=np.asarray(graph.weights), dual_value=0.25)
        ref_cover, ref_loads, ref_duals = cover.copy(), loads.copy(), DualStore()
        ref = reference_pricing_repair_pass(
            keys,
            cover=ref_cover,
            loads=ref_loads,
            duals=ref_duals,
            has_edge=dyn.has_edge,
            **args,
        )
        vec_cover, vec_loads, vec_duals = cover.copy(), loads.copy(), DualStore()
        vec = pricing_repair_pass(
            keys,
            cover=vec_cover,
            loads=vec_loads,
            duals=vec_duals,
            has_edges=dyn.has_edges,
            **args,
        )
        assert vec.repaired == ref.repaired
        assert vec.entered == ref.entered
        assert vec.dual_value == ref.dual_value
        assert np.array_equal(vec_cover, ref_cover)
        assert np.array_equal(vec_loads, ref_loads)
        assert vec_duals == ref_duals

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=1, max_n=20))
    def test_greedy_prune_pass_matches_reference(self, data, graph):
        n = graph.n
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        # Start from a valid cover so droppability is meaningful, then
        # prune a random candidate subset.
        cover = np.ones(n, dtype=bool)
        drop = rng.random(n) < 0.3
        for v in np.nonzero(drop)[0]:
            neigh = graph.neighbors(int(v))
            if cover[neigh].all():
                cover[v] = False
        candidates = sorted(
            int(v) for v in rng.choice(n, size=rng.integers(0, n + 1), replace=False)
        )
        dyn = DynamicGraph(graph)
        weights = np.asarray(graph.weights)
        ref_cover = cover.copy()
        ref = reference_greedy_prune_pass(
            candidates, weights=weights, cover=ref_cover, graph=dyn
        )
        vec_cover = cover.copy()
        vec = greedy_prune_pass(
            candidates,
            weights=weights,
            cover=vec_cover,
            degrees_of=dyn.degrees_of,
            gather=dyn.prune_gather,
        )
        assert vec == ref
        assert np.array_equal(vec_cover, ref_cover)


class TestDualStore:
    @settings(max_examples=50, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 500), st.integers(501, 1000)),
            unique=True,
            max_size=40,
        ),
        data=st.data(),
    )
    def test_round_trip_and_order(self, pairs, data):
        values = [
            data.draw(st.floats(0.001, 100.0, allow_nan=False))
            for _ in pairs
        ]
        store = DualStore(dict(zip(pairs, values)))
        keys, vals = store.to_arrays()
        assert [tuple(k) for k in keys.tolist()] == sorted(pairs)
        again = DualStore.from_arrays(keys, vals)
        assert again == store
        assert again.as_dict() == dict(zip(pairs, values))
        codes, code_vals = store.sorted_codes()
        assert DualStore.from_codes(codes, code_vals) == store
