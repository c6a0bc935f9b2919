"""Property: vectorized repair/prune kernels ≡ the reference oracle.

The vectorized dynamic hot path (CSR-delta adjacency, sorted dual arrays,
batched pricing/prune kernels, the columnar event loop of ``apply_batch``)
promises *bit-identical* covers, duals, and certificates to the original
object-at-a-time loops kept in ``tests/kernel_oracle.py``.  Hypothesis
drives random graphs and random churn sequences through two maintainers
— the production :class:`IncrementalCoverMaintainer` and the oracle's
:class:`ReferenceMaintainer` — and through the bare kernel functions on
synthetic states; every float in the resulting state must match exactly,
not approximately.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.core.postprocess import greedy_prune_pass, prune_redundant_vertices
from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer
from repro.dynamic.duals import decode_edge_codes, encode_edge_codes
from repro.dynamic.repair import pricing_repair_pass
from repro.graphs.graph import WeightedGraph

from tests.events import EdgeDelete, EdgeInsert, WeightChange, columns
from tests.kernel_oracle import (
    ReferenceMaintainer,
    has_edge,
    reference_greedy_prune_pass,
    reference_pricing_repair_pass,
)
from tests.properties.strategies import (
    profile_examples,
    tied_weight_values,
    weighted_graphs,
)

EPS = 0.1
SEED = 3


@st.composite
def update_sequences(draw, n: int, max_events: int = 50, ties: bool = False):
    """A random (not necessarily coherent) event sequence over ``n``
    vertices; with ``ties``, reweights draw tie-prone values."""
    weight = (
        tied_weight_values
        if ties
        else st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False)
    )
    events = []
    num = draw(st.integers(0, max_events))
    for _ in range(num):
        kind = draw(st.integers(0, 2))
        if kind == 2 or n < 2:
            v = draw(st.integers(0, n - 1))
            events.append(WeightChange(v, draw(weight)))
            continue
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
        if kind == 0:
            events.append(EdgeInsert(u, v))
        else:
            events.append(EdgeDelete(u, v))
    return events


@st.composite
def edge_case_sequences(draw, graph, max_chunks: int = 12):
    """Random events interleaved with the event runs whose order matters:
    insert→delete→insert of one edge, duplicate inserts, deletes of absent
    edges, and reweights to the current value."""
    n = graph.n
    weights = np.array(graph.weights, dtype=np.float64)  # mirror of w(v)
    events = []
    for _ in range(draw(st.integers(0, max_chunks))):
        kind = draw(st.integers(0, 4))
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
        if kind == 0:
            chunk = [EdgeInsert(u, v), EdgeDelete(v, u), EdgeInsert(u, v)]
        elif kind == 1:
            chunk = [EdgeInsert(u, v), EdgeInsert(v, u)]
        elif kind == 2:
            chunk = [EdgeDelete(u, v), EdgeDelete(u, v)]  # the second is absent
        elif kind == 3:
            chunk = [WeightChange(v, float(weights[v]))]  # the current value
        else:
            chunk = draw(update_sequences(n, max_events=6))
        for upd in chunk:
            if isinstance(upd, WeightChange):
                weights[upd.v] = upd.weight
        events += chunk
    return events


@st.composite
def bulk_path_sequences(draw, graph, max_chunks: int = 14):
    """Random events interleaved with every run the whole-batch apply must
    resolve exactly as the event-at-a-time loop does: insert→delete→insert
    and delete→insert→delete of one edge, duplicated events, deletes of
    absent edges and of self-loops, reweights to the current weight, and
    repeated reweights of one vertex."""
    n = graph.n
    weights = np.array(graph.weights, dtype=np.float64)  # mirror of w(v)
    weight = st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False)
    events = []
    for _ in range(draw(st.integers(0, max_chunks))):
        kind = draw(st.integers(0, 7))
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
        if kind == 0:
            chunk = [EdgeInsert(u, v), EdgeDelete(v, u), EdgeInsert(u, v)]
        elif kind == 1:
            chunk = [EdgeDelete(u, v), EdgeInsert(v, u), EdgeDelete(u, v)]
        elif kind == 2:
            event = draw(st.sampled_from([EdgeInsert(u, v), EdgeDelete(v, u)]))
            chunk = [event] * draw(st.integers(2, 3))
        elif kind == 3:
            chunk = [EdgeDelete(u, u)]  # a self-loop delete is a no-op
        elif kind == 4:
            chunk = [WeightChange(v, float(weights[v]))]  # the current value
        elif kind == 5:
            current = st.just(float(weights[v]))
            values = draw(st.lists(st.one_of(weight, current), min_size=2, max_size=4))
            chunk = [WeightChange(v, w) for w in values]
        else:
            chunk = draw(update_sequences(n, max_events=6))
        for upd in chunk:
            if isinstance(upd, WeightChange):
                weights[upd.v] = upd.weight
        events += chunk
    return events


def _assert_same_maintainer_state(a: IncrementalCoverMaintainer, b):
    assert np.array_equal(a.cover, b.cover), "cover masks differ"
    assert a.edge_duals() == b.edge_duals(), "duals differ"
    sa, sb = a.export_state(), b.export_state()
    assert np.array_equal(sa["dual_codes"], sb["dual_codes"]), "dual order differs"
    assert np.array_equal(sa["dual_values"], sb["dual_values"])
    assert a.dual_value == b.dual_value, "dual totals differ"
    assert np.array_equal(a._loads, b._loads), "loads differ"


class TestMaintainerEquivalence:
    @pytest.mark.parametrize("ties", [False, True], ids=["floats", "ties"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_vectorized_stream_equals_reference_stream(self, data, ties):
        graph = data.draw(weighted_graphs(min_n=2, max_n=16, ties=ties))
        updates = columns(data.draw(update_sequences(graph.n, ties=ties)))
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


    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=2, max_n=12))
    def test_columnar_loop_equals_object_loop_on_order_sensitive_runs(
        self, data, graph
    ):
        """``apply_batch`` walks the batch's columns; the oracle applies
        one event object at a time.  Column batches go to both."""
        cols = columns(data.draw(edge_case_sequences(graph)))
        batch = data.draw(st.sampled_from([1, 3, 7, max(1, len(cols))]))
        runs = []
        for maintainer_cls in (IncrementalCoverMaintainer, ReferenceMaintainer):
            dyn = DynamicGraph(graph, min_compact=4, compact_fraction=0.5)
            m = maintainer_cls(dyn)
            if graph.m:
                m.adopt(minimum_weight_vertex_cover(graph, eps=EPS, seed=SEED))
            reports = [
                m.apply_batch(cols[i : i + batch]) for i in range(0, len(cols), batch)
            ]
            runs.append((m, reports))
        (vec, vec_reports), (ref, ref_reports) = runs
        _assert_same_maintainer_state(vec, ref)
        assert vec_reports == ref_reports, "per-batch reports differ"
        assert vec.verify() and ref.verify()


    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=2, max_n=14))
    def test_bulk_apply_equals_event_loop_and_edge_set_model(self, data, graph):
        """Batch by batch, the array-native apply matches the oracle's
        event loop bit for bit, and both graphs hold exactly the edges of
        the oracle's own Python edge-set model."""
        cols = columns(data.draw(bulk_path_sequences(graph)))
        batch = data.draw(st.sampled_from([1, 2, 5, 9, max(1, len(cols))]))
        pair = []
        for maintainer_cls in (IncrementalCoverMaintainer, ReferenceMaintainer):
            m = maintainer_cls(DynamicGraph(graph, min_compact=3, compact_fraction=0.3))
            if graph.m:
                m.adopt(minimum_weight_vertex_cover(graph, eps=EPS, seed=SEED))
            pair.append(m)
        vec, ref = pair
        for i in range(0, len(cols), batch):
            vec_report = vec.apply_batch(cols[i : i + batch])
            ref_report = ref.apply_batch(cols[i : i + batch])
            assert vec_report.to_dict() == ref_report.to_dict()
            _assert_same_maintainer_state(vec, ref)
            assert np.array_equal(vec.dyn.weights, ref.dyn.weights)
            model = ref.model_codes()
            assert vec.dyn.edge_codes().tolist() == model
            assert ref.dyn.edge_codes().tolist() == model
            assert vec.dyn.m == len(model)
        assert vec.verify() and ref.verify()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), graph=weighted_graphs(min_n=2, max_n=14))
    def test_held_duals_stay_sorted_positive_and_on_current_edges(self, data, graph):
        """After every batch the dual codes are strictly ascending (so the
        per-batch merge never repeats a code), every value is positive, and
        every code is an edge of the current graph."""
        cols = columns(data.draw(bulk_path_sequences(graph)))
        batch = data.draw(st.sampled_from([1, 4, max(1, len(cols))]))
        m = IncrementalCoverMaintainer(DynamicGraph(graph, min_compact=3))
        if graph.m:
            m.adopt(minimum_weight_vertex_cover(graph, eps=EPS, seed=SEED))
        for i in range(0, len(cols), batch):
            m.apply_batch(cols[i : i + batch])
            state = m.export_state()
            codes, values = state["dual_codes"], state["dual_values"]
            assert (np.diff(codes) > 0).all()
            assert (values > 0).all()
            assert m.dyn.has_codes(codes).all()

    @pytest.mark.parametrize("ties", [False, True], ids=["floats", "ties"])
    @settings(max_examples=profile_examples(40), deadline=None)
    @given(data=st.data())
    def test_retiring_duals_below_zero_clamps_like_the_loop(self, data, ties):
        """Loads and the dual total shrunk under the duals they carry, so
        deleting dual-carrying edges drives them below zero and the clamp
        fires: the bulk retirement, clamped once at the end, still equals
        the edge-at-a-time loop that clamps after every step.  With
        ``ties`` the weights and the shrink factor are dyadic, so exact
        ``x − x = 0.0`` steps are common."""
        graph = data.draw(weighted_graphs(min_n=3, max_n=14, ties=ties))
        if not graph.m:
            return
        shrink = data.draw(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) if ties else st.floats(0.0, 1.0)
        )
        solved = IncrementalCoverMaintainer(DynamicGraph(graph))
        solved.adopt(minimum_weight_vertex_cover(graph, eps=EPS, seed=SEED))
        state = solved.export_state()
        state["loads"] = state["loads"] * shrink
        state["dual_value"] = state["dual_value"] * shrink
        codes = data.draw(st.permutations(state["dual_codes"].tolist()))
        du, dv = decode_edge_codes(codes[: len(codes) // 2 + 1])
        deletes = [EdgeDelete(u, v) for u, v in zip(du.tolist(), dv.tolist())]
        batch = deletes + data.draw(bulk_path_sequences(graph, max_chunks=4))
        pair = [
            cls.from_state(DynamicGraph(graph), state)
            for cls in (IncrementalCoverMaintainer, ReferenceMaintainer)
        ]
        reports = [m.apply_batch(columns(batch)) for m in pair]
        assert reports[0].to_dict() == reports[1].to_dict()
        _assert_same_maintainer_state(*pair)

    def test_clamped_retirement_example(self):
        """One fixed case where the clamp fires on a load and on the total."""
        graph = WeightedGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)], [1.0] * 4)
        state = {
            "cover": np.array([False, True, True, False]),
            "loads": np.array([0.25, 0.5, 0.9, 0.75]),
            "dual_codes": encode_edge_codes([0, 1, 2], [1, 2, 3]),
            "dual_values": np.array([0.5, 0.25, 0.75]),
            "dual_value": 1.0,
            "base_ratio": None,
            "batches_applied": 0,
        }
        batch = [EdgeDelete(0, 1), EdgeDelete(2, 3), EdgeDelete(1, 2)]
        pair = [
            cls.from_state(DynamicGraph(graph), state)
            for cls in (IncrementalCoverMaintainer, ReferenceMaintainer)
        ]
        reports = [m.apply_batch(columns(batch)) for m in pair]
        assert reports[0].to_dict() == reports[1].to_dict()
        _assert_same_maintainer_state(*pair)
        vec = pair[0]
        # 0.25 - 0.5 clamps at 0; 0.9 - 0.75 - 0.25 clamps at 0; the total
        # 1.0 - 0.5 - 0.75 clamps at 0 before the last 0.25 is retired.
        assert vec._loads.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert vec.dual_value == 0.0
        assert reports[0].retired_dual == 1.5


#: Weights at the ends of the float range: subnormal, the smallest normal,
#: and near ``float max`` (whose loads may overflow to ``+inf``).
EXTREME_WEIGHTS = [5e-324, 1e-310, 2.2250738585072014e-308, 1.7e308, 6e307]


def _repair_matches_reference(dyn, keys, *, weights, cover, loads, dual_value):
    """Run the reference loop over ``keys`` and the kernel over the
    present ones, assert they agree bit for bit; returns the kernel's
    cover."""
    ref_cover, ref_loads, ref_duals, ref_entered = cover.copy(), loads.copy(), {}, set()
    ref = reference_pricing_repair_pass(
        keys,
        weights=weights,
        cover=ref_cover,
        loads=ref_loads,
        duals=ref_duals,
        entered=ref_entered,
        dual_value=dual_value,
        has_edge=lambda u, v: has_edge(dyn, u, v),
    )
    codes = encode_edge_codes(*np.array(keys, dtype=np.int64).reshape(-1, 2).T)
    vec_cover, vec_loads = cover.copy(), loads.copy()
    vec = pricing_repair_pass(
        codes[dyn.has_codes(codes)],
        weights=weights,
        cover=vec_cover,
        loads=vec_loads,
        dual_value=dual_value,
    )
    assert vec.repaired == ref.repaired
    assert vec.entered == ref.entered == len(ref_entered)
    assert vec.dual_value == ref.dual_value
    assert np.array_equal(vec_cover, ref_cover)
    assert np.array_equal(vec_loads, ref_loads)
    assert (np.diff(vec.paid_codes) > 0).all(), "paid codes not ascending"
    # The total grew by the pays in processing order.
    assert np.add.accumulate(np.r_[dual_value, vec.pays])[-1] == vec.dual_value
    assert dict(zip(vec.paid_codes.tolist(), vec.pays.tolist())) == ref_duals
    return vec_cover


class TestBareKernels:
    @pytest.mark.parametrize("ties", [False, True], ids=["floats", "ties"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pricing_repair_pass_matches_reference(self, data, ties):
        """The reference loop gets the graph's edges and some absent
        pairs, and skips the absent ones itself; the kernel gets the
        present codes only, as the maintainer passes them.  With ``ties``
        the loads are quarter multiples of tie-prone weights, so equal
        residuals and exhausted ones are common."""
        graph = data.draw(weighted_graphs(min_n=2, max_n=20, ties=ties))
        n = graph.n
        weights = np.asarray(graph.weights)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        cover = rng.random(n) < data.draw(st.floats(0.0, 0.9))
        if ties:
            loads = weights * rng.integers(0, 5, n) / 4.0
        else:
            loads = rng.random(n) * weights
        extra = rng.integers(0, n, size=(data.draw(st.integers(0, n)), 2))
        keys = sorted(
            {(int(u), int(v)) for u, v in zip(graph.edges_u, graph.edges_v)}
            | {(int(min(p)), int(max(p))) for p in extra.tolist() if p[0] != p[1]}
        )
        _repair_matches_reference(
            DynamicGraph(graph),
            keys,
            weights=weights,
            cover=cover,
            loads=loads,
            dual_value=0.25,
        )

    @pytest.mark.parametrize("ties", [False, True], ids=["floats", "ties"])
    @settings(max_examples=profile_examples(60), deadline=None)
    @given(data=st.data())
    def test_pricing_repair_covers_every_edge_with_loads_past_the_weights(
        self, data, ties
    ):
        """Loads drawn up to 1.5·w, so many residuals start ≤ 0, and some
        weights at the ends of the float range: the pricing rule alone
        leaves every edge it processes covered (the kernel has no other
        way to cover one), and the kernel still equals the reference
        loop."""
        graph = data.draw(weighted_graphs(min_n=2, max_n=20, ties=ties))
        n = graph.n
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        weights = np.array(graph.weights)
        extreme = data.draw(st.lists(st.sampled_from(EXTREME_WEIGHTS), max_size=n))
        weights[rng.permutation(n)[: len(extreme)]] = extreme
        graph = graph.with_weights(weights)
        cover = rng.random(n) < data.draw(st.floats(0.0, 0.5))
        keys = list(zip(graph.edges_u.tolist(), graph.edges_v.tolist()))
        with np.errstate(over="ignore"):
            if ties:
                loads = weights * (rng.integers(0, 7, n) / 4.0)
            else:
                loads = weights * rng.uniform(0.0, 1.5, n)
            vec_cover = _repair_matches_reference(
                DynamicGraph(graph),
                keys,
                weights=weights,
                cover=cover,
                loads=loads,
                dual_value=0.0,
            )
        assert (vec_cover[graph.edges_u] | vec_cover[graph.edges_v]).all()

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

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        graph=weighted_graphs(min_n=1, max_n=20),
        isolated=st.integers(0, 3),
        tied=st.booleans(),
        override=st.booleans(),
    )
    def test_prune_redundant_vertices_matches_reference(
        self, data, graph, isolated, tied, override
    ):
        n = graph.n + isolated
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        weights = np.concatenate([graph.weights, rng.uniform(0.1, 100.0, isolated)])
        if tied:
            weights = rng.integers(1, 4, n).astype(np.float64)
        g = WeightedGraph(n, graph.edges_u, graph.edges_v, weights)
        # A valid cover that keeps every isolated vertex, with random drops.
        cover = np.ones(n, dtype=bool)
        for v in np.nonzero(rng.random(graph.n) < 0.3)[0]:
            if cover[g.neighbors(int(v))].all():
                cover[v] = False
        effective = rng.uniform(0.1, 100.0, n) if override else g.weights
        if tied and override:
            effective = rng.integers(1, 4, n).astype(np.float64)

        pruned = prune_redundant_vertices(
            g, cover, weights=effective if override else None
        )
        ref_cover = cover.copy()
        reference_greedy_prune_pass(
            range(n),
            weights=effective,
            cover=ref_cover,
            graph=DynamicGraph(g),
        )
        assert np.array_equal(pruned, ref_cover)
