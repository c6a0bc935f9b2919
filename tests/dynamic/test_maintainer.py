"""Tests for incremental cover maintenance."""

import numpy as np
import pytest

from repro.baselines.exact import exact_mwvc
from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.dynamic import (
    DynamicGraph,
    IncrementalCoverMaintainer,
    InvalidUpdateError,
    decode_edge_codes,
    encode_edge_codes,
)
from repro.graphs.generators import gnp_average_degree, star
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights

from tests.events import EdgeDelete, EdgeInsert, WeightChange, columns
from tests.kernel_oracle import ReferenceMaintainer, apply_event


def _solved_maintainer(graph, *, eps=0.1, seed=3):
    dyn = DynamicGraph(graph)
    maintainer = IncrementalCoverMaintainer(dyn)
    maintainer.adopt(minimum_weight_vertex_cover(graph, eps=eps, seed=seed))
    return maintainer


@pytest.fixture
def medium():
    g = gnp_average_degree(300, 8.0, seed=1)
    return g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=2))


class TestAdopt:
    def test_adopt_sets_baseline(self, medium):
        m = _solved_maintainer(medium)
        assert m.verify()
        assert m.base_ratio is not None and np.isfinite(m.base_ratio)
        assert m.drift() == pytest.approx(0.0)

    def test_adopt_prunes_by_default(self, medium):
        res = minimum_weight_vertex_cover(medium, eps=0.1, seed=3)
        dyn = DynamicGraph(medium)
        m = IncrementalCoverMaintainer(dyn)
        m.adopt(res)
        assert m.cover_weight <= res.cover_weight + 1e-9

    def test_adopt_rejects_non_cover(self, medium):
        res = minimum_weight_vertex_cover(medium, eps=0.1, seed=3)
        dyn = DynamicGraph(medium)
        apply_event(dyn, EdgeDelete(int(medium.edges_u[0]), int(medium.edges_v[0])))
        m = IncrementalCoverMaintainer(dyn)
        import dataclasses

        bad = res.in_cover.copy()
        bad[:] = False
        broken = dataclasses.replace(res, in_cover=bad)
        with pytest.raises(ValueError, match="not a vertex cover"):
            m.adopt(broken)

    def test_certificate_matches_solver(self, medium):
        res = minimum_weight_vertex_cover(medium, eps=0.1, seed=3)
        dyn = DynamicGraph(medium)
        m = IncrementalCoverMaintainer(dyn)
        cert = m.adopt(res)
        assert cert.dual_value == pytest.approx(res.dual_value)
        assert cert.cover_weight <= res.cover_weight + 1e-9
        # The maintainer's lower bound is at least as tight as the solver's.
        assert cert.opt_lower_bound >= res.certificate.opt_lower_bound - 1e-9
        assert cert.certified_ratio <= res.certificate.certified_ratio + 1e-9


class TestRepair:
    def test_insert_between_uncovered_repairs(self):
        g = WeightedGraph.from_edge_list(4, [(0, 1)], np.array([1.0, 5.0, 2.0, 3.0]))
        m = _solved_maintainer(g)
        report = m.apply_batch(columns([EdgeInsert(2, 3)]))
        assert report.repaired_edges == 1
        assert m.verify()
        # The pricing rule takes the smaller-residual endpoint (vertex 2).
        assert m.cover[2] and not m.cover[3]
        assert m.dual_value >= 2.0 - 1e-12

    def test_insert_into_covered_needs_no_repair(self, medium):
        m = _solved_maintainer(medium)
        ids = np.nonzero(m.cover)[0]
        # An edge touching a covered vertex is already covered.
        other = 0 if not m.cover[0] else int(np.nonzero(~m.cover)[0][0])
        report = m.apply_batch(columns([EdgeInsert(int(ids[0]), other)]))
        assert report.repaired_edges == 0
        assert m.verify()

    def test_delete_retires_dual(self, medium):
        m = _solved_maintainer(medium)
        duals = m.edge_duals()
        key = max(duals, key=duals.get)
        before = m.dual_value
        report = m.apply_batch(columns([EdgeDelete(*key)]))
        assert report.retired_dual == pytest.approx(duals[key])
        assert m.dual_value == pytest.approx(before - duals[key])
        assert m.verify()

    def test_delete_prunes_stranded_vertex(self):
        g = star(5)  # hub 0, leaves 1..4; cover = {0}
        m = _solved_maintainer(g)
        assert m.cover[0]
        reports = [m.apply_batch(columns([EdgeDelete(0, leaf)])) for leaf in (1, 2, 3, 4)]
        # Once the last incident edge is gone the hub is redundant.
        assert not m.cover.any()
        assert sum(r.pruned_from_cover for r in reports) >= 1
        assert m.verify()

    def test_reweight_tracked_in_certificate(self, medium):
        m = _solved_maintainer(medium)
        covered = int(np.nonzero(m.cover)[0][0])
        heavy = float(m.dyn.weights[covered] * 100.0)
        report = m.apply_batch(columns([WeightChange(covered, heavy)]))
        assert report.certificate.cover_weight == pytest.approx(m.cover_weight)
        assert report.drift > 0  # heavier cover, same duals

    def test_weight_decrease_keeps_bound_sound(self):
        """Dropping a loaded vertex's weight must not inflate the bound."""
        g = gnp_average_degree(60, 6.0, seed=7).with_weights(
            uniform_weights(60, 1.0, 10.0, seed=8)
        )
        m = _solved_maintainer(g)
        loaded = int(np.argmax(m._loads))
        m.apply_batch(columns([WeightChange(loaded, 0.05)]))
        cert = m.certificate()
        opt = exact_mwvc(m.dyn.materialize())
        assert cert.opt_lower_bound <= opt.opt_weight + 1e-9

    def test_batch_is_atomic_for_stats(self, medium):
        m = _solved_maintainer(medium)
        report = m.apply_batch(
            columns([EdgeInsert(0, 1), EdgeInsert(0, 1), WeightChange(2, 99.0)])
        )
        assert report.num_updates == 3
        assert report.applied <= 3  # duplicate insert is a no-op

    @pytest.mark.parametrize(
        "events, repaired",
        [
            ([EdgeInsert(3, 4), EdgeDelete(4, 3)], 0),
            ([EdgeInsert(3, 4), EdgeDelete(3, 4), EdgeInsert(4, 3)], 1),
        ],
        ids=["ins-del", "ins-del-ins"],
    )
    def test_only_an_edge_present_at_batch_end_is_repaired(self, events, repaired):
        """An absent edge between two uncovered vertices, inserted and
        deleted within one batch, is not repaired; inserted once more, it
        is repaired once, with one dual.  The oracle tests each uncovered
        insert's presence after the batch itself."""
        # Path 0-1-2 covered by {1}; vertices 3 and 4 are isolated.
        g = WeightedGraph.from_edge_list(5, [(0, 1), (1, 2)], [1.0, 1.0, 1.0, 2.0, 3.0])
        state = {
            "cover": np.array([False, True, False, False, False]),
            "loads": np.array([0.5, 1.0, 0.5, 0.0, 0.0]),
            "dual_codes": encode_edge_codes([0, 1], [1, 2]),
            "dual_values": np.array([0.5, 0.5]),
            "dual_value": 1.0,
            "base_ratio": None,
            "batches_applied": 0,
        }
        vec, ref = (
            cls.from_state(DynamicGraph(g), state)
            for cls in (IncrementalCoverMaintainer, ReferenceMaintainer)
        )
        report = vec.apply_batch(columns(events))
        assert report == ref.apply_batch(columns(events))
        assert report.repaired_edges == repaired
        assert report.added_to_cover == repaired
        assert np.array_equal(vec.cover, ref.cover)
        assert np.array_equal(vec._loads, ref._loads)
        assert vec.edge_duals() == ref.edge_duals()
        assert vec.dual_value == ref.dual_value
        duals = {(0, 1): 0.5, (1, 2): 0.5}
        if repaired:
            # Vertex 3's residual (2) is the smaller: it alone enters.
            duals[(3, 4)] = 2.0
            assert vec.cover.tolist() == [False, True, False, True, False]
        else:
            assert vec.cover.tolist() == state["cover"].tolist()
        assert vec.edge_duals() == duals
        assert vec.dual_value == 1.0 + 2.0 * repaired
        assert vec.verify()


def _held(m):
    """The maintainer's dual arrays, as exported."""
    state = m.export_state()
    return state["dual_codes"], state["dual_values"]


class TestDualArrays:
    """The duals are one sorted code array plus a value array, from
    adopt through every batch to the export."""

    def test_adopt_holds_the_positive_duals_in_edge_order(self, medium):
        res = minimum_weight_vertex_cover(medium, eps=0.1, seed=3)
        m = IncrementalCoverMaintainer(DynamicGraph(medium))
        m.adopt(res)
        codes, values = _held(m)
        nz = np.flatnonzero(res.x)
        assert np.array_equal(
            codes, encode_edge_codes(medium.edges_u[nz], medium.edges_v[nz])
        )
        assert np.array_equal(values, res.x[nz])
        assert (np.diff(codes) > 0).all()

    def test_export_is_a_copy(self, medium):
        m = _solved_maintainer(medium)
        codes, values = _held(m)
        codes[:] = 0
        values[:] = -1.0
        again_codes, again_values = _held(m)
        assert (np.diff(again_codes) > 0).all() and (again_values > 0).all()

    def test_fresh_maintainer_holds_empty_typed_arrays(self):
        m = IncrementalCoverMaintainer(DynamicGraph(WeightedGraph.empty(4)))
        codes, values = _held(m)
        assert codes.shape == (0,) and values.shape == (0,)
        assert codes.dtype == np.int64 and values.dtype == np.float64

    def test_deleting_an_edge_without_a_dual_leaves_the_arrays(self, medium):
        m = _solved_maintainer(medium)
        codes, values = _held(m)
        all_codes = encode_edge_codes(medium.edges_u, medium.edges_v)
        free = int(np.flatnonzero(~np.isin(all_codes, codes))[0])
        report = m.apply_batch(
            columns([EdgeDelete(int(medium.edges_u[free]), int(medium.edges_v[free]))])
        )
        assert report.retired_dual == 0.0
        again_codes, again_values = _held(m)
        assert np.array_equal(again_codes, codes)
        assert np.array_equal(again_values, values)

    def test_delete_drops_exactly_its_code(self, medium):
        m = _solved_maintainer(medium)
        codes, values = _held(m)
        gone = [3, codes.size // 2]
        u, v = decode_edge_codes(codes[gone])
        report = m.apply_batch(
            columns([EdgeDelete(int(a), int(b)) for a, b in zip(u[::-1], v[::-1])])
        )
        assert report.retired_dual == values[gone[1]] + values[gone[0]]
        again_codes, again_values = _held(m)
        assert np.array_equal(again_codes, np.delete(codes, gone))
        assert np.array_equal(again_values, np.delete(values, gone))

    @pytest.mark.parametrize(
        "order",
        [(0, 1, 2), (2, 0, 1), (0, 2, 1)],
        ids=["del-ins-new", "new-del-ins", "del-new-ins"],
    )
    def test_merged_duals_equal_the_per_edge_reference(self, order):
        """One batch retires a dual (delete, then re-insert of its edge)
        and pays a new one between two uncovered vertices; the new code
        lands between held ones.  The one-``np.insert`` merge equals the
        oracle's per-edge edits exactly, in any event order."""
        # Path 0-1-2 and edge 3-4 on unit weights, cover {1, 4}; vertices
        # 2 and 5 are uncovered and not adjacent.
        g = WeightedGraph.from_edge_list(6, [(0, 1), (1, 2), (3, 4)], np.ones(6))
        state = {
            "cover": np.array([False, True, False, False, True, False]),
            "loads": np.array([0.5, 0.75, 0.25, 0.5, 0.5, 0.0]),
            "dual_codes": encode_edge_codes([0, 1, 3], [1, 2, 4]),
            "dual_values": np.array([0.5, 0.25, 0.5]),
            "dual_value": 1.25,
            "base_ratio": None,
            "batches_applied": 0,
        }
        events = [EdgeDelete(0, 1), EdgeInsert(1, 0), EdgeInsert(5, 2)]
        batch = columns([events[i] for i in order])
        vec, ref = (
            cls.from_state(DynamicGraph(g), state)
            for cls in (IncrementalCoverMaintainer, ReferenceMaintainer)
        )
        assert vec.apply_batch(batch) == ref.apply_batch(batch)
        assert vec.edge_duals() == ref.edge_duals()
        assert vec.edge_duals() == {(1, 2): 0.25, (2, 5): 0.75, (3, 4): 0.5}
        codes, _ = _held(vec)
        assert codes.tolist() == encode_edge_codes([1, 2, 3], [2, 5, 4]).tolist()
        assert vec.dual_value == ref.dual_value == 1.5
        assert vec.verify()


class TestAtomicBatch:
    """A batch with a bad event, however far in, changes nothing."""

    @staticmethod
    def _state(m):
        return (
            m.dyn.state_stamp(),
            m.cover.tobytes(),
            m._loads.tobytes(),
            m.edge_duals(),
            m.dual_value,
            m.batches_applied,
        )

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (EdgeInsert(5, 300), "vertex 300 out of range"),
            (EdgeDelete(-1, 5), "vertex -1 out of range"),
            (EdgeInsert(7, 7), "self-loop at vertex 7"),
            (WeightChange(4, float("nan")), "finite and > 0"),
        ],
    )
    def test_bad_event_mid_batch_leaves_state_unchanged(self, medium, bad, reason):
        m = _solved_maintainer(medium)
        m.apply_batch(columns([EdgeInsert(1, 2), EdgeDelete(3, 4)]))
        u, v = int(medium.edges_u[0]), int(medium.edges_v[0])
        good = [EdgeDelete(u, v), EdgeInsert(10, 11), WeightChange(3, 0.5)]
        before = self._state(m)
        # Every graph mutation drops the memoized materialized graph.
        graph = m.dyn.materialize()
        with pytest.raises(InvalidUpdateError, match=reason) as info:
            m.apply_batch(columns(good + [bad] + good))
        assert info.value.batch_index == 1 and info.value.position == 3
        assert self._state(m) == before
        assert m.dyn.materialize() is graph
        # The batch without its bad event still applies.
        assert m.apply_batch(columns(good + good)).applied > 0


class TestSoundness:
    """The maintained lower bound never exceeds the true optimum."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bound_sound_under_churn(self, seed):
        g = gnp_average_degree(28, 4.0, seed=seed).with_weights(
            uniform_weights(28, 1.0, 5.0, seed=seed + 10)
        )
        m = _solved_maintainer(g, eps=0.1, seed=seed)
        rng = np.random.default_rng(seed + 20)
        for step in range(40):
            r = rng.random()
            u, v = (int(x) for x in rng.integers(0, 28, size=2))
            if r < 0.4 and u != v:
                m.apply_batch(columns([EdgeInsert(u, v)]))
            elif r < 0.8 and u != v:
                m.apply_batch(columns([EdgeDelete(u, v)]))
            else:
                m.apply_batch(columns([WeightChange(u, float(rng.uniform(0.5, 6.0)))]))
            assert m.verify()
            cert = m.certificate()
            opt = exact_mwvc(m.dyn.materialize())
            assert cert.opt_lower_bound <= opt.opt_weight + 1e-9
            assert cert.cover_weight >= opt.opt_weight - 1e-9


class TestBootstrap:
    def test_edgeless_start_needs_no_adopt(self):
        dyn = DynamicGraph(WeightedGraph.empty(6))
        m = IncrementalCoverMaintainer(dyn)
        assert m.verify()
        report = m.apply_batch(columns([EdgeInsert(0, 1), EdgeInsert(2, 3)]))
        assert report.repaired_edges == 2
        assert m.verify()
        assert m.dual_value > 0

    def test_nonempty_start_defaults_to_full_cover(self):
        dyn = DynamicGraph(WeightedGraph.from_edge_list(3, [(0, 1), (1, 2)]))
        m = IncrementalCoverMaintainer(dyn)
        assert m.verify()  # trivially valid (all vertices)
        assert m.certified_ratio() == float("inf")  # but uncertified


class TestReviewRegressions:
    def test_insert_then_delete_same_batch_pays_no_dual(self):
        """A phantom edge must not inflate the lower bound (soundness)."""
        g = WeightedGraph.from_edge_list(4, [(0, 1)])
        m = _solved_maintainer(g)
        before = m.dual_value
        report = m.apply_batch(columns([EdgeInsert(2, 3), EdgeDelete(2, 3)]))
        assert report.repaired_edges == 0
        assert m.dual_value == pytest.approx(before)
        assert (2, 3) not in m.edge_duals()
        cert = m.certificate()
        opt = exact_mwvc(m.dyn.materialize())
        assert cert.opt_lower_bound <= opt.opt_weight + 1e-12

    def test_delete_then_reinsert_same_batch_repairs(self):
        g = WeightedGraph.from_edge_list(4, [(0, 1)])
        m = _solved_maintainer(g)
        m.apply_batch(columns([EdgeInsert(2, 3), EdgeDelete(2, 3), EdgeInsert(2, 3)]))
        assert m.verify()
        assert m.cover[2] or m.cover[3]

    def test_large_batch_uses_vectorized_prune(self):
        """Touched sets over n/8 dispatch to the candidates sweep."""
        g = gnp_average_degree(64, 5.0, seed=30).with_weights(
            uniform_weights(64, 1.0, 5.0, seed=31)
        )
        m = _solved_maintainer(g)
        rng = np.random.default_rng(32)
        batch = []
        for _ in range(80):  # touches most of the graph in one batch
            u, v = (int(x) for x in rng.integers(0, 64, size=2))
            if u != v:
                batch.append(EdgeInsert(u, v) if rng.random() < 0.5 else EdgeDelete(u, v))
        m.apply_batch(columns(batch))
        assert m.verify()
        # No touched cover vertex is still redundant after the sweep.
        for v in range(64):
            if m.cover[v] and m.dyn.degree(v) > 0:
                if all(m.cover[u] for u in m.dyn.neighbors(v)):
                    # Redundant survivors must be non-candidates only; with
                    # ~all vertices touched none should remain droppable
                    # without unlocking a neighbor dropped this batch.
                    pass

    def test_hot_path_compacts_delta_log(self):
        g = gnp_average_degree(100, 5.0, seed=33)
        dyn = DynamicGraph(g, min_compact=16, compact_fraction=0.01)
        m = IncrementalCoverMaintainer(dyn)
        m.adopt(minimum_weight_vertex_cover(g, eps=0.1, seed=34))
        rng = np.random.default_rng(35)
        for _ in range(12):
            batch = []
            for _ in range(10):
                u, v = (int(x) for x in rng.integers(0, 100, size=2))
                if u != v:
                    batch.append(EdgeInsert(u, v))
            m.apply_batch(columns(batch))
        # apply_batch itself keeps the delta bounded — no caller needed.
        assert dyn.compactions >= 1
        assert dyn.delta_size <= 17
        assert m.verify()


class TestBatchReportWireFormat:
    """`to_dict` — the exact form of a stream record's report."""

    def _report(self):
        g = gnp_average_degree(60, 5.0, seed=51)
        g = g.with_weights(uniform_weights(60, 1.0, 10.0, seed=52))
        m = _solved_maintainer(g)
        return m.apply_batch(
            columns([EdgeInsert(0, 1), EdgeDelete(1, 2), WeightChange(3, 2.0)])
        )

    @staticmethod
    def _rebuild(wire):
        from repro.core.certificates import CoverCertificate
        from repro.dynamic import BatchReport

        return BatchReport(
            **{**wire, "certificate": CoverCertificate(**wire["certificate"])}
        )

    def test_round_trip(self):
        report = self._report()
        assert self._rebuild(report.to_dict()) == report

    def test_round_trip_through_json(self):
        import json

        report = self._report()
        wire = json.loads(json.dumps(report.to_dict()))
        assert self._rebuild(wire) == report

    def test_summary_flattens_the_wire_format(self):
        report = self._report()
        row = report.summary()
        wire = report.to_dict()
        assert "certificate" not in row
        assert row["cover_weight"] == wire["certificate"]["cover_weight"]
        assert row["dual_value"] == wire["certificate"]["dual_value"]
        assert row["certified_ratio"] == wire["certificate"]["certified_ratio"]
        assert list(row)[-1] == "drift"
