"""Tests for the delta-log graph wrapper."""

import numpy as np
import pytest

from repro.dynamic.duals import encode_edge_codes
from repro.dynamic.dynamic_graph import DynamicGraph
from repro.graphs.generators import gnp_average_degree
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights

from tests.events import EdgeDelete, EdgeInsert, WeightChange
from tests.kernel_oracle import apply_event, has_edge


def _codes(pairs):
    return np.array([(u << 32) | v for u, v in pairs], dtype=np.int64)


@pytest.fixture
def dyn_path4():
    """Path 0-1-2-3 wrapped in a DynamicGraph."""
    return DynamicGraph(WeightedGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))


class TestBaseCSR:
    def test_shares_the_snapshot_csr(self, small_random):
        dyn = DynamicGraph(small_random)
        assert dyn._adj is small_random.adj_vertices
        assert dyn._indptr is small_random.indptr
        assert not dyn._adj.flags.writeable

    def test_slot_maps_point_at_each_edges_directed_entries(self, small_random):
        g = small_random
        dyn = DynamicGraph(g)
        heads = np.repeat(np.arange(g.n), np.diff(g.indptr))
        # Slot of (v -> u) and of (u -> v) for every canonical edge (u, v).
        assert np.array_equal(heads[dyn._slot_vu], g.edges_v)
        assert np.array_equal(dyn._adj[dyn._slot_vu], g.edges_u)
        assert np.array_equal(heads[dyn._slot_uv], g.edges_u)
        assert np.array_equal(dyn._adj[dyn._slot_uv], g.edges_v)
        slots = np.concatenate([dyn._slot_vu, dyn._slot_uv])
        assert np.array_equal(np.sort(slots), np.arange(2 * g.m))

    def test_compaction_shares_the_new_snapshots_csr(self, small_random):
        dyn = DynamicGraph(small_random)
        v = next(x for x in range(1, small_random.n) if not has_edge(dyn, 0, x))
        apply_event(dyn, EdgeInsert(0, v))
        base = dyn.compact()
        assert base is not small_random
        assert dyn._adj is base.adj_vertices


class TestApply:
    def test_insert_new_edge(self, dyn_path4):
        assert apply_event(dyn_path4, EdgeInsert(0, 3))
        assert has_edge(dyn_path4, 0, 3)
        assert dyn_path4.m == 4

    def test_insert_existing_is_noop(self, dyn_path4):
        assert not apply_event(dyn_path4, EdgeInsert(0, 1))
        assert not apply_event(dyn_path4, EdgeInsert(1, 0))  # orientation-free
        assert dyn_path4.m == 3

    def test_delete_existing(self, dyn_path4):
        assert apply_event(dyn_path4, EdgeDelete(1, 2))
        assert not has_edge(dyn_path4, 1, 2)
        assert dyn_path4.m == 2

    def test_delete_absent_is_noop(self, dyn_path4):
        assert not apply_event(dyn_path4, EdgeDelete(0, 3))
        assert dyn_path4.m == 3

    def test_reinsert_deleted_base_edge(self, dyn_path4):
        apply_event(dyn_path4, EdgeDelete(0, 1))
        assert apply_event(dyn_path4, EdgeInsert(0, 1))
        assert has_edge(dyn_path4, 0, 1)
        assert dyn_path4.m == 3
        assert dyn_path4.delta_size == 0  # cancelled out

    def test_delete_freshly_added_edge(self, dyn_path4):
        apply_event(dyn_path4, EdgeInsert(0, 2))
        assert apply_event(dyn_path4, EdgeDelete(0, 2))
        assert dyn_path4.delta_size == 0

    def test_reweight(self, dyn_path4):
        assert apply_event(dyn_path4, WeightChange(1, 4.0))
        assert dyn_path4.weights[1] == 4.0

    def test_reweight_same_value_is_noop(self, dyn_path4):
        assert not apply_event(dyn_path4, WeightChange(1, 1.0))

    def test_self_loop_rejected(self, dyn_path4):
        with pytest.raises(ValueError, match="self-loop"):
            apply_event(dyn_path4, EdgeInsert(2, 2))

    def test_out_of_range_rejected(self, dyn_path4):
        with pytest.raises(ValueError, match="out of range"):
            apply_event(dyn_path4, EdgeInsert(0, 9))

    def test_bad_weight_rejected(self, dyn_path4):
        with pytest.raises(ValueError, match="> 0"):
            apply_event(dyn_path4, WeightChange(0, -1.0))

    def test_only_effective_updates_drop_the_materialized_graph(self, dyn_path4):
        g0 = dyn_path4.materialize()
        apply_event(dyn_path4, EdgeInsert(0, 1))  # no-op
        assert dyn_path4.materialize() is g0
        apply_event(dyn_path4, EdgeInsert(0, 2))
        assert dyn_path4.materialize() is not g0


class TestQueries:
    def test_neighbors_reflect_delta(self, dyn_path4):
        apply_event(dyn_path4, EdgeDelete(1, 2))
        apply_event(dyn_path4, EdgeInsert(1, 3))
        assert set(dyn_path4.neighbors(1).tolist()) == {0, 3}

    def test_neighbors_is_a_flat_int_array(self, dyn_path4):
        neigh = dyn_path4.neighbors(1)
        assert isinstance(neigh, np.ndarray)
        assert neigh.dtype == np.int64
        assert set(neigh.tolist()) == {0, 2}

    def test_degree_reflects_delta(self, dyn_path4):
        assert dyn_path4.degree(1) == 2
        apply_event(dyn_path4, EdgeInsert(1, 3))
        assert dyn_path4.degree(1) == 3
        apply_event(dyn_path4, EdgeDelete(0, 1))
        assert dyn_path4.degree(1) == 2

    def test_degrees_of_matches_degree(self, dyn_path4):
        apply_event(dyn_path4, EdgeInsert(0, 3))
        ids = np.arange(4)
        expect = [dyn_path4.degree(v) for v in range(4)]
        assert dyn_path4.degrees_of(ids).tolist() == expect

    def test_has_codes_matches_has_edge(self, dyn_path4):
        apply_event(dyn_path4, EdgeDelete(1, 2))
        apply_event(dyn_path4, EdgeInsert(0, 3))
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
        got = dyn_path4.has_codes(_codes(pairs))
        assert got.tolist() == [has_edge(dyn_path4, u, v) for u, v in pairs]

    def test_neighbors_match_materialized(self):
        base = gnp_average_degree(60, 5.0, seed=0)
        dyn = DynamicGraph(base)
        rng = np.random.default_rng(1)
        for _ in range(120):
            u, v = rng.integers(0, 60, size=2)
            if u == v:
                continue
            if rng.random() < 0.5:
                apply_event(dyn, EdgeInsert(int(u), int(v)))
            else:
                apply_event(dyn, EdgeDelete(int(u), int(v)))
        mat = dyn.materialize()
        for v in range(60):
            assert set(dyn.neighbors(v).tolist()) == set(
                int(x) for x in mat.neighbors(v)
            )
            assert dyn.degree(v) == int(mat.degrees[v])
        assert dyn.has_codes(encode_edge_codes(mat.edges_u, mat.edges_v)).all()
        assert dyn.degrees_of(np.arange(60)).tolist() == mat.degrees.tolist()


class TestArrayState:
    """The flat arrays behind the queries."""

    def test_base_csr_rows_ascend_and_slots_point_at_their_edges(self):
        base = gnp_average_degree(70, 6.0, seed=7)
        dyn = DynamicGraph(base)
        indptr, adj = dyn._indptr, dyn._adj
        for v in range(base.n):
            row = adj[indptr[v] : indptr[v + 1]]
            assert (np.diff(row) > 0).all(), f"row {v} is not ascending"
            assert sorted(row.tolist()) == sorted(base.neighbors(v).tolist())
        heads = np.repeat(np.arange(base.n), np.diff(indptr))
        u, v = base.edges_u, base.edges_v
        assert (heads[dyn._slot_uv] == u).all() and (adj[dyn._slot_uv] == v).all()
        assert (heads[dyn._slot_vu] == v).all() and (adj[dyn._slot_vu] == u).all()
        both = np.concatenate([dyn._slot_uv, dyn._slot_vu])
        assert sorted(both.tolist()) == list(range(2 * base.m))

    def test_set_presence_inserts_and_deletes_in_bulk(self, dyn_path4):
        g0 = dyn_path4.materialize()
        # (0, 1) stays present, (1, 3) stays absent: neither flips.
        codes = _codes([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        was = dyn_path4.set_presence(codes, np.array([True, True, True, False, False]))
        assert was.tolist() == [True, False, False, True, False]
        assert dyn_path4.materialize() is not g0
        assert dyn_path4.edge_codes().tolist() == _codes(
            [(0, 1), (0, 2), (0, 3), (2, 3)]
        ).tolist()
        assert dyn_path4.degrees_of(np.arange(4)).tolist() == [3, 1, 2, 2]
        assert dyn_path4.m == 4 and dyn_path4.delta_size == 3
        assert sorted(dyn_path4.neighbors(0).tolist()) == [1, 2, 3]
        was = dyn_path4.set_presence(
            _codes([(0, 2), (0, 3), (1, 2)]), np.array([False, False, True])
        )
        assert was.tolist() == [True, True, False]
        assert dyn_path4.delta_size == 0
        assert dyn_path4.materialize() == dyn_path4.base
        assert dyn_path4._added.size == dyn_path4._added_dir.size == 0

    def test_set_presence_without_a_flip_changes_nothing(self, dyn_path4):
        apply_event(dyn_path4, EdgeInsert(0, 2))
        g0 = dyn_path4.materialize()
        codes = _codes([(0, 1), (0, 2), (0, 3)])
        was = dyn_path4.set_presence(codes, np.array([True, True, False]))
        assert was.tolist() == [True, True, False]
        assert dyn_path4.materialize() is g0
        assert dyn_path4.set_presence(codes[:0], np.empty(0, dtype=bool)).shape == (0,)

    def test_set_presence_keeps_the_added_arrays_sorted(self):
        """One call removes some added edges and inserts others between
        the ones it keeps; both added arrays stay exactly sorted."""
        base = gnp_average_degree(40, 3.0, seed=11)
        dyn = DynamicGraph(base)
        rng = np.random.default_rng(12)
        for _ in range(30):
            pairs = {tuple(sorted(p)) for p in rng.integers(0, 40, (12, 2)).tolist()}
            codes = _codes(sorted(p for p in pairs if p[0] != p[1]))
            target = rng.random(codes.size) < 0.5
            expect = dyn.has_codes(codes)
            assert dyn.set_presence(codes, target).tolist() == expect.tolist()
            assert dyn.has_codes(codes).tolist() == target.tolist()
            assert (np.diff(dyn._added) > 0).all()
            assert (np.diff(dyn._added_dir) > 0).all()
        mat = dyn.materialize()
        assert dyn.degrees_of(np.arange(40)).tolist() == mat.degrees.tolist()
        for v in range(40):
            assert sorted(dyn.neighbors(v).tolist()) == mat.neighbors(v).tolist()

    def test_prune_gather_segments_are_whole_neighborhoods(self):
        base = gnp_average_degree(50, 4.0, seed=8)
        dyn = DynamicGraph(base)
        rng = np.random.default_rng(9)
        for _ in range(150):
            u, v = (int(x) for x in rng.integers(0, 50, size=2))
            if u != v:
                apply_event(dyn, EdgeInsert(u, v) if rng.random() < 0.5 else EdgeDelete(u, v))
        vertices = rng.permutation(50)[:30]
        concat, starts, ends = dyn.prune_gather(vertices)
        mat = dyn.materialize()
        for i, v in enumerate(vertices.tolist()):
            got = concat[starts[i] : ends[i]].tolist()
            assert sorted(got) == sorted(mat.neighbors(v).tolist())
            assert sorted(dyn.neighbors(v).tolist()) == sorted(got)


class TestMaterializeCompact:
    def test_materialize_empty_delta_is_base(self, dyn_path4):
        assert dyn_path4.materialize() is dyn_path4.base

    def test_materialize_is_memoized(self, dyn_path4):
        apply_event(dyn_path4, EdgeInsert(0, 3))
        assert dyn_path4.materialize() is dyn_path4.materialize()

    def test_materialize_reflects_all_update_kinds(self, dyn_path4):
        apply_event(dyn_path4, EdgeInsert(0, 2))
        apply_event(dyn_path4, EdgeDelete(2, 3))
        apply_event(dyn_path4, WeightChange(3, 9.0))
        mat = dyn_path4.materialize()
        expect = WeightedGraph.from_edge_list(
            4, [(0, 1), (1, 2), (0, 2)], np.array([1.0, 1.0, 1.0, 9.0])
        )
        assert mat == expect

    def test_compact_folds_delta(self, dyn_path4):
        apply_event(dyn_path4, EdgeInsert(0, 2))
        apply_event(dyn_path4, EdgeDelete(2, 3))
        before = dyn_path4.materialize()
        snapshot = dyn_path4.compact()
        assert dyn_path4.delta_size == 0
        assert snapshot == before
        assert dyn_path4.base is snapshot
        assert dyn_path4.compactions == 1

    def test_compact_without_changes_is_noop(self, dyn_path4):
        dyn_path4.compact()
        assert dyn_path4.compactions == 0

    def test_queries_survive_compaction(self, dyn_path4):
        apply_event(dyn_path4, EdgeInsert(0, 3))
        dyn_path4.compact()
        assert has_edge(dyn_path4, 0, 3)
        assert apply_event(dyn_path4, EdgeDelete(0, 3))
        assert not has_edge(dyn_path4, 0, 3)

    def test_maybe_compact_threshold(self):
        base = gnp_average_degree(100, 6.0, seed=2)
        dyn = DynamicGraph(base, min_compact=4, compact_fraction=0.01)
        rng = np.random.default_rng(3)
        compacted = False
        for _ in range(30):
            u, v = rng.integers(0, 100, size=2)
            if u != v:
                apply_event(dyn, EdgeInsert(int(u), int(v)))
            compacted |= dyn.maybe_compact()
        assert compacted
        assert dyn.compactions >= 1
        assert dyn.delta_size <= 5

    def test_equivalence_with_scratch_rebuild(self):
        """A long random update run matches building the graph from scratch."""
        base = gnp_average_degree(80, 5.0, seed=4).with_weights(
            uniform_weights(80, 1.0, 5.0, seed=5)
        )
        dyn = DynamicGraph(base, min_compact=8, compact_fraction=0.05)
        edges = {(int(u), int(v)) for u, v in zip(base.edges_u, base.edges_v)}
        weights = np.array(base.weights)
        rng = np.random.default_rng(6)
        for _ in range(400):
            r = rng.random()
            u, v = sorted(int(x) for x in rng.integers(0, 80, size=2))
            if r < 0.4 and u != v:
                apply_event(dyn, EdgeInsert(u, v))
                edges.add((u, v))
            elif r < 0.8 and u != v:
                apply_event(dyn, EdgeDelete(u, v))
                edges.discard((u, v))
            else:
                w = float(rng.uniform(0.5, 9.0))
                apply_event(dyn, WeightChange(u, w))
                weights[u] = w
            dyn.maybe_compact()
        expect = WeightedGraph.from_edge_list(80, sorted(edges), weights)
        assert dyn.materialize() == expect
        assert dyn.compactions >= 1
