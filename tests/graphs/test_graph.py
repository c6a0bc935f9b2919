"""Unit tests for the WeightedGraph substrate."""

import numpy as np
import pytest

from repro.graphs.graph import WeightedGraph, canonical_edges


class TestCanonicalEdges:
    def test_orients_and_sorts(self):
        # pairs (3,1), (0,2), (2,0) -> canonical {(0,2), (1,3)} with the
        # duplicate (0,2) merged.
        u, v = canonical_edges(np.array([3, 0, 2]), np.array([1, 2, 0]), n=4)
        assert u.tolist() == [0, 1]
        assert v.tolist() == [2, 3]

    def test_merges_duplicates(self):
        u, v = canonical_edges(np.array([0, 2, 1]), np.array([2, 0, 0]), n=3)
        assert u.tolist() == [0, 0]
        assert v.tolist() == [1, 2]

    def test_duplicates_rejected_when_disallowed(self):
        with pytest.raises(ValueError, match="duplicate"):
            canonical_edges(np.array([0, 1]), np.array([1, 0]), n=2, allow_duplicates=False)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            canonical_edges(np.array([1]), np.array([1]), n=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="endpoints"):
            canonical_edges(np.array([0]), np.array([5]), n=3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="endpoints"):
            canonical_edges(np.array([-1]), np.array([1]), n=3)

    def test_empty_ok(self):
        u, v = canonical_edges(np.empty(0, np.int64), np.empty(0, np.int64), n=0)
        assert u.size == 0 and v.size == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            canonical_edges(np.array([0, 1]), np.array([1]), n=3)


class TestCanonicalFastPath:
    """Already-canonical input skips the sort; anything else still sorts."""

    U = np.array([0, 0, 1, 2, 2], dtype=np.int64)
    V = np.array([1, 3, 2, 3, 4], dtype=np.int64)

    def test_canonical_input_comes_back_equal(self):
        u, v = canonical_edges(self.U, self.V, n=5)
        assert u.tolist() == self.U.tolist()
        assert v.tolist() == self.V.tolist()

    @pytest.mark.parametrize(
        "u, v",
        [
            ([1, 0, 2, 3, 4], [0, 3, 1, 2, 2]),  # reversed orientation
            ([2, 0, 1, 0, 2], [4, 1, 2, 3, 3]),  # unsorted
            ([0, 0, 0, 1, 2, 2], [1, 1, 3, 2, 3, 4]),  # a duplicate
            ([0, 0, 1, 2, 2, 2], [1, 3, 2, 3, 4, 3]),  # a late duplicate
        ],
    )
    def test_non_canonical_input_is_canonicalized(self, u, v):
        cu, cv = canonical_edges(np.array(u), np.array(v), n=5)
        assert cu.tolist() == self.U.tolist()
        assert cv.tolist() == self.V.tolist()

    def test_self_loop_in_sorted_input_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            canonical_edges(np.array([0, 1, 2]), np.array([1, 1, 3]), n=4)

    @pytest.mark.parametrize("u, v", [([0, 1], [1, 4]), ([-1, 0], [0, 1])])
    def test_out_of_range_in_sorted_input_rejected(self, u, v):
        with pytest.raises(ValueError, match="endpoints"):
            canonical_edges(np.array(u), np.array(v), n=4)


class TestConstruction:
    @pytest.mark.parametrize("canonical", [True, False])
    def test_callers_arrays_stay_writable_and_unshared(self, canonical):
        u = np.array([0, 0, 1] if canonical else [1, 0, 2], dtype=np.int64)
        v = np.array([1, 2, 2] if canonical else [0, 2, 1], dtype=np.int64)
        w = np.array([1.0, 2.0, 3.0])
        g = WeightedGraph(3, u, v, w)
        for arr in (u, v, w):
            assert arr.flags.writeable
            for frozen in (g.edges_u, g.edges_v, g.weights):
                assert not np.shares_memory(arr, frozen)
        u[0], v[0], w[0] = 2, 2, 9.0  # the caller's writes land in its own arrays
        assert g.edges_u.tolist() == [0, 0, 1]
        assert g.edges_v.tolist() == [1, 2, 2]
        assert g.weights.tolist() == [1.0, 2.0, 3.0]
        assert not (g.edges_u.flags.writeable or g.weights.flags.writeable)

    def test_read_only_view_of_a_writable_array_is_copied(self):
        w = np.array([1.0, 2.0])
        view = w[:]
        view.setflags(write=False)
        g = WeightedGraph(2, [0], [1], view)
        w[0] = 5.0
        assert g.weights.tolist() == [1.0, 2.0]

    def test_derived_graph_shares_the_frozen_edges(self, triangle):
        h = triangle.with_weights(np.array([1.0, 2.0, 3.0]))
        assert h.edges_u is triangle.edges_u
        assert h.edges_v is triangle.edges_v

    def test_basic(self, triangle):
        assert triangle.n == 3
        assert triangle.m == 3
        assert triangle.max_degree == 2
        assert triangle.average_degree == 2.0

    def test_default_weights_are_ones(self, triangle):
        assert np.array_equal(triangle.weights, np.ones(3))

    def test_weights_length_checked(self):
        with pytest.raises(ValueError, match="weights"):
            WeightedGraph(3, [0], [1], weights=[1.0, 2.0])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedGraph(2, [0], [1], weights=[1.0, 0.0])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(-1, [], [])

    def test_empty_graph(self):
        g = WeightedGraph.empty(5)
        assert g.n == 5 and g.m == 0
        assert g.average_degree == 0.0
        assert g.max_degree == 0

    def test_zero_vertex_graph(self):
        g = WeightedGraph.empty(0)
        assert g.n == 0 and g.m == 0
        assert g.average_degree == 0.0

    def test_from_edge_list(self):
        g = WeightedGraph.from_edge_list(4, [(3, 0), (1, 2)])
        assert g.m == 2
        assert g.edges_u.tolist() == [0, 1]
        assert g.edges_v.tolist() == [3, 2]

    def test_edge_arrays_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.edges_u[0] = 99
        with pytest.raises(ValueError):
            triangle.weights[0] = 99.0

    def test_equality_and_hash(self, triangle):
        other = WeightedGraph.from_edge_list(3, [(2, 1), (0, 2), (0, 1)])
        assert triangle == other
        assert hash(triangle) == hash(other)
        different = WeightedGraph.from_edge_list(3, [(0, 1), (1, 2)])
        assert triangle != different


class TestDegrees:
    def test_star_degrees(self):
        from repro.graphs.generators import star

        g = star(5)
        assert g.degrees.tolist() == [4, 1, 1, 1, 1]
        assert g.max_degree == 4
        assert g.average_degree == pytest.approx(8 / 5)

    def test_degrees_match_csr(self, small_random):
        assert np.array_equal(np.diff(small_random.indptr), small_random.degrees)


class TestIncidentSums:
    def test_uniform_values(self, triangle):
        sums = triangle.incident_sums(np.ones(3))
        assert sums.tolist() == [2.0, 2.0, 2.0]

    def test_specific_values(self, path4):
        # edges: (0,1), (1,2), (2,3)
        sums = path4.incident_sums(np.array([1.0, 10.0, 100.0]))
        assert sums.tolist() == [1.0, 11.0, 110.0, 100.0]

    def test_shape_checked(self, triangle):
        with pytest.raises(ValueError, match="shape"):
            triangle.incident_sums(np.ones(5))

    def test_empty_graph(self):
        g = WeightedGraph.empty(3)
        assert g.incident_sums(np.empty(0)).tolist() == [0.0, 0.0, 0.0]

    def test_matches_bruteforce(self, small_random):
        x = np.random.default_rng(0).random(small_random.m)
        expected = np.zeros(small_random.n)
        for e in range(small_random.m):
            expected[small_random.edges_u[e]] += x[e]
            expected[small_random.edges_v[e]] += x[e]
        assert np.allclose(small_random.incident_sums(x), expected)


class TestIncidentCounts:
    def test_full_mask_equals_degrees(self, small_random):
        mask = np.ones(small_random.m, dtype=bool)
        assert np.array_equal(small_random.incident_counts(mask), small_random.degrees)

    def test_empty_mask(self, small_random):
        mask = np.zeros(small_random.m, dtype=bool)
        assert small_random.incident_counts(mask).sum() == 0

    def test_partial(self, path4):
        mask = np.array([True, False, True])
        assert path4.incident_counts(mask).tolist() == [1, 1, 1, 1]

    def test_shape_checked(self, path4):
        with pytest.raises(ValueError, match="shape"):
            path4.incident_counts(np.ones(2, dtype=bool))


class TestEndpointValues:
    def test_gather(self, path4):
        vals = np.array([10.0, 20.0, 30.0, 40.0])
        a, b = path4.endpoint_values(vals)
        assert a.tolist() == [10.0, 20.0, 30.0]
        assert b.tolist() == [20.0, 30.0, 40.0]

    def test_length_checked(self, path4):
        with pytest.raises(ValueError, match="length"):
            path4.endpoint_values(np.ones(3))


class TestCoverOps:
    def test_valid_cover(self, triangle):
        assert triangle.is_vertex_cover(np.array([True, True, False]))

    def test_invalid_cover(self, triangle):
        assert not triangle.is_vertex_cover(np.array([True, False, False]))

    def test_empty_graph_any_cover(self):
        g = WeightedGraph.empty(3)
        assert g.is_vertex_cover(np.zeros(3, dtype=bool))

    def test_cover_weight(self, weighted_star):
        mask = np.array([False, True, True, True, True, True])
        assert weighted_star.cover_weight(mask) == pytest.approx(5.0)

    def test_uncovered_edges(self, path4):
        mask = np.array([False, True, False, False])
        assert path4.uncovered_edges(mask).tolist() == [2]  # edge (2,3)

    def test_shape_checked(self, triangle):
        with pytest.raises(ValueError, match="shape"):
            triangle.is_vertex_cover(np.ones(5, dtype=bool))


class TestCSR:
    def test_neighbors_sorted_union(self, triangle):
        assert sorted(triangle.neighbors(0).tolist()) == [1, 2]
        assert sorted(triangle.neighbors(1).tolist()) == [0, 2]

    def test_adj_edges_list_incident_edges(self, path4):
        slots = slice(path4.indptr[1], path4.indptr[2])
        assert sorted(path4.adj_edges[slots].tolist()) == [0, 1]

    def test_out_of_range(self, triangle):
        with pytest.raises(IndexError):
            triangle.neighbors(10)
        with pytest.raises(IndexError):
            triangle.neighbors(-1)

    def test_adjacency_consistency(self, small_random):
        g = small_random
        for v in range(g.n):
            slots = slice(g.indptr[v], g.indptr[v + 1])
            for w, e in zip(g.neighbors(v), g.adj_edges[slots]):
                a, b = g.edges_u[e], g.edges_v[e]
                assert {a, b} == {v, w}

    def test_rows_are_ascending(self, small_random):
        g = small_random
        for v in range(g.n):
            row = g.neighbors(v)
            assert np.all(np.diff(row) > 0), f"row {v} is not ascending: {row}"


class TestInducedSubgraph:
    def test_by_mask(self, path4):
        sub, vids, eids = path4.induced_subgraph(np.array([True, True, True, False]))
        assert sub.n == 3 and sub.m == 2
        assert vids.tolist() == [0, 1, 2]
        assert eids.tolist() == [0, 1]

    def test_by_ids(self, path4):
        sub, vids, eids = path4.induced_subgraph(np.array([1, 2]))
        assert sub.n == 2 and sub.m == 1
        assert vids.tolist() == [1, 2]
        assert eids.tolist() == [1]

    def test_weights_carried(self, weighted_star):
        sub, vids, _ = weighted_star.induced_subgraph(np.array([0, 1]))
        assert sub.weights.tolist() == [10.0, 1.0]

    def test_no_edges(self, path4):
        sub, _, eids = path4.induced_subgraph(np.array([0, 2]))
        assert sub.m == 0 and eids.size == 0

    def test_ids_out_of_range(self, path4):
        with pytest.raises(ValueError):
            path4.induced_subgraph(np.array([0, 9]))

    def test_relabeling_preserves_structure(self, small_random):
        g = small_random
        ids = np.arange(0, g.n, 2)
        sub, vids, eids = g.induced_subgraph(ids)
        for j in range(sub.m):
            pu = vids[sub.edges_u[j]]
            pv = vids[sub.edges_v[j]]
            assert pu == g.edges_u[eids[j]]
            assert pv == g.edges_v[eids[j]]

    def test_full_subgraph_identity(self, small_random):
        sub, vids, eids = small_random.induced_subgraph(np.ones(small_random.n, dtype=bool))
        assert sub == small_random


class TestWithWeights:
    def test_replaces_weights_only(self, triangle):
        g2 = triangle.with_weights(np.array([5.0, 6.0, 7.0]))
        assert g2.weights.tolist() == [5.0, 6.0, 7.0]
        assert np.array_equal(g2.edges_u, triangle.edges_u)
