"""Property-based tests of the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import WeightedGraph

from tests.oracles import validate_graph
from tests.properties.strategies import weighted_graphs


class TestStructuralInvariants:
    @given(weighted_graphs())
    def test_all_invariants_hold(self, g):
        validate_graph(g)

    @given(weighted_graphs())
    def test_degree_sum_is_twice_edges(self, g):
        assert g.degrees.sum() == 2 * g.m

    @given(weighted_graphs())
    def test_average_degree_formula(self, g):
        if g.n:
            assert g.average_degree == 2 * g.m / g.n

    @given(weighted_graphs())
    def test_construction_idempotent(self, g):
        rebuilt = WeightedGraph(g.n, g.edges_u, g.edges_v, g.weights)
        assert rebuilt == g


class TestIncidentSumsProperties:
    @given(weighted_graphs(), st.integers(0, 10**6))
    def test_linearity(self, g, seed):
        rng = np.random.default_rng(seed)
        x = rng.random(g.m)
        y = rng.random(g.m)
        lhs = g.incident_sums(2.0 * x + y)
        rhs = 2.0 * g.incident_sums(x) + g.incident_sums(y)
        assert np.allclose(lhs, rhs)

    @given(weighted_graphs())
    def test_total_is_twice_edge_sum(self, g):
        x = np.ones(g.m)
        assert g.incident_sums(x).sum() == 2 * g.m

    @given(weighted_graphs())
    def test_counts_match_sums_for_binary(self, g):
        if g.m == 0:
            return
        mask = np.zeros(g.m, dtype=bool)
        mask[:: max(1, g.m // 3)] = True
        counts = g.incident_counts(mask)
        sums = g.incident_sums(mask.astype(np.float64))
        assert np.array_equal(counts, sums.astype(np.int64))


class TestSubgraphProperties:
    @given(weighted_graphs(), st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_induced_subgraph_edge_mapping(self, g, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random(g.n) < 0.5
        sub, vids, eids = g.induced_subgraph(mask)
        validate_graph(sub)
        assert sub.n == int(mask.sum())
        # every parent edge with both endpoints selected appears exactly once
        fu, fv = g.endpoint_values(mask)
        assert eids.size == int((fu & fv).sum())

    @given(weighted_graphs())
    def test_full_mask_identity(self, g):
        sub, _, _ = g.induced_subgraph(np.ones(g.n, dtype=bool))
        assert sub == g

    @given(weighted_graphs())
    def test_empty_mask(self, g):
        sub, vids, eids = g.induced_subgraph(np.zeros(g.n, dtype=bool))
        assert sub.n == 0 and sub.m == 0


class TestSerializationProperties:
    @given(weighted_graphs())
    @settings(max_examples=30)
    def test_npz_roundtrip(self, g):
        import os
        import tempfile

        from repro.graphs.io import load_npz, save_npz

        fd, path = tempfile.mkstemp(suffix=".npz")
        os.close(fd)
        try:
            save_npz(g, path)
            assert load_npz(path) == g
        finally:
            os.unlink(path)
