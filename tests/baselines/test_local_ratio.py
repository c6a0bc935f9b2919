"""Tests for the local-ratio baseline."""

import numpy as np
import pytest

from repro.baselines.pricing import pricing_vertex_cover

from tests.oracles import local_ratio_vertex_cover


class TestLocalRatio:
    def test_returns_cover(self, named_graph):
        res = local_ratio_vertex_cover(named_graph)
        assert named_graph.is_vertex_cover(res.in_cover)

    def test_factor_two_vs_lower_bound(self, medium_random):
        res = local_ratio_vertex_cover(medium_random)
        assert res.lower_bound > 0
        assert res.cover_weight <= 2.0 * res.lower_bound + 1e-9

    def test_equivalent_to_pricing_in_same_order(self, medium_random):
        """Local-ratio and pricing are the same dual ascent; identical edge
        order must give identical covers and matching bounds."""
        lr = local_ratio_vertex_cover(medium_random)
        pr = pricing_vertex_cover(medium_random, order="input")
        assert np.array_equal(lr.in_cover, pr.in_cover)
        assert lr.lower_bound == pytest.approx(pr.dual_value)

    def test_reduction_edges_distinct(self, medium_random):
        res = local_ratio_vertex_cover(medium_random)
        edges = [e for e, _ in res.reductions]
        assert len(edges) == len(set(edges))
        assert all(d > 0 for _, d in res.reductions)

    def test_empty_graph(self):
        from repro.graphs.graph import WeightedGraph

        res = local_ratio_vertex_cover(WeightedGraph.empty(3))
        assert res.num_reductions == 0
        assert res.cover_weight == 0.0
