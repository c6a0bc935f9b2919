"""Tests for the native congested-clique primal–dual protocol."""

import numpy as np
import pytest

from repro.core.centralized import run_centralized
from repro.graphs.generators import gnp_average_degree, star
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights

from tests.clique_oracle import congested_clique_local_vc


class TestLocalCliqueVC:
    def test_returns_cover(self, small_random):
        res = congested_clique_local_vc(small_random, eps=0.1, seed=0)
        assert small_random.is_vertex_cover(res.in_cover)

    def test_matches_centralized_exactly(self):
        """The distributed protocol replays Algorithm 1 bit-for-bit when
        given the same threshold seed — the strongest cross-validation of
        both implementations."""
        for seed in range(3):
            g = gnp_average_degree(120, 8.0, seed=seed)
            g = g.with_weights(uniform_weights(g.n, seed=seed + 5))
            cc = congested_clique_local_vc(g, eps=0.1, seed=seed)
            ctr = run_centralized(g, eps=0.1, seed=seed)
            assert np.array_equal(cc.in_cover, ctr.in_cover)
            assert np.allclose(cc.x, ctr.x)
            assert cc.iterations == ctr.iterations

    def test_three_rounds_per_iteration(self, small_random):
        res = congested_clique_local_vc(small_random, eps=0.1, seed=1)
        # 2 rounds of convergence checking per iteration (+ the final check
        # that observes termination) plus 1 communication round per
        # iteration: 3·iters + 2.
        assert res.cc_rounds == 3 * res.iterations + 2

    def test_star_cover(self):
        g = star(20)
        res = congested_clique_local_vc(g, eps=0.1, seed=2)
        assert g.is_vertex_cover(res.in_cover)

    def test_empty_graph(self):
        res = congested_clique_local_vc(WeightedGraph.empty(0), seed=3)
        assert res.cc_rounds == 0

    def test_edgeless_graph(self):
        res = congested_clique_local_vc(WeightedGraph.empty(5), seed=4)
        assert not res.in_cover.any()
        assert res.iterations == 0

    def test_invalid_eps(self, small_random):
        with pytest.raises(ValueError):
            congested_clique_local_vc(small_random, eps=0.3)
