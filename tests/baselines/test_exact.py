"""Tests for the exact solvers (cross-validated against each other)."""

import pytest

from repro.baselines.exact import exact_mwvc
from repro.baselines.lp import lp_relaxation
from repro.graphs.generators import (
    complete_bipartite,
    complete_graph,
    cycle,
    gnp_average_degree,
    star,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights

from tests.oracles import exact_mwvc_bruteforce


class TestKnownOptima:
    def test_triangle(self, triangle):
        assert exact_mwvc(triangle).opt_weight == pytest.approx(2.0)

    def test_star_unweighted(self):
        assert exact_mwvc(star(9)).opt_weight == pytest.approx(1.0)

    def test_weighted_star(self, weighted_star):
        assert exact_mwvc(weighted_star).opt_weight == pytest.approx(5.0)

    def test_cheap_hub_star(self, cheap_hub_star):
        assert exact_mwvc(cheap_hub_star).opt_weight == pytest.approx(1.0)

    def test_clique(self):
        assert exact_mwvc(complete_graph(6)).opt_weight == pytest.approx(5.0)

    def test_bipartite(self):
        assert exact_mwvc(complete_bipartite(3, 8)).opt_weight == pytest.approx(3.0)

    def test_odd_cycle(self):
        assert exact_mwvc(cycle(7)).opt_weight == pytest.approx(4.0)

    def test_path(self, path4):
        assert exact_mwvc(path4).opt_weight == pytest.approx(2.0)

    def test_empty(self):
        assert exact_mwvc(WeightedGraph.empty(5)).opt_weight == 0.0

    def test_branch_cost_sums_higher_neighbours_first(self):
        # Leaves 0, 2, 3 around a heavy hub 1: the optimum is the leaves,
        # summed in the hub's neighbour order 2, 3, then 0.  Float sums
        # depend on that order; keeping it keeps opt_weight bit-stable.
        g = WeightedGraph.from_edge_list(
            4, [(0, 1), (1, 2), (1, 3)], [0.1, 10.0, 0.2, 0.3]
        )
        assert (0.2 + 0.3) + 0.1 != (0.1 + 0.2) + 0.3
        assert exact_mwvc(g).opt_weight == (0.2 + 0.3) + 0.1

    def test_result_is_cover(self, small_random):
        res = exact_mwvc(small_random)
        assert small_random.is_vertex_cover(res.in_cover)
        assert res.opt_weight == pytest.approx(
            small_random.cover_weight(res.in_cover)
        )


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(6))
    def test_bnb_matches_bruteforce(self, seed):
        g = gnp_average_degree(12, 4.0, seed=seed)
        g = g.with_weights(uniform_weights(g.n, 1.0, 9.0, seed=seed + 100))
        bnb = exact_mwvc(g)
        bf = exact_mwvc_bruteforce(g)
        assert bnb.opt_weight == pytest.approx(bf.opt_weight)

    @pytest.mark.parametrize("seed", range(4))
    def test_bnb_above_lp(self, seed):
        g = gnp_average_degree(30, 6.0, seed=seed)
        g = g.with_weights(uniform_weights(g.n, 1.0, 9.0, seed=seed + 7))
        assert exact_mwvc(g).opt_weight >= lp_relaxation(g).lp_value - 1e-6


class TestLimits:
    def test_bruteforce_size_cap(self):
        with pytest.raises(ValueError):
            exact_mwvc_bruteforce(WeightedGraph.empty(23))

    def test_node_limit(self):
        g = gnp_average_degree(40, 8.0, seed=0)
        with pytest.raises(RuntimeError, match="node limit"):
            exact_mwvc(g, node_limit=3)
