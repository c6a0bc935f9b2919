"""Cluster-engine runs on adversarial structures.

The cluster engine's message paths (routing, gathers, finalization) are the
most intricate code in the repository; these tests push graph shapes that
stress unusual branches: hub-dominated stars, disconnected graphs, graphs
with isolated vertices, and dense-but-tiny cliques — always checking
agreement with the vectorized engine.
"""

import numpy as np
import pytest

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.core.params import MPCParameters
from repro.graphs.generators import (
    complete_graph,
    disjoint_edges,
    gnp_average_degree,
    star,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import adversarial_spread_weights, uniform_weights
from repro.mpc.exceptions import MPCError


def _agree(graph, seed=0, eps=0.1):
    rv = minimum_weight_vertex_cover(graph, eps=eps, seed=seed, engine="vectorized")
    rc = minimum_weight_vertex_cover(graph, eps=eps, seed=seed, engine="cluster")
    assert rv.verify(graph) and rc.verify(graph)
    assert np.array_equal(rv.in_cover, rc.in_cover)
    assert rv.mpc_rounds == rc.mpc_rounds
    return rv


class TestClusterEdgeCases:
    def test_dense_star(self):
        """A 600-leaf star: the hub's degree dwarfs d̄, V^high is tiny."""
        _agree(star(601), seed=1)

    def test_small_clique(self):
        _agree(complete_graph(30), seed=2)

    def test_disconnected_matching(self):
        """Hundreds of disjoint edges: avg degree 1, straight to the final
        phase even through the cluster protocol."""
        res = _agree(disjoint_edges(300), seed=3)
        assert res.num_phases == 0

    def test_isolated_vertices(self):
        g = gnp_average_degree(200, 12.0, seed=4)
        padded = WeightedGraph(
            g.n + 40,
            g.edges_u,
            g.edges_v,
            np.concatenate([g.weights, np.ones(40)]),
        )
        res = _agree(padded, seed=5)
        assert not res.in_cover[g.n :].any()

    def test_wild_weights(self):
        g = gnp_average_degree(250, 16.0, seed=6)
        g = g.with_weights(adversarial_spread_weights(g.n, 9.0, seed=7))
        _agree(g, seed=8)

    def test_two_dense_blobs(self):
        """Two disconnected dense communities (tests routing when the
        partition spreads two unrelated subgraphs over the same machines)."""
        a = complete_graph(40)
        us = np.concatenate([a.edges_u, a.edges_u + 40])
        vs = np.concatenate([a.edges_v, a.edges_v + 40])
        g = WeightedGraph(80, us, vs)
        _agree(g, seed=9)

    @pytest.mark.parametrize("eps", [0.05, 0.2])
    def test_eps_extremes(self, eps):
        g = gnp_average_degree(220, 14.0, seed=10)
        _agree(g, seed=11, eps=eps)

    def test_capacity_squeeze_raises_mpc_error(self):
        """An unreasonably small memory factor must produce a model
        violation, not a wrong answer."""
        g = gnp_average_degree(300, 20.0, seed=70)
        g = g.with_weights(uniform_weights(g.n, seed=71))
        params = MPCParameters(eps=0.1, memory_factor=0.05)
        with pytest.raises(MPCError):
            minimum_weight_vertex_cover(g, params=params, seed=74, engine="cluster")
