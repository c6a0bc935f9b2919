"""Tests for the BDH18 MPC-to-congested-clique adapter."""

import numpy as np
import pytest

from repro.congested.mwvc import LENZEN_ROUNDS, congested_clique_mwvc
from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.core.params import MPCParameters
from repro.graphs.generators import gnp_average_degree
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights


class TestCongestedCliqueMWVC:
    def test_cover_matches_mpc_run(self):
        g = gnp_average_degree(400, 16.0, seed=0)
        g = g.with_weights(uniform_weights(g.n, seed=1))
        cc = congested_clique_mwvc(g, eps=0.1, seed=2)
        mpc = minimum_weight_vertex_cover(g, eps=0.1, seed=2)
        assert np.array_equal(cc.in_cover, mpc.in_cover)
        assert cc.cover_weight == pytest.approx(mpc.cover_weight)

    @pytest.mark.parametrize(
        "n,degree,memory_factor,per_round",
        # S/n = 16 exactly, and two factors where ⌈S/n⌉ rounds up.
        [(400, 16.0, 16.0, LENZEN_ROUNDS * 16), (150, 12.0, 2.5, LENZEN_ROUNDS * 3),
         (333, 12.0, 7.3, LENZEN_ROUNDS * 8)],
    )
    def test_round_translation_formula(self, n, degree, memory_factor, per_round):
        g = gnp_average_degree(n, degree, seed=3)
        params = MPCParameters(eps=0.1, memory_factor=memory_factor)
        res = congested_clique_mwvc(g, params=params, seed=4)
        assert res.mpc_result.mpc_rounds > 0
        assert res.cc_rounds_per_mpc_round == per_round
        assert res.cc_rounds == per_round * res.mpc_result.mpc_rounds

    def test_rounds_charged_on_model(self):
        g = gnp_average_degree(200, 8.0, seed=5)
        res = congested_clique_mwvc(g, eps=0.1, seed=6)
        assert res.num_nodes == 200
        assert res.cc_rounds > 0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            congested_clique_mwvc(WeightedGraph.empty(0), seed=0)
