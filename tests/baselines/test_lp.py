"""Tests for the LP relaxation."""

import numpy as np
import pytest

from repro.baselines.exact import exact_mwvc
from repro.baselines.lp import lp_relaxation
from repro.graphs.generators import complete_bipartite, cycle, gnp_average_degree, star
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights


class TestLPRelaxation:
    def test_lower_bounds_opt(self):
        for seed in range(4):
            g = gnp_average_degree(25, 5.0, seed=seed)
            g = g.with_weights(uniform_weights(g.n, 1.0, 9.0, seed=seed + 2))
            lp = lp_relaxation(g)
            assert lp.ok
            assert lp.lp_value <= exact_mwvc(g).opt_weight + 1e-6

    def test_star_lp(self):
        # unweighted star: z_hub = 1 is optimal (or all leaves at 1/2 when
        # leaves are fewer... for star with k leaves LP = min(1, k/2)).
        lp = lp_relaxation(star(6))
        assert lp.lp_value == pytest.approx(1.0, abs=1e-6)

    def test_odd_cycle_half_integral(self):
        lp = lp_relaxation(cycle(5))
        assert lp.lp_value == pytest.approx(2.5, abs=1e-6)
        assert np.allclose(lp.z, 0.5, atol=1e-6)

    def test_bipartite_integral(self):
        # Kőnig: bipartite LP optimum equals integral optimum (= min(a,b)).
        lp = lp_relaxation(complete_bipartite(3, 7))
        assert lp.lp_value == pytest.approx(3.0, abs=1e-6)

    def test_empty(self):
        lp = lp_relaxation(WeightedGraph.empty(4))
        assert lp.lp_value == 0.0
