"""Tests for the dual initializations (validity + formulas)."""

import numpy as np
import pytest

from repro.core.centralized import run_centralized
from repro.core.initialization import (
    INIT_SCHEMES,
    degree_scaled_init,
    max_degree_scaled_init,
    uniform_init,
)
from repro.graphs.generators import gnp_average_degree, star
from repro.graphs.weights import uniform_weights


@pytest.fixture
def wg():
    g = gnp_average_degree(200, 10.0, seed=0)
    return g.with_weights(uniform_weights(g.n, 1.0, 100.0, seed=1))


class TestValidity:
    """Observation 3.1 base case: every scheme yields Σ_{e∋v} x_e ≤ w(v)."""

    @pytest.mark.parametrize("scheme", sorted(INIT_SCHEMES))
    def test_valid_fractional_matching(self, wg, scheme):
        x0 = INIT_SCHEMES[scheme](wg)
        loads = wg.incident_sums(x0)
        assert (loads <= wg.weights * (1 + 1e-12)).all()

    @pytest.mark.parametrize("scheme", sorted(INIT_SCHEMES))
    def test_strictly_positive(self, wg, scheme):
        x0 = INIT_SCHEMES[scheme](wg)
        assert (x0 > 0).all()

    @pytest.mark.parametrize("scheme", sorted(INIT_SCHEMES))
    def test_structured_graphs(self, named_graph, scheme):
        x0 = INIT_SCHEMES[scheme](named_graph)
        loads = named_graph.incident_sums(x0)
        assert (loads <= named_graph.weights * (1 + 1e-12)).all()


class TestFormulas:
    def test_degree_scaled_on_star(self):
        g = star(5).with_weights(np.array([8.0, 1.0, 1.0, 1.0, 1.0]))
        x0 = degree_scaled_init(g)
        # hub ratio 8/4 = 2; leaf ratio 1/1 = 1 -> min = 1 per edge
        assert np.allclose(x0, 1.0)

    def test_degree_scaled_tight_on_regular(self):
        from repro.graphs.generators import cycle

        g = cycle(6)
        x0 = degree_scaled_init(g)
        loads = g.incident_sums(x0)
        assert np.allclose(loads, g.weights)  # d(v) * (w/d) = w exactly

    def test_uniform_value(self, wg):
        x0 = uniform_init(wg)
        assert np.allclose(x0, wg.weights.min() / wg.n)

    def test_max_degree_scaled_value(self):
        g = star(4).with_weights(np.array([9.0, 3.0, 6.0, 12.0]))
        x0 = max_degree_scaled_init(g)
        assert x0.tolist() == [1.0, 2.0, 3.0]  # min(w)/Δ with Δ=3

    def test_injected_residual_degrees(self):
        g = star(4)
        resid = np.array([5, 1, 1, 1])  # pretend hub has extra nonfrozen edges
        x0 = degree_scaled_init(g, degrees=resid)
        assert np.allclose(x0, np.minimum(1.0 / 5, 1.0))

    def test_injected_weights(self):
        g = star(4)
        w = np.array([30.0, 1.0, 1.0, 1.0])
        x0 = degree_scaled_init(g, weights=w)
        assert np.allclose(x0, 1.0)

    def test_empty_graph(self):
        from repro.graphs.graph import WeightedGraph

        g = WeightedGraph.empty(3)
        for scheme in INIT_SCHEMES:
            assert INIT_SCHEMES[scheme](g).size == 0

    def test_unknown_scheme(self, wg):
        with pytest.raises(ValueError, match="unknown init scheme"):
            run_centralized(wg, init="nope")

    def test_shape_validation(self, wg):
        with pytest.raises(ValueError):
            degree_scaled_init(wg, weights=np.ones(3))
        with pytest.raises(ValueError):
            degree_scaled_init(wg, degrees=np.ones(3, dtype=np.int64))
