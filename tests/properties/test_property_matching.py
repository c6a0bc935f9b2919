"""Property-based tests of fractional-matching feasibility (Observation 3.1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pricing import pricing_vertex_cover
from repro.core.centralized import run_centralized
from repro.core.certificates import fractional_matching_violation
from repro.core.initialization import INIT_SCHEMES
from repro.core.mpc_mwvc import minimum_weight_vertex_cover

from tests.properties.strategies import seeds, weighted_graphs


class TestObservation31:
    @given(weighted_graphs(), st.sampled_from(sorted(INIT_SCHEMES)))
    @settings(max_examples=60, deadline=None)
    def test_initializations_feasible(self, g, scheme):
        x0 = INIT_SCHEMES[scheme](g)
        assert fractional_matching_violation(g, x0) <= 1.0 + 1e-9

    @given(weighted_graphs(), seeds)
    @settings(max_examples=40, deadline=None)
    def test_centralized_final_duals_feasible(self, g, seed):
        res = run_centralized(g, eps=0.1, seed=seed)
        assert fractional_matching_violation(g, res.x) <= 1.0 + 1e-9

    @given(weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_pricing_duals_feasible(self, g):
        res = pricing_vertex_cover(g)
        assert fractional_matching_violation(g, res.x) <= 1.0 + 1e-12

    @given(weighted_graphs(), seeds)
    @settings(max_examples=25, deadline=None)
    def test_mpc_duals_near_feasible(self, g, seed):
        """MPC duals may overshoot by the estimator error, but the overshoot
        is bounded (Theorem 4.7's (1+6ε) at scale; generous slack here for
        the tiny-graph regime where the final centralized phase dominates)."""
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=seed)
        assert res.certificate.load_factor <= 2.0

    @given(weighted_graphs(), seeds)
    @settings(max_examples=25, deadline=None)
    def test_mpc_duals_nonnegative(self, g, seed):
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=seed)
        assert (res.x >= 0).all()
