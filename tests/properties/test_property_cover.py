"""Property-based tests: every algorithm returns a valid cover, and weak
duality holds between any algorithm's dual and any algorithm's cover."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy import greedy_vertex_cover
from repro.baselines.pricing import pricing_vertex_cover
from repro.core.centralized import run_centralized
from repro.core.mpc_mwvc import minimum_weight_vertex_cover

from tests.oracles import local_ratio_vertex_cover
from tests.properties.strategies import seeds, weighted_graphs


class TestAlwaysACover:
    @given(weighted_graphs(), seeds)
    @settings(max_examples=40, deadline=None)
    def test_centralized(self, g, seed):
        res = run_centralized(g, eps=0.1, seed=seed)
        assert g.is_vertex_cover(res.in_cover)

    @given(weighted_graphs(), seeds)
    @settings(max_examples=25, deadline=None)
    def test_mpc(self, g, seed):
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=seed)
        assert g.is_vertex_cover(res.in_cover)
        assert res.certificate.is_cover

    @given(weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_pricing(self, g):
        assert g.is_vertex_cover(pricing_vertex_cover(g).in_cover)

    @given(weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_greedy(self, g):
        assert g.is_vertex_cover(greedy_vertex_cover(g).in_cover)

    @given(weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_local_ratio(self, g):
        assert g.is_vertex_cover(local_ratio_vertex_cover(g).in_cover)


class TestWeakDuality:
    @given(weighted_graphs(), seeds)
    @settings(max_examples=30, deadline=None)
    def test_any_dual_below_any_cover(self, g, seed):
        """Lemma 3.2 in executable form: a feasible dual from one algorithm
        lower-bounds the cover weight of a *different* algorithm."""
        dual = pricing_vertex_cover(g).dual_value
        for cover_fn in (
            lambda: greedy_vertex_cover(g).in_cover,
            lambda: run_centralized(g, eps=0.1, seed=seed).in_cover,
        ):
            cover_weight = g.cover_weight(cover_fn())
            assert dual <= cover_weight + 1e-9

    @given(weighted_graphs(), seeds)
    @settings(max_examples=25, deadline=None)
    def test_certificate_sound_for_mpc(self, g, seed):
        """The MPC certificate's lower bound is below every cover we can
        produce, including its own."""
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=seed)
        lb = res.certificate.opt_lower_bound
        assert lb <= res.cover_weight + 1e-9
        assert lb <= pricing_vertex_cover(g).cover_weight + 1e-9

    @given(weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_pricing_factor_two(self, g):
        res = pricing_vertex_cover(g)
        assert res.cover_weight <= 2.0 * res.dual_value + 1e-9


class TestDeterminismProperties:
    @given(weighted_graphs(), seeds)
    @settings(max_examples=20, deadline=None)
    def test_mpc_seed_determinism(self, g, seed):
        a = minimum_weight_vertex_cover(g, eps=0.1, seed=seed)
        b = minimum_weight_vertex_cover(g, eps=0.1, seed=seed)
        assert np.array_equal(a.in_cover, b.in_cover)
        assert a.mpc_rounds == b.mpc_rounds

    @given(weighted_graphs(), seeds, st.floats(1e-3, 1e3))
    @settings(max_examples=20, deadline=None)
    def test_weight_scale_invariance(self, g, seed, scale):
        """Cover decisions are invariant under w -> scale·w."""
        a = minimum_weight_vertex_cover(g, eps=0.1, seed=seed)
        scaled = g.with_weights(g.weights * scale)
        b = minimum_weight_vertex_cover(scaled, eps=0.1, seed=seed)
        assert np.array_equal(a.in_cover, b.in_cover)
