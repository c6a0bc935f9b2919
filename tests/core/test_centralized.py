"""Tests for Algorithm 1 (centralized primal–dual MWVC)."""

import math

import numpy as np
import pytest

from repro.core.centralized import run_centralized, termination_bound
from repro.core.certificates import fractional_matching_violation
from repro.core.thresholds import ThresholdSampler
from repro.graphs.generators import gnp_average_degree
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import adversarial_spread_weights


class TestBasicBehaviour:
    def test_returns_cover(self, named_graph):
        res = run_centralized(named_graph, eps=0.1, seed=0)
        assert named_graph.is_vertex_cover(res.in_cover)

    def test_duals_stay_valid(self, named_graph):
        """Observation 3.1: the duals form a fractional matching throughout
        (checked at the end; the per-iteration invariant is covered by the
        property suite)."""
        res = run_centralized(named_graph, eps=0.1, seed=0)
        assert fractional_matching_violation(named_graph, res.x) <= 1.0 + 1e-9

    def test_approximation_guarantee(self, medium_random):
        """Proposition 3.3: w(C) ≤ (2+10ε)/(1-4ε)-ish; we check the clean
        form w(C) ≤ 2/(1-4ε) · Σx."""
        eps = 0.1
        res = run_centralized(medium_random, eps=eps, seed=1)
        w_c = medium_random.cover_weight(res.in_cover)
        assert w_c <= (2.0 / (1 - 4 * eps)) * res.dual_value + 1e-9

    def test_frozen_vertices_nearly_tight(self, medium_random):
        """Every cover vertex froze with y ≥ (1-4ε)·w (Prop 3.3's core)."""
        eps = 0.1
        res = run_centralized(medium_random, eps=eps, seed=2)
        loads = medium_random.incident_sums(res.x)
        covered = res.in_cover
        assert (
            loads[covered] >= (1 - 4 * eps) * medium_random.weights[covered] - 1e-9
        ).all()

    def test_empty_graph(self):
        g = WeightedGraph.empty(4)
        res = run_centralized(g, seed=0)
        assert res.iterations == 0
        assert not res.in_cover.any()
        assert res.dual_value == 0.0

    def test_single_edge(self):
        g = WeightedGraph.from_edge_list(2, [(0, 1)], weights=[3.0, 5.0])
        res = run_centralized(g, eps=0.1, seed=0)
        assert g.is_vertex_cover(res.in_cover)
        # the cheap endpoint saturates first
        assert res.in_cover[0]

    def test_isolated_vertices_never_join(self):
        g = WeightedGraph.from_edge_list(4, [(0, 1)])
        res = run_centralized(g, eps=0.1, seed=0)
        assert not res.in_cover[2] and not res.in_cover[3]

    def test_freeze_iteration_consistency(self, small_random):
        res = run_centralized(small_random, eps=0.1, seed=3)
        assert ((res.freeze_iteration >= 0) == res.in_cover).all()
        assert res.freeze_iteration.max() < res.iterations


class TestIterationCounts:
    def test_proposition_3_4_log_delta(self):
        """Degree-scaled init terminates within log_{1/(1-ε)} Δ + 2."""
        eps = 0.1
        for seed in range(3):
            g = gnp_average_degree(500, 20.0, seed=seed)
            g = g.with_weights(adversarial_spread_weights(g.n, 9.0, seed=seed + 1))
            res = run_centralized(g, eps=eps, init="degree_scaled", seed=seed)
            bound = math.log(g.max_degree) / math.log(1 / (1 - eps)) + 2
            assert res.iterations <= bound

    def test_uniform_init_pays_for_weight_spread(self):
        """The O(log(Wn)) penalty of the classic init (§3.1 discussion)."""
        g = gnp_average_degree(500, 20.0, seed=0)
        g = g.with_weights(adversarial_spread_weights(g.n, 9.0, seed=1))
        fast = run_centralized(g, eps=0.1, init="degree_scaled", seed=2)
        slow = run_centralized(g, eps=0.1, init="uniform", seed=2)
        assert slow.iterations > 2 * fast.iterations

    def test_termination_bound_formula(self):
        x0 = np.array([0.25, 1.0])
        w = np.array([4.0, 4.0, 4.0])
        b = termination_bound(x0, w, eps=0.1)
        assert b == math.ceil(math.log(16.0) / math.log(1 / 0.9)) + 2

    def test_termination_bound_empty(self):
        assert termination_bound(np.empty(0), np.ones(3), eps=0.1) == 0


class TestCouplingInterface:
    def test_max_iterations_truncates(self, medium_random):
        full = run_centralized(medium_random, eps=0.1, seed=5)
        part = run_centralized(medium_random, eps=0.1, seed=5, max_iterations=2)
        assert part.iterations <= 2 < full.iterations

    def test_trace_shapes(self, small_random):
        res = run_centralized(small_random, eps=0.1, seed=6, trace=True)
        assert len(res.trace_y) == res.iterations
        assert len(res.trace_active) == res.iterations
        assert res.trace_y[0].shape == (small_random.n,)

    def test_shared_thresholds_reproduce(self, small_random):
        s1 = ThresholdSampler(99, small_random.n, 0.1)
        s2 = ThresholdSampler(99, small_random.n, 0.1)
        r1 = run_centralized(small_random, eps=0.1, thresholds=s1)
        r2 = run_centralized(small_random, eps=0.1, thresholds=s2)
        assert np.array_equal(r1.in_cover, r2.in_cover)
        assert np.array_equal(r1.x, r2.x)

    def test_explicit_init_array(self, small_random):
        from repro.core.initialization import degree_scaled_init

        x0 = degree_scaled_init(small_random)
        res = run_centralized(small_random, eps=0.1, init=x0, seed=0)
        assert small_random.is_vertex_cover(res.in_cover)

    def test_seed_reproducibility(self, small_random):
        a = run_centralized(small_random, eps=0.1, seed=42)
        b = run_centralized(small_random, eps=0.1, seed=42)
        assert np.array_equal(a.in_cover, b.in_cover)
        assert a.iterations == b.iterations


class TestValidationErrors:
    def test_bad_weights(self, triangle):
        with pytest.raises(ValueError):
            run_centralized(triangle, weights=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            run_centralized(triangle, weights=np.ones(2))

    def test_bad_init(self, triangle):
        with pytest.raises(ValueError, match="unknown init"):
            run_centralized(triangle, init="nope")
        with pytest.raises(ValueError, match="shape"):
            run_centralized(triangle, init=np.ones(7))
        with pytest.raises(ValueError, match="positive"):
            run_centralized(triangle, init=np.zeros(3))

    def test_bad_eps(self, triangle):
        with pytest.raises(ValueError):
            run_centralized(triangle, eps=0.9)

    def test_mismatched_sampler(self, triangle):
        with pytest.raises(ValueError, match="sampler"):
            run_centralized(triangle, thresholds=ThresholdSampler(0, 99, 0.1))


class TestWeightedOptima:
    def test_cheap_hub_star(self, cheap_hub_star):
        """On the light-hub star the algorithm should buy the hub, not the
        five heavy leaves: ratio vs OPT=1 must respect the guarantee."""
        res = run_centralized(cheap_hub_star, eps=0.05, seed=0)
        w_c = cheap_hub_star.cover_weight(res.in_cover)
        assert w_c <= (2 + 10 * 0.05) * 1.0 + 1e-9
        assert res.in_cover[0]

    def test_weighted_star_prefers_leaves(self, weighted_star):
        """Heavy hub (10) vs 5 unit leaves: OPT = 5; guarantee allows ≤ ~10.5
        but the dual schedule should actually find the leaves."""
        res = run_centralized(weighted_star, eps=0.05, seed=0)
        w_c = weighted_star.cover_weight(res.in_cover)
        assert w_c <= (2 + 10 * 0.05) * 5.0
