"""Tests for the full MPC MWVC algorithm (orchestrator + vectorized engine)."""

import numpy as np
import pytest

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.core.params import MPCParameters
from repro.graphs.generators import gnp_average_degree, power_law, star
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import (
    adversarial_spread_weights,
    degree_correlated_weights,
    uniform_weights,
)


class TestCorrectness:
    def test_returns_cover(self, named_graph):
        res = minimum_weight_vertex_cover(named_graph, eps=0.1, seed=0)
        assert res.verify(named_graph)
        assert res.certificate.is_cover

    def test_medium_random(self, medium_random):
        res = minimum_weight_vertex_cover(medium_random, eps=0.1, seed=1)
        assert res.verify(medium_random)
        assert res.cover_weight == pytest.approx(
            medium_random.cover_weight(res.in_cover)
        )

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.15, 0.2])
    def test_eps_sweep(self, medium_random, eps):
        res = minimum_weight_vertex_cover(medium_random, eps=eps, seed=2)
        assert res.verify(medium_random)
        assert res.certificate.certified_ratio <= 2.0 / (1 - 4 * eps) * (1.5)

    def test_eps_quarter_rejected(self, medium_random):
        """The approximation proof needs ε < 1/4 (Prop 3.3); enforced."""
        with pytest.raises(ValueError):
            minimum_weight_vertex_cover(medium_random, eps=0.25, seed=0)

    def test_empty_graph(self):
        g = WeightedGraph.empty(10)
        res = minimum_weight_vertex_cover(g, seed=0)
        assert res.cover_weight == 0.0
        assert res.num_phases == 0
        assert not res.in_cover.any()

    def test_single_edge(self):
        g = WeightedGraph.from_edge_list(2, [(0, 1)], weights=[1.0, 9.0])
        res = minimum_weight_vertex_cover(g, seed=0)
        assert res.verify(g)
        assert res.cover_weight <= 9.0

    def test_heterogeneous_weights(self):
        g = gnp_average_degree(600, 16.0, seed=3)
        g = g.with_weights(adversarial_spread_weights(g.n, 9.0, seed=4))
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=5)
        assert res.verify(g)
        # dual certificate sound even with 9 decades of weight spread
        assert res.certificate.opt_lower_bound <= res.cover_weight

    def test_power_law(self):
        g = power_law(1500, seed=6)
        g = g.with_weights(degree_correlated_weights(g, seed=7))
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=8)
        assert res.verify(g)

    def test_duals_near_feasible(self, medium_random):
        """Theorem 4.7's Σx ≤ (1+6ε)w per vertex, with empirical slack."""
        eps = 0.1
        res = minimum_weight_vertex_cover(medium_random, eps=eps, seed=9)
        loads = medium_random.incident_sums(res.x)
        # The w.h.p. bound is (1+6ε); measured load factors should be close.
        assert res.certificate.load_factor <= 1 + 10 * eps

    def test_frozen_vertices_paid(self, medium_random):
        """Cover vertices have nearly tight dual loads (the 2+O(ε) engine)."""
        eps = 0.1
        res = minimum_weight_vertex_cover(medium_random, eps=eps, seed=10)
        loads = medium_random.incident_sums(res.x)
        covered = res.in_cover
        # Theorem 4.7: Σ_{e∋v} x ≥ (1-16ε)w(v) for frozen v, up to the
        # laptop-scale estimator noise absorbed by the certificate.
        tight = loads[covered] >= (1 - 16 * eps) * medium_random.weights[covered] - 1e-9
        assert tight.mean() > 0.9


class TestDeterminism:
    def test_same_seed_same_result(self, medium_random):
        a = minimum_weight_vertex_cover(medium_random, eps=0.1, seed=77)
        b = minimum_weight_vertex_cover(medium_random, eps=0.1, seed=77)
        assert np.array_equal(a.in_cover, b.in_cover)
        assert np.array_equal(a.x, b.x)
        assert a.mpc_rounds == b.mpc_rounds

    def test_different_seeds_may_differ(self, medium_random):
        a = minimum_weight_vertex_cover(medium_random, eps=0.1, seed=1)
        b = minimum_weight_vertex_cover(medium_random, eps=0.1, seed=2)
        # both valid; covers usually differ (not required, but weights do
        # match the same guarantee)
        assert a.verify(medium_random) and b.verify(medium_random)


class TestPhaseStructure:
    def test_records_consistent(self):
        g = gnp_average_degree(2000, 64.0, seed=11)
        g = g.with_weights(uniform_weights(g.n, seed=12))
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=13)
        assert res.num_phases == len(res.phases)
        for i, p in enumerate(res.phases):
            assert p.phase_index == i
            assert p.num_machines >= 1
            assert p.iterations >= 1
            assert p.max_machine_edges <= p.num_local_edges
            assert p.rounds > 0
        # monotone average-degree decrease across phases
        degrees = [p.avg_degree for p in res.phases]
        assert all(a > b for a, b in zip(degrees, degrees[1:]))

    def test_rounds_sum(self):
        g = gnp_average_degree(1500, 48.0, seed=14)
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=15)
        phase_rounds = sum(p.rounds for p in res.phases)
        assert res.mpc_rounds > phase_rounds  # final phase adds rounds

    def test_small_graph_skips_phases(self):
        # 150 expected edges vs final-phase capacity 16*100/8 = 200: the
        # input fits one machine, so no compressed phase runs.
        g = gnp_average_degree(100, 3.0, seed=16)
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=16)
        assert res.num_phases == 0
        assert res.final_edges == g.m

    def test_trace_collection(self):
        g = gnp_average_degree(1200, 48.0, seed=17)
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=18, collect_trace=True)
        assert res.traces is not None
        assert len(res.traces) == res.num_phases
        plan, outcome = res.traces[0]
        assert len(outcome.trace_ytilde) == plan.iterations

    def test_no_trace_by_default(self, medium_random):
        res = minimum_weight_vertex_cover(medium_random, eps=0.1, seed=19)
        assert res.traces is None


class TestParameters:
    def test_params_override_eps(self, medium_random):
        params = MPCParameters(eps=0.2)
        res = minimum_weight_vertex_cover(medium_random, eps=0.05, params=params, seed=0)
        assert res.params.eps == 0.2

    def test_paper_preset_goes_straight_to_final(self, medium_random):
        """With the verbatim paper constants, log^30 n exceeds any feasible
        degree, so zero compressed phases run — the documented degeneracy."""
        res = minimum_weight_vertex_cover(
            medium_random, params=MPCParameters.paper(), seed=0
        )
        assert res.num_phases == 0
        assert res.verify(medium_random)

    def test_iterations_override(self):
        g = gnp_average_degree(1200, 48.0, seed=20)
        params = MPCParameters(eps=0.1, iterations_override=4)
        res = minimum_weight_vertex_cover(g, params=params, seed=21)
        assert all(p.iterations == 4 for p in res.phases)

    def test_unknown_engine(self, medium_random):
        with pytest.raises(ValueError, match="unknown engine"):
            minimum_weight_vertex_cover(medium_random, seed=0, engine="quantum")


class TestMetamorphic:
    def test_weight_scaling_invariance(self, medium_random):
        """Covers are invariant under w -> c·w (the algorithm is
        scale-free: thresholds, initializations and freezes all scale)."""
        a = minimum_weight_vertex_cover(medium_random, eps=0.1, seed=33)
        scaled = medium_random.with_weights(medium_random.weights * 1000.0)
        b = minimum_weight_vertex_cover(scaled, eps=0.1, seed=33)
        assert np.array_equal(a.in_cover, b.in_cover)

    def test_isolated_vertices_noop(self):
        g = gnp_average_degree(300, 12.0, seed=34)
        res_a = minimum_weight_vertex_cover(g, eps=0.1, seed=35)
        # append isolated vertices
        g2 = WeightedGraph(
            g.n + 50,
            g.edges_u,
            g.edges_v,
            np.concatenate([g.weights, np.ones(50)]),
        )
        res_b = minimum_weight_vertex_cover(g2, eps=0.1, seed=35)
        assert not res_b.in_cover[g.n :].any()
        assert res_b.cover_weight == pytest.approx(res_b.cover_weight)
        assert res_b.verify(g2)

    def test_star_with_cheap_hub(self):
        g = star(100)
        w = np.full(100, 50.0)
        w[0] = 1.0
        res = minimum_weight_vertex_cover(g.with_weights(w), eps=0.05, seed=36)
        assert res.verify(g)
        # OPT = 1 (hub); guarantee allows ≤ (2+30ε)·1 = 3.5 — so the cover
        # must be the hub alone (any leaf would cost 50).
        assert res.cover_weight <= 3.5
