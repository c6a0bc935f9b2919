"""Tests for the O(log n)-round LOCAL baseline."""

import math

from repro.baselines.local_baseline import local_round_by_round
from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.graphs.generators import gnp_average_degree
from repro.graphs.weights import adversarial_spread_weights, uniform_weights


class TestLocalBaseline:
    def test_returns_cover(self, medium_random):
        res = local_round_by_round(medium_random, eps=0.1, seed=0)
        assert medium_random.is_vertex_cover(res.in_cover)

    def test_rounds_equal_iterations_plus_one(self, medium_random):
        res = local_round_by_round(medium_random, eps=0.1, seed=1)
        assert res.mpc_rounds == res.iterations + 1

    def test_log_delta_rounds(self):
        g = gnp_average_degree(2000, 40.0, seed=2)
        g = g.with_weights(uniform_weights(g.n, seed=3))
        res = local_round_by_round(g, eps=0.1, seed=4)
        bound = math.log(g.max_degree) / math.log(1 / 0.9) + 3
        assert res.mpc_rounds <= bound

    def test_compression_wins_at_scale(self):
        """The headline comparison.  Two forms, both measured:

        * *structurally*, each compressed phase simulates many LOCAL
          iterations, so the phase count is far below the baseline's round
          count at any ε;
        * *in absolute rounds*, the compressed algorithm wins once ε is
          small (the baseline pays Θ(log Δ / ε) rounds while the phase
          count stays O(log log d̄)); at laptop scale the crossover sits
          near ε ≈ 0.05 because each phase costs ~11 rounds of collectives.
        """
        g = gnp_average_degree(8000, 128.0, seed=5)
        g = g.with_weights(uniform_weights(g.n, seed=6))
        ours_01 = minimum_weight_vertex_cover(g, eps=0.1, seed=7)
        base_01 = local_round_by_round(g, eps=0.1, seed=7)
        assert ours_01.num_phases * 4 < base_01.mpc_rounds

        ours_005 = minimum_weight_vertex_cover(g, eps=0.05, seed=7)
        base_005 = local_round_by_round(g, eps=0.05, seed=7)
        assert ours_005.mpc_rounds < base_005.mpc_rounds

    def test_uniform_init_much_slower_with_spread(self):
        g = gnp_average_degree(1000, 20.0, seed=8)
        g = g.with_weights(adversarial_spread_weights(g.n, 9.0, seed=9))
        fast = local_round_by_round(g, eps=0.1, init="degree_scaled", seed=10)
        slow = local_round_by_round(g, eps=0.1, init="uniform", seed=10)
        assert slow.mpc_rounds > 2 * fast.mpc_rounds
