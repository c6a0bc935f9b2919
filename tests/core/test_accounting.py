"""Tests for the round-cost model."""

import dataclasses

import pytest

from repro.core.accounting import (
    broadcast_round_count,
    cluster_width,
    fanin_round_count,
    fanout_for,
    final_phase_cost,
    phase_cost,
)


class TestFanout:
    def test_capacity_division(self):
        assert fanout_for(1000, 100) == 10
        assert fanout_for(1000, 600) == 2  # floor at 2

    def test_unbounded(self):
        assert fanout_for(None, 100) == 1024

    def test_zero_item(self):
        assert fanout_for(1000, 0) == 1024


class TestBroadcastRounds:
    def test_zero_targets(self):
        assert broadcast_round_count(0, 4) == 0

    def test_single_target(self):
        assert broadcast_round_count(1, 4) == 1

    def test_doubling_with_fanout_1(self):
        # holders double each round: 1->2->4->8
        assert broadcast_round_count(7, 1) == 3

    def test_fanout_growth(self):
        # fanout 3: holders 1 -> 4 -> 16; 15 targets in 2 rounds
        assert broadcast_round_count(15, 3) == 2
        assert broadcast_round_count(16, 3) == 3

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            broadcast_round_count(5, 0)


class TestFaninRounds:
    def test_trivial(self):
        assert fanin_round_count(0, 4) == 0
        assert fanin_round_count(1, 4) == 0

    def test_single_level(self):
        assert fanin_round_count(4, 4) == 1
        assert fanin_round_count(5, 4) == 2

    def test_log_depth(self):
        assert fanin_round_count(64, 2) == 6

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            fanin_round_count(5, 1)


class TestPhaseCost:
    def test_breakdown_sums_to_total(self):
        cost = phase_cost(n=1000, n_high=800, num_workers=8, num_sim_machines=5, capacity=16000)
        steps = dataclasses.asdict(cost)
        assert len(steps) == 7  # steps A..G
        assert cost.total == sum(steps.values())

    def test_route_is_one_round(self):
        cost = phase_cost(n=100, n_high=50, num_workers=4, num_sim_machines=3, capacity=1600)
        assert cost.route_edges == 1

    def test_constant_in_n_for_fixed_workers(self):
        """Per-phase rounds depend on worker count and fan-outs, not on n
        directly (both scale with capacity = Θ(n))."""
        a = phase_cost(n=1000, n_high=900, num_workers=8, num_sim_machines=8, capacity=16000)
        b = phase_cost(n=100000, n_high=90000, num_workers=8, num_sim_machines=8, capacity=1600000)
        assert a.total == b.total

    def test_more_workers_more_tree_rounds(self):
        small = phase_cost(n=1000, n_high=900, num_workers=4, num_sim_machines=4, capacity=16000)
        big = phase_cost(n=1000, n_high=900, num_workers=4096, num_sim_machines=64, capacity=16000)
        assert big.total > small.total


class TestFinalPhaseCost:
    def test_positive(self):
        assert final_phase_cost(num_workers=4, remaining_edges=100, n=1000, capacity=16000) >= 2

    def test_grows_with_workers(self):
        a = final_phase_cost(num_workers=2, remaining_edges=100, n=1000, capacity=16000)
        b = final_phase_cost(num_workers=4096, remaining_edges=100, n=1000, capacity=16000)
        assert b > a


class TestClusterWidth:
    def test_minimum_two(self):
        assert cluster_width(n=10, m_edges=5, initial_machines=1, capacity=160) >= 2

    def test_storage_bound(self):
        # 4 words/edge must fit in a quarter of capacity per worker.
        w = cluster_width(n=1000, m_edges=100_000, initial_machines=2, capacity=16000)
        assert 4 * 100_000 / w <= 16000 / 4

    def test_sim_machines_respected(self):
        assert cluster_width(n=1000, m_edges=10, initial_machines=23, capacity=16000) >= 23

    def test_unbounded_capacity(self):
        assert cluster_width(n=10, m_edges=10**6, initial_machines=3, capacity=None) == 3
