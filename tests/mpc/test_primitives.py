"""Tests for the collective primitives and their round counts."""

import numpy as np
import pytest

from repro.core.accounting import broadcast_round_count, fanin_round_count, fanout_for
from repro.mpc.cluster import Cluster
from repro.mpc.exceptions import CommunicationLimitExceeded
from repro.mpc.primitives import aggregate_sum, broadcast, gather_concat

#: (machines, capacity S, item words) with two items fitting in S, as the
#: rule's floor of fan-out 2 needs: the fan-out ranges from exactly 2
#: (S = 40, 20-word items) to wider than the cluster.
_CAPACITY_GRID = [
    (m, s, w)
    for m in (2, 5, 17, 33)
    for s in (40, 100, 1000)
    for w in (1, 7, 20)
    if 2 * w <= s
]


def _within_capacity(c: Cluster, capacity: int) -> None:
    assert c.metrics.max_sent_words <= capacity
    assert c.metrics.max_received_words <= capacity


class TestBroadcast:
    def test_all_receive(self):
        c = Cluster(5, 1000)
        out = broadcast(c, 0, "t", np.arange(3), fanout=2)
        assert set(out.keys()) == {0, 1, 2, 3, 4}
        for v in out.values():
            assert np.array_equal(v, np.arange(3))

    def test_subset(self):
        c = Cluster(6, 1000)
        out = broadcast(c, 2, "t", 42, dst_ids=[1, 3], fanout=2)
        assert set(out.keys()) == {1, 3}

    def test_round_count_matches_accounting(self):
        for num_machines in (2, 3, 8, 17, 64):
            for fanout in (2, 3, 8):
                c = Cluster(num_machines, None)
                broadcast(c, 0, "t", 1.0, fanout=fanout)
                expected = broadcast_round_count(num_machines - 1, fanout)
                assert c.metrics.rounds == expected, (num_machines, fanout)

    @pytest.mark.parametrize("num_machines,capacity,words", _CAPACITY_GRID)
    def test_accounting_fanout_keeps_rounds_within_capacity(self, num_machines, capacity, words):
        c = Cluster(num_machines, capacity)
        fanout = fanout_for(capacity, words)
        out = broadcast(c, 0, "t", np.zeros(words), fanout=fanout)
        assert len(out) == num_machines
        _within_capacity(c, capacity)
        assert c.metrics.rounds == broadcast_round_count(num_machines - 1, fanout)

    def test_oversized_payload_raises(self):
        c = Cluster(3, 10)
        with pytest.raises(CommunicationLimitExceeded):
            broadcast(c, 0, "t", np.zeros(50), fanout=fanout_for(10, 50))

    def test_single_machine_no_rounds(self):
        c = Cluster(1, 10)
        out = broadcast(c, 0, "t", 5, fanout=2)
        assert out == {0: 5}
        assert c.metrics.rounds == 0


class TestAggregateSum:
    def test_total_correct(self):
        c = Cluster(6, 1000)
        partials = {i: np.full(4, float(i)) for i in range(6)}
        total = aggregate_sum(c, "t", partials, fanout=2)
        assert np.allclose(total, np.full(4, 15.0))

    def test_missing_machines_contribute_zero(self):
        c = Cluster(5, 1000)
        total = aggregate_sum(c, "t", {3: np.array([2.0]), 4: np.array([5.0])}, fanout=2)
        assert total.tolist() == [7.0]

    def test_round_count_matches_accounting(self):
        for participants in (2, 5, 9, 17):
            for fanout in (2, 4):
                c = Cluster(participants, None)
                partials = {i: np.ones(2) for i in range(participants)}
                aggregate_sum(c, "t", partials, fanout=fanout)
                assert c.metrics.rounds == fanin_round_count(participants, fanout)

    @pytest.mark.parametrize("num_machines,capacity,words", _CAPACITY_GRID)
    def test_accounting_fanout_keeps_rounds_within_capacity(self, num_machines, capacity, words):
        c = Cluster(num_machines, capacity)
        fanout = fanout_for(capacity, words)
        partials = {i: np.full(words, float(i)) for i in range(num_machines)}
        total = aggregate_sum(c, "t", partials, fanout=fanout)
        assert np.array_equal(total, np.full(words, float(sum(range(num_machines)))))
        _within_capacity(c, capacity)
        assert c.metrics.rounds == fanin_round_count(num_machines, fanout)

    @pytest.mark.parametrize(
        "machines", [[0], [0, 1, 2], [1, 2]], ids=["root-alone", "with-root", "without-root"]
    )
    def test_total_never_aliases_a_partial_and_partials_stay_untouched(self, machines):
        c = Cluster(3, 1000)
        partials = {i: np.full(4, float(i + 1)) for i in machines}
        before = {i: v.copy() for i, v in partials.items()}
        total = aggregate_sum(c, "t", partials, fanout=2)
        assert total.tolist() == [float(sum(i + 1 for i in machines))] * 4
        assert not any(np.shares_memory(total, v) for v in partials.values())
        assert all(np.array_equal(partials[i], before[i]) for i in machines)

    def test_shape_mismatch_rejected(self):
        c = Cluster(3, 1000)
        with pytest.raises(ValueError, match="shape"):
            aggregate_sum(c, "t", {0: np.ones(2), 1: np.ones(3)}, fanout=2)

    def test_empty_rejected(self):
        c = Cluster(3, 1000)
        with pytest.raises(ValueError):
            aggregate_sum(c, "t", {}, fanout=2)


class TestGatherConcat:
    def test_ordered_by_source(self):
        c = Cluster(4, 1000)
        parts = {
            2: np.array([20, 21]),
            1: np.array([10]),
            3: np.array([30]),
        }
        out = gather_concat(c, "t", parts, root=0, fanout=2)
        assert out.tolist() == [10, 20, 21, 30]

    def test_empty_parts_ok(self):
        c = Cluster(3, 1000)
        out = gather_concat(c, "t", {1: np.empty(0, np.int64), 2: np.array([5])}, fanout=2)
        assert out.tolist() == [5]

    def test_root_part_included(self):
        c = Cluster(3, 1000)
        out = gather_concat(c, "t", {0: np.array([1]), 2: np.array([9])}, fanout=2)
        assert out.tolist() == [1, 9]

    def test_round_count_matches_accounting(self):
        for num_machines in (2, 3, 9, 17, 64):
            for fanout in (2, 3, 8):
                c = Cluster(num_machines, None)
                parts = {i: np.array([i]) for i in range(1, num_machines)}
                out = gather_concat(c, "t", parts, root=0, fanout=fanout)
                assert out.tolist() == list(range(1, num_machines))
                expected = fanin_round_count(num_machines, fanout)
                assert c.metrics.rounds == expected, (num_machines, fanout)

    @pytest.mark.parametrize(
        "num_machines,capacity,words",
        # The root receives the whole gathered total, so it must fit in S.
        [(m, s, w) for m, s, w in _CAPACITY_GRID if w + m - 1 <= s],
    )
    def test_accounting_fanout_keeps_rounds_within_capacity(self, num_machines, capacity, words):
        # Split ``words`` over the workers; each part also carries its
        # one-word origin tag, so the rule is applied to what travels.
        pieces = np.array_split(np.arange(words), num_machines - 1)
        parts = {i: piece for i, piece in enumerate(pieces, start=1)}
        gathered_words = words + len(parts)
        c = Cluster(num_machines, capacity)
        fanout = fanout_for(capacity, gathered_words)
        out = gather_concat(c, "t", parts, root=0, fanout=fanout)
        assert out.tolist() == list(range(words))
        _within_capacity(c, capacity)
        assert c.metrics.rounds == fanin_round_count(num_machines, fanout)
