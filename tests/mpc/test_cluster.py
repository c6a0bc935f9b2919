"""Tests for the synchronous cluster and its constraint enforcement."""

import numpy as np
import pytest

from repro.mpc.cluster import Cluster
from repro.mpc.exceptions import CommunicationLimitExceeded, ProtocolError
from repro.mpc.message import Message


class TestExchange:
    def test_delivery(self):
        c = Cluster(3, 100)
        inboxes = c.exchange([Message(0, 1, "a", 7), Message(2, 1, "b", 8)])
        payloads = [m.payload for m in inboxes[1]]
        assert payloads == [7, 8]
        assert c.metrics.rounds == 1

    def test_round_counting(self):
        c = Cluster(2, 100)
        c.exchange([])
        c.local_round()
        assert c.metrics.rounds == 2

    def test_deterministic_inbox_order(self):
        c = Cluster(4, 100)
        msgs = [Message(2, 0, "x", 1), Message(1, 0, "x", 2), Message(3, 0, "x", 3)]
        inboxes = c.exchange(msgs)
        assert [m.src for m in inboxes[0]] == [1, 2, 3]

    def test_send_limit_enforced(self):
        c = Cluster(3, 10)
        msgs = [Message(0, 1, "a", np.zeros(6)), Message(0, 2, "a", np.zeros(6))]
        with pytest.raises(CommunicationLimitExceeded) as ei:
            c.exchange(msgs)
        assert ei.value.direction == "sent"

    def test_receive_limit_enforced(self):
        c = Cluster(3, 10)
        msgs = [Message(0, 2, "a", np.zeros(6)), Message(1, 2, "a", np.zeros(6))]
        with pytest.raises(CommunicationLimitExceeded) as ei:
            c.exchange(msgs)
        assert ei.value.direction == "received"

    def test_limit_is_per_round(self):
        c = Cluster(2, 10)
        for _ in range(5):
            c.exchange([Message(0, 1, "a", np.zeros(10))])
        assert c.metrics.total_words == 50

    def test_unknown_machine_rejected(self):
        c = Cluster(2, 10)
        with pytest.raises(ProtocolError):
            c.exchange([Message(0, 5, "a", 1)])
        with pytest.raises(ProtocolError):
            c.machine(9)

    def test_metrics_aggregation(self):
        c = Cluster(3, 100)
        c.exchange([Message(0, 1, "a", np.zeros(7))])
        c.exchange([Message(1, 2, "a", np.zeros(3)), Message(0, 2, "b", np.zeros(4))])
        s = c.metrics.summary()
        assert s["rounds"] == 2
        assert s["total_messages"] == 3
        assert s["total_words"] == 14
        assert s["max_received_words"] == 7

    def test_single_machine_cluster(self):
        c = Cluster(1, 10)
        c.local_round()
        assert c.metrics.rounds == 1

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Cluster(0, 10)

    def test_memory_high_water_observed(self):
        c = Cluster(2, 100)
        c.machine(1).store("x", np.zeros(60))
        c.exchange([])
        assert c.metrics.memory_high_water == 60
