"""Tests for the congested clique model."""

import numpy as np
import pytest

from repro.congested.clique import CliqueMessage, CongestedClique, LinkCapacityExceeded


class TestCongestedClique:
    def test_delivery_and_rounds(self):
        cc = CongestedClique(4)
        inboxes = cc.exchange([CliqueMessage(0, 1, 7.0), CliqueMessage(2, 1, 8.0)])
        assert [m.payload for m in inboxes[1]] == [7.0, 8.0]
        assert cc.rounds == 1

    def test_link_capacity_enforced(self):
        cc = CongestedClique(3, words_per_link=1)
        with pytest.raises(LinkCapacityExceeded):
            cc.exchange([CliqueMessage(0, 1, 1.0), CliqueMessage(0, 1, 2.0)])

    def test_distinct_links_unconstrained(self):
        # A node may receive one word from everyone simultaneously.
        cc = CongestedClique(10)
        msgs = [CliqueMessage(i, 0, float(i)) for i in range(1, 10)]
        inboxes = cc.exchange(msgs)
        assert len(inboxes[0]) == 9
        assert cc.max_node_inflow == 9

    def test_oversized_payload_rejected(self):
        cc = CongestedClique(3, words_per_link=2)
        with pytest.raises(LinkCapacityExceeded):
            cc.exchange([CliqueMessage(0, 1, np.zeros(3))])

    def test_self_message_rejected(self):
        cc = CongestedClique(3)
        with pytest.raises(ValueError, match="self-message"):
            cc.exchange([CliqueMessage(1, 1, 1.0)])

    def test_bad_node_id(self):
        cc = CongestedClique(3)
        with pytest.raises(ValueError, match="out of range"):
            cc.exchange([CliqueMessage(0, 7, 1.0)])

    def test_empty_exchange_is_a_round(self):
        cc = CongestedClique(3)
        assert cc.exchange([]) == {}
        assert cc.rounds == 1
        assert cc.total_messages == 0

    def test_summary(self):
        cc = CongestedClique(3)
        cc.exchange([CliqueMessage(0, 1, 1.0)])
        s = cc.summary()
        assert s["rounds"] == 1 and s["total_words"] == 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CongestedClique(0)
        with pytest.raises(ValueError):
            CongestedClique(3, words_per_link=0)
