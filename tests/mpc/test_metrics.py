"""Direct tests for the metrics records."""

from repro.mpc.metrics import ClusterMetrics


class TestClusterMetrics:
    def test_record_round_aggregates(self):
        m = ClusterMetrics()
        m.record_round(messages=3, total_words=30, max_sent_words=20, max_received_words=15)
        m.record_round(messages=1, total_words=5, max_sent_words=5, max_received_words=5)
        assert m.rounds == 2
        assert m.total_messages == 4
        assert m.total_words == 35
        assert m.max_sent_words == 20
        assert m.max_received_words == 15

    def test_observe_memory_monotone(self):
        m = ClusterMetrics()
        m.observe_memory(10)
        m.observe_memory(5)
        m.observe_memory(25)
        assert m.memory_high_water == 25

    def test_summary_keys(self):
        m = ClusterMetrics()
        s = m.summary()
        assert set(s) == {
            "rounds",
            "total_messages",
            "total_words",
            "max_sent_words",
            "max_received_words",
            "memory_high_water",
        }

    def test_empty_metrics(self):
        m = ClusterMetrics()
        assert m.rounds == 0
        assert m.summary()["total_words"] == 0
