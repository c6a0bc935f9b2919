"""Cross-engine tests: the cluster engine must reproduce the vectorized
engine decision-for-decision, and its measured rounds must equal the
vectorized engine's predictions (experiment E11 as a test)."""

import numpy as np
import pytest

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.graphs.generators import gnp_average_degree, power_law
from repro.graphs.weights import adversarial_spread_weights, uniform_weights


def _pair(graph, seed, **kwargs):
    rv = minimum_weight_vertex_cover(graph, seed=seed, engine="vectorized", **kwargs)
    rc = minimum_weight_vertex_cover(graph, seed=seed, engine="cluster", **kwargs)
    return rv, rc


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_covers_random(self, seed):
        g = gnp_average_degree(300, 18.0, seed=seed)
        g = g.with_weights(uniform_weights(g.n, seed=seed + 100))
        rv, rc = _pair(g, seed=seed, eps=0.1)
        assert np.array_equal(rv.in_cover, rc.in_cover)
        assert np.array_equal(rv.x, rc.x)

    def test_identical_on_power_law(self):
        g = power_law(400, seed=5)
        g = g.with_weights(uniform_weights(g.n, seed=6))
        rv, rc = _pair(g, seed=7, eps=0.1)
        assert np.array_equal(rv.in_cover, rc.in_cover)

    def test_identical_with_adversarial_weights(self):
        g = gnp_average_degree(250, 20.0, seed=8)
        g = g.with_weights(adversarial_spread_weights(g.n, 6.0, seed=9))
        rv, rc = _pair(g, seed=10, eps=0.1)
        assert np.array_equal(rv.in_cover, rc.in_cover)

    def test_round_prediction_matches_measurement(self):
        for seed in (3, 4):
            g = gnp_average_degree(300, 24.0, seed=seed)
            rv, rc = _pair(g, seed=seed, eps=0.1)
            assert rv.mpc_rounds == rc.mpc_rounds
            assert rv.num_phases == rc.num_phases
            for pv, pc in zip(rv.phases, rc.phases):
                assert pv.rounds == pc.rounds
                assert pv.max_machine_edges == pc.max_machine_edges

    def test_phase_records_match(self):
        g = gnp_average_degree(300, 24.0, seed=11)
        rv, rc = _pair(g, seed=12, eps=0.1)
        for pv, pc in zip(rv.phases, rc.phases):
            assert pv.as_dict() == pc.as_dict()

    def test_cluster_respects_capacity(self):
        """A completed cluster run certifies the memory/communication
        constraints were never violated (they raise otherwise)."""
        g = gnp_average_degree(400, 30.0, seed=13)
        rc = minimum_weight_vertex_cover(g, seed=13, engine="cluster")
        assert rc.verify(g)

    def test_protocol_traffic_pinned(self):
        """The cluster protocol's rounds and traffic on one fixed graph:
        a refactor of the engine must leave its messages unchanged."""
        g = gnp_average_degree(400, 30.0, seed=13)
        rc = minimum_weight_vertex_cover(g, seed=13, engine="cluster")
        assert rc.mpc_rounds == 24
        metrics = rc.cluster_metrics
        assert metrics["total_messages"] == 345
        assert metrics["total_words"] == 107696
        assert metrics["max_sent_words"] == 6400
        assert metrics["max_received_words"] == 5600
        assert metrics["memory_high_water"] == 2404

    def test_trace_equivalence(self):
        g = gnp_average_degree(300, 24.0, seed=14)
        rv = minimum_weight_vertex_cover(
            g, seed=15, engine="vectorized", collect_trace=True
        )
        rc = minimum_weight_vertex_cover(
            g, seed=15, engine="cluster", collect_trace=True
        )
        assert len(rv.traces) == len(rc.traces)
        for (pv, ov), (pc, oc) in zip(rv.traces, rc.traces):
            assert np.array_equal(ov.freeze_iter, oc.freeze_iter)
            assert np.array_equal(ov.x_high, oc.x_high)
            assert np.array_equal(ov.safety_frozen, oc.safety_frozen)
            assert len(ov.trace_ytilde) == len(oc.trace_ytilde)
            for tv, tc in zip(ov.trace_ytilde, oc.trace_ytilde):
                assert np.array_equal(tv, tc)
            for av, ac in zip(ov.trace_active, oc.trace_active):
                assert np.array_equal(av, ac)
