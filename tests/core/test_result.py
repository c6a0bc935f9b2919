"""Tests for the result types."""

import numpy as np
import pytest

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.graphs.generators import gnp_average_degree
from repro.graphs.weights import uniform_weights


@pytest.fixture(scope="module")
def result_and_graph():
    g = gnp_average_degree(1000, 32.0, seed=90)
    g = g.with_weights(uniform_weights(g.n, seed=91))
    return minimum_weight_vertex_cover(g, eps=0.1, seed=92), g


class TestMWVCResult:
    def test_cover_size_counts_mask(self, result_and_graph):
        res, _ = result_and_graph
        assert res.cover_size() == np.flatnonzero(res.in_cover).size

    def test_verify(self, result_and_graph):
        res, g = result_and_graph
        assert res.verify(g)

    def test_summary_keys(self, result_and_graph):
        res, _ = result_and_graph
        s = res.summary()
        for key in ("cover_weight", "cover_size", "num_phases", "mpc_rounds", "engine"):
            assert key in s

    def test_weights_consistent(self, result_and_graph):
        res, g = result_and_graph
        assert res.cover_weight == pytest.approx(g.cover_weight(res.in_cover))
        assert res.dual_value == pytest.approx(float(res.x.sum()))

    def test_phase_records_as_dict(self, result_and_graph):
        res, _ = result_and_graph
        for p in res.phases:
            d = p.as_dict()
            assert d["phase_index"] == p.phase_index
            assert set(d) >= {"avg_degree", "num_machines", "iterations", "rounds"}

    def test_vectorized_has_no_cluster_metrics(self, result_and_graph):
        res, _ = result_and_graph
        assert res.cluster_metrics is None

    def test_cluster_metrics_populated(self):
        g = gnp_average_degree(200, 10.0, seed=93)
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=94, engine="cluster")
        assert res.cluster_metrics is not None
        assert res.cluster_metrics["rounds"] == res.mpc_rounds
