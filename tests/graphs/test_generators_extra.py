"""Tests for the extended graph families."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.graphs.generators_extra import (
    hypercube,
    preferential_attachment,
    random_geometric,
    stochastic_block_model,
)

from tests.oracles import validate_graph


def _num_components(g):
    adj = sp.csr_matrix((np.ones(g.m), (g.edges_u, g.edges_v)), shape=(g.n, g.n))
    return connected_components(adj, directed=False)[0]


class TestSBM:
    def test_valid_and_sized(self):
        g = stochastic_block_model([50, 50, 50], p_in=0.2, p_out=0.01, seed=1)
        validate_graph(g)
        assert g.n == 150

    def test_community_structure(self):
        g = stochastic_block_model([80, 80], p_in=0.3, p_out=0.005, seed=2)
        labels = np.repeat([0, 1], 80)
        lu, lv = g.endpoint_values(labels)
        internal = (lu == lv).sum()
        assert internal > 0.8 * g.m  # overwhelmingly intra-block

    def test_zero_probabilities(self):
        g = stochastic_block_model([10, 10], p_in=0.0, p_out=0.0, seed=3)
        assert g.m == 0

    def test_deterministic(self):
        a = stochastic_block_model([30, 30], 0.2, 0.02, seed=7)
        b = stochastic_block_model([30, 30], 0.2, 0.02, seed=7)
        assert a == b

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            stochastic_block_model([10], p_in=1.5, p_out=0.0)
        with pytest.raises(ValueError):
            stochastic_block_model([-1], p_in=0.5, p_out=0.0)


class TestGeometric:
    def test_valid(self):
        g = random_geometric(300, 0.1, seed=4)
        validate_graph(g)
        assert g.n == 300

    def test_radius_zero(self):
        assert random_geometric(50, 0.0, seed=5).m == 0

    def test_radius_full(self):
        g = random_geometric(20, 2.0, seed=6)
        assert g.m == 20 * 19 // 2  # unit square diameter < 2

    def test_deterministic(self):
        assert random_geometric(100, 0.15, seed=8) == random_geometric(100, 0.15, seed=8)

    def test_invalid(self):
        with pytest.raises(ValueError):
            random_geometric(-1, 0.1)
        with pytest.raises(ValueError):
            random_geometric(10, -0.1)


class TestHypercube:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5])
    def test_structure(self, d):
        g = hypercube(d)
        validate_graph(g)
        assert g.n == 2**d
        assert g.m == d * 2 ** (d - 1) if d else g.m == 0
        if d:
            assert (g.degrees == d).all()

    def test_connected(self):
        assert _num_components(hypercube(4)) == 1

    def test_bipartite_structure(self):
        g = hypercube(3)
        parity = np.array([bin(v).count("1") % 2 for v in range(8)])
        pu, pv = g.endpoint_values(parity)
        assert (pu != pv).all()  # all edges cross the parity classes

    def test_invalid(self):
        with pytest.raises(ValueError):
            hypercube(-1)


class TestPreferentialAttachment:
    def test_valid_connected(self):
        g = preferential_attachment(500, attachments=3, seed=9)
        validate_graph(g)
        assert _num_components(g) == 1

    def test_edge_count(self):
        k = 2
        g = preferential_attachment(100, attachments=k, seed=10)
        assert g.m == k + (100 - k - 1) * k

    def test_heavy_tail(self):
        g = preferential_attachment(3000, attachments=2, seed=11)
        assert g.max_degree > 8 * g.average_degree

    def test_deterministic(self):
        a = preferential_attachment(80, seed=12)
        b = preferential_attachment(80, seed=12)
        assert a == b

    def test_invalid(self):
        with pytest.raises(ValueError):
            preferential_attachment(2, attachments=3)
        with pytest.raises(ValueError):
            preferential_attachment(10, attachments=0)
