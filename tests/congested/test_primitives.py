"""Tests for congested-clique collectives."""

import numpy as np
import pytest

from tests.clique_model import CongestedClique

from tests.clique_oracle import (
    aggregate_sum,
    allreduce_sum,
    broadcast_value,
    compute_degree_sum,
)


class TestPrimitives:
    def test_broadcast_one_round(self):
        cc = CongestedClique(6)
        out = broadcast_value(cc, 2, 3.5)
        assert cc.rounds == 1
        assert out == {i: 3.5 for i in range(6)}

    def test_aggregate_one_round(self):
        cc = CongestedClique(5)
        total = aggregate_sum(cc, {i: float(i) for i in range(5)})
        assert total == 10.0
        assert cc.rounds == 1

    def test_aggregate_missing_nodes(self):
        cc = CongestedClique(5)
        assert aggregate_sum(cc, {1: 2.0, 3: 3.0}) == 5.0

    def test_allreduce_two_rounds(self):
        cc = CongestedClique(4)
        out = allreduce_sum(cc, {i: 1.0 for i in range(4)})
        assert cc.rounds == 2
        assert out == {i: 4.0 for i in range(4)}

    def test_degree_sum(self):
        cc = CongestedClique(4)
        total = compute_degree_sum(cc, np.array([3, 1, 2, 0]))
        assert total == 6.0
        assert cc.rounds == 1

    def test_degree_shape_checked(self):
        cc = CongestedClique(4)
        with pytest.raises(ValueError):
            compute_degree_sum(cc, np.array([1, 2]))
