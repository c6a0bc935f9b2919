"""Tests for random vertex partitioning."""

import numpy as np
import pytest

from repro.mpc.partition import assignment_counts, local_edge_mask, random_assignment


class TestRandomAssignment:
    def test_range_and_shape(self):
        rng = np.random.default_rng(0)
        a = random_assignment(rng, 1000, 7)
        assert a.shape == (1000,)
        assert a.min() >= 0 and a.max() < 7

    def test_deterministic_per_seed(self):
        a = random_assignment(np.random.default_rng(5), 100, 4)
        b = random_assignment(np.random.default_rng(5), 100, 4)
        assert np.array_equal(a, b)

    def test_roughly_balanced(self):
        a = random_assignment(np.random.default_rng(1), 70000, 7)
        counts = assignment_counts(a, 7)
        assert counts.sum() == 70000
        assert counts.min() > 9000 and counts.max() < 11000

    def test_zero_items(self):
        a = random_assignment(np.random.default_rng(0), 0, 3)
        assert a.size == 0
        assert assignment_counts(a, 3).tolist() == [0, 0, 0]

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_assignment(rng, 5, 0)
        with pytest.raises(ValueError):
            random_assignment(rng, -1, 2)


class TestLocalEdgeMask:
    def test_local_detection(self):
        au = np.array([0, 1, 2, -1])
        av = np.array([0, 2, 2, -1])
        is_local, owner = local_edge_mask(au, av)
        assert is_local.tolist() == [True, False, True, False]
        assert owner.tolist() == [0, -1, 2, -1]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            local_edge_mask(np.zeros(3), np.zeros(4))
