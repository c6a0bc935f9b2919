"""Tests for the deterministic threshold sampler."""

import numpy as np
import pytest

from repro.core.thresholds import ThresholdSampler


class TestThresholdSampler:
    def test_support(self):
        s = ThresholdSampler(0, 1000, eps=0.1)
        col = s.column(0)
        assert col.shape == (1000,)
        assert col.min() >= 0.6 and col.max() <= 0.8

    def test_deterministic_per_seed_and_t(self):
        a = ThresholdSampler(7, 50, eps=0.1)
        b = ThresholdSampler(7, 50, eps=0.1)
        assert np.array_equal(a.column(3), b.column(3))
        assert not np.array_equal(a.column(3), a.column(4))

    def test_different_seeds_differ(self):
        a = ThresholdSampler(7, 50, eps=0.1)
        b = ThresholdSampler(8, 50, eps=0.1)
        assert not np.array_equal(a.column(0), b.column(0))

    def test_cache_returns_same_object(self):
        s = ThresholdSampler(1, 10, eps=0.1)
        assert s.column(2) is s.column(2)

    def test_columns_read_only(self):
        s = ThresholdSampler(1, 10, eps=0.1)
        with pytest.raises(ValueError):
            s.column(0)[0] = 0.5

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            ThresholdSampler(1, 10, eps=0.1).column(-1)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            ThresholdSampler(1, 10, eps=0.6)
