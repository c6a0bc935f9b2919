"""Tests for the symbolic evaluation of the paper's asymptotic formulas."""

import math

import pytest

from repro.core.asymptotics import (
    paper_gamma,
    paper_phase_recursion,
    predict,
)


class TestGamma:
    def test_formula(self):
        eps = 0.1
        expected = math.log(1 / 0.9) / (40 * math.log(15))
        assert paper_gamma(eps) == pytest.approx(expected)

    def test_in_unit_interval(self):
        for eps in (0.01, 0.1, 0.2):
            assert 0 < paper_gamma(eps) < 1

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            paper_gamma(0.3)


#: n = 10^(10^30): comfortably past the "sufficiently large n" threshold
#: n > 10^(10^10) at eps = 0.1 (the recursion's fixed point e^714 must sit
#: below the stop threshold 30·log log n).
_HUGE_LOG10_N = 1e30


class TestRecursion:
    def test_monotone_decreasing(self):
        log_n = _HUGE_LOG10_N * math.log(10)
        traj = paper_phase_recursion(3000.0 * math.log(10), log_n, eps=0.1)
        assert len(traj) > 2
        assert all(a > b for a, b in zip(traj, traj[1:]))

    def test_terminates_at_threshold(self):
        log_n = _HUGE_LOG10_N * math.log(10)
        traj = paper_phase_recursion(3000.0 * math.log(10), log_n, eps=0.1)
        stop = 30 * math.log(log_n)
        assert traj[-1] <= stop

    def test_already_below_threshold(self):
        # d small relative to log^30 n: zero phases.
        traj = paper_phase_recursion(math.log(10.0), math.log(1e9), eps=0.1)
        assert len(traj) == 1

    def test_sufficiently_large_n_is_gigantic(self):
        """The documented finding: at n = 10^10000 (already absurd) the
        recursion cannot reach log^30 n — the fixed point sits above it."""
        with pytest.raises(RuntimeError, match="converge"):
            paper_phase_recursion(5000.0 * math.log(10), 1e4 * math.log(10), eps=0.1)


class TestDoublyLogGrowth:
    def test_loglog_signature(self):
        """Phase counts grow linearly in log log d: multiplying log d by 10
        adds a constant number of phases."""
        eps = 0.1
        counts = [
            predict(_HUGE_LOG10_N, log10_d, eps).phases_recursion
            for log10_d in (3e3, 3e4, 3e5)
        ]
        d1 = counts[1] - counts[0]
        d2 = counts[2] - counts[1]
        assert d1 > 0 and d2 > 0
        assert abs(d2 - d1) <= 0.25 * d1

    def test_closed_form_tracks_recursion(self):
        eps = 0.1
        for log10_d in (3e3, 3e4):
            pred = predict(_HUGE_LOG10_N, log10_d, eps)
            # The closed form bounds the recursion count (up to the additive
            # slack of the final contraction steps near the threshold).
            assert pred.phases_closed_form >= 0.5 * pred.phases_recursion

    def test_baseline_grows_much_faster(self):
        pred = predict(_HUGE_LOG10_N, 3e4, eps=0.1)
        assert pred.local_iterations > 50 * pred.phases_recursion


class TestPredict:
    def test_degree_cannot_exceed_n(self):
        with pytest.raises(ValueError):
            predict(10.0, 20.0)

    def test_as_dict(self):
        d = predict(_HUGE_LOG10_N, 3e3).as_dict()
        assert d["log10_d"] == 3e3
        assert d["paper_phases (recursion)"] >= 1
