"""Tests for the drift-bounded re-solve policy."""

import pytest

from repro.dynamic import ResolvePolicy


class TestValidation:
    def test_negative_drift_rejected(self):
        with pytest.raises(ValueError, match="max_drift"):
            ResolvePolicy(max_drift=-0.1)

    def test_bad_ceiling_rejected(self):
        with pytest.raises(ValueError, match="ratio_ceiling"):
            ResolvePolicy(ratio_ceiling=1.0)

    def test_bad_cooldown_rejected(self):
        with pytest.raises(ValueError, match="min_batches_between"):
            ResolvePolicy(min_batches_between=-1)

    def test_max_below_min_rejected(self):
        with pytest.raises(ValueError, match="max_batches_between"):
            ResolvePolicy(min_batches_between=5, max_batches_between=3)


class TestDecisions:
    def test_no_baseline_always_resolves(self):
        d = ResolvePolicy().should_resolve(
            certified_ratio=2.0, base_ratio=None, batches_since_resolve=0
        )
        assert d and "no adopted solution" in d.reason

    def test_within_budget_holds(self):
        d = ResolvePolicy(max_drift=0.25).should_resolve(
            certified_ratio=2.2, base_ratio=2.0, batches_since_resolve=3
        )
        assert not d

    def test_drift_bound_trips(self):
        d = ResolvePolicy(max_drift=0.25).should_resolve(
            certified_ratio=2.6, base_ratio=2.0, batches_since_resolve=3
        )
        assert d and "drift bound" in d.reason

    def test_ceiling_trips_before_drift(self):
        d = ResolvePolicy(max_drift=10.0, ratio_ceiling=2.5).should_resolve(
            certified_ratio=2.6, base_ratio=2.0, batches_since_resolve=3
        )
        assert d and "ceiling" in d.reason

    def test_cooldown_suppresses_drift(self):
        d = ResolvePolicy(max_drift=0.1, min_batches_between=5).should_resolve(
            certified_ratio=9.9, base_ratio=2.0, batches_since_resolve=2
        )
        assert not d and "cooldown" in d.reason

    def test_unbounded_overrides_cooldown(self):
        d = ResolvePolicy(min_batches_between=100).should_resolve(
            certified_ratio=float("inf"), base_ratio=2.0, batches_since_resolve=1
        )
        assert d and "unbounded" in d.reason

    def test_periodic_refresh(self):
        policy = ResolvePolicy(max_drift=100.0, max_batches_between=4)
        assert not policy.should_resolve(
            certified_ratio=2.0, base_ratio=2.0, batches_since_resolve=3
        )
        d = policy.should_resolve(
            certified_ratio=2.0, base_ratio=2.0, batches_since_resolve=4
        )
        assert d and "periodic refresh" in d.reason

    def test_every_batch(self):
        d = ResolvePolicy(every_batch=True).should_resolve(
            certified_ratio=1.0, base_ratio=1.0, batches_since_resolve=1
        )
        assert d and "every-batch" in d.reason

    def test_decision_is_truthy_wrapper(self):
        assert bool(
            ResolvePolicy(every_batch=True).should_resolve(
                certified_ratio=1.0, base_ratio=1.0, batches_since_resolve=1
            )
        )
