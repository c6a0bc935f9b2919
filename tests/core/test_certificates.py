"""Tests for the duality certificates."""

import numpy as np
import pytest

from repro.baselines.exact import exact_mwvc
from repro.core.certificates import (
    CoverCertificate,
    certify_cover,
    fractional_matching_violation,
)
from repro.graphs.generators import gnp_average_degree
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights


class TestFractionalMatchingViolation:
    def test_feasible(self, triangle):
        x = np.full(3, 0.5)
        assert fractional_matching_violation(triangle, x) == pytest.approx(1.0)

    def test_infeasible(self, triangle):
        x = np.full(3, 0.6)
        assert fractional_matching_violation(triangle, x) == pytest.approx(1.2)

    def test_zero_duals(self, triangle):
        assert fractional_matching_violation(triangle, np.zeros(3)) == 0.0

    def test_negative_rejected(self, triangle):
        with pytest.raises(ValueError, match="nonnegative"):
            fractional_matching_violation(triangle, np.array([-0.1, 0, 0]))

    def test_shape_checked(self, triangle):
        with pytest.raises(ValueError):
            fractional_matching_violation(triangle, np.zeros(5))

    def test_weight_override(self, triangle):
        x = np.full(3, 0.5)
        v = fractional_matching_violation(triangle, x, weights=np.full(3, 2.0))
        assert v == pytest.approx(0.5)


class TestCertifyCover:
    def test_sound_lower_bound(self):
        """The certificate's OPT lower bound never exceeds the true OPT."""
        for seed in range(4):
            g = gnp_average_degree(30, 5.0, seed=seed)
            g = g.with_weights(uniform_weights(g.n, 1.0, 9.0, seed=seed + 50))
            opt = exact_mwvc(g).opt_weight
            # Feasible duals from the pricing baseline:
            from repro.baselines.pricing import pricing_vertex_cover

            pr = pricing_vertex_cover(g)
            cert = certify_cover(g, pr.in_cover, pr.x)
            assert cert.opt_lower_bound <= opt + 1e-9
            assert cert.certified_ratio >= pr.cover_weight / opt - 1e-9

    def test_detects_non_cover(self, triangle):
        cert = certify_cover(triangle, np.array([True, False, False]), np.zeros(3))
        assert not cert.is_cover

    def test_infeasible_duals_discounted(self, triangle):
        """Overscaled duals inflate load_factor, deflating the bound."""
        feasible = certify_cover(triangle, np.ones(3, bool), np.full(3, 0.5))
        inflated = certify_cover(triangle, np.ones(3, bool), np.full(3, 1.0))
        assert inflated.load_factor == pytest.approx(2.0)
        assert inflated.opt_lower_bound == pytest.approx(feasible.opt_lower_bound)

    def test_zero_dual_edgeless(self):
        g = WeightedGraph.empty(3)
        cert = certify_cover(g, np.zeros(3, bool), np.empty(0))
        assert cert.is_cover
        assert cert.certified_ratio == 1.0

    def test_zero_dual_nonzero_cover(self, triangle):
        cert = certify_cover(triangle, np.ones(3, bool), np.zeros(3))
        assert cert.certified_ratio == float("inf")

    def test_summary_keys(self, triangle):
        cert = certify_cover(triangle, np.ones(3, bool), np.full(3, 0.5))
        s = cert.summary()
        assert set(s) == {
            "is_cover",
            "cover_weight",
            "dual_value",
            "load_factor",
            "opt_lower_bound",
            "certified_ratio",
        }


class TestCertificateWireFormat:
    """`to_dict` — the exact form nested in stream records."""

    def test_round_trip(self, triangle):
        cert = certify_cover(triangle, np.ones(3, bool), np.full(3, 0.5))
        assert CoverCertificate(**cert.to_dict()) == cert

    def test_round_trip_through_json(self, triangle):
        import json

        cert = certify_cover(triangle, np.ones(3, bool), np.zeros(3))
        assert cert.certified_ratio == float("inf")  # survives JSON
        wire = json.loads(json.dumps(cert.to_dict()))
        assert CoverCertificate(**wire) == cert

    def test_summary_is_the_wire_format(self, triangle):
        cert = certify_cover(triangle, np.ones(3, bool), np.full(3, 0.5))
        assert cert.summary() == cert.to_dict()
