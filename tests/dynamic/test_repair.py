"""Unit tests for :func:`repro.dynamic.repair.pricing_repair_pass`."""

import numpy as np
import pytest

from repro.dynamic import encode_edge_codes
from repro.dynamic.repair import pricing_repair_pass


def _pass(pairs, weights, cover, loads):
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return pricing_repair_pass(
        encode_edge_codes(u, v),
        weights=np.asarray(weights, dtype=np.float64),
        cover=cover,
        loads=loads,
        dual_value=1.0,
    )


class TestPricingRepairPass:
    @pytest.mark.parametrize(
        "pairs, cover",
        [([], [False] * 4), ([(0, 1)], [True, False, False, False])],
        ids=["no-codes", "covered"],
    )
    def test_nothing_to_repair_pays_nothing(self, pairs, cover):
        out = _pass(pairs, np.ones(4), np.array(cover), np.zeros(4))
        assert out.repaired == 0 and out.entered == 0
        assert out.dual_value == 1.0
        assert out.paid_codes.dtype == np.int64 and out.paid_codes.shape == (0,)
        assert out.pays.dtype == np.float64 and out.pays.shape == (0,)

    def test_pays_the_smaller_residual_in_code_order(self):
        cover = np.zeros(6, dtype=bool)
        loads = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.25])
        # Edge (1, 2) is covered by the time it is reached: (0, 1) put
        # vertex 1 in.  Edge (4, 5) has vertex 4 fully paid, so it pays
        # nothing and vertex 4 enters for free.
        out = _pass(
            [(0, 1), (1, 2), (2, 3), (4, 5)], [2.0, 1.0, 3.0, 4.0, 1.0, 1.0],
            cover, loads,
        )
        assert out.repaired == 3
        assert out.entered == 3  # vertices 1, 2 and 4
        assert out.paid_codes.tolist() == encode_edge_codes([0, 2], [1, 3]).tolist()
        assert out.pays.tolist() == [1.0, 3.0]
        assert out.dual_value == 1.0 + 1.0 + 3.0
        assert loads.tolist() == [1.0, 1.0, 3.0, 3.0, 1.0, 0.25]
        assert cover.tolist() == [False, True, True, False, True, False]

    def test_a_tie_puts_both_endpoints_in(self):
        cover = np.zeros(2, dtype=bool)
        loads = np.array([0.5, 0.0])
        out = _pass([(0, 1)], [1.5, 1.0], cover, loads)
        assert out.repaired == 1 and out.entered == 2
        assert out.pays.tolist() == [1.0]
        assert cover.tolist() == [True, True]
