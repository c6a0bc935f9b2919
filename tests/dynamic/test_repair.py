"""Unit tests for :func:`repro.dynamic.repair.pricing_repair_pass`."""

import numpy as np
import pytest

from repro.dynamic import encode_edge_codes
from repro.dynamic.repair import pricing_repair_pass


def _all_present(u, v):
    return np.ones(len(u), dtype=bool)


def _pass(keys, weights, cover, loads, has_edges=_all_present):
    return pricing_repair_pass(
        np.array(keys, dtype=np.int64).reshape(-1, 2),
        weights=np.asarray(weights, dtype=np.float64),
        cover=cover,
        loads=loads,
        dual_value=1.0,
        has_edges=has_edges,
    )


class TestPricingRepairPass:
    @pytest.mark.parametrize(
        "keys, cover, has_edges",
        [
            ([], [False] * 4, _all_present),
            ([(0, 1)], [True, False, False, False], _all_present),
            ([(2, 3)], [False] * 4, lambda u, v: np.zeros(len(u), dtype=bool)),
        ],
        ids=["no-keys", "covered", "absent"],
    )
    def test_nothing_to_repair_pays_nothing(self, keys, cover, has_edges):
        out = _pass(keys, np.ones(4), np.array(cover), np.zeros(4), has_edges)
        assert out.repaired == 0 and out.entered == set()
        assert out.dual_value == 1.0
        assert out.paid_codes.dtype == np.int64 and out.paid_codes.shape == (0,)
        assert out.pays.dtype == np.float64 and out.pays.shape == (0,)

    def test_pays_the_smaller_residual_in_key_order(self):
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
        assert out.entered == {1, 2, 4}
        assert out.paid_codes.tolist() == encode_edge_codes([0, 2], [1, 3]).tolist()
        assert out.pays.tolist() == [1.0, 3.0]
        assert out.dual_value == 1.0 + 1.0 + 3.0
        assert loads.tolist() == [1.0, 1.0, 3.0, 3.0, 1.0, 0.25]
        assert cover.tolist() == [False, True, True, False, True, False]
