"""Unit tests for the edge-code encoding of :mod:`repro.dynamic.duals`."""

import numpy as np

from repro.dynamic.duals import decode_edge_codes, encode_edge_codes


class TestEdgeCodes:
    def test_encode_decode_inverse(self):
        u = np.array([0, 17, 2**31 - 2], dtype=np.int64)
        v = np.array([1, 99, 2**31 - 1], dtype=np.int64)
        du, dv = decode_edge_codes(encode_edge_codes(u, v))
        assert du.tolist() == u.tolist()
        assert dv.tolist() == v.tolist()

    def test_code_order_equals_lexicographic_key_order(self):
        pairs = [(0, 5), (0, 2), (3, 4), (1, 100), (1, 2)]
        codes = encode_edge_codes(
            np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
        )
        by_code = [pairs[i] for i in np.argsort(codes)]
        assert by_code == sorted(pairs)
