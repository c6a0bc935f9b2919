"""Unit tests for the array-backed :class:`DualStore`."""

import numpy as np

from repro.dynamic.duals import DualStore, decode_edge_codes, encode_edge_codes


def _store(pairs):
    """A store holding ``{(u, v): x}``, built through the array path."""
    u, v = zip(*pairs) if pairs else ((), ())
    return DualStore.from_codes(
        encode_edge_codes(np.array(u), np.array(v)), np.array(list(pairs.values()))
    )


class TestKernelPaths:
    def test_add_pay_accumulates(self):
        store = DualStore()
        store.add_pay(2, 9, 0.5)
        store.add_pay(2, 9, 0.25)
        store.add_pay(0, 1, 1.0)
        assert store.as_dict() == {(2, 9): 0.75, (0, 1): 1.0}
        assert len(store) == 2

    def test_pop_codes_returns_values_in_order(self):
        store = _store({(1, 5): 0.5, (0, 2): 2.0})
        codes = encode_edge_codes(np.array([0, 3, 1]), np.array([2, 4, 5]))
        assert store.pop_codes(codes).tolist() == [2.0, 0.0, 0.5]
        assert store.as_dict() == {}
        assert store.pop_codes(codes[:1]).tolist() == [0.0]


class TestArrayIO:
    def test_sorted_codes_canonical(self):
        store = _store({(5, 9): 3.0, (0, 1): 1.0, (0, 7): 2.0})
        codes, vals = store.sorted_codes()
        u, v = decode_edge_codes(codes)
        assert list(zip(u.tolist(), v.tolist())) == [(0, 1), (0, 7), (5, 9)]
        assert vals.tolist() == [1.0, 2.0, 3.0]

    def test_empty_store_arrays(self):
        codes, cvals = DualStore().sorted_codes()
        assert codes.shape == (0,) and cvals.shape == (0,)
        assert codes.dtype == np.int64 and cvals.dtype == np.float64

    def test_round_trip_from_codes(self):
        pairs = {(3, 11): 0.5, (2, 4): 1.5}
        again = DualStore.from_codes(*_store(pairs).sorted_codes())
        assert again.as_dict() == pairs

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
