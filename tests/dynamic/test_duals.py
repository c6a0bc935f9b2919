"""Unit tests for the array-backed :class:`DualStore`."""

import numpy as np
import pytest

from repro.dynamic.duals import DualStore, decode_edge_codes, encode_edge_codes


class TestMappingProtocol:
    def test_tuple_keyed_get_set_pop(self):
        store = DualStore()
        store[(1, 5)] = 0.5
        assert (1, 5) in store
        assert store[(1, 5)] == 0.5
        assert store.get((1, 5)) == 0.5
        assert store.get((0, 2)) == 0.0
        assert store.pop((1, 5)) == 0.5
        assert (1, 5) not in store
        assert store.pop((1, 5), 0.0) == 0.0

    def test_missing_key_raises_with_tuple(self):
        store = DualStore()
        with pytest.raises(KeyError):
            store[(3, 4)]
        with pytest.raises(KeyError):
            del store[(3, 4)]

    def test_iteration_yields_tuples(self):
        pairs = {(0, 1): 1.0, (2, 7): 0.25}
        store = DualStore(pairs)
        assert dict(store.items()) == pairs
        assert set(store) == set(pairs)
        assert len(store) == 2

    def test_add_pay_accumulates(self):
        store = DualStore()
        store.add_pay(2, 9, 0.5)
        store.add_pay(2, 9, 0.25)
        assert store[(2, 9)] == 0.75

    def test_equality_with_dict_and_store(self):
        pairs = {(0, 3): 2.0}
        assert DualStore(pairs) == pairs
        assert DualStore(pairs) == DualStore(pairs)
        assert DualStore(pairs) != {(0, 3): 2.5}

    def test_copy_is_independent(self):
        store = DualStore({(1, 2): 1.0})
        clone = store.copy()
        clone[(1, 2)] = 9.0
        assert store[(1, 2)] == 1.0


class TestArrayIO:
    def test_sorted_codes_canonical(self):
        store = DualStore({(5, 9): 3.0, (0, 1): 1.0, (0, 7): 2.0})
        codes, vals = store.sorted_codes()
        u, v = decode_edge_codes(codes)
        assert list(zip(u.tolist(), v.tolist())) == [(0, 1), (0, 7), (5, 9)]
        assert vals.tolist() == [1.0, 2.0, 3.0]

    def test_empty_store_arrays(self):
        codes, cvals = DualStore().sorted_codes()
        assert codes.shape == (0,) and cvals.shape == (0,)
        assert codes.dtype == np.int64 and cvals.dtype == np.float64

    def test_round_trip_from_codes(self):
        store = DualStore({(3, 11): 0.5, (2, 4): 1.5})
        again = DualStore.from_codes(*store.sorted_codes())
        assert again == store

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

    def test_total(self):
        assert DualStore({(0, 1): 1.5, (2, 3): 0.5}).total() == 2.0
