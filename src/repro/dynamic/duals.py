"""Array-backed edge duals: the :class:`DualStore`.

The incremental maintainer carries a sparse fractional matching ``x_e`` over the
*current* edge set.  The original representation — ``Dict[(u, v), float]``
keyed by endpoint tuples — pays tuple allocation + tuple hashing on every
repair/retire, and serializes through a Python sort + per-key list walk.
:class:`DualStore` keeps the same mapping keyed by one ``int64`` *edge
code* ``(u << 32) | v`` instead:

* **Hot-path ops** (``add_pay``, ``pop``, membership) hash a single small
  int — measurably cheaper than a tuple, and the code doubles as the
  canonical sort key (for ``u < v < 2**32`` the code order *is* the
  lexicographic key order).
* **Bulk I/O** is vectorized: :meth:`sorted_codes` / :meth:`from_codes`
  move the duals as a flat code array plus values, which is what
  checkpoint snapshots store (:func:`encode_edge_codes` /
  :func:`decode_edge_codes` convert whole key columns with two shifts and
  a mask), never as pickled tuple lists.

The tuple-keyed mapping protocol (``store[(u, v)]``, ``.get``, ``.pop``,
iteration in insertion order) is kept so the reference kernels of
``tests/kernel_oracle.py`` and existing tests run unchanged against a
store.

Vertex ids must fit in an unsigned 32-bit lane (``0 <= v < 2**32``); the
dynamic-graph layer enforces the far stricter practical bound at
construction time.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union

import numpy as np

__all__ = ["DualStore", "decode_edge_codes", "encode_edge_codes"]

EdgeKey = Tuple[int, int]

#: Bit width of the ``v`` lane inside an edge code.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1


def encode_edge_codes(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized ``(u << 32) | v`` over canonical (``u < v``) endpoint arrays.

    Because both lanes are below ``2**32`` and ``u < v``, code order equals
    lexicographic ``(u, v)`` order — sorting codes sorts keys.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return (u << _SHIFT) | v


def decode_edge_codes(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_edge_codes`: codes → ``(u, v)`` arrays."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes >> _SHIFT, codes & _MASK


class DualStore:
    """Sparse per-edge duals keyed by encoded ``int64`` edge codes.

    Behaves as a mutable mapping from canonical ``(u, v)`` tuples to
    floats (the legacy protocol), while exposing integer-keyed fast paths
    and vectorized array import/export for the hot kernels.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Union["DualStore", Mapping[EdgeKey, float], None] = None):
        if mapping is None:
            self._map: Dict[int, float] = {}
        elif isinstance(mapping, DualStore):
            self._map = dict(mapping._map)
        else:
            self._map = {
                (int(u) << _SHIFT) | int(v): float(x)
                for (u, v), x in mapping.items()
            }

    # ------------------------------------------------------------------ #
    # tuple-keyed mapping protocol (legacy/reference-kernel compatibility)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _code(key: EdgeKey) -> int:
        u, v = key
        return (int(u) << _SHIFT) | int(v)

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def __contains__(self, key: EdgeKey) -> bool:
        return self._code(key) in self._map

    def __getitem__(self, key: EdgeKey) -> float:
        try:
            return self._map[self._code(key)]
        except KeyError:
            raise KeyError(key) from None

    def __setitem__(self, key: EdgeKey, value: float) -> None:
        self._map[self._code(key)] = float(value)

    def __delitem__(self, key: EdgeKey) -> None:
        try:
            del self._map[self._code(key)]
        except KeyError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[EdgeKey]:
        for code in self._map:
            yield (code >> _SHIFT, code & _MASK)

    def keys(self) -> Iterator[EdgeKey]:
        return iter(self)

    def items(self) -> Iterator[Tuple[EdgeKey, float]]:
        for code, value in self._map.items():
            yield (code >> _SHIFT, code & _MASK), value

    def values(self) -> Iterable[float]:
        return self._map.values()

    def get(self, key: EdgeKey, default: float = 0.0) -> float:
        return self._map.get(self._code(key), default)

    def pop(self, key: EdgeKey, default: float = 0.0) -> float:
        return self._map.pop(self._code(key), default)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DualStore):
            return self._map == other._map
        if isinstance(other, Mapping):
            return self.as_dict() == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DualStore({len(self._map)} edges)"

    # ------------------------------------------------------------------ #
    # integer fast paths (the vectorized kernels)
    # ------------------------------------------------------------------ #
    def add_pay(self, u: int, v: int, pay: float) -> None:
        """``store[(u, v)] += pay`` without tuple allocation."""
        code = (u << _SHIFT) | v
        m = self._map
        m[code] = m.get(code, 0.0) + pay

    def pop_codes(self, codes: np.ndarray) -> np.ndarray:
        """Remove the given edge codes; their values in order (0.0 where absent)."""
        pop = self._map.pop
        return np.array(
            [pop(code, 0.0) for code in codes.tolist()], dtype=np.float64
        )

    # ------------------------------------------------------------------ #
    # vectorized array I/O
    # ------------------------------------------------------------------ #
    def sorted_codes(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(codes, values)`` sorted by code (== canonical key order)."""
        if not self._map:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        codes = np.fromiter(self._map.keys(), dtype=np.int64, count=len(self._map))
        order = np.argsort(codes)
        codes = codes[order]
        values = np.fromiter(
            self._map.values(), dtype=np.float64, count=len(self._map)
        )[order]
        return codes, values

    @classmethod
    def from_codes(cls, codes: np.ndarray, values: np.ndarray) -> "DualStore":
        """Build from an edge-code array + value array (any order)."""
        store = cls()
        store._map = dict(
            zip(
                np.asarray(codes, dtype=np.int64).tolist(),
                np.asarray(values, dtype=np.float64).tolist(),
            )
        )
        return store

    def as_dict(self) -> Dict[EdgeKey, float]:
        """A plain tuple-keyed dict copy (the legacy public form)."""
        return {
            (code >> _SHIFT, code & _MASK): value
            for code, value in self._map.items()
        }

    def copy(self) -> "DualStore":
        return DualStore(self)

    def total(self) -> float:
        """``Σ_e x_e`` over the stored edges."""
        return float(sum(self._map.values()))
