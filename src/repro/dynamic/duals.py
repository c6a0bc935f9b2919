"""Array-backed edge duals: the :class:`DualStore`.

The incremental maintainer carries a sparse fractional matching ``x_e`` over the
*current* edge set.  The original representation — ``Dict[(u, v), float]``
keyed by endpoint tuples — pays tuple allocation + tuple hashing on every
repair/retire, and serializes through a Python sort + per-key list walk.
:class:`DualStore` keeps the same mapping keyed by one ``int64`` *edge
code* ``(u << 32) | v`` instead:

* **Hot-path ops** (:meth:`~DualStore.add_pay`,
  :meth:`~DualStore.pop_codes`) hash a single small int — measurably
  cheaper than a tuple, and the code doubles as the canonical sort key
  (for ``u < v < 2**32`` the code order *is* the lexicographic key order).
* **Bulk I/O** is vectorized: :meth:`~DualStore.sorted_codes` /
  :meth:`~DualStore.from_codes` move the duals as a flat code array plus
  values, which is what checkpoint snapshots store
  (:func:`encode_edge_codes` / :func:`decode_edge_codes` convert whole key
  columns with two shifts and a mask), never as pickled tuple lists.

The only tuple-keyed view is :meth:`~DualStore.as_dict`, a plain-dict
copy for callers that want ``(u, v)`` keys.

Vertex ids must fit in an unsigned 32-bit lane (``0 <= v < 2**32``); the
dynamic-graph layer enforces the far stricter practical bound at
construction time.
"""

from __future__ import annotations

from typing import Dict, Tuple

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

    Integer-keyed updates for the repair kernels, vectorized array import
    and export for snapshots, and :meth:`as_dict` for a tuple-keyed copy.
    """

    __slots__ = ("_map",)

    def __init__(self):
        self._map: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DualStore({len(self._map)} edges)"

    # ------------------------------------------------------------------ #
    # integer fast paths (the vectorized kernels)
    # ------------------------------------------------------------------ #
    def add_pay(self, u: int, v: int, pay: float) -> None:
        """``x_(u, v) += pay`` without tuple allocation."""
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
        """A plain ``(u, v)``-keyed dict copy."""
        return {
            (code >> _SHIFT, code & _MASK): value
            for code, value in self._map.items()
        }
