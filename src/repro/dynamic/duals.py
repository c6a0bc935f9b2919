"""Edge codes: one ``int64`` per canonical edge ``(u, v)``.

The dynamic layer keys every per-edge quantity by the *edge code*
``(u << 32) | v``.  For ``u < v < 2**32`` code order *is* the
lexicographic ``(u, v)`` order, so a sorted code array is a canonical
edge list.  The maintainer's duals are such an array plus a value array
(:meth:`~repro.dynamic.IncrementalCoverMaintainer.export_state`), which
is also what checkpoint snapshots store; :func:`encode_edge_codes` /
:func:`decode_edge_codes` convert whole key columns with two shifts and
a mask; :func:`search_codes` is the one membership search in a sorted
code array, shared by the dynamic graph and the maintainer.

Vertex ids must fit in an unsigned 32-bit lane (``0 <= v < 2**32``); the
dynamic-graph layer enforces the far stricter practical bound at
construction time.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["decode_edge_codes", "encode_edge_codes", "search_codes"]

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


def search_codes(
    sorted_codes: np.ndarray, codes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Insertion points of ``codes`` in a sorted code array, and which of
    them are members (one binary search — unlike ``np.isin``, it never
    re-sorts the haystack).  A member's insertion point is its index."""
    pos = np.searchsorted(sorted_codes, codes)
    if not sorted_codes.size:
        return pos, np.zeros(codes.shape, dtype=bool)
    return pos, sorted_codes[np.minimum(pos, sorted_codes.size - 1)] == codes
