"""Mutable graph view: a canonical snapshot plus a CSR-delta overlay.

:class:`~repro.graphs.WeightedGraph` is deliberately immutable — every
algorithm in the package depends on its canonical CSR edge order.  A
dynamic workload therefore needs a wrapper that absorbs updates cheaply and
re-canonicalizes only occasionally:

* **Base CSR.**  A frozen :class:`WeightedGraph` snapshot, unpacked into
  flat row-sorted ``indptr``/``indices`` arrays with an *aliveness* mask
  per adjacency slot.  Deleting a snapshot edge flips two mask bits (found
  by binary search in the sorted rows); it never rebuilds anything.
* **Overlay.**  Edges inserted since the snapshot live in small per-vertex
  sets plus an edge-code set (O(1) insert *and* delete); a maintained
  degree vector absorbs every structural change, so ``degree(v)`` is one
  array read.
* **Compaction.**  :meth:`compact` folds the delta into a fresh canonical
  snapshot (one O(m log m) rebuild); :meth:`maybe_compact` does so only
  once the structural delta exceeds a configurable fraction of the
  snapshot, so a stream of k updates costs O(k) amortized plus a rebuild
  every Θ(m) structural changes.

Neighbor queries answer against the *current* graph — base CSR minus
deletions plus insertions.  :meth:`neighbors` returns a flat ``int64``
array (a zero-copy CSR slice when the vertex has no pending deletions or
overlay edges), which is what the vectorized repair/prune kernels in
:mod:`repro.dynamic.repair` consume directly; :meth:`has_edges` answers
whole frontier-presence queries with one ``searchsorted`` against the
sorted base edge codes.  Edge identity uses the ``(u << 32) | v`` code of
:mod:`repro.dynamic.duals`, so presence checks hash one int, never a
tuple.

:meth:`materialize` produces the current graph as a canonical
:class:`WeightedGraph` (memoized until the next mutation); its
:meth:`~repro.graphs.WeightedGraph.content_digest` is the identity used to
key warm-started re-solves in the service result cache.

:meth:`state_stamp` is the cheap identity a durable stream stamps into
every write-ahead-log record: a 64-bit multiset hash of the current edge
codes (a sum mod 2**64 of per-edge hashes, so the base part is computed
once per compaction and the delta part costs O(delta)) plus a hash of the
weight vector.  It never materializes the graph.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.dynamic.duals import _SHIFT, decode_edge_codes, encode_edge_codes
from repro.graphs.graph import WeightedGraph
from repro.graphs.updates import EdgeDelete, EdgeInsert, GraphUpdate, WeightChange

__all__ = ["DynamicGraph"]

#: Vertex ids must fit the ``u`` lane of an edge code with headroom for
#: the sign bit: ``u << 32`` stays positive for ``u < 2**31``.
_MAX_N = 1 << 31

_MASK64 = (1 << 64) - 1
#: splitmix64 finalizer constants.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _edge_set_hash(codes: np.ndarray) -> int:
    """Sum mod 2**64 of a splitmix64 finalizer over each edge code.

    A sum is order-free, so the hash of an edge *set* splits over any
    partition of it: ``hash(current) = hash(base) - hash(deleted) +
    hash(added)``.  uint64 array arithmetic wraps silently.
    """
    if not codes.size:
        return 0
    z = codes.astype(np.uint64)
    z += _GOLDEN
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return int(z.sum(dtype=np.uint64))


def _sorted_member(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Membership of ``codes`` in a sorted code array (binary search —
    unlike ``np.isin``, never re-sorts the haystack)."""
    if not sorted_codes.size:
        return np.zeros(codes.shape, dtype=bool)
    pos = np.minimum(
        np.searchsorted(sorted_codes, codes), sorted_codes.size - 1
    )
    return sorted_codes[pos] == codes


class DynamicGraph:
    """A vertex-weighted graph under edge churn and weight changes.

    Parameters
    ----------
    base:
        Initial graph (the vertex set stays fixed at ``base.n``).
    compact_fraction:
        :meth:`maybe_compact` folds the delta log into a new snapshot once
        ``delta_size > max(min_compact, compact_fraction * snapshot_m)``.
    min_compact:
        Floor for the compaction trigger (avoids thrashing on tiny graphs).
    """

    def __init__(
        self,
        base: WeightedGraph,
        *,
        compact_fraction: float = 0.25,
        min_compact: int = 256,
    ):
        if compact_fraction <= 0:
            raise ValueError(f"compact_fraction must be > 0, got {compact_fraction}")
        if base.n >= _MAX_N:
            raise ValueError(
                f"DynamicGraph supports at most {_MAX_N - 1} vertices "
                f"(edge codes pack both endpoints into one int64), got {base.n}"
            )
        self.compact_fraction = float(compact_fraction)
        self.min_compact = int(min_compact)
        self._weights = np.array(base.weights, dtype=np.float64)  # mutable copy
        self._generation = 0
        self._compactions = 0
        self._set_base(base)
        # At construction the snapshot *is* the current graph.
        self._materialized = base

    def _set_base(self, base: WeightedGraph) -> None:
        self._base = base
        n, m = base.n, base.m
        self._n = n
        # Row-sorted CSR (WeightedGraph's lazy CSR groups by head but is
        # not sorted within a row; the delta layer wants deterministic,
        # binary-searchable rows).
        heads = np.concatenate([base.edges_u, base.edges_v])
        tails = np.concatenate([base.edges_v, base.edges_u])
        if m:
            order = np.lexsort((tails, heads))
            tails = np.ascontiguousarray(tails[order])
            # Slot of edge e's two directed entries in the sorted CSR —
            # one O(1) lookup per delete instead of two row searches.
            inv = np.empty(2 * m, dtype=np.int64)
            inv[order] = np.arange(2 * m, dtype=np.int64)
            self._slot_uv = inv[:m]
            self._slot_vu = inv[m:]
        else:
            self._slot_uv = np.empty(0, np.int64)
            self._slot_vu = np.empty(0, np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
        self._indptr = indptr
        self._adj = tails.astype(np.int64, copy=False)
        # neighbors() hands out zero-copy slices of this array; freeze it
        # so a caller mutating the result fails loudly instead of
        # corrupting the shared adjacency.
        self._adj.setflags(write=False)
        self._alive = np.ones(self._adj.shape[0], dtype=bool)
        # Canonical edges are lex-sorted, so their codes arrive sorted.
        self._base_codes = encode_edge_codes(base.edges_u, base.edges_v)
        self._base_code_set: Set[int] = set(self._base_codes.tolist())
        self._base_keep = np.ones(m, dtype=bool)
        self._degrees = base.degrees.astype(np.int64).copy()
        self._added_codes: Set[int] = set()
        self._deleted_codes: Set[int] = set()
        self._added_adj: Dict[int, Set[int]] = {}
        self._delta_arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._materialized: Optional[WeightedGraph] = None
        self._base_hash: Optional[int] = None  # lazy: plain streams never stamp

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of vertices (fixed)."""
        return self._base.n

    @property
    def m(self) -> int:
        """Current number of edges."""
        return self._base.m - len(self._deleted_codes) + len(self._added_codes)

    @property
    def weights(self) -> np.ndarray:
        """Current vertex weights (live array — mutate via :meth:`apply` only)."""
        return self._weights

    @property
    def base(self) -> WeightedGraph:
        """The canonical snapshot under the delta log."""
        return self._base

    @property
    def delta_size(self) -> int:
        """Structural updates (inserts + deletes) pending since the snapshot."""
        return len(self._added_codes) + len(self._deleted_codes)

    @property
    def generation(self) -> int:
        """Monotone counter bumped by every effective update (cache invalidation)."""
        return self._generation

    @property
    def compactions(self) -> int:
        """Number of snapshot rebuilds performed so far."""
        return self._compactions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(n={self.n}, m={self.m}, delta={self.delta_size}, "
            f"generation={self._generation})"
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _check_vertex(self, v: int) -> int:
        v = int(v)
        if not (0 <= v < self._n):
            raise ValueError(f"vertex {v} out of range [0, {self._n})")
        return v

    def has_edge(self, u: int, v: int) -> bool:
        """True iff edge ``{u, v}`` exists in the current graph."""
        u, v = self._check_vertex(u), self._check_vertex(v)
        if u == v:
            return False
        code = (u << _SHIFT) | v if u < v else (v << _SHIFT) | u
        if code in self._added_codes:
            return True
        return code in self._base_code_set and code not in self._deleted_codes

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized presence of canonical ``(u, v)`` endpoint arrays.

        The whole-frontier form of :meth:`has_edge`.  Small frontiers (the
        per-batch repair prepass) answer from the O(1) code sets directly;
        large ones go through one ``searchsorted`` against the sorted base
        codes plus two delta binary searches.
        """
        codes = encode_edge_codes(u, v)
        if codes.size <= 128:
            added = self._added_codes
            deleted = self._deleted_codes
            base = self._base_code_set
            return np.fromiter(
                (
                    c in added or (c in base and c not in deleted)
                    for c in codes.tolist()
                ),
                dtype=bool,
                count=codes.size,
            )
        present = _sorted_member(self._base_codes, codes)
        added_arr, deleted_arr = self._delta_code_arrays()
        if deleted_arr.size:
            present &= ~_sorted_member(deleted_arr, codes)
        if added_arr.size:
            present |= _sorted_member(added_arr, codes)
        return present

    def _delta_code_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted ``(added, deleted)`` code arrays, cached per generation."""
        if self._delta_arrays is None:
            added = np.fromiter(
                self._added_codes, dtype=np.int64, count=len(self._added_codes)
            )
            added.sort()
            deleted = np.fromiter(
                self._deleted_codes, dtype=np.int64, count=len(self._deleted_codes)
            )
            deleted.sort()
            self._delta_arrays = (added, deleted)
        return self._delta_arrays

    def neighbors(self, v: int) -> np.ndarray:
        """Current neighbors of ``v`` as a flat ``int64`` array.

        A zero-copy *read-only* CSR slice when ``v`` has no pending
        deletions or overlay edges (writing to it raises); otherwise the
        masked slice concatenated with the overlay set.  Base neighbors
        come out ascending, overlay insertions follow in no guaranteed
        order — treat the result as a set and copy before mutating.
        """
        v = self._check_vertex(v)
        s, e = int(self._indptr[v]), int(self._indptr[v + 1])
        row = self._adj[s:e]
        if self._deleted_codes:
            mask = self._alive[s:e]
            if not mask.all():
                row = row[mask]
        over = self._added_adj.get(v)
        if over:
            row = np.concatenate(
                [row, np.fromiter(over, dtype=np.int64, count=len(over))]
            )
        return row

    def degree(self, v: int) -> int:
        """Current degree of ``v`` (one read of the maintained vector)."""
        return int(self._degrees[self._check_vertex(v)])

    def degrees_of(self, vertices: np.ndarray) -> np.ndarray:
        """Current degrees of a vertex-id array (vectorized gather)."""
        return self._degrees[np.asarray(vertices, dtype=np.int64)]

    def prune_gather(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
        """Batched neighborhood gather for the vectorized prune kernel.

        Returns ``(concat, starts, ends, extras)``: the base-CSR
        neighborhoods of ``vertices[i]`` live in
        ``concat[starts[i]:ends[i]]`` (deleted slots already filtered),
        and ``extras[i]`` holds overlay-inserted neighbors for the few
        vertices that have any.  One ``arange``/``repeat`` index build +
        one fancy gather replaces a Python-level :meth:`neighbors` call
        per vertex — the difference between O(candidates) interpreter
        round trips and three array ops per batch.
        """
        v = np.asarray(vertices, dtype=np.int64)
        row_starts = self._indptr[v]
        sizes = self._indptr[v + 1] - row_starts
        total = int(sizes.sum())
        ends = np.cumsum(sizes)
        starts = ends - sizes
        idx = np.arange(total, dtype=np.int64) + np.repeat(
            row_starts - starts, sizes
        )
        concat = self._adj[idx]
        if self._deleted_codes:
            alive = self._alive[idx]
            if not alive.all():
                new_sizes = np.zeros(v.size, dtype=np.int64)
                nonempty = np.nonzero(sizes)[0]
                if nonempty.size:
                    new_sizes[nonempty] = np.add.reduceat(
                        alive, starts[nonempty]
                    )
                concat = concat[alive]
                ends = np.cumsum(new_sizes)
                starts = ends - new_sizes
        extras: Dict[int, np.ndarray] = {}
        if self._added_adj:
            added_adj = self._added_adj
            for i, vid in enumerate(v.tolist()):
                over = added_adj.get(vid)
                if over:
                    extras[i] = np.fromiter(over, dtype=np.int64, count=len(over))
        return concat, starts, ends, extras

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def apply(self, update: GraphUpdate) -> bool:
        """Apply one update event; returns True iff it changed the graph.

        A thin dispatcher over :meth:`insert_edge`, :meth:`delete_edge`
        and :meth:`reweight`, the per-kind mutations a batch applies.
        Inserting a present edge, deleting an absent edge, and re-setting a
        weight to its current value are all no-ops returning False — a
        replayed stream is idempotent per event.
        """
        if isinstance(update, EdgeInsert):
            return self.insert_edge(update.u, update.v)
        if isinstance(update, EdgeDelete):
            return self.delete_edge(update.u, update.v)
        if isinstance(update, WeightChange):
            return self.reweight(update.v, update.weight)
        raise TypeError(f"not a graph update: {type(update).__name__}")

    def _set_alive(self, code: int, alive: bool) -> int:
        """Flip both directed CSR slots of a base edge; returns its id."""
        e = int(np.searchsorted(self._base_codes, code))
        self._alive[self._slot_uv[e]] = alive
        self._alive[self._slot_vu[e]] = alive
        return e

    def insert_edge(self, u: int, v: int) -> bool:
        """Add edge ``{u, v}``; False (a no-op) if it is already present."""
        u, v = self._check_vertex(u), self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if u > v:
            u, v = v, u
        code = (u << _SHIFT) | v
        if code in self._added_codes:
            return False
        if code in self._base_code_set:
            if code not in self._deleted_codes:
                return False
            self._deleted_codes.remove(code)
            self._base_keep[self._set_alive(code, True)] = True
        else:
            self._added_codes.add(code)
            self._added_adj.setdefault(u, set()).add(v)
            self._added_adj.setdefault(v, set()).add(u)
        self._degrees[u] += 1
        self._degrees[v] += 1
        self._touch()
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Remove edge ``{u, v}``; False (a no-op) if it is absent."""
        u, v = self._check_vertex(u), self._check_vertex(v)
        if u == v:
            return False
        if u > v:
            u, v = v, u
        code = (u << _SHIFT) | v
        if code in self._added_codes:
            self._added_codes.remove(code)
            self._added_adj[u].discard(v)
            self._added_adj[v].discard(u)
        elif code in self._base_code_set and code not in self._deleted_codes:
            self._deleted_codes.add(code)
            self._base_keep[self._set_alive(code, False)] = False
        else:
            return False
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        self._touch()
        return True

    def reweight(self, v: int, weight: float) -> bool:
        """Set ``w(v) = weight``; False (a no-op) if it already is."""
        v = self._check_vertex(v)
        weight = float(weight)
        if not np.isfinite(weight) or weight <= 0:
            raise ValueError(f"vertex weights must be finite and > 0, got {weight}")
        if self._weights[v] == weight:
            return False
        self._weights[v] = weight
        self._touch()
        return True

    def _touch(self) -> None:
        self._generation += 1
        self._materialized = None
        self._delta_arrays = None

    # ------------------------------------------------------------------ #
    # materialization / compaction
    # ------------------------------------------------------------------ #
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current endpoint arrays (not necessarily canonical order)."""
        bu = np.asarray(self._base.edges_u, dtype=np.int64)
        bv = np.asarray(self._base.edges_v, dtype=np.int64)
        if self._deleted_codes:
            bu, bv = bu[self._base_keep], bv[self._base_keep]
        if self._added_codes:
            added, _ = self._delta_code_arrays()
            au, av = decode_edge_codes(added)
            bu = np.concatenate([bu, au])
            bv = np.concatenate([bv, av])
        return bu, bv

    def materialize(self) -> WeightedGraph:
        """The current graph as a canonical :class:`WeightedGraph` (memoized)."""
        if self._materialized is None:
            u, v = self.edge_arrays()
            self._materialized = WeightedGraph(self.n, u, v, self._weights.copy())
        return self._materialized

    def edge_codes(self) -> np.ndarray:
        """Sorted codes of the current edges — the canonical edge order,
        without building a :class:`WeightedGraph`."""
        kept = self._base_codes
        if self._deleted_codes:
            kept = kept[self._base_keep]
        added, _ = self._delta_code_arrays()
        if not added.size:
            return kept
        return np.insert(kept, np.searchsorted(kept, added), added)

    def content_digest(self) -> str:
        """Stable SHA-256 digest of the *current* graph (snapshot-independent).

        Two dynamic graphs that reached the same edge set and weights —
        regardless of base snapshot, delta-log shape, or compaction
        history — share one digest.  It materializes the graph (O(m log
        m)); write-ahead-log records stamp the cheaper :meth:`state_stamp`.
        """
        return self.materialize().content_digest()

    def state_stamp(self) -> str:
        """32-hex identity of the current edge set and weights.

        Like :meth:`content_digest` it depends only on the current graph,
        never on its history, but it costs O(delta + n) per call: the
        base edges' hash is memoized until the next compaction, the
        delta's comes from the cached sorted delta arrays, and the weights
        are hashed with BLAKE2b.  It is the pre-apply stamp of
        write-ahead-log records.
        """
        if self._base_hash is None:
            self._base_hash = _edge_set_hash(self._base_codes)
        added, deleted = self._delta_code_arrays()
        edges = (
            self._base_hash - _edge_set_hash(deleted) + _edge_set_hash(added)
        ) & _MASK64
        weights = hashlib.blake2b(self._weights, digest_size=8)
        return f"{edges:016x}{weights.hexdigest()}"

    def compact(self) -> WeightedGraph:
        """Fold the delta log into a fresh canonical snapshot and return it."""
        if self._materialized is not self._base:
            snapshot = self.materialize()
            self._set_base(snapshot)
            self._materialized = snapshot
            self._compactions += 1
        return self._base

    def maybe_compact(self) -> bool:
        """Compact iff the structural delta outgrew the snapshot; True if it did."""
        threshold = max(self.min_compact, int(self.compact_fraction * self._base.m))
        if self.delta_size > threshold:
            self.compact()
            return True
        return False
