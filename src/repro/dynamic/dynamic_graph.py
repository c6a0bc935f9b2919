"""Mutable graph view: a canonical snapshot plus a sorted-array delta.

:class:`~repro.graphs.WeightedGraph` is deliberately immutable — every
algorithm in the package depends on its canonical edge order.  A dynamic
workload therefore needs a wrapper that absorbs updates cheaply and
re-canonicalizes only occasionally.  Its whole state is flat arrays, so a
batch of updates is applied with a few array operations
(:meth:`DynamicGraph.set_presence`, :meth:`DynamicGraph.set_weights`),
never a Python loop over events or vertices:

* **Base CSR.**  A frozen :class:`WeightedGraph` snapshot, whose own
  row-sorted ``indptr``/``adj_vertices`` arrays are shared read-only, with
  an *aliveness* mask per adjacency slot and a keep mask per base edge.
  Deleting snapshot edges clears mask bits, found by one ``searchsorted``
  against the sorted base edge codes; it never rebuilds anything.
* **Delta.**  Edges inserted since the snapshot live in a sorted ``int64``
  array of edge codes ``(u << 32) | v`` (the code of
  :mod:`repro.dynamic.duals`), mirrored by a sorted array of *directed*
  codes ``(head << 32) | tail`` holding both directions of each added
  edge, so a vertex's overlay neighbors are one contiguous slice.  Deleted
  snapshot edges are the cleared keep bits plus a count.  A maintained
  degree vector absorbs every structural change, so ``degree(v)`` is one
  array read.
* **Compaction.**  :meth:`compact` folds the delta into a fresh canonical
  snapshot: the current codes are already sorted, so the snapshot skips
  canonicalization and its CSR is one stable ``argsort``, which a
  re-solve's prune then reuses.
  :meth:`maybe_compact` does so only once the structural delta exceeds a
  configurable fraction of the snapshot, so a stream costs O(delta) per
  batch plus a rebuild every Θ(m) structural changes.

Queries answer against the *current* graph — base CSR minus deletions
plus insertions.  :meth:`neighbors` returns a flat ``int64`` array (a
zero-copy CSR slice when the vertex has no pending deletions or overlay
edges); :meth:`prune_gather` returns whole neighborhoods of a vertex set
as segments of one array, which is what the prune kernel of
:mod:`repro.dynamic.repair` consumes.  :meth:`set_presence` sets a
batch's sorted edge codes present or absent and returns the presence
each had before, locating them with one ``searchsorted`` against the
base codes and one against the added codes.

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
from typing import Optional, Tuple

import numpy as np

from repro.dynamic.duals import _MASK, _SHIFT, decode_edge_codes, encode_edge_codes
from repro.graphs.graph import WeightedGraph

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


def _search(
    sorted_codes: np.ndarray, codes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Insertion points of ``codes`` in a sorted code array, and which of
    them are members (one binary search — unlike ``np.isin``, it never
    re-sorts the haystack)."""
    pos = np.searchsorted(sorted_codes, codes)
    if not sorted_codes.size:
        return pos, np.zeros(codes.shape, dtype=bool)
    return pos, sorted_codes[np.minimum(pos, sorted_codes.size - 1)] == codes


def _toggle(
    sorted_codes: np.ndarray, codes: np.ndarray, pos: np.ndarray, member: np.ndarray
) -> np.ndarray:
    """``sorted_codes`` with its ``member`` codes removed and the other
    ``codes`` inserted, given ``pos, member = _search(sorted_codes, codes)``
    and ``codes`` sorted.  The removed codes below an inserted one are
    the members before it in ``codes``, so its insertion point moves down
    by their running count."""
    kept = np.delete(sorted_codes, pos[member])
    new = ~member
    return np.insert(kept, pos[new] - np.cumsum(member)[new], codes[new])


def _segments(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + sizes[i]``, concatenated."""
    offsets = np.cumsum(sizes) - sizes
    return np.arange(int(sizes.sum()), dtype=np.int64) + np.repeat(
        starts - offsets, sizes
    )


def _directed(codes: np.ndarray) -> np.ndarray:
    """Both directed codes ``(u << 32) | v`` and ``(v << 32) | u`` of each
    edge code, sorted."""
    u, v = decode_edge_codes(codes)
    both = np.concatenate([codes, (v << _SHIFT) | u])
    both.sort()
    return both


class DynamicGraph:
    """A vertex-weighted graph under edge churn and weight changes.

    Parameters
    ----------
    base:
        Initial graph (the vertex set stays fixed at ``base.n``).
    compact_fraction:
        :meth:`maybe_compact` folds the delta into a new snapshot once
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
        self._compactions = 0
        self._set_base(base)
        # At construction the snapshot *is* the current graph.
        self._materialized = base

    def _set_base(self, base: WeightedGraph) -> None:
        self._base = base
        n, m = base.n, base.m
        self._n = n
        # The snapshot's own CSR, shared read-only: its rows are ascending,
        # and neighbors() hands out zero-copy slices of it.
        self._indptr = base.indptr
        self._adj = base.adj_vertices
        # Slots of edge e's two directed entries in the CSR, so deleting
        # edges is two fancy-index writes into the aliveness mask: the
        # entry whose tail is e's upper endpoint is its (u -> v) slot.
        eids = base.adj_edges
        upper = self._adj == base.edges_v[eids]
        slots = np.empty(2 * m, dtype=np.int64)
        slots[eids + m * upper] = np.arange(2 * m, dtype=np.int64)
        self._slot_vu = slots[:m]
        self._slot_uv = slots[m:]
        self._alive = np.ones(2 * m, dtype=bool)
        # Canonical edges are lex-sorted, so their codes arrive sorted.
        self._base_codes = encode_edge_codes(base.edges_u, base.edges_v)
        self._base_keep = np.ones(m, dtype=bool)
        self._num_deleted = 0
        self._added = np.empty(0, dtype=np.int64)
        self._added_dir = np.empty(0, dtype=np.int64)
        self._degrees = base.degrees.astype(np.int64)
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
        return self._base.m - self._num_deleted + self._added.size

    @property
    def weights(self) -> np.ndarray:
        """Current vertex weights (live array — mutate via
        :meth:`set_weights` only)."""
        return self._weights

    @property
    def base(self) -> WeightedGraph:
        """The canonical snapshot under the delta."""
        return self._base

    @property
    def delta_size(self) -> int:
        """Structural updates (inserts + deletes) pending since the snapshot."""
        return self._added.size + self._num_deleted

    @property
    def compactions(self) -> int:
        """Number of snapshot rebuilds performed so far."""
        return self._compactions

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(n={self.n}, m={self.m}, delta={self.delta_size}, "
            f"compactions={self._compactions})"
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _check_vertex(self, v: int) -> int:
        v = int(v)
        if not (0 <= v < self._n):
            raise ValueError(f"vertex {v} out of range [0, {self._n})")
        return v

    def _locate(
        self, codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(base_pos, in_base, added_pos, present)`` of each edge code:
        one binary search against the base codes (then its keep bit), one
        against the added codes.  No code is both a base and an added one:
        a deleted snapshot edge that returns flips its keep bit back."""
        base_pos, in_base = _search(self._base_codes, codes)
        added_pos, present = _search(self._added, codes)
        present[in_base] = self._base_keep[base_pos[in_base]]
        return base_pos, in_base, added_pos, present

    def has_codes(self, codes: np.ndarray) -> np.ndarray:
        """Presence of each edge code."""
        return self._locate(codes)[3]

    def _overlay_bounds(self, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Start and end of each vertex's slice of the directed added codes."""
        lo = np.searchsorted(self._added_dir, v << _SHIFT)
        hi = np.searchsorted(self._added_dir, (v + 1) << _SHIFT)
        return lo, hi

    def neighbors(self, v: int) -> np.ndarray:
        """Current neighbors of ``v`` as a flat ``int64`` array.

        A zero-copy *read-only* CSR slice when ``v`` has no pending
        deletions or overlay edges (writing to it raises); otherwise the
        masked slice concatenated with the overlay slice.  Base and overlay
        neighbors each come out ascending — treat the result as a set and
        copy before mutating.
        """
        v = self._check_vertex(v)
        s, e = int(self._indptr[v]), int(self._indptr[v + 1])
        row = self._adj[s:e]
        if self._num_deleted:
            mask = self._alive[s:e]
            if not mask.all():
                row = row[mask]
        if self._added.size:
            lo, hi = self._overlay_bounds(np.array([v]))
            if hi[0] > lo[0]:
                row = np.concatenate([row, self._added_dir[lo[0] : hi[0]] & _MASK])
        return row

    def degree(self, v: int) -> int:
        """Current degree of ``v`` (one read of the maintained vector)."""
        return int(self._degrees[self._check_vertex(v)])

    def degrees_of(self, vertices: np.ndarray) -> np.ndarray:
        """Current degrees of a vertex-id array (vectorized gather)."""
        return self._degrees[np.asarray(vertices, dtype=np.int64)]

    def prune_gather(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched neighborhood gather for the vectorized prune kernel.

        Returns ``(concat, starts, ends)``: the complete current
        neighborhood of ``vertices[i]`` — alive base neighbors, then
        overlay neighbors — is ``concat[starts[i]:ends[i]]``.  Two segment
        gathers (base CSR rows, overlay slices) and one aliveness filter
        replace a Python-level :meth:`neighbors` call per vertex.
        """
        v = np.asarray(vertices, dtype=np.int64)
        base_lo = self._indptr[v]
        base_n = self._indptr[v + 1] - base_lo
        over_lo, over_hi = self._overlay_bounds(v)
        over_n = over_hi - over_lo
        sizes = base_n + over_n
        ends = np.cumsum(sizes)
        starts = ends - sizes
        concat = np.empty(int(ends[-1]) if v.size else 0, dtype=np.int64)
        base_src = _segments(base_lo, base_n)
        base_dst = _segments(starts, base_n)
        concat[base_dst] = self._adj[base_src]
        if over_n.any():
            over_src = _segments(over_lo, over_n)
            concat[_segments(starts + base_n, over_n)] = (
                self._added_dir[over_src] & _MASK
            )
        if self._num_deleted:
            alive = self._alive[base_src]
            if not alive.all():
                keep = np.ones(concat.size, dtype=bool)
                keep[base_dst] = alive
                nonempty = np.nonzero(sizes)[0]
                sizes[nonempty] = np.add.reduceat(keep, starts[nonempty])
                concat = concat[keep]
                ends = np.cumsum(sizes)
                starts = ends - sizes
        return concat, starts, ends

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def set_presence(self, codes: np.ndarray, present: np.ndarray) -> np.ndarray:
        """Make edge ``codes[i]`` present iff ``present[i]``; return the
        presence each code had before.

        ``codes`` is a sorted, duplicate-free ``int64`` edge-code array and
        ``present`` a bool array of the same shape.  The codes are located
        once (:meth:`_locate`), and only those whose presence changes
        flip: snapshot edges flip their keep and aliveness bits, other
        edges leave or enter the sorted added arrays (:func:`_toggle`),
        and degrees move by ``np.add.at``.  When nothing flips, nothing
        changes, and the memoized :meth:`materialize` graph stays.
        """
        base_pos, in_base, added_pos, was = self._locate(codes)
        flip = present != was
        if not flip.any():
            return was
        at_base = flip & in_base
        pos, alive = base_pos[at_base], present[at_base]
        self._base_keep[pos] = alive
        self._alive[self._slot_uv[pos]] = alive
        self._alive[self._slot_vu[pos]] = alive
        self._num_deleted += alive.size - 2 * int(alive.sum())
        at_added = flip & ~in_base
        if at_added.any():
            self._added = _toggle(
                self._added, codes[at_added], added_pos[at_added], was[at_added]
            )
            directed = _directed(codes[at_added])
            self._added_dir = _toggle(
                self._added_dir, directed, *_search(self._added_dir, directed)
            )
        u, v = decode_edge_codes(codes[flip])
        step = np.where(present[flip], 1, -1)
        np.add.at(self._degrees, u, step)
        np.add.at(self._degrees, v, step)
        self._materialized = None
        return was

    def set_weights(self, vertices: np.ndarray, weights: np.ndarray) -> None:
        """Set ``w(vertices[i]) = weights[i]`` (distinct vertices, finite
        positive weights — not checked)."""
        if len(vertices):
            self._weights[vertices] = weights
            self._materialized = None

    # ------------------------------------------------------------------ #
    # materialization / compaction
    # ------------------------------------------------------------------ #
    def edge_codes(self) -> np.ndarray:
        """Sorted codes of the current edges — the canonical edge order,
        without building a :class:`WeightedGraph`."""
        kept = self._base_codes
        if self._num_deleted:
            kept = kept[self._base_keep]
        if not self._added.size:
            return kept
        return np.insert(kept, np.searchsorted(kept, self._added), self._added)

    def materialize(self) -> WeightedGraph:
        """The current graph as a canonical :class:`WeightedGraph` (memoized)."""
        if self._materialized is None:
            u, v = decode_edge_codes(self.edge_codes())
            self._materialized = WeightedGraph(self.n, u, v, self._weights.copy())
        return self._materialized

    def content_digest(self) -> str:
        """Stable SHA-256 digest of the *current* graph (snapshot-independent).

        Two dynamic graphs that reached the same edge set and weights —
        regardless of base snapshot, delta shape, or compaction history —
        share one digest.  It materializes the graph (O(m));
        write-ahead-log records stamp the cheaper :meth:`state_stamp`.
        No stream path calls it any more; it stays while
        ``perfbench/tracing.py`` wraps it by name.
        """
        return self.materialize().content_digest()

    def state_stamp(self) -> str:
        """32-hex identity of the current edge set and weights.

        Like :meth:`content_digest` it depends only on the current graph,
        never on its history, but it never builds a graph: the base
        edges' hash is memoized until the next compaction, the delta's
        comes from the added codes and the cleared keep bits, and the
        weights are hashed with BLAKE2b.  It is the pre-apply stamp of
        write-ahead-log records.
        """
        if self._base_hash is None:
            self._base_hash = _edge_set_hash(self._base_codes)
        edges = self._base_hash + _edge_set_hash(self._added)
        if self._num_deleted:
            edges -= _edge_set_hash(self._base_codes[~self._base_keep])
        weights = hashlib.blake2b(self._weights, digest_size=8)
        return f"{edges & _MASK64:016x}{weights.hexdigest()}"

    def compact(self) -> WeightedGraph:
        """Fold the delta into a fresh canonical snapshot and return it."""
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
