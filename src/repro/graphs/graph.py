"""Vertex-weighted undirected graphs in CSR form.

:class:`WeightedGraph` is the substrate shared by every algorithm in this
package.  Design constraints, in order:

1. **Vectorized aggregation.**  The primal-dual algorithms repeatedly need
   per-vertex sums of per-edge quantities (the dual loads ``y_v = Σ_{e∋v} x_e``)
   over graphs with millions of edges.  Edges are therefore stored as two
   parallel ``int64`` endpoint arrays in canonical form (``u < v``, sorted,
   duplicate-free), and :meth:`incident_sums` reduces any per-edge vector with
   two ``bincount`` passes — no Python-level loops.
2. **Cheap induced subgraphs.**  Round compression partitions vertices across
   machines and works on induced subgraphs; :meth:`induced_subgraph` is a
   masked slice plus a relabel, returning the mapping back to parent ids.
3. **Immutability.**  Graphs are frozen after construction; algorithms carry
   their mutable state (edge duals, frozen flags) in separate arrays indexed
   by the graph's edge ids.  This keeps coupled runs (experiment E6) honest:
   both algorithms see the exact same structure.

The CSR adjacency (``indptr``/``adj_vertices``/``adj_edges``) is built lazily
on first neighbor query, since the vectorized engines never need it.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.utils.validation import ensure_float_array, ensure_int_array

__all__ = ["WeightedGraph", "canonical_edges", "graph_content_digest"]


def graph_content_digest(
    n: int, edges_u: np.ndarray, edges_v: np.ndarray, weights: np.ndarray
) -> str:
    """SHA-256 hex digest of a graph given in canonical form.

    The digest :meth:`WeightedGraph.content_digest` returns, for callers
    that hold canonical arrays but no :class:`WeightedGraph`.
    """
    h = hashlib.sha256()
    h.update(b"repro-graph-v1")
    h.update(np.int64(n).tobytes())
    h.update(np.int64(len(edges_u)).tobytes())
    h.update(np.ascontiguousarray(edges_u, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(edges_v, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
    return h.hexdigest()


def canonical_edges(
    edges_u: np.ndarray, edges_v: np.ndarray, *, n: int, allow_duplicates: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Return edges in canonical form: ``u < v``, lexicographically sorted,
    duplicates merged.

    Input that is already canonical is returned as is (the int64 arrays
    themselves, when that is what was passed), after an O(m) check.

    Self-loops are rejected (a self-loop forces its vertex into every cover
    and is better handled by preprocessing).  Endpoints outside ``[0, n)``
    are rejected.

    Parameters
    ----------
    edges_u, edges_v:
        Endpoint arrays of equal length.
    n:
        Number of vertices; endpoints must lie in ``[0, n)``.
    allow_duplicates:
        When ``False``, duplicate edges raise instead of merging.
    """
    u = ensure_int_array("edges_u", edges_u)
    v = ensure_int_array("edges_v", edges_v)
    if u.shape != v.shape:
        raise ValueError(f"endpoint arrays differ in length: {u.shape} vs {v.shape}")
    if u.size == 0:
        return u, v
    if (u == v).any():
        bad = int(u[(u == v)][0])
        raise ValueError(f"self-loop at vertex {bad} is not allowed")
    lo_ok = (u >= 0) & (v >= 0)
    hi_ok = (u < n) & (v < n)
    if not (lo_ok & hi_ok).all():
        raise ValueError(f"edge endpoints must lie in [0, {n})")
    if (u < v).all():
        # Already canonical (``u < v``, strictly increasing) — the form every
        # graph file and every materialized dynamic graph arrives in — costs
        # one O(m) scan and no sort.
        du = np.diff(u)
        if ((du > 0) | ((du == 0) & (np.diff(v) > 0))).all():
            return u, v
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    # Sort lexicographically by (lo, hi); a single key `lo * n + hi` would
    # overflow for large n, so use lexsort.
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    keep = np.ones(lo.size, dtype=bool)
    keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    if not keep.all():
        if not allow_duplicates:
            raise ValueError("duplicate edges present and allow_duplicates=False")
        lo, hi = lo[keep], hi[keep]
    return lo, hi


def _frozen(arr: np.ndarray, source) -> np.ndarray:
    """``arr`` made read-only, copied first if it shares memory with a
    caller's ``source`` array that someone could still write through."""
    if (
        isinstance(source, np.ndarray)
        and (source.flags.writeable or source.base is not None)
        and np.may_share_memory(arr, source)
    ):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


class WeightedGraph:
    """An immutable, vertex-weighted, undirected simple graph.

    Parameters
    ----------
    n:
        Number of vertices, labeled ``0 .. n-1``.
    edges_u, edges_v:
        Endpoint arrays (any orientation/order; canonicalized on
        construction, duplicates merged).
    weights:
        Positive vertex weights, shape ``(n,)``.  Defaults to all ones
        (the unweighted special case).

    Notes
    -----
    The edge with index ``e`` is ``(edges_u[e], edges_v[e])`` with
    ``edges_u[e] < edges_v[e]``, and the edge order is lexicographic; this
    canonical edge id is stable and shared across all algorithm state arrays.
    """

    __slots__ = (
        "_n",
        "_edges_u",
        "_edges_v",
        "_weights",
        "_degrees",
        "_indptr",
        "_adj_vertices",
        "_adj_edges",
        "_digest",
    )

    def __init__(
        self,
        n: int,
        edges_u: Iterable[int],
        edges_v: Iterable[int],
        weights: Optional[Iterable[float]] = None,
    ):
        n = int(n)
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self._n = n
        if not isinstance(edges_u, np.ndarray):
            edges_u = np.asarray(list(edges_u))
        if not isinstance(edges_v, np.ndarray):
            edges_v = np.asarray(list(edges_v))
        u, v = canonical_edges(edges_u, edges_v, n=n)
        if weights is None:
            w = np.ones(n, dtype=np.float64)
        else:
            w = ensure_float_array("weights", weights)
            if w.shape[0] != n:
                raise ValueError(f"weights has length {w.shape[0]}, expected {n}")
            if n and not (w > 0).all():
                raise ValueError("vertex weights must be strictly positive")
        u = _frozen(u, edges_u)
        v = _frozen(v, edges_v)
        self._edges_u = u
        self._edges_v = v
        self._weights = _frozen(w, weights)
        deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        deg = deg.astype(np.int64)
        deg.setflags(write=False)
        self._degrees = deg
        self._indptr = None
        self._adj_vertices = None
        self._adj_edges = None
        self._digest = None

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self._edges_u.size)

    @property
    def edges_u(self) -> np.ndarray:
        """Smaller endpoint of each edge (read-only, shape ``(m,)``)."""
        return self._edges_u

    @property
    def edges_v(self) -> np.ndarray:
        """Larger endpoint of each edge (read-only, shape ``(m,)``)."""
        return self._edges_v

    @property
    def weights(self) -> np.ndarray:
        """Vertex weights (read-only, shape ``(n,)``)."""
        return self._weights

    @property
    def degrees(self) -> np.ndarray:
        """Vertex degrees (read-only, shape ``(n,)``)."""
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ (0 for edgeless graphs)."""
        return int(self._degrees.max()) if self._n else 0

    @property
    def average_degree(self) -> float:
        """Average degree ``d = 2m/n`` (the quantity in Theorem 1.1).

        Returns 0.0 for the empty graph.
        """
        return 2.0 * self.m / self._n if self._n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightedGraph(n={self._n}, m={self.m}, avg_deg={self.average_degree:.2f})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._edges_u, other._edges_u)
            and np.array_equal(self._edges_v, other._edges_v)
            and np.array_equal(self._weights, other._weights)
        )

    def __hash__(self) -> int:
        return hash((self._n, self.m, self._edges_u.tobytes(), self._weights.tobytes()))

    def content_digest(self) -> str:
        """Stable hex digest of the graph's full content.

        Hashes ``(n, edges_u, edges_v, weights)`` in canonical form, so any
        two graphs built from the same edge set — regardless of the input
        edge ordering, endpoint orientation, or duplicates — share one
        digest.  This is the cache/identity key of the batch solving
        service: ``g.content_digest() == h.content_digest()`` iff
        ``g == h``, up to SHA-256 collisions.

        Computed lazily and memoized (the graph is immutable).
        """
        if self._digest is None:
            self._digest = graph_content_digest(
                self._n, self._edges_u, self._edges_v, self._weights
            )
        return self._digest

    # ------------------------------------------------------------------ #
    # pickling (process-pool transport)
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        """Pickle only the defining content.

        The lazy CSR adjacency (up to ``4m`` extra int64 words) and the
        derived degree array are dropped from the payload so graphs ship
        cheaply across :class:`~concurrent.futures.ProcessPoolExecutor`
        boundaries; they are rebuilt on demand on the other side.
        """
        return {
            "n": self._n,
            "edges_u": np.asarray(self._edges_u),
            "edges_v": np.asarray(self._edges_v),
            "weights": np.asarray(self._weights),
            "digest": self._digest,
        }

    def __setstate__(self, state):
        # The payload's arrays are canonical, so __init__ checks them in O(m).
        self.__init__(state["n"], state["edges_u"], state["edges_v"], state["weights"])
        self._digest = state.get("digest")

    # ------------------------------------------------------------------ #
    # vectorized primitives
    # ------------------------------------------------------------------ #
    def incident_sums(self, edge_values: np.ndarray) -> np.ndarray:
        """Per-vertex sums of a per-edge quantity.

        Computes ``out[v] = Σ_{e ∋ v} edge_values[e]`` with two bincount
        passes; this is the dual-load primitive ``y_v`` of Algorithm 1.

        Parameters
        ----------
        edge_values:
            Array of shape ``(m,)``.

        Returns
        -------
        numpy.ndarray of shape ``(n,)``, dtype float64.
        """
        x = np.asarray(edge_values, dtype=np.float64)
        if x.shape != (self.m,):
            raise ValueError(f"edge_values must have shape ({self.m},), got {x.shape}")
        return (
            np.bincount(self._edges_u, weights=x, minlength=self._n)
            + np.bincount(self._edges_v, weights=x, minlength=self._n)
        )

    def incident_counts(self, edge_mask: np.ndarray) -> np.ndarray:
        """Per-vertex counts of incident edges selected by a boolean mask.

        ``out[v] = |{e ∋ v : edge_mask[e]}|``; the residual-degree primitive
        of Algorithm 2 Line (2k).
        """
        mask = np.asarray(edge_mask, dtype=bool)
        if mask.shape != (self.m,):
            raise ValueError(f"edge_mask must have shape ({self.m},), got {mask.shape}")
        u = self._edges_u[mask]
        v = self._edges_v[mask]
        return (np.bincount(u, minlength=self._n) + np.bincount(v, minlength=self._n)).astype(
            np.int64
        )

    def endpoint_values(self, vertex_values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gather a per-vertex array at both endpoints of every edge.

        Returns ``(vals[edges_u], vals[edges_v])``, each of shape ``(m,)``.
        """
        vals = np.asarray(vertex_values)
        if vals.shape[0] != self._n:
            raise ValueError(f"vertex_values must have length {self._n}, got {vals.shape}")
        return vals[self._edges_u], vals[self._edges_v]

    def is_vertex_cover(self, in_cover: np.ndarray) -> bool:
        """True iff every edge has at least one endpoint in the cover mask."""
        c = np.asarray(in_cover, dtype=bool)
        if c.shape != (self._n,):
            raise ValueError(f"in_cover must have shape ({self._n},), got {c.shape}")
        if self.m == 0:
            return True
        return bool((c[self._edges_u] | c[self._edges_v]).all())

    def cover_weight(self, in_cover: np.ndarray) -> float:
        """Total weight of the vertices selected by ``in_cover``."""
        c = np.asarray(in_cover, dtype=bool)
        if c.shape != (self._n,):
            raise ValueError(f"in_cover must have shape ({self._n},), got {c.shape}")
        return float(self._weights[c].sum())

    def uncovered_edges(self, in_cover: np.ndarray) -> np.ndarray:
        """Edge ids not covered by the mask (empty iff it is a vertex cover)."""
        c = np.asarray(in_cover, dtype=bool)
        return np.nonzero(~(c[self._edges_u] | c[self._edges_v]))[0]

    # ------------------------------------------------------------------ #
    # CSR adjacency (lazy)
    # ------------------------------------------------------------------ #
    def _build_csr(self) -> None:
        if self._indptr is not None:
            return
        n, m = self._n, self.m
        # Each edge contributes two adjacency slots: (v -> u) and (u -> v).
        # Canonical edges are sorted by (u, v), so in ``heads = [v..., u...]``
        # each row's lower neighbours (from the first half) come in
        # ascending order, then its higher ones (from the second half): one
        # stable sort by head leaves every row ascending.
        heads = np.concatenate([self._edges_v, self._edges_u])
        tails = np.concatenate([self._edges_u, self._edges_v])
        eids = np.concatenate([np.arange(m, dtype=np.int64)] * 2) if m else np.empty(0, np.int64)
        order = np.argsort(heads, kind="stable")
        heads, tails, eids = heads[order], tails[order], eids[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
        for arr in (indptr, tails, eids):
            arr.setflags(write=False)
        self._indptr = indptr
        self._adj_vertices = tails
        self._adj_edges = eids

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer, shape ``(n+1,)``."""
        self._build_csr()
        return self._indptr

    @property
    def adj_vertices(self) -> np.ndarray:
        """CSR neighbor list, shape ``(2m,)``."""
        self._build_csr()
        return self._adj_vertices

    @property
    def adj_edges(self) -> np.ndarray:
        """Edge id of each CSR adjacency slot, shape ``(2m,)``."""
        self._build_csr()
        return self._adj_edges

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor vertex ids of ``v``, ascending (read-only view)."""
        self._build_csr()
        if not (0 <= v < self._n):
            raise IndexError(f"vertex {v} out of range [0, {self._n})")
        return self._adj_vertices[self._indptr[v] : self._indptr[v + 1]]

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def with_weights(self, weights: np.ndarray) -> "WeightedGraph":
        """A structurally identical graph with different vertex weights."""
        return WeightedGraph(self._n, self._edges_u, self._edges_v, weights)

    def induced_subgraph(
        self, vertices: np.ndarray
    ) -> Tuple["WeightedGraph", np.ndarray, np.ndarray]:
        """The subgraph induced by a vertex subset.

        Parameters
        ----------
        vertices:
            Either a boolean mask of shape ``(n,)`` or an array of vertex ids.

        Returns
        -------
        (sub, vertex_ids, edge_ids):
            ``sub`` is the induced :class:`WeightedGraph` with vertices
            relabeled ``0..k-1``; ``vertex_ids[i]`` is the parent id of
            subgraph vertex ``i``; ``edge_ids[j]`` is the parent edge id of
            subgraph edge ``j``.
        """
        vertices = np.asarray(vertices)
        if vertices.dtype == bool:
            if vertices.shape != (self._n,):
                raise ValueError(f"mask must have shape ({self._n},)")
            mask = vertices
            ids = np.nonzero(mask)[0].astype(np.int64)
        else:
            ids = np.unique(ensure_int_array("vertices", vertices))
            if ids.size and (ids[0] < 0 or ids[-1] >= self._n):
                raise ValueError(f"vertex ids must lie in [0, {self._n})")
            mask = np.zeros(self._n, dtype=bool)
            mask[ids] = True
        relabel = np.full(self._n, -1, dtype=np.int64)
        relabel[ids] = np.arange(ids.size, dtype=np.int64)
        keep = mask[self._edges_u] & mask[self._edges_v]
        edge_ids = np.nonzero(keep)[0].astype(np.int64)
        sub = WeightedGraph(
            ids.size,
            relabel[self._edges_u[edge_ids]],
            relabel[self._edges_v[edge_ids]],
            self._weights[ids],
        )
        return sub, ids, edge_ids

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edge_list(
        cls, n: int, edges: Iterable[Tuple[int, int]], weights=None
    ) -> "WeightedGraph":
        """Build from an iterable of ``(u, v)`` pairs."""
        pairs = list(edges)
        if pairs:
            arr = np.asarray(pairs, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError("edges must be (u, v) pairs")
            return cls(n, arr[:, 0], arr[:, 1], weights)
        return cls(n, np.empty(0, np.int64), np.empty(0, np.int64), weights)

    @classmethod
    def empty(cls, n: int, weights=None) -> "WeightedGraph":
        """Edgeless graph on ``n`` vertices."""
        return cls(n, np.empty(0, np.int64), np.empty(0, np.int64), weights)
