"""Request/response schema of the batch solving service.

A :class:`SolveRequest` is the unit of work: one graph plus the solve
parameters that affect the answer (``eps``, ``seed``, ``engine``).  A
:class:`SolveResult` is its outcome: either a full
:class:`~repro.core.result.MWVCResult` or an error string, plus service
metadata (timing, cache hit, cache key).  Both are plain picklable
dataclasses: a pool task ships one request to a worker and its result
back across the :class:`~concurrent.futures.ProcessPoolExecutor` boundary.

The cache key :func:`request_digest` hashes the *content* of the request —
graph digest + solve parameters — so two requests for the same instance
collide regardless of how the graph object was constructed or which batch
they arrived in.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.core.result import MWVCResult
from repro.graphs.graph import WeightedGraph

__all__ = ["SolveRequest", "SolveResult", "request_digest", "ENGINES"]

ENGINES = ("vectorized", "cluster")


def request_digest(
    graph: WeightedGraph, *, eps: float, seed: int, engine: str
) -> str:
    """Canonical content hash of a solve request.

    Combines the graph's :meth:`~repro.graphs.WeightedGraph.content_digest`
    with every parameter that affects the solution, so the digest is a safe
    cache key: equal digests imply byte-identical answers (the solver is
    deterministic given graph + eps + seed + engine).
    """
    h = hashlib.sha256()
    h.update(b"repro-request-v1\0")
    h.update(graph.content_digest().encode("ascii"))
    h.update(f"\0eps={float(eps)!r}\0seed={int(seed)}\0engine={engine}".encode("utf-8"))
    return h.hexdigest()


@dataclass
class SolveRequest:
    """One MWVC instance to solve.

    Parameters are intentionally *not* validated at construction time:
    validation happens inside the worker so that a malformed request is
    reported as a per-request error instead of aborting the whole batch
    (see :class:`~repro.service.batch.BatchSolver` error isolation).

    Attributes
    ----------
    graph:
        The instance to cover.
    eps:
        Accuracy parameter ε (solver requires ε ∈ (0, 1/4)).
    seed:
        Root seed of the solver's randomness.
    engine:
        ``"vectorized"`` or ``"cluster"``.
    request_id:
        Caller-chosen label echoed into the result (defaults to the cache
        key prefix when empty).
    """

    graph: WeightedGraph
    eps: float = 0.1
    seed: int = 0
    engine: str = "vectorized"
    request_id: str = ""

    def cache_key(self) -> str:
        """The canonical cache key for this request."""
        return request_digest(
            self.graph, eps=self.eps, seed=self.seed, engine=self.engine
        )

    def label(self) -> str:
        """``request_id`` or a short digest-derived fallback."""
        return self.request_id or f"req-{self.cache_key()[:12]}"


@dataclass
class SolveResult:
    """Outcome of one :class:`SolveRequest`.

    Exactly one of ``result`` / ``error`` is set (``ok`` tells which).

    Attributes
    ----------
    request_id:
        Label of the originating request.
    ok:
        Whether the solve succeeded.
    cache_hit:
        Whether the answer came from the result cache (or from an identical
        request deduplicated within the same batch).
    elapsed:
        Wall-clock solve time in seconds as measured inside the worker
        (0.0 for cache hits).
    cache_key:
        The request's canonical digest.
    result:
        The full solver result when ``ok``.
    error:
        Human-readable failure description when not ``ok``
        (``"timeout after Ns"`` for per-request timeouts).
    """

    request_id: str
    ok: bool
    cache_hit: bool = False
    elapsed: float = 0.0
    cache_key: str = ""
    result: Optional[MWVCResult] = None
    error: Optional[str] = None

    def summary(self) -> dict:
        """Flat JSON-friendly dict (one line of ``repro batch`` output)."""
        row: dict = {
            "request_id": self.request_id,
            "ok": self.ok,
            "cache_hit": self.cache_hit,
            "elapsed_s": round(float(self.elapsed), 6),
            "cache_key": self.cache_key,
        }
        if self.ok and self.result is not None:
            row.update(self.result.summary())
        else:
            row["error"] = self.error
        return row

