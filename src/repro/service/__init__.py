"""Batch MWVC solving service.

The algorithm of Ghaffari–Jin–Nilis is embarrassingly parallel *across
instances*: independent solve requests share nothing, so a service layer can
shard them over a process pool and cache results by graph identity.  This
package is that layer:

:mod:`repro.service.schema`
    :class:`SolveRequest` / :class:`SolveResult` — the unit of work
    and its outcome, both picklable, plus the canonical cache key.
:mod:`repro.service.cache`
    :class:`ResultCache` — bounded LRU keyed by
    :meth:`~repro.graphs.WeightedGraph.content_digest` + solve parameters.
:mod:`repro.service.batch`
    :class:`BatchSolver` — hands requests to a ``ProcessPoolExecutor``,
    one task per request, heaviest first, with per-request timeouts and
    error isolation (one bad instance never kills the batch).
:mod:`repro.service.manifest`
    JSON-lines manifest parsing for the ``repro batch`` CLI.
"""

from repro.service.batch import BatchSolver
from repro.service.cache import CacheStats, ResultCache
from repro.service.manifest import graph_from_spec, load_manifest, request_from_spec
from repro.service.schema import SolveRequest, SolveResult, request_digest

__all__ = [
    "BatchSolver",
    "CacheStats",
    "ResultCache",
    "SolveRequest",
    "SolveResult",
    "graph_from_spec",
    "load_manifest",
    "request_from_spec",
    "request_digest",
]
