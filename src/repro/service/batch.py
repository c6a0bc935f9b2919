"""Batch coordinator: hand solve requests to a process pool.

The instances of a batch are independent, so the coordinator's job is pure
plumbing — but plumbing with guarantees:

* **Caching and dedup.**  Every request is keyed by its canonical content
  digest.  Cache hits (and duplicate requests *within* one batch) never
  reach the pool; a warm-cache replay of a manifest does zero solving.
* **One task per request, heaviest first.**  Pending requests are
  submitted in order of a cost read off the request — cluster engine
  before vectorized, then more edges first, ties in request order — and
  the executor's queue hands the next one to whichever worker frees up
  first, so no large solve is left to run alone at the end.
* **Error isolation.**  Failures inside a solve are trapped in the worker
  (:mod:`repro.service.worker`); a request that cannot be shipped to or
  back from a worker fails its own task only.  A worker dying fails the
  requests still in flight and keeps the ones already finished.
  ``solve_batch`` never raises because of a bad instance — it returns an
  error record in that request's slot and solves everything else.

The pool is created lazily and kept across batches (a broken one is
rebuilt by the next batch); each worker starts warm
(:func:`repro.service.worker.warm_up` runs the imports a first solve
would otherwise pay).  Use the solver as a context manager (or call
:meth:`BatchSolver.close`) to release it.
"""

from __future__ import annotations

import copy
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from repro.service.cache import ResultCache
from repro.service.schema import SolveRequest, SolveResult
from repro.service.worker import solve_one, warm_up

__all__ = ["BatchSolver"]


class BatchSolver:
    """Solves batches of :class:`SolveRequest` with pooling + caching.

    Parameters
    ----------
    max_workers:
        Process-pool size; defaults to ``os.cpu_count()`` (the
        ``ProcessPoolExecutor`` default).
    cache:
        Capacity of the :class:`ResultCache`, or ``None`` to disable
        caching entirely.
    timeout:
        Per-request wall-clock budget in seconds, enforced inside the
        worker via ``SIGALRM`` (unenforced on platforms without it).
    use_processes:
        ``False`` solves in the calling process (no pool), one distinct
        request at a time — the sequential reference mode (with
        ``cache=None``), also handy under debuggers and on 1-core boxes.

    A pooled batch submits each distinct pending request as its own pool
    task, heaviest first (cluster engine, then larger ``graph.m``).  Pool
    workers start warm, so no request pays a fresh worker's imports.
    """

    def __init__(
        self,
        *,
        max_workers: Optional[int] = None,
        cache: Optional[int] = 256,
        timeout: Optional[float] = None,
        use_processes: bool = True,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.max_workers = max_workers
        self.cache = None if cache is None else ResultCache(cache)
        self.timeout = timeout
        self.use_processes = use_processes
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=warm_up
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down (idempotent); the cache survives."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "BatchSolver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def solve(self, request: SolveRequest) -> SolveResult:
        """Solve a single request through the solver's configured mode
        (cache first, then pool or inline per ``use_processes``)."""
        return self.solve_batch([request])[0]

    def solve_batch(self, requests: Sequence[SolveRequest]) -> List[SolveResult]:
        """Solve every request; the i-th result answers the i-th request.

        Never raises for a bad instance: failed requests come back with
        ``ok=False`` and an ``error`` string while the rest of the batch
        completes normally.
        """
        requests = list(requests)
        n = len(requests)
        results: List[Optional[SolveResult]] = [None] * n
        keys = [r.cache_key() for r in requests]

        # Stage 1: cache lookups + within-batch dedup.  `leaders` maps each
        # distinct uncached key to the first request index bearing it; later
        # duplicates are filled from the leader's answer after the solve.
        leaders: Dict[str, int] = {}
        followers: Dict[int, int] = {}
        pending: List[int] = []
        for i, (req, key) in enumerate(zip(requests, keys)):
            # Dedup before the cache lookup so follower copies of one
            # instance don't each record a spurious cache miss.
            if key in leaders:
                followers[i] = leaders[key]
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[i] = SolveResult(
                    request_id=req.label(),
                    ok=True,
                    cache_hit=True,
                    elapsed=0.0,
                    cache_key=key,
                    result=cached,
                )
            else:
                leaders[key] = i
                pending.append(i)

        # Stage 2: solve the distinct uncached requests.
        if pending:
            if self.use_processes:
                self._solve_pooled(requests, keys, pending, results)
            else:
                self._solve_inline(requests, pending, results)

        # Stage 3: fill duplicates from their leader and warm the cache.
        for i, leader in followers.items():
            lead = results[leader]
            assert lead is not None
            results[i] = SolveResult(
                request_id=requests[i].label(),
                ok=lead.ok,
                cache_hit=lead.ok,
                elapsed=0.0,
                cache_key=keys[i],
                result=lead.result,
                error=lead.error,
            )
        out = [r for r in results if r is not None]
        assert len(out) == n
        return out

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _record(self, res: SolveResult) -> SolveResult:
        """Cache a solved request's result; return ``res`` unchanged."""
        if res.ok and self.cache is not None:
            self.cache.put(res.cache_key, res.result)
        return res

    def _solve_inline(self, requests, pending, results) -> None:
        for i in pending:
            results[i] = self._record(solve_one(requests[i], self.timeout))

    def _solve_pooled(self, requests, keys, pending, results) -> None:
        pool = self._ensure_pool()
        broken = False
        futures = deque()
        # Heaviest first; the sort is stable, so equal costs keep request order.
        order = sorted(
            pending, key=lambda j: (requests[j].engine != "cluster", -requests[j].graph.m)
        )
        for i in order:
            try:
                futures.append((i, pool.submit(solve_one, requests[i], self.timeout)))
            except BrokenProcessPool as exc:  # a worker died mid-submit
                results[i] = self._failure(requests[i], keys[i], exc)
                broken = True
        # The executor's result thread unpickles each result into its own
        # malloc arena.  Results kept there for the whole batch leave that
        # arena holding freed memory afterwards, more in some batches than
        # in others, and every pool forked later inherits it as resident
        # memory.  So each result is copied on this thread, and each future
        # (with the unpickled result) is dropped as soon as it is read.
        while futures:
            i, fut = futures.popleft()
            try:
                results[i] = self._record(copy.deepcopy(fut.result()))
            except Exception as exc:
                # A request that could not be shipped either way fails
                # alone; a dead worker poisons the pool and fails every
                # request still in flight.
                results[i] = self._failure(requests[i], keys[i], exc)
                broken = broken or isinstance(exc, BrokenProcessPool)
        if broken:
            self.close()  # the next batch builds a fresh pool

    @staticmethod
    def _failure(request, key, exc) -> SolveResult:
        return SolveResult(
            request_id=request.label(),
            ok=False,
            cache_key=key,
            error=f"{type(exc).__name__}: {exc}",
        )
