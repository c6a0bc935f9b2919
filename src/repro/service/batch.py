"""Batch coordinator: shard solve requests across a process pool.

The instances of a batch are independent, so the coordinator's job is pure
plumbing — but plumbing with guarantees:

* **Caching and dedup.**  Every request is keyed by its canonical content
  digest.  Cache hits (and duplicate requests *within* one batch) never
  reach the pool; a warm-cache replay of a manifest does zero solving.
* **Chunked dispatch, heaviest first.**  Pending requests are ordered by
  a cost read off the request — cluster engine before vectorized, then
  more edges first, ties in request order — and dealt round-robin into
  ~4 chunks per worker, so chunk 0 holds the costliest request and goes
  out first.  One pool task amortizes pickling/IPC over several
  instances, and no large solve is left to run alone at the end.
* **Error isolation.**  Per-request failures are trapped inside the worker
  (:mod:`repro.service.worker`); pool-level failures (a worker dying,
  unpicklable payloads) are trapped per chunk.  ``solve_batch`` never
  raises because of a bad instance — it returns an error record in that
  request's slot and solves everything else.

The pool is created lazily and kept across batches; each worker starts
warm (:func:`repro.service.worker.warm_up` runs the imports a first solve
would otherwise pay).  Use the solver as a context manager (or call
:meth:`BatchSolver.close`) to release it.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Union

from repro.service.cache import ResultCache
from repro.service.schema import SolveRequest, SolveResult
from repro.service.worker import solve_chunk, solve_one, warm_up

__all__ = ["BatchSolver"]


class BatchSolver:
    """Solves batches of :class:`SolveRequest` with pooling + caching.

    Parameters
    ----------
    max_workers:
        Process-pool size; defaults to ``os.cpu_count()`` (the
        ``ProcessPoolExecutor`` default).
    cache:
        A :class:`ResultCache`, an integer capacity, or ``None`` to disable
        caching entirely.
    timeout:
        Per-request wall-clock budget in seconds, enforced inside the
        worker via ``SIGALRM`` (unenforced on platforms without it).
    use_processes:
        ``False`` solves in the calling process (no pool), one distinct
        request at a time — the sequential reference mode (with
        ``cache=None``), also handy under debuggers and on 1-core boxes.

    Pooled batches go out in chunks of pending requests, about four
    chunks per worker (at least one request per chunk).  Requests are
    sorted heaviest first (cluster engine, then larger ``graph.m``) and
    dealt round-robin over the chunks; chunk 0 is submitted first.  Pool
    workers start warm, so no request pays a fresh worker's imports.
    """

    def __init__(
        self,
        *,
        max_workers: Optional[int] = None,
        cache: Union[ResultCache, int, None] = 256,
        timeout: Optional[float] = None,
        use_processes: bool = True,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.max_workers = max_workers
        if isinstance(cache, ResultCache):
            self.cache: Optional[ResultCache] = cache
        elif cache is None:
            self.cache = None
        else:
            self.cache = ResultCache(int(cache))
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
                self._solve_inline(requests, keys, pending, results)

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
    def _record(self, requests, keys, wire, copy_result: bool = False) -> SolveResult:
        """Convert a worker wire record into a SolveResult + cache insert.

        ``copy_result`` keeps a deep copy of the result made on the calling
        thread instead of the object the wire record carried.
        """
        i = wire.index
        res = SolveResult(
            request_id=requests[i].label(),
            ok=wire.error is None,
            cache_hit=False,
            elapsed=wire.elapsed,
            cache_key=keys[i],
            result=copy.deepcopy(wire.result) if copy_result else wire.result,
            error=wire.error,
        )
        if res.ok and self.cache is not None and res.result is not None:
            self.cache.put(keys[i], res.result)
        return res

    def _solve_inline(self, requests, keys, pending, results) -> None:
        for i in pending:
            wire = solve_one(requests[i], index=i, timeout=self.timeout)
            results[i] = self._record(requests, keys, wire)

    def _chunks(self, requests, pending: List[int]) -> List[List[int]]:
        """Deal ``pending`` heaviest first, round-robin, into ~4 chunks per worker."""
        workers = self.max_workers or os.cpu_count() or 1
        size = max(1, -(-len(pending) // (4 * workers)))
        count = -(-len(pending) // size)
        ordered = sorted(
            pending,
            key=lambda i: (requests[i].engine != "cluster", -requests[i].graph.m),
        )
        return [ordered[j::count] for j in range(count)]

    def _solve_pooled(self, requests, keys, pending, results) -> None:
        pool = self._ensure_pool()
        chunk_futures = []
        try:
            for chunk in self._chunks(requests, pending):
                payload = [(i, requests[i]) for i in chunk]
                fut = pool.submit(solve_chunk, payload, self.timeout)
                chunk_futures.append((chunk, fut))
        except Exception as exc:  # pool already broken at submit time
            # Harvest chunks that finished before the breakage, fail the
            # rest, and drop the poisoned executor so the next batch gets
            # a fresh one.
            for chunk, fut in chunk_futures:
                try:
                    for wire in fut.result(timeout=1.0):
                        results[wire.index] = self._record(requests, keys, wire)
                except Exception:
                    self._mark_failed(requests, keys, chunk, results, exc)
            self._mark_failed(
                requests, keys,
                [i for i in pending if results[i] is None], results, exc,
            )
            self.close()
            return
        # The executor's result thread unpickles each chunk into its own
        # malloc arena.  Results kept there for the whole batch leave that
        # arena holding freed memory afterwards, more in some batches than
        # in others, and every pool forked later inherits it as resident
        # memory.  So each result is copied on this thread, and each future
        # (with the unpickled chunk) is dropped as soon as it is read.
        while chunk_futures:
            chunk, fut = chunk_futures.pop(0)
            try:
                for wire in fut.result():
                    results[wire.index] = self._record(
                        requests, keys, wire, copy_result=True
                    )
            except BrokenProcessPool as exc:
                # The executor is poisoned: queued futures get cancelled.
                # Rebuild lazily on the next batch.
                self._mark_failed(requests, keys, chunk, results, exc)
                self.close()
            except CancelledError as exc:  # BaseException since 3.8
                self._mark_failed(requests, keys, chunk, results, exc)
            except Exception as exc:
                # Per-chunk transport failure (e.g. unpicklable payload);
                # the pool itself is still healthy — keep it.
                self._mark_failed(requests, keys, chunk, results, exc)
            for i in chunk:
                if results[i] is None:
                    self._mark_failed(
                        requests, keys, [i], results,
                        RuntimeError("worker returned no record"),
                    )

    @staticmethod
    def _mark_failed(requests, keys, indices, results, exc) -> None:
        for i in indices:
            if results[i] is None:
                results[i] = SolveResult(
                    request_id=requests[i].label(),
                    ok=False,
                    cache_key=keys[i],
                    error=f"{type(exc).__name__}: {exc}",
                )
