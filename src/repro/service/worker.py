"""Process-pool worker for the batch solving service.

Must stay importable at module top level (``ProcessPoolExecutor`` pickles
the function *by reference*).  One pool task solves one request, and the
worker owns the two service guarantees that have to hold *inside* the
child process:

* **Error isolation** — the solve runs under its own ``try/except``; a
  malformed instance (bad ε, zero-weight vertex, solver bug) comes back
  as that request's error result instead of an exception.
* **Per-request timeout** — enforced with ``signal.setitimer`` (real
  time) around the solve.  Pool workers are single-threaded child
  processes on their main thread, which is exactly the setting where
  SIGALRM is reliable.  On platforms without ``setitimer`` (Windows) the
  timeout degrades to unenforced, which the batch solver documents.
"""

from __future__ import annotations

import signal
import threading
import time
from typing import Optional

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.service.schema import SolveRequest, SolveResult

__all__ = ["solve_one", "warm_up"]

_HAS_ITIMER = hasattr(signal, "setitimer") and hasattr(signal, "SIGALRM")


class _SolveTimeout(Exception):
    """Raised inside the worker when a request exceeds its time budget."""


def _raise_timeout(signum, frame):  # pragma: no cover - signal handler
    raise _SolveTimeout()


def warm_up() -> None:
    """Pool initializer: pay a fresh worker's first-solve imports up front.

    ``np.unique`` imports ``numpy.ma`` on its first call, and the cluster
    engine is imported lazily on first use.  Importing both here keeps
    either out of the first request's time.  They are not imported at
    module top because the stream paths import this module and never
    use the cluster engine.
    """
    import numpy.ma  # noqa: F401
    import repro.core.engine_cluster  # noqa: F401


def solve_one(request: SolveRequest, timeout: Optional[float] = None) -> SolveResult:
    """Solve a single request, trapping failures and enforcing ``timeout``.

    The graph's digest travels with it through pickling, so the result's
    ``cache_key`` costs no re-hash of the graph in a pool worker.
    """
    start = time.perf_counter()

    def finish(result=None, error=None) -> SolveResult:
        return SolveResult(
            request_id=request.label(),
            ok=error is None,
            elapsed=time.perf_counter() - start,
            cache_key=request.cache_key(),
            result=result,
            error=error,
        )

    # SIGALRM only works on the main thread; an inline BatchSolver embedded
    # in a threaded service must degrade to unenforced, not blow up.
    use_timer = (
        timeout is not None
        and timeout > 0
        and _HAS_ITIMER
        and threading.current_thread() is threading.main_thread()
        # Never clobber a host application's own ITIMER_REAL watchdog
        # (inline mode only — pool workers start with no timer armed).
        and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    )
    old_handler = None
    if use_timer:
        old_handler = signal.signal(signal.SIGALRM, _raise_timeout)
    result = None
    completed = False
    try:
        try:
            if use_timer:
                signal.setitimer(signal.ITIMER_REAL, float(timeout))
            try:
                result = minimum_weight_vertex_cover(
                    request.graph,
                    eps=request.eps,
                    seed=request.seed,
                    engine=request.engine,
                )
                completed = True
            finally:
                # Disarm *before* any except/return runs, so a late alarm
                # cannot fire inside result/error handling and escape.
                if use_timer:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
        except _SolveTimeout:
            if not completed:
                return finish(error=f"timeout after {float(timeout):g}s")
            # The alarm fired in the gap between solve completion and
            # disarm: the result is valid — fall through and return it.
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            return finish(error=f"{type(exc).__name__}: {exc}")
        return finish(result=result)
    finally:
        if use_timer:
            signal.signal(signal.SIGALRM, old_handler)
