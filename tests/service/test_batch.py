"""BatchSolver: pooling, isolation, dedup, caching, timeouts."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.graphs.generators import gnp_average_degree
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights
from repro.service.batch import BatchSolver
from repro.service.schema import SolveRequest


def _graph(seed, n=60, degree=5.0):
    g = gnp_average_degree(n, degree, seed=seed)
    return g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=seed + 100))


def _requests(k=4):
    return [SolveRequest(_graph(i), seed=7, request_id=f"r{i}") for i in range(k)]


def test_pooled_matches_sequential():
    reqs = _requests(4)
    with BatchSolver(use_processes=False, cache=None) as solver:
        seq = solver.solve_batch(reqs)
    with BatchSolver(max_workers=2, cache=None) as solver:
        pooled = solver.solve_batch(reqs)
    assert [r.request_id for r in pooled] == [f"r{i}" for i in range(4)]
    for s, p in zip(seq, pooled):
        assert p.ok and not p.cache_hit
        assert p.result.cover_weight == s.result.cover_weight
        assert np.array_equal(p.result.in_cover, s.result.in_cover)


@pytest.mark.parametrize("workers", [1, 2])
def test_error_isolation_one_bad_request(workers):
    reqs = _requests(7)
    # eps = 0.4 is outside the solver's (0, 1/4) domain: the worker must
    # report it as a per-request failure, not kill the batch.
    reqs.insert(1, SolveRequest(_graph(9), eps=0.4, request_id="bad"))
    with BatchSolver(max_workers=workers, cache=None) as solver:
        out = solver.solve_batch(reqs)
    by_id = {r.request_id: r for r in out}
    assert not by_id["bad"].ok
    assert "eps" in by_id["bad"].error
    assert by_id["bad"].result is None
    for rid in (f"r{i}" for i in range(7)):
        assert by_id[rid].ok, by_id[rid].error
        assert by_id[rid].result is not None


class _Unshippable(SolveRequest):
    """A request that cannot be pickled to a worker."""

    def __reduce__(self):
        raise TypeError("this request cannot be shipped")


def test_unshippable_request_fails_alone():
    reqs = _requests(7)
    reqs.insert(1, _Unshippable(_graph(9), request_id="bad"))
    with BatchSolver(max_workers=1, cache=None) as solver:
        out = solver.solve_batch(reqs)
    assert [r.request_id for r in out] == ["r0", "bad"] + [f"r{i}" for i in range(1, 7)]
    by_id = {r.request_id: r for r in out}
    assert not by_id["bad"].ok
    assert "TypeError" in by_id["bad"].error
    assert all(by_id[f"r{i}"].ok for i in range(7)), [r.error for r in out]


def _exit_worker():
    os._exit(3)


class _WorkerKiller(SolveRequest):
    """A request whose unpickling ends the worker process."""

    def __reduce__(self):
        return (_exit_worker, ())


def test_dead_worker_fails_without_killing_the_solver():
    reqs = _requests(3)
    reqs.insert(1, _WorkerKiller(_graph(9), request_id="killer"))
    with BatchSolver(max_workers=1, cache=None) as solver:
        out = solver.solve_batch(reqs)
        assert [r.request_id for r in out] == ["r0", "killer", "r1", "r2"]
        by_id = {r.request_id: r for r in out}
        assert not by_id["killer"].ok
        assert "BrokenProcessPool" in by_id["killer"].error
        assert all(r.ok or "BrokenProcessPool" in r.error for r in out)
        again = solver.solve_batch(_requests(3))
    assert all(r.ok for r in again), [r.error for r in again]


def test_within_batch_dedup_and_warm_cache_replay():
    g = _graph(1)
    reqs = [
        SolveRequest(g, seed=3, request_id="first"),
        SolveRequest(g, seed=3, request_id="dup"),
    ]
    with BatchSolver(max_workers=2, cache=8) as solver:
        out = solver.solve_batch(reqs)
        assert out[0].ok and not out[0].cache_hit
        assert out[1].ok and out[1].cache_hit  # deduplicated, not re-solved
        assert out[1].result is out[0].result
        replay = solver.solve_batch(reqs)
    assert all(r.cache_hit for r in replay)
    assert all(r.elapsed == 0.0 for r in replay)
    assert replay[0].result is out[0].result  # served from cache, no re-solve
    assert replay[0].result.cover_weight == out[0].result.cover_weight


def test_cache_disabled_always_solves():
    g = _graph(2)
    req = SolveRequest(g, request_id="x")
    with BatchSolver(cache=None, use_processes=False) as solver:
        a = solver.solve(req)
        b = solver.solve(req)
    assert a.ok and b.ok
    assert not a.cache_hit and not b.cache_hit


def test_inline_mode_no_pool():
    reqs = _requests(2)
    with BatchSolver(use_processes=False, cache=4) as solver:
        out = solver.solve_batch(reqs)
    assert all(r.ok for r in out)
    assert solver._pool is None  # never created a process pool


def test_per_request_timeout_is_isolated():
    # A deliberately large instance with a microscopic budget must time out;
    # its batch-mates must still succeed.  Inline mode exercises the same
    # SIGALRM path the workers use, without depending on pool scheduling.
    big = gnp_average_degree(4000, 30.0, seed=5)
    reqs = [
        SolveRequest(_graph(3), request_id="small"),
        SolveRequest(big, request_id="big"),
    ]
    with BatchSolver(use_processes=False, cache=None, timeout=1e-4) as solver:
        out = solver.solve_batch(reqs)
    by_id = {r.request_id: r for r in out}
    assert not by_id["big"].ok
    assert "timeout" in by_id["big"].error
    # the small instance may or may not beat 0.1ms; what matters is the big
    # one's timeout did not poison the batch structure
    assert by_id["small"].request_id == "small"


def test_constructor_validation():
    with pytest.raises(ValueError):
        BatchSolver(max_workers=0)
    with pytest.raises(ValueError):
        BatchSolver(timeout=0.0)


def test_results_keep_request_order():
    reqs = _requests(5)
    with BatchSolver(max_workers=1, cache=None) as solver:
        out = solver.solve_batch(reqs)
    assert [r.request_id for r in out] == [f"r{i}" for i in range(5)]


def _path_request(m, engine, index):
    """A request on the path with ``m`` edges: its cost is read off ``m``,
    and its seed keeps it distinct from other requests of the same cost."""
    path = WeightedGraph.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])
    return SolveRequest(path, seed=index, engine=engine, request_id=f"p{index}")


def test_pool_gets_each_pending_request_once_heaviest_first():
    spec = [("vectorized", 5), ("cluster", 3), ("vectorized", 9), ("cluster", 7),
            ("vectorized", 5), ("vectorized", 1), ("cluster", 3), ("vectorized", 8),
            ("vectorized", 2)]
    reqs = [_path_request(m, engine, i) for i, (engine, m) in enumerate(spec)]
    with BatchSolver(max_workers=2, cache=8) as solver:
        pool = solver._ensure_pool()
        submitted = []
        submit = pool.submit

        def recording_submit(fn, request, *args):
            submitted.append(request.request_id)
            return submit(fn, request, *args)

        pool.submit = recording_submit
        # A cached request and a duplicate within the batch never reach
        # the pool.
        cached = _path_request(4, "cluster", 9)
        solver.solve_batch([cached])
        submitted.clear()
        dup = SolveRequest(reqs[2].graph, seed=2, request_id="dup")
        out = solver.solve_batch(reqs + [cached, dup])
    # Cluster before vectorized, then more edges first, ties in request
    # order.
    assert submitted == ["p3", "p1", "p6", "p2", "p7", "p0", "p4", "p8", "p5"]
    assert all(r.ok for r in out)
    assert out[-2].cache_hit and out[-1].cache_hit


def test_pooled_mixed_engines_keep_order_and_match_inline_bit_for_bit():
    reqs = [
        SolveRequest(_graph(i, n=40 + 30 * (i % 3)), seed=i,
                     engine=("cluster" if i % 2 else "vectorized"), request_id=f"m{i}")
        for i in range(7)
    ]
    with BatchSolver(use_processes=False, cache=None) as solver:
        inline = solver.solve_batch(reqs)
    with BatchSolver(max_workers=2, cache=None) as solver:
        pooled = solver.solve_batch(reqs)
    assert [r.request_id for r in pooled] == [f"m{i}" for i in range(7)]
    for a, b in zip(inline, pooled):
        assert a.ok and b.ok, (a.error, b.error)
        assert a.cache_key == b.cache_key
        assert np.array_equal(a.result.in_cover, b.result.in_cover)
        assert np.array_equal(a.result.x, b.result.x)
        assert a.result.cover_weight == b.result.cover_weight
        assert a.result.certificate == b.result.certificate
        assert a.result.mpc_rounds == b.result.mpc_rounds
        assert a.result.cluster_metrics == b.result.cluster_metrics


def test_pooled_results_own_their_arrays():
    """A pooled result is a copy made in the caller, not a view into the
    buffer the executor's result thread unpickled the result from (which
    unpickling shares only for arrays of a few thousand bytes or more)."""
    reqs = [SolveRequest(_graph(i, n=6000, degree=3.0), request_id=f"o{i}") for i in range(3)]
    with BatchSolver(max_workers=2, cache=None) as solver:
        pooled = solver.solve_batch(reqs)
    with BatchSolver(use_processes=False, cache=None) as solver:
        inline = solver.solve_batch(reqs)
    for p, s in zip(pooled, inline):
        assert p.ok
        assert p.result.x.flags.owndata and p.result.in_cover.flags.owndata
        assert np.array_equal(p.result.x, s.result.x)
        assert np.array_equal(p.result.in_cover, s.result.in_cover)


def test_pool_workers_start_warm_and_the_caller_stays_lazy():
    """Pool workers import what a first solve would import lazily before any
    request runs; importing the service, as the stream paths do, does not."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import sys\n"
        "from repro.service.batch import BatchSolver\n"
        "warm = {'numpy.ma', 'repro.core.engine_cluster'}\n"
        "assert not warm & set(sys.modules), 'imported eagerly'\n"
        "with BatchSolver(max_workers=1) as solver:\n"
        "    pool = solver._ensure_pool()\n"
        "    loaded = pool.submit(eval, 'set(__import__(\"sys\").modules)').result()\n"
        "assert warm <= loaded, warm - loaded\n"
        "assert not warm & set(sys.modules), 'imported in the caller'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
