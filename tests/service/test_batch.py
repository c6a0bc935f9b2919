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


def test_error_isolation_one_bad_request():
    reqs = _requests(7)
    # eps = 0.4 is outside the solver's (0, 1/4) domain: the worker must
    # report it as a per-request failure, not kill the batch.
    reqs.insert(1, SolveRequest(_graph(9), eps=0.4, request_id="bad"))
    with BatchSolver(max_workers=1, cache=None) as solver:
        # One worker, 8 requests: the auto rule packs 2 per chunk, so the
        # bad request shares its chunk with a good one.
        chunks = solver._chunks(reqs, list(range(8)))
        assert len(next(c for c in chunks if 1 in c)) == 2
        out = solver.solve_batch(reqs)
    by_id = {r.request_id: r for r in out}
    assert not by_id["bad"].ok
    assert "eps" in by_id["bad"].error
    assert by_id["bad"].result is None
    for rid in (f"r{i}" for i in range(7)):
        assert by_id[rid].ok, by_id[rid].error
        assert by_id[rid].result is not None


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


def test_results_keep_request_order_with_chunks():
    reqs = _requests(5)
    # One worker, 5 requests: the auto rule makes chunks of 2, 2 and 1.
    with BatchSolver(max_workers=1, cache=None) as solver:
        out = solver.solve_batch(reqs)
    assert [r.request_id for r in out] == [f"r{i}" for i in range(5)]


def _path_request(m, engine, index):
    """A request on the path with ``m`` edges: its cost is read off ``m``."""
    path = WeightedGraph.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])
    return SolveRequest(path, engine=engine, request_id=f"p{index}")


def test_chunks_cover_pending_once_about_four_per_worker():
    for workers in (1, 2, 3):
        solver = BatchSolver(max_workers=workers, use_processes=False)
        for n in range(1, 30):
            reqs = [_path_request(1 + i % 4, "vectorized", i) for i in range(2 * n)]
            pending = list(range(0, 2 * n, 2))
            chunks = solver._chunks(reqs, pending)
            assert sorted(i for c in chunks for i in c) == pending
            size = -(-n // (4 * workers))
            assert all(1 <= len(c) <= size for c in chunks)
            assert len(chunks) == -(-n // size)


def test_chunks_deal_heaviest_first_round_robin():
    spec = [("vectorized", 5), ("cluster", 3), ("vectorized", 9), ("cluster", 7),
            ("vectorized", 5), ("vectorized", 1), ("cluster", 3), ("vectorized", 8),
            ("vectorized", 2)]
    reqs = [_path_request(m, engine, i) for i, (engine, m) in enumerate(spec)]
    # Cluster before vectorized, then more edges first, ties in request
    # order: 3, 1, 6, 2, 7, 0, 4, 8, 5; dealt over 5 chunks of <= 2.
    chunks = BatchSolver(max_workers=2)._chunks(reqs, list(range(9)))
    assert chunks == [[3, 0], [1, 4], [6, 8], [2, 5], [7]]


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
    buffer the executor's result thread unpickled the chunk from (which
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
