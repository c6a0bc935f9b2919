"""BatchSolver: pooling, isolation, dedup, caching, timeouts."""

import numpy as np
import pytest

from repro.graphs.generators import gnp_average_degree
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
        # bad request shares its chunk with r0.
        assert solver._chunks(list(range(8)))[0] == [0, 1]
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
