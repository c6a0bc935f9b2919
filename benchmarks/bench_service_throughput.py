"""Service throughput: sequential loop vs pooled batch vs warm-cache replay.

Not a paper claim — the engineering numbers behind the batch service
(DESIGN: the algorithm is embarrassingly parallel *across* instances, so a
process pool should scale near-linearly with cores, and a warm cache should
make repeated traffic nearly free).  On a 32-instance manifest the bench
reports:

* ``sequential`` — an in-process, uncached solver that solves the
  requests one by one (the pre-service baseline);
* ``pooled``     — :class:`~repro.service.batch.BatchSolver` across a warm
  process pool (pool start-up excluded: a service keeps its pool alive,
  so steady-state throughput is the number that matters);
* ``replay``     — the same manifest against the warm cache.

Asserts: pooled and replayed answers are identical to sequential ones;
replay does zero solving (every request is a cache hit); and the pooled
batch beats the loop by a core-scaled factor — ≥ 2× on hosts with 4+ cpus,
≥ 1.2× on 2–3 cpus (shared CI runners can't do better than the cores they
have).  On single-core hosts the speedup assertion is skipped (there is
nothing to shard onto) and only the correctness/caching claims hold.
"""

import os
import time

from benchmarks.conftest import register_table
from repro.graphs.generators import gnp_average_degree
from repro.graphs.weights import uniform_weights
from repro.service.batch import BatchSolver
from repro.service.schema import SolveRequest

NUM_INSTANCES = 32
_CPUS = os.cpu_count() or 1


def _manifest(k=NUM_INSTANCES):
    """k independent mid-size instances (~40k edges each)."""
    reqs = []
    for i in range(k):
        g = gnp_average_degree(4000, 20.0, seed=1000 + i)
        g = g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=2000 + i))
        reqs.append(SolveRequest(g, eps=0.1, seed=17, request_id=f"inst-{i}"))
    return reqs


def test_service_throughput(benchmark):
    requests = _manifest()
    solver = BatchSolver(cache=NUM_INSTANCES + 8)

    t0 = time.perf_counter()
    with BatchSolver(use_processes=False, cache=None) as sequential:
        seq = sequential.solve_batch(requests)
    t_seq = time.perf_counter() - t0

    # Warm instances, distinct from the manifest, to spin the pool up
    # (worker fork + numpy import) before the timed run.
    warmup = [
        SolveRequest(gnp_average_degree(50, 4.0, seed=i), request_id=f"warm-{i}")
        for i in range(2)
    ]
    with solver:
        solver.solve_batch(warmup)
        t0 = time.perf_counter()
        pooled = solver.solve_batch(requests)
        t_pool = time.perf_counter() - t0

        t0 = time.perf_counter()
        replay = solver.solve_batch(requests)
        t_replay = time.perf_counter() - t0

    # pytest-benchmark's timed section: the steady-state pooled+cached path
    # (pool already warm, cache cleared each round so real solving happens).
    def warm_batch():
        solver2.cache.clear()
        return solver2.solve_batch(requests)

    with BatchSolver(cache=NUM_INSTANCES + 8) as solver2:
        solver2.solve_batch(requests[:2])  # spin the pool up
        benchmark.pedantic(warm_batch, rounds=1, iterations=1)

    rows = [
        {"mode": "sequential", "seconds": round(t_seq, 3), "speedup": 1.0},
        {"mode": "pooled", "seconds": round(t_pool, 3),
         "speedup": round(t_seq / t_pool, 2) if t_pool else float("inf")},
        {"mode": "replay (warm cache)", "seconds": round(t_replay, 3),
         "speedup": round(t_seq / t_replay, 2) if t_replay else float("inf")},
    ]
    register_table(
        f"Service throughput: {NUM_INSTANCES} instances, {_CPUS} cpus", rows
    )

    # correctness: all three paths agree bit-for-bit on every instance
    assert all(r.ok for r in seq + pooled + replay)
    for s, p, c in zip(seq, pooled, replay):
        assert p.result.cover_weight == s.result.cover_weight
        assert c.result.cover_weight == s.result.cover_weight
        assert (p.result.in_cover == s.result.in_cover).all()
        assert (c.result.in_cover == s.result.in_cover).all()

    # caching: the replay never re-solved anything
    assert all(r.cache_hit for r in replay)
    assert all(r.elapsed == 0.0 for r in replay)
    assert t_replay < t_seq / 10, "warm-cache replay should be near-free"

    # scaling: sharding must pay for itself once there are cores to shard
    # onto; a 2-core box cannot exceed 2x, so the bar scales with the host.
    if _CPUS >= 2:
        required = 2.0 if _CPUS >= 4 else 1.2
        assert t_pool * required <= t_seq, (
            f"pooled batch {t_pool:.2f}s not {required}x faster than "
            f"sequential {t_seq:.2f}s on {_CPUS} cpus"
        )
