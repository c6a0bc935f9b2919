"""Durability overhead: checkpointed streams vs plain streams.

Not a paper claim — the engineering case for the durability layer
(DESIGN: the WAL commit + periodic snapshots must cost little enough that
durable-by-default is reasonable, and checkpointing must not *change* the
result).  The same churn stream is replayed three ways:

* ``plain`` — :func:`repro.dynamic.run_stream` with no checkpointing;
* ``durable`` — WAL + snapshots with ``fsync`` (the crash-consistent
  default of ``repro stream --checkpoint-dir``);
* ``durable-nofsync`` — same, buffered writes only (``--no-fsync``).

Asserts: all three final covers are *identical* (durability is
observationally invisible), and restoring the final snapshot reproduces
the maintained state.  Results are emitted as JSON — written to the path
in ``$BENCH_CHECKPOINT_JSON`` when set (the CI artifact), or to the
``--out`` path when run as a script::

    python benchmarks/bench_checkpoint.py --out bench_checkpoint.json
"""

import json
import os
import shutil
import tempfile
import time

import numpy as np

from benchmarks.conftest import register_table
from repro.dynamic import CheckpointConfig, ResolvePolicy, run_stream
from repro.dynamic.checkpoint import load_snapshot
from repro.graphs.generators import gnp_average_degree
from repro.graphs.streams import make_update_stream
from repro.graphs.weights import uniform_weights

N = 2000
DEGREE = 12.0
NUM_UPDATES = 1200
BATCH_SIZE = 50
SNAPSHOT_EVERY = 4
EPS = 0.1
SEED = 9

POLICY = ResolvePolicy(max_drift=0.1)


def _workload():
    g = gnp_average_degree(N, DEGREE, seed=5)
    return g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=6))


def _run(graph, updates, checkpoint=None):
    start = time.perf_counter()
    summary = run_stream(
        graph,
        updates,
        batch_size=BATCH_SIZE,
        policy=POLICY,
        eps=EPS,
        seed=SEED,
        checkpoint=checkpoint,
    )
    return summary, time.perf_counter() - start


def run_bench():
    """Replay the stream plain and durable; returns (rows, results-dict)."""
    graph = _workload()
    updates = make_update_stream("uniform", graph, NUM_UPDATES, seed=7)
    results = {
        "config": {
            "n": N,
            "degree": DEGREE,
            "num_updates": NUM_UPDATES,
            "batch_size": BATCH_SIZE,
            "snapshot_every": SNAPSHOT_EVERY,
        },
        "modes": {},
    }
    rows = []
    covers = {}
    snapshot_bytes = 0
    wal_bytes = 0
    for mode, fsync in (("plain", None), ("durable", True), ("durable-nofsync", False)):
        directory = None
        checkpoint = None
        if fsync is not None:
            directory = tempfile.mkdtemp(prefix=f"bench-ckpt-{mode}-")
            checkpoint = CheckpointConfig(
                directory=directory,
                snapshot_every=SNAPSHOT_EVERY,
                fsync=fsync,
            )
        try:
            summary, elapsed = _run(graph, updates, checkpoint)
            assert summary.final_is_cover
            covers[mode] = summary.final_cover
            if checkpoint is not None:
                _, snapshot = checkpoint.list_snapshots()[0]
                snapshot_bytes = os.path.getsize(snapshot)
                wal_bytes = os.path.getsize(checkpoint.wal_path)
                restored = load_snapshot(snapshot).maintainer
                assert np.array_equal(restored.cover, summary.final_cover), (
                    "final snapshot does not restore the maintained cover"
                )
            results["modes"][mode] = {
                "summary": summary.summary(),
                "seconds": round(elapsed, 3),
                "updates_per_second": round(NUM_UPDATES / elapsed),
            }
            rows.append(
                {
                    "mode": mode,
                    "updates/s": round(NUM_UPDATES / elapsed),
                    "re-solves": summary.num_resolves,
                    "snapshot KiB": round(snapshot_bytes / 1024, 1) if checkpoint else "-",
                    "wal KiB": round(wal_bytes / 1024, 1) if checkpoint else "-",
                }
            )
        finally:
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)
    results["durability_overhead"] = (
        results["modes"]["durable"]["seconds"]
        / results["modes"]["plain"]["seconds"]
    )
    return rows, results, covers


def _check(results, covers) -> None:
    for mode in ("durable", "durable-nofsync"):
        assert np.array_equal(covers["plain"], covers[mode]), (
            f"{mode}: checkpointing changed the final cover"
        )
        assert (
            results["modes"][mode]["summary"]["final_certified_ratio"]
            == results["modes"]["plain"]["summary"]["final_certified_ratio"]
        ), f"{mode}: checkpointing changed the certificate"


def test_checkpoint_overhead(benchmark):
    rows, results, covers = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    register_table(
        f"Durability overhead: {NUM_UPDATES} updates, snapshot every "
        f"{SNAPSHOT_EVERY} batches",
        rows,
    )
    _check(results, covers)
    out = os.environ.get("BENCH_CHECKPOINT_JSON")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="bench_checkpoint.json",
                        help="where to write the results JSON")
    args = parser.parse_args(argv)
    rows, results, covers = run_bench()
    _check(results, covers)
    from repro.analysis.tables import render_table

    print(render_table(rows, title="Durability overhead: plain vs checkpointed"))
    print(f"durable/plain wall-clock ratio: {results['durability_overhead']:.2f}x")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
