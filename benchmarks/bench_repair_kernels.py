"""Repair-kernel microbenchmark: vectorized vs reference hot path.

Not a paper claim — the perf gate of the kernel-vectorization PR
(DESIGN: the streaming subsystem's pricing-repair and greedy-prune
kernels, plus the CSR-delta adjacency under them, must be measurably
faster than the original object-at-a-time implementations while staying
*bit-identical*).  The bench replays one seeded 100k-update uniform-churn
stream through two maintainers — the production
:class:`~repro.dynamic.IncrementalCoverMaintainer` (vectorized kernels) and
the ``ReferenceMaintainer`` of ``tests/kernel_oracle.py`` (the original
code, kept as the executable spec) — with per-kernel profiling on, and
asserts:

* the final covers, duals, and dual totals agree bit for bit;
* the vectorized *kernel* time (repair + prune) is at least
  :data:`MIN_KERNEL_SPEEDUP`× faster than the reference's.

End-to-end throughput (which also contains the sequential event-apply
loop common to both modes) is reported but not gated.  Results are
emitted as JSON — written to ``$BENCH_REPAIR_JSON`` when set (the CI
perf-smoke artifact; the committed ``BENCH_repair.json`` baseline is this
file's output), or to ``--out`` when run as a script::

    python benchmarks/bench_repair_kernels.py --out BENCH_repair.json
"""

import json
import os
import sys
import time

if __package__ in (None, ""):  # `python benchmarks/bench_repair_kernels.py`
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.conftest import register_table
from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer
from repro.graphs.generators import gnp_average_degree
from repro.graphs.streams import make_update_stream
from repro.graphs.weights import uniform_weights
from tests.kernel_oracle import ReferenceMaintainer

N = 10_000
DEGREE = 10.0
NUM_UPDATES = int(os.environ.get("BENCH_REPAIR_UPDATES", 100_000))
BATCH_SIZE = 1000
EPS = 0.1
SOLVE_SEED = 2
STREAM_SEED = 7

#: Required kernel-time (repair + prune) speedup of vectorized over
#: reference.  The committed BENCH_repair.json baseline measures ~6.9x
#: on the 100k-update uniform-churn stream; the gate leaves headroom for
#: machine-to-machine variance (4-7x observed across runs).
MIN_KERNEL_SPEEDUP = 3.0


def _workload():
    g = gnp_average_degree(N, DEGREE, seed=5)
    return g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=6))


#: The maintainer class behind each side of the comparison.
MAINTAINERS = {
    "reference": ReferenceMaintainer,
    "vectorized": IncrementalCoverMaintainer,
}


def _replay(graph, updates, result, kernels):
    """Adopt ``result`` and replay the full stream; returns measurements."""
    dyn = DynamicGraph(graph)
    maintainer = MAINTAINERS[kernels](dyn, profile=True)
    maintainer.adopt(result)
    start = time.perf_counter()
    for i in range(0, len(updates), BATCH_SIZE):
        maintainer.apply_batch(updates[i : i + BATCH_SIZE])
    elapsed = time.perf_counter() - start
    profile = maintainer.kernel_profile
    return {
        "elapsed_s": elapsed,
        "updates_per_s": len(updates) / elapsed,
        "kernel_s": profile["repair_s"] + profile["prune_s"],
        "profile": {k: round(v, 6) for k, v in profile.items()},
        "final": (
            maintainer.cover,
            maintainer.edge_duals(),
            maintainer.dual_value,
            maintainer.verify(),
        ),
    }


def run_bench():
    """Replay the stream through both kernel sets; returns (rows, results)."""
    graph = _workload()
    updates = make_update_stream("uniform", graph, NUM_UPDATES, seed=STREAM_SEED)
    result = minimum_weight_vertex_cover(graph, eps=EPS, seed=SOLVE_SEED)

    runs = {
        kernels: _replay(graph, updates, result, kernels)
        for kernels in ("reference", "vectorized")
    }
    ref, vec = runs["reference"], runs["vectorized"]

    ref_cover, ref_duals, ref_dual_value, ref_valid = ref.pop("final")
    vec_cover, vec_duals, vec_dual_value, vec_valid = vec.pop("final")
    assert ref_valid and vec_valid, "a maintained cover failed verification"
    assert (ref_cover == vec_cover).all(), "covers diverged between kernel sets"
    assert ref_duals == vec_duals, "duals diverged between kernel sets"
    assert ref_dual_value == vec_dual_value, "dual totals diverged"

    results = {
        "config": {
            "n": N,
            "degree": DEGREE,
            "num_updates": NUM_UPDATES,
            "batch_size": BATCH_SIZE,
            "churn": "uniform",
            "eps": EPS,
            "min_kernel_speedup": MIN_KERNEL_SPEEDUP,
        },
        "reference": {k: round(v, 6) if isinstance(v, float) else v for k, v in ref.items()},
        "vectorized": {k: round(v, 6) if isinstance(v, float) else v for k, v in vec.items()},
        "kernel_speedup": ref["kernel_s"] / vec["kernel_s"],
        "stream_speedup": ref["elapsed_s"] / vec["elapsed_s"],
        "bit_identical": True,
    }
    rows = [
        {
            "kernels": kernels,
            "updates/s": round(runs[kernels]["updates_per_s"]),
            "kernel s": round(runs[kernels]["kernel_s"], 3),
            "repair s": runs[kernels]["profile"]["repair_s"],
            "prune s": runs[kernels]["profile"]["prune_s"],
            "adjacency s": runs[kernels]["profile"]["adjacency_s"],
        }
        for kernels in ("reference", "vectorized")
    ]
    rows.append(
        {
            "kernels": "speedup",
            "updates/s": f"{results['stream_speedup']:.2f}x",
            "kernel s": f"{results['kernel_speedup']:.2f}x",
            "repair s": "",
            "prune s": "",
            "adjacency s": "",
        }
    )
    return rows, results


def _check(results) -> None:
    speedup = results["kernel_speedup"]
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"vectorized kernels are only {speedup:.2f}x faster than the "
        f"reference (need >= {MIN_KERNEL_SPEEDUP}x)"
    )


def test_repair_kernel_speedup(benchmark):
    rows, results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    register_table(
        f"Repair kernels: {NUM_UPDATES} uniform-churn updates, "
        f"batches of {BATCH_SIZE}",
        rows,
    )
    _check(results)
    out = os.environ.get("BENCH_REPAIR_JSON")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_repair.json",
                        help="where to write the results JSON")
    args = parser.parse_args(argv)
    rows, results = run_bench()
    _check(results)
    from repro.analysis.tables import render_table

    print(render_table(rows, title="Repair kernels: vectorized vs reference"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
