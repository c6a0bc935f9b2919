"""The three benchmark workloads, run in a process of their own.

``run.py`` starts this file once per benchmark run::

    PYTHONPATH=src python3 perfbench/workloads.py --workload stream-uniform \\
        --inputs <input dir> --work <scratch dir> --seconds 20 --trace 0 --out result.json

A run repeats passes until ``--seconds`` have elapsed.  Each pass replays
the whole workload from its input files (closed loop: a batch is handed
over only when the previous one is done), with a fresh solver so no cache
state leaks from one pass to the next.  With ``--trace 1`` traced and
untraced passes alternate: the traced ones give the per-layer metrics,
the untraced ones the tracing overhead.

On a shared virtual machine the core's speed swings by half over tens of
seconds as other tenants come and go, in CPU time as much as in wall time.
A fixed calibration kernel is therefore timed between passes, and each
pass's timings are scaled by ``CALIBRATION_REF_S / (mean kernel time on
either side of the pass)`` — reported times read as seconds on a core
running the kernel in ``CALIBRATION_REF_S``.  The unscaled numbers are
printed with the run's detail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import inputs
import oracle
import tracing

WORKLOADS = ("stream-uniform", "stream-durable", "solve-batch")

#: Durability policy of ``stream-durable`` (fsync off: its latency belongs
#: to the shared disk, not to the program).  Snapshots every 5 batches make
#: snapshot batches ~18% of all, so ``step_ms_p90`` lands inside that group
#: rather than on its edge, where it would jump with the seed.
DURABLE = dict(fsync=False, snapshot_every=5, keep_snapshots=2, compact_wal=True)

#: Pool size of ``solve-batch``: never more workers than cores.
MAX_WORKERS = 2

#: Calibration kernel time on an undisturbed core (2-vCPU x86-64 VM, CPython 3.11).
CALIBRATION_REF_S = 0.060


def calibration_kernel_s() -> float:
    """Wall seconds of one fixed mix of interpreter and NumPy work."""
    start = time.perf_counter()
    total = 0
    table = {}
    for k in range(400_000):
        total += k
        table[k & 1023] = total
    values = np.arange(250_000, dtype=np.float64)
    for _ in range(20):
        values = np.sort(values[::-1]) + 1.0
    return time.perf_counter() - start


class InjectedCrash(Exception):
    """Raised from the ``apply_batch`` wrapper to crash a durable stream."""


class BatchClock:
    """One clock read per ``apply_batch`` call; optionally crashes at one call.

    The crash is raised after the batch's WAL commit and before the batch
    is applied: the crash point ``resume_stream`` must recover from.
    """

    def __init__(self):
        self.starts: List[float] = []
        self.crash_at: Optional[int] = None
        self.active = True

    def install(self, patches: tracing.Patches) -> None:
        from repro.dynamic.maintainer import IncrementalCoverMaintainer

        clock = self

        def make(apply_batch):
            def wrapper(maintainer, updates):
                if clock.active:
                    clock.starts.append(time.perf_counter())
                    if len(clock.starts) - 1 == clock.crash_at:
                        clock.active = False
                        raise InjectedCrash()
                return apply_batch(maintainer, updates)

            return wrapper

        patches.wrap(IncrementalCoverMaintainer, "apply_batch", make)


def _counting_solver(rounds: List[int], **kwargs):
    """A fresh :class:`BatchSolver` that records MPC rounds of real solves."""
    from repro.service.batch import BatchSolver

    solver = BatchSolver(**kwargs)
    solve = solver.solve

    def solve_and_count(request):
        result = solve(request)
        if result.ok and not result.cache_hit:
            rounds.append(result.result.mpc_rounds)
        return result

    solver.solve = solve_and_count
    return solver


class StreamWorkload:
    """``stream-uniform`` and ``stream-durable``: one replay per pass."""

    def __init__(self, input_dir: str, work_dir: str, *, durable: bool):
        meta = inputs.load_meta(input_dir)
        self.graph_path = os.path.join(input_dir, inputs.STREAM_GRAPH)
        self.updates_path = os.path.join(input_dir, inputs.STREAM_UPDATES)
        self.batch_size = int(meta["config"]["batch_size"])
        self.num_updates = int(meta["inputs"]["updates"])
        self.num_batches = -(-self.num_updates // self.batch_size)
        self.durable = durable
        self.checkpoint_dir = os.path.join(work_dir, "checkpoint")
        self.items = f"{self.num_updates} updates"

    def run_pass(self, tracer) -> dict:
        from repro.dynamic.stream import CheckpointConfig, resume_stream, run_stream
        from repro.graphs.io import load_npz
        from repro.graphs.updates import load_update_stream

        traced = isinstance(tracer, tracing.Tracer)
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)
        patches = tracing.Patches()
        rounds: List[int] = []
        resume_s = 0.0
        try:
            if traced:
                tracing.install_stream_layers(tracer, patches)
                tracing.install_core_layers(tracer, patches)
            clock = BatchClock()
            if self.durable:
                clock.crash_at = self.num_batches - 1
            clock.install(patches)
            t0 = time.perf_counter()
            with tracer.span("pass"):
                with tracer.span("graphs.load_npz"):
                    graph = load_npz(self.graph_path)
                with tracer.span("graphs.decode"):
                    updates = load_update_stream(self.updates_path)
                tracer.count("graphs.decoded_events", len(updates))
                checkpoint = (
                    CheckpointConfig(self.checkpoint_dir, **DURABLE) if self.durable else None
                )
                solver = _counting_solver(rounds, use_processes=False)
                try:
                    with tracer.span("stream.run"):
                        summary = run_stream(
                            graph,
                            updates,
                            batch_size=self.batch_size,
                            solver=solver,
                            checkpoint=checkpoint,
                            profile=traced,
                        )
                    crashed = False
                except InjectedCrash:
                    crashed = True
                finally:
                    solver.close()
                if self.durable:
                    if not crashed:
                        raise RuntimeError("the injected crash did not fire")
                    # A crashed process keeps nothing: fresh solver, empty cache.
                    solver = _counting_solver(rounds, use_processes=False)
                    t_resume = time.perf_counter()
                    try:
                        with tracer.span("stream.resume"):
                            summary = resume_stream(
                                self.checkpoint_dir, solver=solver, profile=traced
                            )
                    finally:
                        solver.close()
                    resume_s = time.perf_counter() - t_resume
            t_end = time.perf_counter()
        finally:
            patches.restore()

        starts = clock.starts
        if self.durable:
            # Updates handed over before the crash, over the wall they took.
            items = (self.num_batches - 1) * self.batch_size
            busy_s = starts[-1] - starts[0]
        else:
            items = self.num_updates
            busy_s = t_end - starts[0]
        return {
            "setup_s": starts[0] - t0,
            "items": items,
            "busy_s": busy_s,
            "steps_ms": [1e3 * (b - a) for a, b in zip(starts, starts[1:])],
            "pass_s": t_end - t0,
            "resume_s": resume_s,
            "certified_ratio": summary.final_certified_ratio,
            "rounds": rounds,
            "attempted": self.num_batches,
            "failed": 0,
            "answer": (
                summary.final_cover,
                summary.final_cover_weight,
                summary.final_dual_value,
                summary.final_certified_ratio,
            ),
        }

    def pass_failures(self, first: dict, this: dict) -> List[str]:
        a, b = first["answer"], this["answer"]
        if np.array_equal(a[0], b[0]) and a[1:] == b[1:]:
            return []
        return ["a replay of the same stream gave a different final state"]

    def final_failures(self, first: dict) -> List[str]:
        """The independent oracle, plus the durable/plain equality check."""
        from repro.dynamic.stream import run_stream
        from repro.graphs.io import load_npz
        from repro.graphs.updates import load_update_stream

        cover, weight, dual, ratio = first["answer"]
        n, edges, weights = oracle.replay_stream(self.graph_path, self.updates_path)
        failures = oracle.check_stream_result(
            n, edges, weights, cover=cover, cover_weight=weight,
            certified_ratio=ratio, label="final stream state",
        )
        if self.durable:
            plain = run_stream(
                load_npz(self.graph_path),
                load_update_stream(self.updates_path),
                batch_size=self.batch_size,
            )
            if not (
                np.array_equal(plain.final_cover, cover)
                and plain.final_dual_value == dual
                and plain.final_certified_ratio == ratio
            ):
                failures.append("resumed durable stream differs from the plain stream")
        return failures


class BatchWorkload:
    """``solve-batch``: ``load_manifest`` plus one pooled ``solve_batch`` per pass."""

    def __init__(self, input_dir: str, work_dir: str):
        self.input_dir = input_dir
        self.manifest_path = os.path.join(input_dir, inputs.MANIFEST)
        with open(self.manifest_path, "r", encoding="utf-8") as fh:
            self.lines = [json.loads(line) for line in fh if line.strip()]
        self.workers = max(1, min(MAX_WORKERS, os.cpu_count() or 1))
        self.items = f"{len(self.lines)} requests"
        self._graphs: Optional[Dict[str, tuple]] = None

    def run_pass(self, tracer) -> dict:
        from repro.service.batch import BatchSolver
        from repro.service.manifest import load_manifest

        patches = tracing.Patches()
        try:
            if isinstance(tracer, tracing.Tracer):
                tracing.install_manifest_layers(tracer, patches)
            t0 = time.perf_counter()
            with tracer.span("pass"):
                with tracer.span("service.load_manifest"):
                    requests = load_manifest(self.manifest_path)
                t_loaded = time.perf_counter()
                solver = BatchSolver(max_workers=self.workers)
                try:
                    with tracer.span("service.solve_batch"):
                        results = solver.solve_batch(requests)
                    t_solved = time.perf_counter()
                    stats = solver.cache.stats()
                finally:
                    with tracer.span("service.close"):
                        solver.close()
            t_end = time.perf_counter()
        finally:
            patches.restore()

        solved = [r for r in results if r.ok and not r.cache_hit]
        ok = [r for r in results if r.ok]
        tracer.count("service.cache_hits", sum(r.cache_hit for r in results))
        tracer.count("service.cache_misses", stats.misses)
        tracer.count("service.worker_solve_s", sum(r.elapsed for r in results))
        return {
            "setup_s": t_loaded - t0,
            "items": len(results),
            "busy_s": t_solved - t_loaded,
            "steps_ms": [1e3 * r.elapsed for r in solved],
            "pass_s": t_end - t0,
            "resume_s": 0.0,
            "certified_ratio": (
                statistics.fmean(r.result.certificate.certified_ratio for r in ok)
                if ok else math.inf
            ),
            "rounds": [r.result.mpc_rounds for r in solved],
            "attempted": len(results),
            "failed": len(results) - len(ok),
            "answer": results,
        }

    def pass_failures(self, first: dict, this: dict) -> List[str]:
        if self._graphs is None:
            names = {line["input"] for line in self.lines}
            self._graphs = {
                name: oracle.read_graph(os.path.join(self.input_dir, name)) for name in names
            }
        failures = oracle.check_batch_results(self._graphs, self.lines, this["answer"])
        for line, a, b in zip(self.lines, first["answer"], this["answer"]):
            if a.ok and b.ok and not (
                np.array_equal(a.result.in_cover, b.result.in_cover)
                and a.result.cover_weight == b.result.cover_weight
            ):
                failures.append(f"{line['id']}: answer changed between passes")
        return failures

    def final_failures(self, first: dict) -> List[str]:
        return []

    def traced_core_solve(self, tracer: tracing.Tracer) -> None:
        """Solve the manifest's distinct requests in process, core layers traced."""
        from repro.service.batch import BatchSolver
        from repro.service.manifest import load_manifest

        requests = load_manifest(self.manifest_path)
        distinct = list({r.cache_key(): r for r in requests}.values())
        patches = tracing.Patches()
        tracer.run_id = "core"
        try:
            tracing.install_core_layers(tracer, patches)
            with BatchSolver(use_processes=False, cache=None) as solver:
                with tracer.span("core.inprocess"):
                    results = solver.solve_batch(distinct)
        finally:
            patches.restore()
        bad = [r.request_id for r in results if not r.ok]
        if bad:
            raise RuntimeError(f"traced in-process solve failed for {bad}")


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end_metrics(passes: List[dict], peak_rss_mb: float) -> dict:
    """Speed-scaled timings, as medians over the measured passes.

    Step k (a batch position, or a solved manifest line) does the same work
    in every pass: its time is its median over the passes, and the
    percentiles run across step positions.  A stall that hits one pass
    moves neither.
    """
    scaled = np.array([p["steps_ms"] for p in passes], dtype=np.float64)
    scaled *= np.array([[p["speed"]] for p in passes])
    steps = np.median(scaled, axis=0)
    rounds = [r for p in passes for r in p["rounds"]]
    return {
        "items_per_s": statistics.median(p["items"] / (p["busy_s"] * p["speed"]) for p in passes),
        "step_ms_p50": _percentile(steps, 50),
        "step_ms_p90": _percentile(steps, 90),
        "setup_s": statistics.median(p["setup_s"] * p["speed"] for p in passes),
        "pass_s": statistics.median(p["pass_s"] * p["speed"] for p in passes),
        "certified_ratio": statistics.median(p["certified_ratio"] for p in passes),
        "mpc_rounds_per_solve": statistics.fmean(rounds),
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_metrics(tracer: tracing.Tracer, run_id: str, workers: int) -> dict:
    """Every per-layer metric of one traced pass (self seconds unless noted)."""
    totals = tracer.run_totals(run_id)
    counts = tracer.run_counts(run_id)

    def own(name):
        return totals.get(name, {}).get("self", 0.0)

    def whole(name):
        return totals.get(name, {}).get("total", 0.0)

    def count(name):
        return counts.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    service_wall = whole("service.solve") + whole("service.solve_batch")
    service_workers = workers if whole("service.solve_batch") else 1
    return {
        "graphs.load_npz_s": own("graphs.load_npz"),
        "graphs.decode_s": own("graphs.decode"),
        "graphs.decode_events_per_s": ratio(count("graphs.decoded_events"), whole("graphs.decode")),
        "dynamic_graph.apply_s": count("dynamic_graph.apply_s"),
        "dynamic_graph.build_s": own("dynamic_graph.build"),
        "dynamic_graph.digest_s": own("dynamic_graph.digest"),
        "dynamic_graph.digest_calls": count("dynamic_graph.digest_calls"),
        "dynamic_graph.compact_s": own("dynamic_graph.compact"),
        "dynamic_graph.compactions": count("dynamic_graph.compactions"),
        "maintainer.apply_batch_s": own("maintainer.apply_batch"),
        "maintainer.events_applied_ratio": ratio(
            count("maintainer.events_applied"), count("maintainer.events")
        ),
        "maintainer.adopt_s": own("maintainer.adopt"),
        "maintainer.verify_s": own("maintainer.verify"),
        "repair.pricing_s": own("repair.pricing"),
        "repair.prune_s": own("repair.prune"),
        "repair.certificate_s": own("repair.certificate"),
        "repair.repaired_edges": count("repair.repaired_edges"),
        "repair.added": count("repair.added"),
        "repair.pruned": count("repair.pruned"),
        "policy.resolves": count("policy.resolves"),
        "policy.resolves_drift": count("policy.resolves_drift"),
        "policy.resolves_unbounded": count("policy.resolves_unbounded"),
        "policy.resolves_periodic": count("policy.resolves_periodic"),
        "policy.resolves_ceiling": count("policy.resolves_ceiling"),
        "policy.resolves_other": count("policy.resolves_other"),
        "service.solve_s": whole("service.solve"),
        "service.solve_batch_s": whole("service.solve_batch"),
        "service.cache_hits": count("service.cache_hits"),
        "service.cache_misses": count("service.cache_misses"),
        "service.worker_solve_s": count("service.worker_solve_s"),
        "service.worker_busy_frac": ratio(
            count("service.worker_solve_s"), service_wall * service_workers
        ),
        "core.plan_phase_s": own("core.plan_phase"),
        "core.run_phase_s": own("core.run_phase"),
        "core.apply_outcome_s": own("core.apply_outcome"),
        "core.final_phase_s": own("core.final_phase"),
        "core.certify_s": own("core.certify"),
        "core.solve_other_s": own("core.solve"),
        "core.phases": count("core.phases"),
        "core.final_iterations": count("core.final_iterations"),
        "core.final_edges": count("core.final_edges"),
        "core.mpc_rounds": count("core.mpc_rounds"),
        "mpc.total_messages": count("mpc.total_messages"),
        "mpc.total_words": count("mpc.total_words"),
        "mpc.max_sent_words": count("mpc.max_sent_words"),
        "wal.append_s": own("wal.append"),
        "wal.appends": count("wal.appends"),
        "wal.bytes": count("wal.bytes"),
        "wal.read_s": own("wal.read"),
        "wal.repair_s": own("wal.repair"),
        "wal.compact_s": own("wal.compact"),
        "wal.compactions": count("wal.compactions"),
        "wal.open_close_s": own("wal.open") + own("wal.close"),
        "checkpoint.save_s": own("checkpoint.save"),
        "checkpoint.saves": count("checkpoint.saves"),
        "checkpoint.bytes": count("checkpoint.bytes"),
        "checkpoint.load_s": own("checkpoint.load"),
        "stream.prepare_s": own("stream.prepare"),
        "stream.resume_s": whole("stream.resume"),
        "stream.unattributed_frac": ratio(
            sum(own(name) for name in tracing.ORCHESTRATION_SPANS), whole("pass")
        ),
    }


_CORE_PREFIXES = ("core.", "mpc.")


def per_layer_metrics(
    tracer: tracing.Tracer, traced: List[dict], untraced: List[dict], workers: int
) -> dict:
    runs = [p["run_id"] for p in traced]
    rows = [_layer_metrics(tracer, run, workers) for run in runs]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    if "core" in tracer.runs():
        # solve-batch: the pool's workers are not traced; the core layers come
        # from the in-process solve of the manifest's distinct requests.
        core = _layer_metrics(tracer, "core", workers)
        out.update({k: v for k, v in core.items() if k.startswith(_CORE_PREFIXES)})
    traced_wall = statistics.median(p["pass_s"] * p["speed"] for p in traced)
    plain_wall = statistics.median(p["pass_s"] * p["speed"] for p in untraced)
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def run(args) -> dict:
    if args.workload == "solve-batch":
        workload = BatchWorkload(args.inputs, args.work)
    else:
        workload = StreamWorkload(
            args.inputs, args.work, durable=args.workload == "stream-durable"
        )
    trace = bool(args.trace)
    tracer = tracing.Tracer() if trace else None
    null = tracing.NullTracer()

    attempted = failed = 0
    failures: List[str] = []
    first: Optional[dict] = None
    traced_passes: List[dict] = []
    plain_passes: List[dict] = []
    kernel_s = calibration_kernel_s()
    deadline = time.perf_counter() + args.seconds
    index = 0
    while (
        time.perf_counter() < deadline
        or not plain_passes
        or (trace and not traced_passes)
    ):
        use_trace = trace and (index % 2 == 0)
        if use_trace:
            tracer.run_id = f"pass-{index}"
        result = workload.run_pass(tracer if use_trace else null)
        kernel_after = calibration_kernel_s()
        result["speed"] = 2.0 * CALIBRATION_REF_S / (kernel_s + kernel_after)
        kernel_s = kernel_after
        result["run_id"] = f"pass-{index}"
        (traced_passes if use_trace else plain_passes).append(result)
        attempted += result["attempted"] + 1
        failed += result["failed"]
        first = first or result
        this = workload.pass_failures(first, result)
        failures += this
        failed += bool(this)
        if result is not first:
            result["answer"] = None  # keep memory flat across passes
        index += 1

    rss = peak_rss_mb()
    if trace and args.workload == "solve-batch":
        workload.traced_core_solve(tracer)
    final = workload.final_failures(first)
    attempted += 1
    failed += bool(final)
    failures += final

    detail = {
        "rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rss_child_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "work_per_pass": workload.items,
        "passes": len(plain_passes),
        "traced_passes": len(traced_passes),
        "step_samples": sum(len(p["steps_ms"]) for p in plain_passes),
        "failures": failures[:20],
    }
    if trace:
        workers = getattr(workload, "workers", 1)
        metrics = per_layer_metrics(tracer, traced_passes, plain_passes, workers)
        tracer.dump(args.trace_out)
        detail["trace_file"] = args.trace_out
    else:
        metrics = end_to_end_metrics(plain_passes, rss)
        for key in ("speed", "setup_s", "busy_s", "pass_s", "resume_s"):
            detail["per_pass_" + key] = [round(p[key], 4) for p in plain_passes]
    return {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--inputs", required=True, help="generated input directory")
    parser.add_argument("--work", required=True, help="scratch directory for checkpoints")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="span JSON path (--trace 1)")
    parser.add_argument("--out", required=True, help="result JSON path")
    args = parser.parse_args(argv)
    if args.trace and not args.trace_out:
        parser.error("--trace 1 needs --trace-out")
    os.makedirs(args.work, exist_ok=True)
    # Manifest lines name their graph files relative to the input directory.
    os.chdir(args.inputs)
    result = run(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
