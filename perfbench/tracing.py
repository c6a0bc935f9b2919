"""Spans recorded from outside the program, around its public calls.

The benchmark never edits ``src/``: a traced pass swaps public functions
and methods — as the orchestration modules look them up
(``repro.dynamic.stream``, ``repro.dynamic.maintainer``,
``repro.core.mpc_mwvc``, ``repro.service``) — for wrappers that open a
span, and puts the originals back when the pass ends.  Spans stay in
memory (name, start, end, parent, run id) and are written out as JSON
when the benchmark ends; every per-layer metric is derived from them and
from the counts recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Spans that only orchestrate: their self time is wall no layer claims.
ORCHESTRATION_SPANS = ("pass", "stream.run", "stream.resume")


class Tracer:
    """In-memory span and count recorder for one benchmark process."""

    def __init__(self):
        self.spans: List[dict] = []
        self.counts: Dict[tuple, float] = defaultdict(float)
        self.run_id: Optional[str] = None
        self._stack: List[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": self.run_id,
                }
            )

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.run_id, name)] += float(value)

    def peak(self, name: str, value: float) -> None:
        key = (self.run_id, name)
        self.counts[key] = max(self.counts[key], float(value))

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None):
        """``fn`` inside a span; ``on_result(args, result)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def runs(self) -> List[str]:
        return sorted({s["run"] for s in self.spans if s["run"] is not None})

    def run_totals(self, run_id: str) -> Dict[str, dict]:
        """Per span name: call count, inclusive and self seconds, in one run."""
        spans = [s for s in self.spans if s["run"] == run_id]
        child_time: Dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for s in spans:
            duration = s["end"] - s["start"]
            row = out[s["name"]]
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration - child_time[s["id"]]
        return dict(out)

    def run_counts(self, run_id: str) -> Dict[str, float]:
        return {name: v for (run, name), v in self.counts.items() if run == run_id}

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        counts = [
            {"run": run, "name": name, "value": value}
            for (run, name), value in sorted(self.counts.items(), key=str)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


class NullTracer:
    """Stand-in for untraced passes: spans and counts cost nothing."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, value: float = 1.0) -> None:
        pass


class Patches:
    """Attribute swaps that are undone, newest first, by :meth:`restore`."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` by ``make(current_value)``."""
        self.set(owner, attr, make(vars(owner)[attr]))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _resolve_category(reason: str) -> str:
    """Resolve reason text -> a fixed metric suffix (reasons embed numbers)."""
    if reason.startswith("drift bound"):
        return "drift"
    if reason.startswith("certificate unbounded"):
        return "unbounded"
    if reason.startswith("periodic refresh"):
        return "periodic"
    if reason.startswith("ratio "):
        return "ceiling"
    return "other"


def install_stream_layers(tracer: Tracer, patches: Patches) -> None:
    """Spans around every layer a stream pass calls into."""
    import repro.dynamic.maintainer as maintainer_mod
    import repro.dynamic.stream as stream_mod
    from repro.dynamic.dynamic_graph import DynamicGraph
    from repro.dynamic.maintainer import IncrementalCoverMaintainer
    from repro.dynamic.policy import ResolvePolicy
    from repro.dynamic.wal import WriteAheadLog
    from repro.service.batch import BatchSolver

    t = tracer

    # repro.graphs, as the resume path reads its checkpoint directory.
    patches.wrap(stream_mod, "load_npz", lambda f: t.wrap("graphs.load_npz", f))
    patches.wrap(
        stream_mod,
        "load_update_stream",
        lambda f: t.wrap(
            "graphs.decode", f, lambda a, r: t.count("graphs.decoded_events", len(r))
        ),
    )

    # Checkpoint-directory preparation (graph + update stream + config).
    for attr in ("save_npz", "save_update_stream", "write_bytes_atomic"):
        patches.wrap(stream_mod, attr, lambda f: t.wrap("stream.prepare", f))

    # repro.dynamic.dynamic_graph
    patches.wrap(DynamicGraph, "__init__", lambda f: t.wrap("dynamic_graph.build", f))
    patches.wrap(
        DynamicGraph,
        "content_digest",
        lambda f: t.wrap(
            "dynamic_graph.digest", f, lambda a, r: t.count("dynamic_graph.digest_calls")
        ),
    )

    def traced_compact(compact):
        def wrapper(self):
            before = self.compactions
            with t.span("dynamic_graph.compact"):
                result = compact(self)
            t.count("dynamic_graph.compactions", self.compactions - before)
            return result

        return functools.wraps(compact)(wrapper)

    patches.wrap(DynamicGraph, "compact", traced_compact)

    # repro.dynamic.maintainer / repro.dynamic.repair
    def on_report(args, report):
        maintainer = args[0]
        t.count("maintainer.events", report.num_updates)
        t.count("maintainer.events_applied", report.applied)
        t.count("repair.repaired_edges", report.repaired_edges)
        t.count("repair.added", report.added_to_cover)
        t.count("repair.pruned", report.pruned_from_cover)
        profile = maintainer.last_batch_profile
        if profile is not None:
            t.count("dynamic_graph.apply_s", profile["adjacency_s"])

    patches.wrap(
        IncrementalCoverMaintainer,
        "apply_batch",
        lambda f: t.wrap("maintainer.apply_batch", f, on_report),
    )
    patches.wrap(IncrementalCoverMaintainer, "adopt", lambda f: t.wrap("maintainer.adopt", f))
    patches.wrap(IncrementalCoverMaintainer, "verify", lambda f: t.wrap("maintainer.verify", f))
    patches.wrap(maintainer_mod, "pricing_repair_pass", lambda f: t.wrap("repair.pricing", f))
    patches.wrap(maintainer_mod, "greedy_prune_pass", lambda f: t.wrap("repair.prune", f))
    patches.wrap(
        maintainer_mod, "certificate_from_state", lambda f: t.wrap("repair.certificate", f)
    )

    # repro.dynamic.policy
    def on_decision(args, decision):
        if decision:
            t.count("policy.resolves")
            t.count("policy.resolves_" + _resolve_category(decision.reason))

    patches.wrap(
        ResolvePolicy, "should_resolve", lambda f: t.wrap("policy.should_resolve", f, on_decision)
    )

    # repro.service, as the stream's re-solves reach it.
    def on_solve(args, result):
        t.count("service.cache_hits", int(result.cache_hit))
        t.count("service.cache_misses", int(not result.cache_hit))
        t.count("service.worker_solve_s", result.elapsed)

    patches.wrap(BatchSolver, "solve", lambda f: t.wrap("service.solve", f, on_solve))

    # repro.dynamic.wal
    def traced_append(append):
        def wrapper(self, *args, **kwargs):
            before = os.path.getsize(self.path)
            with t.span("wal.append"):
                record = append(self, *args, **kwargs)
            t.count("wal.appends")
            t.count("wal.bytes", os.path.getsize(self.path) - before)
            return record

        return functools.wraps(append)(wrapper)

    patches.wrap(WriteAheadLog, "append", traced_append)
    patches.wrap(WriteAheadLog, "__init__", lambda f: t.wrap("wal.open", f))
    patches.wrap(WriteAheadLog, "close", lambda f: t.wrap("wal.close", f))
    patches.wrap(stream_mod, "read_wal", lambda f: t.wrap("wal.read", f))
    patches.wrap(stream_mod, "repair_wal", lambda f: t.wrap("wal.repair", f))
    patches.wrap(
        stream_mod,
        "compact_wal",
        lambda f: t.wrap("wal.compact", f, lambda a, r: t.count("wal.compactions")),
    )

    # repro.dynamic.checkpoint
    def on_save(args, digest):
        t.count("checkpoint.saves")
        t.count("checkpoint.bytes", os.path.getsize(args[0]))

    patches.wrap(stream_mod, "save_snapshot", lambda f: t.wrap("checkpoint.save", f, on_save))
    patches.wrap(stream_mod, "load_snapshot", lambda f: t.wrap("checkpoint.load", f))


def install_manifest_layers(tracer: Tracer, patches: Patches) -> None:
    """Graph loads as ``load_manifest`` performs them."""
    import repro.service.manifest as manifest_mod

    patches.wrap(manifest_mod, "load_npz", lambda f: tracer.wrap("graphs.load_npz", f))


def install_core_layers(tracer: Tracer, patches: Patches) -> None:
    """Spans around the phases of Algorithm 2 and counts from its result."""
    import repro.core.mpc_mwvc as mpc_mod
    import repro.service.worker as worker_mod
    from repro.core.engine_cluster import ClusterEngine
    from repro.core.mpc_mwvc import VectorizedEngine

    t = tracer
    patches.wrap(mpc_mod, "plan_phase", lambda f: t.wrap("core.plan_phase", f))
    patches.wrap(VectorizedEngine, "run_phase", lambda f: t.wrap("core.run_phase", f))
    patches.wrap(ClusterEngine, "run_phase", lambda f: t.wrap("core.run_phase", f))
    patches.wrap(mpc_mod, "apply_outcome", lambda f: t.wrap("core.apply_outcome", f))
    patches.wrap(mpc_mod, "run_centralized", lambda f: t.wrap("core.final_phase", f))
    patches.wrap(mpc_mod, "certify_cover", lambda f: t.wrap("core.certify", f))

    def on_result(args, result):
        t.count("core.solves")
        t.count("core.phases", result.num_phases)
        t.count("core.final_iterations", result.final_iterations)
        t.count("core.final_edges", result.final_edges)
        t.count("core.mpc_rounds", result.mpc_rounds)
        metrics = result.cluster_metrics or {}
        t.count("mpc.total_messages", metrics.get("total_messages", 0))
        t.count("mpc.total_words", metrics.get("total_words", 0))
        t.peak("mpc.max_sent_words", metrics.get("max_sent_words", 0))

    patches.wrap(
        worker_mod,
        "minimum_weight_vertex_cover",
        lambda f: t.wrap("core.solve", f, on_result),
    )
