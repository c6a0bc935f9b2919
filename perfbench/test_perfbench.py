"""Smoke tests of the benchmark itself, at tiny input size.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402

WORKLOADS = ("stream-uniform", "stream-durable", "solve-batch")


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, m["name"]
    if trace and workload.startswith("stream"):
        assert result["metrics"]["stream.unattributed_frac"]["value"] < 0.05


def test_run_without_program_sources_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _bench(str(tmp_path), "--workload", "solve-batch", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _triangle_plus_tail():
    # Edges 0-1, 1-2, 0-2, 2-3; the cover {0, 2} hits all of them.
    u = np.array([0, 1, 0, 2])
    v = np.array([1, 2, 2, 3])
    w = np.array([1.0, 2.0, 3.0, 4.0])
    return 4, u, v, w


def test_oracle_accepts_a_valid_cover():
    n, u, v, w = _triangle_plus_tail()
    cover = np.array([True, False, True, False])
    assert oracle.check_cover(n, u, v, w, cover, cover_weight=4.0, label="ok") == []


def test_oracle_rejects_a_broken_cover():
    n, u, v, w = _triangle_plus_tail()
    broken = np.array([True, False, False, False])  # 1-2, 2-3 uncovered
    failures = oracle.check_cover(n, u, v, w, broken, cover_weight=1.0, label="bad")
    assert any("uncovered" in f for f in failures)


def test_stream_oracle_rejects_a_cover_missing_an_inserted_edge(tmp_path):
    n, u, v, w = _triangle_plus_tail()
    graph = tmp_path / "graph.npz"
    np.savez(graph, version=1, n=n, edges_u=u, edges_v=v, weights=w)
    updates = tmp_path / "updates.jsonl"
    updates.write_text(
        '{"op": "delete", "u": 2, "v": 3}\n'
        '{"op": "insert", "u": 1, "v": 3}\n'
        '{"op": "reweight", "v": 0, "weight": 5.0}\n'
    )
    n, edges, weights = oracle.replay_stream(str(graph), str(updates))
    assert edges == {(0, 1), (1, 2), (0, 2), (1, 3)}
    assert weights[0] == 5.0
    stale = np.array([True, False, True, False])  # valid before the insert only
    failures = oracle.check_stream_result(
        n, edges, weights, cover=stale, cover_weight=8.0,
        certified_ratio=1.5, label="stream",
    )
    assert any("uncovered" in f for f in failures)
    good = np.array([True, True, False, False])
    assert oracle.check_stream_result(
        n, edges, weights, cover=good, cover_weight=7.0,
        certified_ratio=1.5, label="stream",
    ) == []


def test_batch_oracle_rejects_broken_cover_and_bogus_duals():
    n, u, v, w = _triangle_plus_tail()
    graphs = {"g.npz": (n, u, v, w)}
    lines = [{"id": "a", "input": "g.npz"}]

    def answer(cover, x, claimed_ratio):
        cover = np.asarray(cover)
        sol = SimpleNamespace(
            in_cover=cover,
            x=np.asarray(x, dtype=np.float64),
            cover_weight=float(w[cover].sum()),
            certificate=SimpleNamespace(certified_ratio=claimed_ratio),
        )
        return SimpleNamespace(ok=True, result=sol, cache_hit=False, error=None)

    # Cover {0, 2} (weight 4) with a feasible dual of value 3: ratio 4/3.
    good = answer([True, False, True, False], [1.0, 0.0, 0.0, 2.0], 4.0 / 3.0)
    assert oracle.check_batch_results(graphs, lines, [good]) == []
    broken = answer([True, False, False, False], [1.0, 0.0, 0.0, 0.0], 1.0)
    assert any("uncovered" in f for f in oracle.check_batch_results(graphs, lines, [broken]))
    # Overloaded duals only prove OPT >= 2.5 (ratio 1.6), not the claimed 4/3.
    bogus = answer([True, False, True, False], [1.0, 2.0, 3.0, 4.0], 4.0 / 3.0)
    assert any("duals" in f for f in oracle.check_batch_results(graphs, lines, [bogus]))
