"""Crash recovery of sharded streams: per-shard snapshots + WAL replay.

Mirrors the monolithic recovery suite: a crashed sharded run, resumed,
must reproduce the uninterrupted run's cover **bit for bit** — and the
uninterrupted monolithic run's too, since the sharded engine is exactly
equivalent.  Includes a real SIGKILL subprocess test (``-m slow``).
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.dynamic import (
    CheckpointConfig,
    CheckpointError,
    ResolvePolicy,
    run_stream,
)
from repro.dynamic.sharded import (
    _ShardedEngine,
    resume_sharded_stream,
    run_sharded_stream,
)
from repro.dynamic.shard_checkpoint import (
    list_sharded_snapshots,
    load_sharded_snapshot,
)

from tests.recovery.harness import make_batches, make_workload

BATCH_SIZE = 20
EPS = 0.1
SEED = 4
NUM_SHARDS = 3


class CrashAfterBatches:
    """Raise inside the sharded engine after N completed batches."""

    class Crash(Exception):
        pass

    def __init__(self, monkeypatch, batches: int):
        self.monkeypatch = monkeypatch
        self.remaining = batches

    def __enter__(self):
        original = _ShardedEngine.process_batch
        injector = self

        def crashing(self_, index, batch, **kwargs):
            if injector.remaining <= 0:
                raise CrashAfterBatches.Crash()
            injector.remaining -= 1
            return original(self_, index, batch, **kwargs)

        self.monkeypatch.setattr(_ShardedEngine, "process_batch", crashing)
        return self

    def __exit__(self, *exc_info):
        self.monkeypatch.undo()
        return False


def _workload(batches=8, churn="uniform"):
    graph = make_workload(n=120, seed=91)
    all_batches = make_batches(graph, churn, batches, BATCH_SIZE, seed=93)
    return graph, [u for b in all_batches for u in b]


def _run_kwargs():
    return dict(
        num_shards=NUM_SHARDS,
        batch_size=BATCH_SIZE,
        policy=ResolvePolicy(max_drift=0.15),
        eps=EPS,
        seed=SEED,
        use_processes=False,
    )


class TestShardedCrashResume:
    @pytest.mark.parametrize("crash_after", [0, 1, 3, 5, 7])
    def test_resume_matches_uninterrupted_run(
        self, tmp_path, monkeypatch, crash_after
    ):
        graph, updates = _workload()
        reference = run_sharded_stream(graph, updates, **_run_kwargs())
        checkpoint = CheckpointConfig(
            directory=tmp_path / "ckpt", snapshot_every=2, keep_snapshots=2
        )
        with CrashAfterBatches(monkeypatch, crash_after):
            with pytest.raises(CrashAfterBatches.Crash):
                run_sharded_stream(
                    graph, updates, checkpoint=checkpoint, **_run_kwargs()
                )
        resumed = resume_sharded_stream(
            checkpoint.directory, use_processes=False
        )
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_cover_weight == reference.final_cover_weight
        assert resumed.final_dual_value == reference.final_dual_value
        assert resumed.final_is_cover

    def test_resume_matches_monolithic_reference(self, tmp_path, monkeypatch):
        """Crash + resume of a sharded run equals a plain `run_stream`."""
        graph, updates = _workload(churn="hub")
        mono = run_stream(
            graph,
            updates,
            batch_size=BATCH_SIZE,
            policy=ResolvePolicy(max_drift=0.15),
            eps=EPS,
            seed=SEED,
        )
        checkpoint = CheckpointConfig(
            directory=tmp_path / "ckpt", snapshot_every=3
        )
        with CrashAfterBatches(monkeypatch, 4):
            with pytest.raises(CrashAfterBatches.Crash):
                run_sharded_stream(
                    graph, updates, checkpoint=checkpoint, **_run_kwargs()
                )
        resumed = resume_sharded_stream(
            checkpoint.directory, use_processes=False
        )
        assert np.array_equal(resumed.final_cover, mono.final_cover)

    def test_cold_start_when_no_snapshot_survived(self, tmp_path, monkeypatch):
        import shutil

        graph, updates = _workload()
        reference = run_sharded_stream(graph, updates, **_run_kwargs())
        checkpoint = CheckpointConfig(
            directory=tmp_path / "ckpt", snapshot_every=2
        )
        with CrashAfterBatches(monkeypatch, 5):
            with pytest.raises(CrashAfterBatches.Crash):
                run_sharded_stream(
                    graph, updates, checkpoint=checkpoint, **_run_kwargs()
                )
        for _, path in list_sharded_snapshots(checkpoint.directory):
            shutil.rmtree(path)
        resumed = resume_sharded_stream(
            checkpoint.directory, use_processes=False
        )
        assert resumed.resumed_from_batch == 0
        assert np.array_equal(resumed.final_cover, reference.final_cover)

    def test_corrupt_generation_falls_back_to_older(
        self, tmp_path, monkeypatch
    ):
        graph, updates = _workload()
        reference = run_sharded_stream(graph, updates, **_run_kwargs())
        checkpoint = CheckpointConfig(
            directory=tmp_path / "ckpt", snapshot_every=2, keep_snapshots=3
        )
        with CrashAfterBatches(monkeypatch, 7):
            with pytest.raises(CrashAfterBatches.Crash):
                run_sharded_stream(
                    graph, updates, checkpoint=checkpoint, **_run_kwargs()
                )
        newest_idx, newest = list_sharded_snapshots(checkpoint.directory)[0]
        shard_file = os.path.join(newest, "shard-0001.npz")
        with open(shard_file, "r+b") as fh:
            fh.seek(16)
            fh.write(b"\xff" * 16)
        resumed = resume_sharded_stream(
            checkpoint.directory, use_processes=False
        )
        assert resumed.resumed_from_batch < newest_idx
        assert np.array_equal(resumed.final_cover, reference.final_cover)

    def test_resume_in_process_mode(self, tmp_path, monkeypatch):
        graph, updates = _workload(batches=4)
        reference = run_sharded_stream(graph, updates, **_run_kwargs())
        checkpoint = CheckpointConfig(
            directory=tmp_path / "ckpt", snapshot_every=2
        )
        with CrashAfterBatches(monkeypatch, 2):
            with pytest.raises(CrashAfterBatches.Crash):
                run_sharded_stream(
                    graph, updates, checkpoint=checkpoint, **_run_kwargs()
                )
        resumed = resume_sharded_stream(
            checkpoint.directory, use_processes=True
        )
        assert np.array_equal(resumed.final_cover, reference.final_cover)

    def test_monolithic_resume_rejects_sharded_checkpoint(
        self, tmp_path, monkeypatch
    ):
        from repro.dynamic import resume_stream

        graph, updates = _workload(batches=3)
        checkpoint = CheckpointConfig(
            directory=tmp_path / "ckpt", snapshot_every=2
        )
        with CrashAfterBatches(monkeypatch, 1):
            with pytest.raises(CrashAfterBatches.Crash):
                run_sharded_stream(
                    graph, updates, checkpoint=checkpoint, **_run_kwargs()
                )
        with pytest.raises(CheckpointError, match="sharded"):
            resume_stream(checkpoint.directory)
        with pytest.raises(CheckpointError, match="monolithic"):
            # And the sharded resume rejects monolithic checkpoints.
            mono_dir = tmp_path / "mono"
            run_stream(
                graph,
                updates,
                batch_size=BATCH_SIZE,
                eps=EPS,
                seed=SEED,
                checkpoint=CheckpointConfig(directory=mono_dir),
            )
            resume_sharded_stream(mono_dir, use_processes=False)

    def test_single_shard_checkpoint_resumes(self, tmp_path, monkeypatch):
        """num_shards=1 writes sharded-format checkpoints; resume must
        route them to the sharded engine (regression: they used to be
        rejected by both resume paths)."""
        graph, updates = _workload(batches=4)
        kwargs = dict(_run_kwargs(), num_shards=1)
        reference = run_sharded_stream(graph, updates, **kwargs)
        checkpoint = CheckpointConfig(
            directory=tmp_path / "ckpt", snapshot_every=2
        )
        with CrashAfterBatches(monkeypatch, 2):
            with pytest.raises(CrashAfterBatches.Crash):
                run_sharded_stream(
                    graph, updates, checkpoint=checkpoint, **kwargs
                )
        resumed = resume_sharded_stream(
            checkpoint.directory, use_processes=False
        )
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        # The CLI dispatchers must pick the sharded engine for it too.
        from repro.cli import main

        rc = main(
            [
                "resume",
                "--checkpoint-dir",
                os.fspath(checkpoint.directory),
                "--inline-shards",
            ]
        )
        assert rc == 0
        rc = main(
            ["wal-compact", "--checkpoint-dir", os.fspath(checkpoint.directory)]
        )
        assert rc == 0

    def test_snapshot_generation_roundtrip(self, tmp_path, monkeypatch):
        """A written generation loads back digest-verified and complete."""
        graph, updates = _workload(batches=3)
        checkpoint = CheckpointConfig(
            directory=tmp_path / "ckpt", snapshot_every=1
        )
        run_sharded_stream(
            graph, updates, checkpoint=checkpoint, **_run_kwargs()
        )
        generations = list_sharded_snapshots(checkpoint.directory)
        assert generations, "no snapshot generations written"
        restored = load_sharded_snapshot(generations[0][1])
        assert restored.manifest["num_shards"] == NUM_SHARDS
        assert restored.cover.shape == (graph.n,)
        assert restored.edges_u.shape == restored.edges_v.shape
        # Every edge appears exactly once across shard files.
        pairs = list(zip(restored.edges_u.tolist(), restored.edges_v.tolist()))
        assert len(pairs) == len(set(pairs))


@pytest.mark.slow
class TestShardedSigkill:
    """A real ``kill -9`` mid-flight on a sharded run, then resume."""

    def test_sigkill_and_resume_matches_reference(self, tmp_path):
        directory = tmp_path / "ckpt"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "stream",
                "--family", "gnp", "--n", "2500", "--degree", "10",
                "--weights", "uniform", "--seed", "1",
                "--churn", "hub", "--num-updates", "2000",
                "--batch-size", "25", "--resolve-every-batch",
                "--shards", "4",
                "--checkpoint-dir", str(directory), "--snapshot-every", "3",
                "--keep-snapshots", "2",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Let it commit some batches, then kill the whole process tree dead.
        deadline = time.time() + 60
        wal = directory / "wal.jsonl"
        while time.time() < deadline:
            if wal.exists() and wal.stat().st_size > 0:
                break
            time.sleep(0.05)
        time.sleep(0.5)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        assert wal.exists(), "stream never committed a batch"

        resumed = resume_sharded_stream(directory, use_processes=False)
        assert resumed.final_is_cover

        from repro.graphs.io import load_npz
        from repro.graphs.updates import load_update_stream

        graph = load_npz(directory / "graph.npz")
        updates = load_update_stream(directory / "updates.npz")
        reference = run_stream(
            graph,
            updates,
            batch_size=25,
            policy=ResolvePolicy(every_batch=True),
            eps=0.1,
            seed=1,
        )
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_certified_ratio == pytest.approx(
            reference.final_certified_ratio, abs=1e-9
        )
