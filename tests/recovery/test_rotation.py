"""Snapshot rotation (``keep_snapshots``) and WAL compaction."""

import gzip
import json
import os

import numpy as np
import pytest

from repro.dynamic import (
    CheckpointConfig,
    CheckpointCorruptionError,
    ResolvePolicy,
    compact_wal,
    read_wal,
    resume_stream,
    run_stream,
)
from repro.dynamic.checkpoint import snapshot_meta

from tests.recovery.harness import CrashAfter, concat, make_batches, make_workload

BATCH_SIZE = 20
EPS = 0.1
SEED = 4


def _stream(graph, updates, checkpoint=None):
    return run_stream(
        graph,
        updates,
        batch_size=BATCH_SIZE,
        policy=ResolvePolicy(max_drift=0.2),
        eps=EPS,
        seed=SEED,
        checkpoint=checkpoint,
    )


def _run(tmp_path, **checkpoint_kwargs):
    graph = make_workload(n=100, seed=17)
    batches = make_batches(graph, "uniform", 10, BATCH_SIZE, seed=19)
    updates = concat(batches)
    checkpoint = CheckpointConfig(
        directory=tmp_path / "ckpt", snapshot_every=2, **checkpoint_kwargs
    )
    summary = _stream(graph, updates, checkpoint)
    return graph, updates, summary, checkpoint


def _snapshot_files(checkpoint):
    return sorted(
        name
        for name in os.listdir(checkpoint.directory)
        if name.startswith("snapshot")
    )


class TestRotation:
    def test_keep_one_leaves_one_numbered_snapshot(self, tmp_path):
        _, _, _, checkpoint = _run(tmp_path)  # default keep_snapshots=1
        assert _snapshot_files(checkpoint) == ["snapshot-00000010.npz"]
        config = json.load(open(checkpoint.config_path))
        assert not {"compress", "snapshot_file"} & set(config)

    def test_keep_k_retains_last_k_numbered(self, tmp_path):
        _, _, _, checkpoint = _run(tmp_path, keep_snapshots=3)
        files = _snapshot_files(checkpoint)
        assert len(files) == 3
        # Snapshots at batches 0,2,4,6,8,10 → the last three survive.
        assert files == [
            "snapshot-00000006.npz",
            "snapshot-00000008.npz",
            "snapshot-00000010.npz",
        ]

    def test_resume_uses_newest_snapshot(self, tmp_path):
        _, _, reference, checkpoint = _run(tmp_path, keep_snapshots=3)
        resumed = resume_stream(checkpoint.directory)
        assert resumed.resumed_from_batch == 10
        assert np.array_equal(resumed.final_cover, reference.final_cover)

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        _, _, reference, checkpoint = _run(tmp_path, keep_snapshots=3)
        newest = os.path.join(
            os.fspath(checkpoint.directory), "snapshot-00000010.npz"
        )
        data = bytearray(open(newest, "rb").read())
        mid = len(data) // 2
        for i in range(mid, mid + 8):
            data[i] ^= 0xFF
        with open(newest, "wb") as fh:
            fh.write(bytes(data))
        resumed = resume_stream(checkpoint.directory)
        # Fell back to the batch-8 snapshot and replayed the WAL tail.
        assert resumed.resumed_from_batch == 8
        assert np.array_equal(resumed.final_cover, reference.final_cover)

    def test_all_corrupt_raises(self, tmp_path):
        _, _, _, checkpoint = _run(tmp_path, keep_snapshots=2)
        for name in _snapshot_files(checkpoint):
            path = os.path.join(os.fspath(checkpoint.directory), name)
            with open(path, "r+b") as fh:
                fh.seek(20)
                fh.write(b"\xff" * 16)
        with pytest.raises(CheckpointCorruptionError, match="failed integrity"):
            resume_stream(checkpoint.directory)

    def test_keep_snapshots_validation(self, tmp_path):
        with pytest.raises(ValueError, match="keep_snapshots"):
            CheckpointConfig(directory=tmp_path, keep_snapshots=0)


class TestWalCompaction:
    def test_compact_drops_only_covered_records(self, tmp_path):
        _, _, _, checkpoint = _run(tmp_path)
        records, _ = read_wal(checkpoint.wal_path)
        assert len(records) == 10
        removed = compact_wal(checkpoint.wal_path, 6)
        assert removed == 6
        remaining, torn = read_wal(checkpoint.wal_path)
        assert not torn
        assert [r.batch_index for r in remaining] == [6, 7, 8, 9]
        # Idempotent: nothing more to drop.
        assert compact_wal(checkpoint.wal_path, 6) == 0

    def test_resume_after_offline_compaction_is_exact(self, tmp_path):
        _, _, reference, checkpoint = _run(tmp_path)
        # The single snapshot sits at batch 10 (stream end); everything
        # below it is dead weight.
        ((_, snapshot),) = checkpoint.list_snapshots()
        floor = int(snapshot_meta(snapshot)["extra"]["next_batch_index"])
        compact_wal(checkpoint.wal_path, floor)
        resumed = resume_stream(checkpoint.directory)
        assert np.array_equal(resumed.final_cover, reference.final_cover)

    def test_auto_compaction_bounds_the_log(self, tmp_path):
        _, _, _, checkpoint = _run(
            tmp_path, keep_snapshots=2, compact_wal=True
        )
        records, _ = read_wal(checkpoint.wal_path)
        # Retained snapshots are batches 8 and 10 → only batches >= 8 stay.
        assert [r.batch_index for r in records] == [8, 9]

    def test_auto_compaction_resume_is_exact(self, tmp_path):
        graph, updates, reference, checkpoint = _run(
            tmp_path, keep_snapshots=2, compact_wal=True
        )
        resumed = resume_stream(checkpoint.directory)
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_certified_ratio == reference.final_certified_ratio

    def test_missing_wal_is_noop(self, tmp_path):
        assert compact_wal(tmp_path / "absent.jsonl", 5) == 0
        assert not os.path.exists(tmp_path / "absent.jsonl")


class TestWalCompactCLI:
    def test_cli_verb(self, tmp_path):
        from repro.cli import main

        _, _, _, checkpoint = _run(tmp_path, keep_snapshots=2)
        records, _ = read_wal(checkpoint.wal_path)
        assert len(records) == 10
        rc = main(
            ["wal-compact", "--checkpoint-dir", os.fspath(checkpoint.directory)]
        )
        assert rc == 0
        remaining, _ = read_wal(checkpoint.wal_path)
        assert [r.batch_index for r in remaining] == [8, 9]

    def test_cli_verb_prunes_to_keep_snapshots(self, tmp_path):
        from repro.cli import main

        _, _, reference, checkpoint = _run(tmp_path, keep_snapshots=3)
        config = json.load(open(checkpoint.config_path))
        config["keep_snapshots"] = 1
        with open(checkpoint.config_path, "w") as fh:
            json.dump(config, fh)
        rc = main(
            ["wal-compact", "--checkpoint-dir", os.fspath(checkpoint.directory)]
        )
        assert rc == 0
        assert _snapshot_files(checkpoint) == ["snapshot-00000010.npz"]
        remaining, _ = read_wal(checkpoint.wal_path)
        assert remaining == []
        resumed = resume_stream(checkpoint.directory)
        assert np.array_equal(resumed.final_cover, reference.final_cover)

    def test_cli_verb_without_snapshot_refuses(self, tmp_path):
        from repro.cli import main

        _, _, _, checkpoint = _run(tmp_path)
        ((_, snapshot),) = checkpoint.list_snapshots()
        os.remove(snapshot)
        with pytest.raises(SystemExit, match="no snapshot"):
            main(
                [
                    "wal-compact",
                    "--checkpoint-dir",
                    os.fspath(checkpoint.directory),
                ]
            )


@pytest.mark.parametrize("name", ["snapshot.npz", "snapshot.npz.gz"])
class TestSingleFileLayout:
    """Directories of builds that kept one ``snapshot.npz`` (gzip-wrapped
    as ``snapshot.npz.gz`` under their ``compress`` knob)."""

    def _crashed_single_file_run(self, tmp_path, monkeypatch, name):
        graph = make_workload(n=100, seed=17)
        batches = make_batches(graph, "uniform", 10, BATCH_SIZE, seed=19)
        updates = concat(batches)
        reference = _stream(graph, updates)
        checkpoint = CheckpointConfig(directory=tmp_path / "ckpt", snapshot_every=2)
        with CrashAfter(monkeypatch, 5):
            with pytest.raises(CrashAfter.Crash):
                _stream(graph, updates, checkpoint)
        # Batches 0-5 are logged; the one snapshot holds batches 0-3.
        ((position, numbered),) = checkpoint.list_snapshots()
        assert position == 4
        data = open(numbered, "rb").read()
        with open(os.path.join(checkpoint.directory, name), "wb") as fh:
            fh.write(gzip.compress(data) if name.endswith(".gz") else data)
        os.remove(numbered)
        config = json.load(open(checkpoint.config_path))
        config.update(compress=name.endswith(".gz"), snapshot_file=name)
        with open(checkpoint.config_path, "w") as fh:
            json.dump(config, fh)
        return reference, checkpoint

    def _assert_resumes_exactly(self, checkpoint, reference):
        resumed = resume_stream(checkpoint.directory)
        assert resumed.resumed_from_batch == 4
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_dual_value == reference.final_dual_value
        assert resumed.final_certified_ratio == reference.final_certified_ratio
        assert _snapshot_files(checkpoint) == ["snapshot-00000010.npz"]

    def test_resumes_exactly_into_numbered_snapshots(
        self, tmp_path, monkeypatch, name
    ):
        reference, checkpoint = self._crashed_single_file_run(
            tmp_path, monkeypatch, name
        )
        self._assert_resumes_exactly(checkpoint, reference)

    def test_wal_compact_uses_the_stored_position(self, tmp_path, monkeypatch, name):
        from repro.cli import main

        reference, checkpoint = self._crashed_single_file_run(
            tmp_path, monkeypatch, name
        )
        rc = main(["wal-compact", "--checkpoint-dir", os.fspath(checkpoint.directory)])
        assert rc == 0
        remaining, _ = read_wal(checkpoint.wal_path)
        assert [r.batch_index for r in remaining] == [4, 5]
        assert _snapshot_files(checkpoint) == [name]
        self._assert_resumes_exactly(checkpoint, reference)
