"""Refused batches, recovery reports, and resuming the old checkpoint layout.

* A batch the graph would refuse is refused *before* its WAL commit, with
  its batch index and stream position, leaving the run resumable; a plain
  run refuses it before any of its events reaches the graph.
* A resume says what recovery had to do: a dropped torn WAL tail and the
  corrupt snapshots it fell back past show up in its summary.
* A checkpoint directory written before WAL format 2 / snapshot format 3
  (``data/parent_layout``, see ``data/make_parent_layout.py``) is refused
  with an error that names the piece this build does not read, and is
  left byte-identical.
"""

import filecmp
import json
import os
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.dynamic import (
    CheckpointConfig,
    CheckpointError,
    CheckpointVersionError,
    DynamicGraph,
    IncrementalCoverMaintainer,
    InvalidUpdateError,
    ResolvePolicy,
    WALCorruptionError,
    compact_wal,
    read_wal,
    resume_stream,
    run_stream,
)
from repro.dynamic.checkpoint import load_snapshot
from repro.graphs.generators import gnp_average_degree
from repro.graphs.streams import make_update_stream

from tests.events import EdgeInsert, columns, events
from tests.kernel_oracle import apply_event
from tests.recovery.harness import CrashAfter, concat, make_batches, make_workload

BATCH_SIZE = 10
EPS = 0.1
SEED = 4
PARENT_LAYOUT = os.path.join(os.path.dirname(__file__), "data", "parent_layout")


def _assert_same_result(a, b):
    assert np.array_equal(a.final_cover, b.final_cover)
    assert a.final_cover_weight == b.final_cover_weight
    assert a.final_dual_value == b.final_dual_value
    assert a.final_certified_ratio == b.final_certified_ratio


class TestInvalidBatchIsRefusedBeforeTheWAL:
    """One ``EdgeInsert(5, 999)`` on n=200, in batch 3 of a durable run."""

    BAD_POSITION = 3 * BATCH_SIZE + 4

    def _stream(self):
        graph = gnp_average_degree(200, 6.0, seed=31)
        updates = make_update_stream("uniform", graph, 6 * BATCH_SIZE, seed=32)
        bad = events(updates)
        bad[self.BAD_POSITION] = EdgeInsert(5, 999)
        return graph, updates, columns(bad)

    def test_refused_at_batch_3_with_batches_0_to_2_committed(
        self, tmp_path, monkeypatch
    ):
        graph, good, bad = self._stream()
        seen = []
        apply_batch = IncrementalCoverMaintainer.apply_batch

        def recording(self, batch):
            seen.append(self)
            return apply_batch(self, batch)

        monkeypatch.setattr(IncrementalCoverMaintainer, "apply_batch", recording)
        checkpoint = CheckpointConfig(tmp_path / "ckpt", snapshot_every=2, fsync=False)
        with pytest.raises(InvalidUpdateError) as info:
            run_stream(
                graph, bad, batch_size=BATCH_SIZE, eps=EPS, seed=SEED,
                checkpoint=checkpoint,
            )
        monkeypatch.undo()
        assert info.value.batch_index == 3
        assert info.value.position == self.BAD_POSITION
        assert "vertex 999 out of range" in str(info.value)

        records, torn = read_wal(checkpoint.wal_path)
        assert not torn and [r.batch_index for r in records] == [0, 1, 2]

        # The maintainer stopped in its post-batch-2 state: nothing of
        # batch 3 reached the graph.
        maintainer = seen[-1]
        assert maintainer.batches_applied == 3
        reference = run_stream(
            graph, good[: 3 * BATCH_SIZE], batch_size=BATCH_SIZE, eps=EPS, seed=SEED
        )
        assert np.array_equal(maintainer.cover, reference.final_cover)
        assert maintainer.dual_value == reference.final_dual_value
        assert maintainer.dyn.state_stamp() == _stamp_after(graph, good, 3)

    def test_plain_run_refuses_batch_3_before_any_of_it_applies(self, monkeypatch):
        graph, good, bad = self._stream()
        expected_stamp = _stamp_after(graph, good, 3)
        # Every bulk graph mutation, tagged with the batch being applied.
        applying = []
        apply_batch = IncrementalCoverMaintainer.apply_batch

        def tagging(self, batch):
            applying.append(self.batches_applied)
            return apply_batch(self, batch)

        monkeypatch.setattr(IncrementalCoverMaintainer, "apply_batch", tagging)
        mutations = []
        for name in ("flip_edges", "set_weights"):
            mutate = getattr(DynamicGraph, name)

            def spy(self, *args, _mutate=mutate, _name=name):
                mutations.append((applying[-1], _name, args, self))
                return _mutate(self, *args)

            monkeypatch.setattr(DynamicGraph, name, spy)
        with pytest.raises(InvalidUpdateError) as info:
            run_stream(graph, bad, batch_size=BATCH_SIZE, eps=EPS, seed=SEED)
        monkeypatch.undo()
        assert info.value.batch_index == 3
        assert info.value.position == self.BAD_POSITION
        assert "batch 3" in str(info.value)
        assert f"stream position {self.BAD_POSITION}" in str(info.value)
        # Batches 0-2 reached the graph through the bulk mutations, and
        # nothing of batch 3 did: the graph holds exactly their result.
        assert applying == [0, 1, 2]
        assert {batch for batch, *_ in mutations} == {0, 1, 2}
        inserted = np.concatenate(
            [args[0] for _, name, args, _ in mutations if name == "flip_edges"]
        )
        assert (5 << 32) | 999 not in inserted.tolist()
        dyn = mutations[-1][3]
        assert dyn.state_stamp() == expected_stamp

    def test_the_refused_run_stays_resumable(self, tmp_path):
        graph, good, bad = self._stream()
        checkpoint = CheckpointConfig(tmp_path / "ckpt", snapshot_every=2, fsync=False)
        with pytest.raises(InvalidUpdateError):
            run_stream(
                graph, bad, batch_size=BATCH_SIZE, eps=EPS, seed=SEED,
                checkpoint=checkpoint,
            )
        # The stored stream still holds the bad event: a resume replays
        # batches 0-2 cleanly and refuses batch 3 again, uncommitted.
        with pytest.raises(InvalidUpdateError) as info:
            resume_stream(checkpoint.directory)
        assert info.value.batch_index == 3
        assert [r.batch_index for r in read_wal(checkpoint.wal_path)[0]] == [0, 1, 2]
        # With the corrected stream it finishes exactly like a clean run.
        resumed = resume_stream(checkpoint.directory, updates=good)
        reference = run_stream(graph, good, batch_size=BATCH_SIZE, eps=EPS, seed=SEED)
        _assert_same_result(resumed, reference)


def _stamp_after(graph, updates, batches):
    dyn = DynamicGraph(graph)
    for event in events(updates[: batches * BATCH_SIZE]):
        apply_event(dyn, event)
    return dyn.state_stamp()


def _crashed_run(tmp_path, monkeypatch, **checkpoint_kwargs):
    graph = make_workload(n=120, seed=41)
    updates = concat(make_batches(graph, "uniform", 9, 20, seed=43))
    policy = ResolvePolicy(max_drift=0.15)
    reference = run_stream(
        graph, updates, batch_size=20, policy=policy, eps=EPS, seed=SEED
    )
    checkpoint = CheckpointConfig(
        tmp_path / "ckpt", snapshot_every=2, fsync=False, **checkpoint_kwargs
    )
    with CrashAfter(monkeypatch, 7):
        with pytest.raises(CrashAfter.Crash):
            run_stream(
                graph, updates, batch_size=20, policy=policy, eps=EPS, seed=SEED,
                checkpoint=checkpoint,
            )
    return reference, checkpoint


class TestRecoveryIsReported:
    def test_clean_resume_reports_nothing(self, tmp_path, monkeypatch):
        reference, checkpoint = _crashed_run(tmp_path, monkeypatch)
        resumed = resume_stream(checkpoint.directory)
        _assert_same_result(resumed, reference)
        row = resumed.summary()
        assert row["recovered_torn_tail"] is False
        assert row["snapshot_fallbacks"] == 0

    def test_wal_cut_mid_record_is_reported(self, tmp_path, monkeypatch):
        reference, checkpoint = _crashed_run(tmp_path, monkeypatch)
        lines = open(checkpoint.wal_path, "rb").read().splitlines(keepends=True)
        # Cut the last committed record in half: that batch was never
        # committed, so the resume re-runs it from the stream.
        with open(checkpoint.wal_path, "wb") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 2])
        resumed = resume_stream(checkpoint.directory)
        _assert_same_result(resumed, reference)
        assert resumed.recovered_torn_tail is True
        assert resumed.snapshot_fallbacks == 0
        row = resumed.summary()
        assert row["recovered_torn_tail"] is True
        json.dumps(row)

    def test_corrupt_newest_snapshot_is_reported(self, tmp_path, monkeypatch):
        reference, checkpoint = _crashed_run(
            tmp_path, monkeypatch, keep_snapshots=2, compact_wal=True
        )
        (newest_index, newest), (older_index, _) = checkpoint.list_snapshots()[:2]
        data = bytearray(open(newest, "rb").read())
        mid = len(data) // 2
        data[mid : mid + 8] = bytes(b ^ 0xFF for b in data[mid : mid + 8])
        with open(newest, "wb") as fh:
            fh.write(bytes(data))
        resumed = resume_stream(checkpoint.directory)
        _assert_same_result(resumed, reference)
        assert resumed.resumed_from_batch == older_index < newest_index
        assert resumed.snapshot_fallbacks == 1
        assert resumed.recovered_torn_tail is False
        assert resumed.summary()["snapshot_fallbacks"] == 1


class TestParentLayoutIsRefused:
    """Each piece of the old layout fails with its own specific error."""

    def test_resume_names_config_json_and_leaves_the_copy_untouched(self, tmp_path):
        directory = tmp_path / "ckpt"
        shutil.copytree(PARENT_LAYOUT, directory)
        refusal = r"config.json: unknown keys \[.*'snapshot_compression'"
        with pytest.raises(CheckpointError, match=refusal):
            resume_stream(directory)
        with pytest.raises(SystemExit, match=refusal):
            main(["resume", "--checkpoint-dir", str(directory)])
        compare = filecmp.dircmp(PARENT_LAYOUT, directory)
        assert compare.left_only == compare.right_only == []
        _, mismatch, errors = filecmp.cmpfiles(
            PARENT_LAYOUT, directory, compare.common_files, shallow=False
        )
        assert mismatch == errors == []

    def test_version1_wal_record_is_corruption_at_line_1(self, tmp_path):
        with open(os.path.join(PARENT_LAYOUT, "wal.jsonl"), "rb") as fh:
            first = fh.readline()
        path = tmp_path / "wal.jsonl"
        path.write_bytes(first)
        with pytest.raises(WALCorruptionError, match="line 1: unparseable"):
            read_wal(path)
        with pytest.raises(WALCorruptionError, match="line 1: unparseable"):
            compact_wal(path, 3, fsync=False)
        assert path.read_bytes() == first

    def test_version2_snapshot_is_a_version_error(self):
        path = os.path.join(PARENT_LAYOUT, "snapshot-00000004.npz")
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
        assert meta["format_version"] == 2
        with pytest.raises(CheckpointVersionError, match="format version 2 "):
            load_snapshot(path)
