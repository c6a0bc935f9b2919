"""Recovery scenarios end-to-end: resume paths, clean failures, CLI, SIGKILL."""

import filecmp
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cli import main
from repro.dynamic import (
    CheckpointConfig,
    CheckpointCorruptionError,
    CheckpointError,
    ResolvePolicy,
    read_wal,
    resume_stream,
    run_stream,
)
from repro.graphs.io import save_npz
from repro.graphs.updates import load_update_stream, save_update_stream

from tests.events import WeightChange, columns, events
from tests.recovery.harness import CrashAfter, concat, make_batches, make_workload

BATCH_SIZE = 20
EPS = 0.1
SEED = 4


def _setup(tmp_path, monkeypatch, *, crash_after=3, batches=8, churn="uniform"):
    """A reference run + a crashed checkpointed run over the same stream."""
    graph = make_workload(n=120, seed=81)
    all_batches = make_batches(graph, churn, batches, BATCH_SIZE, seed=83)
    updates = concat(all_batches)
    policy = ResolvePolicy(max_drift=0.15)
    reference = run_stream(
        graph, updates, batch_size=BATCH_SIZE, policy=policy, eps=EPS, seed=SEED
    )
    directory = tmp_path / "ckpt"
    checkpoint = CheckpointConfig(directory=directory, snapshot_every=2, fsync=False)
    with CrashAfter(monkeypatch, crash_after):
        with pytest.raises(CrashAfter.Crash):
            run_stream(
                graph,
                updates,
                batch_size=BATCH_SIZE,
                policy=policy,
                eps=EPS,
                seed=SEED,
                checkpoint=checkpoint,
            )
    return graph, updates, reference, checkpoint


def _altered(updates, position):
    """``updates`` with the event at ``position`` replaced by a reweight."""
    rows = events(updates)
    rows[position] = WeightChange(0, 123.0)
    return columns(rows)


def _files(directory):
    """Every file of a directory, by name, with its bytes."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _snapshot(checkpoint):
    """Path of the checkpoint's one snapshot (``keep_snapshots=1``)."""
    ((_, path),) = checkpoint.list_snapshots()
    return path


class TestResumeScenarios:
    def test_resume_of_completed_run_is_a_noop(self, tmp_path):
        graph = make_workload(n=80, seed=91)
        updates = concat(make_batches(graph, "uniform", 4, 20, seed=93))
        kwargs = dict(batch_size=20, eps=EPS, seed=SEED)
        plain = run_stream(graph, updates, **kwargs)
        for fsync in (True, False):
            directory = tmp_path / f"ckpt-fsync-{fsync}"
            done = run_stream(
                graph,
                updates,
                checkpoint=CheckpointConfig(directory=directory, fsync=fsync),
                **kwargs,
            )
            # Durability never changes the result ...
            assert np.array_equal(done.final_cover, plain.final_cover)
            assert done.final_certified_ratio == plain.final_certified_ratio
            # ... and the final snapshot restores the final state.
            resumed = resume_stream(directory)
            assert resumed.num_batches == 0 and resumed.num_updates == 0
            assert np.array_equal(resumed.final_cover, done.final_cover)
            assert resumed.final_certified_ratio == done.final_certified_ratio

    def test_resumed_elapsed_s_is_the_resume_wall_clock(self, tmp_path, monkeypatch):
        _, _, _, checkpoint = _setup(tmp_path, monkeypatch)
        t0 = time.perf_counter()
        resumed = resume_stream(checkpoint.directory)
        assert resumed.num_batches > 1
        assert 0.0 < resumed.elapsed_s <= time.perf_counter() - t0

    def test_deleted_snapshot_recovers_from_wal(self, tmp_path, monkeypatch):
        _, _, reference, checkpoint = _setup(tmp_path, monkeypatch)
        os.unlink(_snapshot(checkpoint))
        resumed = resume_stream(checkpoint.directory)
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        # The cold start replays from batch 0.
        assert resumed.resumed_from_batch == 0

    def test_corrupt_snapshot_fails_cleanly(self, tmp_path, monkeypatch):
        _, _, _, checkpoint = _setup(tmp_path, monkeypatch)
        snapshot = _snapshot(checkpoint)
        data = bytearray(open(snapshot, "rb").read())
        mid = len(data) // 2
        for i in range(mid, mid + 8):
            data[i] ^= 0xFF
        with open(snapshot, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(CheckpointCorruptionError):
            resume_stream(checkpoint.directory)

    def test_torn_wal_tail_recovers_to_last_committed_batch(
        self, tmp_path, monkeypatch
    ):
        _, _, reference, checkpoint = _setup(tmp_path, monkeypatch)
        with open(checkpoint.wal_path, "ab") as fh:
            fh.write(b'{"v": 1, "batch_index": 99, "upd')  # torn mid-append
        resumed = resume_stream(checkpoint.directory)
        assert np.array_equal(resumed.final_cover, reference.final_cover)

    def test_wal_gap_fails_cleanly(self, tmp_path, monkeypatch):
        _, _, _, checkpoint = _setup(tmp_path, monkeypatch, crash_after=5)
        os.unlink(_snapshot(checkpoint))  # force replay from batch 0
        lines = open(checkpoint.wal_path, "rb").read().splitlines(keepends=True)
        with open(checkpoint.wal_path, "wb") as fh:
            fh.writelines(lines[:2] + lines[3:])  # drop a middle record
        with pytest.raises(CheckpointError, match="WAL gap"):
            resume_stream(checkpoint.directory)

    def test_missing_config_fails_cleanly(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing config.json"):
            resume_stream(tmp_path)

    def test_future_config_version_fails_cleanly(self, tmp_path, monkeypatch):
        _, _, _, checkpoint = _setup(tmp_path, monkeypatch)
        config = json.load(open(checkpoint.config_path))
        config["format_version"] = 99
        with open(checkpoint.config_path, "w") as fh:
            json.dump(config, fh)
        with pytest.raises(CheckpointError, match="version 99"):
            resume_stream(checkpoint.directory)

    def test_wrong_stream_length_fails_cleanly(self, tmp_path, monkeypatch):
        _, updates, _, checkpoint = _setup(tmp_path, monkeypatch)
        with pytest.raises(CheckpointError, match="does not match"):
            resume_stream(checkpoint.directory, updates=updates[:-5])

    def test_explicit_updates_override(self, tmp_path, monkeypatch):
        _, updates, reference, checkpoint = _setup(tmp_path, monkeypatch)
        os.unlink(checkpoint.updates_path)
        with pytest.raises(CheckpointError, match="no stored update"):
            resume_stream(checkpoint.directory)
        resumed = resume_stream(checkpoint.directory, updates=updates)
        assert np.array_equal(resumed.final_cover, reference.final_cover)

    def test_reusing_a_checkpoint_dir_is_refused(self, tmp_path, monkeypatch):
        graph, updates, _, checkpoint = _setup(tmp_path, monkeypatch)
        with pytest.raises(CheckpointError, match="already holds a stream"):
            run_stream(
                graph,
                updates,
                batch_size=BATCH_SIZE,
                eps=EPS,
                seed=SEED,
                checkpoint=checkpoint,
            )

    def test_mismatched_graph_file_fails_cleanly(self, tmp_path, monkeypatch):
        _, _, _, checkpoint = _setup(tmp_path, monkeypatch)
        os.unlink(_snapshot(checkpoint))
        save_npz(make_workload(n=120, seed=999), checkpoint.graph_path)
        with pytest.raises(CheckpointError, match="graph digest"):
            resume_stream(checkpoint.directory)

    def test_corrupt_graph_file_fails_cleanly(self, tmp_path, monkeypatch):
        # Snapshot gone AND graph.npz damaged: the cold start must raise
        # a CheckpointError, not leak a zipfile traceback.
        _, _, _, checkpoint = _setup(tmp_path, monkeypatch)
        os.unlink(_snapshot(checkpoint))
        data = open(checkpoint.graph_path, "rb").read()
        with open(checkpoint.graph_path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="unreadable"):
            resume_stream(checkpoint.directory)

    def test_swapped_stream_is_refused_at_the_first_replayed_batch(
        self, tmp_path, monkeypatch
    ):
        # Rewrite updates.npz with a different (same-length) stream.  The
        # WAL holds only each batch's size and checksum, so the replay
        # re-takes batch 2 (the first past snapshot-2) from the swapped
        # stream and refuses it, before anything is written.
        graph, _, _, checkpoint = _setup(tmp_path, monkeypatch)
        other = concat(make_batches(graph, "uniform", 8, BATCH_SIZE, seed=4242))
        save_update_stream(other, checkpoint.updates_path)
        before = _files(checkpoint.directory)
        with pytest.raises(CheckpointError, match="WAL batch 2 .*stream/WAL mismatch"):
            resume_stream(checkpoint.directory)
        assert _files(checkpoint.directory) == before

    def test_override_differing_in_the_last_committed_batch_is_refused(
        self, tmp_path, monkeypatch
    ):
        # Batches 0-3 are committed (batch 3 crashed after its commit);
        # the override differs from the stored stream only at position
        # 70, inside batch 3, which no later stamp covers.
        _, updates, _, checkpoint = _setup(tmp_path, monkeypatch)
        records, _ = read_wal(checkpoint.wal_path)
        assert [r.batch_index for r in records] == [0, 1, 2, 3]
        altered = _altered(updates, 3 * BATCH_SIZE + 10)
        with pytest.raises(CheckpointError, match="WAL batch 3 .*stream/WAL mismatch"):
            resume_stream(checkpoint.directory, updates=altered)

    def test_override_may_differ_in_the_uncommitted_remainder(
        self, tmp_path, monkeypatch
    ):
        graph, updates, _, checkpoint = _setup(tmp_path, monkeypatch)
        altered = _altered(updates, 4 * BATCH_SIZE)  # batch 4, never committed
        resumed = resume_stream(checkpoint.directory, updates=altered)
        reference = run_stream(
            graph, altered, batch_size=BATCH_SIZE,
            policy=ResolvePolicy(max_drift=0.15), eps=EPS, seed=SEED,
        )
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_dual_value == reference.final_dual_value

    def test_records_are_always_stamped(self, tmp_path, monkeypatch):
        _, _, reference, checkpoint = _setup(tmp_path, monkeypatch)
        assert "stamp_digests" not in json.load(open(checkpoint.config_path))
        resumed = resume_stream(checkpoint.directory)
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        records, _ = read_wal(checkpoint.wal_path)
        assert len(records) == 8 and all(r.state_digest for r in records)

    def test_foreign_wal_is_refused(self, tmp_path, monkeypatch):
        # Pair checkpoint A's snapshot and stream with checkpoint B's WAL:
        # B's batch checksums must expose the mismatch instead of
        # replaying a foreign history into A's state.
        _, _, _, ckpt_a = _setup(tmp_path, monkeypatch, crash_after=5)
        graph_b = make_workload(n=120, seed=4000)
        updates_b = concat(make_batches(graph_b, "uniform", 8, BATCH_SIZE, seed=4001))
        dir_b = tmp_path / "ckpt-b"
        with CrashAfter(monkeypatch, 5):
            with pytest.raises(CrashAfter.Crash):
                run_stream(
                    graph_b,
                    updates_b,
                    batch_size=BATCH_SIZE,
                    eps=EPS,
                    seed=SEED,
                    checkpoint=CheckpointConfig(
                        directory=dir_b, snapshot_every=2, fsync=False
                    ),
                )
        wal_b = open(os.path.join(dir_b, "wal.jsonl"), "rb").read()
        with open(ckpt_a.wal_path, "wb") as fh:
            fh.write(wal_b)
        with pytest.raises(CheckpointError, match="WAL batch 4 .*stream/WAL mismatch"):
            resume_stream(ckpt_a.directory)

    def test_state_stamps_catch_a_foreign_snapshot(self, tmp_path, monkeypatch):
        # Checkpoint B runs A's stream on another graph; B's snapshot-2
        # in A's directory restores a state A's batch 2 was not applied
        # to.  The batch checksums match A's stream, so the pre-apply
        # stamp is what refuses it.
        _, updates, _, ckpt_a = _setup(tmp_path, monkeypatch)
        ckpt_b = CheckpointConfig(
            directory=tmp_path / "ckpt-b", snapshot_every=2, fsync=False
        )
        with CrashAfter(monkeypatch, 3):
            with pytest.raises(CrashAfter.Crash):
                run_stream(
                    make_workload(n=120, seed=4000), updates,
                    batch_size=BATCH_SIZE, policy=ResolvePolicy(max_drift=0.15),
                    eps=EPS, seed=SEED, checkpoint=ckpt_b,
                )
        snapshot = _snapshot(ckpt_a)
        assert os.path.basename(snapshot) == os.path.basename(_snapshot(ckpt_b))
        with open(snapshot, "wb") as fh:
            fh.write(open(_snapshot(ckpt_b), "rb").read())
        with pytest.raises(CheckpointError, match="WAL batch 2 was logged against"):
            resume_stream(ckpt_a.directory)


class TestRefusedResumeWritesNothing:
    """Replay writes no snapshot and compacts no WAL, so a resume refused
    at any committed batch leaves the directory as it found it."""

    @staticmethod
    def _assert_each_refusal_leaves_it_untouched(directory, updates, batches, tmp_path):
        for k in batches:
            copy = tmp_path / f"refused-{k}"
            shutil.copytree(directory, copy)
            altered = _altered(updates, k * BATCH_SIZE + 10)
            with pytest.raises(
                CheckpointError, match=f"WAL batch {k} .*stream/WAL mismatch"
            ):
                resume_stream(copy, updates=altered)
            diff = filecmp.dircmp(directory, copy)
            assert (diff.left_only, diff.right_only, diff.diff_files) == ([], [], [])

    def test_past_a_corrupt_newest_snapshot(self, tmp_path, monkeypatch):
        # Batches 0-5 are committed and snapshot-4 is corrupt, so the
        # resume falls back to snapshot-2 and replays batches 2-5 across
        # position 4: a replay that wrote snapshots would rewrite it.
        graph = make_workload(n=120, seed=81)
        updates = concat(make_batches(graph, "uniform", 8, BATCH_SIZE, seed=83))
        directory = tmp_path / "ckpt"
        checkpoint = CheckpointConfig(
            directory=directory, snapshot_every=2, keep_snapshots=2, fsync=False
        )
        with CrashAfter(monkeypatch, 5):
            with pytest.raises(CrashAfter.Crash):
                run_stream(
                    graph, updates, batch_size=BATCH_SIZE, eps=EPS, seed=SEED,
                    checkpoint=checkpoint,
                )
        (newest, path), _ = checkpoint.list_snapshots()
        assert newest == 4
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        self._assert_each_refusal_leaves_it_untouched(
            directory, updates, range(2, 6), tmp_path
        )
        resumed = resume_stream(directory)
        assert resumed.snapshot_fallbacks == 1
        reference = run_stream(
            graph, updates, batch_size=BATCH_SIZE, eps=EPS, seed=SEED
        )
        assert np.array_equal(resumed.final_cover, reference.final_cover)

    def test_after_a_resume_killed_past_a_snapshot_position(
        self, tmp_path, monkeypatch
    ):
        # The first resume replays batches 2-3 without snapshotting
        # position 4, then dies at batch 5 after its commit: snapshot-2
        # is still the newest, four committed batches past it.
        graph, updates, reference, checkpoint = _setup(tmp_path, monkeypatch)
        with CrashAfter(monkeypatch, 3):
            with pytest.raises(CrashAfter.Crash):
                resume_stream(checkpoint.directory)
        records, _ = read_wal(checkpoint.wal_path)
        assert [r.batch_index for r in records] == list(range(6))
        assert os.path.basename(_snapshot(checkpoint)) == "snapshot-00000002.npz"
        self._assert_each_refusal_leaves_it_untouched(
            checkpoint.directory, updates, range(2, 6), tmp_path
        )
        resumed = resume_stream(checkpoint.directory)
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_certified_ratio == reference.final_certified_ratio


#: Damages to ``config.json``: the rewrite, and the error that names it.
CONFIG_DAMAGES = {
    "missing-key": (
        lambda c: {k: v for k, v in c.items() if k != "batch_size"},
        "config.json: missing key 'batch_size'",
    ),
    "mistyped-key": (
        lambda c: {**c, "batch_size": "20"},
        "config.json: key 'batch_size' has a bad value '20'",
    ),
    "unknown-policy-field": (
        lambda c: {**c, "policy": {**c["policy"], "bogus": 1}},
        "config.json: key 'policy' is invalid .*bogus",
    ),
    "not-an-object": (
        lambda c: [1, 2],
        "config.json: expected a JSON object, found list",
    ),
    # A knob an older build wrote; this build writes no such key.
    "unknown-key": (
        lambda c: {**c, "stamp_digests": False},
        r"config.json: unknown keys \['stamp_digests'\]",
    ),
}


class TestDamagedConfig:
    @pytest.mark.parametrize("damage", sorted(CONFIG_DAMAGES))
    def test_damaged_config_fails_cleanly(self, tmp_path, monkeypatch, damage):
        _, _, _, checkpoint = _setup(tmp_path, monkeypatch)
        rewrite, message = CONFIG_DAMAGES[damage]
        config = json.load(open(checkpoint.config_path))
        with open(checkpoint.config_path, "w") as fh:
            json.dump(rewrite(config), fh)
        with pytest.raises(CheckpointError, match=message):
            resume_stream(checkpoint.directory)
        directory = os.fspath(checkpoint.directory)
        for command in ("resume", "wal-compact"):
            with pytest.raises(SystemExit, match=message):
                main([command, "--checkpoint-dir", directory])


class TestResumeCLI:
    def _stream_args(self, directory, cover_out):
        return [
            "stream",
            "--family", "gnp", "--n", "150", "--degree", "8",
            "--weights", "uniform", "--seed", "1",
            "--churn", "uniform", "--num-updates", "200",
            "--batch-size", "25", "--checkpoint-dir", str(directory),
            "--snapshot-every", "2", "--no-fsync",
            "--cover-out", str(cover_out),
        ]

    def test_stream_then_resume_cli(self, tmp_path, capsys):
        directory = tmp_path / "ckpt"
        ref_cover = tmp_path / "ref.txt"
        assert main(self._stream_args(directory, ref_cover)) == 0
        capsys.readouterr()
        resumed_cover = tmp_path / "resumed.txt"
        code = main(
            [
                "resume",
                "--checkpoint-dir", str(directory),
                "--cover-out", str(resumed_cover),
                "--out", str(tmp_path / "records.jsonl"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        footer = json.loads(captured.out)
        assert footer["final_is_cover"] is True
        assert footer["resumed_from_batch"] == 8
        assert ref_cover.read_text() == resumed_cover.read_text()

    def test_resume_cli_missing_dir_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="missing config.json"):
            main(["resume", "--checkpoint-dir", str(tmp_path / "nope")])

    def test_sharded_checkpoint_fails_cleanly(self, tmp_path):
        # The config a `repro stream --shards N` run wrote: this build
        # writes neither key, so every entry point refuses them by name.
        config = {"format_version": 1, "shards": 4, "partition": "hash"}
        (tmp_path / "config.json").write_text(json.dumps(config))
        refusal = r"config.json: unknown keys \['partition', 'shards'\]"
        with pytest.raises(CheckpointError, match=refusal):
            resume_stream(tmp_path)
        for command in ("resume", "wal-compact"):
            with pytest.raises(SystemExit, match=refusal):
                main([command, "--checkpoint-dir", str(tmp_path)])

    def test_resume_cli_wal_corruption_fails_cleanly(self, tmp_path):
        directory = tmp_path / "ckpt"
        assert main(self._stream_args(directory, tmp_path / "c.txt")) == 0
        checkpoint = CheckpointConfig(directory=directory)
        os.unlink(_snapshot(checkpoint))  # force a WAL read on resume
        raw = bytearray((directory / "wal.jsonl").read_bytes())
        pos = raw.index(b'"size":25')
        raw[pos + 7] = ord("3")
        (directory / "wal.jsonl").write_bytes(bytes(raw))
        with pytest.raises(SystemExit, match="checksum mismatch"):
            main(["resume", "--checkpoint-dir", str(directory)])

    def test_resume_cli_refuses_an_override_differing_in_a_committed_batch(
        self, tmp_path
    ):
        directory = tmp_path / "ckpt"
        assert main(self._stream_args(directory, tmp_path / "c.txt")) == 0
        os.unlink(_snapshot(CheckpointConfig(directory=directory)))  # replay all
        stored = load_update_stream(directory / "updates.npz")
        save_update_stream(_altered(stored, 10), tmp_path / "altered.npz")
        before = _files(directory)
        with pytest.raises(SystemExit, match="WAL batch 0 .*stream/WAL mismatch"):
            main(
                [
                    "resume", "--checkpoint-dir", str(directory),
                    "--updates", str(tmp_path / "altered.npz"),
                ]
            )
        assert _files(directory) == before

    def test_stream_cli_bad_out_fails_before_running(self, tmp_path):
        # --out is opened up front: a typo'd path must not cost a full run.
        args = self._stream_args(tmp_path / "ckpt", tmp_path / "c.txt")
        args += ["--out", str(tmp_path / "no_such_dir" / "records.jsonl")]
        with pytest.raises(SystemExit, match="cannot write --out"):
            main(args)
        assert not (tmp_path / "ckpt" / "wal.jsonl").exists(), (
            "the stream ran despite an unwritable --out"
        )

    def test_no_fsync_choice_is_persisted(self, tmp_path):
        directory = tmp_path / "ckpt"
        assert main(self._stream_args(directory, tmp_path / "c.txt")) == 0
        config = json.loads((directory / "config.json").read_text())
        assert config["fsync"] is False  # _stream_args passes --no-fsync

    def test_stream_cli_rejects_reused_dir(self, tmp_path, capsys):
        directory = tmp_path / "ckpt"
        assert main(self._stream_args(directory, tmp_path / "c1.txt")) == 0
        with pytest.raises(SystemExit, match="already holds a stream"):
            main(self._stream_args(directory, tmp_path / "c2.txt"))


@pytest.mark.slow
class TestSigkill:
    """A real ``kill -9`` mid-flight, then an in-process resume."""

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
                "--churn", "uniform", "--num-updates", "2000",
                "--batch-size", "25", "--resolve-every-batch",
                "--checkpoint-dir", str(directory), "--snapshot-every", "3",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Let it commit some batches, then kill it dead.
        deadline = time.time() + 30
        wal = directory / "wal.jsonl"
        while time.time() < deadline:
            if wal.exists() and wal.stat().st_size > 0:
                break
            time.sleep(0.05)
        time.sleep(0.5)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        assert wal.exists(), "stream never committed a batch"

        resumed = resume_stream(directory)
        assert resumed.final_is_cover

        from repro.graphs.io import load_npz

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
