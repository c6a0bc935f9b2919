"""Damaged ``.npz`` inputs fail with their file name, and a checkpoint's
stored graph and stream reach disk before the ``config.json`` naming them."""

import io
import os
import struct
import zipfile

import numpy as np
import pytest

from repro.cli import main
from repro.dynamic import CheckpointConfig, CheckpointError, resume_stream, run_stream
from repro.graphs.io import load_npz, save_npz
from repro.graphs.updates import load_update_stream, save_update_stream

from tests.recovery.harness import concat, make_batches, make_workload


def _flip_a_data_byte(data: bytes) -> bytes:
    """One byte flipped in the middle of the largest member's stored data
    (a flip in a zip header field may change nothing a reader checks)."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        member = max(archive.infolist(), key=lambda info: info.compress_size)
    offset = member.header_offset
    name_len, extra_len = struct.unpack("<HH", data[offset + 26 : offset + 30])
    damaged = bytearray(data)
    damaged[offset + 30 + name_len + extra_len + member.compress_size // 2] ^= 0xFF
    return bytes(damaged)


#: How an archive gets damaged: emptied, one byte flipped, or overwritten
#: with random bytes of the same length.
DAMAGES = {
    "empty": lambda data: b"",
    "flipped-byte": _flip_a_data_byte,
    "random-bytes": lambda data: np.random.default_rng(0).bytes(len(data)),
}


def _damage(path, damage):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(DAMAGES[damage](data))


@pytest.fixture
def workload(tmp_path):
    """A graph file and a stream file over it."""
    graph = make_workload(n=80, seed=5)
    updates = concat(make_batches(graph, "uniform", 4, 20, seed=6))
    graph_path, updates_path = tmp_path / "graph.npz", tmp_path / "updates.npz"
    save_npz(graph, graph_path)
    save_update_stream(updates, updates_path)
    return graph, updates, graph_path, updates_path


def _one_line_exit(argv, path):
    """``main(argv)`` exits with one line of text naming ``path``."""
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    message = str(exc_info.value.code)
    assert os.fspath(path) in message
    assert "\n" not in message
    return message


@pytest.mark.parametrize("damage", sorted(DAMAGES))
class TestDamagedArchive:
    def test_load_update_stream_names_the_file(self, workload, damage):
        *_, updates_path = workload
        _damage(updates_path, damage)
        with pytest.raises(ValueError, match="not a readable .npz archive") as exc_info:
            load_update_stream(updates_path)
        assert os.fspath(updates_path) in str(exc_info.value)

    def test_load_npz_names_the_file(self, workload, damage):
        _, _, graph_path, _ = workload
        _damage(graph_path, damage)
        with pytest.raises(ValueError, match="not a readable .npz archive") as exc_info:
            load_npz(graph_path)
        assert os.fspath(graph_path) in str(exc_info.value)

    def test_repro_stream_updates(self, workload, damage):
        _, _, graph_path, updates_path = workload
        _damage(updates_path, damage)
        argv = ["stream", "--input", str(graph_path), "--updates", str(updates_path)]
        message = _one_line_exit(argv, updates_path)
        assert message.startswith("bad update stream:")

    def test_repro_stream_input(self, workload, damage):
        _, _, graph_path, updates_path = workload
        _damage(graph_path, damage)
        argv = ["stream", "--input", str(graph_path), "--updates", str(updates_path)]
        message = _one_line_exit(argv, graph_path)
        assert message.startswith("cannot read input file")

    def test_resume_names_the_stored_stream(self, workload, tmp_path, damage):
        graph, updates, *_ = workload
        checkpoint = CheckpointConfig(directory=tmp_path / "ckpt", fsync=False)
        run_stream(graph, updates, batch_size=20, seed=1, checkpoint=checkpoint)
        _damage(checkpoint.updates_path, damage)
        with pytest.raises(CheckpointError, match="updates.npz") as exc_info:
            resume_stream(checkpoint.directory)
        assert "\n" not in str(exc_info.value)
        _one_line_exit(["resume", "--checkpoint-dir", str(checkpoint.directory)],
                       checkpoint.updates_path)


class TestCheckpointFilesReachDiskFirst:
    def _fsynced_inodes(self, workload, tmp_path, monkeypatch, *, fsync):
        """Run a checkpointed stream; the inodes ``os.fsync`` saw, in order."""
        graph, updates, *_ = workload
        seen = []
        real_fsync = os.fsync

        def spy(fd):
            seen.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        checkpoint = CheckpointConfig(directory=tmp_path / "ckpt", fsync=fsync)
        run_stream(graph, updates, batch_size=20, seed=1, checkpoint=checkpoint)
        inode = {
            name: os.stat(path).st_ino
            for name, path in (
                ("graph", checkpoint.graph_path),
                ("updates", checkpoint.updates_path),
                ("directory", checkpoint.directory),
                ("config", checkpoint.config_path),
            )
        }
        return seen, inode

    def test_graph_stream_and_directory_fsynced_before_config(
        self, workload, tmp_path, monkeypatch
    ):
        seen, inode = self._fsynced_inodes(workload, tmp_path, monkeypatch, fsync=True)
        config_at = seen.index(inode["config"])
        before_config = seen[:config_at]
        assert inode["graph"] in before_config
        assert inode["updates"] in before_config
        last_file = max(before_config.index(inode["graph"]), before_config.index(inode["updates"]))
        assert inode["directory"] in before_config[last_file:]

    def test_no_fsync_leaves_stored_files_unsynced(self, workload, tmp_path, monkeypatch):
        seen, inode = self._fsynced_inodes(workload, tmp_path, monkeypatch, fsync=False)
        assert inode["graph"] not in seen
        assert inode["updates"] not in seen
