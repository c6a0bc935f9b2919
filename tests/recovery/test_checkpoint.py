"""Snapshot format: round-trips, integrity gates, atomicity."""

import gzip
import io
import json

import numpy as np
import pytest

from repro.dynamic import IncrementalCoverMaintainer
from repro.dynamic.checkpoint import (
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointVersionError,
    _digest,
    load_snapshot,
    save_snapshot,
)
from repro.graphs.graph import WeightedGraph

from tests.kernel_oracle import has_edge
from tests.recovery.harness import (
    assert_same_state,
    make_batches,
    make_workload,
    seeded_maintainer,
)


@pytest.fixture
def streamed_maintainer():
    """A maintainer mid-stream: adopted solve + a few applied batches."""
    graph = make_workload(n=100, seed=5)
    maintainer = seeded_maintainer(graph)
    for batch in make_batches(graph, "uniform", 3, 20, seed=7):
        maintainer.apply_batch(batch)
    return maintainer


class TestRoundTrip:
    def test_restore_is_bit_exact(self, streamed_maintainer, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(path, streamed_maintainer)
        restored = load_snapshot(path).maintainer
        assert_same_state(streamed_maintainer, restored)

    def test_restored_maintainer_evolves_identically(
        self, streamed_maintainer, tmp_path
    ):
        path = tmp_path / "snap.npz"
        save_snapshot(path, streamed_maintainer)
        restored = load_snapshot(path).maintainer
        graph = make_workload(n=100, seed=5)
        for batch in make_batches(graph, "uniform", 4, 25, seed=11):
            r1 = streamed_maintainer.apply_batch(batch)
            r2 = restored.apply_batch(batch)
            assert r1.certificate == r2.certificate
            assert_same_state(streamed_maintainer, restored)

    def test_extra_metadata_round_trips(self, streamed_maintainer, tmp_path):
        path = tmp_path / "snap.npz"
        extra = {"next_batch_index": 7, "note": "hello"}
        save_snapshot(path, streamed_maintainer, extra=extra)
        assert load_snapshot(path).meta["extra"] == extra

    def test_digest_is_returned_and_stored(self, streamed_maintainer, tmp_path):
        path = tmp_path / "snap.npz"
        digest = save_snapshot(path, streamed_maintainer)
        assert load_snapshot(path).meta["content_digest"] == digest

    def test_snapshot_of_edgeless_maintainer(self, tmp_path):
        graph = WeightedGraph.empty(6)
        from repro.dynamic import DynamicGraph

        maintainer = IncrementalCoverMaintainer(DynamicGraph(graph))
        path = tmp_path / "snap.npz"
        save_snapshot(path, maintainer)
        restored = load_snapshot(path).maintainer
        assert restored.dyn.n == 6 and restored.dyn.m == 0
        assert not restored.cover.any()

    def test_overwrite_leaves_no_temp_files(self, streamed_maintainer, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(path, streamed_maintainer)
        save_snapshot(path, streamed_maintainer)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.npz"]


class TestIntegrityGates:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_snapshot(tmp_path / "nope.npz")

    def test_truncated_file(self, streamed_maintainer, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(path, streamed_maintainer)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptionError):
            load_snapshot(path)

    def test_flipped_bytes(self, streamed_maintainer, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(path, streamed_maintainer)
        data = bytearray(path.read_bytes())
        mid = len(data) // 2
        for i in range(mid, mid + 8):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptionError):
            load_snapshot(path)

    def test_gzip_container_is_refused(self, streamed_maintainer, tmp_path):
        """A gzip-wrapped snapshot is not a format this build reads: it
        fails as a damaged archive, not as a partial restore."""
        path = tmp_path / "snap.npz.gz"
        save_snapshot(tmp_path / "snap.npz", streamed_maintainer)
        path.write_bytes(gzip.compress((tmp_path / "snap.npz").read_bytes()))
        with pytest.raises(CheckpointCorruptionError):
            load_snapshot(path)

    def test_not_a_snapshot_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, stuff=np.arange(4))
        with pytest.raises(CheckpointCorruptionError, match="metadata"):
            load_snapshot(path)

    def test_tampered_array_fails_digest(self, streamed_maintainer, tmp_path):
        # Rewrite the archive with one array modified but the original
        # header kept: the zip layer is self-consistent, only the content
        # digest can catch it.
        path = tmp_path / "snap.npz"
        save_snapshot(path, streamed_maintainer)
        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        members["weights"] = members["weights"] + 1.0
        buf = io.BytesIO()
        np.savez_compressed(buf, **members)
        path.write_bytes(buf.getvalue())
        with pytest.raises(CheckpointCorruptionError, match="digest mismatch"):
            load_snapshot(path)

    def test_future_format_version_rejected(self, streamed_maintainer, tmp_path):
        # A version bump must be rejected with a clear message even when
        # the file is otherwise internally consistent (digest recomputed).
        path = tmp_path / "snap.npz"
        save_snapshot(path, streamed_maintainer)
        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(members["meta_json"]).decode("utf-8"))
        meta["format_version"] = 999
        meta.pop("content_digest")
        arrays = {k: v for k, v in members.items() if k != "meta_json"}
        meta["content_digest"] = _digest(meta, arrays)
        members["meta_json"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        buf = io.BytesIO()
        np.savez_compressed(buf, **members)
        path.write_bytes(buf.getvalue())
        with pytest.raises(CheckpointVersionError, match="version 999"):
            load_snapshot(path)

    def test_inconsistent_dual_key_rejected(self, streamed_maintainer, tmp_path):
        # A dual on a non-edge means snapshot and graph disagree; the
        # restore must refuse rather than fabricate a certificate.
        path = tmp_path / "snap.npz"
        save_snapshot(path, streamed_maintainer)
        with np.load(path, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        codes = members["dual_codes"].copy()
        assert codes.size, "fixture must carry duals"
        dyn = streamed_maintainer.dyn
        # Find a non-edge pair to point the first dual at.
        u = 0
        v = next(x for x in range(1, dyn.n) if not has_edge(dyn, u, x))
        codes[0] = (u << 32) | v
        members["dual_codes"] = codes
        meta = json.loads(bytes(members["meta_json"]).decode("utf-8"))
        meta.pop("content_digest")
        arrays = {k: v for k, v in members.items() if k != "meta_json"}
        meta["content_digest"] = _digest(meta, arrays)
        members["meta_json"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        buf = io.BytesIO()
        np.savez_compressed(buf, **members)
        path.write_bytes(buf.getvalue())
        with pytest.raises(CheckpointCorruptionError, match="not an edge"):
            load_snapshot(path)


class TestStateExport:
    def test_export_is_deterministic(self, streamed_maintainer):
        a = streamed_maintainer.export_state()
        b = streamed_maintainer.export_state()
        assert "dual_keys" not in a
        assert np.array_equal(a["dual_codes"], b["dual_codes"])
        assert np.array_equal(a["dual_values"], b["dual_values"])

    def test_from_state_is_order_free(self, streamed_maintainer):
        state = streamed_maintainer.export_state()
        order = np.random.default_rng(0).permutation(state["dual_codes"].size)
        shuffled = dict(
            state,
            dual_codes=state["dual_codes"][order],
            dual_values=state["dual_values"][order],
        )
        restored = IncrementalCoverMaintainer.from_state(
            streamed_maintainer.dyn, shuffled
        )
        again = restored.export_state()
        assert np.array_equal(again["dual_codes"], state["dual_codes"])
        assert np.array_equal(again["dual_values"], state["dual_values"])

    def test_from_state_refuses_a_dual_on_a_non_edge(self, streamed_maintainer):
        state = streamed_maintainer.export_state()
        dyn = streamed_maintainer.dyn
        v = next(x for x in range(1, dyn.n) if not has_edge(dyn, 0, x))
        bad = dict(state, dual_codes=state["dual_codes"].copy())
        bad["dual_codes"][0] = v  # the code of edge (0, v)
        with pytest.raises(ValueError, match=rf"dual on \(0, {v}\)"):
            IncrementalCoverMaintainer.from_state(dyn, bad)

    def test_from_state_validates_shapes(self, streamed_maintainer):
        state = streamed_maintainer.export_state()
        bad = dict(state)
        bad["cover"] = state["cover"][:-1]
        with pytest.raises(ValueError, match="cover mask"):
            IncrementalCoverMaintainer.from_state(streamed_maintainer.dyn, bad)

    def test_from_state_rejects_mismatched_dual_arrays(self, streamed_maintainer):
        state = streamed_maintainer.export_state()
        bad = dict(state)
        bad["dual_values"] = state["dual_values"][:-1]
        with pytest.raises(ValueError, match="dual arrays"):
            IncrementalCoverMaintainer.from_state(streamed_maintainer.dyn, bad)
