"""Golden-file format tests: the checked-in fixtures must keep loading.

The fixtures under ``tests/recovery/data/`` are ``make_golden.py``'s
output in the formats this build writes (snapshot version 3, WAL version
3).  These tests pin the wire formats: they fail if a change to the
snapshot or WAL layout slips in without a version bump or a regenerated
fixture, and they exercise the rejection paths a reader must keep (other
version, digest mismatch, bit flips, WAL checksum damage).
"""

import io
import json
import os
import runpy
import shutil

import numpy as np
import pytest

from repro.dynamic import (
    DynamicGraph,
    IncrementalCoverMaintainer,
    WALCorruptionError,
    WALRecord,
    read_wal,
)
from repro.dynamic.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointCorruptionError,
    CheckpointVersionError,
    _digest,
    load_snapshot,
    save_snapshot,
)

from repro.graphs.graph import WeightedGraph

from tests.events import columns
from tests.recovery.harness import assert_same_state

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_SNAPSHOT = os.path.join(DATA, "golden_snapshot.npz")
GOLDEN_WAL = os.path.join(DATA, "golden_wal.jsonl")
#: ``make_golden.py``'s namespace: its ``WEIGHTS``, ``BATCHES`` and ``main``.
MAKE_GOLDEN = runpy.run_path(os.path.join(DATA, "make_golden.py"))


class TestGoldenSnapshot:
    def test_restores_to_known_state(self):
        restored = load_snapshot(GOLDEN_SNAPSHOT)
        maintainer = restored.maintainer
        assert restored.meta["format_version"] == CHECKPOINT_FORMAT_VERSION == 3
        assert restored.meta["n"] == 5 and restored.meta["m"] == 4
        assert restored.meta["extra"] == {
            "next_batch_index": 2,
            "updates_applied": 7,
        }
        assert np.nonzero(maintainer.cover)[0].tolist() == [1, 3, 4]
        assert maintainer.cover_weight == 5.5
        assert maintainer.dual_value == 4.0
        assert maintainer.edge_duals() == {
            (0, 1): 1.0,
            (0, 4): 2.0,
            (2, 3): 1.0,
        }
        assert maintainer.verify()

    def test_round_trips_through_a_fresh_file(self, tmp_path):
        original = load_snapshot(GOLDEN_SNAPSHOT)
        path = tmp_path / "again.npz"
        save_snapshot(path, original.maintainer, extra=original.meta["extra"])
        again = load_snapshot(path)
        assert_same_state(original.maintainer, again.maintainer)
        assert again.meta["extra"] == original.meta["extra"]
        assert again.meta["graph_digest"] == original.meta["graph_digest"]

    def test_fixture_is_in_the_current_layout(self):
        # Format 3: int32 edge row deltas + columns, flat encoded dual_codes.
        restored = load_snapshot(GOLDEN_SNAPSHOT)
        with np.load(GOLDEN_SNAPSHOT, allow_pickle=False) as archive:
            assert {"edge_row_deltas", "edge_cols", "dual_codes"} <= set(
                archive.files
            )
            assert archive["edge_row_deltas"].dtype == np.int32
            assert archive["edge_cols"].dtype == np.int32
            codes = archive["dual_codes"]
        assert [((c >> 32), c & 0xFFFFFFFF) for c in codes.tolist()] == sorted(
            restored.maintainer.edge_duals()
        )

    def test_bumped_format_version_is_rejected(self, tmp_path):
        # A *future* version (one past everything this build reads) must
        # be rejected even when the file is otherwise self-consistent.
        future = CHECKPOINT_FORMAT_VERSION + 1
        path = tmp_path / "bumped.npz"
        with np.load(GOLDEN_SNAPSHOT, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        meta = json.loads(bytes(members["meta_json"]).decode("utf-8"))
        meta["format_version"] = future
        meta.pop("content_digest")
        arrays = {k: v for k, v in members.items() if k != "meta_json"}
        meta["content_digest"] = _digest(meta, arrays)
        members["meta_json"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        buf = io.BytesIO()
        np.savez_compressed(buf, **members)
        path.write_bytes(buf.getvalue())
        with pytest.raises(CheckpointVersionError, match=f"version {future}"):
            load_snapshot(path)

    def test_embedded_digest_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "tampered.npz"
        with np.load(GOLDEN_SNAPSHOT, allow_pickle=False) as archive:
            members = {name: archive[name] for name in archive.files}
        members["loads"] = members["loads"] * 2.0
        buf = io.BytesIO()
        np.savez_compressed(buf, **members)
        path.write_bytes(buf.getvalue())
        with pytest.raises(CheckpointCorruptionError, match="digest mismatch"):
            load_snapshot(path)

    def test_bitflip_on_disk_is_rejected(self, tmp_path):
        path = tmp_path / "flipped.npz"
        shutil.copyfile(GOLDEN_SNAPSHOT, path)
        data = bytearray(path.read_bytes())
        # Inside the stored weights member: a flip in a zip header field
        # no reader checks, such as a member's date, changes no content.
        weights = load_snapshot(GOLDEN_SNAPSHOT).dyn.weights.tobytes()
        pos = data.index(weights) + len(weights) // 2
        for i in range(pos, pos + 4):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptionError):
            load_snapshot(path)


class TestGoldenWAL:
    def test_reads_to_known_records(self):
        # Each record is its batch's size, checksum and pre-apply stamp,
        # against make_golden's literal batches.  The checksums are pinned
        # too: a change to UpdateColumns.checksum is a format change.
        maintainer = IncrementalCoverMaintainer(
            DynamicGraph(WeightedGraph.empty(5, weights=MAKE_GOLDEN["WEIGHTS"]))
        )
        expected = []
        for i, batch in enumerate(map(columns, MAKE_GOLDEN["BATCHES"])):
            expected.append(
                WALRecord(i, len(batch), batch.checksum(), maintainer.dyn.state_stamp())
            )
            maintainer.apply_batch(batch)
        records, torn = read_wal(GOLDEN_WAL)
        assert not torn
        assert records == expected
        assert [(r.size, r.batch_crc) for r in records] == [
            (4, 65496024),
            (3, 2268455059),
        ]
        assert all(len(r.state_digest) == 32 for r in records)

    def test_wal_replays_onto_golden_base(self):
        # Replaying make_golden's batches as the golden WAL commits them
        # lands on the snapshot's state.
        records, _ = read_wal(GOLDEN_WAL)
        maintainer = IncrementalCoverMaintainer(
            DynamicGraph(WeightedGraph.empty(5, weights=MAKE_GOLDEN["WEIGHTS"]))
        )
        for record, batch in zip(records, map(columns, MAKE_GOLDEN["BATCHES"])):
            assert (record.size, record.batch_crc) == (len(batch), batch.checksum())
            assert maintainer.dyn.state_stamp() == record.state_digest
            maintainer.apply_batch(batch)
        golden = load_snapshot(GOLDEN_SNAPSHOT)
        graph = maintainer.dyn.materialize()
        assert graph.content_digest() == golden.meta["graph_digest"]
        assert_same_state(maintainer, golden.maintainer)

    def test_golden_wal_checksum_damage_detected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        raw = bytearray(open(GOLDEN_WAL, "rb").read())
        pos = raw.index(b'"size":4')
        raw[pos + 7] = ord("5")  # same length, different bytes
        path.write_bytes(bytes(raw))
        with pytest.raises(WALCorruptionError, match="line 1: checksum mismatch"):
            read_wal(path)


class TestMakeGolden:
    """``make_golden.py`` reproduces the pins: the same snapshot content
    (zip members carry timestamps, so the bytes would differ) and a
    byte-identical WAL."""

    @staticmethod
    def _main():
        return MAKE_GOLDEN["main"]

    def test_a_fresh_run_reproduces_the_pins(self, tmp_path, capsys):
        self._main()([str(tmp_path)])
        fresh = load_snapshot(tmp_path / "golden_snapshot.npz")
        pinned = load_snapshot(GOLDEN_SNAPSHOT)
        assert fresh.meta["content_digest"] == pinned.meta["content_digest"]
        assert_same_state(fresh.maintainer, pinned.maintainer)
        fresh_wal = (tmp_path / "golden_wal.jsonl").read_bytes()
        assert fresh_wal == open(GOLDEN_WAL, "rb").read()

    def test_usage(self):
        with pytest.raises(SystemExit, match="usage"):
            self._main()(["a", "b"])
