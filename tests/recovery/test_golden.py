"""Golden-file format tests: the checked-in fixtures must keep loading.

The fixtures under ``tests/recovery/data/`` were written by
``make_golden.py`` with format version 1.  These tests pin the wire
formats: they fail if a change to the snapshot or WAL layout slips in
without a version bump, and they exercise the rejection paths a reader
must keep forever (future version, digest mismatch) plus the version-1 →
version-3 migration (v3 stores int32 edge row deltas/columns and
``dual_codes``; v1 files with int64 endpoints and two-column ``dual_keys``
must keep loading bit-exactly).
"""

import io
import json
import os
import shutil

import numpy as np
import pytest

from repro.dynamic import read_wal
from repro.dynamic.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointCorruptionError,
    CheckpointVersionError,
    _ARRAY_FIELDS_V1,
    _digest,
    load_snapshot,
    save_snapshot,
)

from tests.events import EdgeDelete, EdgeInsert, WeightChange, events
from tests.recovery.harness import assert_same_state

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_SNAPSHOT = os.path.join(DATA, "golden_snapshot.npz")
GOLDEN_WAL = os.path.join(DATA, "golden_wal.jsonl")


class TestGoldenSnapshot:
    def test_restores_to_known_state(self):
        restored = load_snapshot(GOLDEN_SNAPSHOT)
        maintainer = restored.maintainer
        assert restored.meta["format_version"] == 1
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

    def test_v1_fixture_migrates_to_current_dual_codes_layout(self, tmp_path):
        # The golden fixture is format 1 (int64 endpoints, two-column
        # dual_keys); loading it and re-saving must produce the current
        # format 3 (int32 edge row deltas + columns, flat encoded
        # dual_codes) with bit-identical maintainer state.
        original = load_snapshot(GOLDEN_SNAPSHOT)
        assert original.meta["format_version"] == 1
        path = tmp_path / "migrated.npz"
        save_snapshot(path, original.maintainer, extra=original.meta["extra"])
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
            assert meta["format_version"] == CHECKPOINT_FORMAT_VERSION == 3
            assert {"edge_row_deltas", "edge_cols", "dual_codes"} <= set(
                archive.files
            )
            assert not {"edges_u", "edges_v", "dual_keys"} & set(archive.files)
            assert archive["edge_row_deltas"].dtype == np.int32
            assert archive["edge_cols"].dtype == np.int32
            codes = archive["dual_codes"]
        assert [((c >> 32), c & 0xFFFFFFFF) for c in codes.tolist()] == sorted(
            original.maintainer.edge_duals()
        )
        migrated = load_snapshot(path)
        assert_same_state(original.maintainer, migrated.maintainer)

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
        meta["content_digest"] = _digest(meta, arrays, _ARRAY_FIELDS_V1)
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
        mid = len(data) // 2
        for i in range(mid, mid + 4):
            data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptionError):
            load_snapshot(path)


class TestGoldenWAL:
    def test_reads_to_known_records(self):
        records, torn = read_wal(GOLDEN_WAL)
        assert not torn
        assert [r.batch_index for r in records] == [0, 1]
        assert events(records[0].updates) == [
            EdgeInsert(0, 1),
            EdgeInsert(1, 2),
            EdgeInsert(2, 3),
            EdgeInsert(0, 4),
        ]
        assert events(records[1].updates) == [
            EdgeInsert(2, 4),
            EdgeDelete(1, 2),
            WeightChange(3, 2.5),
        ]
        assert all(len(r.state_digest) == 64 for r in records)

    def test_wal_replays_onto_golden_base(self):
        # Applying the golden WAL to the documented base graph lands on
        # the snapshot's stamped graph digest.
        from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer
        from repro.graphs.graph import WeightedGraph

        records, _ = read_wal(GOLDEN_WAL)
        maintainer = IncrementalCoverMaintainer(
            DynamicGraph(
                WeightedGraph.empty(5, weights=[4.0, 1.0, 3.0, 1.0, 2.0])
            )
        )
        for record in records:
            assert maintainer.dyn.content_digest() == record.state_digest
            maintainer.apply_batch(record.updates)
        golden = load_snapshot(GOLDEN_SNAPSHOT)
        assert maintainer.dyn.content_digest() == golden.meta["graph_digest"]
        assert_same_state(maintainer, golden.maintainer)

    def test_golden_wal_checksum_damage_detected(self, tmp_path):
        from repro.dynamic import WALCorruptionError

        path = tmp_path / "wal.jsonl"
        raw = bytearray(open(GOLDEN_WAL, "rb").read())
        pos = raw.index(b'"op":"insert"')
        raw[pos + 6 : pos + 12] = b"remove"  # same length, different bytes
        path.write_bytes(bytes(raw))
        with pytest.raises(WALCorruptionError, match="checksum mismatch"):
            read_wal(path)
