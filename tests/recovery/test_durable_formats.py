"""The per-batch durable formats: state stamps, WAL v3, snapshot v3, updates.npz.

A durable stream pays per batch for three things — a state stamp, one WAL
record and, every few batches, a snapshot — and per run for its own copy of
the update stream.  These tests pin what each of them must guarantee:

* the stamp depends on the current edges and weights only, and any single
  effective change moves it;
* a version-3 WAL record commits a batch's size and event checksum, not
  its events, and is checksummed over its raw body bytes, so compaction
  can verify it and copy it byte for byte;
* a version-3 snapshot is written without materializing the graph;
* ``updates.npz`` round-trips a stream exactly and decodes lazily, and
  equal events have an equal checksum whatever their dtypes.
"""

import json
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import (
    DynamicGraph,
    InvalidUpdateError,
    UpdateColumns,
    WALCorruptionError,
    WALRecord,
    WriteAheadLog,
    compact_wal,
    read_wal,
    repair_wal,
)
from repro.dynamic.checkpoint import load_snapshot, save_snapshot
from repro.graphs.graph import WeightedGraph
from repro.graphs.updates import OP_REWEIGHT, load_update_stream, save_update_stream

from tests.events import EdgeDelete, EdgeInsert, WeightChange, columns, events
from tests.kernel_oracle import apply_event, has_edge
from tests.properties.strategies import weighted_graphs
from tests.recovery.harness import (
    assert_same_state,
    make_batches,
    make_workload,
    seeded_maintainer,
)


@st.composite
def graphs_with_events(draw, max_events=40):
    """A random graph plus a random (possibly no-op-laden) event sequence."""
    graph = draw(weighted_graphs(min_n=2, max_n=16))
    n = graph.n
    events = []
    for _ in range(draw(st.integers(0, max_events))):
        kind = draw(st.integers(0, 2))
        if kind == 2:
            v = draw(st.integers(0, n - 1))
            w = draw(st.sampled_from([0.5, 1.0, 2.5, 7.0]))
            events.append(WeightChange(v, w))
            continue
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1).filter(lambda x: x != u))
        events.append(EdgeInsert(u, v) if kind == 0 else EdgeDelete(u, v))
    return graph, events


def _replay(graph, events, compact_at=(), compact_fraction=0.25):
    dyn = DynamicGraph(graph, compact_fraction=compact_fraction, min_compact=1)
    for i, event in enumerate(events):
        if i in compact_at:
            dyn.compact()
        apply_event(dyn, event)
        dyn.maybe_compact()
    return dyn


class TestStateStamp:
    @settings(max_examples=60, deadline=None)
    @given(case=graphs_with_events(), data=st.data())
    def test_equal_graphs_share_a_stamp_whatever_their_history(self, case, data):
        graph, events = case
        compact_at = set(
            data.draw(st.lists(st.integers(0, max(len(events) - 1, 0)), max_size=4))
        )
        a = _replay(graph, events)
        b = _replay(graph, events, compact_at=compact_at, compact_fraction=100.0)
        final = a.materialize()
        # A third history: start edgeless, insert the final edges in a
        # drawn order with inserted-then-deleted noise, set the weights.
        c = DynamicGraph(WeightedGraph.empty(graph.n, weights=graph.weights))
        order = data.draw(st.permutations(range(final.m)))
        for k, e in enumerate(order):
            u, v = int(final.edges_u[e]), int(final.edges_v[e])
            apply_event(c, EdgeInsert(v, u))
            if k % 3 == 0:
                c.compact()
        for v in range(graph.n):
            apply_event(c, WeightChange(v, float(final.weights[v])))
        assert a.state_stamp() == b.state_stamp() == c.state_stamp()
        assert a.state_stamp() == DynamicGraph(final).state_stamp()

    @settings(max_examples=60, deadline=None)
    @given(case=graphs_with_events(), data=st.data())
    def test_any_single_effective_change_moves_the_stamp(self, case, data):
        graph, events = case
        dyn = _replay(graph, events)
        before = dyn.state_stamp()
        n = dyn.n
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1).filter(lambda x: x != u))
        kind = data.draw(st.sampled_from(["edge", "reweight"]))
        if kind == "edge":
            event = EdgeDelete(u, v) if has_edge(dyn, u, v) else EdgeInsert(u, v)
        else:
            event = WeightChange(v, float(dyn.weights[v]) + 1.0)
        assert apply_event(dyn, event)
        assert dyn.state_stamp() != before

    def test_no_op_events_keep_the_stamp(self):
        graph = make_workload(n=40, seed=3)
        dyn = DynamicGraph(graph)
        before = dyn.state_stamp()
        u, v = int(graph.edges_u[0]), int(graph.edges_v[0])
        assert not apply_event(dyn, EdgeInsert(u, v))
        assert not apply_event(dyn, WeightChange(0, float(graph.weights[0])))
        assert dyn.state_stamp() == before

    def test_restored_snapshot_has_the_original_stamp(self, tmp_path):
        graph = make_workload(n=90, seed=11)
        maintainer = seeded_maintainer(graph)
        for batch in make_batches(graph, "uniform", 4, 25, seed=12):
            maintainer.apply_batch(batch)
        assert maintainer.dyn.delta_size  # stamped through a live delta log
        path = tmp_path / "snap.npz"
        save_snapshot(path, maintainer)
        restored = load_snapshot(path)
        assert restored.dyn.state_stamp() == maintainer.dyn.state_stamp()


BATCH0 = [EdgeInsert(0, 1), EdgeDelete(2, 3), WeightChange(4, 2.5)]
BATCH1 = [EdgeInsert(5, 6), WeightChange(1, 0.1 + 0.2)]
COLS0 = columns(BATCH0)
COLS1 = columns(BATCH1)


def _lines(path):
    return path.read_bytes().splitlines(keepends=True)


def _write_log(path, count):
    """Commit ``count`` batches, alternating COLS1 and COLS0, each stamped
    with the state it applies to on an edgeless 8-vertex graph; returns
    the records read back from the log should equal."""
    dyn = DynamicGraph(WeightedGraph.empty(8))
    records = []
    with WriteAheadLog(path, fsync=False) as wal:
        for i in range(count):
            cols = COLS0 if i % 2 else COLS1
            stamp = dyn.state_stamp()
            wal.append(i, cols, state_digest=stamp)
            records.append(WALRecord(i, len(cols), cols.checksum(), stamp))
            for event in events(cols):
                apply_event(dyn, event)
    return records


class TestWALVersion3:
    def test_crc_is_over_the_raw_body_bytes(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        (expected,) = _write_log(path, 1)
        (line,) = _lines(path)
        record = json.loads(line)
        assert record["v"] == 3
        body = line[line.index(b'"body":') + len(b'"body":') : -2]
        assert zlib.crc32(body) == int(record["crc"], 16)
        # The batch's size and checksum, never its events.
        assert record["body"] == {
            "batch_index": 0,
            "size": 2,
            "batch_crc": COLS1.checksum(),
            "state_digest": expected.state_digest,
        }

    def test_records_round_trip_exactly(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        expected = _write_log(path, 3)
        records, torn = read_wal(path)
        assert not torn
        assert records == expected
        assert len({r.state_digest for r in records}) == 3

    def test_compaction_copies_retained_lines_byte_for_byte(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        _write_log(path, 5)
        before = _lines(path)
        assert compact_wal(path, 3, fsync=False) == 3
        assert _lines(path) == before[3:]

    def test_compaction_refuses_a_damaged_line(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        _write_log(path, 3)
        raw = bytearray(path.read_bytes())
        pos = raw.index(b'"size":2')
        raw[pos + 7] = ord("7")  # inside the first (to-be-dropped) record
        path.write_bytes(bytes(raw))
        with pytest.raises(WALCorruptionError, match="line 1: checksum mismatch"):
            compact_wal(path, 2, fsync=False)
        assert path.read_bytes() == bytes(raw)

    def test_damaged_header_is_corruption(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        _write_log(path, 1)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"crc":"', b'"crc":"zz', 1))
        with pytest.raises(WALCorruptionError):
            read_wal(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_record_after_version3_records_is_refused(self, tmp_path, version):
        """A committed version-1 or version-2 line (records that held the
        batch's events) is corruption wherever it sits: it is named by its
        line number, never dropped as a torn tail, and no reader rewrites
        the log around it."""
        path = tmp_path / "wal.jsonl"
        _write_log(path, 2)
        if version == 1:
            old = {"v": 1, "batch_index": 2, "updates": [{"op": "insert", "u": 0, "v": 1}]}
            old["crc"] = zlib.crc32(
                json.dumps(old, sort_keys=True, separators=(",", ":")).encode()
            )
            line = (json.dumps(old, sort_keys=True, separators=(",", ":")) + "\n").encode()
        else:
            body = b'{"batch_index":2,"op":"i","u":[0],"v":[1],"w":[],"state_digest":"ab"}'
            line = b'{"v":2,"crc":"%08x","body":%s}\n' % (zlib.crc32(body), body)
        with open(path, "ab") as fh:
            fh.write(line)
        before = path.read_bytes()
        for read in (read_wal, lambda p: compact_wal(p, 1, fsync=False)):
            with pytest.raises(WALCorruptionError, match="line 3: .*version 3 only"):
                read(path)
        assert not repair_wal(path)
        assert path.read_bytes() == before


class TestUpdateColumns:
    EVENTS = [
        EdgeInsert(3, 7),
        EdgeDelete(7, 3),
        WeightChange(2, 1.0 / 3.0),
        EdgeDelete(4, 4),  # a no-op for the graph, not an error
    ]

    def test_columns_round_trip_and_slice_lazily(self):
        cols = columns(self.EVENTS)
        assert len(cols) == 4
        assert events(cols) == self.EVENTS
        assert events(cols[2:3]) == self.EVENTS[2:3]
        assert events(cols[-1:]) == self.EVENTS[-1:]
        tail = cols[1:3]
        assert isinstance(tail, UpdateColumns)
        assert np.shares_memory(tail.u, cols.u)
        assert events(tail) == self.EVENTS[1:3]

    def test_npz_stream_round_trips_exactly(self, tmp_path):
        graph = make_workload(n=50, seed=2)
        batches = make_batches(graph, "uniform", 3, 30, seed=4)
        expected = [e for b in batches for e in events(b)]
        path = tmp_path / "updates.npz"
        save_update_stream(columns(expected), path)
        loaded = load_update_stream(path)
        assert isinstance(loaded, UpdateColumns)
        assert events(loaded) == expected

    def test_npz_without_update_columns_is_refused(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError, match="not an update stream"):
            load_update_stream(path)

    @pytest.mark.parametrize(
        "member, value, problem",
        [
            ("u", np.array([0.5, 1.0]), "dtype float64, expected integer"),
            ("v", np.array([3.7, 2.0]), "dtype float64, expected integer"),
            ("u", np.array([True, False]), "dtype bool, expected integer"),
            ("op", np.array([105, 105]), "dtype int64, expected uint8"),
            ("w", np.array([0, 0]), "dtype int64, expected floating"),
            ("v", np.array([[3], [2]]), "shape (2, 1), not 1-D"),
            ("w", np.zeros(3), "3 entries, 'op' has 2"),
        ],
    )
    def test_malformed_npz_member_is_refused(self, tmp_path, member, value, problem):
        members = {
            "op": np.frombuffer(b"ii", dtype=np.uint8),
            "u": np.array([0, 1]),
            "v": np.array([3, 2]),
            "w": np.zeros(2),
        }
        members[member] = value
        path = tmp_path / "bad.npz"
        np.savez(path, **members)
        with pytest.raises(ValueError) as info:
            load_update_stream(path)
        assert str(path) in str(info.value)
        assert f"member {member!r} has {problem}" in str(info.value)

    @pytest.mark.parametrize(
        "event, reason",
        [
            (EdgeInsert(1, 200), "vertex 200 out of range"),
            (EdgeDelete(-1, 2), "vertex -1 out of range"),
            (EdgeInsert(4, 4), "self-loop at vertex 4"),
            (WeightChange(200, 1.0), "vertex 200 out of range"),
            (WeightChange(3, 0.0), "finite and > 0"),
            (WeightChange(3, float("nan")), "finite and > 0"),
            (WeightChange(3, float("inf")), "finite and > 0"),
        ],
    )
    def test_validation_names_the_first_refused_event(self, event, reason):
        cols = columns(self.EVENTS + [event, EdgeInsert(9, 999)])
        with pytest.raises(InvalidUpdateError, match=reason) as info:
            cols.validate(200, batch_index=6, start=100)
        assert info.value.batch_index == 6
        assert info.value.position == 104
        assert isinstance(info.value, ValueError)

    def test_validation_accepts_what_the_graph_applies(self):
        columns(self.EVENTS).validate(8, batch_index=0, start=0)

    def test_checksum_ignores_dtypes_and_unused_slots(self):
        cols = columns(self.EVENTS)
        reweight = cols.op == OP_REWEIGHT
        as_int32 = UpdateColumns(
            cols.op, cols.u.astype(np.int32), cols.v.astype(np.int32), cols.w
        )
        # A reweight's u and an edge event's w are not part of an event.
        other_slots = UpdateColumns(
            cols.op,
            np.where(reweight, 99, cols.u),
            cols.v,
            np.where(reweight, cols.w, 5.0),
        )
        assert as_int32.checksum() == other_slots.checksum() == cols.checksum()
        assert cols[1:3].checksum() == columns(self.EVENTS[1:3]).checksum()

    @pytest.mark.parametrize(
        "changed",
        [
            [EdgeDelete(3, 7)] + EVENTS[1:],  # op
            [EdgeInsert(3, 8)] + EVENTS[1:],  # v
            [EdgeInsert(2, 7)] + EVENTS[1:],  # u of an edge event
            EVENTS[:2] + [WeightChange(2, 0.3333)] + EVENTS[3:],  # w of a reweight
            EVENTS[:3],  # one event fewer
            EVENTS[1:2] + EVENTS[:1] + EVENTS[2:],  # the same events reordered
        ],
        ids=["op", "v", "u", "w", "shorter", "reordered"],
    )
    def test_checksum_sees_every_event_field(self, changed):
        assert columns(changed).checksum() != columns(self.EVENTS).checksum()


class TestSnapshotVersion3:
    def _maintainer(self):
        graph = make_workload(n=80, seed=21)
        maintainer = seeded_maintainer(graph)
        for batch in make_batches(graph, "uniform", 3, 30, seed=22):
            maintainer.apply_batch(batch)
        return maintainer

    def test_save_never_materializes_the_graph(self, tmp_path, monkeypatch):
        maintainer = self._maintainer()
        expected = maintainer.dyn.materialize()
        apply_event(maintainer.dyn, WeightChange(0, 4.25))  # drop the memoized graph

        def refuse(self):
            raise AssertionError("save_snapshot materialized the graph")

        monkeypatch.setattr(DynamicGraph, "materialize", refuse)
        path = tmp_path / "snap.npz"
        save_snapshot(path, maintainer)
        monkeypatch.undo()
        restored = load_snapshot(path)
        graph = restored.dyn.materialize()
        assert np.array_equal(graph.edges_u, expected.edges_u)
        assert np.array_equal(graph.edges_v, expected.edges_v)
        assert restored.meta["graph_digest"] == graph.content_digest()

    def test_only_members_that_shrink_deflate(self, tmp_path):
        maintainer = self._maintainer()
        path = tmp_path / "snap.npz"
        save_snapshot(path, maintainer)
        with zipfile.ZipFile(path) as zf:
            methods = {i.filename: i.compress_type for i in zf.infolist()}
        # The header, the edge row deltas and the cover mask deflate well;
        # the other members barely shrink, so they are stored.
        deflated = {"meta_json.npy", "edge_row_deltas.npy", "cover.npy"}
        assert methods == {
            name: zipfile.ZIP_DEFLATED if name in deflated else zipfile.ZIP_STORED
            for name in methods
        }
        assert deflated < set(methods)
        assert load_snapshot(path).maintainer.dual_value == maintainer.dual_value

    def test_a_snapshot_with_every_member_deflated_loads_alike(self, tmp_path):
        # Snapshots written before only some members deflated hold the
        # same bytes in every member, so they load to the same state and
        # digest.
        maintainer = self._maintainer()
        path = tmp_path / "snap.npz"
        digest = save_snapshot(path, maintainer, extra={"next_batch_index": 3})
        deflated = tmp_path / "deflated.npz"
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(deflated, "w") as dst:
            for info in src.infolist():
                dst.writestr(
                    info.filename,
                    src.read(info),
                    compress_type=zipfile.ZIP_DEFLATED,
                    compresslevel=1,
                )
        with zipfile.ZipFile(deflated) as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_DEFLATED}
        ours, theirs = load_snapshot(path), load_snapshot(deflated)
        assert theirs.meta == ours.meta
        assert theirs.meta["content_digest"] == digest
        assert_same_state(theirs.maintainer, ours.maintainer)
