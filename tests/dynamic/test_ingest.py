"""Tests for loading update streams: every source decodes to columns."""

import io
import os

import numpy as np
import pytest

from repro.dynamic import WriteAheadLog, read_wal, run_stream
from repro.graphs.generators import gnp_average_degree
from repro.graphs.graph import WeightedGraph
from repro.graphs.streams import CHURN_MODELS, make_update_stream
from repro.graphs.updates import (
    EdgeDelete,
    EdgeInsert,
    UpdateColumns,
    WeightChange,
    load_update_stream,
    save_update_stream,
    save_update_stream_segments,
)

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "recovery", "data")

PATH4 = WeightedGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])

UPDATES = [
    EdgeInsert(0, 1),
    WeightChange(2, 5.0),
    EdgeDelete(1, 3),
    EdgeInsert(3, 2),
    EdgeDelete(0, 1),
]


class TestSources:
    def test_memory_source(self):
        cols = UpdateColumns.from_updates(UPDATES)
        assert len(cols) == 5
        assert list(cols) == UPDATES
        assert cols[1] == WeightChange(2, 5.0)

    def test_file_source_plain_and_gz(self, tmp_path):
        plain = tmp_path / "u.jsonl"
        gz = tmp_path / "u.jsonl.gz"
        save_update_stream(UPDATES, plain)
        save_update_stream(UPDATES, gz)
        assert list(load_update_stream(plain)) == UPDATES
        assert list(load_update_stream(gz)) == UPDATES

    def test_directory_source_reads_segments_in_order(self, tmp_path):
        paths = save_update_stream_segments(UPDATES, tmp_path, segment_size=2)
        assert [os.path.basename(p) for p in paths] == [
            "part-00000.jsonl",
            "part-00001.jsonl",
            "part-00002.jsonl",
        ]
        assert list(load_update_stream(tmp_path)) == UPDATES

    def test_directory_source_gz_segments(self, tmp_path):
        save_update_stream_segments(
            UPDATES, tmp_path, segment_size=3, compress=True
        )
        assert list(load_update_stream(tmp_path)) == UPDATES

    def test_directory_source_sorts_segments_numerically(self, tmp_path):
        """Unpadded (or padding-overflowed) segment numbers must replay in
        numeric order, not lexicographic (part-10 after part-2)."""
        save_update_stream(UPDATES[:2], tmp_path / "part-2.jsonl")
        save_update_stream(UPDATES[2:], tmp_path / "part-10.jsonl")
        assert list(load_update_stream(tmp_path)) == UPDATES

    def test_bad_segment_line_names_the_segment(self, tmp_path):
        save_update_stream_segments(UPDATES[:4], tmp_path, segment_size=2)
        bad = tmp_path / "part-00001.jsonl"
        bad.write_text(bad.read_text().splitlines()[0] + '\n{"op": "insert", "u": 1.5, "v": 2}\n')
        with pytest.raises(ValueError, match="JSON integers") as info:
            load_update_stream(tmp_path)
        assert str(info.value).startswith(f"{bad}: update stream line 2: ")

    def test_directory_with_no_matching_segments_raises(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        with pytest.raises(ValueError, match="no segments"):
            load_update_stream(tmp_path)

    def test_empty_directory_is_empty_stream(self, tmp_path):
        cols = load_update_stream(tmp_path)
        assert isinstance(cols, UpdateColumns)
        assert list(cols) == []

    def test_every_source_loads_as_columns(self, tmp_path):
        save_update_stream(UPDATES, tmp_path / "u.jsonl")
        save_update_stream(UPDATES, tmp_path / "u.jsonl.gz")
        save_update_stream(UPDATES, tmp_path / "u.npz")
        save_update_stream_segments(UPDATES, tmp_path / "segments", segment_size=2)
        text = (tmp_path / "u.jsonl").read_text()
        sources = [
            tmp_path / "u.jsonl",
            str(tmp_path / "u.jsonl.gz"),
            tmp_path / "u.npz",
            tmp_path / "segments",
            io.StringIO(text),
            text.splitlines(),
        ]
        for source in sources:
            cols = load_update_stream(source)
            assert isinstance(cols, UpdateColumns), source
            assert cols.op.dtype == np.uint8 and cols.u.dtype == np.int64
            assert cols.v.dtype == np.int64 and cols.w.dtype == np.float64
            assert list(cols) == UPDATES, source
        with pytest.raises(TypeError):
            load_update_stream(42)

    def test_engine_slices_batches_as_column_views(self, monkeypatch):
        """The engine hands the maintainer views of the loaded columns,
        batch_size events at a time, with the tail batch short."""
        from repro.dynamic.maintainer import IncrementalCoverMaintainer

        cols = UpdateColumns.from_updates(UPDATES)
        seen = []
        apply_batch = IncrementalCoverMaintainer.apply_batch

        def spy(self, batch):
            seen.append(batch)
            return apply_batch(self, batch)

        monkeypatch.setattr(IncrementalCoverMaintainer, "apply_batch", spy)
        run_stream(PATH4, cols, batch_size=2)
        assert [len(b) for b in seen] == [2, 2, 1]
        assert all(isinstance(b, UpdateColumns) for b in seen)
        assert all(np.shares_memory(b.u, cols.u) for b in seen)
        assert [u for b in seen for u in b] == UPDATES
        with pytest.raises(ValueError):
            run_stream(PATH4, cols, batch_size=0)


def test_no_source_builds_an_event_object(tmp_path, monkeypatch):
    """Decode, generate, save, WAL replay and the stream engine keep events
    as columns: with the event-object constructors disabled, every source
    path still runs."""
    save_update_stream(UPDATES, tmp_path / "u.jsonl")
    lines = (tmp_path / "u.jsonl").read_text().splitlines()
    graph = gnp_average_degree(60, 4.0, seed=1)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__} event object")

    for cls in (EdgeInsert, EdgeDelete, WeightChange):
        monkeypatch.setattr(cls, "__init__", refuse)
    with pytest.raises(AssertionError, match="EdgeInsert"):
        EdgeInsert(0, 1)

    cols = load_update_stream(lines)
    save_update_stream(cols, tmp_path / "c.jsonl")
    save_update_stream(cols, tmp_path / "c.jsonl.gz")
    save_update_stream(cols, tmp_path / "c.npz")
    save_update_stream_segments(cols, tmp_path / "segments", segment_size=2)
    for source in ("c.jsonl", "c.jsonl.gz", "c.npz", "segments"):
        loaded = load_update_stream(tmp_path / source)
        assert loaded.op.tobytes() == cols.op.tobytes()
        assert loaded.u.tolist() == cols.u.tolist()
        assert loaded.v.tolist() == cols.v.tolist()
        assert loaded.w.tolist() == cols.w.tolist()

    for model in CHURN_MODELS:
        assert len(make_update_stream(model, graph, 50, seed=2)) == 50

    v1_records, _ = read_wal(os.path.join(DATA, "parent_layout", "wal.jsonl"))
    assert v1_records and {r.version for r in v1_records} == {1}
    with WriteAheadLog(tmp_path / "v2.jsonl", fsync=False) as wal:
        wal.append(0, cols)
    (record,), _ = read_wal(tmp_path / "v2.jsonl")
    assert record.updates.op.tobytes() == cols.op.tobytes()

    stream = make_update_stream("uniform", graph, 40, seed=3)
    summary = run_stream(graph, stream, batch_size=10)
    assert summary.num_updates == 40 and summary.final_is_cover
