"""Tests for loading update streams: every source decodes to columns."""

import collections.abc
import gzip
import inspect
import io
import json
import os
import tracemalloc
from typing import Optional

import numpy as np
import pytest

import repro.dynamic
import repro.graphs.updates
from repro.dynamic import run_stream
from repro.graphs.generators import gnp_average_degree
from repro.graphs.graph import WeightedGraph
from repro.graphs.streams import make_update_stream
from repro.graphs.updates import (
    OP_INSERT,
    UpdateColumns,
    load_update_stream,
    save_update_stream,
    save_update_stream_segments,
)
from tests.events import EdgeDelete, EdgeInsert, WeightChange, columns, events
from tests.recovery.harness import concat

PATH4 = WeightedGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])

UPDATES = [
    EdgeInsert(0, 1),
    WeightChange(2, 5.0),
    EdgeDelete(1, 3),
    EdgeInsert(3, 2),
    EdgeDelete(0, 1),
]
COLS = columns(UPDATES)


class TestSources:
    def test_memory_source(self):
        assert len(COLS) == 5
        assert events(COLS) == UPDATES
        assert events(COLS[1:2]) == [WeightChange(2, 5.0)]

    def test_file_source_plain_and_gz(self, tmp_path):
        plain = tmp_path / "u.jsonl"
        gz = tmp_path / "u.jsonl.gz"
        save_update_stream(COLS, plain)
        save_update_stream(COLS, gz)
        assert events(load_update_stream(plain)) == UPDATES
        assert events(load_update_stream(gz)) == UPDATES

    def test_directory_source_reads_segments_in_order(self, tmp_path):
        paths = save_update_stream_segments(COLS, tmp_path, segment_size=2)
        assert [os.path.basename(p) for p in paths] == [
            "part-00000.jsonl",
            "part-00001.jsonl",
            "part-00002.jsonl",
        ]
        assert events(load_update_stream(tmp_path)) == UPDATES

    def test_directory_source_gz_segments(self, tmp_path):
        save_update_stream_segments(
            COLS, tmp_path, segment_size=3, compress=True
        )
        assert events(load_update_stream(tmp_path)) == UPDATES

    def test_directory_source_sorts_segments_numerically(self, tmp_path):
        """Unpadded (or padding-overflowed) segment numbers must replay in
        numeric order, not lexicographic (part-10 after part-2)."""
        save_update_stream(COLS[:2], tmp_path / "part-2.jsonl")
        save_update_stream(COLS[2:], tmp_path / "part-10.jsonl")
        assert events(load_update_stream(tmp_path)) == UPDATES

    def test_bad_segment_line_names_the_segment(self, tmp_path):
        save_update_stream_segments(COLS[:4], tmp_path, segment_size=2)
        bad = tmp_path / "part-00001.jsonl"
        bad.write_text(bad.read_text().splitlines()[0] + '\n{"op": "insert", "u": 1.5, "v": 2}\n')
        with pytest.raises(ValueError, match="JSON integers") as info:
            load_update_stream(tmp_path)
        assert str(info.value).startswith(f"{bad}: update stream line 2: ")

    @pytest.mark.parametrize("form", ["plain", "gz", "segments", "byte-stream"])
    def test_non_utf8_line_names_file_and_line(self, tmp_path, form):
        raw = b'{"op": "insert", "u": 0, "v": 1}\n\xff\xfe\n'
        if form == "byte-stream":  # such as stdin's buffer
            source, where = io.BytesIO(raw), ""
        elif form == "segments":
            save_update_stream(COLS[:2], tmp_path / "part-00000.jsonl")
            bad = tmp_path / "part-00001.jsonl"
            bad.write_bytes(raw)
            source, where = tmp_path, f"{bad}: "
        else:
            source = tmp_path / ("u.jsonl.gz" if form == "gz" else "u.jsonl")
            source.write_bytes(gzip.compress(raw) if form == "gz" else raw)
            where = f"{source}: "
        with pytest.raises(ValueError, match="can't decode byte 0xff") as info:
            load_update_stream(source)
        assert str(info.value).startswith(f"{where}update stream line 2: ")

    def test_utf16_is_refused(self):
        """Lines are decoded as UTF-8 before ``json.loads``, which would
        detect and accept UTF-16 or UTF-32 if it were given bytes."""
        line = '{"op": "insert", "u": 0, "v": 1}\n'.encode("utf-16")
        with pytest.raises(ValueError, match="^update stream line 1: "):
            load_update_stream(io.BytesIO(line))

    def test_directory_with_no_matching_segments_raises(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        with pytest.raises(ValueError, match="no segments"):
            load_update_stream(tmp_path)

    def test_empty_directory_is_empty_stream(self, tmp_path):
        cols = load_update_stream(tmp_path)
        assert isinstance(cols, UpdateColumns)
        assert len(cols) == 0

    def test_every_source_loads_as_columns(self, tmp_path):
        save_update_stream(COLS, tmp_path / "u.jsonl")
        save_update_stream(COLS, tmp_path / "u.jsonl.gz")
        save_update_stream(COLS, tmp_path / "u.npz")
        save_update_stream_segments(COLS, tmp_path / "segments", segment_size=2)
        text = (tmp_path / "u.jsonl").read_text()
        sources = [
            tmp_path / "u.jsonl",
            str(tmp_path / "u.jsonl.gz"),
            tmp_path / "u.npz",
            tmp_path / "segments",
            io.StringIO(text),
            io.BytesIO(text.encode("utf-8")),
            text.splitlines(),
        ]
        for source in sources:
            cols = load_update_stream(source)
            assert isinstance(cols, UpdateColumns), source
            assert cols.op.dtype == np.uint8 and cols.u.dtype == np.int64
            assert cols.v.dtype == np.int64 and cols.w.dtype == np.float64
            assert events(cols) == UPDATES, source
        with pytest.raises(TypeError):
            load_update_stream(42)

    def test_engine_slices_batches_as_column_views(self, monkeypatch):
        """The engine hands the maintainer views of the loaded columns,
        batch_size events at a time, with the tail batch short."""
        from repro.dynamic.maintainer import IncrementalCoverMaintainer

        cols = COLS
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
        assert [e for b in seen for e in events(b)] == UPDATES
        with pytest.raises(ValueError):
            run_stream(PATH4, cols, batch_size=0)


@pytest.fixture(scope="module")
def long_stream() -> UpdateColumns:
    """A stream several chunks long: line 5001 lies well past the first chunk."""
    graph = gnp_average_degree(500, 8.0, seed=1)
    return make_update_stream("uniform", graph, 6000, seed=2)


def _long_source(tmp_path, long: UpdateColumns, form: str, bad: Optional[bytes] = None):
    """``long`` as ``form``, with line 5001 replaced by ``bad`` if given,
    and the prefix an error in it must carry."""
    save_update_stream(long, tmp_path / "long.jsonl")
    lines = (tmp_path / "long.jsonl").read_bytes().split(b"\n")
    assert 5000 > 4 * repro.graphs.updates._CHUNK_LINES
    if bad is not None:
        lines[5000] = bad
    raw = b"\n".join(lines)
    if form == "byte-stream":  # such as stdin's buffer
        return io.BytesIO(raw), ""
    if form == "segments":
        (tmp_path / "segments").mkdir()
        save_update_stream(long[:100], tmp_path / "segments" / "part-00000.jsonl")
        bad_path = tmp_path / "segments" / "part-00001.jsonl"
        bad_path.write_bytes(raw)
        return tmp_path / "segments", f"{bad_path}: "
    path = tmp_path / ("bad.jsonl.gz" if form == "gz" else "bad.jsonl")
    path.write_bytes(gzip.compress(raw) if form == "gz" else raw)
    return path, f"{path}: "


def _assert_same_columns(got: UpdateColumns, want: UpdateColumns) -> None:
    for name in ("op", "u", "v", "w"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestChunkBoundaries:
    """Errors past the first chunk name their absolute line and file, in
    the words of the per-line decode."""

    FORMS = ["plain", "gz", "segments", "byte-stream"]

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize(
        "bad, message",
        [
            (b'{"op": "insert", "u": null, "v": 2}',
             "vertex ids must be JSON integers within int64, got None"),
            (b"\xff\xfe",
             "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (json.dumps({"op": "insert", "u": 2**63, "v": 1}).encode(),
             f"vertex ids must be JSON integers within int64, got {2**63}"),
            (json.dumps({"op": "reweight", "v": 0, "weight": float("nan")}).encode(),
             "reweight weight must be a finite JSON number > 0, got nan"),
            (b'{"op": "insert", "u": 1, "v": "', "Unterminated string starting at"),
        ],
        ids=["null-id", "non-utf8", "beyond-int64", "nan-weight", "string-splice"],
    )
    def test_bad_line_past_first_chunk(self, tmp_path, long_stream, form, bad, message):
        source, where = _long_source(tmp_path, long_stream, form, bad)
        with pytest.raises(ValueError) as info:
            load_update_stream(source)
        text = str(info.value)
        assert text.startswith(f"{where}update stream line 5001: "), text
        assert message in text

    @pytest.mark.parametrize("form", FORMS)
    def test_valid_stream_never_falls_back(self, tmp_path, long_stream, form, monkeypatch):
        """Saved streams decode by the bulk path alone: the per-line
        decode is never entered."""
        source, _ = _long_source(tmp_path, long_stream, form)

        def refuse(*args, **kwargs):
            raise AssertionError("a valid chunk fell back to the per-line decode")

        monkeypatch.setattr(repro.graphs.updates, "_json_lines", refuse)
        cols = load_update_stream(source)
        want = long_stream
        if form == "segments":
            want = concat([long_stream[:100], long_stream])
        _assert_same_columns(cols, want)

    def test_peak_memory_stays_near_the_per_line_decode(self, tmp_path):
        """Chunks bound what one parse holds: decoding a 55k-update stream
        peaks at most 2 MiB above the per-line decode (2.7 against 2.6 MiB
        when measured; a whole-file parse peaks at ~35 MiB)."""
        graph = gnp_average_degree(2000, 8.0, seed=1)
        path = tmp_path / "big.jsonl"
        save_update_stream(make_update_stream("uniform", graph, 55_000, seed=1), path)

        def peak(load):
            tracemalloc.start()
            try:
                load()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def per_line():
            with open(path, "rb") as fh:
                return UpdateColumns.from_rows(repro.graphs.updates._json_lines(fh))

        assert peak(lambda: load_update_stream(path)) <= peak(per_line) + (2 << 20)


def test_no_event_class_in_the_library():
    """``UpdateColumns`` is the one event type: neither module defines an
    event class, and columns have no per-event view for a loop or an
    integer index to fall back on."""
    for module in (repro.graphs.updates, repro.dynamic):
        for name in ("EdgeInsert", "EdgeDelete", "WeightChange", "GraphUpdate"):
            assert not hasattr(module, name), (module.__name__, name)
    defined = {
        name
        for name, obj in vars(repro.graphs.updates).items()
        if inspect.isclass(obj) and obj.__module__ == "repro.graphs.updates"
    }
    assert defined == {"InvalidUpdateError", "UpdateColumns"}
    assert not isinstance(COLS, collections.abc.Sequence)
    assert len(COLS[1:3]) == 2
    for probe in (
        lambda: COLS[0],
        lambda: COLS[-1],
        lambda: list(COLS),
        lambda: iter(COLS),
        lambda: (OP_INSERT, 0, 1, 0.0) in COLS,
    ):
        with pytest.raises(TypeError):
            probe()
