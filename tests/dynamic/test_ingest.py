"""Tests for the ingestion layer: update sources and batching."""

import gzip
import os

import pytest

from repro.dynamic.ingest import (
    DirectorySource,
    FileSource,
    IterableSource,
    MemorySource,
    iter_update_batches,
    open_update_source,
)
from repro.graphs.updates import (
    EdgeDelete,
    EdgeInsert,
    WeightChange,
    save_update_stream,
    save_update_stream_segments,
)

UPDATES = [
    EdgeInsert(0, 1),
    WeightChange(2, 5.0),
    EdgeDelete(1, 3),
    EdgeInsert(3, 2),
    EdgeDelete(0, 1),
]


class TestSources:
    def test_memory_source(self):
        src = MemorySource(UPDATES)
        assert src.count() == 5
        assert list(src) == UPDATES
        assert src.collect() == UPDATES

    def test_file_source_plain_and_gz(self, tmp_path):
        plain = tmp_path / "u.jsonl"
        gz = tmp_path / "u.jsonl.gz"
        save_update_stream(UPDATES, plain)
        save_update_stream(UPDATES, gz)
        assert list(FileSource(plain)) == UPDATES
        assert list(FileSource(gz)) == UPDATES

    def test_directory_source_reads_segments_in_order(self, tmp_path):
        paths = save_update_stream_segments(UPDATES, tmp_path, segment_size=2)
        assert [os.path.basename(p) for p in paths] == [
            "part-00000.jsonl",
            "part-00001.jsonl",
            "part-00002.jsonl",
        ]
        assert list(DirectorySource(tmp_path)) == UPDATES

    def test_directory_source_gz_segments(self, tmp_path):
        save_update_stream_segments(
            UPDATES, tmp_path, segment_size=3, compress=True
        )
        assert list(DirectorySource(tmp_path)) == UPDATES

    def test_directory_source_sorts_segments_numerically(self, tmp_path):
        """Unpadded (or padding-overflowed) segment numbers must replay in
        numeric order, not lexicographic (part-10 after part-2)."""
        save_update_stream(UPDATES[:2], tmp_path / "part-2.jsonl")
        save_update_stream(UPDATES[2:], tmp_path / "part-10.jsonl")
        assert list(DirectorySource(tmp_path)) == UPDATES

    def test_directory_with_no_matching_segments_raises(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        with pytest.raises(ValueError, match="no segments"):
            list(DirectorySource(tmp_path))

    def test_empty_directory_is_empty_stream(self, tmp_path):
        assert list(DirectorySource(tmp_path)) == []

    def test_open_update_source_coercions(self, tmp_path):
        path = tmp_path / "u.jsonl"
        save_update_stream(UPDATES, path)
        assert isinstance(open_update_source(UPDATES), MemorySource)
        assert isinstance(open_update_source(str(path)), FileSource)
        assert isinstance(open_update_source(tmp_path), DirectorySource)
        assert isinstance(open_update_source(iter(UPDATES)), IterableSource)
        src = MemorySource(UPDATES)
        assert open_update_source(src) is src
        with pytest.raises(TypeError):
            open_update_source(42)

    def test_iter_update_batches(self):
        batches = list(iter_update_batches(UPDATES, 2))
        assert [len(b) for b in batches] == [2, 2, 1]
        assert [u for b in batches for u in b] == UPDATES
        with pytest.raises(ValueError):
            list(iter_update_batches(UPDATES, 0))
