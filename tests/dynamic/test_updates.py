"""Tests for update events and the JSON-lines stream format."""

import gzip
import json

import pytest

from repro.graphs.updates import (
    EdgeDelete,
    EdgeInsert,
    WeightChange,
    load_update_stream,
    save_update_stream,
    update_from_json,
    update_to_json,
)

SAMPLE = [
    EdgeInsert(0, 5),
    EdgeDelete(2, 3),
    WeightChange(4, 2.5),
    EdgeInsert(7, 1),
]


class TestJsonRoundtrip:
    @pytest.mark.parametrize("upd", SAMPLE)
    def test_roundtrip(self, upd):
        assert update_from_json(update_to_json(upd)) == upd

    def test_insert_wire_shape(self):
        assert update_to_json(EdgeInsert(3, 7)) == {"op": "insert", "u": 3, "v": 7}

    def test_reweight_wire_shape(self):
        assert update_to_json(WeightChange(3, 2.5)) == {
            "op": "reweight", "v": 3, "weight": 2.5,
        }

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            update_from_json({"op": "explode", "u": 0, "v": 1})

    def test_missing_endpoint(self):
        with pytest.raises(ValueError, match="needs keys"):
            update_from_json({"op": "insert", "u": 0})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            update_from_json({"op": "delete", "u": 0, "v": 1, "w": 2})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            update_from_json({"op": "reweight", "v": 0, "weight": 0.0})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            update_from_json([1, 2, 3])

    def test_not_an_update(self):
        with pytest.raises(TypeError, match="not a graph update"):
            update_to_json(("insert", 0, 1))


class TestStreamIO:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        save_update_stream(SAMPLE, path)
        assert load_update_stream(path) == SAMPLE

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "stream.jsonl.gz"
        save_update_stream(SAMPLE, path)
        # Really compressed, not just renamed.
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        assert load_update_stream(path) == SAMPLE

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            "# a comment\n\n"
            + json.dumps({"op": "insert", "u": 1, "v": 2})
            + "\n\n"
        )
        assert load_update_stream(path) == [EdgeInsert(1, 2)]

    def test_iterable_source(self):
        lines = [json.dumps(update_to_json(u)) for u in SAMPLE]
        assert load_update_stream(lines) == SAMPLE

    def test_bad_line_names_line_number(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            json.dumps({"op": "insert", "u": 1, "v": 2})
            + "\n"
            + json.dumps({"op": "nope"})
            + "\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            load_update_stream(path)

    def test_gzip_content_loadable_by_stdlib(self, tmp_path):
        path = tmp_path / "stream.jsonl.gz"
        save_update_stream(SAMPLE, path)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows[0] == {"op": "insert", "u": 0, "v": 5}
