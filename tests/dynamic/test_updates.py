"""Tests for update events and the JSON-lines stream format."""

import gzip
import json

import pytest

from repro.graphs.updates import UpdateColumns, load_update_stream, save_update_stream
from tests.events import EdgeDelete, EdgeInsert, WeightChange, columns, events

SAMPLE = [
    EdgeInsert(0, 5),
    EdgeDelete(2, 3),
    WeightChange(4, 2.5),
    EdgeInsert(7, 1),
]


def _decode(spec):
    """Load a one-line stream holding ``spec``."""
    return load_update_stream([json.dumps(spec)])


def _wire(updates, tmp_path):
    """The JSON objects ``save_update_stream`` writes for ``updates``."""
    path = tmp_path / "wire.jsonl"
    save_update_stream(columns(updates), path)
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestJsonRoundtrip:
    @pytest.mark.parametrize("upd", SAMPLE)
    def test_roundtrip(self, upd, tmp_path):
        path = tmp_path / "one.jsonl"
        save_update_stream(columns([upd]), path)
        assert events(load_update_stream(path)) == [upd]

    def test_insert_wire_shape(self, tmp_path):
        assert _wire([EdgeInsert(3, 7)], tmp_path) == [{"op": "insert", "u": 3, "v": 7}]

    def test_reweight_wire_shape(self, tmp_path):
        assert _wire([WeightChange(3, 2.5)], tmp_path) == [
            {"op": "reweight", "v": 3, "weight": 2.5},
        ]

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            _decode({"op": "explode", "u": 0, "v": 1})

    def test_missing_endpoint(self):
        with pytest.raises(ValueError, match="needs keys"):
            _decode({"op": "insert", "u": 0})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            _decode({"op": "delete", "u": 0, "v": 1, "w": 2})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            _decode({"op": "reweight", "v": 0, "weight": 0.0})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            _decode([1, 2, 3])

    def test_not_an_update(self, tmp_path):
        cols = UpdateColumns.from_rows([(ord("x"), 0, 1, 0.0)])
        with pytest.raises(ValueError, match="unknown update op code 120"):
            save_update_stream(cols, tmp_path / "x.jsonl")


class TestBoundaryStrictness:
    """Every value the wire format does not allow fails at decode, with a
    ``ValueError`` naming its line — never a ``TypeError``, an
    ``OverflowError`` or a silent coercion."""

    @pytest.mark.parametrize(
        "spec, match",
        [
            ({"op": "insert", "u": None, "v": 1}, "JSON integers"),
            ({"op": "insert", "u": [0], "v": 1}, "JSON integers"),
            ({"op": "insert", "u": 2.9, "v": 1}, "JSON integers"),
            ({"op": "insert", "u": 2.0, "v": 1}, "JSON integers"),
            ({"op": "delete", "u": 0, "v": "7"}, "JSON integers"),
            ({"op": "insert", "u": True, "v": 1}, "JSON integers"),
            ({"op": "reweight", "v": False, "weight": 1.0}, "JSON integers"),
            ({"op": "insert", "u": 1e20, "v": 1}, "JSON integers"),
            ({"op": "insert", "u": 2**63, "v": 1}, "within int64"),
            ({"op": "reweight", "v": 0, "weight": True}, "> 0"),
            ({"op": "reweight", "v": 0, "weight": "2.5"}, "> 0"),
            ({"op": "reweight", "v": 0, "weight": None}, "> 0"),
            ({"op": "reweight", "v": 0, "weight": -1}, "> 0"),
            ({"op": "reweight", "v": 0, "weight": 10**400}, "> 0"),
            ({"op": "reweight", "v": 0, "weight": float("inf")}, "> 0"),
            ({"op": "reweight", "v": 0, "weight": float("nan")}, "> 0"),
            ({"op": "reweight", "u": 0, "v": 0, "weight": 1.0}, "unknown keys"),
            ({"op": "reweight", "weight": 1.0}, "needs keys"),
            ({"u": 0, "v": 1}, "unknown op"),
            ({"op": ["insert"], "u": 0, "v": 1}, "unknown op"),
        ],
    )
    def test_rejected_with_its_line(self, spec, match):
        lines = [json.dumps({"op": "insert", "u": 0, "v": 1}), json.dumps(spec)]
        with pytest.raises(ValueError, match=match) as info:
            load_update_stream(lines)
        assert "update stream line 2: " in str(info.value)

    def test_integral_weight_is_a_number(self):
        assert events(_decode({"op": "reweight", "v": 3, "weight": 2})) == [
            WeightChange(3, 2.0)
        ]

    def test_int64_bounds_are_accepted(self):
        cols = _decode({"op": "delete", "u": -(2**63), "v": 2**63 - 1})
        assert cols.u.tolist() == [-(2**63)] and cols.v.tolist() == [2**63 - 1]


class TestStreamIO:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        save_update_stream(columns(SAMPLE), path)
        assert events(load_update_stream(path)) == SAMPLE

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "stream.jsonl.gz"
        save_update_stream(columns(SAMPLE), path)
        # Really compressed, not just renamed.
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        assert events(load_update_stream(path)) == SAMPLE

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            "# a comment\n\n"
            + json.dumps({"op": "insert", "u": 1, "v": 2})
            + "\n\n"
        )
        assert events(load_update_stream(path)) == [EdgeInsert(1, 2)]

    def test_iterable_source(self, tmp_path):
        lines = [json.dumps(spec) for spec in _wire(SAMPLE, tmp_path)]
        assert events(load_update_stream(lines)) == SAMPLE

    def test_bad_line_names_line_number(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(
            json.dumps({"op": "insert", "u": 1, "v": 2})
            + "\n"
            + json.dumps({"op": "nope"})
            + "\n"
        )
        with pytest.raises(ValueError, match="stream.jsonl: update stream line 2"):
            load_update_stream(path)

    def test_gzip_content_loadable_by_stdlib(self, tmp_path):
        path = tmp_path / "stream.jsonl.gz"
        save_update_stream(columns(SAMPLE), path)
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows[0] == {"op": "insert", "u": 0, "v": 5}
