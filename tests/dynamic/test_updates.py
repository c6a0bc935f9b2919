"""Tests for update events and the JSON-lines stream format."""

import gzip
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.graphs.updates as updates_module
from repro.graphs.updates import (
    UpdateColumns,
    decode_update,
    load_update_stream,
    save_update_stream,
)
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


# --- The chunked decode against the per-line decode --------------------------


def _utf8(line: bytes) -> bool:
    try:
        line.decode()
    except UnicodeDecodeError:
        return False
    return True


def _parses(line: bytes) -> bool:
    return _utf8(line) and _is_json(line.decode())


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


_VALID = st.one_of(
    st.fixed_dictionaries(
        {"op": st.sampled_from(["insert", "delete"]), "u": st.integers(-9, 99),
         "v": st.integers(-(2**63), 2**63 - 1)}
    ),
    st.fixed_dictionaries(
        {"op": st.just("reweight"), "v": st.integers(0, 99),
         "weight": st.one_of(
             st.floats(min_value=1e-300, max_value=1e300), st.integers(1, 10**30)
         )}
    ),
)

#: Lines the per-line decode refuses or treats specially, several of which
#: a naive bulk parse would get wrong.
_MUTATIONS = [
    # A string swallowing the separator plus a repeated key, then two
    # objects on one line: joined by commas these parse as three records.
    [b'{"op":"insert","u":1,"v":"', b'", "v": 2}',
     b'{"op":"insert","u":3,"v":4}, {"op":"delete","u":3,"v":4}'],
    [b'{"op":"insert","u":1,"v":"', b'", "v": 2}'],
    [b'{"op":"insert","u":3,"v":4} {"op":"delete","u":3,"v":4}'],
    # Brackets inside a line, with a separator swallowed further on.
    [b'{"op":"insert","u":1,"v":2}],[{"op":"insert","u":3,"v":4}',
     b'{"op":"delete","u":5,"v":"', b'", "v": 6}'],
    [b'[{"op":"insert","u":3,"v":4}]'],
    [b'{"op":"insert","u":[3],"v":4}'],
    [b'{"op":"insert","u":3,"v":4,"note":"]"}'],
    [b'# a [bracketed] comment'],
    [b'{"op":"reweight","v":1,"weight":NaN}'],
    [b'{"op":"reweight","v":1,"weight":Infinity}'],
    [b'{"op":"reweight","v":1,"weight":-Infinity}'],
    [b'{"op":"reweight","v":1,"weight":1e400}'],
    [b'{"op":"reweight","v":1,"weight":' + str(10**400).encode() + b"}"],
    [b'{"op":"reweight","v":1,"weight":0}'],
    [b'{"op":"reweight","v":1,"weight":true}'],
    [b'{"op":"reweight","v":1,"size":2.0}'],
    [b'{"op":"reweight","v":1,"weight":2.0,"u":0}'],
    [b'{"op":"reweight","v":1}'],
    [b'{"op":"insert","u":%d,"v":4}' % 2**63],
    [b'{"op":"insert","u":%d,"v":4}' % (-(2**63) - 1)],
    [b'{"op":"insert","u":true,"v":4}'],
    [b'{"op":"delete","u":1.0,"v":4}'],
    [b'{"op":"insert","u":1,"weight":4}'],
    [b'{"op":"insert","v":4,"x":1}'],
    [b'{"op":"reweight","u":0,"v":1}'],
    [b'{"op":"insert","u":1,"v":4,"v":5}'],
    [b'{"op":"insert","v":1,"u":4}'],
    [b'{"op":"Insert","u":1,"v":4}'],
    [b'{"u":1,"v":4}'],
    [b'{"op":null,"u":1,"v":4}'],
    [b'{"op":{},"u":1,"v":4}'],
    [b'7'],
    [b'"insert"'],
    [b'{"op":"insert","u":1,"v":4}\r'],
    [b'{"op":"insert",\r"u":1,"v":4}'],
    # Line breaks to ``str.splitlines`` but not to the per-line decode.
    *(
        [b'{"op":"insert","u":1,"v":2}' + sep.encode() + b'{"op":"insert","u":3,"v":4}']
        for sep in ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
    ),
    [b'\xef\xbb\xbf{"op":"insert","u":1,"v":4}'],
    ['{"op":"insert", "u":1,"v":4}'.encode()],
    [' {"op":"insert","u":1,"v":4}\x85'.encode()],
    [b'\x0b{"op":"insert","u":1,"v":4}\x0c'],
    [b'{"op":"insert",\x0b"u":1,"v":4}'],
    ['{"op":"insert",\u2028"u":1,"v":4}'.encode()],
    [b'\xff\xfe'],
    [b"# a comment"],
    [b"   #"],
    [b""],
    [b" \t "],
]

#: The mutations that parse, as records.
_RECORDS = [
    json.loads(group[0]) for group in _MUTATIONS if len(group) == 1 and _parses(group[0])
]

_VALID_LINES = st.lists(
    st.one_of(
        _VALID.map(json.dumps),
        _VALID.map(lambda spec: json.dumps(spec, separators=(",", ":"))),
    ).map(str.encode),
    max_size=40,
)


@st.composite
def _streams(draw):
    """Valid lines with up to two mutation groups spliced in."""
    lines = draw(_VALID_LINES)
    for group in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2)):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = group
    return lines


_STREAMS = _streams()


def _per_line(data: bytes, where: str = "") -> UpdateColumns:
    """The reference: ``decode_update`` on each line, errors named by line."""
    rows = []
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode().strip()
            if line and not line.startswith("#"):
                rows.append(decode_update(json.loads(line)))
        except ValueError as exc:
            raise ValueError(f"{where}update stream line {lineno}: {exc}") from exc
    return UpdateColumns.from_rows(rows)


def _arrays(cols: UpdateColumns):
    return [(a.dtype.str, a.tobytes()) for a in (cols.op, cols.u, cols.v, cols.w)]


def _outcome(load, *args):
    """``load(*args)``'s columns, or the text of its ``ValueError``."""
    try:
        return _arrays(load(*args))
    except ValueError as exc:
        return str(exc)


class TestChunkedDecodeMatchesPerLine:
    """Whatever the input, the chunked loader gives the per-line decode's
    columns (dtype and values) or raises its ``ValueError`` text."""

    @settings(max_examples=300, deadline=None)
    @given(
        lines=_STREAMS,
        newline=st.sampled_from([b"\n", b"\r\n"]),
        trailing=st.booleans(),
        chunk=st.sampled_from([1, 2, 5, 1 << 10]),
    )
    def test_byte_sources(self, tmp_path_factory, lines, newline, trailing, chunk):
        data = newline.join(lines) + (newline if trailing else b"")
        plain = tmp_path_factory.getbasetemp() / "chunked.jsonl"
        gz = tmp_path_factory.getbasetemp() / "chunked.jsonl.gz"
        plain.write_bytes(data)
        gz.write_bytes(gzip.compress(data))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(updates_module, "_CHUNK_LINES", chunk)
            for source, where in [
                (io.BytesIO(data), ""), (plain, f"{plain}: "), (gz, f"{gz}: ")
            ]:
                expected = _outcome(_per_line, data, where)
                assert _outcome(load_update_stream, source) == expected

    @pytest.mark.parametrize("group", _MUTATIONS)
    def test_each_mutation_among_valid_lines(self, group):
        valid = [b'{"op": "insert", "u": %d, "v": %d}' % (i, i + 1) for i in range(4)]
        data = b"\n".join(valid[:2] + group + valid[2:])
        assert _outcome(load_update_stream, io.BytesIO(data)) == _outcome(_per_line, data)

    @settings(max_examples=150, deadline=None)
    @given(lines=_STREAMS, chunk=st.sampled_from([3, 1 << 10]))
    def test_line_iterables(self, lines, chunk):
        assume(all(map(_utf8, lines)))
        text = [line.decode() for line in lines]
        expected = _outcome(_per_line, b"\n".join(lines))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(updates_module, "_CHUNK_LINES", chunk)
            assert _outcome(load_update_stream, text) == expected
            assert _outcome(load_update_stream, io.StringIO("\n".join(text))) == expected

    def test_a_given_line_is_one_line(self):
        """An iterable's lines keep their own boundaries: one holding a
        newline is still one line, as the per-line decode reads it."""
        two = '{"op":"insert","u":1,"v":2}\n{"op":"insert","u":3,"v":4}'
        with pytest.raises(ValueError, match="^update stream line 1: Extra data"):
            load_update_stream([two])
        spread = '{"op": "insert",\n "u": 1, "v": 2}'
        assert load_update_stream([spread]).u.tolist() == [1]

    @settings(max_examples=300, deadline=None)
    @given(specs=st.lists(st.one_of(_VALID, st.sampled_from(_RECORDS)), max_size=30))
    def test_record_lists(self, specs):
        """The bulk record decode gives exactly ``decode_update``'s rows,
        and ``None`` where it refuses one."""
        try:
            expected = _arrays(UpdateColumns.from_rows(map(decode_update, specs)))
        except ValueError:
            expected = None
        got = updates_module._records_columns(specs)
        assert (got if got is None else _arrays(got)) == expected

