"""Write-ahead log: round-trips, crash injection, corruption gates."""

import zlib

import pytest

from repro.dynamic import (
    WALCorruptionError,
    WALError,
    WriteAheadLog,
    read_wal,
    repair_wal,
)

from tests.events import EdgeDelete, EdgeInsert, WeightChange, columns, events

BATCH0 = [EdgeInsert(0, 1), EdgeDelete(2, 3), WeightChange(4, 2.5)]
BATCH1 = [EdgeInsert(5, 6)]


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "wal.jsonl"


def _write(path, *batches, digests=None):
    with WriteAheadLog(path, fsync=False) as wal:
        for i, batch in enumerate(batches):
            wal.append(
                i,
                columns(batch),
                state_digest=(digests or {}).get(i, ""),
            )


class TestRoundTrip:
    def test_records_round_trip(self, wal_path):
        _write(wal_path, BATCH0, BATCH1)
        records, torn = read_wal(wal_path)
        assert not torn
        assert [r.batch_index for r in records] == [0, 1]
        assert events(records[0].updates) == BATCH0
        assert events(records[1].updates) == BATCH1

    def test_state_digest_round_trips(self, wal_path):
        _write(wal_path, BATCH0, digests={0: "feedface"})
        records, _ = read_wal(wal_path)
        assert records[0].state_digest == "feedface"

    def test_missing_file_is_empty_untorn(self, tmp_path):
        records, torn = read_wal(tmp_path / "absent.jsonl")
        assert records == [] and not torn

    def test_append_after_close_raises(self, wal_path):
        wal = WriteAheadLog(wal_path, fsync=False)
        wal.close()
        with pytest.raises(WALError, match="closed"):
            wal.append(0, columns(BATCH0))

    def test_reopen_appends(self, wal_path):
        _write(wal_path, BATCH0)
        with WriteAheadLog(wal_path, fsync=False) as wal:
            wal.append(1, columns(BATCH1))
        records, torn = read_wal(wal_path)
        assert not torn and [r.batch_index for r in records] == [0, 1]

    def test_fsync_commit_path(self, wal_path):
        # Exercise the fsync branch (the default durability mode).
        with WriteAheadLog(wal_path, fsync=True) as wal:
            wal.append(0, columns(BATCH0))
        records, torn = read_wal(wal_path)
        assert not torn and len(records) == 1


class TestCrashInjection:
    def test_truncation_mid_record_is_a_torn_tail(self, wal_path):
        _write(wal_path, BATCH0, BATCH1)
        raw = wal_path.read_bytes()
        # Cut inside the *second* record: the first stays committed.
        first_end = raw.index(b"\n") + 1
        wal_path.write_bytes(raw[: first_end + (len(raw) - first_end) // 2])
        records, torn = read_wal(wal_path)
        assert torn
        assert [r.batch_index for r in records] == [0]
        assert events(records[0].updates) == BATCH0

    def test_partial_json_tail_is_torn(self, wal_path):
        _write(wal_path, BATCH0)
        with open(wal_path, "ab") as fh:
            fh.write(b'{"v": 1, "batch_ind')
        records, torn = read_wal(wal_path)
        assert torn and len(records) == 1

    def test_unterminated_but_parseable_tail_is_still_torn(self, wal_path):
        # A record missing only its newline was never committed — even if
        # the bytes happen to parse, it must be dropped, not trusted.
        _write(wal_path, BATCH0, BATCH1)
        raw = wal_path.read_bytes()
        wal_path.write_bytes(raw.rstrip(b"\n"))
        records, torn = read_wal(wal_path)
        assert torn and [r.batch_index for r in records] == [0]

    def test_checksum_flip_raises(self, wal_path):
        _write(wal_path, BATCH0, BATCH1)
        raw = bytearray(wal_path.read_bytes())
        # Flip one digit inside the first record's "u" column: 0 -> 9.
        pos = raw.index(b'"u":[0')
        raw[pos + 5] = ord("9")
        wal_path.write_bytes(bytes(raw))
        with pytest.raises(WALCorruptionError, match="checksum mismatch"):
            read_wal(wal_path)

    def test_garbage_committed_line_raises(self, wal_path):
        _write(wal_path, BATCH0)
        with open(wal_path, "ab") as fh:
            fh.write(b"not json at all\n")
        with pytest.raises(WALCorruptionError, match="unparseable"):
            read_wal(wal_path)

    def test_repair_truncates_torn_tail(self, wal_path):
        _write(wal_path, BATCH0)
        with open(wal_path, "ab") as fh:
            fh.write(b'{"v": 1, "torn')
        assert repair_wal(wal_path)
        records, torn = read_wal(wal_path)
        assert not torn and len(records) == 1
        # Appending after repair yields a clean two-record log.
        with WriteAheadLog(wal_path, fsync=False) as wal:
            wal.append(1, columns(BATCH1))
        records, torn = read_wal(wal_path)
        assert not torn and [r.batch_index for r in records] == [0, 1]

    def test_repair_is_a_noop_on_clean_or_missing_logs(self, wal_path, tmp_path):
        _write(wal_path, BATCH0)
        before = wal_path.read_bytes()
        assert not repair_wal(wal_path)
        assert wal_path.read_bytes() == before
        assert not repair_wal(tmp_path / "absent.jsonl")

    def test_repair_of_torn_only_log_empties_it(self, wal_path):
        wal_path.write_bytes(b'{"v": 1, "never finished')
        assert repair_wal(wal_path)
        assert wal_path.read_bytes() == b""
        assert read_wal(wal_path) == ([], False)


def _forge_line(body: bytes, version: int = 2) -> bytes:
    """A committed line around ``body`` with a correct CRC32."""
    return b'{"v":%d,"crc":"%08x","body":%s}\n' % (version, zlib.crc32(body), body)


class TestFormatGates:
    def test_missing_checksum_field_raises(self, wal_path):
        line = b'{"v":2,"body":{"batch_index":0,"op":"","u":[],"v":[],"w":[]}}\n'
        wal_path.write_bytes(line)
        with pytest.raises(WALCorruptionError, match="line 1: unparseable record header"):
            read_wal(wal_path)

    def test_future_record_version_rejected(self, wal_path):
        wal_path.write_bytes(
            _forge_line(b'{"batch_index":0,"op":"","u":[],"v":[],"w":[]}', 99)
        )
        with pytest.raises(WALCorruptionError, match="reads WAL format version 2 only"):
            read_wal(wal_path)

    def test_malformed_update_body_rejected(self, wal_path):
        wal_path.write_bytes(
            _forge_line(b'{"batch_index":0,"op":"r","u":[0],"v":[1],"w":[]}')
        )
        with pytest.raises(WALCorruptionError, match="malformed"):
            read_wal(wal_path)

    def test_non_increasing_indices_rejected(self, wal_path):
        with WriteAheadLog(wal_path, fsync=False) as wal:
            wal.append(1, columns(BATCH0))
            wal.append(1, columns(BATCH1))
        with pytest.raises(WALCorruptionError, match="does not increase"):
            read_wal(wal_path)
