"""Write-ahead log: round-trips, crash injection, corruption gates."""

import zlib

import pytest

from repro.dynamic import (
    DynamicGraph,
    IncrementalCoverMaintainer,
    WALCorruptionError,
    WALError,
    WALRecord,
    WriteAheadLog,
    read_wal,
    repair_wal,
)
from repro.graphs.graph import WeightedGraph

from tests.events import EdgeDelete, EdgeInsert, WeightChange, columns

BATCH0 = [EdgeInsert(0, 1), EdgeDelete(2, 3), WeightChange(4, 2.5)]
BATCH1 = [EdgeInsert(5, 6)]


def _stamped(*batches):
    """Each batch's columns and the stamp of the state it applies to, on
    an edgeless 8-vertex graph, as ``run_stream`` commits them."""
    maintainer = IncrementalCoverMaintainer(DynamicGraph(WeightedGraph.empty(8)))
    out = []
    for batch in batches:
        out.append((columns(batch), maintainer.dyn.state_stamp()))
        maintainer.apply_batch(columns(batch))
    return out


#: The records of BATCH0 then BATCH1 committed as batches 0 and 1.
RECORDS = [
    WALRecord(i, len(cols), cols.checksum(), stamp)
    for i, (cols, stamp) in enumerate(_stamped(BATCH0, BATCH1))
]


@pytest.fixture
def wal_path(tmp_path):
    return tmp_path / "wal.jsonl"


def _write(path, *batches):
    with WriteAheadLog(path, fsync=False) as wal:
        for i, (cols, stamp) in enumerate(_stamped(*batches)):
            wal.append(i, cols, state_digest=stamp)


class TestRoundTrip:
    def test_records_round_trip(self, wal_path):
        _write(wal_path, BATCH0, BATCH1)
        records, torn = read_wal(wal_path)
        assert not torn
        assert records == RECORDS
        assert [r.size for r in records] == [3, 1]
        assert all(len(r.state_digest) == 32 for r in records)

    def test_records_hold_no_events(self, wal_path):
        _write(wal_path, BATCH0, BATCH1)
        assert all(len(line) < 256 for line in wal_path.read_bytes().splitlines())
        assert b'"op"' not in wal_path.read_bytes()

    def test_missing_file_is_empty_untorn(self, tmp_path):
        records, torn = read_wal(tmp_path / "absent.jsonl")
        assert records == [] and not torn

    def test_append_after_close_raises(self, wal_path):
        wal = WriteAheadLog(wal_path, fsync=False)
        wal.close()
        with pytest.raises(WALError, match="closed"):
            wal.append(0, columns(BATCH0), state_digest=RECORDS[0].state_digest)

    def test_state_digest_is_required(self, wal_path):
        with WriteAheadLog(wal_path, fsync=False) as wal:
            with pytest.raises(TypeError, match="state_digest"):
                wal.append(0, columns(BATCH0))
        assert wal_path.read_bytes() == b""

    def test_reopen_appends(self, wal_path):
        _write(wal_path, BATCH0)
        with WriteAheadLog(wal_path, fsync=False) as wal:
            wal.append(1, columns(BATCH1), state_digest=RECORDS[1].state_digest)
        records, torn = read_wal(wal_path)
        assert not torn and records == RECORDS

    def test_fsync_commit_path(self, wal_path):
        # Exercise the fsync branch (the default durability mode).
        with WriteAheadLog(wal_path, fsync=True) as wal:
            wal.append(0, columns(BATCH0), state_digest=RECORDS[0].state_digest)
        records, torn = read_wal(wal_path)
        assert not torn and records == RECORDS[:1]


class TestCrashInjection:
    def test_truncation_mid_record_is_a_torn_tail(self, wal_path):
        _write(wal_path, BATCH0, BATCH1)
        raw = wal_path.read_bytes()
        # Cut inside the *second* record: the first stays committed.
        first_end = raw.index(b"\n") + 1
        wal_path.write_bytes(raw[: first_end + (len(raw) - first_end) // 2])
        records, torn = read_wal(wal_path)
        assert torn
        assert records == RECORDS[:1]

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
        # Flip one digit inside the first record's size: 3 -> 9.
        pos = raw.index(b'"size":3')
        raw[pos + 7] = ord("9")
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
            wal.append(1, columns(BATCH1), state_digest=RECORDS[1].state_digest)
        records, torn = read_wal(wal_path)
        assert not torn and records == RECORDS

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


def _forge_line(body: bytes, version: int = 3) -> bytes:
    """A committed line around ``body`` with a correct CRC32."""
    return b'{"v":%d,"crc":"%08x","body":%s}\n' % (version, zlib.crc32(body), body)


class TestFormatGates:
    def test_missing_checksum_field_raises(self, wal_path):
        line = b'{"v":3,"body":{"batch_index":0,"size":0,"batch_crc":0,"state_digest":"s"}}\n'
        wal_path.write_bytes(line)
        with pytest.raises(WALCorruptionError, match="line 1: unparseable record header"):
            read_wal(wal_path)

    def test_future_record_version_rejected(self, wal_path):
        wal_path.write_bytes(
            _forge_line(b'{"batch_index":0,"size":0,"batch_crc":0,"state_digest":"s"}', 99)
        )
        with pytest.raises(WALCorruptionError, match="reads WAL format version 3 only"):
            read_wal(wal_path)

    @pytest.mark.parametrize(
        "body",
        [
            b'{"batch_index":0,"size":"3","batch_crc":1,"state_digest":"s"}',
            b'{"batch_index":0,"size":3,"batch_crc":1.5,"state_digest":"s"}',
            b'{"batch_index":0,"size":3,"batch_crc":1,"state_digest":null}',
            b'[0,3,1,"s"]',
        ],
        ids=["size-str", "crc-float", "digest-null", "not-an-object"],
    )
    def test_malformed_record_body_rejected(self, wal_path, body):
        wal_path.write_bytes(_forge_line(body))
        with pytest.raises(WALCorruptionError, match="line 1: malformed"):
            read_wal(wal_path)

    def test_record_without_state_digest_is_refused(self, wal_path):
        _write(wal_path, BATCH0)
        with open(wal_path, "ab") as fh:
            fh.write(_forge_line(b'{"batch_index":1,"size":1,"batch_crc":7}'))
        with pytest.raises(WALCorruptionError, match="line 2: malformed .*'state_digest'"):
            read_wal(wal_path)

    def test_non_increasing_indices_rejected(self, wal_path):
        _write(wal_path, BATCH0)
        _write(wal_path, BATCH1)  # batch 0 again
        with pytest.raises(WALCorruptionError, match="line 2: batch index 0 does not increase"):
            read_wal(wal_path)
