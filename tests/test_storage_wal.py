"""Unit tests for stable storage backends and the write-ahead log."""

from __future__ import annotations

import os

import pytest

from repro.engine.schema import Column, TableSchema
from repro.engine.storage import FileStableStorage, InMemoryStableStorage, TableData
from repro.engine.values import SqlType
from repro.engine.wal import LogRecord, RecordType, WriteAheadLog, decode_log, encode_record


def make_data(n: int = 2) -> TableData:
    schema = TableSchema("t", (Column("k", SqlType.INT),))
    return TableData(schema=schema, rows={i: (i,) for i in range(1, n + 1)}, next_rowid=n + 1)


@pytest.fixture(params=["memory", "file"])
def storage(request, tmp_path):
    if request.param == "memory":
        return InMemoryStableStorage()
    return FileStableStorage(str(tmp_path / "db"))


# ---------------------------------------------------------------- table files

def test_table_file_round_trip(storage):
    storage.write_table_file("t", make_data())
    loaded = storage.read_table_file("t")
    assert loaded.rows == {1: (1,), 2: (2,)}
    assert loaded.next_rowid == 3
    assert loaded.schema.name == "t"


def test_table_file_listing_and_delete(storage):
    storage.write_table_file("a", make_data())
    storage.write_table_file("b", make_data())
    assert storage.list_table_files() == ["a", "b"]
    storage.delete_table_file("a")
    assert storage.list_table_files() == ["b"]
    storage.delete_table_file("missing")  # idempotent


def test_temp_style_names_storable(storage):
    storage.write_table_file("#probe", make_data())
    assert "#probe" in storage.list_table_files()
    assert storage.read_table_file("#probe").rows


def test_table_names_map_to_distinct_files(storage):
    """The file name encodes the table name reversibly: two names the old
    escaping folded onto one file stay two tables."""
    names = ["#x", "_tmp_x", "a/b", "a%2Fb", "plain"]
    for i, name in enumerate(names, start=1):
        storage.write_table_file(name, make_data(i))
    assert storage.list_table_files() == sorted(names)
    for i, name in enumerate(names, start=1):
        assert len(storage.read_table_file(name).rows) == i


def test_file_listing_reads_no_table_file(tmp_path, monkeypatch):
    storage = FileStableStorage(str(tmp_path / "db"))
    storage.write_table_file("a", make_data())
    storage.write_table_file("#b", make_data())

    def no_reads(*_args, **_kwargs):
        raise AssertionError("listing opened a file")

    monkeypatch.setattr("builtins.open", no_reads)
    assert storage.list_table_files() == ["#b", "a"]


def test_memory_storage_deep_copies_on_write():
    storage = InMemoryStableStorage()
    data = make_data()
    storage.write_table_file("t", data)
    data.rows[99] = (99,)  # mutate the live object after the "disk write"
    assert 99 not in storage.read_table_file("t").rows


def test_memory_storage_deep_copies_on_read():
    storage = InMemoryStableStorage()
    storage.write_table_file("t", make_data())
    loaded = storage.read_table_file("t")
    loaded.rows.clear()
    assert storage.read_table_file("t").rows  # untouched


# ---------------------------------------------------------------- log

def test_log_append_returns_offsets(storage):
    first = storage.append_log(b"aaaa")
    second = storage.append_log(b"bb")
    assert first == 0 and second == 4
    assert storage.read_log() == b"aaaabb"
    assert storage.log_size() == 6


def test_log_truncate_prefix_keeps_absolute_offsets(storage):
    storage.append_log(b"aaaa")
    storage.append_log(b"bbbb")
    storage.truncate_log_prefix(4)
    assert storage.read_log() == b"bbbb"
    assert storage.log_size() == 8  # absolute
    assert storage.append_log(b"cc") == 8


def test_log_truncate_noop_for_past_offsets(storage):
    storage.append_log(b"abcd")
    storage.truncate_log_prefix(0)
    assert storage.read_log() == b"abcd"


def test_log_truncate_suffix_then_append(storage):
    storage.append_log(b"aaaa")
    storage.append_log(b"bbbb")
    storage.truncate_log_prefix(4)
    storage.truncate_log_suffix(6)
    assert storage.read_log() == b"bb"
    assert storage.log_size() == 6
    assert storage.append_log(b"cc") == 6
    storage.truncate_log_suffix(2)  # below the base: everything retained goes
    assert (storage.log_base, storage.read_log(), storage.log_size()) == (4, b"", 4)


def test_file_log_base_and_length_survive_reopen(tmp_path):
    path = str(tmp_path / "db")
    first = FileStableStorage(path)
    first.append_log(b"aaaabbbb")
    first.truncate_log_prefix(4)
    first.append_log(b"cc")
    second = FileStableStorage(path)
    assert (second.log_base, second.read_log(), second.log_size()) == (4, b"bbbbcc", 10)
    assert second.append_log(b"dd") == 10


def test_file_log_prefix_truncation_is_one_atomic_step(tmp_path, monkeypatch):
    """Die before any rename the truncation makes: a new process finds the
    log either untouched or truncated, never new bytes under the old base."""
    replace = os.replace
    for dying in (1, 2, 3):
        path = str(tmp_path / f"db{dying}")
        storage = FileStableStorage(path)
        storage.append_log(b"aaaabbbb")
        calls = []

        def dying_replace(src, dst):
            calls.append(dst)
            if len(calls) == dying:
                raise OSError("killed")
            replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", dying_replace)
            try:
                storage.truncate_log_prefix(4)
            except OSError:
                pass
        reopened = FileStableStorage(path)
        assert (reopened.log_base, reopened.read_log()) in ((0, b"aaaabbbb"), (4, b"bbbb"))
        assert reopened.log_size() == 8
    assert len(calls) == 1  # the last round killed nothing: one rename is all there is


# ---------------------------------------------------------------- the archive

ROWS = [(0, 4, 1.5), (4, 8, 2.5)]


def test_archive_round_trip_below_the_log_base(storage):
    storage.append_log(b"aaaabbbbcc")
    storage.append_archive(0, 8, ROWS, b"aaaabbbb")
    # nothing is trusted until the live log no longer holds it
    assert storage.archive_rows() == [] and storage.archive_segments() == []
    storage.truncate_log_prefix(8)
    assert storage.archive_rows() == ROWS
    assert storage.archive_segments() == [(0, 8, b"aaaabbbb")]


def test_archive_reads_stop_at_the_log_base(storage):
    """A checkpoint died between archiving [0, 8) and truncating; the live
    log was then truncated only to 4: the archive answers for [0, 4)."""
    storage.append_log(b"aaaabbbbcc")
    storage.append_archive(0, 8, ROWS, b"aaaabbbb")
    storage.truncate_log_prefix(4)
    assert storage.archive_rows() == ROWS[:1]
    assert storage.archive_segments() == [(0, 4, b"aaaa")]


def test_archive_chunk_replaces_what_it_overlaps(storage):
    storage.append_log(b"aaaabbbbccccdd")
    storage.append_archive(0, 8, ROWS, b"aaaabbbb")
    # the same prefix again, longer (the repeated step of a checkpoint)
    storage.append_archive(0, 12, ROWS + [(8, 12, 3.5)], b"aaaabbbbcccc")
    storage.truncate_log_prefix(12)
    assert storage.archive_rows() == ROWS + [(8, 12, 3.5)]
    assert storage.archive_segments() == [(0, 12, b"aaaabbbbcccc")]
    # a chunk starting inside another keeps the part below its start
    storage.append_archive(4, 8, [(4, 8, 9.5)], b"BBBB")
    assert storage.archive_rows() == [(0, 4, 1.5), (4, 8, 9.5)]
    assert storage.archive_segments() == [(0, 4, b"aaaa"), (4, 8, b"BBBB")]


def test_archive_truncate_and_gap(storage):
    storage.append_log(b"aaaabbbbccccdddd")
    storage.append_archive(0, 12, ROWS + [(8, 12, 3.5)], b"aaaabbbbcccc")
    storage.truncate_log_prefix(12)
    storage.truncate_archive(8)  # restore_to a cut below the log base
    storage.truncate_archive(10)  # nothing there any more: no-op
    assert storage.archive_rows() == ROWS
    storage.append_log(b"eeee")
    storage.append_archive(12, 20, [(16, 20, 4.5)], b"ddddeeee")
    storage.truncate_log_prefix(20)
    assert storage.archive_rows() == ROWS + [(16, 20, 4.5)]
    assert storage.archive_segments() == [(0, 8, b"aaaabbbb"), (12, 20, b"ddddeeee")]
    storage.truncate_archive(0)
    assert storage.archive_rows() == [] and storage.archive_segments() == []


def test_file_archive_survives_reopen_and_ignores_a_torn_chunk(tmp_path):
    path = str(tmp_path / "db")
    first = FileStableStorage(path)
    first.append_log(b"aaaabbbbcccc")
    first.append_archive(0, 8, ROWS, b"aaaabbbb")
    first.append_archive(0, 12, ROWS + [(8, 12, 3.5)], b"aaaabbbbcccc")
    first.truncate_archive(8)
    first.truncate_log_prefix(12)
    intact = os.path.getsize(first._archive_path)
    first.append_archive(8, 12, [(8, 12, 3.5)], b"cccc")
    with open(first._archive_path, "r+b") as handle:
        handle.truncate(os.path.getsize(first._archive_path) - 3)  # the device tore it
    second = FileStableStorage(path)
    assert second.archive_rows() == ROWS
    assert second.archive_segments() == [(0, 8, b"aaaabbbb")]
    assert os.path.getsize(second._archive_path) == intact
    second.append_archive(8, 12, [(8, 12, 3.5)], b"cccc")
    assert FileStableStorage(path).archive_rows() == ROWS + [(8, 12, 3.5)]


# ---------------------------------------------------------------- meta

def test_meta_round_trip(storage):
    storage.write_meta("checkpoint_lsn", 123)
    assert storage.read_meta("checkpoint_lsn") == 123
    assert storage.read_meta("missing", "default") == "default"


def test_meta_overwrite(storage):
    storage.write_meta("k", 1)
    storage.write_meta("k", 2)
    assert storage.read_meta("k") == 2


def test_file_storage_survives_reopen(tmp_path):
    path = str(tmp_path / "db")
    first = FileStableStorage(path)
    first.write_table_file("t", make_data())
    first.append_log(b"log!")
    first.write_meta("m", {"x": 1})
    second = FileStableStorage(path)  # a new "process"
    assert second.list_table_files() == ["t"]
    assert second.read_log() == b"log!"
    assert second.read_meta("m") == {"x": 1}


# ---------------------------------------------------------------- WAL records

def record(i: int) -> LogRecord:
    return LogRecord(RecordType.INSERT, txn_id=i, table="t", rowid=i, after=(i,))


def test_encode_decode_round_trip():
    raw = encode_record(record(1)) + encode_record(record(2))
    decoded = decode_log(raw)
    assert [r.rowid for r in decoded] == [1, 2]
    assert decoded[0].lsn == 0
    assert decoded[1].lsn == len(encode_record(record(1)))


def test_decode_stops_at_torn_tail():
    raw = encode_record(record(1)) + encode_record(record(2))[:-3]
    decoded = decode_log(raw)
    assert len(decoded) == 1


def test_decode_stops_at_corrupt_crc():
    raw = bytearray(encode_record(record(1)))
    raw[-1] ^= 0xFF  # flip a payload byte
    assert decode_log(bytes(raw)) == []


def test_decode_respects_base_offset():
    raw = encode_record(record(1))
    decoded = decode_log(raw, base_offset=100)
    assert decoded[0].lsn == 100


def test_wal_buffers_until_force():
    storage = InMemoryStableStorage()
    wal = WriteAheadLog(storage)
    wal.append(record(1))
    assert storage.read_log() == b""  # nothing durable yet
    assert wal.pending_count() == 1
    wal.force()
    assert wal.pending_count() == 0
    assert len(wal.read_all()) == 1


def test_wal_lsn_assigned_at_append_and_correct_after_force():
    storage = InMemoryStableStorage()
    wal = WriteAheadLog(storage)
    lsn1 = wal.append(record(1))
    lsn2 = wal.append(record(2))
    assert lsn1 == 0 and lsn2 > 0
    wal.force()
    durable = wal.read_all()
    assert [r.lsn for r in durable] == [lsn1, lsn2]


def test_wal_append_forced_is_one_storage_append():
    storage = InMemoryStableStorage()
    wal = WriteAheadLog(storage)
    wal.append(record(1))  # pending
    before = storage.log_appends
    lsns = wal.append_forced([record(2), record(3)])
    assert storage.log_appends == before + 1  # single atomic append
    assert len(lsns) == 2
    assert len(wal.read_all()) == 3


def test_wal_force_without_pending_is_cheap():
    storage = InMemoryStableStorage()
    wal = WriteAheadLog(storage)
    before = storage.log_appends
    wal.force()
    assert storage.log_appends == before


def test_crash_loses_unforced_tail():
    """The volatile-buffer semantics recovery depends on."""
    storage = InMemoryStableStorage()
    wal = WriteAheadLog(storage)
    wal.append(record(1))
    wal.force()
    wal.append(record(2))  # never forced
    # "crash": a new WAL over the same storage sees only the durable prefix
    recovered = WriteAheadLog(storage).read_all()
    assert [r.rowid for r in recovered] == [1]


# ------------------------------------------------------- scan_log / torn tails

def test_scan_log_returns_end_of_intact_prefix():
    from repro.engine.wal import scan_log

    a, b = encode_record(record(1)), encode_record(record(2))
    records, good_end = scan_log(a + b)
    assert len(records) == 2 and good_end == len(a) + len(b)
    records, good_end = scan_log(a + b[:-3])
    assert len(records) == 1 and good_end == len(a)
    records, good_end = scan_log(a + b[:-3], base_offset=50)
    assert good_end == 50 + len(a)


def test_truncate_log_suffix_drops_torn_tail(storage):
    a, b = encode_record(record(1)), encode_record(record(2))
    storage.append_log(a)
    storage.append_log(b[:-3])  # torn write
    storage.truncate_log_suffix(len(a))
    assert storage.read_log() == a
    # appends after truncation land at the truncated offset
    offset = storage.append_log(b)
    assert offset == len(a)
    assert decode_log(storage.read_log())[1].rowid == 2


def test_truncate_log_suffix_noop_past_end(storage):
    a = encode_record(record(1))
    storage.append_log(a)
    storage.truncate_log_suffix(len(a) + 100)
    assert storage.read_log() == a


def test_inject_append_fault_torn(storage):
    from repro.engine.storage import StorageFault

    a = encode_record(record(1))
    storage.inject_append_fault("torn", torn_bytes=3)
    with pytest.raises(StorageFault):
        storage.append_log(a)
    assert storage.read_log() == a[:-3]  # a real torn prefix hit the device
    # the fault is one-shot: the next append is clean
    storage.truncate_log_suffix(0)
    storage.append_log(a)
    assert storage.read_log() == a


def test_inject_append_fault_fail_writes_nothing(storage):
    from repro.engine.storage import StorageFault

    storage.inject_append_fault("fail")
    with pytest.raises(StorageFault):
        storage.append_log(encode_record(record(1)))
    assert storage.read_log() == b""


def test_inject_append_fault_rejects_unknown_mode(storage):
    with pytest.raises(ValueError):
        storage.inject_append_fault("sparks")


def test_clear_append_fault_disarms(storage):
    storage.inject_append_fault("fail")
    storage.clear_append_fault()
    storage.append_log(encode_record(record(1)))
    assert len(decode_log(storage.read_log())) == 1


def test_restart_recovery_truncates_torn_tail(storage):
    """End to end: a torn append downs the server; restart recovery must
    truncate the tail so post-restart commits stay readable."""
    from repro.engine import DatabaseServer
    from repro.engine.storage import StorageFault

    server = DatabaseServer(storage)
    sid = server.connect()
    server.execute(sid, "CREATE TABLE t (k INT)")
    server.execute(sid, "INSERT INTO t VALUES (1)")
    storage.inject_append_fault("torn")
    with pytest.raises(StorageFault):
        server.execute(sid, "INSERT INTO t VALUES (2)")
    server.crash()
    report = server.restart()
    assert report.torn_tail_bytes > 0
    sid = server.connect()
    server.execute(sid, "INSERT INTO t VALUES (3)")
    server.crash()
    server.restart()
    sid = server.connect()
    result = server.execute(sid, "SELECT k FROM t ORDER BY k")
    assert result.result_set.rows == [(1,), (3,)]
