"""Unit tests for stable storage backends and the write-ahead log."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.engine.schema import Column, TableSchema
from repro.engine.storage import FileStableStorage, InMemoryStableStorage, TableData
from repro.engine.values import SqlType
from repro.engine.wal import (
    LogRecord,
    RecordType,
    WriteAheadLog,
    decode_log,
    encode_record,
    inverse,
    scan_log,
)


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


def test_read_log_from_an_offset(storage):
    storage.append_log(b"aaaa")
    storage.append_log(b"bbcc")
    assert storage.read_log(4) == b"bbcc"
    assert storage.read_log(6) == b"cc"
    assert storage.read_log(8) == b""
    assert storage.read_log(0) == storage.read_log() == b"aaaabbcc"


def test_log_truncate_suffix_then_append(storage):
    storage.append_log(b"aaaa")
    storage.append_log(b"bbbb")
    storage.truncate_log_suffix(6)
    assert storage.read_log() == b"aaaabb"
    assert storage.log_size() == 6
    assert storage.append_log(b"cc") == 6
    storage.truncate_log_suffix(0)
    assert (storage.read_log(), storage.log_size()) == (b"", 0)


def test_file_log_length_survives_reopen(tmp_path):
    path = str(tmp_path / "db")
    first = FileStableStorage(path)
    first.append_log(b"aaaabbbb")
    first.truncate_log_suffix(4)
    first.append_log(b"cc")
    second = FileStableStorage(path)
    assert (second.read_log(), second.read_log(4), second.log_size()) == (b"aaaacc", b"cc", 6)
    assert second.append_log(b"dd") == 6


def test_file_log_of_another_layout_is_refused(tmp_path):
    """A ``wal.log`` that does not start with this layout's magic is not
    read as log bytes: the first layout carried a base LSN after a magic of
    its own (a scan would take it for a torn tail and cut it), the second
    pickled whole ``LogRecord`` objects (a scan would misread every frame)."""
    from repro.engine.storage import StorageFault

    old_frame = b"\x05\x00\x00\x00" + bytes(4) + b"stale"
    for number, old_log in enumerate([b"WAL1" + bytes(8), b"WAL2" + old_frame]):
        path = tmp_path / f"db{number}"
        path.mkdir()
        (path / "wal.log").write_bytes(old_log)
        with pytest.raises(StorageFault, match="not a log file"):
            FileStableStorage(str(path))


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


def _codec_cases() -> list[LogRecord]:
    """One record of every kind, the inverse of every data and DDL kind,
    and the field values a positional payload could confuse."""
    schema = TableSchema(
        "acct", (Column("k", SqlType.INT, not_null=True), Column("pad", SqlType.VARCHAR, 40)),
        primary_key=("k",),
    )
    row, new_row = (7, "p" * 40), (7, "q" * 40)
    index_sql = "CREATE INDEX acct_pad ON acct (pad)"
    data_and_ddl = [
        LogRecord(RecordType.INSERT, txn_id=3, table="acct", rowid=7, after=row),
        LogRecord(RecordType.DELETE, txn_id=3, table="acct", rowid=7, before=row),
        LogRecord(RecordType.UPDATE, txn_id=3, table="acct", rowid=7, before=row, after=new_row),
        LogRecord(RecordType.CREATE_TABLE, txn_id=3, schema=schema),
        LogRecord(RecordType.DROP_TABLE, txn_id=3, schema=schema, dropped_rows={7: row}, next_rowid=8),
        LogRecord(RecordType.DROP_TABLE, txn_id=3, schema=schema, dropped_rows={}, next_rowid=1),
        LogRecord(RecordType.CREATE_PROC, txn_id=3, proc_name="p", proc_sql="CREATE PROCEDURE p AS SELECT 1"),
        LogRecord(RecordType.DROP_PROC, txn_id=3, proc_name="p", proc_sql="CREATE PROCEDURE p AS SELECT 1"),
        LogRecord(RecordType.CREATE_VIEW, txn_id=3, proc_name="v", proc_sql="CREATE VIEW v AS SELECT 1"),
        LogRecord(RecordType.DROP_VIEW, txn_id=3, proc_name="v", proc_sql="CREATE VIEW v AS SELECT 1"),
        LogRecord(RecordType.CREATE_INDEX, txn_id=3, proc_name="acct_pad", proc_sql=index_sql),
        LogRecord(RecordType.DROP_INDEX, txn_id=3, proc_name="acct_pad", proc_sql=index_sql),
    ]
    return [
        LogRecord(RecordType.BEGIN, txn_id=3),
        LogRecord(RecordType.COMMIT, txn_id=3, commit_ts=1.7e9),
        LogRecord(RecordType.ABORT, txn_id=3),
        LogRecord(RecordType.CHECKPOINT),
        LogRecord(RecordType.CHECKPOINT, active_txns=(3, 300, 70000)),
        *data_and_ddl,
        *(inverse(r) for r in data_and_ddl),
    ]


def test_every_record_round_trips_field_equal():
    cases = _codec_cases()
    assert {r.type for r in cases} == set(RecordType)
    # the CLR that undoes a CREATE TABLE carries an empty dict of rows
    # where the CREATE itself carries None: both must come back as they went
    assert any(r.dropped_rows == {} and r.is_clr for r in cases)
    assert any(r.schema is not None and r.dropped_rows is None for r in cases)
    frames = [encode_record(r) for r in cases]
    decoded, good_end = scan_log(b"".join(frames), base_offset=40)
    assert decoded == cases
    assert good_end == 40 + sum(map(len, frames))
    offsets = [40 + sum(map(len, frames[:i])) for i in range(len(frames))]
    assert [r.lsn for r in decoded] == offsets


def test_a_frame_holds_values_not_names():
    """The payload is positional: no class path and no field name.  (A
    DDL record's schema pickles as itself, so the names its own pickle
    spells — its module path ``...schema``, a column's ``type`` — are
    not held against the frame.)"""
    names = [f.name for f in dataclasses.fields(LogRecord)]
    for record in _codec_cases():
        frame = encode_record(record)
        schema_pickle = pickle.dumps(record.schema, protocol=pickle.HIGHEST_PROTOCOL)
        for word in ["LogRecord", "RecordType", *names]:
            if word.encode() not in schema_pickle:
                assert word.encode() not in frame, (record.type, word)


def test_frame_sizes_per_kind():
    txn_id = 70000  # past a two-byte pickled int
    begin = LogRecord(RecordType.BEGIN, txn_id=txn_id)
    commit = LogRecord(RecordType.COMMIT, txn_id=txn_id, commit_ts=1.7e9)
    # a 40-character row of the shape oltp_point updates: the pad is
    # unchanged, so both images share it
    before = (4021, 17, f"pad-{4021:036d}")
    update = LogRecord(
        RecordType.UPDATE, txn_id=txn_id, table="acct", rowid=4022,
        before=before, after=(4021, 18, before[2]),
    )
    assert len(encode_record(begin)) <= 32
    assert len(encode_record(commit)) <= 48
    assert len(encode_record(update)) <= 110


def test_restamping_a_commit_never_changes_its_frame_length():
    """The flush re-stamps each buffered COMMIT with the force instant
    after its LSN and the LSNs after it were handed out, so the stamp may
    not change the frame's length: whatever the stamp, the frame is as long."""
    stamps = [0.0, 1e-6, 1.7e9, 1e15]
    lengths = {
        len(encode_record(LogRecord(RecordType.COMMIT, txn_id=70000, commit_ts=ts)))
        for ts in stamps
    }
    assert len(lengths) == 1

    class Clock:
        def __init__(self):
            self.stamps = iter(stamps)

        def now(self):
            return next(self.stamps)

    storage = InMemoryStableStorage()
    wal = WriteAheadLog(storage)
    wal.clock = Clock()
    for _ in range(2):  # provisional 0.0 then 1e-6, then 1.7e9 then 1e15
        commit_lsn = wal.append(LogRecord(RecordType.COMMIT, txn_id=70000))
        next_lsn = wal.append(record(1))
        wal.force()
        durable = decode_log(storage.read_log())
        assert [r.lsn for r in durable[-2:]] == [commit_lsn, next_lsn]
        assert durable[-1] == record(1)
    assert [r.commit_ts for r in durable if r.type is RecordType.COMMIT] == [1e-6, 1e15]


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
    assert result.rows == [(1,), (3,)]


def test_the_log_refuses_writes_after_a_device_fault(storage):
    """Fail-stop: after one failed device append the log accepts nothing —
    no buffered record, no force, no atomic batch — and reports the fault
    to its ``on_fault`` hook exactly once."""
    from repro.engine.storage import StorageFault

    wal = WriteAheadLog(storage)
    faults = []
    wal.on_fault = lambda: faults.append(True)
    wal.append(record(1))
    storage.inject_append_fault("torn")
    with pytest.raises(StorageFault):
        wal.force()
    size = storage.log_size()
    for write in (lambda: wal.append(record(2)), wal.force, lambda: wal.append_forced([record(3)])):
        with pytest.raises(StorageFault):
            write()
    assert storage.log_size() == size and faults == [True]


# ------------------------------------------------------------ fail-stop engine


@pytest.mark.parametrize("transport", ["inprocess", "tcp"])
@pytest.mark.parametrize("mode", ["torn", "fail"])
def test_no_commit_is_acknowledged_after_a_failed_log_write(mode, transport):
    """Session A's commit meets a device fault; session B's INSERT, sent the
    moment the fault happens, must not be acknowledged: the server crashes
    inside the engine-mutex hold that met the fault, so no commit lands
    after a torn frame (restart's scan would cut it).  An endpoint that
    crashes the server only after the fault has left the engine gives B
    that window — the crash below waits for B to use it."""
    import threading

    import repro
    from repro import errors
    from repro.engine.storage import StorageFault

    system = repro.make_system(listen="127.0.0.1:0" if transport == "tcp" else None)
    try:
        server, storage = system.server, system.server.storage
        a, b = system.native.connect("a"), system.native.connect("b")
        a.execute("CREATE TABLE t (k INT PRIMARY KEY)")
        a.execute("INSERT INTO t VALUES (0)")

        faulted, b_done = threading.Event(), threading.Event()
        b_outcome: list[str] = []
        append_log, crash = storage.append_log, server.crash

        def watched_append(payload):
            try:
                return append_log(payload)
            except StorageFault:
                faulted.set()
                raise

        def insert_b() -> None:
            faulted.wait(5.0)
            try:
                b.execute("INSERT INTO t VALUES (2)")
                b_outcome.append("acknowledged")
            except errors.CommunicationError:
                b_outcome.append("refused")
            finally:
                b_done.set()

        def crash_after_b() -> None:
            b_done.wait(0.5)  # B cannot finish while the crash holds the mutex
            crash()

        storage.append_log = watched_append
        server.crash = crash_after_b
        b_thread = threading.Thread(target=insert_b)
        b_thread.start()
        storage.inject_append_fault(mode)
        with pytest.raises(errors.CommunicationError):
            a.execute("INSERT INTO t VALUES (1)")
        b_thread.join(5.0)
        assert b_outcome == ["refused"]
        assert server.stats.crashes == 1  # one crash per fault

        server.restart()
        checker = server.connect()
        rows = server.execute(checker, "SELECT k FROM t ORDER BY k").rows
        assert rows == [(0,)]  # every acknowledged row, and no other
    finally:
        system.close()
