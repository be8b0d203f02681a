"""A transaction that makes nothing durable logs nothing and forces nothing.

``Database.begin`` writes no record: a transaction's BEGIN goes out just
before its first durable record, and the commit or abort of one that never
logged appends nothing and forces nothing.  These tests pin the statements
that cost the log nothing (temp-table work, no-op DDL, read-only
transactions, ``SET``), the one force a durable autocommit statement costs,
what a checkpoint does beside an open read-only transaction, and restart
after empty commits.
"""

from __future__ import annotations

import pytest

import repro
from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.storage import InMemoryStableStorage
from repro.engine.values import SqlType
from repro.engine.wal import RecordType, decode_log

#: statements run in this order on one plain connection; none of them may
#: write a log record or force the log
EMPTY_STATEMENTS = [
    "CREATE TABLE #t (k INT PRIMARY KEY, v INT)",
    "INSERT INTO #t VALUES (1, 10), (2, 20)",
    "UPDATE #t SET v = v + 1 WHERE k = 1",
    "DELETE FROM #t WHERE k = 2",
    "DROP TABLE #t",
    "CREATE TABLE IF NOT EXISTS kv (k INT PRIMARY KEY, v INT)",
    "BEGIN TRANSACTION; SELECT 1; COMMIT",
    "BEGIN TRANSACTION; SELECT 1; ROLLBACK",
    "SET lock_timeout 500",
]


@pytest.fixture(params=[None, "127.0.0.1:0"], ids=["inprocess", "tcp"])
def system(request):
    system = repro.make_system(dsn=f"empty-txns-{request.param}", listen=request.param)
    setup = system.server.connect(user="setup")
    system.server.execute(setup, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    system.server.disconnect(setup)
    yield system
    system.close()


def log_counts(system) -> tuple[int, int, int]:
    """(records written, forces counted, device appends) so far."""
    wal = system.registry.wal
    return wal.records_written, wal.forces, system.server.storage.log_appends


def cost(system, cursor, sql: str) -> tuple[int, int, int]:
    before = log_counts(system)
    cursor.execute(sql)
    return tuple(after - was for after, was in zip(log_counts(system), before))


def test_statements_that_make_nothing_durable_cost_the_log_nothing(system):
    connection = repro.connect(system, phoenix=False)
    cursor = connection.cursor()
    for sql in EMPTY_STATEMENTS:
        assert cost(system, cursor, sql) == (0, 0, 0), sql
    connection.close()


def test_a_durable_autocommit_statement_forces_exactly_once(system):
    connection = repro.connect(system, phoenix=False)
    cursor = connection.cursor()
    # BEGIN, INSERT, COMMIT: one device append, counted as one force
    assert cost(system, cursor, "INSERT INTO kv VALUES (1, 1)") == (3, 1, 1)
    assert cost(system, cursor, "UPDATE kv SET v = 2 WHERE k = 1") == (3, 1, 1)
    connection.close()


def test_a_phoenix_session_forces_only_to_create_its_status_table(system):
    """Open's recipe creates the proxy (a temp table) and the session's
    status table: only the status table is durable.  A rebuild after a
    crash re-runs the recipe on a status table that exists: no force."""
    before = log_counts(system)
    connection = repro.connect(system)
    # BEGIN, CREATE_TABLE phx_c<id>_status, COMMIT
    assert tuple(a - b for a, b in zip(log_counts(system), before)) == (3, 1, 1)
    cursor = connection.cursor()
    cursor.execute("INSERT INTO kv VALUES (1, 1)")
    system.server.crash()
    system.server.restart()
    assert cost(system, cursor, "SELECT v FROM kv") == (0, 0, 0)
    assert cursor.fetchall() == [(1,)]
    assert connection.stats.recoveries == 1
    connection.close()


def test_checkpoint_beside_a_read_only_transaction_moves_the_redo_start():
    system = repro.make_system(dsn="empty-txns-checkpoint")
    server = system.server
    writer = server.connect(user="writer")
    for sql in ("CREATE TABLE kv (k INT PRIMARY KEY, v INT)", "INSERT INTO kv VALUES (1, 1)"):
        server.execute(writer, sql)
    reader = server.connect(user="reader")
    server.execute(reader, "BEGIN TRANSACTION")
    server.execute(reader, "SELECT v FROM kv WHERE k = 1")
    open_txn = server.sessions[reader].current_txn
    assert open_txn is not None and not open_txn.logged

    lsn = server.checkpoint()
    assert server.database.redo_start == lsn  # restart reads from here on
    [checkpoint] = [
        r for r in decode_log(server.storage.read_log(lsn), lsn)
        if r.type is RecordType.CHECKPOINT
    ]
    assert checkpoint.active_txns == ()

    # a transaction that has logged still holds the redo start back
    server.execute(writer, "BEGIN TRANSACTION")
    server.execute(writer, "UPDATE kv SET v = 2 WHERE k = 1")
    logged = server.sessions[writer].current_txn
    redo_start, lsn = lsn, server.checkpoint()
    assert server.database.redo_start == redo_start < lsn
    [checkpoint] = [
        r for r in decode_log(server.storage.read_log(lsn), lsn)
        if r.type is RecordType.CHECKPOINT
    ]
    assert checkpoint.active_txns == (logged.txn_id,)
    server.execute(writer, "ROLLBACK")
    server.execute(reader, "COMMIT")
    system.close()


def test_a_crash_after_empty_commits_recovers_the_same_state():
    system = repro.make_system(dsn="empty-txns-crash")
    server = system.server
    session = server.connect()
    for sql in ("CREATE TABLE kv (k INT PRIMARY KEY, v INT)", "INSERT INTO kv VALUES (1, 1)"):
        server.execute(session, sql)
    durable = server.storage.read_log()
    for sql in EMPTY_STATEMENTS:
        server.execute(session, sql)
    server.execute(session, "BEGIN TRANSACTION")
    server.execute(session, "SELECT * FROM kv")  # left open at the crash
    assert server.storage.read_log() == durable  # not one byte more

    server.crash()
    report = server.restart()
    assert report.loser_txns == []
    session = server.connect()
    assert server.execute(session, "SELECT k, v FROM kv").rows == [(1, 1)]
    assert server.table_names() == ["kv"]
    # the next incarnation logs as before: its BEGIN goes out with its insert
    server.execute(session, "INSERT INTO kv VALUES (2, 2)")
    records = decode_log(server.storage.read_log())
    assert [r.type for r in records[-3:]] == [
        RecordType.BEGIN, RecordType.INSERT, RecordType.COMMIT
    ]
    assert len({r.txn_id for r in records[-3:]}) == 1
    system.close()


def test_forces_count_exactly_the_device_appends():
    """``WalStats.forces`` rises with every device append and with nothing
    else: a durable commit, an empty commit, an abort, a checkpoint (whose
    leading force finds an empty buffer) and a group force."""
    storage = InMemoryStableStorage()
    database = Database(storage)
    stats = database.wal.stats
    steps: list[tuple[str, int, int]] = []

    def step(name, action):
        forces, appends = stats.forces, storage.log_appends
        action()
        steps.append((name, stats.forces - forces, storage.log_appends - appends))

    def durable_commit():
        txn = database.begin()
        database.insert_row(txn, "kv", [len(database.get_table("kv").data.rows) + 1, 0])
        database.commit(txn)

    def empty_commit():
        database.commit(database.begin())

    def durable_abort():
        txn = database.begin()
        database.insert_row(txn, "kv", [100, 0])
        database.abort(txn)

    def empty_abort():
        database.abort(database.begin())

    def group(action, times):
        def run():
            database.wal.begin_deferred()
            for _ in range(times):
                action()
            database.wal.group_force()

        return run

    txn = database.begin()
    database.create_table(
        txn,
        TableSchema("kv", (Column("k", SqlType.INT), Column("v", SqlType.INT)), primary_key=("k",)),
    )
    step("create", lambda: database.commit(txn))
    step("durable commit", durable_commit)
    step("empty commit", empty_commit)
    step("durable abort", durable_abort)
    step("empty abort", empty_abort)
    step("checkpoint", database.checkpoint)
    step("group force", group(durable_commit, 3))
    step("empty group", group(empty_commit, 3))
    assert steps == [
        ("create", 1, 1),
        ("durable commit", 1, 1),
        ("empty commit", 0, 0),
        ("durable abort", 1, 1),
        ("empty abort", 0, 0),
        ("checkpoint", 1, 1),
        ("group force", 1, 1),
        ("empty group", 0, 0),
    ]
    assert (stats.group_forces, stats.forces_coalesced) == (1, 2)
