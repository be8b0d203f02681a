"""Time travel from the WAL: AS OF queries and restore_to.

Pins the point-in-time subsystem (docs/TIME_TRAVEL.md):

* AS OF resolves a literal timestamp to the last cut at or below it and
  returns exactly that state — including the edge cuts: before the first
  commit (empty database → ``CatalogError``), between a batch's
  sub-statements (all-or-none: a group force stamps one shared instant),
  and at a moment inside an aborted transaction's window (losers are
  invisible).
* History survives checkpoints (nothing is cut from the front of the
  log), a torn-tail crash and a ``restore_to`` to a cut before a
  checkpoint — old cuts must keep answering exactly afterward.
* The SQL surface rejects what cannot mean anything: placeholders,
  subquery/view placement, ``SELECT INTO``.
* ``restore_to`` erases post-cut commits, rides clients through, closes
  the transactions its cut leaves open, and a process death inside either
  restore window degrades to ordinary crash recovery (chaos sweep; the
  kill at each storage mutation is in tests/test_crash_during_checkpoint.py).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

import repro
from repro.engine.storage import FileStableStorage, InMemoryStableStorage
from repro.engine.timetravel import LogIndex
from repro.engine.wal import RecordType, scan_log
from repro.errors import (
    CatalogError,
    OperationalError,
    ProgrammingError,
    TimeTravelError,
)


def _rows(system, sql: str):
    session = system.server.connect(user="checker")
    try:
        result = system.server.execute(session, sql)
        return sorted(result.rows)
    finally:
        system.server.disconnect(session)


def _run(system, *statements: str) -> None:
    session = system.server.connect(user="writer")
    try:
        for statement in statements:
            system.server.execute(session, statement)
    finally:
        system.server.disconnect(session)


def _now(system) -> float:
    return system.server.time_travel.clock.now()


# ----------------------------------------------------------------- basic AS OF


def test_as_of_returns_exact_historical_rows(system):
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    pins = []
    for i in range(6):
        _run(system, f"INSERT INTO t VALUES ({i}, {i * 10})")
        pins.append((_now(system), _rows(system, "SELECT * FROM t")))
    _run(system, "UPDATE t SET v = -1 WHERE k = 2", "DELETE FROM t WHERE k = 4")
    for ts, expected in pins:
        assert _rows(system, f"SELECT * FROM t AS OF {ts!r}") == expected


def test_as_of_before_first_commit_is_the_empty_database(system):
    ts = _now(system)
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY)", "INSERT INTO t VALUES (1)")
    with pytest.raises(CatalogError):
        _rows(system, f"SELECT * FROM t AS OF {ts!r}")


def test_as_of_sees_dropped_table(system):
    _run(
        system,
        "CREATE TABLE oops (k INT PRIMARY KEY, v INT)",
        "INSERT INTO oops VALUES (1, 100)",
    )
    ts = _now(system)
    _run(system, "DROP TABLE oops")
    with pytest.raises(CatalogError):
        _rows(system, "SELECT * FROM oops")
    assert _rows(system, f"SELECT * FROM oops AS OF {ts!r}") == [(1, 100)]


def test_aborted_transaction_invisible_at_every_cut(system):
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    _run(system, "INSERT INTO t VALUES (1, 1)")
    session = system.server.connect(user="loser")
    system.server.execute(session, "BEGIN TRANSACTION")
    system.server.execute(session, "INSERT INTO t VALUES (2, 2)")
    mid_txn = _now(system)  # pinned while the txn is open
    system.server.execute(session, "ROLLBACK")
    system.server.disconnect(session)
    _run(system, "INSERT INTO t VALUES (3, 3)")
    assert _rows(system, f"SELECT * FROM t AS OF {mid_txn!r}") == [(1, 1)]
    assert _rows(system, f"SELECT * FROM t AS OF {_now(system)!r}") == [(1, 1), (3, 3)]


def test_temp_tables_invisible_to_as_of(system):
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY)", "INSERT INTO t VALUES (1)")
    session = system.server.connect(user="temper")
    system.server.execute(session, "CREATE TABLE #scratch (k INT PRIMARY KEY)")
    system.server.execute(session, "INSERT INTO #scratch VALUES (9)")
    ts = _now(system)
    with pytest.raises(CatalogError):
        system.server.execute(session, f"SELECT * FROM #scratch AS OF {ts!r}")
    system.server.disconnect(session)


# --------------------------------------------------- batch cuts are all-or-none


def test_no_cut_splits_a_group_forced_batch(phoenix_conn, system):
    """Every sub-statement commit covered by one group force shares one
    commit timestamp, so any AS OF sees the batch whole or not at all —
    whether the index met the batch live or loads it from the log."""
    cursor = phoenix_conn.cursor()
    cursor.execute("CREATE TABLE b (k INT PRIMARY KEY, v INT)")
    index = system.server.time_travel.log_index
    index.load(system.server.storage)  # the batch's commits arrive live
    before = _now(system)
    cursor.executemany("INSERT INTO b VALUES (?, ?)", [[i, i] for i in range(8)])
    after = _now(system)
    assert _rows(system, f"SELECT * FROM b AS OF {before!r}") == []
    assert len(_rows(system, f"SELECT * FROM b AS OF {after!r}")) == 8
    # walk every commit timestamp the log index knows in the window: the
    # batch's rows must appear 0-then-8, never a strict subset
    sizes = set()
    for ts, _lsn in index.cuts():
        if before <= ts <= after:
            sizes.add(len(_rows(system, f"SELECT * FROM b AS OF {ts!r}")))
    assert sizes <= {0, 8}
    assert 8 in sizes
    loaded = LogIndex()
    loaded.load(system.server.storage)
    assert loaded.cuts() == index.cuts()


# ------------------------------------------------- history survives truncation


def test_cuts_survive_checkpoint_truncation(system):
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    pins = []
    for i in range(4):
        _run(system, f"INSERT INTO t VALUES ({i}, {i})")
        pins.append((_now(system), _rows(system, "SELECT * FROM t")))
    system.server.database.checkpoint()  # moves the redo start past them
    _run(system, "INSERT INTO t VALUES (99, 99)")
    system.server.database.checkpoint()
    for ts, expected in pins:
        assert _rows(system, f"SELECT * FROM t AS OF {ts!r}") == expected


def test_reconstruct_after_torn_wal_tail(system):
    """A torn append + crash truncates the tail; surviving cuts must still
    reconstruct exactly after restart rebuilds the log index."""
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    pins = []
    for i in range(3):
        _run(system, f"INSERT INTO t VALUES ({i}, {i})")
        pins.append((_now(system), _rows(system, "SELECT * FROM t")))
    system.server.storage.inject_append_fault("torn")
    session = system.server.connect(user="victim")
    with pytest.raises(BaseException):  # StorageFault is deliberately out-of-band
        system.server.execute(session, "INSERT INTO t VALUES (50, 50)")
    system.server.crash()
    system.server.restart()
    for ts, expected in pins:
        assert _rows(system, f"SELECT * FROM t AS OF {ts!r}") == expected
    # the clock re-seeded past every stamped commit: new cuts sort after old
    _run(system, "INSERT INTO t VALUES (60, 60)")
    assert len(_rows(system, f"SELECT * FROM t AS OF {_now(system)!r}")) == 4


# ------------------------------------------- boot work, pinned as a count


def _store(storage, history_commits: int, live_commits: int):
    """A system with ``history_commits`` commits behind a quiescent
    checkpoint and ``live_commits`` after it; returns it with one timestamp
    pinned before all history, one below the redo start and one past it."""
    system = repro.make_system(storage)
    before_history = _now(system)
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    _run(system, *(f"INSERT INTO t VALUES ({i}, 0)" for i in range(history_commits - 1)))
    in_history = _now(system)
    system.server.checkpoint()
    _run(system, *(f"UPDATE t SET v = v + 1 WHERE k = {i}" for i in range(live_commits)))
    in_live = _now(system)
    return system, (before_history, in_history, in_live)


def _reference_index(storage):
    """The commit index a full scan of the log yields."""
    records, good_end = scan_log(storage.read_log())
    ends = [record.lsn for record in records[1:]] + [good_end]
    return [
        (record.lsn, end, record.commit_ts)
        for record, end in zip(records, ends)
        if record.type is RecordType.COMMIT
    ]


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_boot_decodes_the_live_log_once_and_no_history(kind, tmp_path, monkeypatch):
    """Restart work is a function of the log past the redo start: at N
    commits below it and at 8 N a boot decodes exactly the records from the
    redo start on, the index the first ``AS OF`` loads (one scan) equals a
    full scan's, and meta stays flat."""
    from repro.engine import recovery, timetravel

    decoded = []

    def counting(raw, base_offset=0):
        records, good_end = scan_log(raw, base_offset)
        decoded.append(len(records))
        return records, good_end

    meta_sizes = []
    for n in (12, 96):
        storage = (
            InMemoryStableStorage() if kind == "memory"
            else FileStableStorage(str(tmp_path / f"db{n}"))
        )
        system, pins = _store(storage, history_commits=n, live_commits=5)
        redo_start = system.server.database.redo_start
        assert redo_start > 50 * n  # the history stays in the log
        live_records = len(scan_log(storage.read_log(redo_start))[0])
        system.server.crash()
        index = system.server.time_travel.log_index
        with monkeypatch.context() as patch:
            patch.setattr(recovery, "scan_log", counting)
            patch.setattr(timetravel, "scan_log", counting)
            del decoded[:]
            system.server.restart()
            assert decoded == [live_records]
            assert system.server.last_recovery.redo_start == redo_start
            assert not index.loaded and len(index) == 0
            del decoded[:]
            before_history, in_history, in_live = pins
            _rows(system, f"SELECT * FROM t AS OF {in_history!r}")
            # one scan loads the index, one decodes the history up to the cut
            assert decoded[0] == len(scan_log(storage.read_log())[0])
            assert len(decoded) == 2

        reference = _reference_index(storage)
        assert len(reference) == n + 5
        assert list(zip(index._lsns, index._ends, index._tss)) == reference
        assert index.floor(before_history) is None
        assert index.floor(in_history) == reference[n - 1]
        assert index.floor(in_live) == reference[-1]
        assert index.floor(in_history)[0] < redo_start <= index.floor(in_live)[0]
        if kind == "file":
            meta_sizes.append(os.path.getsize(os.path.join(storage.root, "meta.pickle")))
            assert sorted(os.listdir(storage.root)) == ["meta.pickle", "tables", "wal.log"]
    if kind == "file":
        assert abs(meta_sizes[1] - meta_sizes[0]) <= 8  # an LSN may need a wider int


# ------------------------------------------------------------- SQL surface


def test_as_of_rejects_placeholder(system):
    session = system.server.connect()
    with pytest.raises(ProgrammingError):
        system.server.execute(
            session, "SELECT * FROM t AS OF ?", placeholders=[1.0]
        )


def test_as_of_rejected_in_subquery(system):
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY)")
    session = system.server.connect()
    with pytest.raises(ProgrammingError):
        system.server.execute(
            session, "SELECT * FROM (SELECT * FROM t AS OF 1.0) sub"
        )


def test_as_of_rejected_in_view_definition(system):
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY)")
    session = system.server.connect()
    with pytest.raises(ProgrammingError):
        system.server.execute(session, "CREATE VIEW v AS SELECT * FROM t AS OF 1.0")


def test_select_into_may_run_as_of(system):
    """The rows come from the snapshot, the table is created in the live
    database — the same split as ``INSERT INTO t SELECT ... AS OF``."""
    _run(
        system,
        "CREATE TABLE t (k INT PRIMARY KEY, v INT)",
        "INSERT INTO t VALUES (1, 10)",
    )
    ts = _now(system)
    _run(
        system,
        "UPDATE t SET v = -1 WHERE k = 1",
        f"SELECT * INTO rescue FROM t AS OF {ts!r}",
    )
    assert _rows(system, "SELECT * FROM rescue") == [(1, 10)]
    assert _rows(system, "SELECT * FROM t") == [(1, -1)]


def test_insert_source_select_may_run_as_of(system):
    _run(
        system,
        "CREATE TABLE t (k INT PRIMARY KEY, v INT)",
        "INSERT INTO t VALUES (1, 10)",
    )
    ts = _now(system)
    _run(
        system,
        "UPDATE t SET v = -1 WHERE k = 1",
        "CREATE TABLE rescue (k INT PRIMARY KEY, v INT)",
        f"INSERT INTO rescue SELECT * FROM t AS OF {ts!r}",
    )
    assert _rows(system, "SELECT * FROM rescue") == [(1, 10)]


def test_phoenix_as_of_query_materializes(phoenix_conn, system):
    cursor = phoenix_conn.cursor()
    cursor.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    cursor.execute("INSERT INTO t VALUES (1, 10)")
    ts = _now(system)
    cursor.execute("UPDATE t SET v = -1 WHERE k = 1")
    cursor.execute(f"SELECT * FROM t AS OF {ts!r}")
    assert cursor.fetchall() == [(1, 10)]


# ---------------------------------------------------------------- restore_to


def test_restore_to_erases_post_cut_commits(system):
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    _run(system, "INSERT INTO t VALUES (1, 1)")
    ts = _now(system)
    _run(system, "INSERT INTO t VALUES (2, 2)", "UPDATE t SET v = 9 WHERE k = 1")
    report = system.server.restore_to(ts)
    assert report.commits_discarded == 2
    assert _rows(system, "SELECT * FROM t") == [(1, 1)]
    # pre-cut history still answers, and new writes grow new cuts
    assert _rows(system, f"SELECT * FROM t AS OF {ts!r}") == [(1, 1)]
    _run(system, "INSERT INTO t VALUES (3, 3)")
    assert _rows(system, f"SELECT * FROM t AS OF {_now(system)!r}") == [(1, 1), (3, 3)]


def test_restore_inside_aborted_txn_window(system):
    """A cut pinned while a doomed transaction was open restores to
    committed state only — the loser's writes never resurrect."""
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    _run(system, "INSERT INTO t VALUES (1, 1)")
    session = system.server.connect(user="loser")
    system.server.execute(session, "BEGIN TRANSACTION")
    system.server.execute(session, "INSERT INTO t VALUES (2, 2)")
    ts = _now(system)
    system.server.execute(session, "ROLLBACK")
    system.server.disconnect(session)
    _run(system, "INSERT INTO t VALUES (3, 3)")
    report = system.server.restore_to(ts)
    assert _rows(system, "SELECT * FROM t") == [(1, 1)]
    assert report.commits_discarded >= 1  # the post-cut INSERT of (3, 3)


def test_restore_below_live_base_after_checkpoint(system):
    """The cut predates the redo start (a checkpoint came after it): the
    restore cuts the log there and the server keeps working — later
    checkpoints and cuts included."""
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    _run(system, "INSERT INTO t VALUES (1, 1)")
    ts = _now(system)
    _run(system, "INSERT INTO t VALUES (2, 2)")
    system.server.database.checkpoint()  # cut's commit is now below the redo start
    _run(system, "INSERT INTO t VALUES (3, 3)")
    system.server.restore_to(ts)
    assert _rows(system, "SELECT * FROM t") == [(1, 1)]
    _run(system, "INSERT INTO t VALUES (4, 4)")
    system.server.database.checkpoint()
    _run(system, "INSERT INTO t VALUES (5, 5)")
    assert _rows(system, f"SELECT * FROM t AS OF {ts!r}") == [(1, 1)]
    assert _rows(system, "SELECT * FROM t") == [(1, 1), (4, 4), (5, 5)]


def _durable(storage):
    """Everything on the device, read through the storage interface."""
    from repro.engine import database

    tables = {
        name: (data.rows, data.next_rowid, data.last_lsn)
        for name in storage.list_table_files()
        for data in [storage.read_table_file(name)]
    }
    return storage.read_log(), tables, storage.read_meta(database._META)


def test_restore_to_unreachable_cut_leaves_storage_untouched(system):
    """restore_to reconstructs *before* discarding anything: if the cut is
    unreachable (its history is gone), it raises and neither the device nor
    the live database changes."""
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY)", "INSERT INTO t VALUES (1)")
    early = _now(system)
    system.server.checkpoint()
    _run(system, "INSERT INTO t VALUES (2)")
    # simulate lost history: the log loses the early cut's commit out from
    # under the index that still names it
    storage = system.server.storage
    _lsn, end, _ts = system.server.time_travel.index().floor(early)
    storage.truncate_log_suffix(end - 1)
    durable = _durable(storage)
    with pytest.raises(TimeTravelError, match="history is missing"):
        system.server.restore_to(early)
    assert _durable(storage) == durable
    assert _rows(system, "SELECT * FROM t") == [(1,), (2,)]


def test_restore_closes_the_transactions_its_cut_leaves_open(system):
    """A transaction whose records reached the log before the cut's commit
    and whose COMMIT came after it loses its end to the cut.  The restore
    ends it with an ABORT, so when a later boot hands its id out again, no
    read of the log credits the old records to the new transaction."""
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)", "INSERT INTO t VALUES (1, 1)")
    straddler = system.server.connect(user="straddler")
    system.server.execute(straddler, "BEGIN TRANSACTION")
    system.server.execute(straddler, "INSERT INTO t VALUES (50, 50)")
    _run(system, "INSERT INTO t VALUES (2, 2)")  # its force takes the 50 along
    ts = _now(system)
    system.server.execute(straddler, "COMMIT")
    system.server.disconnect(straddler)
    system.server.restore_to(ts)
    assert _rows(system, "SELECT * FROM t") == [(1, 1), (2, 2)]
    # the boot after the restore reads from its checkpoint: ids start over
    for k in range(3, 9):
        _run(system, f"INSERT INTO t VALUES ({k}, {k})")
    expected = [(1, 1), (2, 2)] + [(k, k) for k in range(3, 9)]
    assert _rows(system, "SELECT * FROM t") == expected
    assert _rows(system, f"SELECT * FROM t AS OF {_now(system)!r}") == expected


def test_restore_to_now_discards_nothing(system):
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY)", "INSERT INTO t VALUES (1)")
    report = system.server.restore_to(None)
    assert report.commits_discarded == 0
    assert _rows(system, "SELECT * FROM t") == [(1,)]


def test_restore_stats_surface_in_registry(system):
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY)", "INSERT INTO t VALUES (1)")
    system.server.restore_to(None)
    _rows(system, f"SELECT * FROM t AS OF {_now(system)!r}")
    snapshot = system.registry.snapshot()["timetravel"]
    assert snapshot["restores_started"] == 1
    assert snapshot["restores_completed"] == 1
    assert snapshot["as_of_queries"] >= 1
    assert snapshot["reconstructions"] >= 1


def test_phoenix_rides_through_restore_to_now(phoenix_conn, system):
    cursor = phoenix_conn.cursor()
    cursor.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    cursor.execute("INSERT INTO t VALUES (1, 1)")
    system.server.restore_to(None)
    cursor.execute("UPDATE t SET v = 2 WHERE k = 1")  # session recovered
    cursor.execute("SELECT v FROM t WHERE k = 1")
    assert cursor.fetchall() == [(2,)]


def test_restore_to_now_under_16_clients_zero_errors(system):
    clients, ops = 16, 6
    _run(
        system,
        "CREATE TABLE tt_ride (k INT PRIMARY KEY, v INT)",
        *(f"INSERT INTO tt_ride VALUES ({i}, 0)" for i in range(clients)),
    )
    pre_ts = _now(system)
    pre_rows = _rows(system, "SELECT * FROM tt_ride")
    system.endpoint.latency = 0.001
    connections = [
        system.phoenix.connect(system.DSN, user=f"c{i}") for i in range(clients)
    ]
    errors_seen: list[str] = []
    barrier = threading.Barrier(clients + 1)

    def worker(connection, key: int) -> None:
        try:
            cursor = connection.cursor()
            barrier.wait()
            for _ in range(ops):
                cursor.execute(f"UPDATE tt_ride SET v = v + 1 WHERE k = {key}")
        except Exception as exc:  # noqa: BLE001 — the assertion below reports it
            errors_seen.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(connections[i], i)) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    time.sleep(0.004)  # let the workload get airborne
    report = system.server.restore_to(None)
    for thread in threads:
        thread.join()

    assert errors_seen == [], errors_seen
    assert report.commits_discarded == 0
    assert report.sessions_ridden >= 1
    # every increment landed exactly once, across the restore
    assert _rows(system, "SELECT k, v FROM tt_ride") == [(i, ops) for i in range(clients)]
    # a cut pinned before the restore still reconstructs
    assert _rows(system, f"SELECT * FROM tt_ride AS OF {pre_ts!r}") == pre_rows
    for connection in connections:
        connection.close()


# ------------------------------------------------------------------- chaos


def test_crash_mid_restore_sweep_recovers_exactly_once():
    from repro.chaos import ChaosExplorer
    from repro.net.faults import RESTORE_FAULTS

    report = ChaosExplorer(seed=0).sweep(RESTORE_FAULTS, stride=5)
    assert report.runs > 0
    assert report.recovered_fraction == 1.0, report.summary()


def test_chaos_golden_run_pins_and_verifies_cuts():
    from repro.chaos.trace import probe_dml_trace, run_trace

    record = run_trace(probe_dml_trace())
    assert record.completed
    assert len(record.time_travel_cuts) > 0
    assert record.time_travel_violations == ()
