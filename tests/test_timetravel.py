"""Time travel from the WAL: AS OF queries and restore_to.

Pins the point-in-time subsystem (docs/TIME_TRAVEL.md):

* AS OF resolves a literal timestamp to the last cut at or below it and
  returns exactly that state — including the edge cuts: before the first
  commit (empty database → ``CatalogError``), between a batch's
  sub-statements (all-or-none: a group force stamps one shared instant),
  and at a moment inside an aborted transaction's window (losers are
  invisible).
* History survives everything that truncates the live log — quiescent
  checkpoints (the archive), a torn-tail crash, a ``restore_to`` below
  the live base — old cuts must keep answering exactly afterward.
* The SQL surface rejects what cannot mean anything: placeholders,
  subquery/view placement, ``SELECT INTO``.
* ``restore_to`` erases post-cut commits, rides clients through, and a
  process death inside either restore window degrades to ordinary crash
  recovery (chaos sweep).
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.engine.storage import FileStableStorage, InMemoryStableStorage
from repro.engine.timetravel import full_log_records
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
        return sorted(result.result_set.rows)
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
    commit timestamp, so any AS OF sees the batch whole or not at all."""
    cursor = phoenix_conn.cursor()
    cursor.execute("CREATE TABLE b (k INT PRIMARY KEY, v INT)")
    before = _now(system)
    cursor.executemany("INSERT INTO b VALUES (?, ?)", [[i, i] for i in range(8)])
    after = _now(system)
    assert _rows(system, f"SELECT * FROM b AS OF {before!r}") == []
    assert len(_rows(system, f"SELECT * FROM b AS OF {after!r}")) == 8
    # walk every commit timestamp the log index knows in the window: the
    # batch's rows must appear 0-then-8, never a strict subset
    index = system.server.time_travel.log_index
    sizes = set()
    for ts, _lsn in index.cuts():
        if before <= ts <= after:
            sizes.add(len(_rows(system, f"SELECT * FROM b AS OF {ts!r}")))
    assert sizes <= {0, 8}
    assert 8 in sizes


# ------------------------------------------------- history survives truncation


def test_cuts_survive_checkpoint_truncation(system):
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    pins = []
    for i in range(4):
        _run(system, f"INSERT INTO t VALUES ({i}, {i})")
        pins.append((_now(system), _rows(system, "SELECT * FROM t")))
    system.server.database.checkpoint()  # archives + truncates the live log
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


def test_overlapping_archive_segments_fail_loudly(system):
    """Overlap *below* the log base cannot come from a crash (a chunk
    replaces what it overlaps, and reads stop at the log base): it means the
    archive is corrupt, and reconstruction says so."""
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY)", "INSERT INTO t VALUES (1)")
    ts = _now(system)
    system.server.checkpoint()
    _run(system, "INSERT INTO t VALUES (2)")
    system.server.checkpoint()
    first, second = system.server.storage._archive_chunks
    second.start = first.end - 1
    with pytest.raises(TimeTravelError, match="overlap"):
        _rows(system, f"SELECT * FROM t AS OF {ts!r}")


# ------------------------------------------- boot work, pinned as a count


def _store(storage, archived_commits: int, live_commits: int):
    """A system with ``archived_commits`` commits behind a checkpoint and
    ``live_commits`` after it; returns it with one timestamp pinned in the
    archive, one in the live log and one before all history."""
    system = repro.make_system(storage)
    before_history = _now(system)
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    _run(system, *(f"INSERT INTO t VALUES ({i}, 0)" for i in range(archived_commits - 1)))
    in_archive = _now(system)
    system.server.checkpoint()
    _run(system, *(f"UPDATE t SET v = v + 1 WHERE k = {i}" for i in range(live_commits)))
    in_live = _now(system)
    return system, (before_history, in_archive, in_live)


def _reference_index(storage):
    """The commit index a full scan of all history yields — what every boot
    used to compute."""
    records, _start, ends = full_log_records(storage)
    return [
        (record.lsn, end, record.commit_ts)
        for record, end in zip(records, ends)
        if record.type is RecordType.COMMIT
    ]


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_boot_decodes_the_live_log_once_and_no_history(kind, tmp_path, monkeypatch):
    """Restart work is a function of the live log: at N archived commits and
    at 8 N a boot decodes exactly the live records, the index it loads
    equals a full scan's, and meta holds no history."""
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
        system, pins = _store(storage, archived_commits=n, live_commits=5)
        live_records = len(system.server.database.wal.read_all())
        system.server.crash()
        with monkeypatch.context() as patch:
            patch.setattr(recovery, "scan_log", counting)
            patch.setattr(timetravel, "scan_log", counting)
            del decoded[:]
            system.server.restart()
        assert decoded == [live_records]

        index = system.server.time_travel.log_index
        reference = _reference_index(storage)
        assert len(reference) == n + 5
        assert list(zip(index._lsns, index._ends, index._tss)) == reference
        before_history, in_archive, in_live = pins
        assert index.floor(before_history) is None
        assert index.floor(in_archive) == reference[n - 1]
        assert index.floor(in_live) == reference[-1]
        assert index.floor(in_archive)[0] < storage.log_base <= index.floor(in_live)[0]
        if kind == "file":
            meta_sizes.append(os.path.getsize(os.path.join(storage.root, "meta.pickle")))
            assert os.path.getsize(os.path.join(storage.root, "archive.log")) > 50 * n
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
    """Case B: the cut predates the live log (it lives in the archive);
    restore trims archive segments and the server keeps working —
    including later checkpoints opening a fresh segment past the gap."""
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    _run(system, "INSERT INTO t VALUES (1, 1)")
    ts = _now(system)
    _run(system, "INSERT INTO t VALUES (2, 2)")
    system.server.database.checkpoint()  # cut's commit now sits in the archive
    _run(system, "INSERT INTO t VALUES (3, 3)")
    system.server.restore_to(ts)
    assert _rows(system, "SELECT * FROM t") == [(1, 1)]
    _run(system, "INSERT INTO t VALUES (4, 4)")
    system.server.database.checkpoint()
    _run(system, "INSERT INTO t VALUES (5, 5)")
    assert _rows(system, f"SELECT * FROM t AS OF {ts!r}") == [(1, 1)]
    assert _rows(system, "SELECT * FROM t") == [(1, 1), (4, 4), (5, 5)]


def test_restore_to_unreachable_cut_leaves_storage_untouched(system):
    """restore_to reconstructs *before* discarding anything: if the cut is
    unreachable (its history is gone), it raises and the live database is
    untouched."""
    _run(system, "CREATE TABLE t (k INT PRIMARY KEY)", "INSERT INTO t VALUES (1)")
    early = _now(system)
    system.server.checkpoint()  # archives + truncates the log prefix
    _run(system, "INSERT INTO t VALUES (2)")
    # simulate lost history: throw away the archived prefix out from under
    # the manager, so the early cut predates every replayable byte
    system.server.storage.truncate_archive(0)
    system.server.time_travel._snapshots.clear()
    with pytest.raises(TimeTravelError):
        system.server.restore_to(early)
    assert _rows(system, "SELECT * FROM t") == [(1,), (2,)]


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
    system.endpoint.restore_to(None)
    cursor.execute("UPDATE t SET v = 2 WHERE k = 1")  # session recovered
    cursor.execute("SELECT v FROM t WHERE k = 1")
    assert cursor.fetchall() == [(2,)]


# ------------------------------------------------------------------- chaos


def test_crash_mid_restore_sweep_recovers_exactly_once():
    from repro.chaos import ChaosExplorer

    report = ChaosExplorer(seed=0).sweep_restore_faults(stride=5)
    assert report.runs > 0
    assert report.recovered_fraction == 1.0, report.summary()


def test_chaos_golden_run_pins_and_verifies_cuts():
    from repro.chaos.trace import probe_dml_trace, run_trace

    record = run_trace(probe_dml_trace())
    assert record.completed
    assert len(record.time_travel_cuts) > 0
    assert record.time_travel_violations == ()
