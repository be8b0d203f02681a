"""Storage-level fault injection: crash in the middle of a checkpoint or
of a ``restore_to``.

DESIGN.md §5 and recovery.py claim each checkpoint step is crash-safe: a
failure after some table files are written but before the checkpoint
pointer moves leaves snapshots "newer" than the checkpoint, and redo must
skip their already-reflected records via per-table ``last_lsn``.  These
tests make that crash actually happen by wrapping stable storage with a
write-counting bomb.
"""

from __future__ import annotations

import pytest

from repro.engine import DatabaseServer
from repro.engine.storage import FileStableStorage, InMemoryStableStorage
from tests.conftest import execute


class _CheckpointBomb(Exception):
    """Stands in for the process dying mid-checkpoint."""


class BombStorage(InMemoryStableStorage):
    """In-memory stable storage that detonates after N table-file writes.

    Writes that complete before the bomb are durable (they hit the real
    backing dicts); the detonation models the process dying between two
    file writes.
    """

    def __init__(self):
        super().__init__()
        self.fail_after_table_writes: int | None = None
        self._writes_seen = 0

    def arm(self, fail_after: int) -> None:
        self.fail_after_table_writes = fail_after
        self._writes_seen = 0

    def disarm(self) -> None:
        self.fail_after_table_writes = None

    def write_table_file(self, name, data):
        if self.fail_after_table_writes is not None:
            if self._writes_seen >= self.fail_after_table_writes:
                raise _CheckpointBomb(f"crash before writing {name}")
            self._writes_seen += 1
        super().write_table_file(name, data)


def build(n_tables: int = 3, rows_each: int = 5):
    storage = BombStorage()
    server = DatabaseServer(storage)
    sid = server.connect()
    for t in range(n_tables):
        execute(server, sid, f"CREATE TABLE t{t} (k INT PRIMARY KEY, v INT)")
        values = ", ".join(f"({i}, {i * 10})" for i in range(1, rows_each + 1))
        execute(server, sid, f"INSERT INTO t{t} VALUES {values}")
    return storage, server, sid


def expected_state(server, n_tables=3):
    sid = server.connect()
    return {
        f"t{t}": execute(server, sid, f"SELECT k, v FROM t{t} ORDER BY k")
        for t in range(n_tables)
    }


@pytest.mark.parametrize("fail_after", [0, 1, 2])
def test_crash_mid_checkpoint_preserves_committed_state(fail_after):
    storage, server, sid = build()
    before = expected_state(server)
    storage.arm(fail_after)
    with pytest.raises(_CheckpointBomb):
        server.checkpoint()
    storage.disarm()
    # the "process" is gone; rebuild purely from stable storage
    server.crash()
    server.restart()
    assert expected_state(server) == before


@pytest.mark.parametrize("fail_after", [0, 1, 2])
def test_work_after_failed_checkpoint_still_recovers(fail_after):
    storage, server, sid = build()
    storage.arm(fail_after)
    with pytest.raises(_CheckpointBomb):
        server.checkpoint()
    storage.disarm()
    # the server survives the I/O error (checkpoint failed, nothing else);
    # keep working, then crash for real
    execute(server, sid, "INSERT INTO t0 VALUES (100, 1000)")
    execute(server, sid, "UPDATE t1 SET v = 0 WHERE k = 1")
    execute(server, sid, "DELETE FROM t2 WHERE k = 2")
    after = expected_state(server)
    server.crash()
    server.restart()
    assert expected_state(server) == after


def test_crash_between_checkpoints_mixed_snapshot_ages():
    """Two interleaved checkpoints with a bomb in the second: some tables
    carry the new snapshot, others the old — redo must reconcile both."""
    storage, server, sid = build()
    server.checkpoint()  # clean baseline
    execute(server, sid, "INSERT INTO t0 VALUES (50, 500)")
    execute(server, sid, "INSERT INTO t2 VALUES (50, 500)")
    storage.arm(1)  # one table gets the fresh snapshot, then boom
    with pytest.raises(_CheckpointBomb):
        server.checkpoint()
    storage.disarm()
    before = expected_state(server)
    server.crash()
    server.restart()
    assert expected_state(server) == before


def test_repeated_bombed_checkpoints_then_success():
    storage, server, sid = build()
    for fail_after in (0, 1, 2):
        storage.arm(fail_after)
        with pytest.raises(_CheckpointBomb):
            server.checkpoint()
        storage.disarm()
        execute(server, sid, f"INSERT INTO t0 VALUES ({200 + fail_after}, 0)")
    server.checkpoint()  # finally a clean one
    before = expected_state(server)
    server.crash()
    report = server.restart()
    assert expected_state(server) == before
    # the clean checkpoint moved the redo start: little to scan
    assert report.redo_start > 0 and report.records_scanned == 1


# ------------------------------------------------ kill at every storage mutation

#: every StableStorage method that changes what is on the device
MUTATIONS = (
    "append_log",
    "write_table_file",
    "delete_table_file",
    "write_meta",
    "truncate_log_suffix",
)


class _Kill(Exception):
    """The process dies: the mutation it was about to make never happens."""


def arm_kill(monkeypatch, storage, at: int) -> list[str]:
    """Make the ``at``-th mutation of ``storage`` from now on raise instead
    of running; returns the (growing) list of the mutations that ran."""
    ran: list[str] = []

    def guard(name):
        original = getattr(storage, name)

        def guarded(*args, **kwargs):
            if len(ran) == at:
                raise _Kill(f"killed before {name} (mutation {at})")
            ran.append(name)
            return original(*args, **kwargs)

        return guarded

    for name in MUTATIONS:
        monkeypatch.setattr(storage, name, guard(name))
    return ran


def make_storage(kind: str, tmp_path):
    if kind == "memory":
        return InMemoryStableStorage()
    return FileStableStorage(str(tmp_path / "db"))


def reboot(server: DatabaseServer) -> DatabaseServer:
    """The process is gone; come back from stable storage alone — for files,
    as a new process would: a new storage object over the same directory."""
    server.crash()
    if isinstance(server.storage, FileStableStorage):
        return DatabaseServer(FileStableStorage(server.storage.root))
    server.restart()
    return server


def history(server) -> tuple[list, list]:
    """A database with a checkpoint behind it, more log past that and a
    stale table file for the next checkpoint's sweep; returns the live
    tables and the pinned ``(ts, rows of t)`` cuts — some below the redo
    start, some past it."""
    sid = server.connect()
    pins = []

    def write(sql):
        execute(server, sid, sql)
        pins.append((server.time_travel.clock.now(), read_t(server)))

    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "CREATE TABLE doomed (k INT PRIMARY KEY)")
    for i in range(3):
        write(f"INSERT INTO t VALUES ({i}, {i})")
    server.checkpoint()  # moves the redo start, writes doomed's table file
    execute(server, sid, "DROP TABLE doomed")
    for i in range(3, 6):
        write(f"INSERT INTO t VALUES ({i}, {i})")
    write("UPDATE t SET v = -1 WHERE k = 1")
    server.disconnect(sid)
    return read_tables(server), pins


def read_t(server, as_of: float | None = None):
    sid = server.connect()
    try:
        suffix = "" if as_of is None else f" AS OF {as_of!r}"
        return execute(server, sid, f"SELECT k, v FROM t ORDER BY k{suffix}")
    finally:
        server.disconnect(sid)


def read_tables(server):
    return sorted(server.table_names()), read_t(server)


def assert_intact(server, tables, pins):
    assert read_tables(server) == tables
    for ts, rows in pins:
        assert read_t(server, as_of=ts) == rows


def commit_after_reboot(server, tables, pins) -> DatabaseServer:
    """Commit a row on the rebooted server, reboot once more and find it:
    no log record written after a boot may fall at or below the stamp of a
    table file (restart would skip it)."""
    sid = server.connect()
    execute(server, sid, "INSERT INTO t VALUES (100, 100)")
    server.disconnect(sid)
    server = reboot(server)
    assert_intact(server, (tables[0], sorted(tables[1] + [(100, 100)])), pins)
    return server


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_kill_at_every_mutation_of_a_checkpoint_sweep(kind, tmp_path_factory, monkeypatch):
    """The process dies before the k-th storage mutation of a quiescent
    checkpoint, for every k: the restart finds every table and every pinned
    ``AS OF`` cut as the fault-free run left them, a row committed after it
    survives the next restart, and so does all of it the restart after the
    checkpoint that follows."""
    at = 0
    while True:
        server = DatabaseServer(make_storage(kind, tmp_path_factory.mktemp("sweep")))
        tables, pins = history(server)
        with monkeypatch.context() as patch:
            ran = arm_kill(patch, server.storage, at)
            try:
                server.checkpoint()
                killed = False
            except _Kill:
                killed = True
        if not killed:
            break
        server = reboot(server)
        assert_intact(server, tables, pins)
        server = commit_after_reboot(server, tables, pins)
        server.checkpoint()
        server = reboot(server)
        assert_intact(server, (tables[0], sorted(tables[1] + [(100, 100)])), pins)
        at += 1
    # the fault-free run made every kind of mutation a checkpoint can make
    assert at == len(ran)
    assert {"append_log", "write_table_file", "delete_table_file", "write_meta"} <= set(ran)


def restore_history(server):
    """Pin a cut, then write past it: a table the cut lacks, a table the cut
    has and the present does not, and a checkpoint taken while a transaction
    is in flight, which stamps table files past the cut and leaves the redo
    start where it was.  Returns the cut's timestamp and the state at the
    cut and now, as :func:`read_tables` shows them."""
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "CREATE TABLE doomed (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1, 1)")
    ts = server.time_travel.clock.now()
    at_cut = read_tables(server)
    execute(server, sid, "INSERT INTO t VALUES (2, 2)")
    execute(server, sid, "DROP TABLE doomed")
    execute(server, sid, "CREATE TABLE later (k INT PRIMARY KEY)")
    straddler = server.connect()
    execute(server, straddler, "BEGIN TRANSACTION")
    execute(server, straddler, "INSERT INTO t VALUES (50, 50)")
    server.checkpoint()
    execute(server, straddler, "ROLLBACK")
    execute(server, sid, "INSERT INTO t VALUES (3, 3)")
    server.disconnect(straddler)
    server.disconnect(sid)
    return ts, at_cut, read_tables(server)


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_kill_at_every_mutation_of_a_restore_to_a_past_cut(kind, tmp_path_factory, monkeypatch):
    """The process dies before the k-th storage mutation of ``restore_to``,
    for every k: the restart shows the state before the restore or the
    restored state, nothing in between, and a row committed after it
    survives the next restart (a restore that cut the log before writing
    the cut's files once lost it: its LSN fell below a file's stamp)."""
    at = 0
    while True:
        server = DatabaseServer(make_storage(kind, tmp_path_factory.mktemp("restore")))
        ts, at_cut, before = restore_history(server)
        with monkeypatch.context() as patch:
            ran = arm_kill(patch, server.storage, at)
            try:
                server.restore_to(ts)
                killed = False
            except _Kill:
                killed = True
        if not killed:
            break
        server = reboot(server)
        state = read_tables(server)
        assert state in (before, at_cut), (at, ran)
        commit_after_reboot(server, state, [])
        at += 1
    assert read_tables(server) == at_cut
    assert at == len(ran)
    assert {"write_meta", "write_table_file", "delete_table_file",
            "truncate_log_suffix", "append_log"} <= set(ran)
