"""Storage-level fault injection: crash in the middle of a checkpoint.

DESIGN.md §5 and recovery.py claim each checkpoint step is crash-safe: a
failure after some table files are written but before the checkpoint
pointer moves leaves snapshots "newer" than the checkpoint, and redo must
skip their already-reflected records via per-table ``last_lsn``.  These
tests make that crash actually happen by wrapping stable storage with a
write-counting bomb.
"""

from __future__ import annotations

import os

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
    # the clean checkpoint truncated the log: little to scan
    assert report.checkpoint_lsn > 0


# ------------------------------------------------ kill at every storage mutation

#: every StableStorage method that changes what is on the device
MUTATIONS = (
    "append_log",
    "write_table_file",
    "delete_table_file",
    "write_meta",
    "append_archive",
    "truncate_archive",
    "truncate_log_prefix",
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
    """A database with an archived prefix, a live log behind it and a stale
    table file for the checkpoint's sweep; returns the live tables and the
    pinned ``(ts, rows of t)`` cuts — some archived, some live."""
    sid = server.connect()
    pins = []

    def write(sql):
        execute(server, sid, sql)
        pins.append((server.time_travel.clock.now(), read_t(server)))

    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "CREATE TABLE doomed (k INT PRIMARY KEY)")
    for i in range(3):
        write(f"INSERT INTO t VALUES ({i}, {i})")
    server.checkpoint()  # archives the prefix, writes doomed's table file
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


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_kill_at_every_mutation_of_a_checkpoint_sweep(kind, tmp_path_factory, monkeypatch):
    """The process dies before the k-th storage mutation of a quiescent
    checkpoint, for every k: the restart finds every table and every pinned
    ``AS OF`` cut as the fault-free run left them, and so does the restart
    after the checkpoint that follows."""
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
        server.checkpoint()
        server = reboot(server)
        assert_intact(server, tables, pins)
        at += 1
    # the fault-free run made every kind of mutation a checkpoint can make
    assert at == len(ran)
    assert {"append_log", "write_table_file", "delete_table_file", "write_meta",
            "append_archive", "truncate_log_prefix"} <= set(ran)


@pytest.mark.parametrize("kind", ["memory", "file"])
def test_crash_between_archive_and_truncate_boots_and_keeps_history(kind, tmp_path, monkeypatch):
    """The prefix is in the archive *and* still in the live log: the server
    used to refuse to boot ("archive segments overlap at LSN 0")."""
    server = DatabaseServer(make_storage(kind, tmp_path))
    tables, pins = history(server)

    def dies(_offset):
        raise _Kill("killed between the archive append and the truncation")

    with monkeypatch.context() as patch:
        patch.setattr(server.storage, "truncate_log_prefix", dies)
        with pytest.raises(_Kill):
            server.checkpoint()
    server = reboot(server)
    assert_intact(server, tables, pins)
    server.checkpoint()
    server = reboot(server)
    assert_intact(server, tables, pins)


@pytest.mark.parametrize("dying_replace", [1, 2])
def test_kill_inside_file_log_truncation_loses_no_later_commit(dying_replace, tmp_path, monkeypatch):
    """``truncate_log_prefix`` used to be two renames (log, then base); dying
    between them left post-checkpoint bytes under base 0, and a row committed
    after the next boot vanished at the boot after that."""
    server = DatabaseServer(FileStableStorage(str(tmp_path / "db")))
    tables, pins = history(server)
    truncate = server.storage.truncate_log_prefix
    replace = os.replace
    calls = []

    def dying(src, dst):
        calls.append(dst)
        if len(calls) == dying_replace:
            raise _Kill(f"killed before rename {dying_replace} of the truncation")
        replace(src, dst)

    def truncate_with_dying_rename(offset):
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", dying)
            truncate(offset)

    monkeypatch.setattr(server.storage, "truncate_log_prefix", truncate_with_dying_rename)
    try:
        server.checkpoint()
    except _Kill:
        pass
    assert len(calls) >= 1
    server = reboot(server)
    assert_intact(server, tables, pins)
    sid = server.connect()
    execute(server, sid, "INSERT INTO t VALUES (100, 100)")
    server = reboot(server)
    assert read_t(server) == tables[1] + [(100, 100)]
    assert_intact(server, (tables[0], tables[1] + [(100, 100)]), pins)
