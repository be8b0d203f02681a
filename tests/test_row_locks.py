"""Row-granularity locking under table intent locks (IX and X only).

Pins the compatibility matrix, lock escalation, deadlock cycles that pass
through row locks, and — at the SQL level — that keyed DML locks only the
touched rows while non-keyed scans keep the whole-table fallback, how many
acquires each statement makes, and that reads take no lock.  Companion to
``test_locks_transactions.py`` (which pins the table-level semantics the
engine started with).
"""

import threading

import pytest

import repro
from repro.engine import locks as locks_module
from repro.engine.locks import LockManager, LockMode, LockStats
from repro.errors import DeadlockError, LockError
from repro.obs import Tracer, use_tracer
from repro.obs.__main__ import render_lock_waits


# ------------------------------------------------------------ compatibility


#: (held, requested) -> compatible: IX coexists with IX, X with nothing
_MATRIX = {
    ("IX", "IX"): True, ("IX", "X"): False,
    ("X", "IX"): False, ("X", "X"): False,
}


@pytest.mark.parametrize("held,requested", sorted(_MATRIX))
def test_intent_compatibility_matrix(held, requested):
    locks = LockManager()
    locks.acquire(1, "t", LockMode(held))
    if _MATRIX[(held, requested)]:
        locks.acquire(2, "t", LockMode(requested))
        assert locks.held(2, "t") is LockMode(requested)
    else:
        with pytest.raises(LockError):
            locks.acquire(2, "t", LockMode(requested))


def test_supremum_after_rerequest():
    # the held mode is the stronger of the two asked for, in either order:
    # IX then X holds X, and a later IX does not weaken it
    locks = LockManager()
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    assert locks.held(1, "t") is LockMode.EXCLUSIVE
    with pytest.raises(LockError):
        locks.acquire(2, "t", LockMode.INTENT_EXCLUSIVE)


# ------------------------------------------------------------ row locks


def test_row_locks_under_intents_coexist():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(1, "t", LockMode.EXCLUSIVE, row=1)
    locks.acquire(2, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(2, "t", LockMode.EXCLUSIVE, row=2)  # different row: fine
    with pytest.raises(LockError):
        locks.acquire(2, "t", LockMode.EXCLUSIVE, row=1)  # same row: conflict


def test_table_x_covers_row_requests():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    locks.acquire(1, "t", LockMode.EXCLUSIVE, row=3)
    # covered by the table lock: no row resource materializes
    assert locks.held(1, "t", row=3) is None
    assert locks.row_locks_held(1, "t") == 0


# ------------------------------------------------------------ escalation


def test_escalation_past_threshold(monkeypatch):
    monkeypatch.setattr(locks_module, "ESCALATION_THRESHOLD", 4)
    stats = LockStats()
    locks = LockManager(stats=stats)
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    for row in range(4):
        locks.acquire(1, "t", LockMode.EXCLUSIVE, row=row)
    assert locks.row_locks_held(1, "t") == 4
    locks.acquire(1, "t", LockMode.EXCLUSIVE, row=99)  # the threshold-crossing one
    assert stats.escalations == 1
    assert locks.held(1, "t") is LockMode.EXCLUSIVE
    assert locks.row_locks_held(1, "t") == 0  # row locks traded away
    # and the table lock keeps covering later row requests without re-escalating
    locks.acquire(1, "t", LockMode.EXCLUSIVE, row=100)
    assert stats.escalations == 1


def test_escalation_blocked_by_other_intent(monkeypatch):
    monkeypatch.setattr(locks_module, "ESCALATION_THRESHOLD", 2)
    locks = LockManager()
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(1, "t", LockMode.EXCLUSIVE, row=1)
    locks.acquire(1, "t", LockMode.EXCLUSIVE, row=2)
    locks.acquire(2, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(2, "t", LockMode.EXCLUSIVE, row=50)
    # txn 1's escalation needs table X, which txn 2's intent blocks
    with pytest.raises(LockError):
        locks.acquire(1, "t", LockMode.EXCLUSIVE, row=3)
    # nothing was half-escalated: existing row locks survive
    assert locks.row_locks_held(1, "t") == 2


# ------------------------------------------------------------ deadlock


def test_deadlock_cycle_through_row_locks():
    locks = LockManager()
    locks.default_timeout = 10.0  # the detector should fire long before this
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(1, "t", LockMode.EXCLUSIVE, row=1)
    locks.acquire(2, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(2, "t", LockMode.EXCLUSIVE, row=2)

    outcome: dict[str, object] = {}

    def second_waiter() -> None:
        try:
            locks.acquire(2, "t", LockMode.EXCLUSIVE, row=1)
            outcome["granted"] = True
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=second_waiter)
    thread.start()
    for _ in range(1000):
        if 2 in locks.waiting():
            break
        threading.Event().wait(0.001)
    # txn 1 -> row 2 closes the cycle; the requester is the victim
    with pytest.raises(DeadlockError):
        locks.acquire(1, "t", LockMode.EXCLUSIVE, row=2)
    locks.release_all(1)  # victim aborts; txn 2's wait is granted
    thread.join(timeout=5)
    assert outcome.get("granted") is True
    locks.release_all(2)


def test_deadlock_cycle_across_row_and_table_granularity():
    locks = LockManager()
    locks.default_timeout = 10.0
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(1, "t", LockMode.EXCLUSIVE, row=1)
    locks.acquire(2, "u", LockMode.EXCLUSIVE)

    outcome: dict[str, object] = {}

    def second_waiter() -> None:
        try:
            locks.acquire(2, "t", LockMode.EXCLUSIVE, row=1)  # row wait on one side...
            outcome["granted"] = True
        except Exception as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=second_waiter)
    thread.start()
    for _ in range(1000):
        if 2 in locks.waiting():
            break
        threading.Event().wait(0.001)
    with pytest.raises(DeadlockError):
        locks.acquire(1, "u", LockMode.EXCLUSIVE)  # ...table wait on the other
    locks.release_all(1)
    thread.join(timeout=5)
    assert outcome.get("granted") is True
    locks.release_all(2)


def test_lock_wait_event_labels_row_resources():
    """A finished wait leaves a ``lock.wait`` trace event naming the table,
    the row, the mode asked for and the waits-for edges seen at sleep —
    the fields ``python -m repro.obs --locks`` renders."""
    locks = LockManager()
    locks.default_timeout = 10.0
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(1, "t", LockMode.EXCLUSIVE, row=5)
    locks.acquire(2, "t", LockMode.INTENT_EXCLUSIVE)
    with use_tracer(Tracer(enabled=True)) as tracer:
        waiter = threading.Thread(
            target=lambda: locks.acquire(2, "t", LockMode.EXCLUSIVE, row=5)
        )
        waiter.start()
        while waiter.is_alive() and not locks.waiting():
            waiter.join(0.001)
        locks.release_all(1)
        waiter.join(timeout=5)
    (event,) = [r for r in tracer.records if r["name"] == "lock.wait"]
    attrs = event["attrs"]
    assert (attrs["table"], attrs["row"], attrs["mode"]) == ("t", 5, "X")
    assert attrs["waits_for"] == {"2": [1]}
    assert "t row 5 X" in render_lock_waits(tracer.records)
    assert "waits-for: txn 2 -> [1]" in render_lock_waits(tracer.records)
    locks.release_all(2)


# ------------------------------------------------------------ SQL level


def _system_with_rows():
    system = repro.make_system()
    setup = repro.connect(system, user="setup")
    cursor = setup.cursor()
    cursor.execute("CREATE TABLE acct (k INT PRIMARY KEY, v VARCHAR(10))")
    cursor.execute("INSERT INTO acct VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    setup.close()
    return system


def test_keyed_updates_to_disjoint_rows_coexist():
    system = _system_with_rows()
    c1 = repro.connect(system, user="u1")
    c2 = repro.connect(system, user="u2")
    c1.begin()
    c2.begin()
    c1.cursor().execute("UPDATE acct SET v = 'x' WHERE k = 1")
    # a different row of the same table: compatible under IX + row X
    c2.cursor().execute("UPDATE acct SET v = 'y' WHERE k = 2")
    c1.commit()
    c2.commit()
    check = repro.connect(system, user="check").cursor()
    check.execute("SELECT v FROM acct WHERE k <= 2 ORDER BY k")
    assert [row[0] for row in check.fetchall()] == ["x", "y"]


def test_non_keyed_update_takes_whole_table_lock():
    # regression pin: a scan whose predicate isn't a key probe must keep the
    # whole-table X fallback — row locks only cover rows the executor can
    # name *before* modifying them
    system = _system_with_rows()
    c1 = repro.connect(system, user="u1")
    c2 = repro.connect(system, user="u2")
    c1.begin()
    c1.cursor().execute("UPDATE acct SET v = 'x' WHERE v = 'a'")  # non-keyed
    assert system.server.database.locks.held(
        _only_txn(system), "acct"
    ) is LockMode.EXCLUSIVE
    c2.begin()
    with pytest.raises(LockError):
        c2.cursor().execute("UPDATE acct SET v = 'y' WHERE k = 3")
    c1.commit()
    c2.rollback()


def _indexed_system():
    system = _system_with_rows()
    setup = repro.connect(system, user="setup")
    setup.cursor().execute("CREATE INDEX acct_v ON acct (v)")
    setup.close()
    return system


def test_pk_conjunct_takes_the_row_lock_wherever_it_stands():
    # the indexed ``v = 'a'`` comes first: the chooser must still rank the
    # PK probe above it — conjunct order does not decide lock granularity
    system = _indexed_system()
    c1 = repro.connect(system, user="u1")
    c2 = repro.connect(system, user="u2")
    c1.begin()
    c1.cursor().execute("UPDATE acct SET v = 'x' WHERE v = 'a' AND k = 1")
    locks = system.server.database.locks
    assert locks.held(_only_txn(system), "acct") is LockMode.INTENT_EXCLUSIVE
    assert locks.row_locks_held(_only_txn(system), "acct") == 1
    c2.begin()
    c2.cursor().execute("UPDATE acct SET v = 'y' WHERE k = 2")  # not blocked
    c1.commit()
    c2.commit()
    check = repro.connect(system, user="check").cursor()
    check.execute("SELECT v FROM acct ORDER BY k")
    assert [row[0] for row in check.fetchall()] == ["x", "y", "c"]


@pytest.mark.parametrize(
    "where", ["v = 'a'", "v >= 'b'", "v BETWEEN 'a' AND 'b'", "v IN ('a', 'b')"]
)
def test_secondary_index_paths_lock_the_table_before_probing(where):
    # lock-before-scan holds for every path that is not a PK probe: an
    # index narrows what is read, never what is locked
    system = _indexed_system()
    c1 = repro.connect(system, user="u1")
    c2 = repro.connect(system, user="u2")
    c1.begin()
    c1.cursor().execute(f"UPDATE acct SET v = 'x' WHERE {where}")
    assert system.server.database.locks.held(_only_txn(system), "acct") is LockMode.EXCLUSIVE
    c2.begin()
    with pytest.raises(LockError):
        c2.cursor().execute("UPDATE acct SET v = 'y' WHERE k = 3")
    c1.rollback()
    c2.rollback()


@pytest.mark.parametrize(
    "first, second",
    [
        ("DELETE FROM acct WHERE k IN (1, 3)", "DELETE FROM acct WHERE k IN (2, 4)"),
        ("UPDATE acct SET v = 'x' WHERE k IN (1, 3)", "UPDATE acct SET v = 'y' WHERE k IN (2)"),
    ],
)
def test_disjoint_pk_lists_coexist(first, second):
    # a PK list locks the rows it finds, like a PK equality: two writers of
    # disjoint key lists of one table do not wait for each other
    system = _system_with_rows()
    c1 = repro.connect(system, user="u1")
    c2 = repro.connect(system, user="u2")
    c1.begin()
    c1.cursor().execute(first)
    locks = system.server.database.locks
    assert locks.held(_only_txn(system), "acct") is LockMode.INTENT_EXCLUSIVE
    assert locks.row_locks_held(_only_txn(system), "acct") == 2
    c2.begin()
    c2.cursor().execute(second)
    assert system.registry.snapshot()["locks"]["waits"] == 0
    c1.commit()
    c2.commit()
    check = repro.connect(system, user="check").cursor()
    check.execute("SELECT k, v FROM acct ORDER BY k")
    left = check.fetchall()
    if first.startswith("DELETE"):
        assert left == []
    else:
        assert left == [(1, "x"), (2, "y"), (3, "x")]


def test_overlapping_pk_lists_wait():
    system = _system_with_rows()
    c1 = repro.connect(system, user="u1")
    c2 = repro.connect(system, user="u2")
    c1.begin()
    c1.cursor().execute("UPDATE acct SET v = 'x' WHERE k IN (1, 2)")
    c2.begin()
    with pytest.raises(LockError):  # waits on row 2 until the server's lock wait runs out
        c2.cursor().execute("DELETE FROM acct WHERE k IN (2, 3)")
    assert system.registry.snapshot()["locks"]["waits"] >= 1
    c2.rollback()
    c1.commit()
    check = repro.connect(system, user="check").cursor()
    check.execute("SELECT k, v FROM acct ORDER BY k")
    assert check.fetchall() == [(1, "x"), (2, "x"), (3, "c")]


def test_keyed_update_locks_only_touched_row():
    system = _system_with_rows()
    c1 = repro.connect(system, user="u1")
    c1.begin()
    c1.cursor().execute("UPDATE acct SET v = 'x' WHERE k = 2")
    locks = system.server.database.locks
    txn = _only_txn(system)
    assert locks.held(txn, "acct") is LockMode.INTENT_EXCLUSIVE
    assert locks.row_locks_held(txn, "acct") == 1
    c1.commit()


def _only_txn(system) -> int:
    active = system.server.database.txns.active_ids()
    assert len(active) == 1
    return next(iter(active))


def test_lock_stats_in_registry_snapshot():
    system = _system_with_rows()
    snapshot = system.registry.snapshot()["locks"]
    assert snapshot["acquires"] > 0
    assert snapshot["row_acquires"] > 0
    assert snapshot["deadlocks"] == 0


# --------------------------------------------- the primary key a writer vacates


#: statements that vacate primary key 1 of ``t``
_VACATE = {
    "update": "UPDATE t SET k = 2 WHERE k = 1",
    "delete": "DELETE FROM t WHERE k = 1",
}


def _key_vacated_in_flight(kind):
    """Session A vacates key 1 in an open transaction; returns the server,
    A's session and B's (whose lock waits give up after 20 ms)."""
    from repro.engine import DatabaseServer
    from tests.conftest import execute

    server = DatabaseServer()
    a, b = server.connect(), server.connect()
    execute(server, a, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, a, "INSERT INTO t VALUES (1, 10)")
    execute(server, b, "SET lock_timeout 20")
    execute(server, a, "BEGIN TRANSACTION")
    execute(server, a, _VACATE[kind])
    return server, a, b


@pytest.mark.parametrize("end", ["rollback", "checkpoint, crash", "crash"])
@pytest.mark.parametrize("kind", sorted(_VACATE))
def test_a_vacated_primary_key_stays_with_its_writer(kind, end):
    """B's INSERT of the key an open transaction vacated waits on that
    transaction's key lock instead of taking the key.  It used to be
    accepted, and then A's ROLLBACK, a checkpoint taken with A in flight
    and every restart raised IntegrityError on the duplicate."""
    from tests.conftest import execute

    server, a, b = _key_vacated_in_flight(kind)
    with pytest.raises(LockError, match="t key \\(1,\\)"):
        execute(server, b, "INSERT INTO t VALUES (1, 99)")
    if end == "rollback":
        execute(server, a, "ROLLBACK")
    else:
        if end.startswith("checkpoint"):
            server.checkpoint()
        server.database.wal.force()  # A's records reach the log: a loser
        server.crash()
        server.restart()
    checker = server.connect()
    assert execute(server, checker, "SELECT k, v FROM t ORDER BY k") == [(1, 10)]


@pytest.mark.parametrize("outcome", ["COMMIT", "ROLLBACK"])
@pytest.mark.parametrize("kind", sorted(_VACATE))
def test_an_insert_of_a_vacated_key_runs_when_its_writer_ends(kind, outcome):
    """The waiting INSERT goes on when A ends: it takes the key A gave up,
    or meets the row A's rollback brought back."""
    from repro.errors import IntegrityError
    from tests.conftest import execute

    server, a, b = _key_vacated_in_flight(kind)
    execute(server, b, "SET lock_timeout 5000")
    result: list = []

    def insert():
        try:
            result.append(execute(server, b, "INSERT INTO t VALUES (1, 99)"))
        except IntegrityError as exc:
            result.append(exc)

    waiter = threading.Thread(target=insert)
    waiter.start()
    while waiter.is_alive() and not server.database.locks.waiting():
        waiter.join(0.001)
    assert not result  # B waits for A
    execute(server, a, outcome)
    waiter.join(5.0)
    rows = execute(server, server.connect(), "SELECT k, v FROM t ORDER BY k")
    if outcome == "COMMIT":
        assert result == [1]
        assert rows == [(1, 99)] + ([(2, 10)] if kind == "update" else [])
    else:
        assert isinstance(result[0], IntegrityError)
        assert rows == [(1, 10)]


def test_a_key_nobody_locks_costs_no_acquire():
    """An INSERT checks the key's holders before it asks for the key: with
    nobody there it takes its intent and row locks only, as before."""
    from repro.engine import DatabaseServer
    from tests.conftest import execute

    server = DatabaseServer()
    session = server.connect()
    execute(server, session, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    stats = server.database.locks.stats
    before = stats.acquires
    execute(server, session, "INSERT INTO t VALUES (1, 10)")
    assert stats.acquires - before == 2  # IX on t, X on the new row
    before = stats.acquires
    execute(server, session, "DELETE FROM t WHERE k = 1")
    # IX and X on the row the probe found, X on the key it frees
    assert stats.acquires - before == 3


@pytest.mark.parametrize(
    "sql, acquires",
    [
        ("UPDATE t SET v = 5 WHERE k = 1", 2),  # IX, X on the row
        ("UPDATE t SET v = v + 1", 1),  # X on the table covers the three rows
        ("SELECT k, v FROM t WHERE k = 1", 0),
        ("SELECT k, v FROM t", 0),
    ],
)
def test_each_written_row_is_locked_once(sql, acquires):
    """The executor locks the rows a DML statement writes before it reads
    them, and ``Database.update_row`` / ``delete_row`` take no second lock
    on them; reads take none."""
    from repro.engine import DatabaseServer
    from tests.conftest import execute

    server = DatabaseServer()
    session = server.connect()
    execute(server, session, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, session, "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
    stats = server.database.locks.stats
    before = stats.acquires
    execute(server, session, sql)
    assert stats.acquires - before == acquires


def test_a_request_table_x_covers_is_not_counted():
    """A non-keyed DELETE takes table X; the keys its rows free, and every
    later request of the same transaction on the table, are covered by it
    and count no acquire."""
    from repro.engine import DatabaseServer
    from tests.conftest import execute

    server = DatabaseServer()
    session = server.connect()
    execute(server, session, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, session, "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)")
    stats = server.database.locks.stats
    execute(server, session, "BEGIN TRANSACTION")
    before = stats.acquires
    execute(server, session, "DELETE FROM t WHERE v >= 2")  # three rows
    assert stats.acquires - before == 1  # X on t; the three keys are covered
    before = stats.acquires
    execute(server, session, "INSERT INTO t VALUES (2, 20)")
    execute(server, session, "UPDATE t SET v = 5 WHERE k = 1")
    assert stats.acquires == before
    execute(server, session, "COMMIT")
    assert execute(server, session, "SELECT k, v FROM t ORDER BY k") == [(1, 5), (2, 20)]


@pytest.mark.parametrize("kind", sorted(_VACATE))
def test_the_writer_of_a_vacated_key_inserts_while_another_waits_on_it(kind):
    """While B's INSERT waits on the key A vacated, A's own INSERT of an
    unrelated key goes through: B waits holding no lock on the table's next
    rowid, so A meets no waits-for cycle."""
    from tests.conftest import execute

    server, a, b = _key_vacated_in_flight(kind)
    execute(server, b, "SET lock_timeout 5000")
    result: list = []
    waiter = threading.Thread(
        target=lambda: result.append(execute(server, b, "INSERT INTO t VALUES (1, 99)"))
    )
    waiter.start()
    while waiter.is_alive() and not server.database.locks.waiting():
        waiter.join(0.001)
    assert not result  # B waits for A
    assert execute(server, a, "INSERT INTO t VALUES (5, 50)") == 1
    execute(server, a, "COMMIT")
    waiter.join(5.0)
    assert result == [1]
    rows = execute(server, server.connect(), "SELECT k, v FROM t ORDER BY k")
    assert rows == [(1, 99)] + ([(2, 10)] if kind == "update" else []) + [(5, 50)]


def test_reads_see_uncommitted_writes():
    """Reads take no lock, so they are read-uncommitted: B sees A's
    uncommitted UPDATE and INSERT, then neither once A rolls back.  This
    pins the anomaly DESIGN.md §5b documents; commit-clock snapshot reads
    (ROADMAP item 10) are what would close it."""
    from repro.engine import DatabaseServer
    from tests.conftest import execute

    server = DatabaseServer()
    a, b = server.connect(), server.connect()
    execute(server, a, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, a, "INSERT INTO t VALUES (1, 1)")
    execute(server, a, "BEGIN TRANSACTION")
    execute(server, a, "UPDATE t SET v = 99 WHERE k = 1")
    execute(server, a, "INSERT INTO t VALUES (2, 2)")
    assert execute(server, b, "SELECT k, v FROM t ORDER BY k") == [(1, 99), (2, 2)]
    execute(server, a, "ROLLBACK")
    assert execute(server, b, "SELECT k, v FROM t ORDER BY k") == [(1, 1)]
