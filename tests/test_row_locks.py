"""Row-granularity locking under table intent locks (multi-granularity).

Pins the compatibility matrix, row S→X upgrades, lock escalation, deadlock
cycles that pass through row locks, and — at the SQL level — that keyed DML
locks only the touched rows while non-keyed scans keep the whole-table
fallback.  Companion to ``test_locks_transactions.py`` (which pins the
table-level semantics the engine started with).
"""

import threading

import pytest

import repro
from repro.engine import locks as locks_module
from repro.engine.locks import LockManager, LockMode, LockStats
from repro.errors import DeadlockError, LockError


# ------------------------------------------------------------ compatibility


#: the standard multi-granularity matrix: (held, requested) -> compatible
_MATRIX = {
    ("IS", "IS"): True, ("IS", "IX"): True, ("IS", "S"): True,
    ("IS", "SIX"): True, ("IS", "X"): False,
    ("IX", "IS"): True, ("IX", "IX"): True, ("IX", "S"): False,
    ("IX", "SIX"): False, ("IX", "X"): False,
    ("S", "IS"): True, ("S", "IX"): False, ("S", "S"): True,
    ("S", "SIX"): False, ("S", "X"): False,
    ("SIX", "IS"): True, ("SIX", "IX"): False, ("SIX", "S"): False,
    ("SIX", "SIX"): False, ("SIX", "X"): False,
    ("X", "IS"): False, ("X", "IX"): False, ("X", "S"): False,
    ("X", "SIX"): False, ("X", "X"): False,
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
    # holding IX and asking S must leave the txn at SIX, which then blocks
    # another txn's IX (plain S would not be enough to model "reads all,
    # writes some")
    locks = LockManager()
    locks.acquire(1, "t", LockMode.IX)
    locks.acquire(1, "t", LockMode.S)
    assert locks.held(1, "t") is LockMode.SIX
    with pytest.raises(LockError):
        locks.acquire(2, "t", LockMode.IX)


# ------------------------------------------------------------ row locks


def test_row_locks_under_intents_coexist():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.IX)
    locks.acquire(1, "t", LockMode.X, row=1)
    locks.acquire(2, "t", LockMode.IX)
    locks.acquire(2, "t", LockMode.X, row=2)  # different row: fine
    with pytest.raises(LockError):
        locks.acquire(2, "t", LockMode.X, row=1)  # same row: conflict


def test_row_shared_to_exclusive_upgrade():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.IS)
    locks.acquire(1, "t", LockMode.S, row=7)
    locks.acquire(1, "t", LockMode.IX)
    locks.acquire(1, "t", LockMode.X, row=7)  # own upgrade never self-blocks
    assert locks.held(1, "t", row=7) is LockMode.X


def test_row_upgrade_blocked_by_other_reader():
    locks = LockManager()
    for txn in (1, 2):
        locks.acquire(txn, "t", LockMode.IS)
        locks.acquire(txn, "t", LockMode.S, row=7)
    locks.acquire(1, "t", LockMode.IX)
    with pytest.raises(LockError):
        locks.acquire(1, "t", LockMode.X, row=7)


def test_table_x_covers_row_requests():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.X)
    locks.acquire(1, "t", LockMode.X, row=3)
    # covered by the table lock: no row resource materializes
    assert locks.held(1, "t", row=3) is None
    assert locks.row_locks_held(1, "t") == 0


# ------------------------------------------------------------ escalation


def test_escalation_past_threshold(monkeypatch):
    monkeypatch.setattr(locks_module, "ESCALATION_THRESHOLD", 4)
    stats = LockStats()
    locks = LockManager(stats=stats)
    locks.acquire(1, "t", LockMode.IX)
    for row in range(4):
        locks.acquire(1, "t", LockMode.X, row=row)
    assert locks.row_locks_held(1, "t") == 4
    locks.acquire(1, "t", LockMode.X, row=99)  # the threshold-crossing one
    assert stats.escalations == 1
    assert locks.held(1, "t") is LockMode.X
    assert locks.row_locks_held(1, "t") == 0  # row locks traded away
    # and the table lock keeps covering later row requests without re-escalating
    locks.acquire(1, "t", LockMode.X, row=100)
    assert stats.escalations == 1


def test_escalation_blocked_by_other_intent(monkeypatch):
    monkeypatch.setattr(locks_module, "ESCALATION_THRESHOLD", 2)
    locks = LockManager()
    locks.acquire(1, "t", LockMode.IX)
    locks.acquire(1, "t", LockMode.X, row=1)
    locks.acquire(1, "t", LockMode.X, row=2)
    locks.acquire(2, "t", LockMode.IX)
    locks.acquire(2, "t", LockMode.X, row=50)
    # txn 1's escalation needs table X, which txn 2's intent blocks
    with pytest.raises(LockError):
        locks.acquire(1, "t", LockMode.X, row=3)
    # nothing was half-escalated: existing row locks survive
    assert locks.row_locks_held(1, "t") == 2


# ------------------------------------------------------------ deadlock


def test_deadlock_cycle_through_row_locks():
    locks = LockManager()
    locks.default_timeout = 10.0  # the detector should fire long before this
    locks.acquire(1, "t", LockMode.IX)
    locks.acquire(1, "t", LockMode.X, row=1)
    locks.acquire(2, "t", LockMode.IX)
    locks.acquire(2, "t", LockMode.X, row=2)

    outcome: dict[str, object] = {}

    def second_waiter() -> None:
        try:
            locks.acquire(2, "t", LockMode.X, row=1)
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
        locks.acquire(1, "t", LockMode.X, row=2)
    locks.release_all(1)  # victim aborts; txn 2's wait is granted
    thread.join(timeout=5)
    assert outcome.get("granted") is True
    locks.release_all(2)


def test_deadlock_cycle_across_row_and_table_granularity():
    locks = LockManager()
    locks.default_timeout = 10.0
    locks.acquire(1, "t", LockMode.IX)
    locks.acquire(1, "t", LockMode.X, row=1)
    locks.acquire(2, "u", LockMode.X)

    outcome: dict[str, object] = {}

    def second_waiter() -> None:
        try:
            locks.acquire(2, "t", LockMode.X, row=1)  # row wait on one side...
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
        locks.acquire(1, "u", LockMode.S)  # ...table wait on the other
    locks.release_all(1)
    thread.join(timeout=5)
    assert outcome.get("granted") is True
    locks.release_all(2)


def test_waits_for_graph_labels_row_resources():
    locks = LockManager()
    locks.default_timeout = 10.0
    locks.acquire(1, "t", LockMode.IX)
    locks.acquire(1, "t", LockMode.X, row=5)

    seen: list[list[dict]] = []

    def waiter() -> None:
        try:
            locks.acquire(2, "t", LockMode.X, row=5, timeout=0.5)
        except LockError:
            pass

    thread = threading.Thread(target=waiter)
    thread.start()
    for _ in range(1000):
        graph = locks.waits_for_graph()
        if graph:
            seen.append(graph)
            break
        threading.Event().wait(0.001)
    locks.release_all(1)
    thread.join(timeout=5)
    assert seen, "waiter never appeared in the waits-for graph"
    (entry,) = seen[0]
    assert entry["txn"] == 2
    assert entry["waits_for"] == [1]
    assert entry["table"] == "t"
    assert entry["row"] == 5
    assert entry["mode"] == "X"
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
    ) is LockMode.X
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
    assert locks.held(_only_txn(system), "acct") is LockMode.IX
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
    assert system.server.database.locks.held(_only_txn(system), "acct") is LockMode.X
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
    assert locks.held(_only_txn(system), "acct") is LockMode.IX
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
    assert locks.held(txn, "acct") is LockMode.IX
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
