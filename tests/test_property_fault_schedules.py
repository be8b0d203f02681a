"""Property: Phoenix transparency under arbitrary mid-request fault plans.

Stronger than the between-steps property test: here hypothesis chooses
*which wire requests* die and *how* (in-flight loss vs executed-but-reply-
lost vs hang), so faults land inside Phoenix's own materialization, probe,
and recovery traffic — not just between application statements.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import repro
from repro.net import FaultKind

WORKLOAD = [
    ("ddl", "CREATE TABLE w (k INT PRIMARY KEY, v INT)"),
    ("dml", "INSERT INTO w VALUES (1, 10), (2, 20), (3, 30)"),
    ("query", "SELECT k, v FROM w ORDER BY k"),
    ("dml", "UPDATE w SET v = v + 1 WHERE k <= 2"),
    ("query", "SELECT sum(v) FROM w"),
    ("dml", "DELETE FROM w WHERE k = 3"),
    ("query", "SELECT count(*) FROM w"),
]

fault_kinds = st.sampled_from(
    [FaultKind.CRASH_BEFORE_EXECUTE, FaultKind.CRASH_AFTER_EXECUTE, FaultKind.HANG]
)
#: (after_n_matching_requests, kind) — requests counted across the whole run
fault_plans = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60), fault_kinds),
    max_size=4,
)


def run(fault_plan) -> tuple[list, list]:
    system = repro.make_system()
    connection = system.phoenix.connect(system.DSN)
    connection.config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )
    for after, kind in fault_plan:
        system.faults.schedule(kind, after=after)
    observations = []
    cursor = connection.cursor()
    for kind, sql in WORKLOAD:
        cursor.execute(sql)
        if kind == "query":
            observations.append(("rows", tuple(cursor.fetchall())))
        elif kind == "dml":
            observations.append(("rc", cursor.rowcount))
    # final ground truth read server-side, bypassing the client stack
    if not system.server.up:
        system.endpoint.restart_server()
    sid = system.server.connect()
    final = system.server.execute(sid, "SELECT k, v FROM w ORDER BY k").rows
    return observations, final


@settings(max_examples=30, deadline=None)
@given(fault_plans)
def test_observations_match_fault_free_run(fault_plan):
    reference_obs, reference_final = run([])
    subject_obs, subject_final = run(fault_plan)
    assert subject_obs == reference_obs
    assert subject_final == reference_final


TXN_WORKLOAD = [(10, True), (20, False), (5, True)]  # (amount, commit?)


def run_transfers(fault_plan) -> list:
    system = repro.make_system()
    connection = system.phoenix.connect(system.DSN)
    connection.config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )
    for after, kind in fault_plan:
        system.faults.schedule(kind, after=after)
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE acct (id INT PRIMARY KEY, bal FLOAT)")
    cursor.execute("INSERT INTO acct VALUES (1, 100.0), (2, 100.0)")
    for amount, commit in TXN_WORKLOAD:
        connection.begin()
        cursor.execute(f"UPDATE acct SET bal = bal - {amount} WHERE id = 1")
        cursor.execute(f"UPDATE acct SET bal = bal + {amount} WHERE id = 2")
        if commit:
            connection.commit()
        else:
            connection.rollback()
    cursor.execute("SELECT id, bal FROM acct ORDER BY id")
    return cursor.fetchall()


@settings(max_examples=30, deadline=None)
@given(fault_plans)
def test_explicit_transactions_under_fault_schedules(fault_plan):
    """Transfers + a rollback under arbitrary faults: exactly-once commits,
    exactly-zero for the rollback, money conserved."""
    assert run_transfers(fault_plan) == [(1, 85.0), (2, 115.0)]


def test_regression_hang_during_in_txn_statement():
    """Spurious timeout mid-transaction must NOT trigger replay (the
    session — and its open transaction — survived)."""
    assert run_transfers([(11, FaultKind.HANG)]) == [(1, 85.0), (2, 115.0)]


def test_regression_crash_during_replay():
    """A second crash interrupting the transaction replay must restart the
    whole replay, never re-apply a prefix on top of it."""
    plan = [(4, FaultKind.CRASH_BEFORE_EXECUTE), (10, FaultKind.CRASH_BEFORE_EXECUTE)]
    assert run_transfers(plan) == [(1, 85.0), (2, 115.0)]


def test_regression_crash_during_commit_probe_recovery():
    """CRASH_AFTER_EXECUTE lands the commit but kills the reply; a second
    crash then hits the recovery's own wire traffic, so the status probe
    runs a *nested* recovery that replays the (already committed)
    transaction.  The probe hit must discard that replayed transaction —
    leaving it open double-applies it on the next commit."""
    plan = [(5, FaultKind.CRASH_AFTER_EXECUTE), (10, FaultKind.CRASH_BEFORE_EXECUTE)]
    assert run_transfers(plan) == [(1, 85.0), (2, 115.0)]


def test_regression_crash_after_retried_commit():
    """A CRASH_AFTER_EXECUTE on a *retried* commit batch: the commit landed,
    so the per-round status probe must prevent a double replay+commit."""
    plan = [
        (12, FaultKind.CRASH_BEFORE_EXECUTE),
        (18, FaultKind.CRASH_AFTER_EXECUTE),
    ]
    assert run_transfers(plan) == [(1, 85.0), (2, 115.0)]


def run_temp_objects(fault_plan) -> tuple:
    system = repro.make_system()
    connection = system.phoenix.connect(system.DSN)
    connection.config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )
    for after, kind in fault_plan:
        system.faults.schedule(kind, after=after)
    cursor = connection.cursor()
    cursor.execute("SET mode 'x'")
    cursor.execute("CREATE TABLE #w (k INT PRIMARY KEY, v INT)")
    cursor.execute("INSERT INTO #w VALUES (1, 10), (2, 20)")
    cursor.execute("CREATE PROCEDURE #bump AS UPDATE #w SET v = v + 1")
    cursor.execute("EXEC #bump")
    cursor.execute("SELECT k INTO #copy FROM #w")
    cursor.execute("SELECT count(*) FROM #copy")
    n_copy = cursor.fetchone()
    cursor.execute("DROP TABLE #copy")
    cursor.execute("SELECT k, v FROM #w ORDER BY k")
    rows = cursor.fetchall()
    cursor.execute("DROP PROCEDURE #bump")
    cursor.execute("DROP TABLE #w")
    connection.close()
    if not system.server.up:
        system.endpoint.restart_server()
    leftovers = [t for t in system.server.table_names() if t.startswith("phx_")]
    return n_copy, rows, leftovers


@settings(max_examples=25, deadline=None)
@given(fault_plans)
def test_temp_objects_under_fault_schedules(fault_plan):
    """Redirected temp objects behave like temp objects through arbitrary
    faults, and clean close leaves zero phx_* objects behind."""
    n_copy, rows, leftovers = run_temp_objects(fault_plan)
    assert n_copy == (2,)
    assert rows == [(1, 11), (2, 21)]
    assert leftovers == []


def test_regression_lost_reply_on_redirected_create():
    """A lost reply on the redirected CREATE TABLE #x must retry cleanly
    (the create is DROP-prefixed, hence idempotent)."""
    n_copy, rows, leftovers = run_temp_objects([(6, FaultKind.CRASH_AFTER_EXECUTE)])
    assert rows == [(1, 11), (2, 21)] and leftovers == []


def test_regression_faults_inside_close_cleanup():
    """Faults landing inside close()'s cleanup traffic: cleanup retries
    through them and still removes every phx_* object."""
    plan = [(19, FaultKind.HANG), (0, FaultKind.HANG), (19, FaultKind.CRASH_BEFORE_EXECUTE)]
    _n, _rows, leftovers = run_temp_objects(plan)
    assert leftovers == []
