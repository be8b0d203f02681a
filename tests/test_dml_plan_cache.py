"""UPDATE, DELETE and INSERT … VALUES go through the database's one plan
cache, as SELECT does: a template compiles once, every session runs the same
plan with its own values, and DDL on the target or a temp table shadowing it
gets a plan of its own.  An INSERT whose values are all literals compiles
nothing and keeps nothing.

The driver-level tests run on both transports: a plain connection's
statement reaches the engine as the text it sent, over either wire.
"""

from __future__ import annotations

import pytest

import repro
from repro.engine.database import Database
from repro.engine.server import DatabaseServer
from repro.errors import ProgrammingError
from tests.test_plan_cache import _reachable


@pytest.fixture(params=[None, "127.0.0.1:0"], ids=["inprocess", "tcp"])
def system(request):
    system = repro.make_system(dsn=f"dml-plans-{request.param}", listen=request.param)
    cursor = repro.connect(system, phoenix=False).cursor()
    cursor.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, g INT)")
    cursor.executemany("INSERT INTO t VALUES (?, ?, ?)", [[k, 0, k % 5] for k in range(50)])
    yield system
    system.close()


def counters(system) -> tuple[int, int, int, int]:
    """(compiled plans, plan hits, plan misses, invalidations) so far, of a
    system or of a bare server."""
    server = getattr(system, "server", system)
    metrics = server.engine_metrics
    return (
        server.executor_stats.compiled_plans,
        metrics.plan_hits,
        metrics.plan_misses,
        metrics.plan_invalidations,
    )


def grew(system, before) -> tuple[int, ...]:
    return tuple(after - b for b, after in zip(before, counters(system)))


def table(cursor, name: str = "t") -> list[tuple]:
    return cursor.execute(f"SELECT * FROM {name} ORDER BY k").fetchall()


@pytest.mark.parametrize(
    "sql, values, changed",
    [
        ("UPDATE t SET v = v + ? WHERE k = ?", lambda i: [i, i], 1),
        ("DELETE FROM t WHERE k = ?", lambda i: [i], 1),
        ("UPDATE t SET v = v + 1 WHERE g = ? AND k < ?", lambda i: [i % 5, 50], 10),
    ],
    ids=["pk update", "pk delete", "scan update"],
)
def test_forty_executions_of_a_dml_template_compile_once(system, sql, values, changed):
    cursor = repro.connect(system, phoenix=False).cursor()
    before = counters(system)
    for i in range(40):
        cursor.execute(sql, values(i))
        assert cursor.rowcount == changed
    assert grew(system, before) == (1, 39, 1, 0)


def test_a_target_that_grows_past_growth_keeps_its_plan(system):
    """A DML target binds no row count: its access path reads indexes, not
    sizes, so a table an INSERT template fills is not recompiled at each
    doubling (a SELECT over it is: its join order read the row count)."""
    cursor = repro.connect(system, phoenix=False).cursor()
    cursor.execute("CREATE TABLE ev (k INT PRIMARY KEY, seq INT)")
    cursor.execute("INSERT INTO ev VALUES (?, ?)", [0, 0])
    before = counters(system)
    for k in range(1, 64):
        cursor.execute("INSERT INTO ev VALUES (?, ?)", [k, 3 * k])
        cursor.execute("UPDATE ev SET seq = seq + 1 WHERE k = ?", [k])
    assert grew(system, before) == (1, 125, 1, 0)


def test_create_index_on_the_target_makes_the_plan_probe_the_index(system):
    cursor = repro.connect(system, phoenix=False).cursor()
    stats = system.server.executor_stats
    sql = "UPDATE t SET v = v + 1 WHERE g = ?"
    cursor.execute(sql, [1])
    probes = stats.index_eq_probes
    cursor.execute(sql, [2])
    assert stats.index_eq_probes == probes  # a scan: g has no index
    cursor.execute("CREATE INDEX t_g ON t (g)")
    before = counters(system)
    cursor.execute(sql, [3])
    assert cursor.rowcount == 10
    assert stats.index_eq_probes == probes + 1
    assert grew(system, before) == (1, 0, 1, 1)
    cursor.execute(sql, [4])
    assert stats.index_eq_probes == probes + 2
    assert grew(system, before) == (1, 1, 1, 1)
    assert [row[1] for row in table(cursor)] == [1 if k % 5 else 0 for k in range(50)]


def test_a_recreated_target_gets_a_plan_of_its_own(system):
    cursor = repro.connect(system, phoenix=False).cursor()
    sql = "UPDATE t SET v = v + 10 WHERE k = ?"
    cursor.execute(sql, [1])
    cursor.execute("DROP TABLE t")
    cursor.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, g INT)")
    cursor.execute("INSERT INTO t VALUES (1, 5, 0)")
    before = counters(system)
    cursor.execute(sql, [1])
    assert grew(system, before) == (1, 0, 1, 1)
    cursor.execute(sql, [1])
    assert grew(system, before) == (1, 1, 1, 1)
    assert table(cursor) == [(1, 25, 0)]


def test_a_temp_table_that_shadows_the_target_gets_a_plan_of_its_own(system):
    """A session's temp table hides the persistent table of its name (which
    can only be created after it: CREATE TABLE refuses a name in use)."""
    shadowing = repro.connect(system, phoenix=False).cursor()
    cursor = repro.connect(system, phoenix=False).cursor()
    sql = "UPDATE u SET v = v + 10 WHERE k = ?"
    shadowing.execute("CREATE TEMPORARY TABLE u (k INT PRIMARY KEY, v INT)")
    shadowing.execute("INSERT INTO u VALUES (1, 100)")
    shadowing.execute(sql, [1])
    cursor.execute("CREATE TABLE u (k INT PRIMARY KEY, v INT)")
    cursor.execute("INSERT INTO u VALUES (1, 0)")
    before = counters(system)
    cursor.execute(sql, [1])
    assert grew(system, before) == (1, 0, 1, 1)
    for _ in range(3):  # each session keeps hitting its own plan
        cursor.execute(sql, [1])
        shadowing.execute(sql, [1])
    assert grew(system, before) == (1, 6, 1, 1)
    assert table(cursor, "u") == [(1, 40)]
    assert table(shadowing, "u") == [(1, 140)]


def test_a_table_read_by_a_subquery_in_where_or_set_is_bound_too(system):
    cursor = repro.connect(system, phoenix=False).cursor()
    cursor.execute("CREATE TABLE u (k INT PRIMARY KEY, w INT)")
    cursor.execute("INSERT INTO u VALUES (1, 7), (2, 8)")
    sql = "UPDATE t SET v = (SELECT max(w) FROM u) WHERE k IN (SELECT k FROM u)"
    cursor.execute(sql)
    assert cursor.rowcount == 2
    cursor.execute("DROP TABLE u")
    cursor.execute("CREATE TABLE u (k INT PRIMARY KEY, w INT)")
    cursor.execute("INSERT INTO u VALUES (3, 9), (4, 9)")
    before = counters(system)
    cursor.execute(sql)
    assert cursor.rowcount == 2
    assert grew(system, before) == (3, 0, 1, 1)  # the UPDATE and its two subqueries
    assert [row[:2] for row in table(cursor)[:5]] == [(0, 0), (1, 8), (2, 8), (3, 9), (4, 9)]


def test_a_procedure_body_update_on_a_table_parameter_serves_two_tables(system):
    cursor = repro.connect(system, phoenix=False).cursor()
    for name in ("a", "b"):
        cursor.execute(f"CREATE TABLE {name} (k INT PRIMARY KEY, v INT)")
        cursor.execute(f"INSERT INTO {name} VALUES (1, 0), (2, 0)")
    cursor.execute(
        "CREATE PROCEDURE bump (@t, @k) AS BEGIN UPDATE @t SET v = v + 1 WHERE k = @k END"
    )
    before = counters(system)
    for name, k in (("a", 1), ("b", 2), ("a", 1), ("b", 1)):
        cursor.execute("EXEC bump ?, ?", [name, k])
    assert grew(system, before) == (1, 3, 1, 0)
    cursor.execute("CREATE TABLE c (k INT PRIMARY KEY, w INT, v INT)")  # another shape
    cursor.execute("INSERT INTO c VALUES (1, 7, 0)")
    cursor.execute("EXEC bump ?, ?", ["c", 1])
    assert grew(system, before) == (2, 3, 2, 1)
    assert table(cursor, "a") == [(1, 2), (2, 0)]
    assert table(cursor, "b") == [(1, 1), (2, 1)]
    assert table(cursor, "c") == [(1, 7, 1)]


@pytest.mark.parametrize(
    "sql", ["UPDATE t SET v = ? WHERE k = ?", "DELETE FROM t WHERE k = ? OR k = ?",
            "INSERT INTO t VALUES (?, ?, 0)"]
)
def test_too_few_values_raise_on_a_plan_cache_hit(system, sql):
    cursor = repro.connect(system, phoenix=False).cursor()
    cursor.execute("DELETE FROM t")  # no row is touched, and still it raises
    cursor.execute(sql, [60, 61])
    before = counters(system)
    with pytest.raises(ProgrammingError, match="placeholder"):
        cursor.execute(sql, [62])
    assert grew(system, before) == (0, 1, 0, 0)


def test_two_sessions_share_the_status_insert_and_record_their_own_rowcount(system):
    """Phoenix's wrapper, run by two sessions: one plan of each statement,
    each session's ``rowcount()`` read from its own run."""
    setup = repro.connect(system, phoenix=False).cursor()
    setup.execute("CREATE TABLE st (seq INT PRIMARY KEY, n INT)")
    wrapper = (
        "BEGIN TRANSACTION; UPDATE t SET v = v + 1 WHERE k < ?; "
        "INSERT INTO st VALUES (?, rowcount()); COMMIT"
    )
    cursors = [repro.connect(system, phoenix=False).cursor() for _ in range(2)]
    before = counters(system)
    for seq, (cursor, below) in enumerate(zip(cursors * 3, (3, 7, 4, 9, 1, 2))):
        cursor.execute(wrapper, [below, seq])
    assert grew(system, before) == (2, 10, 2, 0)
    assert setup.execute("SELECT * FROM st ORDER BY seq").fetchall() == [
        (0, 3), (1, 7), (2, 4), (3, 9), (4, 1), (5, 2)
    ]


def test_phoenix_dml_compiles_its_two_templates_once(system):
    """A Phoenix DML is the application's statement and the status insert:
    two plans per session, hit from the second execution on."""
    cursor = repro.connect(system).cursor()
    before = counters(system)
    for k in range(5):
        cursor.execute("UPDATE t SET v = v + 1 WHERE k = ?", [k])
        assert cursor.rowcount == 1
    assert grew(system, before)[:3] == (2, 8, 2)


# ------------------------------------------------------------------ memory


def test_a_literal_insert_keeps_no_plan():
    """An all-literal INSERT compiles to nothing: a plan of it would be a
    copy of its rows (a bulk load's chunks would fill the cache)."""
    server = DatabaseServer()
    sid = server.connect()
    server.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(20))")
    plans = server.database.plans
    values = ", ".join(f"({k}, 'v{k}')" for k in range(500))
    before = counters(server)
    server.execute(sid, f"INSERT INTO t VALUES {values}")
    server.execute(sid, "INSERT INTO t (v, k) VALUES ('x', -1), (NULL, -2)")
    assert len(plans) == 0
    assert grew(server, before) == (0, 0, 0, 0)
    server.execute(sid, "INSERT INTO t VALUES (?, 'x')", placeholders=[600])
    assert len(plans) == 1
    assert server.execute(sid, "SELECT count(*) FROM t").rows == [(503,)]


def test_a_cached_dml_plan_holds_no_session():
    server = DatabaseServer()
    sid = server.connect()
    server.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    server.execute(sid, "CREATE TABLE st (seq INT PRIMARY KEY, n INT)")
    server.execute(sid, "INSERT INTO st VALUES (0, 0), (-1, 0)")  # sized: stays within GROWTH
    sql = (
        "UPDATE t SET v = (SELECT count(*) FROM st WHERE n >= ?) WHERE k = ?; "
        "INSERT INTO st VALUES (?, rowcount())"
    )
    server.execute(sid, sql, placeholders=[0, 1, 1])
    executor = server.executor_for(sid)
    for stmt in server._parse(sql):
        plan = server.database.plans.lookup(
            stmt, lambda name: executor._binding(name, {}), server.engine_metrics
        )
        assert plan is not None
        held = _reachable(plan)
        kinds = {type(obj).__name__ for obj in held}
        assert not kinds & {"Executor", "Session", "RunContext", "_Planner"}, kinds
        assert not any(isinstance(obj, Database) for obj in held)

