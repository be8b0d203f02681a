"""Statement/plan cache behavior: reuse, invalidation, volatility.

The caches must be invisible except in the counters: every test here pairs
a reuse assertion (hits accrue) with a correctness assertion (results match
what an uncached engine would produce).
"""

from __future__ import annotations

import gc
import itertools
import sys
import threading
import time
import types
import weakref

import pytest

import repro
from repro.engine import executor as executor_module
from repro.engine import timetravel
from repro.engine.database import Database
from repro.engine.expressions import Env, RunContext, like_to_regex
from repro.engine.plancache import (
    GROWTH,
    PROC_CACHE_CAPACITY,
    EngineMetrics,
    PARSE_CACHE_CAPACITY,
    LRUCache,
    PlanCache,
)
from repro.engine.schema import TableSchema, Column
from repro.engine.storage import InMemoryStableStorage, TableData
from repro.engine.values import SqlType
from repro.engine.server import DatabaseServer


@pytest.fixture()
def server():
    server = DatabaseServer()
    sid = server.connect()
    server.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(20))")
    server.execute(sid, "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
    return server, sid


def rows(result):
    return result.rows


# ---------------------------------------------------------------- parse cache


def test_parse_cache_hits_on_repeated_text(server):
    server, sid = server
    metrics = server.engine_metrics
    base_hits = metrics.parse_hits
    base_misses = metrics.parse_misses
    for _ in range(4):
        server.execute(sid, "SELECT v FROM t WHERE k = 2")
    assert metrics.parse_misses == base_misses + 1
    assert metrics.parse_hits == base_hits + 3


def test_parse_cache_shared_across_sessions(server):
    server, sid = server
    other = server.connect()
    metrics = server.engine_metrics
    server.execute(sid, "SELECT k FROM t")
    base_hits = metrics.parse_hits
    server.execute(other, "SELECT k FROM t")
    assert metrics.parse_hits == base_hits + 1


def test_parse_errors_are_not_cached(server):
    server, sid = server
    size_before = len(server._parse_cache)
    with pytest.raises(Exception):
        server.execute(sid, "SELEKT nonsense FROM")
    assert len(server._parse_cache) == size_before


# ----------------------------------------------------------------- plan cache


def test_plan_cache_hits_on_repeated_select(server):
    server, sid = server
    metrics = server.engine_metrics
    first = rows(server.execute(sid, "SELECT k, v FROM t ORDER BY k"))
    base_hits = metrics.plan_hits
    again = rows(server.execute(sid, "SELECT k, v FROM t ORDER BY k"))
    assert metrics.plan_hits == base_hits + 1
    assert again == first


def test_cached_plan_sees_intervening_dml(server):
    server, sid = server
    sql = "SELECT count(*) AS n FROM t"
    assert rows(server.execute(sid, sql)) == [(3,)]
    server.execute(sid, "INSERT INTO t VALUES (4, 'four')")
    assert rows(server.execute(sid, sql)) == [(4,)]
    server.execute(sid, "DELETE FROM t WHERE k = 1")
    assert rows(server.execute(sid, sql)) == [(3,)]


def test_cached_plan_sees_dml_from_other_session(server):
    server, sid = server
    other = server.connect()
    sql = "SELECT count(*) AS n FROM t"
    assert rows(server.execute(sid, sql)) == [(3,)]
    server.execute(other, "INSERT INTO t VALUES (99, 'intruder')")
    assert rows(server.execute(sid, sql)) == [(4,)]


def test_uncorrelated_subquery_recomputes_across_executions(server):
    server, sid = server
    sql = "SELECT k FROM t WHERE k IN (SELECT k FROM t WHERE v LIKE 't%') ORDER BY k"
    assert rows(server.execute(sid, sql)) == [(2,), (3,)]
    # make the plan hot so the next run reuses the compiled closures
    assert rows(server.execute(sid, sql)) == [(2,), (3,)]
    server.execute(sid, "INSERT INTO t VALUES (5, 'ten')")
    assert rows(server.execute(sid, sql)) == [(2,), (3,), (5,)]


def test_uncorrelated_scalar_subquery_recomputes(server):
    server, sid = server
    sql = "SELECT k FROM t WHERE k = (SELECT max(k) FROM t)"
    assert rows(server.execute(sid, sql)) == [(3,)]
    server.execute(sid, "INSERT INTO t VALUES (7, 'seven')")
    assert rows(server.execute(sid, sql)) == [(7,)]


def test_view_reference_recomputes_across_executions(server):
    server, sid = server
    server.execute(sid, "CREATE VIEW big AS SELECT k, v FROM t WHERE k >= 2")
    sql = "SELECT count(*) AS n FROM big"
    assert rows(server.execute(sid, sql)) == [(2,)]
    assert rows(server.execute(sid, sql)) == [(2,)]
    server.execute(sid, "INSERT INTO t VALUES (8, 'eight')")
    assert rows(server.execute(sid, sql)) == [(3,)]


def test_placeholder_template_hits_plan_cache(server):
    # qmark templates are cached on the parsed template: re-executing with
    # different bound values rebinds the compiled plan instead of replanning
    server, sid = server
    metrics = server.engine_metrics
    misses_before = metrics.plan_misses
    hits_before = metrics.plan_hits
    result = server.execute(sid, "SELECT v FROM t WHERE k = ?", placeholders=[2])
    assert rows(result) == [("two",)]
    assert metrics.plan_misses == misses_before + 1
    result = server.execute(sid, "SELECT v FROM t WHERE k = ?", placeholders=[1])
    assert rows(result) == [("one",)]
    assert metrics.plan_hits == hits_before + 1


# ------------------------------------------------------------- invalidation


def test_ddl_invalidates_cached_plan(server):
    server, sid = server
    metrics = server.engine_metrics
    assert rows(server.execute(sid, "SELECT * FROM t WHERE k = 1")) == [(1, "one")]
    server.execute(sid, "DROP TABLE t")
    server.execute(
        sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(20), extra INT)"
    )
    server.execute(sid, "INSERT INTO t VALUES (1, 'one', 10)")
    base_invalidations = metrics.plan_invalidations
    assert rows(server.execute(sid, "SELECT * FROM t WHERE k = 1")) == [(1, "one", 10)]
    assert metrics.plan_invalidations == base_invalidations + 1


def test_temp_table_redirection_invalidates(server):
    server, sid = server
    server.execute(sid, "CREATE TABLE #t (k INT PRIMARY KEY, v VARCHAR(20))")
    server.execute(sid, "INSERT INTO #t VALUES (1, 'only')")
    sql = "SELECT count(*) AS n FROM #t"
    assert rows(server.execute(sid, sql)) == [(1,)]
    assert rows(server.execute(sid, sql)) == [(1,)]  # plan is hot now
    metrics = server.engine_metrics
    base_invalidations = metrics.plan_invalidations
    server.execute(sid, "DROP TABLE #t")
    server.execute(sid, "CREATE TABLE #t (k INT PRIMARY KEY, v VARCHAR(20))")
    # the hot plan was compiled against the *old* #t: it must be evicted
    assert rows(server.execute(sid, sql)) == [(0,)]
    assert metrics.plan_invalidations > base_invalidations


def test_recreated_temp_procedure_runs_its_new_body(server):
    """A session's temp procedure, dropped and re-created, runs its new
    body; in between, EXEC finds nothing."""
    server, sid = server
    server.execute(sid, "CREATE PROCEDURE #p () AS BEGIN SELECT v FROM t WHERE k = 1 END")
    assert rows(server.execute(sid, "EXEC #p")) == [("one",)]
    assert rows(server.execute(sid, "EXEC #p")) == [("one",)]  # hot
    server.execute(sid, "DROP PROCEDURE #p")
    with pytest.raises(repro.errors.CatalogError):
        server.execute(sid, "EXEC #p")
    server.execute(sid, "CREATE PROCEDURE #p () AS BEGIN SELECT v FROM t WHERE k = 3 END")
    assert rows(server.execute(sid, "EXEC #p")) == [("three",)]


def test_temp_recreate_with_different_schema(server):
    server, sid = server
    server.execute(sid, "CREATE TABLE #s (a INT PRIMARY KEY)")
    server.execute(sid, "INSERT INTO #s VALUES (1)")
    assert rows(server.execute(sid, "SELECT * FROM #s")) == [(1,)]
    server.execute(sid, "DROP TABLE #s")
    server.execute(sid, "CREATE TABLE #s (a INT PRIMARY KEY, b INT)")
    server.execute(sid, "INSERT INTO #s VALUES (1, 2)")
    assert rows(server.execute(sid, "SELECT * FROM #s")) == [(1, 2)]


# ------------------------------------------------- validity is per dependency
#
# A cached plan — of a ``?`` template or of a procedure body — is checked
# against what it resolved, not against a server-wide counter: DDL on
# anything else leaves it alone, DDL on its own tables and views recompiles
# it, and ``plan_invalidations`` counts exactly those.

#: how to run the cached SELECT: as a request's ``?`` template, as the body
#: of a procedure taking the value as a parameter, or as Phoenix's fill
#: procedure does (into a table that is a parameter too, and read back)
FORMS = {
    "template": "SELECT v FROM t WHERE k = ?",
    "procedure": "EXEC by_key ?",
    "fill procedure": "EXEC fill ?, ?",
}


@pytest.fixture(params=FORMS)
def hot_plan(request, server):
    """``run(k)`` executes the cached SELECT (its plans are hot on return)
    and answers ``(rows, plan hits, plan misses, invalidations)`` deltas."""
    server, sid = server
    server.execute(sid, "CREATE PROCEDURE by_key (@k) AS BEGIN SELECT v FROM t WHERE k = @k END")
    server.execute(
        sid,
        "CREATE PROCEDURE fill (@t, @k) AS BEGIN "
        "SELECT v INTO @t FROM t WHERE k = @k; SELECT * FROM @t END",
    )
    sql = FORMS[request.param]
    metrics = server.engine_metrics
    fills = request.param == "fill procedure"
    plans = 2 if fills else 1  # the fill and its read-back
    made = itertools.count()

    def run(k: int):
        before = (metrics.plan_hits, metrics.plan_misses, metrics.plan_invalidations)
        values = [f"out_{next(made)}", k] if fills else [k]  # a new result table every time
        result = rows(server.execute(sid, sql, placeholders=values))
        after = (metrics.plan_hits, metrics.plan_misses, metrics.plan_invalidations)
        return (result, *(b - a for a, b in zip(before, after)))

    assert run(1) == ([("one",)], 0, plans, 0)
    assert run(2) == ([("two",)], plans, 0, 0)
    run.plans, run.server, run.sid = plans, server, sid
    return run


def test_cached_plan_survives_ddl_on_anything_else(hot_plan):
    server, sid = hot_plan.server, hot_plan.sid
    other = server.connect()
    for ddl in (
        "CREATE TABLE unrelated (a INT PRIMARY KEY)",
        "CREATE INDEX on_unrelated ON unrelated (a)",
        "CREATE VIEW over_unrelated AS SELECT a FROM unrelated",
        "CREATE PROCEDURE unrelated_p AS BEGIN SELECT 1 END",
        "CREATE TABLE #mine (a INT)",
        "DROP VIEW over_unrelated",
        "DROP TABLE unrelated",
        "DROP PROCEDURE unrelated_p",
    ):
        server.execute(other if "#" not in ddl else sid, ddl)
        assert hot_plan(3) == ([("three",)], hot_plan.plans, 0, 0), ddl
    # a rolled-back CREATE of something else, too
    server.execute(other, "BEGIN TRANSACTION; CREATE TABLE gone (a INT); ROLLBACK")
    assert hot_plan(1) == ([("one",)], hot_plan.plans, 0, 0)


def test_cached_plan_survives_another_sessions_phoenix_materialisation():
    """Every Phoenix SELECT creates a result table, a template's first one a
    procedure, and close() drops them all: none of it is what a plain
    session's plan resolved."""
    system = repro.make_system()
    server = system.server
    plain = server.connect()
    server.execute(plain, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(20))")
    server.execute(plain, "INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    metrics = server.engine_metrics
    sql = "SELECT v FROM t WHERE k = ?"
    server.execute(plain, sql, placeholders=[1])

    def still_hot() -> None:
        before = (metrics.plan_hits, metrics.plan_invalidations)
        assert rows(server.execute(plain, sql, placeholders=[2])) == [("two",)]
        assert (metrics.plan_hits, metrics.plan_invalidations) == (before[0] + 1, before[1])

    connection = repro.connect(system)
    cursor = connection.cursor()
    for k in (1, 2, 1):
        assert len(cursor.execute(sql, [k]).fetchall()) == 1
        still_hot()
    assert metrics.plan_invalidations == 0
    connection.close()
    still_hot()


@pytest.mark.parametrize(
    "before, change",
    [
        (None, "DROP TABLE t; CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(20)); "
               "INSERT INTO t VALUES (3, 'three')"),
        (None, "CREATE INDEX t_v ON t (v)"),
        ("CREATE INDEX t_v ON t (v)", "DROP INDEX t_v"),
        (None, "BEGIN TRANSACTION; DROP TABLE t; ROLLBACK"),
    ],
    ids=["re-created", "create index", "drop index", "rolled-back drop"],
)
def test_cached_plan_is_recompiled_after_ddl_on_its_own_table(hot_plan, before, change):
    server, sid = hot_plan.server, hot_plan.sid
    if before:
        server.execute(sid, before)
        hot_plan(3), hot_plan(3)  # hot again, under the index
    server.execute(sid, change)
    # one plan is stale: the fill's read-back binds only the shape of the
    # table it is handed
    assert hot_plan(3) == ([("three",)], hot_plan.plans - 1, 1, 1)
    assert hot_plan(3) == ([("three",)], hot_plan.plans, 0, 0)


def test_cached_plan_follows_a_temp_table_that_starts_or_stops_shadowing(server):
    """A session's temp table hides a persistent table or view of its name.
    (It can only *start* to over a view: CREATE TABLE refuses the name of an
    existing table in either namespace.)"""
    server, sid = server
    other = server.connect()
    metrics = server.engine_metrics
    server.execute(sid, "CREATE VIEW x AS SELECT k FROM t WHERE k <= 2")
    server.execute(sid, "CREATE PROCEDURE count_x AS BEGIN SELECT count(*) FROM x END")
    forms = ("SELECT count(*) FROM x", "EXEC count_x")

    def counts(expected: int, invalidated: int) -> None:
        for sql in forms:
            before = metrics.plan_invalidations
            assert rows(server.execute(sid, sql)) == [(expected,)]
            assert metrics.plan_invalidations == before + invalidated
            assert rows(server.execute(sid, sql)) == [(expected,)]  # hot again
            assert metrics.plan_invalidations == before + invalidated

    counts(2, 0)
    server.execute(sid, "CREATE TEMPORARY TABLE x (k INT)")  # starts shadowing the view
    counts(0, 1)
    server.execute(other, "DROP VIEW x")
    server.execute(other, "CREATE TABLE x (k INT)")  # a persistent twin, still hidden
    server.execute(other, "INSERT INTO x VALUES (1), (2), (3)")
    counts(0, 0)
    server.execute(sid, "DROP TABLE x")  # the temp one: stops shadowing
    counts(3, 1)


def test_cached_plan_is_recompiled_after_a_rolled_back_create_of_its_table(server):
    server, sid = server
    metrics = server.engine_metrics
    sql = "SELECT count(*) FROM fresh"
    server.execute(sid, "BEGIN TRANSACTION")
    server.execute(sid, "CREATE TABLE fresh (a INT)")
    assert rows(server.execute(sid, sql)) == [(0,)]
    assert rows(server.execute(sid, sql)) == [(0,)]  # hot
    server.execute(sid, "ROLLBACK")
    invalidations = metrics.plan_invalidations
    with pytest.raises(repro.errors.CatalogError):
        server.execute(sid, sql)  # the plan's table is gone: not served stale
    assert metrics.plan_invalidations == invalidations + 1


def test_cached_plan_is_recompiled_after_its_view_is_redefined(server):
    server, sid = server
    metrics = server.engine_metrics
    server.execute(sid, "CREATE VIEW some AS SELECT k FROM t WHERE k <= 1")
    server.execute(sid, "CREATE PROCEDURE count_some AS BEGIN SELECT count(*) FROM some END")
    for sql in ("SELECT count(*) FROM some", "EXEC count_some"):
        assert rows(server.execute(sid, sql)) == [(1,)]
        assert rows(server.execute(sid, sql)) == [(1,)]  # hot
    server.execute(sid, "DROP VIEW some")
    server.execute(sid, "CREATE VIEW some AS SELECT k FROM t WHERE k <= 2")
    invalidations = metrics.plan_invalidations
    for done, sql in enumerate(("SELECT count(*) FROM some", "EXEC count_some"), start=1):
        assert rows(server.execute(sid, sql)) == [(2,)]
        assert metrics.plan_invalidations == invalidations + done
        assert rows(server.execute(sid, sql)) == [(2,)]
        assert metrics.plan_invalidations == invalidations + done


def test_read_back_plan_is_recompiled_for_a_table_of_another_shape(server):
    """``FROM @t`` binds the columns of the table it was compiled against: a
    table of the same shape reuses the plan, another shape recompiles it."""
    server, sid = server
    metrics = server.engine_metrics
    server.execute(sid, "CREATE PROCEDURE dump (@t) AS BEGIN SELECT * FROM @t END")
    server.execute(sid, "CREATE TABLE a (k INT PRIMARY KEY, v VARCHAR(20))")
    server.execute(sid, "CREATE TABLE b (k INT PRIMARY KEY, v VARCHAR(20))")
    server.execute(sid, "CREATE TABLE c (k INT PRIMARY KEY, v VARCHAR(20), w INT)")
    server.execute(sid, "INSERT INTO a VALUES (1, 'a')")
    server.execute(sid, "INSERT INTO b VALUES (2, 'b')")
    server.execute(sid, "INSERT INTO c VALUES (3, 'c', 0)")
    assert rows(server.execute(sid, "EXEC dump ?", placeholders=["a"])) == [(1, "a")]
    before = (metrics.plan_hits, metrics.plan_invalidations)
    assert rows(server.execute(sid, "EXEC dump ?", placeholders=["b"])) == [(2, "b")]
    assert (metrics.plan_hits, metrics.plan_invalidations) == (before[0] + 1, before[1])
    assert rows(server.execute(sid, "EXEC dump ?", placeholders=["c"])) == [(3, "c", 0)]
    assert (metrics.plan_hits, metrics.plan_invalidations) == (before[0] + 1, before[1] + 1)
    for bad in ("nowhere", "a b", 7, None):
        with pytest.raises(repro.errors.Error):
            server.execute(sid, "EXEC dump ?", placeholders=[bad])
    # ... and a table is created only under a name SQL could address
    server.execute(sid, "CREATE PROCEDURE copy_a (@t) AS BEGIN SELECT * INTO @t FROM a END")
    for bad in ("a b", "x; DROP TABLE a", "", 7):
        with pytest.raises(repro.errors.ProgrammingError):
            server.execute(sid, "EXEC copy_a ?", placeholders=[bad])
    server.execute(sid, "EXEC copy_a ?", placeholders=["a_copy"])
    assert rows(server.execute(sid, "SELECT * FROM a_copy")) == [(1, "a")]


def test_procedure_parameters_are_read_at_run_time(server):
    """One compiled body serves every call: typed parameters coerce, untyped
    ones pass the argument as it is, and a constant-looking conjunct over a
    parameter is not folded into the plan."""
    server, sid = server
    compiled = server.executor_stats.compiled_plans
    server.execute(sid, "CREATE PROCEDURE typed (@p INT) AS BEGIN SELECT k FROM t WHERE k < @p END")
    server.execute(sid, "CREATE PROCEDURE untyped (@p) AS BEGIN SELECT k FROM t WHERE k < @p END")
    server.execute(sid, "CREATE PROCEDURE gate (@on) AS BEGIN SELECT k FROM t WHERE @on = 1 END")
    for value in (2.5, 3, 1, 2.5):
        assert rows(server.execute(sid, "EXEC typed ?", placeholders=[value])) == [
            (k,) for k in (1, 2, 3) if k < int(value)
        ]
        assert rows(server.execute(sid, "EXEC untyped ?", placeholders=[value])) == [
            (k,) for k in (1, 2, 3) if k < value
        ]
    for on in (1, 0, 1):
        assert len(rows(server.execute(sid, "EXEC gate ?", placeholders=[on]))) == (3 if on else 0)
    assert server.executor_stats.compiled_plans == compiled + 3


# ------------------------------------------------- one cache per database
#
# A compiled plan holds no session: the first session to run a text compiles
# it, every later session runs the same plan with its own values, its own
# temp tables and its own memos, and the plan dies with its database.


def test_a_plan_compiled_by_one_session_serves_the_next(server):
    server, sid = server
    metrics, stats = server.engine_metrics, server.executor_stats
    sql = "SELECT v FROM t WHERE k = ?"
    assert rows(server.execute(sid, sql, placeholders=[1])) == [("one",)]
    compiled, hits = stats.compiled_plans, metrics.plan_hits
    for k, answer in ((2, "two"), (3, "three"), (1, "one")):
        other = server.connect()
        assert rows(server.execute(other, sql, placeholders=[k])) == [(answer,)]
        server.disconnect(other)
    assert (stats.compiled_plans, metrics.plan_hits) == (compiled, hits + 3)


def test_a_session_whose_temp_table_shadows_the_name_gets_a_plan_of_its_own(server):
    server, sid = server
    shadowing = server.connect()
    metrics, stats = server.engine_metrics, server.executor_stats
    server.execute(sid, "CREATE VIEW x AS SELECT k FROM t WHERE k <= 2")
    sql = "SELECT count(*) FROM x"
    assert rows(server.execute(sid, sql)) == [(2,)]
    server.execute(shadowing, "CREATE TEMPORARY TABLE x (k INT)")  # hides the view
    server.execute(shadowing, "INSERT INTO x VALUES (7)")
    invalidations = metrics.plan_invalidations
    assert rows(server.execute(shadowing, sql)) == [(1,)]
    assert metrics.plan_invalidations == invalidations + 1
    compiled, hits = stats.compiled_plans, metrics.plan_hits
    for _ in range(3):
        assert rows(server.execute(sid, sql)) == [(2,)]
        assert rows(server.execute(shadowing, sql)) == [(1,)]
    # each session keeps hitting its own plan: nothing evicted the other's
    assert (stats.compiled_plans, metrics.plan_hits) == (compiled, hits + 6)
    assert metrics.plan_invalidations == invalidations + 1


def test_a_procedure_body_is_compiled_once_across_sessions(server):
    server, sid = server
    other = server.connect()
    stats = server.executor_stats
    server.execute(sid, "CREATE PROCEDURE by_k (@k) AS BEGIN SELECT v FROM t WHERE k = @k END")
    compiled = stats.compiled_plans
    for session, k, answer in ((sid, 1, "one"), (other, 2, "two"), (other, 3, "three"), (sid, 2, "two")):
        assert rows(server.execute(session, "EXEC by_k ?", placeholders=[k])) == [(answer,)]
    assert stats.compiled_plans == compiled + 1


def test_a_procedure_whose_body_repeats_the_callers_text(server):
    """The request's statement and the body's are two parses of one text:
    two plans, each compiled once, each with its own values."""
    server, sid = server
    other = server.connect()
    stats, metrics = server.executor_stats, server.engine_metrics
    text = "SELECT v FROM t WHERE k <= 2 ORDER BY k"
    server.execute(sid, f"CREATE PROCEDURE same AS BEGIN {text} END")
    compiled = stats.compiled_plans
    for session in (sid, other, sid, other):
        assert rows(server.execute(session, f"EXEC same; {text}")) == [("one",), ("two",)]
        assert rows(server.execute(session, "EXEC same")) == [("one",), ("two",)]
    assert stats.compiled_plans == compiled + 2
    assert metrics.plan_invalidations == 0


def test_two_sessions_interleave_one_template_through_the_dispatcher():
    system = repro.make_system()
    setup = repro.connect(system, phoenix=False).cursor()
    setup.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    setup.executemany("INSERT INTO t VALUES (?, ?)", [[k, k * k] for k in range(40)])
    sql = "SELECT v FROM t WHERE k = ? OR k = ? ORDER BY v"
    setup.execute(sql, [0, 1])
    metrics = system.server.engine_metrics
    misses = metrics.plan_misses
    wrong: list = []
    start = threading.Barrier(2)

    def client(offset: int) -> None:
        cursor = repro.connect(system, phoenix=False).cursor()
        start.wait()
        for k in range(offset, 40, 2):
            answer = cursor.execute(sql, [k, 39 - k]).fetchall()
            if answer != sorted([(k * k,), ((39 - k) ** 2,)]):
                wrong.append((k, answer))

    threads = [threading.Thread(target=client, args=(offset,)) for offset in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert wrong == []
    assert metrics.plan_misses == misses  # forty executions, no compile
    system.close()


def test_a_table_that_grows_tenfold_recompiles_its_plans_once(server):
    """The join order read the row counts a compile saw: a table that grows
    or shrinks past GROWTH makes its plans stale; a small change does not."""
    server, sid = server
    metrics = server.engine_metrics
    sql = "SELECT count(*) FROM t a JOIN t b ON a.k = b.k"
    assert rows(server.execute(sid, sql)) == [(3,)]
    server.execute(sid, "INSERT INTO t VALUES (4, 'four')")  # 3 -> 4 rows
    before = (metrics.plan_hits, metrics.plan_invalidations)
    assert rows(server.execute(sid, sql)) == [(4,)]
    assert (metrics.plan_hits, metrics.plan_invalidations) == (before[0] + 1, before[1])
    values = ", ".join(f"({k}, 'v{k}')" for k in range(5, 41))
    server.execute(sid, f"INSERT INTO t VALUES {values}")  # 4 -> 40 rows
    invalidations = metrics.plan_invalidations
    assert rows(server.execute(sid, sql)) == [(40,)]
    assert metrics.plan_invalidations == invalidations + 1
    assert rows(server.execute(sid, sql)) == [(40,)]
    assert metrics.plan_invalidations == invalidations + 1
    server.execute(sid, "DELETE FROM t WHERE k > 10")  # 40 -> 10 rows: neither plan fits
    assert rows(server.execute(sid, sql)) == [(10,)]
    assert metrics.plan_invalidations == invalidations + 2
    assert GROWTH == 2


def test_an_as_of_plan_lives_and_dies_with_its_snapshot(monkeypatch):
    """The plan of an ``AS OF`` query hangs off the snapshot's reconstructed
    database: evicting the snapshot frees both without the collector."""
    monkeypatch.setattr(timetravel, "MAX_SNAPSHOTS", 1)
    server = DatabaseServer()
    sid = server.connect()
    server.execute(sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    server.execute(sid, "INSERT INTO t VALUES (1)")
    then = server.time_travel.clock.now()
    server.execute(sid, "INSERT INTO t VALUES (2)")
    later = server.time_travel.clock.now()
    metrics = server.engine_metrics
    sql = f"SELECT count(*) FROM t AS OF {then!r}"
    assert rows(server.execute(sid, sql)) == [(1,)]
    hits = metrics.plan_hits
    assert rows(server.execute(sid, sql)) == [(1,)]
    assert metrics.plan_hits == hits + 1
    snapshot = server.time_travel.snapshot_at(then)
    assert len(snapshot.database.plans) == 1 and len(server.database.plans) == 0
    gc.collect()
    gc.disable()
    try:
        database = weakref.ref(snapshot.database)
        del snapshot
        # another cut evicts the only snapshot kept
        assert rows(server.execute(sid, f"SELECT count(*) FROM t AS OF {later!r}")) == [(2,)]
        assert database() is None
    finally:
        gc.enable()


def _reachable(root) -> list:
    """Every object ``root`` holds, transitively — through a function's
    closure and defaults, not its module's globals."""
    seen: set[int] = set()
    found, stack = [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    pass
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


#: a ``?`` template with what a run keeps per execution or per session: an
#: uncorrelated subquery, a derived table and a view (memos), ``rowcount()``,
#: and grouping and ordering (the rows ORDER BY reads)
SHARED_SQL = (
    "SELECT d.v, count(*) AS n FROM (SELECT k, v FROM t WHERE k >= ?) d "
    "JOIN low ON low.k = d.k WHERE d.k IN (SELECT k FROM t WHERE v <> ?) "
    "AND rowcount() >= 0 GROUP BY d.v ORDER BY n DESC, d.v"
)


def _shared_plan(server, sid):
    server.execute(sid, "CREATE VIEW low AS SELECT k FROM t WHERE k < 40")
    server.execute(sid, f"INSERT INTO t VALUES {', '.join(f'({k}, {chr(97 + k % 5)!r})' for k in range(4, 60))}")
    server.execute(sid, SHARED_SQL, placeholders=[0, "a"])
    (stmt,) = server._parse(SHARED_SQL)
    return stmt, server.database.plans.lookup(
        stmt, lambda name: server.executor_for(sid)._binding(name, {}), server.engine_metrics
    )


def test_a_cached_plan_holds_no_session(server):
    server, sid = server
    _stmt, plan = _shared_plan(server, sid)
    assert plan is not None
    held = _reachable(plan)
    kinds = {type(obj).__name__ for obj in held}
    assert not kinds & {"Executor", "Session", "RunContext", "_Planner", "DatabaseServer"}, kinds
    assert not any(isinstance(obj, Database) for obj in held)


def test_one_cached_plan_runs_on_two_threads_at_once(server):
    """Threads — more than the cores, two sessions — call one cached plan's
    run directly, each with contexts of its own session and values, under a
    tiny switch interval: every answer is a fresh compile's."""
    server, sid = server
    stmt, plan = _shared_plan(server, sid)
    executors = [server.executor_for(sid), server.executor_for(server.connect())]
    bindings = [[low, letter] for low in (0, 5, 20, 38) for letter in "abz"]
    expected = {
        (index, tuple(values)): executor_module._compile(
            executor_module._Planner(executor, {}), stmt, None
        ).run(Env([], run=RunContext(executor, values, {}))).rows
        for index, executor in enumerate(executors)
        for values in bindings
    }
    assert len({tuple(answer) for answer in expected.values()}) > len(bindings) // 2
    wrong: list = []
    runs = [0] * 4

    def hammer(worker: int, deadline: float) -> None:
        index = worker % 2
        executor = executors[index]
        while time.monotonic() < deadline:
            for values in bindings[worker::4] + bindings[(worker + 1) % 4 :: 4]:
                got = plan.run(Env([], run=RunContext(executor, values, {}))).rows
                runs[worker] += 1
                if got != expected[(index, tuple(values))]:
                    wrong.append((worker, values, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 0.5
        threads = [threading.Thread(target=hammer, args=(i, deadline)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert min(runs) > 0


# ---------------------------------------------------------------- volatility


def test_caches_rebuild_cold_after_crash(server):
    server, sid = server
    metrics = server.engine_metrics
    server.execute(sid, "CHECKPOINT")
    server.execute(sid, "SELECT v FROM t WHERE k = 1")
    server.execute(sid, "SELECT v FROM t WHERE k = 1")
    assert metrics.parse_hits > 0
    server.crash()
    assert server._parse_cache is None
    server.restart()
    sid = server.connect()
    base_misses = metrics.parse_misses
    server.execute(sid, "SELECT v FROM t WHERE k = 1")
    # same SQL text that used to hit now misses: the cache started cold
    assert metrics.parse_misses == base_misses + 1


def test_a_crashed_engine_is_freed_without_the_collector():
    """Compiled plans hold their tables and their executor, which holds
    them; ``crash()`` empties the caches first, so the dead engine goes by
    reference count (``peak_rss_mb`` of a crashing workload used to depend
    on when the collector ran)."""
    system = repro.make_system()
    plain = repro.connect(system, phoenix=False).cursor()
    plain.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(20))")
    plain.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    phoenix = repro.connect(system).cursor()
    for cursor in (plain, phoenix):
        for k in (1, 2, 1):  # the third execution runs cached plans
            assert cursor.execute("SELECT v FROM t WHERE k = ?", [k]).fetchall()
    assert system.server.engine_metrics.plan_hits >= 4
    gc.collect()
    gc.disable()
    try:
        database = weakref.ref(system.server.database)
        table = weakref.ref(system.server.database.tables["t"])
        system.server.crash()
        system.server.restart()
        assert database() is None and table() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------- procedure cache


def test_exec_after_create_parses_nothing(server, parsed_texts):
    server, sid = server
    server.execute(sid, "CREATE PROCEDURE p AS BEGIN SELECT v FROM t WHERE k = 2 END")
    del parsed_texts[:]
    assert rows(server.execute(sid, "EXEC p")) == [("two",)]
    assert parsed_texts == ["EXEC p"]  # the request; not the stored text


def test_procedure_cache_stays_bounded_over_create_exec_drop_cycles(server):
    server, sid = server
    cache = server.database.procedure_parses
    for i in range(1000):
        server.execute(sid, f"CREATE PROCEDURE p{i} AS BEGIN SELECT {i} END")
        assert rows(server.execute(sid, f"EXEC p{i}")) == [(i,)]
        server.execute(sid, f"DROP PROCEDURE p{i}")
        assert len(cache) == 0  # DROP forgets the parse with the procedure
    # procedures that are never dropped are bounded by the capacity
    for i in range(PROC_CACHE_CAPACITY + 10):
        server.execute(sid, f"CREATE PROCEDURE #q{i} AS BEGIN SELECT {i} END")
    assert len(cache) == PROC_CACHE_CAPACITY
    assert rows(server.execute(sid, "EXEC #q0")) == [(0,)]  # evicted: parsed cold


def test_recreated_procedure_runs_its_new_body(server):
    server, sid = server
    other = server.connect()
    server.execute(sid, "CREATE PROCEDURE p AS BEGIN SELECT v FROM t WHERE k = 1 END")
    assert rows(server.execute(sid, "EXEC p")) == [("one",)]
    assert rows(server.execute(other, "EXEC p")) == [("one",)]
    # dropped and re-created on ANOTHER session: this session's cache still
    # holds the old parse, under the old text — which nothing looks up any more
    server.execute(other, "DROP PROCEDURE p")
    server.execute(other, "CREATE PROCEDURE p AS BEGIN SELECT v FROM t WHERE k = 3 END")
    assert rows(server.execute(sid, "EXEC p")) == [("three",)]
    assert rows(server.execute(other, "EXEC p")) == [("three",)]


def test_rolled_back_create_procedure_leaves_no_cached_parse(server):
    server, sid = server
    cache = server.database.procedure_parses
    server.execute(sid, "BEGIN TRANSACTION")
    server.execute(sid, "CREATE PROCEDURE p AS BEGIN SELECT 1 END")
    assert len(cache) == 1
    server.execute(sid, "ROLLBACK")
    assert len(cache) == 0
    # an aborted autocommit statement: EXEC outer creates inner, then fails
    server.execute(
        sid,
        "CREATE PROCEDURE outer_p AS BEGIN "
        "CREATE PROCEDURE inner_p AS BEGIN SELECT 1 END; SELECT 1 / 0 END",
    )
    with pytest.raises(repro.errors.Error):
        server.execute(sid, "EXEC outer_p")
    assert len(cache) == 1  # outer_p only
    # the same failure as one statement of an explicit transaction
    server.execute(sid, "BEGIN TRANSACTION")
    with pytest.raises(repro.errors.Error):
        server.execute(sid, "EXEC outer_p")
    assert len(cache) == 1
    server.execute(sid, "COMMIT")
    with pytest.raises(repro.errors.CatalogError):
        server.execute(sid, "EXEC inner_p")


def test_surviving_procedure_is_parsed_cold_after_crash(server, parsed_texts):
    server, sid = server
    server.execute(sid, "CREATE PROCEDURE p AS BEGIN SELECT v FROM t WHERE k <= 2 ORDER BY k END")
    before = rows(server.execute(sid, "EXEC p"))
    stored = server.database.procedures["p"]
    server.crash()
    server.restart()
    sid = server.connect()
    del parsed_texts[:]
    assert rows(server.execute(sid, "EXEC p")) == before == [("one",), ("two",)]
    # the cache died with the session: the catalog text is parsed again...
    assert parsed_texts == ["EXEC p", stored]
    del parsed_texts[:]
    server.execute(sid, "EXEC p")
    assert parsed_texts == []  # ...once


# ---------------------------------------------------------------- fast paths


def test_like_to_regex_is_memoized():
    first = like_to_regex("abc%", None)
    second = like_to_regex("abc%", None)
    assert first is second
    assert first.match("abcdef")
    assert not first.match("abX")


def test_constant_false_is_folded_in_explain(server):
    server, sid = server
    result = server.execute(sid, "EXPLAIN SELECT * FROM t WHERE 0 = 1")
    plan_lines = [r[0] for r in rows(result)]
    assert any("ConstantFilter" in line for line in plan_lines)
    assert rows(server.execute(sid, "SELECT * FROM t WHERE 0 = 1")) == []


def test_folded_plan_skips_scan_but_repeats_correctly(server):
    server, sid = server
    sql = "SELECT k FROM t WHERE 1 = 2"
    assert rows(server.execute(sid, sql)) == []
    assert rows(server.execute(sid, sql)) == []


def test_rowcount_conjunct_is_not_folded(server):
    server, sid = server
    sql = "SELECT k FROM t WHERE rowcount() = 1"
    server.execute(sid, "UPDATE t SET v = 'uno' WHERE k = 1")  # rowcount -> 1
    assert len(rows(server.execute(sid, sql))) == 3
    server.execute(sid, "UPDATE t SET v = 'x' WHERE k < 3")  # rowcount -> 2
    assert rows(server.execute(sid, sql)) == []


def test_division_by_zero_still_raises_at_run_time(server):
    server, sid = server
    with pytest.raises(Exception):
        server.execute(sid, "SELECT k FROM t WHERE 1 / 0 = 1")


# --------------------------------------------------------------- cow storage


def _schema() -> TableSchema:
    return TableSchema(
        name="cow",
        columns=(
            Column("k", SqlType.INT),
            Column("v", SqlType.VARCHAR, length=10),
        ),
        primary_key=("k",),
    )


def test_snapshot_isolates_structure():
    data = TableData(schema=_schema(), rows={1: (1, "a")}, next_rowid=2)
    snap = data.snapshot()
    data.rows[2] = (2, "b")
    data.next_rowid = 3
    assert snap.rows == {1: (1, "a")}
    assert snap.next_rowid == 2


def test_storage_roundtrip_is_isolated():
    storage = InMemoryStableStorage()
    data = TableData(schema=_schema(), rows={1: (1, "a")}, next_rowid=2)
    storage.write_table_file("cow", data)
    data.rows[1] = (1, "mutated")
    read = storage.read_table_file("cow")
    assert read.rows[1] == (1, "a")
    read.rows[1] = (1, "changed")
    assert storage.read_table_file("cow").rows[1] == (1, "a")


# -------------------------------------------------------------------- units


def test_lru_cache_evicts_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh a
    cache.put("c", 3)  # evicts b
    assert "b" not in cache
    assert cache.get("a") == 1 and cache.get("c") == 3


def test_plan_cache_counts_invalidation_and_miss():
    metrics = EngineMetrics()
    cache = PlanCache()
    stmt = object()
    table, recreated = object(), object()
    cache.store(stmt, [("t", table)], "runner")
    assert cache.lookup(stmt, {"t": table}.get, metrics) == "runner"
    assert cache.lookup(stmt, {"t": recreated}.get, metrics) is None
    assert metrics.plan_invalidations == 1
    assert metrics.plan_hits == 1
    assert metrics.plan_misses == 1
    # the plan stays for the sessions that still resolve ``t`` to ``table``
    assert len(cache) == 1
    assert cache.lookup(stmt, {"t": table}.get, metrics) == "runner"


def test_parse_cache_returns_same_objects():
    cache = LRUCache(PARSE_CACHE_CAPACITY)
    stmts = (object(), object())
    cache.put("SELECT 1", stmts)
    got = cache.get("SELECT 1")
    assert got[0] is stmts[0] and got[1] is stmts[1]
