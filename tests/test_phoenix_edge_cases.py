"""Phoenix edge cases: configuration ablations, error paths, placeholders,
SELECT INTO, EXEC wrapping, and cursor corner cases."""

from __future__ import annotations

import pytest

from repro.errors import IntegrityError, ProgrammingError
from repro.net import FaultKind
from repro.odbc.constants import CursorType, StatementAttr


@pytest.fixture()
def ready(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10))")
    cur.execute("INSERT INTO t VALUES " + ", ".join(f"({i}, 'v{i}')" for i in range(1, 21)))
    return system, phoenix_conn, cur


# ---------------------------------------------------------------- error paths

def test_sql_error_leaves_connection_usable(ready):
    _system, conn, cur = ready
    with pytest.raises(IntegrityError):
        cur.execute("INSERT INTO t VALUES (1, 'dup')")
    cur.execute("INSERT INTO t VALUES (100, 'ok')")
    assert cur.rowcount == 1
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (21,)


def test_consecutive_sql_errors(ready):
    _system, conn, cur = ready
    for _ in range(3):
        with pytest.raises(IntegrityError):
            cur.execute("INSERT INTO t VALUES (1, 'dup')")
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (20,)


def test_error_in_wrapped_ddl(ready):
    _system, conn, cur = ready
    from repro.errors import CatalogError

    with pytest.raises(CatalogError):
        cur.execute("CREATE TABLE t (k INT)")  # exists
    cur.execute("CREATE TABLE t2 (k INT)")  # wrapper txn was cleaned up


def test_drop_unknown_temp_table(ready):
    _system, conn, cur = ready
    with pytest.raises(ProgrammingError):
        cur.execute("DROP TABLE #never_created")


def test_begin_twice_rejected(ready):
    _system, conn, cur = ready
    conn.begin()
    with pytest.raises(ProgrammingError):
        conn.begin()
    conn.rollback()


def test_commit_without_begin_rejected(ready):
    _system, conn, cur = ready
    with pytest.raises(ProgrammingError):
        conn.commit()


# ---------------------------------------------------------------- placeholders

def test_placeholders_through_phoenix_query(ready):
    _system, conn, cur = ready
    cur.execute("SELECT v FROM t WHERE k = ?", [7])
    assert cur.fetchone() == ("v7",)


def test_placeholders_through_phoenix_dml(ready):
    system, conn, cur = ready
    cur.execute("INSERT INTO t VALUES (?, ?)", [500, "via-ph"])
    assert cur.rowcount == 1
    cur.execute("SELECT v FROM t WHERE k = 500")
    assert cur.fetchone() == ("via-ph",)


def test_placeholder_dml_survives_crash(ready):
    system, conn, cur = ready
    system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "600")
    cur.execute("INSERT INTO t VALUES (?, ?)", [600, "crash"])
    assert cur.rowcount == 1
    cur.execute("SELECT count(*) FROM t WHERE k = 600")
    assert cur.fetchone() == (1,)


# ---------------------------------------------------------------- other statements

def test_select_into_through_phoenix(ready):
    _system, conn, cur = ready
    cur.execute("SELECT k, v INTO snapshot FROM t WHERE k <= 3")
    assert cur.rowcount == 3
    cur.execute("SELECT count(*) FROM snapshot")
    assert cur.fetchone() == (3,)


def test_select_into_temp_through_phoenix(ready):
    system, conn, cur = ready
    cur.execute("SELECT k INTO #snap FROM t WHERE k <= 5")
    cur.execute("SELECT count(*) FROM #snap")
    assert cur.fetchone() == (5,)
    # redirected, hence persistent on the server
    assert conn.temp_table_map.get("#snap") is None or True


def test_exec_wrapped_with_status(ready):
    system, conn, cur = ready
    cur.execute("CREATE PROCEDURE bump (@k INT) AS UPDATE t SET v = 'bumped' WHERE k = @k")
    system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "EXEC bump")
    cur.execute("EXEC bump 3")
    cur.execute("SELECT v FROM t WHERE k = 3")
    assert cur.fetchone() == ("bumped",)
    # exactly once: the probe resolved the lost reply
    assert conn.stats.probe_hits >= 1


def test_checkpoint_passthrough(ready):
    _system, conn, cur = ready
    cur.execute("CHECKPOINT")
    assert any("CHECKPOINT" in m for m in cur.messages)


def test_batch_through_phoenix(ready):
    _system, conn, cur = ready
    cur.execute("INSERT INTO t VALUES (300, 'a'); SELECT v FROM t WHERE k = 300")
    assert cur.fetchone() == ("a",)


# ---------------------------------------------------------------- cursors

def test_keyset_with_order_by(ready):
    _system, conn, cur = ready
    ks = conn.cursor()
    ks.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    ks.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 4)
    ks.execute("SELECT k FROM t WHERE k <= 10 ORDER BY k DESC")
    assert [r[0] for r in ks.fetchall()] == list(range(10, 0, -1))


def test_dynamic_with_order_by_downgrades(ready):
    _system, conn, cur = ready
    dyn = conn.cursor()
    dyn.set_attr(StatementAttr.CURSOR_TYPE, CursorType.DYNAMIC)
    dyn.execute("SELECT k FROM t ORDER BY k DESC")
    assert dyn.effective_cursor_type == CursorType.FORWARD_ONLY
    assert [r[0] for r in dyn.fetchall()] == list(range(20, 0, -1))


def test_keyset_empty_result(ready):
    _system, conn, cur = ready
    ks = conn.cursor()
    ks.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    ks.execute("SELECT k FROM t WHERE k > 1000")
    assert ks.fetchall() == []


def test_keyset_all_rows_deleted_mid_cursor(ready):
    _system, conn, cur = ready
    ks = conn.cursor()
    ks.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    ks.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 5)
    ks.execute("SELECT k, v FROM t WHERE k <= 10")
    ks.fetchmany(5)
    cur.execute("DELETE FROM t WHERE k BETWEEN 6 AND 10")
    assert ks.fetchall() == []  # nothing but holes left


def test_empty_result_set_fetch(ready):
    _system, conn, cur = ready
    cur.execute("SELECT * FROM t WHERE 0 = 1")
    assert cur.fetchall() == []
    assert cur.fetchone() is None
    assert cur.description is not None  # metadata still present


def test_fetch_on_ddl_returns_nothing(ready):
    _system, conn, cur = ready
    cur.execute("CREATE TABLE other (x INT)")
    assert cur.fetchall() == []


def test_result_with_duplicate_output_names(ready):
    """sum(v)-style duplicate column names must materialize fine."""
    _system, conn, cur = ready
    cur.execute("SELECT count(*), count(*) FROM t")
    assert cur.fetchone() == (20, 20)
    assert [d[0] for d in cur.description] == ["count", "count"]


@pytest.mark.parametrize("stack", ["plain", "phoenix"])
@pytest.mark.parametrize(
    "sql, names, rows",
    [
        # the uniquifier used to mint ``count_2`` for the third column, which
        # the explicit alias already holds: CatalogError through Phoenix only
        (
            "SELECT count(*) AS count_2, count(*), count(*) FROM t",
            ["count_2", "count", "count"],
            [(20, 20, 20)],
        ),
        (
            "SELECT count(*), count(*), count(*) AS count_2 FROM t",
            ["count", "count", "count_2"],
            [(20, 20, 20)],
        ),
        (
            "SELECT * FROM t x JOIN t y ON x.k = y.k WHERE x.k = 7",
            ["k", "v", "k", "v"],
            [(7, "v7", 7, "v7")],
        ),
    ],
    ids=["alias-first", "alias-last", "join-star"],
)
def test_duplicate_output_names_answer_on_both_stacks(ready, stack, sql, names, rows):
    system, phoenix, _cur = ready
    conn = phoenix if stack == "phoenix" else system.plain.connect(system.DSN)
    cur = conn.cursor()
    cur.execute(sql)
    assert [d[0] for d in cur.description] == names
    assert cur.fetchall() == rows
    conn.close()


def test_result_with_keyword_column_name(ready):
    _system, conn, cur = ready
    cur.execute("SELECT k AS key, count(*) AS count FROM t GROUP BY k ORDER BY k LIMIT 1")
    assert cur.fetchone() == (1, 1)
