"""Phoenix/ODBC in the absence of failures: full transparency.

Paper §3: "the application program does not detect a difference between
Phoenix/ODBC and a database vendor supplied ODBC driver in the absence of a
database system crash" — so every test here runs the same statements through
both managers and demands identical observable behaviour.
"""

from __future__ import annotations

import pytest

from repro.errors import CatalogError, ProgrammingError
from repro.odbc.constants import CursorType, StatementAttr

SETUP = [
    "CREATE TABLE customer (c_id INT PRIMARY KEY, c_name VARCHAR(20), c_bal FLOAT)",
    "INSERT INTO customer VALUES (1, 'Smith', 10.0), (2, 'Jones', 20.0), (3, 'Smith', 30.0)",
]


@pytest.fixture()
def both(system):
    plain = system.plain.connect(system.DSN)
    phoenix = system.phoenix.connect(system.DSN)
    cur = plain.cursor()
    for sql in SETUP:
        cur.execute(sql)
    yield plain, phoenix
    for connection in (plain, phoenix):
        if not connection.closed:
            connection.close()


def run_both(both, sql, fetch=True):
    plain, phoenix = both
    a = plain.cursor().execute(sql)
    b = phoenix.cursor().execute(sql)
    if fetch:
        return a.fetchall(), b.fetchall()
    return a, b


@pytest.mark.parametrize("sql", [
    "SELECT * FROM customer ORDER BY c_id",
    "SELECT c_name, count(*) FROM customer GROUP BY c_name ORDER BY c_name",
    "SELECT c_name, sum(c_bal) AS total FROM customer GROUP BY c_name HAVING sum(c_bal) > 15 ORDER BY total",
    "SELECT DISTINCT c_name FROM customer ORDER BY c_name",
    "SELECT * FROM customer WHERE c_bal BETWEEN 15 AND 35 ORDER BY c_id",
    "SELECT a.c_id, b.c_id FROM customer a, customer b WHERE a.c_name = b.c_name AND a.c_id < b.c_id",
    "SELECT c_id FROM customer WHERE c_bal > (SELECT avg(c_bal) FROM customer) ORDER BY c_id",
    "SELECT upper(c_name), c_bal * 2 FROM customer ORDER BY c_id",
])
def test_query_results_identical(both, sql):
    native_rows, phoenix_rows = run_both(both, sql)
    assert native_rows == phoenix_rows


def test_description_identical(both):
    plain, phoenix = both
    sql = "SELECT c_id, c_name AS who, c_bal + 1 AS bal1 FROM customer"
    a = plain.cursor().execute(sql)
    b = phoenix.cursor().execute(sql)
    assert [d[0] for d in a.description] == [d[0] for d in b.description]


def test_dml_rowcounts_identical(system, both):
    plain, phoenix = both
    a = plain.cursor()
    b = phoenix.cursor()
    a.execute("UPDATE customer SET c_bal = c_bal + 1 WHERE c_name = 'Smith'")
    count_plain = a.rowcount
    b.execute("UPDATE customer SET c_bal = c_bal - 1 WHERE c_name = 'Smith'")
    assert count_plain == b.rowcount == 2


def test_duplicate_key_error_surfaces_identically(both):
    plain, phoenix = both
    from repro.errors import IntegrityError

    for connection in (plain, phoenix):
        with pytest.raises(IntegrityError):
            connection.cursor().execute("INSERT INTO customer VALUES (1, 'dup', 0.0)")


def test_sql_error_surfaces(both):
    _plain, phoenix = both
    with pytest.raises(CatalogError):
        phoenix.cursor().execute("SELECT * FROM nonexistent")


def test_transactions_behave_identically(both):
    plain, phoenix = both
    for connection in (plain, phoenix):
        cur = connection.cursor()
        connection.begin()
        cur.execute("INSERT INTO customer VALUES (100, 'tx', 0.0)")
        connection.rollback()
        cur.execute("SELECT count(*) FROM customer WHERE c_id = 100")
        assert cur.fetchone() == (0,)
        connection.begin()
        cur.execute("INSERT INTO customer VALUES (100, 'tx', 0.0)")
        connection.commit()
        cur.execute("SELECT count(*) FROM customer WHERE c_id = 100")
        assert cur.fetchone() == (1,)
        cur.execute("DELETE FROM customer WHERE c_id = 100")


def test_queries_inside_transaction_pass_through(system, both):
    _plain, phoenix = both
    materialized_before = phoenix.stats.queries_materialized
    phoenix.begin()
    cur = phoenix.cursor()
    cur.execute("SELECT * FROM customer")
    assert len(cur.fetchall()) == 3
    phoenix.commit()
    assert phoenix.stats.queries_materialized == materialized_before


def test_temp_table_usage_is_transparent(both):
    plain, phoenix = both
    for connection in (plain, phoenix):
        cur = connection.cursor()
        cur.execute("CREATE TABLE #scratch (x INT)")
        cur.execute("INSERT INTO #scratch VALUES (1), (2)")
        cur.execute("SELECT sum(x) FROM #scratch")
        assert cur.fetchone() == (3,)
        cur.execute("DROP TABLE #scratch")
        with pytest.raises((CatalogError, ProgrammingError)):
            cur.execute("SELECT * FROM #scratch")


def test_phoenix_temp_table_redirected_to_persistent(system, both):
    _plain, phoenix = both
    cur = phoenix.cursor()
    cur.execute("CREATE TABLE #scratch (x INT)")
    redirected = phoenix.temp_table_map["#scratch"]
    assert not redirected.startswith("#")
    assert redirected in system.server.table_names()
    cur.execute("DROP TABLE #scratch")
    assert redirected not in system.server.table_names()


def test_temp_procedure_redirected(system, both):
    _plain, phoenix = both
    cur = phoenix.cursor()
    cur.execute("CREATE TABLE #w (x INT)")
    cur.execute("CREATE PROCEDURE #fill AS INSERT INTO #w VALUES (42)")
    cur.execute("EXEC #fill")
    cur.execute("SELECT x FROM #w")
    assert cur.fetchone() == (42,)
    cur.execute("DROP PROCEDURE #fill")
    with pytest.raises(CatalogError):
        cur.execute("EXEC #fill")


def test_set_option_recorded_and_forwarded(system, both):
    _plain, phoenix = both
    phoenix.cursor().execute("SET app_mode 'strict'")
    assert ("app_mode", "strict") in phoenix.set_log
    app_session = system.server.sessions[phoenix.app.session_id]
    assert app_session.options["app_mode"] == "strict"


def test_set_statement_through_cursor_recorded(both):
    _plain, phoenix = both
    phoenix.cursor().execute("SET verbosity 2")
    assert ("verbosity", 2) in phoenix.set_log


def test_close_cleans_up_phoenix_objects(system):
    phoenix = system.phoenix.connect(system.DSN)
    cur = phoenix.cursor()
    cur.execute("CREATE TABLE base (k INT PRIMARY KEY)")
    cur.execute("INSERT INTO base VALUES (1), (2)")
    cur.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 1)
    cur.execute("SELECT * FROM base")  # above one block: a result table
    cur.execute("CREATE TABLE #w (x INT)")  # redirected temp
    assert any(name.startswith("phx_") for name in system.server.table_names())
    phoenix.close()
    assert not any(name.startswith("phx_") for name in system.server.table_names())
    assert phoenix.app.closed


def test_phoenix_uses_one_server_session(system):
    phoenix = system.phoenix.connect(system.DSN)
    assert len(system.server.sessions) == 1
    phoenix.close()
    assert len(system.server.sessions) == 0


def test_proxy_temp_table_exists_on_app_session_only(system):
    phoenix = system.phoenix.connect(system.DSN)
    assert list(system.server.sessions) == [phoenix.app.session_id]
    app_session = system.server.sessions[phoenix.app.session_id]
    assert "#phx_proxy" in app_session.temp_tables
    phoenix.close()


def test_cursor_close_releases_result_state(system, both):
    _plain, phoenix = both
    cur = phoenix.cursor()
    cur.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 2)  # 3 rows: materialized
    cur.execute("SELECT * FROM customer")
    state = cur._state
    assert state.open
    cur.close()
    assert not state.open


def test_multiple_cursors_independent(both):
    _plain, phoenix = both
    c1 = phoenix.cursor()
    c2 = phoenix.cursor()
    c1.execute("SELECT c_id FROM customer ORDER BY c_id")
    c2.execute("SELECT c_name FROM customer ORDER BY c_id")
    assert c1.fetchone() == (1,)
    assert c2.fetchone() == ("Smith",)
    assert c1.fetchone() == (2,)


def test_rows_read_counter(both):
    _plain, phoenix = both
    cur = phoenix.cursor()
    cur.execute("SELECT * FROM customer")
    cur.fetchmany(2)
    assert cur.rows_read == 2


def test_keyset_cursor_through_phoenix(both):
    plain, phoenix = both
    cur = phoenix.cursor()
    cur.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    cur.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 2)
    cur.execute("SELECT c_id, c_name FROM customer")
    assert cur.effective_cursor_type == CursorType.KEYSET
    assert [r[0] for r in cur.fetchall()] == [1, 2, 3]
    assert phoenix.stats.cursors_materialized == 1


def test_keyset_downgrades_on_join(both):
    _plain, phoenix = both
    cur = phoenix.cursor()
    cur.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    cur.execute("SELECT a.c_id FROM customer a JOIN customer b ON a.c_id = b.c_id")
    assert cur.effective_cursor_type == CursorType.FORWARD_ONLY
    assert len(cur.fetchall()) == 3
