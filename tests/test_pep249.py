"""PEP 249 (DB-API 2.0) conformance for the module-level front door.

``repro`` itself is the driver module: ``repro.connect(dsn)``, the three
module globals, and the full error hierarchy at top level.  Both connection
flavours (Phoenix and plain) expose the same DB-API surface; the tests run
the shared parts against both so the front door stays honest whichever
switch the application picks.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    DatabaseError,
    Error,
    InterfaceError,
    OperationalError,
    ProgrammingError,
)

# ---------------------------------------------------------------- module shape


def test_module_globals():
    assert repro.apilevel == "2.0"
    # threads may share the module but not connections (each connection's
    # cursors/txn-log/recovery state is not internally locked)
    assert repro.threadsafety == 1
    assert repro.paramstyle == "qmark"


def test_error_hierarchy_at_module_level():
    assert issubclass(repro.Warning, Exception)
    assert issubclass(repro.Error, Exception)
    assert issubclass(repro.InterfaceError, repro.Error)
    assert issubclass(repro.DatabaseError, repro.Error)
    for leaf in (
        repro.DataError,
        repro.OperationalError,
        repro.IntegrityError,
        repro.InternalError,
        repro.ProgrammingError,
        repro.NotSupportedError,
    ):
        assert issubclass(leaf, repro.DatabaseError)


def test_connect_by_dsn_string(system):
    conn = repro.connect(system.DSN)
    try:
        cursor = conn.cursor()
        cursor.execute("SELECT 1")
        assert cursor.fetchone() == (1,)
    finally:
        conn.close()


def test_connect_unknown_dsn_raises_interface_error():
    with pytest.raises(InterfaceError):
        repro.connect("no-such-dsn-ever-registered")


def test_connect_phoenix_flag_selects_stack(system):
    persistent = repro.connect(system, phoenix=True)
    plain = repro.connect(system, phoenix=False)
    try:
        assert isinstance(persistent, repro.PhoenixConnection)
        assert isinstance(plain, repro.Connection)
    finally:
        persistent.close()
        plain.close()


def test_errors_reachable_as_connection_attributes(system):
    conn = repro.connect(system)
    try:
        # multi-driver code writes `except conn.Error:` without importing
        # the driver module (PEP 249 optional extension)
        assert conn.Error is Error
        assert conn.InterfaceError is InterfaceError
        assert conn.DatabaseError is DatabaseError
        assert conn.ProgrammingError is ProgrammingError
        assert conn.OperationalError is OperationalError
    finally:
        conn.close()


# -------------------------------------------------------------- both flavours


@pytest.fixture(params=["phoenix", "plain"])
def conn(request, system):
    connection = repro.connect(system, phoenix=request.param == "phoenix")
    yield connection
    if not connection.closed:
        connection.close()


def test_qmark_binding_roundtrip(conn):
    cursor = conn.cursor()
    cursor.execute("CREATE TABLE q (k INT PRIMARY KEY, v VARCHAR(20))")
    cursor.execute("INSERT INTO q VALUES (?, ?)", [1, "one"])
    cursor.execute("SELECT v FROM q WHERE k = ?", [1])
    assert cursor.fetchall() == [("one",)]


def test_executemany_binds_each_row(conn):
    cursor = conn.cursor()
    cursor.execute("CREATE TABLE em (k INT PRIMARY KEY, v INT)")
    cursor.executemany("INSERT INTO em VALUES (?, ?)", [[i, i * 10] for i in range(5)])
    assert cursor.rowcount == 5
    cursor.execute("SELECT COUNT(*) FROM em")
    assert cursor.fetchone() == (5,)


def test_too_few_bound_values_is_an_error(conn):
    cursor = conn.cursor()
    cursor.execute("CREATE TABLE tf (k INT PRIMARY KEY, v INT)")
    with pytest.raises(ProgrammingError):
        cursor.execute("INSERT INTO tf VALUES (?, ?)", [1])


def test_description_and_rowcount(conn):
    cursor = conn.cursor()
    cursor.execute("CREATE TABLE dr (k INT PRIMARY KEY, v VARCHAR(10))")
    cursor.execute("INSERT INTO dr VALUES (?, ?)", [1, "x"])
    assert cursor.rowcount == 1
    cursor.execute("SELECT k, v FROM dr")
    assert cursor.description is not None
    assert [d[0] for d in cursor.description] == ["k", "v"]
    # each description entry is the PEP 249 7-tuple
    assert all(len(d) == 7 for d in cursor.description)


def test_fetch_interface(conn):
    cursor = conn.cursor()
    cursor.execute("CREATE TABLE f (k INT PRIMARY KEY)")
    cursor.executemany("INSERT INTO f VALUES (?)", [[i] for i in range(10)])
    cursor.execute("SELECT k FROM f ORDER BY k")
    assert cursor.fetchone() == (0,)
    assert cursor.fetchmany(3) == [(1,), (2,), (3,)]
    cursor.arraysize = 4
    assert cursor.fetchmany() == [(4,), (5,), (6,), (7,)]
    assert cursor.fetchall() == [(8,), (9,)]
    assert cursor.fetchone() is None


def test_cursor_context_manager_closes(conn):
    with conn.cursor() as cursor:
        cursor.execute("SELECT 1")
        assert cursor.fetchone() == (1,)
    with pytest.raises(InterfaceError):
        cursor.execute("SELECT 1")


def test_connection_context_manager_closes(system):
    with repro.connect(system) as conn:
        conn.cursor().execute("SELECT 1")
    assert conn.closed
    with pytest.raises(InterfaceError):
        conn.cursor()


def test_operations_on_closed_connection_raise(conn):
    conn.close()
    with pytest.raises(InterfaceError):
        conn.cursor()
    # close() is idempotent per PEP 249 common practice
    conn.close()


def test_commit_without_begin_raises(conn):
    # documented deviation: sessions are autocommit, commit()/rollback()
    # require an explicit begin() rather than silently pretending
    with pytest.raises(ProgrammingError):
        conn.commit()


def test_begin_commit_rollback(conn):
    cursor = conn.cursor()
    cursor.execute("CREATE TABLE bc (k INT PRIMARY KEY)")
    conn.begin()
    cursor.execute("INSERT INTO bc VALUES (1)")
    conn.commit()
    conn.begin()
    cursor.execute("INSERT INTO bc VALUES (2)")
    conn.rollback()
    cursor.execute("SELECT k FROM bc")
    assert cursor.fetchall() == [(1,)]


def test_setinputsizes_and_setoutputsize_are_noops(conn):
    cursor = conn.cursor()
    cursor.setinputsizes([None])
    cursor.setoutputsize(128)
    cursor.execute("SELECT 1")
    assert cursor.fetchone() == (1,)


def test_closing_the_connection_closes_its_cursors(conn):
    cursor = conn.cursor()
    cursor.execute("SELECT 1")  # one buffered, undelivered row
    conn.close()
    assert cursor.closed
    with pytest.raises(InterfaceError):
        cursor.fetchone()


def test_close_rolls_back_an_open_transaction_over_a_temp_table(conn, system):
    """close() ends the session and leaves nothing behind.  Phoenix rolls
    the transaction back first, on the session that then drops its objects,
    so the DROPs cannot wait on the transaction's locks."""
    cursor = conn.cursor()
    cursor.execute("CREATE TABLE #w (x INT)")
    conn.begin()
    cursor.execute("INSERT INTO #w VALUES (1)")
    conn.close()
    assert conn.closed and len(system.server.sessions) == 0
    names = system.server.table_names() + sorted(system.server.database.procedures)
    assert not [name for name in names if name.startswith("phx_")]


def test_closed_cursor_rejects_even_an_empty_executemany(conn):
    cursor = conn.cursor()
    cursor.close()
    with pytest.raises(InterfaceError):
        cursor.executemany("INSERT INTO nowhere VALUES (?)", [])


def test_plan_cache_shared_across_qmark_bindings(system):
    """Qmark templates hit the server plan cache on the template, not the
    bound values — N different bindings, one cached plan.

    The plain stack ships the template plus out-of-band bindings, so the
    server caches on the template text.  (Phoenix inlines bindings before
    its statement rewriting — its wrapped-DML batches and replay log need
    literal SQL — so it deliberately trades this away.)
    """
    conn = repro.connect(system, phoenix=False)
    try:
        cursor = conn.cursor()
        cursor.execute("CREATE TABLE pc (k INT PRIMARY KEY, v INT)")
        cursor.executemany("INSERT INTO pc VALUES (?, ?)", [[i, i] for i in range(8)])
        before = system.server.engine_metrics.plan_hits
        for i in range(8):
            cursor.execute("SELECT v FROM pc WHERE k = ?", [i])
            assert cursor.fetchone() == (i,)
        hits = system.server.engine_metrics.plan_hits - before
        assert hits >= 7  # first SELECT may miss; the rest share its plan
    finally:
        conn.close()
