"""What Phoenix sends: the text and values of every request, pinned.

Every ``(text, values)`` a Phoenix connection hands
:meth:`DriverConnection.execute` / :meth:`DriverConnection.execute_batch`
over one script — session open, queries within and above a fetch block, a
keyset cursor, wrapped DML, DDL and EXEC, SET, an explicit transaction, temp
tables (``CREATE TABLE #t``, its use, ``SELECT … INTO #u``), a temp
procedure, an ``executemany`` batch, close — is compared with
``tests/data/phoenix_wire_texts.json``, on both transports.  How Phoenix
computes a text may change (rendered per execution or once per template);
the bytes it sends may not.  Re-record only for a deliberate change of what
goes on the wire::

    PYTHONPATH=src python tests/test_wire_text.py

The other tests here guard rendering once: a template must send the text of
the session it runs on (redirected or not, before and after the temp object
it names exists), and a repeated statement on a session without temp objects
renders nothing on the client.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.core import connection as core_connection
from repro.core import cursor as core_cursor
from repro.core import interceptor
from repro.errors import Error
from repro.odbc.constants import CursorType, StatementAttr
from repro.odbc.driver import DriverConnection
from repro.sql import ast

DATA = Path(__file__).resolve().parent / "data" / "phoenix_wire_texts.json"

SETUP = [
    "CREATE TABLE t (k INT PRIMARY KEY, v INT)",
    "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)",
    "CREATE PROCEDURE add_row (@k INT) AS INSERT INTO t VALUES (@k, 0)",
]


def _normalise(value):
    """A client id depends on how many connections the process opened
    before: every Phoenix object name carries it."""
    if isinstance(value, str):
        return re.sub(r"phx_c\d+_", "phx_cN_", value)
    if isinstance(value, (list, tuple)):
        return [_normalise(item) for item in value]
    return value


def recording(requests: list) -> dict:
    """Stand-ins for :meth:`DriverConnection.execute` and
    :meth:`DriverConnection.execute_batch` that append each request's kind,
    text and values to ``requests`` and then send it."""
    execute, execute_batch = DriverConnection.execute, DriverConnection.execute_batch

    def recording_execute(self, sql, placeholders=None, **kwargs):
        requests.append(["execute", _normalise(sql), _normalise(list(placeholders or []))])
        return execute(self, sql, placeholders=placeholders, **kwargs)

    def recording_batch(self, sql, rows):
        requests.append(["execute_batch", _normalise(sql), _normalise([list(r) for r in rows])])
        return execute_batch(self, sql, rows)

    return {"execute": recording_execute, "execute_batch": recording_batch}


@pytest.fixture()
def sent(monkeypatch):
    """Every (request kind, text, values) a driver connection is handed."""
    requests: list[list] = []
    for name, method in recording(requests).items():
        monkeypatch.setattr(DriverConnection, name, method)
    return requests


def make_system(listen: str | None):
    """A system whose database holds :data:`SETUP` (sent around the driver)."""
    system = repro.make_system(dsn=f"wire-text-{listen}", listen=listen)
    setup = system.server.connect(user="setup")
    for sql in SETUP:
        system.server.execute(setup, sql)
    system.server.disconnect(setup)
    return system


def run_script(system) -> None:
    """The pinned script, on one Phoenix connection of ``system``."""
    conn = repro.connect(system)
    cur = conn.cursor()
    cur.execute("SET lock_timeout 500")
    # a query of at most one block, twice: the second execution sends the same
    cur.execute("SELECT k, v FROM t WHERE k = ?", [1]).fetchall()
    cur.execute("SELECT k, v FROM t WHERE k = ?", [2]).fetchall()
    # above a block: filled into a result table by the template's procedure
    cur.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 2)
    cur.execute("SELECT k, v FROM t WHERE k > ? ORDER BY k", [0]).fetchall()
    cur.execute("SELECT k, v FROM t WHERE k > ? ORDER BY k", [1]).fetchall()
    cur.execute("SELECT k FROM t ORDER BY k LIMIT 2").fetchall()
    cur.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 100)
    keyset = conn.cursor()
    keyset.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    keyset.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 2)
    keyset.execute("SELECT k, v FROM t WHERE k > ?", [1]).fetchall()
    keyset.close()
    # wrapped DML, DDL and EXEC
    cur.execute("UPDATE t SET v = v + ? WHERE k = ?", [1, 2])
    cur.execute("UPDATE t SET v = v + ? WHERE k = ?", [1, 3])
    cur.execute("DELETE FROM t WHERE k = ?", [5])
    cur.execute("CREATE TABLE u (a INT PRIMARY KEY, b VARCHAR(10))")
    cur.execute("CREATE INDEX t_v ON t (v)")
    cur.execute("EXEC add_row ?", [10])
    # an explicit transaction: passed through and logged for replay
    cur.execute("BEGIN TRANSACTION")
    cur.execute("UPDATE t SET v = ? WHERE k = ?", [7, 4])
    cur.execute("SELECT v FROM t WHERE k = ?", [4]).fetchall()
    cur.execute("INSERT INTO u VALUES (?, ?)", [1, "x"])
    cur.execute("COMMIT")
    # temp objects, redirected to persistent stand-ins
    cur.execute("CREATE TABLE #w (a INT, b INT)")
    cur.execute("INSERT INTO #w VALUES (?, ?)", [1, 2])
    cur.execute("SELECT a, b FROM #w WHERE a = ?", [1]).fetchall()
    cur.execute("SELECT k, v INTO #u FROM t WHERE k < ?", [3])
    cur.execute("SELECT k, v FROM #u ORDER BY k").fetchall()
    cur.execute("SELECT t.k, w.b FROM t JOIN #w w ON t.k = w.a").fetchall()
    cur.execute("CREATE PROCEDURE #p AS DELETE FROM #w")
    cur.execute("EXEC #p")
    cur.execute("DROP PROCEDURE #p")
    # one executemany: batched on the wire, the wrapper's text once
    cur.executemany("INSERT INTO t VALUES (?, ?)", [[20, 0], [21, 1], [22, 2]])
    cur.execute("DROP TABLE #w")
    cur.execute("SELECT count(*) FROM t").fetchall()
    conn.close()


@pytest.fixture(params=[None, "127.0.0.1:0"], ids=["inprocess", "tcp"])
def system(request):
    system = make_system(request.param)
    yield system
    system.close()


def test_phoenix_sends_the_pinned_texts_and_values(system, sent):
    run_script(system)
    assert sent == json.loads(DATA.read_text(encoding="utf-8"))


# ------------------------------------------------------------------ render once


def test_a_template_sends_the_text_of_the_session_it_runs_on(system, sent):
    """One template, ``SELECT * FROM #x``: refused before ``CREATE TABLE
    #x``, redirected after it, refused again after ``DROP TABLE #x`` and on a
    second session that never had ``#x`` — each run sends its own text, never
    one rendered for another state of the session."""
    query = "SELECT * FROM #x"
    first, second = repro.connect(system), repro.connect(system)
    cur = first.cursor()

    def sends(cursor) -> str:
        del sent[:]
        try:
            cursor.execute(query).fetchall()
        except Error:
            pass
        (request,) = sent
        return request[1]

    assert sends(cur) == "SELECT * FROM #x LIMIT 101"
    cur.execute("CREATE TABLE #x (a INT)")
    assert sends(cur) == "SELECT * FROM phx_cN_tmp_x LIMIT 101"
    assert sends(second.cursor()) == "SELECT * FROM #x LIMIT 101"
    assert sends(cur) == "SELECT * FROM phx_cN_tmp_x LIMIT 101"
    cur.execute("DROP TABLE #x")
    assert sends(cur) == "SELECT * FROM #x LIMIT 101"
    second.close()
    first.close()


def test_a_repeated_statement_renders_nothing_on_the_client(system, monkeypatch):
    """After one warm execution, a repeated point SELECT and UPDATE on a
    session without temp objects make no ``dataclasses.replace`` call and
    render no ``ast`` node on the client's thread: their texts were rendered
    when the template was parsed."""
    conn = repro.connect(system)
    cur = conn.cursor()
    select, update = "SELECT k, v FROM t WHERE k = ?", "UPDATE t SET v = v + 1 WHERE k = ?"
    cur.execute(select, [1]).fetchall()
    cur.execute(update, [1])

    client = threading.get_ident()
    calls: list[str] = []

    def spy(name, original):
        def counted(*args, **kwargs):
            if threading.get_ident() == client:
                calls.append(name)
            return original(*args, **kwargs)

        return counted

    replace = dataclasses.replace
    for module in (dataclasses, core_connection, core_cursor, interceptor, ast):
        if getattr(module, "replace", None) is replace:
            monkeypatch.setattr(module, "replace", spy("replace", replace))
    for node in vars(ast).values():
        if isinstance(node, type) and issubclass(node, ast.Node) and "sql" in vars(node):
            monkeypatch.setattr(node, "sql", spy(f"{node.__name__}.sql", node.sql))

    for k in (2, 3, 4):
        assert cur.execute(select, [k]).fetchall() == [(k, k * 10)]
        cur.execute(update, [k])
        assert cur.rowcount == 1
    assert calls == []
    conn.close()


if __name__ == "__main__":
    captured: list[list] = []
    for name, method in recording(captured).items():
        setattr(DriverConnection, name, method)
    run_script(make_system(None))
    DATA.write_text(json.dumps(captured, indent=1) + "\n", encoding="utf-8")
    print(f"{len(captured)} requests written to {DATA}", file=sys.stderr)
