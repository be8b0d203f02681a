"""Phoenix's one promise is that the application cannot tell: the same
statement gives the same answer — values *and their types*, or the same
kind of error — through a Phoenix connection as through a plain one.

Three places where it could tell before ``repro.sql.walk`` gave both sides
one reading of a statement: which queries get a key cursor (the driver and
the engine each had a copy of the rule, each missing a clause the other
had), which statement kinds have their temp names redirected, and what
type a computed value comes back as.
"""

from __future__ import annotations

import datetime
import typing

import pytest

import repro
from repro.net import FaultKind
from repro.odbc.constants import CursorType, StatementAttr
from repro.sql import ast, parse
from repro.sql.walk import children
from tests.test_differential_sqlite import FIXED_QUERIES, seeded_statements
from tests.test_sql_walk import NODE_CLASSES, holding_a_marker

KINDS = ["plain", "phoenix"]


def connect(system: repro.System, kind: str):
    return (system.phoenix if kind == "phoenix" else system.plain).connect(system.DSN)


def outcome(cursor, sql: str):
    """What the application sees of ``sql``: its rows, or its error's class."""
    try:
        cursor.execute(sql)
    except repro.Error as exc:
        return type(exc)
    return cursor.fetchall() if cursor.description else None


# ---------------------------------------------------------------- key cursors

@pytest.fixture()
def past_and_present(system):
    """``w`` as it is now (rows 1, 3, 9) and a moment when it held 1, 2, 3."""
    cursor = connect(system, "plain").cursor()
    cursor.execute("CREATE TABLE w (k INT PRIMARY KEY, v VARCHAR)")
    cursor.execute("INSERT INTO w VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    moment = system.server.time_travel.clock.now()
    cursor.execute("DELETE FROM w WHERE k = 2")
    cursor.execute("INSERT INTO w VALUES (9, 'z')")
    return {
        "as_of": (f"SELECT k, v FROM w AS OF {moment!r}", [(1, "a"), (2, "b"), (3, "c")]),
        "order_offset": ("SELECT k FROM w ORDER BY k OFFSET 1", [(3,), (9,)]),
        "offset": ("SELECT k FROM w OFFSET 1", [(3,), (9,)]),
    }


@pytest.mark.parametrize("query", ["as_of", "order_offset", "offset"])
@pytest.mark.parametrize(
    "cursor_type", [CursorType.FORWARD_ONLY, CursorType.KEYSET, CursorType.DYNAMIC]
)
@pytest.mark.parametrize("kind", KINDS)
def test_a_key_cursor_request_never_changes_the_answer(
    system, past_and_present, kind, cursor_type, query
):
    """A query whose shape rules a key cursor out falls back to a default
    result set — by the same rule on both sides.  (The plain keyset and
    dynamic cursors used to read an ``AS OF`` query from the live table;
    Phoenix's used to drop ``OFFSET``.)"""
    sql, expected = past_and_present[query]
    default = connect(system, "plain").cursor()
    assert default.execute(sql).fetchall() == expected
    cursor = connect(system, kind).cursor()
    cursor.set_attr(StatementAttr.CURSOR_TYPE, cursor_type)
    assert cursor.execute(sql).fetchall() == expected


# ---------------------------------------------------------------- temp names, by statement kind

#: the statement classes that can name a table: by their own declared field,
#: or through something under them
TABLE_NAMING_STATEMENTS = {
    cls
    for cls in NODE_CLASSES
    if issubclass(cls, ast.Statement)
    if cls in ast.TABLE_NAME_FIELD
    or any(holding_a_marker(hint, ast.Star()) for hint in typing.get_type_hints(cls, vars(ast)).values())
}

#: name -> (the statement over a temp table, what to look at afterwards)
OVER_A_TEMP_TABLE = {
    "select": ("SELECT k, #w.v FROM #w WHERE #w.k >= 1 ORDER BY k", None),
    "select star": ("SELECT #w.* FROM #w ORDER BY k", None),
    "select like escape": ("SELECT k FROM #w WHERE v LIKE 'a' ESCAPE #w.v", None),
    "select into": ("SELECT k INTO #u FROM #w WHERE k > 1", "SELECT * FROM #u"),
    "union": ("SELECT k FROM #w UNION SELECT k + 1 FROM #w ORDER BY 1", None),
    "union into": ("SELECT k INTO #u FROM #w UNION ALL SELECT k FROM #w", "SELECT count(*) FROM #u"),
    "insert": ("INSERT INTO #w SELECT k + 10, v FROM #w", "SELECT * FROM #w ORDER BY k"),
    "update": ("UPDATE #w SET v = 'u' WHERE #w.k = 1", "SELECT * FROM #w ORDER BY k"),
    "delete": ("DELETE FROM #w WHERE k IN (SELECT max(k) FROM #w)", "SELECT * FROM #w"),
    "create table": ("CREATE TABLE #x (a INT DEFAULT 1)", "SELECT count(*) FROM #x"),
    "drop table": ("DROP TABLE #w", "SELECT * FROM #w"),
    "create procedure": (
        "CREATE PROCEDURE #q AS BEGIN DELETE FROM #w WHERE k = 1; SELECT k FROM #w END",
        "EXEC #q",
    ),
    "exec": ("EXEC #p 2", None),
    "explain": ("EXPLAIN SELECT * FROM #w", None),
    "create view": ("CREATE VIEW over_w AS SELECT k FROM #w", "SELECT * FROM over_w ORDER BY k"),
    "create index": ("CREATE INDEX on_w ON #w (k)", None),
}


def test_every_statement_kind_that_can_name_a_table_has_an_example():
    assert {type(parse(sql)) for sql, _check in OVER_A_TEMP_TABLE.values()} == TABLE_NAMING_STATEMENTS
    assert {ast.Explain, ast.CreateView, ast.CreateIndex} <= TABLE_NAMING_STATEMENTS
    like = parse(OVER_A_TEMP_TABLE["select like escape"][0]).where
    assert children(like)[-1] == ast.ColumnRef("v", table="#w")


@pytest.mark.parametrize("name", OVER_A_TEMP_TABLE)
def test_a_statement_over_a_temp_table_looks_the_same_through_phoenix(name):
    sql, check = OVER_A_TEMP_TABLE[name]
    seen = {}
    for kind in KINDS:
        connection = connect(repro.make_system(), kind)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE #w (k INT PRIMARY KEY, v VARCHAR)")
        cursor.execute("INSERT INTO #w VALUES (1, 'a'), (2, 'b')")
        cursor.execute("CREATE PROCEDURE #p (@low INT) AS BEGIN SELECT k FROM #w WHERE k >= @low END")
        seen[kind] = [outcome(cursor, sql)] + ([outcome(cursor, check)] if check else [])
        if name == "explain":
            # a plan names the table it scans: Phoenix's names the stand-in
            stand_in = getattr(connection, "temp_table_map", {}).get("#w", "#w")
            seen[kind] = [[(line.replace(stand_in, "#w"),) for (line,) in seen[kind][0]]]
        connection.close()
    assert seen["phoenix"] == seen["plain"]
    if name == "create index":
        assert seen["plain"] == [repro.NotSupportedError]
    elif name != "select like escape":  # ESCAPE takes a literal: the same error on both
        assert not any(isinstance(o, type) for o in seen["plain"][:1]), seen["plain"]


# ---------------------------------------------------------------- values, with their types

TYPED_QUERIES = FIXED_QUERIES + [
    "SELECT count(*), sum(k), max(k), min(v) FROM w",
    "SELECT coalesce(k, 0) FROM w",
    "SELECT abs(k) FROM w",
    "SELECT k, (SELECT max(k) FROM w) FROM w",
]

#: name -> (query, why Phoenix still shows the application something else);
#: each is asserted to still differ, so it cannot outlive what it excuses
ALLOWED_TYPE_DIFFERENCES = {
    "a column of several classes": (
        "SELECT CASE WHEN k = 1 THEN k ELSE s END FROM t",
        "a result above one fetch block goes through a table, and no column "
        "type stores an int and a string as they are: the table holds them "
        "as text (ints among floats: as floats)",
    ),
}


@pytest.fixture(scope="module")
def both():
    """A plain and a Phoenix cursor over one database."""
    system = repro.make_system()
    connections = {kind: connect(system, kind) for kind in KINDS}
    loader = connections["plain"].cursor()
    for sql in seeded_statements():
        loader.execute(sql)
    loader.execute("CREATE TABLE w (k INT PRIMARY KEY, v VARCHAR)")
    loader.execute("INSERT INTO w VALUES (1, 'a'), (2, 'b')")
    yield {kind: connection.cursor() for kind, connection in connections.items()}
    for connection in connections.values():
        connection.close()


@pytest.mark.parametrize("sql", TYPED_QUERIES)
def test_phoenix_shows_the_values_the_query_produced(both, sql):
    """A result read back from the table Phoenix materialized it into is
    the result: ``repr`` equal, so ``3`` is not ``3.0`` and ``1`` not ``'1'``
    (the table used to be typed from a guess made before the query ran)."""
    assert repr(outcome(both["phoenix"], sql)) == repr(outcome(both["plain"], sql))


@pytest.mark.parametrize("name", ALLOWED_TYPE_DIFFERENCES)
def test_allowed_type_difference_still_differs(both, name):
    sql, reason = ALLOWED_TYPE_DIFFERENCES[name]
    assert reason
    assert repr(outcome(both["phoenix"], sql)) != repr(outcome(both["plain"], sql))


# ---------------------------------------------------------------- bound values
#
# A repeated Phoenix SELECT is a procedure created once and called with the
# values beside it: what is bound must reach the query as a plain
# connection's ``?`` does — no declared parameter type in between, no value
# frozen into a plan at the first execution.

#: name -> (template, the values of its successive executions)
BOUND = {
    "int then float against an INT column": (
        "SELECT k FROM t WHERE k < ? ORDER BY k", [[3], [2.5], [1], [2.5], [40]]
    ),
    "a quote in a string": ("SELECT k FROM q WHERE v = ?", [["it's"], ["a"], ["''"], ["it's"]]),
    "NULL": ("SELECT k FROM q WHERE v = ? OR ? IS NULL", [[None, 1], ["a", None], [None, None]]),
    "a date": (
        "SELECT k FROM q WHERE d <= ? ORDER BY k",
        [[datetime.date(1995, 6, 1)], [datetime.date(1999, 1, 1)], ["1995-01-01"]],
    ),
    "a value in the select list": (
        "SELECT k, ? AS tag FROM q WHERE k <= ? ORDER BY k",
        [["x", 2], [7, 1], [2.5, 2], [None, 2], [datetime.date(1995, 6, 1), 2], ["it's", 3]],
    ),
    "a conjunct without a column": ("SELECT k FROM q WHERE ? = 1 ORDER BY k", [[1], [0], [1]]),
    "in a subquery, a list, a range, a pattern": (
        "SELECT k FROM t WHERE k IN (SELECT tk FROM r WHERE w >= ?) AND k IN (?, ?, 3) "
        "AND v BETWEEN ? AND 100 AND s LIKE ? ORDER BY k",
        [[0, 1, 2, 0, "s%"], [5, 2, 4, -5, "%"], [0, 1, 2, 0, "s%"]],
    ),
    "in every part of a union": (
        "SELECT k FROM q WHERE k = ? UNION SELECT k + ? FROM q WHERE k = ? ORDER BY 1",
        [[1, 10, 2], [3, 1, 3], [1, 10, 2]],
    ),
    "too few values": ("SELECT k FROM q WHERE k = ? AND v = ?", [[1], [1, "a"], []]),
}


@pytest.fixture(scope="module")
def both_bound(both):
    both["plain"].execute("CREATE TABLE q (k INT PRIMARY KEY, v VARCHAR, d DATE)")
    both["plain"].execute(
        "INSERT INTO q VALUES (1, 'a', '1995-01-01'), (2, 'it''s', '1996-02-02'), (3, NULL, NULL)"
    )
    return both


def bound_outcome(cursor, sql: str, values: list):
    try:
        cursor.execute(sql, values)
    except repro.Error as exc:
        return type(exc)
    return cursor.fetchall()


@pytest.mark.parametrize("name", BOUND)
def test_bound_values_reach_the_query_as_they_do_without_phoenix(both_bound, name):
    sql, executions = BOUND[name]
    answers = []
    for values in executions:
        plain = bound_outcome(both_bound["plain"], sql, values)
        assert repr(bound_outcome(both_bound["phoenix"], sql, values)) == repr(plain), values
        answers.append(plain)
    if name == "int then float against an INT column":
        # one text, another class of value each time: each its own right answer
        assert answers[:2] == [[(0,), (1,), (2,)], [(0,), (1,), (2,)]] and answers[2] == [(0,)]
    if name == "too few values":
        assert answers == [repro.ProgrammingError, [(1,)], repro.ProgrammingError]


#: name -> (template, values, rows): ``?`` where each kind of server cursor
#: reads it — the predicate (key capture, every dynamic block), the select
#: list (every keyset row), a query only a default result set can serve
KEY_CURSOR_BOUND = {
    "in the predicate": (
        "SELECT k, v FROM n WHERE k > ?", [4], [(k, f"v{k}") for k in range(5, 10)]
    ),
    "in the select list": (
        "SELECT ? AS tag, k FROM n WHERE k <= ? AND v <> ?", ["x", 3, "v2"], [("x", 1), ("x", 3)]
    ),
    "downgraded to a default result set": (
        "SELECT count(*) FROM n WHERE k > ? AND k < ?", [4, 8], [(3,)]
    ),
}


@pytest.mark.parametrize("name", KEY_CURSOR_BOUND)
@pytest.mark.parametrize("cursor_type", [CursorType.KEYSET, CursorType.DYNAMIC])
@pytest.mark.parametrize("kind", KINDS)
def test_bound_values_reach_a_server_cursor(system, kind, cursor_type, name):
    """The plain driver's request carried the values and the server opened
    the cursor without them: ``statement has placeholder ?1 but only 0
    values were bound``, where Phoenix (which binds before it sends)
    answered."""
    sql, values, expected = KEY_CURSOR_BOUND[name]
    loader = connect(system, "plain").cursor()
    loader.execute("CREATE TABLE n (k INT PRIMARY KEY, v VARCHAR)")
    loader.execute("INSERT INTO n VALUES " + ", ".join(f"({k}, 'v{k}')" for k in range(1, 10)))
    cursor = connect(system, kind).cursor()
    cursor.set_attr(StatementAttr.CURSOR_TYPE, cursor_type)
    cursor.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 2)  # several blocks, each bound
    assert cursor.execute(sql, values).fetchall() == expected


def test_a_template_over_a_temp_table_reads_the_table_of_that_name_now():
    """The template's procedure names the temp table's stand-in: the same
    text must read a re-created ``#w`` (the plan it cached was compiled
    against the dropped one) and follow the redirection map as it changes."""
    text = "SELECT * FROM #w WHERE k >= ? ORDER BY k"
    seen = {}
    for kind in KINDS:
        connection = connect(repro.make_system(), kind)
        cursor = connection.cursor()
        steps = [bound_outcome(cursor, text, [0])]  # no #w yet
        cursor.execute("CREATE TABLE #w (k INT PRIMARY KEY, v VARCHAR)")  # the map changes
        cursor.execute("INSERT INTO #w VALUES (1, 'a'), (2, 'b')")
        steps += [bound_outcome(cursor, text, [k]) for k in (0, 2, 0)]
        cursor.execute("DROP TABLE #w")
        steps.append(bound_outcome(cursor, text, [0]))
        cursor.execute("CREATE TABLE #w (k INT PRIMARY KEY, v VARCHAR, extra INT)")
        cursor.execute("INSERT INTO #w VALUES (5, 'e', 50)")
        steps += [bound_outcome(cursor, text, [k]) for k in (0, 9)]
        cursor.execute("DROP TABLE #w")
        cursor.execute("SELECT k + 100 AS k INTO #w FROM (SELECT 1 AS k) one")  # mapped again
        steps.append(bound_outcome(cursor, text, [0]))
        seen[kind] = steps
        connection.close()
    assert seen["phoenix"] == seen["plain"]
    assert seen["plain"] == [
        repro.errors.CatalogError,
        [(1, "a"), (2, "b")], [(2, "b")], [(1, "a"), (2, "b")],
        repro.errors.CatalogError,
        [(5, "e", 50)], [],
        [(101,)],
    ]


# ---------------------------------------------------------------- values beside the text
#
# Every statement Phoenix sends carries the values of its own ``?`` beside
# its text.  It used to splice them into the text as literals wherever it
# re-sent a statement — the DML wrapper, a transaction's statements, EXEC, a
# batch entry, a key cursor's blocks: a float with no literal spelling came
# back as "unknown column 'inf'", and a script's second statement was bound
# to the first one's values.

SPECIAL_FLOATS = {"inf": float("inf"), "-inf": float("-inf"), "nan": float("nan")}

#: what every test below starts from, on either stack
FRESH = [
    "CREATE TABLE f (k INT PRIMARY KEY, v FLOAT, s VARCHAR)",
    "INSERT INTO f VALUES (1, 1.0, 'a'), (2, 2.0, 'b%')",
    "CREATE PROCEDURE setv (@x FLOAT) AS BEGIN UPDATE f SET v = @x WHERE k = 1 END",
    "CREATE PROCEDURE sets (@k INT, @s VARCHAR) AS BEGIN UPDATE f SET s = @s WHERE k = @k END",
]
FRESH_ROWS = [(1, 1.0, "a"), (2, 2.0, "b%")]


def fresh(kind: str):
    system = repro.make_system()
    connection = connect(system, kind)
    cursor = connection.cursor()
    for sql in FRESH:
        cursor.execute(sql)
    return system, connection, cursor


def f_rows(connection) -> list[tuple]:
    return connection.cursor().execute("SELECT k, v, s FROM f ORDER BY k").fetchall()


def seen_through_both(step) -> dict[str, str]:
    """``repr`` of what ``step(connection, cursor)`` answers and of the rows
    of ``f`` afterwards, per stack (``nan`` is not equal to itself; its
    ``repr`` is)."""
    seen = {}
    for kind in KINDS:
        _system, connection, cursor = fresh(kind)
        try:
            answer = step(connection, cursor)
        except repro.Error as exc:
            answer = type(exc)
        seen[kind] = repr((answer, f_rows(connection)))
        connection.close()
    return seen


def in_a_transaction(sql: str, values: list):
    def step(connection, cursor):
        connection.begin()
        rowcount = cursor.execute(sql, values).rowcount
        connection.commit()
        return rowcount

    return step


def batched(sql: str, rows: list[list]):
    def step(connection, cursor):
        cursor.set_attr(StatementAttr.BATCH_SIZE, len(rows))
        return cursor.executemany(sql, rows).rowcount

    return step


def key_cursor(cursor_type: str, sql: str, values: list):
    def step(connection, cursor):
        cursor.set_attr(StatementAttr.CURSOR_TYPE, cursor_type)
        cursor.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 1)  # one block per row
        return cursor.execute(sql, values).fetchall()

    return step


#: the paths that spliced a value into a text: name -> a step over ``value``
VALUE_PATHS = {
    "autocommit update": lambda value: lambda _c, cursor: cursor.execute(
        "UPDATE f SET v = ? WHERE k = ?", [value, 1]
    ).rowcount,
    "autocommit insert": lambda value: lambda _c, cursor: cursor.execute(
        "INSERT INTO f VALUES (?, ?, 'c')", [3, value]
    ).rowcount,
    "update in a transaction": lambda value: in_a_transaction(
        "UPDATE f SET v = ? WHERE k = ?", [value, 2]
    ),
    "exec": lambda value: lambda _c, cursor: cursor.execute("EXEC setv ?", [value]).rowcount,
    "batched executemany": lambda value: batched(
        "INSERT INTO f VALUES (?, ?, 'c')", [[3, value], [4, value]]
    ),
    "keyset cursor": lambda value: key_cursor(
        CursorType.KEYSET, "SELECT k, v FROM f WHERE v < ? OR v > ?", [value, value]
    ),
    "dynamic cursor": lambda value: key_cursor(
        CursorType.DYNAMIC, "SELECT k, v FROM f WHERE v < ? OR v > ?", [value, value]
    ),
}


@pytest.mark.parametrize("value", SPECIAL_FLOATS)
@pytest.mark.parametrize("path", VALUE_PATHS)
def test_a_value_without_a_literal_reaches_the_server_as_it_does_without_phoenix(path, value):
    seen = seen_through_both(VALUE_PATHS[path](SPECIAL_FLOATS[value]))
    assert seen["phoenix"] == seen["plain"]
    assert "Error" not in seen["plain"], seen["plain"]


#: name -> (DML text, values): what a wrapper, a transaction's statement
#: and a batch row must bind as the plain stack does
BOUND_DML = {
    "a quote in a string": ("UPDATE f SET s = ? WHERE k = ?", ["it's", 1]),
    "under a subquery": (
        "UPDATE f SET s = ? WHERE k IN (SELECT k FROM f WHERE s = ?)", ["o''k", "a"]
    ),
    "a pattern with an escape": ("DELETE FROM f WHERE s LIKE ? ESCAPE '!'", ["b!%"]),
    "an escape character": ("DELETE FROM f WHERE s LIKE 'b!%' ESCAPE ?", ["!"]),
    "exec arguments": ("EXEC sets ?, ?", [2, "it's"]),
}
#: ESCAPE takes a literal: a ``?`` there is the same error on both stacks
#: (the statements Phoenix inlined used to accept it)
REFUSED_DML = {"an escape character"}


@pytest.mark.parametrize("how", ["autocommit", "transaction", "executemany"])
@pytest.mark.parametrize("name", BOUND_DML)
def test_bound_values_reach_a_statement_as_they_do_without_phoenix(name, how):
    sql, values = BOUND_DML[name]
    step = {
        "autocommit": lambda _c, cursor: cursor.execute(sql, values).rowcount,
        "transaction": in_a_transaction(sql, values),
        "executemany": batched(sql, [values, values]),
    }[how]
    seen = seen_through_both(step)
    assert seen["phoenix"] == seen["plain"]
    if name in REFUSED_DML:
        assert "ProgrammingError" in seen["plain"], seen["plain"]
    else:
        assert "Error" not in seen["plain"] and repr(FRESH_ROWS) not in seen["plain"], seen["plain"]


#: name -> (text, values, what its last statement answers)
SCRIPTS = {
    "two queries": ("SELECT k FROM f WHERE k = ?; SELECT k FROM f WHERE k = ?", [1, 2], [(2,)]),
    "an update, then a query": (
        "UPDATE f SET s = ? WHERE k = ?; SELECT s FROM f WHERE k = ?", ["z", 1, 1], [("z",)]
    ),
}


@pytest.mark.parametrize("name", SCRIPTS)
def test_each_statement_of_a_script_binds_its_own_values(name):
    """The server numbers ``?`` across the whole text: the second statement
    of a script binds the values after the first one's."""
    sql, values, answer = SCRIPTS[name]
    seen = seen_through_both(lambda _c, cursor: cursor.execute(sql, values).fetchall())
    assert seen["phoenix"] == seen["plain"]
    assert seen["plain"].startswith(f"({answer!r}, ")


#: name -> (one statement, too few values for it)
TOO_FEW = {
    "update": ("UPDATE f SET v = ? WHERE k = ?", [5.0]),
    "insert": ("INSERT INTO f VALUES (?, ?, ?)", [3, 3.0]),
    "exec": ("EXEC setv ?", []),
    "query": ("SELECT k FROM f WHERE k = ? OR v = ?", [1]),
}


@pytest.mark.parametrize("name", TOO_FEW)
def test_too_few_values_are_refused_with_nothing_executed(name):
    """Phoenix refuses the statement before it sends it (sent, the wrapper's
    sequence number would bind in the missing value's place); the plain
    stack's server refuses it before it runs."""
    sql, values = TOO_FEW[name]
    for kind in KINDS:
        system, connection, cursor = fresh(kind)
        network = system.registry.network
        trips = network.round_trips
        with pytest.raises(repro.ProgrammingError, match="placeholder"):
            cursor.execute(sql, values)
        if kind == "phoenix":
            assert network.round_trips == trips  # nothing sent
        assert f_rows(connection) == FRESH_ROWS
        connection.close()


def test_executemany_stops_at_a_row_with_too_few_values_as_without_phoenix():
    seen = seen_through_both(batched("INSERT INTO f VALUES (?, ?, 'c')", [[3, 3.0], [4]]))
    assert seen["phoenix"] == seen["plain"]
    assert "ProgrammingError" in seen["plain"] and "(3, 3.0, 'c')" in seen["plain"]


def test_an_as_of_moment_is_not_bound_on_either_stack():
    seen = seen_through_both(
        lambda _c, cursor: cursor.execute("SELECT k FROM f AS OF ?", [1.0]).fetchall()
    )
    assert seen["phoenix"] == seen["plain"]
    assert "ProgrammingError" in seen["plain"]


# ---------------------------------------------------------------- NaN
#
# A bound NaN used to match every row: ``compare`` found NaN neither below
# nor above anything, so it called it equal.  NaN now orders as in
# PostgreSQL — equal to NaN, above every number — in WHERE, MIN/MAX, NULLIF
# and ORDER BY alike.  (sqlite binds NaN as NULL: it cannot be the oracle.)

NAN = float("nan")
NAN_IN_ROW_1 = ("UPDATE f SET v = ? WHERE k = 1", [NAN])
NAN_IN_ROW_2 = ("UPDATE f SET v = ? WHERE k = 2", [NAN])
INDEX_ON_V = ("CREATE INDEX f_v ON f (v)", [])

#: name -> (statements run first, the query, its values, its answer)
NAN_ORDER = {
    "v = NaN": ([], "SELECT k FROM f WHERE v = ?", [NAN], []),
    "v IN (NaN, 9)": ([], "SELECT k FROM f WHERE v IN (?, 9)", [NAN], []),
    "v BETWEEN NaN AND 2": ([], "SELECT k FROM f WHERE v BETWEEN ? AND 2", [NAN], []),
    "v <> NaN": ([], "SELECT k FROM f WHERE v <> ? ORDER BY k", [NAN], [(1,), (2,)]),
    "NaN = NaN": ([NAN_IN_ROW_2], "SELECT k FROM f WHERE v = ?", [NAN], [(2,)]),
    "NaN = NaN through an index": (
        [INDEX_ON_V, NAN_IN_ROW_2], "SELECT k FROM f WHERE v = ?", [NAN], [(2,)]
    ),
    "an index range from NaN": (
        [INDEX_ON_V], "SELECT k FROM f WHERE v BETWEEN ? AND 2", [NAN], []
    ),
    "min": ([NAN_IN_ROW_1], "SELECT min(v) FROM f", [], [(2.0,)]),
    "max": ([NAN_IN_ROW_2], "SELECT max(v) FROM f", [], [(NAN,)]),
    "nullif": ([], "SELECT nullif(v, ?) FROM f ORDER BY k", [NAN], [(1.0,), (2.0,)]),
    "order by": ([NAN_IN_ROW_1], "SELECT k FROM f ORDER BY v", [], [(2,), (1,)]),
}


def answers_after(setup, sql: str, values: list) -> dict[str, str]:
    """What ``sql`` answers on either stack after the ``setup`` statements."""

    def step(_connection, cursor):
        for statement, statement_values in setup:
            cursor.execute(statement, statement_values)
        return cursor.execute(sql, values).fetchall()

    return seen_through_both(step)


@pytest.mark.parametrize("name", NAN_ORDER)
def test_nan_equals_nan_and_sorts_above_every_number(name):
    setup, sql, values, answer = NAN_ORDER[name]
    seen = answers_after(setup, sql, values)
    assert seen["phoenix"] == seen["plain"]
    assert seen["plain"].startswith(f"({answer!r}, "), seen["plain"]


#: three NaN rows, each its own float object, beside the 1.0 of row 1
THREE_NANS = [NAN_IN_ROW_2, ("INSERT INTO f VALUES (3, ?, 'c'), (4, ?, 'd')", [NAN, NAN])]

#: name -> (the query, its answer over THREE_NANS): the hashed operators
#: file every NaN under one, as ``WHERE v = NaN`` finds all three (each used
#: to hash its NaN apart: 4, 4 rows, 4 groups, 4 rows)
NAN_HASHED = {
    "where": ("SELECT k FROM f WHERE v = ? ORDER BY k", [NAN], [(2,), (3,), (4,)]),
    "count(DISTINCT)": ("SELECT count(DISTINCT v) FROM f", [], [(2,)]),
    "DISTINCT": ("SELECT DISTINCT v FROM f", [], [(1.0,), (NAN,)]),
    "GROUP BY": ("SELECT v, count(*) FROM f GROUP BY v ORDER BY v", [], [(1.0, 1), (NAN, 3)]),
    "UNION": (
        "SELECT v FROM f WHERE k < 3 UNION SELECT v FROM f WHERE k > 2", [], [(1.0,), (NAN,)]
    ),
}


@pytest.mark.parametrize("name", NAN_HASHED)
def test_grouping_distinct_and_union_file_every_nan_under_one(name):
    sql, values, answer = NAN_HASHED[name]
    seen = answers_after(THREE_NANS, sql, values)
    assert seen["phoenix"] == seen["plain"]
    assert seen["plain"].startswith(f"({answer!r}, "), seen["plain"]


def test_an_equi_join_still_hashes_each_nan_apart():
    """The rest of the anomaly, exactly as DESIGN.md §5b documents it: a
    hash join keeps a NaN key apart from every other NaN, while ``=`` as a
    residual predicate calls them equal."""
    setup = [
        NAN_IN_ROW_2,
        ("CREATE TABLE g (k INT PRIMARY KEY, w FLOAT)", []),  # no index on w: hashed
        ("INSERT INTO g VALUES (1, ?), (2, 1.0)", [NAN]),
    ]
    hashed = answers_after(setup, "SELECT f.k, g.k FROM f JOIN g ON f.v = g.w ORDER BY f.k", [])
    compared = answers_after(
        setup, "SELECT f.k, g.k FROM f, g WHERE f.v + 0 = g.w ORDER BY f.k", []
    )
    for seen, answer in ((hashed, [(1, 2)]), (compared, [(1, 2), (2, 1)])):
        assert seen["phoenix"] == seen["plain"]
        assert seen["plain"].startswith(f"({answer!r}, "), seen["plain"]


# ---------------------------------------------------------------- mixed-type join keys
#
# ``=`` between an INT and a VARCHAR, or a DATE and a VARCHAR, casts the
# string before it compares.  As a join key the pair used to be hashed as it
# was, and the hash missed what ``=`` finds: the join answered [] where the
# same ``=`` as a predicate answered a row (sqlite agrees with the
# predicate).  A join hashes or probes only a pair whose values compare
# directly; any other ``=`` is a residual, evaluated as a predicate is.

MIXED_TYPE_TABLES = [
    "CREATE TABLE jt (k INT PRIMARY KEY, d DATE)",
    "INSERT INTO jt VALUES (1, '2020-01-01'), (2, '2020-01-02')",
    "CREATE TABLE jr (id INT PRIMARY KEY, s VARCHAR(10))",
    "INSERT INTO jr VALUES (10, '1'), (11, '7')",
    "CREATE TABLE jq (id INT PRIMARY KEY, s VARCHAR(10))",
    "INSERT INTO jq VALUES (20, '2020-01-02')",
]

#: name -> (as a join key, as a predicate, what both answer)
MIXED_TYPE_KEYS = {
    "INT = VARCHAR": (
        "SELECT jt.k, jr.id FROM jt JOIN jr ON jt.k = jr.s",
        "SELECT jt.k, jr.id FROM jt, jr WHERE jr.s = jt.k OR 1 = 0",
        [(1, 10)],
    ),
    "DATE = VARCHAR": (
        "SELECT jt.k, jq.id FROM jt JOIN jq ON jt.d = jq.s",
        "SELECT jt.k, jq.id FROM jt, jq WHERE jq.s = jt.d OR 1 = 0",
        [(2, 20)],
    ),
}


@pytest.fixture(scope="module")
def both_mixed(both):
    for sql in MIXED_TYPE_TABLES:
        both["plain"].execute(sql)
    return both


@pytest.mark.parametrize("name", MIXED_TYPE_KEYS)
def test_a_mixed_type_join_key_finds_what_equality_finds(both_mixed, name):
    join, predicate, answer = MIXED_TYPE_KEYS[name]
    for sql in (join, predicate):
        plain = outcome(both_mixed["plain"], sql)
        assert repr(outcome(both_mixed["phoenix"], sql)) == repr(plain)
        assert plain == answer, sql


# ---------------------------------------------------------------- DDL rowcount

#: name -> (what it needs first, one of each DDL kind Phoenix wraps)
DDL = {
    "create table": ([], "CREATE TABLE n (a INT)"),
    "drop table": ([], "DROP TABLE f"),
    "create index": ([], "CREATE INDEX f_v ON f (v)"),
    "drop index": (["CREATE INDEX f_v ON f (v)"], "DROP INDEX f_v"),
    "create view": ([], "CREATE VIEW fv AS SELECT k FROM f"),
    "drop view": (["CREATE VIEW fv AS SELECT k FROM f"], "DROP VIEW fv"),
    "create procedure": ([], "CREATE PROCEDURE np AS BEGIN SELECT 1 END"),
    "drop procedure": ([], "DROP PROCEDURE setv"),
}


@pytest.mark.parametrize(
    "name,crash",
    [(name, False) for name in DDL] + [("create table", True)],
    ids=[*DDL, "create table, reply lost"],
)
def test_a_ddl_rowcount_cannot_be_determined(name, crash):
    """PEP 249: -1 when the count "cannot be determined", as the plain stack
    reports it — also when Phoenix reads the outcome of a DDL whose reply was
    lost from the status table (which logs 0)."""
    setup, sql = DDL[name]
    seen = {}
    for kind in KINDS:
        system, connection, cursor = fresh(kind)
        for statement in setup:
            cursor.execute(statement)
        if crash and kind == "phoenix":
            connection.config.sleep = lambda _s: (
                system.endpoint.restart_server() if not system.server.up else None
            )
            system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, sql)
        seen[kind] = cursor.execute(sql).rowcount
        if crash and kind == "phoenix":
            assert connection.stats.probe_hits == 1
        connection.close()
    assert seen == {"plain": -1, "phoenix": -1}
