"""Differential SQL testing: this engine against stdlib ``sqlite3``.

Every other fingerprint guard in the suite compares the engine with itself
(indexed vs un-indexed, cache on vs off, TCP vs in-process) — that catches
drift, never a bug both sides share.  Here one seeded schema is loaded into
this engine and into an in-memory sqlite, and the same query *text* runs on
both (Sáenz-Pérez, PAPERS.md: an SQL DBMS as the reference back end):

* results are compared as sorted multisets — row order without ORDER BY, and
  the order of ties under it, is engine-defined;
* under ORDER BY the rows' *key columns* must also agree position by
  position;
* under LIMIT, which rows survive a tie at the cut is engine-defined too, so
  the count and the key columns must agree and every row must come from the
  reference's un-limited answer.

The dialect intersection is what the fixed queries and the Hypothesis
strategies (selects, joins, aggregates, DML predicates) stay inside; where the engines
are *meant* to disagree is
:data:`ALLOWED_DIVERGENCES`, the one allow-list, and each entry is asserted
to still diverge so it cannot outlive the behaviour it excuses.  (TPC-H
through sqlite needs a dialect translator — ``DATE '…' ± INTERVAL``,
``EXTRACT`` — and is a ROADMAP item, not this file.)
"""

from __future__ import annotations

import random
import sqlite3
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import DatabaseServer
from repro.errors import DataError, Error
from repro.sql import ast, parse
from tests.conftest import execute
from tests.test_executor_vectorized import PARITY_QUERIES

SCHEMA = [
    "CREATE TABLE t (k INT PRIMARY KEY, v INT, f FLOAT, s VARCHAR(10))",
    "CREATE INDEX iv ON t (v)",
    "CREATE INDEX istr ON t (s)",
    "CREATE TABLE r (id INT PRIMARY KEY, tk INT, w INT)",
    "CREATE TABLE d (id INT PRIMARY KEY, tv INT, g INT)",
    "CREATE INDEX idtv ON d (tv)",
]


def _literal(value) -> str:
    return "NULL" if value is None else repr(value)


def seeded_statements() -> list[str]:
    """The schema and its seeded data, as statements: ~10 % NULLs per
    nullable column, duplicate-heavy ``v`` and ``s`` (ties), and ``r.tk``
    values that dangle past ``t``'s keys (LEFT JOIN misses), and a small
    ``d`` whose indexed ``tv`` repeats ``t.v``'s values (a join step into
    ``t`` from ``d`` has fewer outer rows than inner ones, from ``t`` into
    ``d`` more)."""
    rng = random.Random(23)

    def nullable(value):
        return None if rng.random() < 0.1 else value

    tables = {
        "t": [
            (
                k,
                nullable(rng.randrange(40)),
                nullable(rng.randrange(-200, 200) / 4),
                nullable(f"s{rng.randrange(9)}"),
            )
            for k in range(300)
        ],
        "r": [(i, nullable(rng.randrange(360)), rng.randrange(5)) for i in range(150)],
        "d": [(i, nullable(rng.randrange(40)), rng.randrange(5)) for i in range(20)],
    }
    return SCHEMA + [
        f"INSERT INTO {name} VALUES "
        + ", ".join("(" + ", ".join(map(_literal, row)) + ")" for row in rows)
        for name, rows in tables.items()
    ]


@pytest.fixture(scope="module")
def seeded_server():
    server = DatabaseServer()
    sid = server.connect()
    for sql in seeded_statements():
        execute(server, sid, sql)
    return server, sid


@pytest.fixture(scope="module")
def engines(seeded_server):
    """(run on this engine, run on sqlite) over identical seeded data."""
    server, sid = seeded_server
    lite = sqlite3.connect(":memory:")
    for sql in seeded_statements():
        lite.execute(sql)
    lite.commit()  # the DML test rolls back: the seed must not go with it
    yield (lambda sql: execute(server, sid, sql)), (lambda sql: lite.execute(sql).fetchall())
    lite.close()


def _normal(rows) -> list[tuple]:
    """Rows as comparable tuples: floats rounded (the engines may sum in a
    different order), booleans as sqlite's 0/1."""
    return [
        tuple(round(v, 6) if isinstance(v, float) else int(v) if isinstance(v, bool) else v
              for v in row)
        for row in rows
    ]


def _multiset(rows) -> Counter:
    return Counter(_normal(rows))


def _key_positions(select) -> list[int]:
    """Output positions of the leading ORDER BY keys that are output
    columns (by name, alias or 1-based position)."""
    first = select.parts[0] if isinstance(select, ast.UnionSelect) else select
    names = [item.alias or item.expr.sql() for item in first.items]
    positions = []
    for order in select.order_by:
        expr = order.expr
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            positions.append(expr.value - 1)
        elif expr.sql() in names:
            positions.append(names.index(expr.sql()))
        else:
            break
    return positions


def assert_same_answer(engines, sql: str) -> None:
    ours_run, reference_run = engines
    ours, reference = _normal(ours_run(sql)), _normal(reference_run(sql))
    select = parse(sql)
    if select.limit is None:
        assert Counter(ours) == Counter(reference), sql
    else:
        assert len(ours) == len(reference), sql
        unlimited = replace(select, limit=None, offset=None).sql()
        assert not Counter(ours) - _multiset(reference_run(unlimited)), sql
    positions = _key_positions(select)
    assert [tuple(row[p] for p in positions) for row in ours] == [
        tuple(row[p] for p in positions) for row in reference
    ], sql


# ------------------------------------------------------------- fixed queries

FIXED_QUERIES = PARITY_QUERIES + [
    # ranges, BETWEEN, NULL bounds
    "SELECT k, f FROM t WHERE f > -10.5 AND f <= 12.25 ORDER BY f, k",
    "SELECT k FROM t WHERE v NOT BETWEEN 5 AND 30 ORDER BY k",
    "SELECT k FROM t WHERE v > NULL",
    "SELECT k FROM t WHERE v BETWEEN NULL AND 5",
    "SELECT k FROM t WHERE v IN (1, 2, NULL) ORDER BY k",
    "SELECT k FROM t WHERE v NOT IN (1, 2, NULL) ORDER BY k",
    "SELECT k FROM t WHERE NOT (v > 10) ORDER BY k",
    "SELECT k FROM t WHERE v IS NULL OR s IS NULL ORDER BY k",
    "SELECT k FROM t WHERE v < f ORDER BY k",
    "SELECT k FROM t WHERE k NOT BETWEEN v AND f ORDER BY k",  # false AND unknown is false
    # ORDER BY ... LIMIT ... OFFSET, NULL placement, ties at the cut
    "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 7 OFFSET 5",
    "SELECT k, s FROM t ORDER BY s, k LIMIT 12",
    "SELECT k, f FROM t ORDER BY f DESC LIMIT 10 OFFSET 290",
    "SELECT s, v FROM t ORDER BY s DESC, v LIMIT 40",
    "SELECT k, v FROM t WHERE v BETWEEN 10 AND 12 ORDER BY v LIMIT 4 OFFSET 3",
    "SELECT k, v FROM t ORDER BY v LIMIT 0",
    # GROUP BY, HAVING, DISTINCT, aggregates over empty and NULL input
    "SELECT v, COUNT(*), COUNT(f), MIN(s), MAX(f), SUM(f) FROM t GROUP BY v ORDER BY v",
    "SELECT s, AVG(v) FROM t GROUP BY s HAVING COUNT(*) > 30 ORDER BY s",
    "SELECT w, COUNT(DISTINCT tk) FROM r GROUP BY w ORDER BY w",
    "SELECT DISTINCT s, v FROM t WHERE v < 4",
    "SELECT COUNT(*), SUM(v), MIN(v), MAX(s) FROM t WHERE k < 0",
    "SELECT COUNT(v), MAX(s) FROM t WHERE 0 = 1",  # folded false: still one row
    # joins: self, inner, LEFT (dangling and NULL keys), correlated subqueries
    "SELECT a.k, b.k FROM t a JOIN t b ON a.v = b.k WHERE a.k < 40 ORDER BY a.k",
    "SELECT t.k, r.id FROM t JOIN r ON r.tk = t.k WHERE r.w = 2 ORDER BY r.id",
    "SELECT t.k, r.w FROM t LEFT JOIN r ON r.tk = t.k WHERE t.k < 60 ORDER BY t.k",
    "SELECT r.id, t.s FROM r LEFT JOIN t ON r.tk = t.k ORDER BY r.id",
    "SELECT k FROM t WHERE k IN (SELECT tk FROM r WHERE w = 1) ORDER BY k",
    "SELECT k FROM t WHERE k NOT IN (SELECT tk FROM r WHERE w = 1) ORDER BY k",
    "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM r WHERE r.tk = t.k AND r.w > 2) ORDER BY k",
    "SELECT k, (SELECT MAX(w) FROM r WHERE r.tk = t.k) FROM t WHERE k < 50 ORDER BY k",
    # UNION / UNION ALL, positional ORDER BY
    "SELECT v FROM t WHERE k < 50 UNION SELECT w FROM r ORDER BY 1",
    "SELECT v FROM t WHERE k < 20 UNION ALL SELECT w FROM r WHERE id < 10",
    "SELECT k, s FROM t WHERE v = 3 UNION SELECT id, NULL FROM r WHERE w = 0 ORDER BY 1 LIMIT 9",
    # expressions both engines define alike
    "SELECT k, v % 7, -v, v * 2 + 1, f / 3, f * v, -k % 5 FROM t WHERE k < 40",
    "SELECT s || 'x', UPPER(s), LENGTH(s), ABS(v - 20), COALESCE(v, -1) FROM t WHERE k < 40",
    "SELECT k, CASE WHEN v > 20 THEN 'hi' WHEN v IS NULL THEN NULL ELSE 'lo' END FROM t",
    "SELECT k FROM t WHERE s LIKE 's1%' OR s LIKE '_3' ORDER BY k",
    "SELECT k, CAST(f AS INT), CAST(v AS VARCHAR(5)) FROM t WHERE k < 40",
]


@pytest.mark.parametrize("sql", FIXED_QUERIES)
def test_fixed_query_matches_sqlite(engines, sql):
    assert_same_answer(engines, sql)


# ---------------------------------------------------- the one allow-list

#: name -> (a query on the seeded schema that shows it, why it is intended).
#: The fixed queries and the generator stay out of these; the test below
#: asserts each still diverges.
ALLOWED_DIVERGENCES = {
    "integer division": (
        "SELECT k, v / 3 FROM t WHERE v = 7",
        "`/` is true division here whatever its operands (prices and averages "
        "in TPC-H are INT / INT); sqlite truncates INTEGER / INTEGER",
    ),
    "DECIMAL-as-float": (
        "SELECT CAST(5 AS DECIMAL(8, 2)) / 2",
        "a DECIMAL is a float here and keeps its fraction; sqlite's NUMERIC "
        "affinity turns 5.00 into INTEGER 5, after which `/` truncates — so "
        "the seeded schema has no DECIMAL column",
    ),
    "division by zero": (
        "SELECT k, v / (v - v) FROM t WHERE k < 5 AND v IS NOT NULL",
        "a DataError here (as in the SQL standard); sqlite answers NULL",
    ),
    "string-vs-number comparison": (
        "SELECT k FROM t WHERE v > 'abc'",
        "a DataError here — comparing a number with a non-numeric string is "
        "a bug in the query; sqlite orders values by storage class instead",
    ),
    "string arithmetic (+)": (
        "SELECT s + 1 FROM t WHERE k < 5",
        "a DataError here — arithmetic is defined on numbers; sqlite coerces "
        "the string to a number (0 when it does not look like one)",
    ),
    "string arithmetic (*)": (
        "SELECT s * 2 FROM t WHERE k < 5",
        "a DataError here, as for `+` (and not Python's repeated string); "
        "sqlite coerces the string to a number",
    ),
    "collation": (
        "SELECT k FROM t WHERE s LIKE 'S1%'",
        "LIKE is case-sensitive here, like every other string comparison; "
        "sqlite's LIKE folds ASCII case",
    ),
}


@pytest.mark.parametrize("name", ALLOWED_DIVERGENCES)
def test_allowed_divergence_still_diverges(engines, name):
    ours_run, reference_run = engines
    sql, reason = ALLOWED_DIVERGENCES[name]
    assert reason
    reference = _multiset(reference_run(sql))
    try:
        ours = _multiset(ours_run(sql))
    except Error:
        return  # an error where sqlite answers: diverged as documented
    assert ours != reference, f"{name}: no longer diverges — drop the entry"


@pytest.mark.parametrize("sql", ["SELECT s + 1 FROM t WHERE k < 5", "SELECT s * 2 FROM t WHERE k < 5"])
def test_string_arithmetic_is_a_data_error(engines, sql):
    """Found by this suite: ``s + 1`` leaked a Python TypeError and ``s * 2``
    repeated the string; both are a DataError (sqlite coerces the string to
    a number — not the behaviour to copy, see ALLOWED_DIVERGENCES)."""
    with pytest.raises(DataError):
        engines[0](sql)


# ------------------------------------------------- generated WHERE × ORDER × LIMIT

_column = ast.ColumnRef
_ints = st.integers(min_value=-5, max_value=45).map(ast.Literal)
_quarters = st.integers(min_value=-220, max_value=220).map(lambda n: ast.Literal(n / 4))
_null = st.just(ast.Literal(None))
_strings = st.sampled_from(["s0", "s3", "s5", "s8", "s", "t", ""]).map(ast.Literal)
_comparisons = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def _numeric(depth: int) -> st.SearchStrategy[ast.Expr]:
    """INT / FLOAT valued: columns, literals, ``+ - *`` (no ``/``: see
    ALLOWED_DIVERGENCES) — small enough never to leave 64-bit integers."""
    base = st.one_of(st.sampled_from(["k", "v", "f"]).map(_column), _ints, _quarters)
    if depth == 0:
        return base
    sub = _numeric(depth - 1)
    return st.one_of(
        base,
        st.builds(ast.Binary, st.sampled_from(["+", "-", "*"]), sub, sub),
        sub.map(lambda e: ast.Unary("-", e)),
    )


def _predicates(depth: int) -> st.SearchStrategy[ast.Expr]:
    """Well-typed predicates: numbers compare with numbers, ``s`` with
    strings, NULL with either."""
    number, text = _numeric(1), st.one_of(st.just(_column("s")), _strings)
    leaf = st.one_of(
        st.builds(ast.Binary, _comparisons, number, st.one_of(number, _null)),
        st.builds(ast.Binary, _comparisons, text, st.one_of(text, _null)),
        st.builds(ast.Between, number, number, st.one_of(number, _null), st.booleans()),
        st.builds(ast.Between, st.just(_column("s")), _strings, _strings, st.booleans()),
        st.builds(
            ast.InList, number, st.lists(st.one_of(_ints, _null), min_size=1, max_size=4),
            st.booleans(),
        ),
        st.builds(
            ast.InList, st.just(_column("s")),
            st.lists(st.one_of(_strings, _null), min_size=1, max_size=3), st.booleans(),
        ),
        st.builds(ast.IsNull, st.sampled_from(["v", "f", "s"]).map(_column), st.booleans()),
    )
    if depth == 0:
        return leaf
    sub = _predicates(depth - 1)
    return st.one_of(
        leaf,
        st.builds(ast.Binary, st.sampled_from(["AND", "OR"]), sub, sub),
        sub.map(lambda e: ast.Unary("NOT", e)),
    )


_order_by = st.lists(
    st.builds(ast.OrderItem, st.sampled_from(["k", "v", "f", "s"]).map(_column), st.booleans()),
    max_size=3,
    unique_by=lambda item: item.expr.name,
)


@st.composite
def selects(draw) -> str:
    limit = draw(st.none() | st.integers(min_value=0, max_value=40))
    return ast.Select(
        items=[ast.SelectItem(_column(name)) for name in ("k", "v", "f", "s")],
        from_=ast.TableName("t"),
        where=draw(st.none() | _predicates(2)),
        order_by=draw(_order_by),
        limit=limit,
        offset=None if limit is None else draw(st.none() | st.integers(0, 300)),
    ).sql()


# derandomized: tier-1 must give the same verdict on every run; breadth
# (more examples, random seeds) is a ROADMAP item
@settings(max_examples=150, deadline=None, derandomize=True)
@given(selects())
def test_generated_select_matches_sqlite(engines, sql):
    assert_same_answer(engines, sql)


# ------------------------------------------------- generated joins

#: table -> its integer-valued columns (``f`` is a FLOAT: its quarters meet
#: integers), the join columns: ``t.k``, ``r.id`` and ``d.id`` are primary
#: keys, ``t.v`` and ``d.tv`` are indexed, the rest are neither; ``v``,
#: ``tk``, ``w``, ``tv`` and ``g`` repeat values and hold NULLs
JOIN_COLUMNS = {"t": ["k", "v", "f"], "r": ["id", "tk", "w"], "d": ["id", "tv", "g"]}


@st.composite
def _local_filters(draw, alias: str, table: str) -> str:
    """A conjunct naming ``alias`` alone."""
    column = f"{alias}.{draw(st.sampled_from(JOIN_COLUMNS[table]))}"
    literal = draw(st.integers(min_value=-2, max_value=40))
    return draw(st.sampled_from([
        f"{column} {draw(_comparisons)} {literal}",
        f"{column} IS NULL",
        f"{column} IS NOT NULL",
        f"{column} BETWEEN {literal} AND {literal + 10}",
    ]))


@st.composite
def _subquery_filters(draw, alias: str, table: str) -> str:
    """An uncorrelated subquery conjunct: ``IN``, ``EXISTS`` or a scalar."""
    column = f"{alias}.{draw(st.sampled_from(JOIN_COLUMNS[table]))}"
    literal = draw(st.integers(min_value=0, max_value=4))
    return draw(st.sampled_from([
        f"{column} IN (SELECT tk FROM r WHERE w = {literal})",
        f"{column} NOT IN (SELECT tv FROM d WHERE g = {literal})",
        f"EXISTS (SELECT 1 FROM d WHERE g = {literal})",
        f"NOT EXISTS (SELECT 1 FROM r WHERE w = {literal + 3})",
        f"{column} {draw(_comparisons)} (SELECT MAX(tv) FROM d WHERE g = {literal})",
    ]))


@st.composite
def joins(draw) -> str:
    """Two or three tables, each after the first joined to an earlier one
    by ``CROSS JOIN`` and a WHERE equality, ``JOIN … ON`` or ``LEFT JOIN … ON``
    (whose ON may carry a filter on the joined table alone), with local
    filters, a cross-source comparison and an uncorrelated subquery
    conjunct in WHERE."""
    tables = draw(st.lists(st.sampled_from(sorted(JOIN_COLUMNS)), min_size=2, max_size=3))
    aliases = [f"a{i}" for i in range(len(tables))]
    source = f"{tables[0]} a0"
    where = []
    for i in range(1, len(tables)):
        partner = draw(st.integers(min_value=0, max_value=i - 1))
        key = (
            f"a{partner}.{draw(st.sampled_from(JOIN_COLUMNS[tables[partner]]))} = "
            f"a{i}.{draw(st.sampled_from(JOIN_COLUMNS[tables[i]]))}"
        )
        how = draw(st.sampled_from(["CROSS JOIN", "JOIN", "LEFT JOIN"]))
        if how == "CROSS JOIN":  # a comma would bind a later JOIN to this table
            source += f" CROSS JOIN {tables[i]} a{i}"
            where.append(key)
        else:
            on = [key] + draw(st.lists(_local_filters(aliases[i], tables[i]), max_size=1))
            source += f" {how} {tables[i]} a{i} ON {' AND '.join(on)}"
    for alias, table in zip(aliases, tables):
        where += draw(st.lists(_local_filters(alias, table), max_size=1))
    if draw(st.booleans()):
        left, right = draw(st.permutations(range(len(tables))))[:2]
        where.append(
            f"a{left}.{draw(st.sampled_from(JOIN_COLUMNS[tables[left]]))} "
            f"{draw(_comparisons)} a{right}.{draw(st.sampled_from(JOIN_COLUMNS[tables[right]]))}"
        )
    index = draw(st.integers(min_value=0, max_value=len(tables) - 1))
    where += draw(st.lists(_subquery_filters(aliases[index], tables[index]), max_size=1))
    items = ", ".join(
        f"{alias}.{column}" for alias, table in zip(aliases, tables) for column in JOIN_COLUMNS[table]
    )
    return f"SELECT {items} FROM {source}" + (f" WHERE {' AND '.join(where)}" if where else "")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(joins())
def test_generated_join_matches_sqlite(engines, sql):
    assert_same_answer(engines, sql)


@pytest.mark.parametrize(
    "sql,looks_up",
    [
        ("SELECT a0.id, a1.k FROM d a0 JOIN t a1 ON a0.tv = a1.v", True),
        ("SELECT a0.id, a1.k FROM d a0, t a1 WHERE a0.g = a1.k", True),
        ("SELECT a0.k, a1.id FROM t a0 JOIN d a1 ON a0.v = a1.tv", False),
        ("SELECT a0.k, a1.id FROM t a0 LEFT JOIN d a1 ON a0.v = a1.id AND a1.g > 1", False),
        ("SELECT a0.id, a1.k FROM d a0 LEFT JOIN t a1 ON a0.tv = a1.v AND a1.f > 0", True),
    ],
)
def test_a_join_step_looks_keys_up_when_its_outer_side_is_smaller(
    engines, seeded_server, sql, looks_up
):
    """Both ways of a join step run under the generator: ``d`` (20 rows)
    looks its keys up in ``t`` (300), ``t`` hashes ``d``."""
    stats = seeded_server[0].executor_stats
    probes = stats.index_eq_probes
    assert_same_answer(engines, sql)
    assert (stats.index_eq_probes > probes) == looks_up


# ------------------------------------------------- generated aggregates

#: GROUP BY keys: columns, and expressions over integers (``%`` on a FLOAT
#: truncates in sqlite first)
_GROUP_KEYS = ["v", "s", "f", "k % 7", "v % 4", "v + k % 3"]
#: aggregate arguments: integers and quarters, exact in binary, so sqlite's
#: left-to-right SUM agrees with ours with no tolerance
_AGGREGATE_ARGS = ["v", "f", "k", "v * 2 - k", "f + v"]


@st.composite
def _aggregates(draw) -> str:
    name = draw(st.sampled_from(["count", "sum", "avg", "min", "max", "count distinct"]))
    if name == "count" and draw(st.booleans()):
        return "COUNT(*)"
    argument = draw(st.sampled_from(_AGGREGATE_ARGS + (["s"] if name in ("min", "max") else [])))
    if name == "count distinct":
        return f"COUNT(DISTINCT {argument})"
    return f"{name.upper()}({argument})"


@st.composite
def grouped_selects(draw) -> str:
    """GROUP BY over one or two keys (or none), aggregates beside the keys,
    an optional WHERE and HAVING, ordered by the first output column."""
    keys = draw(st.lists(st.sampled_from(_GROUP_KEYS), max_size=2, unique=True))
    aggregates = draw(st.lists(_aggregates(), min_size=1, max_size=3))
    sql = f"SELECT {', '.join(keys + aggregates)} FROM t"
    where = draw(st.none() | _predicates(1))
    if where is not None:
        sql += f" WHERE {where.sql()}"
    if keys:
        sql += f" GROUP BY {', '.join(keys)}"
        if draw(st.booleans()):
            having = draw(st.sampled_from([
                f"COUNT(*) > {draw(st.integers(0, 12))}",
                f"SUM(v) > {draw(st.integers(0, 300))}",
                f"MIN(f) < {draw(st.integers(-50, 50))}",
                f"COUNT(DISTINCT s) >= {draw(st.integers(1, 4))}",
            ]))
            sql += f" HAVING {having}"
    if draw(st.booleans()):
        sql += " ORDER BY 1"
    return sql


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grouped_selects())
def test_generated_aggregate_matches_sqlite(engines, sql):
    assert_same_answer(engines, sql)


def test_a_group_sum_adds_left_to_right_in_input_order():
    """Two groups interleaved, each of 1e16, 1.0 and -1e16 in another
    order: one ``+`` per value in input order leaves group 1 at 0.0 (1e16 +
    1.0 rounds back to 1e16) and group 2 at 1.0.  A compensated sum (the
    builtin ``sum`` since CPython 3.12, ``math.fsum``) answers 1.0 for both,
    and a reordered one can answer 0.0 for group 2."""
    rows = [(1, 1, 1e16), (2, 2, -1e16), (3, 1, 1.0), (4, 2, 1e16), (5, 1, -1e16), (6, 2, 1.0)]
    server = DatabaseServer()
    sid = server.connect()
    execute(server, sid, "CREATE TABLE o (k INT PRIMARY KEY, g INT, x FLOAT)")
    execute(server, sid, f"INSERT INTO o VALUES {', '.join(map(repr, rows))}")
    answer = execute(server, sid, "SELECT g, SUM(x), AVG(x) FROM o GROUP BY g ORDER BY g")
    assert answer == [(1, 0.0, 0.0), (2, 1.0, 1.0 / 3)]


# ------------------------------------------------- generated WHERE under DML

DML_HEADS = ["UPDATE t SET v = v + 1", "DELETE FROM t"]


# two statements per example: 150 statements, the budget of the SELECT run
@settings(max_examples=75, deadline=None, derandomize=True)
@given(_predicates(2))
def test_generated_dml_matches_sqlite(engines, predicate):
    """UPDATE and DELETE find their rows through the access paths SELECT
    uses (``v`` and ``s`` are indexed, ``k`` is the key): the rows one
    touches — its rowcount, and the table it leaves — are sqlite's.  Each
    statement runs inside a transaction rolled back on both engines."""
    ours_run, reference_run = engines
    for head in DML_HEADS:
        sql = f"{head} WHERE {predicate.sql()}"
        ours_run("BEGIN TRANSACTION")
        reference_run("BEGIN")
        try:
            assert ours_run(sql) == len(reference_run(sql + " RETURNING 1")), sql
            assert _multiset(ours_run("SELECT * FROM t")) == _multiset(
                reference_run("SELECT * FROM t")
            ), sql
        finally:
            ours_run("ROLLBACK")
            reference_run("ROLLBACK")
