"""The 22 TPC-H queries checked against stdlib ``sqlite3``.

``tests/test_tpch.py`` pins a digest of this engine's own answers: that
catches drift, never a wrong answer the engine always gave.  Here the
benchmark's database (sf 0.001, data seed 42) is loaded into this engine
and into an in-memory sqlite, dates as ISO text, and each query runs on
both.  The query text goes to sqlite through a small dialect translator:

* ``DATE 'x' ± INTERVAL 'n' unit`` → ``date('x', '±n units')``, and a bare
  ``DATE 'x'`` → ``'x'`` (ISO text compares as the dates do);
* ``EXTRACT(YEAR FROM e)`` → ``CAST(strftime('%Y', e) AS INTEGER)``;
* ``SUBSTRING(e FROM a FOR b)`` → ``substr(e, a, b)``.

Q15's view script runs as it is, one statement at a time.  sqlite's LIKE is
made case-sensitive, as this engine's is.

An answer must equal sqlite's as a multiset, floats within a relative
:data:`REL_TOL` fixed before any run (the engines sum in different orders).
Where the query orders, the rows must also agree position by position on
the ORDER BY columns, so only rows tied on the sort key may swap.
"""

from __future__ import annotations

import datetime
import math
import re
import sqlite3

import pytest

import repro
from repro.sql import ast, parse
from repro.workloads.tpch import ddl_statements, generate, load, query_sql
from repro.workloads.tpch.queries import QUERY_ORDER

SF, SEED = 0.001, 42

#: relative float tolerance: sums of a few thousand prices in another order
REL_TOL = 1e-9

#: the queries with no value to check at sf 0.001, seed 42: Q2 and Q11
#: answer no row, Q19 one row of NULL (no lineitem passes its filter).  The
#: test fails if another one comes back so on both sides, or one of these
#: stops being so
EMPTY_AT_THIS_SCALE = {"Q2", "Q11", "Q19"}

_INTERVAL = re.compile(
    r"DATE '(\d{4}-\d\d-\d\d)' ([+-]) INTERVAL '(\d+)' (DAY|MONTH|YEAR)", re.IGNORECASE
)
_DATE = re.compile(r"DATE '(\d{4}-\d\d-\d\d)'", re.IGNORECASE)
_EXTRACT = re.compile(r"EXTRACT\(YEAR FROM (\w+)\)", re.IGNORECASE)
_SUBSTRING = re.compile(r"SUBSTRING\((\w+) FROM (\d+) FOR (\d+)\)", re.IGNORECASE)


def to_sqlite(sql: str) -> str:
    """``sql`` in sqlite's dialect."""
    sql = _INTERVAL.sub(
        lambda m: f"date('{m[1]}', '{m[2]}{m[3]} {m[4].lower()}s')", sql
    )
    sql = _DATE.sub(r"'\1'", sql)
    sql = _EXTRACT.sub(r"CAST(strftime('%Y', \1) AS INTEGER)", sql)
    return _SUBSTRING.sub(r"substr(\1, \2, \3)", sql)


def test_the_translator_rewrites_each_form():
    assert to_sqlite("DATE '1998-12-01' - INTERVAL '90' DAY") == "date('1998-12-01', '-90 days')"
    assert to_sqlite("DATE '1994-01-01' + INTERVAL '1' YEAR") == "date('1994-01-01', '+1 years')"
    assert to_sqlite("o_orderdate < DATE '1995-03-15'") == "o_orderdate < '1995-03-15'"
    assert to_sqlite("EXTRACT(YEAR FROM l_shipdate)") == "CAST(strftime('%Y', l_shipdate) AS INTEGER)"
    assert to_sqlite("SUBSTRING(c_phone FROM 1 FOR 2)") == "substr(c_phone, 1, 2)"


@pytest.fixture(scope="module")
def engines():
    """(run a query on this engine, run it on sqlite), same data."""
    data = generate(SF, SEED)
    system = repro.make_system()
    sid = system.server.connect()
    load(lambda sql: system.server.execute(sid, sql), data)
    lite = sqlite3.connect(":memory:")
    lite.execute("PRAGMA case_sensitive_like = ON")
    for ddl in ddl_statements():
        lite.execute(ddl)
    for table, rows in data.rows.items():
        if rows:
            marks = ", ".join("?" for _ in rows[0])
            lite.executemany(
                f"INSERT INTO {table} VALUES ({marks})",
                [tuple(_iso(value) for value in row) for row in rows],
            )

    def ours(sql: str) -> list[tuple]:
        return system.server.execute(sid, sql).rows

    def reference(sql: str) -> list[tuple]:
        rows = []
        for statement in to_sqlite(sql).split(";"):
            cursor = lite.execute(statement)
            if cursor.description is not None:
                rows = cursor.fetchall()
        return rows

    yield ours, reference
    system.server.disconnect(sid)
    lite.close()


def _iso(value):
    return value.isoformat() if isinstance(value, datetime.date) else value


def _select_of(sql: str) -> ast.Select:
    """The statement of ``sql`` that answers: Q15's is its second."""
    if sql.count(";"):
        return parse(sql.split(";")[1])
    return parse(sql)


def _key_positions(select: ast.Select) -> list[int]:
    """The output position of each ORDER BY key (each names an output
    column in the 22 queries)."""
    names = [
        (item.alias or (item.expr.name if isinstance(item.expr, ast.ColumnRef) else "")).lower()
        for item in select.items
    ]
    return [names.index(order.expr.name.lower()) for order in select.order_by]


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)
        )
    return _iso(a) == b


def _same_row(ours: tuple, theirs: tuple) -> bool:
    return len(ours) == len(theirs) and all(map(_close, ours, theirs))


def _coarse(row: tuple) -> tuple:
    """A sort key on which rows equal within tolerance land side by side."""
    return tuple(
        (0, float(f"{v:.6g}")) if isinstance(v, (int, float)) else (1, str(_iso(v))) for v in row
    )


@pytest.mark.parametrize("query_id", QUERY_ORDER)
def test_the_answer_equals_sqlites(engines, query_id):
    ours_run, reference_run = engines
    sql = query_sql(query_id, SF)
    ours, theirs = ours_run(sql), reference_run(sql)
    empty = not any(value is not None for row in ours + theirs for value in row)
    assert empty == (query_id in EMPTY_AT_THIS_SCALE), (query_id, ours)
    assert len(ours) == len(theirs), query_id
    # as a multiset: both sides sorted coarsely, then paired within tolerance
    for mine, reference in zip(sorted(ours, key=_coarse), sorted(theirs, key=_coarse)):
        assert _same_row(mine, reference), (query_id, mine, reference)
    # in order, on the sort key
    for position in _key_positions(_select_of(sql)):
        for mine, reference in zip(ours, theirs):
            assert _close(mine[position], reference[position]), (query_id, mine, reference)
