"""Executor tests: SELECT semantics end to end through the server."""

from __future__ import annotations

import datetime

import pytest

from repro.errors import DataError, ProgrammingError
from tests.conftest import execute


@pytest.fixture()
def db(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10), n FLOAT)")
    execute(
        server, sid,
        "INSERT INTO t VALUES (1, 'a', 10.0), (2, 'b', 20.0), (3, 'a', 30.0), (4, NULL, NULL)",
    )
    return server, sid


def q(db, sql):
    server, sid = db
    return execute(server, sid, sql)


# ---------------------------------------------------------------- projection

def test_select_star_order_and_width(db):
    rows = q(db, "SELECT * FROM t WHERE k = 1")
    assert rows == [(1, "a", 10.0)]


def test_select_expressions(db):
    rows = q(db, "SELECT k + 1, n / 2 FROM t WHERE k = 2")
    assert rows == [(3, 10.0)]


def test_select_constant_no_from(db):
    assert q(db, "SELECT 1 + 1") == [(2,)]


def test_column_aliases_visible_in_order_by(db):
    rows = q(db, "SELECT k * 10 AS big FROM t WHERE k <= 2 ORDER BY big DESC")
    assert rows == [(20,), (10,)]


def test_qualified_star(db):
    rows = q(db, "SELECT a.* FROM t a WHERE a.k = 1")
    assert rows == [(1, "a", 10.0)]


def test_unknown_column_raises(db):
    with pytest.raises(ProgrammingError):
        q(db, "SELECT missing FROM t")


def test_ambiguous_column_raises(db):
    with pytest.raises(ProgrammingError):
        q(db, "SELECT k FROM t a, t b")


# ---------------------------------------------------------------- where / 3VL

def test_where_null_comparison_excludes_row(db):
    # row 4 has v NULL; v = 'a' is UNKNOWN there → filtered out
    rows = q(db, "SELECT k FROM t WHERE v = 'a'")
    assert [r[0] for r in rows] == [1, 3]


def test_where_is_null(db):
    assert q(db, "SELECT k FROM t WHERE v IS NULL") == [(4,)]


def test_where_is_not_null(db):
    assert [r[0] for r in q(db, "SELECT k FROM t WHERE v IS NOT NULL")] == [1, 2, 3]


def test_not_of_unknown_is_not_true(db):
    assert q(db, "SELECT k FROM t WHERE NOT (v = 'a')") == [(2,)]


def test_or_short_circuit_with_null(db):
    # UNKNOWN OR TRUE = TRUE: row 4 matches via k = 4
    rows = q(db, "SELECT k FROM t WHERE v = 'a' OR k = 4")
    assert [r[0] for r in rows] == [1, 3, 4]


def test_between(db):
    assert [r[0] for r in q(db, "SELECT k FROM t WHERE k BETWEEN 2 AND 3")] == [2, 3]


def test_not_between(db):
    assert [r[0] for r in q(db, "SELECT k FROM t WHERE k NOT BETWEEN 2 AND 3")] == [1, 4]


def test_in_list_with_null_operand(db):
    assert q(db, "SELECT k FROM t WHERE v IN ('a', 'b') AND k = 4") == []


def test_like_patterns(db):
    assert q(db, "SELECT k FROM t WHERE v LIKE 'a%' AND k = 1") == [(1,)]
    assert q(db, "SELECT k FROM t WHERE v LIKE '_'") != []


def test_like_escape(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE s (x VARCHAR(10))")
    execute(server, sid, "INSERT INTO s VALUES ('50%'), ('50x')")
    rows = execute(server, sid, "SELECT x FROM s WHERE x LIKE '50!%' ESCAPE '!'")
    assert rows == [("50%",)]


def test_division_by_zero_raises(db):
    with pytest.raises(DataError):
        q(db, "SELECT 1 / 0")


def test_string_concat(db):
    assert q(db, "SELECT 'x' || 'y'") == [("xy",)]


# ---------------------------------------------------------------- aggregates

def test_count_star_vs_count_column(db):
    assert q(db, "SELECT count(*), count(v) FROM t") == [(4, 3)]


def test_sum_avg_skip_nulls(db):
    rows = q(db, "SELECT sum(n), avg(n) FROM t")
    assert rows == [(60.0, 20.0)]


def test_min_max(db):
    assert q(db, "SELECT min(k), max(k) FROM t") == [(1, 4)]


def test_aggregate_over_empty_input_yields_one_row(db):
    assert q(db, "SELECT count(*), sum(n) FROM t WHERE k > 100") == [(0, None)]


def test_count_distinct(db):
    assert q(db, "SELECT count(DISTINCT v) FROM t") == [(2,)]


def test_group_by_basic(db):
    rows = q(db, "SELECT v, count(*) FROM t GROUP BY v ORDER BY v")
    assert rows == [(None, 1), ("a", 2), ("b", 1)]


def test_group_by_expression(db):
    rows = q(db, "SELECT k % 2 AS parity, count(*) FROM t GROUP BY k % 2 ORDER BY parity")
    assert rows == [(0, 2), (1, 2)]


def test_group_by_alias(db):
    rows = q(db, "SELECT k % 2 AS parity, count(*) FROM t GROUP BY parity ORDER BY parity")
    assert rows == [(0, 2), (1, 2)]


def test_having_filters_groups(db):
    rows = q(db, "SELECT v, count(*) AS c FROM t GROUP BY v HAVING count(*) > 1")
    assert rows == [("a", 2)]


def test_having_without_group_rejected(db):
    with pytest.raises(ProgrammingError):
        q(db, "SELECT k FROM t HAVING k > 1")


def test_aggregate_in_where_rejected(db):
    with pytest.raises(ProgrammingError):
        q(db, "SELECT k FROM t WHERE count(*) > 1")


def test_aggregate_inside_expression(db):
    rows = q(db, "SELECT sum(n) * 2 + count(*) FROM t")
    assert rows == [(124.0,)]


def test_order_by_aggregate(db):
    rows = q(db, "SELECT v, sum(n) FROM t WHERE v IS NOT NULL GROUP BY v ORDER BY sum(n) DESC")
    assert rows == [("a", 40.0), ("b", 20.0)]


# ---------------------------------------------------------------- order / distinct / limit

def test_order_by_multiple_keys(db):
    rows = q(db, "SELECT v, k FROM t ORDER BY v DESC, k DESC")
    assert rows[0] == ("b", 2)
    assert rows[-1] == (None, 4)  # NULLs sort first ascending → last when DESC


def test_order_by_position(db):
    rows = q(db, "SELECT k, v FROM t ORDER BY 1 DESC")
    assert [r[0] for r in rows] == [4, 3, 2, 1]


def test_order_by_position_out_of_range(db):
    with pytest.raises(ProgrammingError):
        q(db, "SELECT k FROM t ORDER BY 5")


def test_distinct(db):
    rows = q(db, "SELECT DISTINCT v FROM t ORDER BY v")
    assert rows == [(None,), ("a",), ("b",)]


def test_limit_offset(db):
    rows = q(db, "SELECT k FROM t ORDER BY k LIMIT 2 OFFSET 1")
    assert rows == [(2,), (3,)]


def test_top(db):
    assert len(q(db, "SELECT TOP 3 k FROM t")) == 3


# ---------------------------------------------------------------- joins

@pytest.fixture()
def join_db(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE c (ck INT PRIMARY KEY, name VARCHAR(10))")
    execute(server, sid, "CREATE TABLE o (ok INT PRIMARY KEY, ck INT, amount FLOAT)")
    execute(server, sid, "INSERT INTO c VALUES (1, 'ann'), (2, 'bob'), (3, 'cyd')")
    execute(server, sid, "INSERT INTO o VALUES (10, 1, 5.0), (11, 1, 7.0), (12, 2, 9.0)")
    return server, sid


def test_inner_join_on(join_db):
    rows = q(join_db, "SELECT name, amount FROM c JOIN o ON c.ck = o.ck ORDER BY amount")
    assert rows == [("ann", 5.0), ("ann", 7.0), ("bob", 9.0)]


def test_comma_join_with_where_equals_inner_join(join_db):
    a = q(join_db, "SELECT name, amount FROM c, o WHERE c.ck = o.ck ORDER BY amount")
    b = q(join_db, "SELECT name, amount FROM c JOIN o ON c.ck = o.ck ORDER BY amount")
    assert a == b


def test_left_join_pads_nulls(join_db):
    rows = q(join_db, "SELECT name, ok FROM c LEFT JOIN o ON c.ck = o.ck ORDER BY name, ok")
    assert ("cyd", None) in rows
    assert len(rows) == 4


def test_left_join_where_on_right_column_filters_nulls(join_db):
    rows = q(join_db, "SELECT name FROM c LEFT JOIN o ON c.ck = o.ck WHERE amount > 6 ORDER BY name")
    assert rows == [("ann",), ("bob",)]


def test_cross_join_counts(join_db):
    assert q(join_db, "SELECT count(*) FROM c CROSS JOIN o") == [(9,)]


def test_join_null_keys_never_match(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE a (x INT)")
    execute(server, sid, "CREATE TABLE b (x INT)")
    execute(server, sid, "INSERT INTO a VALUES (NULL), (1)")
    execute(server, sid, "INSERT INTO b VALUES (NULL), (1)")
    assert execute(server, sid, "SELECT count(*) FROM a JOIN b ON a.x = b.x") == [(1,)]


def test_self_join_with_aliases(join_db):
    rows = q(join_db, "SELECT a.ok, b.ok FROM o a, o b WHERE a.ck = b.ck AND a.ok < b.ok")
    assert rows == [(10, 11)]


def test_three_way_join_with_pushdown(join_db):
    server, sid = join_db
    execute(server, sid, "CREATE TABLE r (ck INT, region VARCHAR(5))")
    execute(server, sid, "INSERT INTO r VALUES (1, 'east'), (2, 'west')")
    rows = q(
        join_db,
        "SELECT region, sum(amount) FROM c, o, r "
        "WHERE c.ck = o.ck AND c.ck = r.ck AND amount > 5 "
        "GROUP BY region ORDER BY region",
    )
    assert rows == [("east", 7.0), ("west", 9.0)]


def test_derived_table(join_db):
    rows = q(
        join_db,
        "SELECT name, total FROM c JOIN "
        "(SELECT ck AS k2, sum(amount) AS total FROM o GROUP BY ck) s ON c.ck = s.k2 "
        "ORDER BY total DESC",
    )
    assert rows == [("bob", 9.0), ("ann", 12.0)][::-1] or rows == [("ann", 12.0), ("bob", 9.0)]


# ---------------------------------------------------------------- subqueries

def test_uncorrelated_in_subquery(join_db):
    rows = q(join_db, "SELECT name FROM c WHERE ck IN (SELECT ck FROM o) ORDER BY name")
    assert rows == [("ann",), ("bob",)]


def test_not_in_subquery(join_db):
    assert q(join_db, "SELECT name FROM c WHERE ck NOT IN (SELECT ck FROM o)") == [("cyd",)]


def test_not_in_subquery_with_null_is_empty(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE a (x INT)")
    execute(server, sid, "CREATE TABLE b (x INT)")
    execute(server, sid, "INSERT INTO a VALUES (1)")
    execute(server, sid, "INSERT INTO b VALUES (2), (NULL)")
    # NOT IN with a NULL in the subquery is UNKNOWN for every row
    assert execute(server, sid, "SELECT x FROM a WHERE x NOT IN (SELECT x FROM b)") == []


def test_correlated_exists(join_db):
    rows = q(
        join_db,
        "SELECT name FROM c WHERE EXISTS (SELECT * FROM o WHERE o.ck = c.ck) ORDER BY name",
    )
    assert rows == [("ann",), ("bob",)]


def test_correlated_not_exists(join_db):
    assert q(
        join_db,
        "SELECT name FROM c WHERE NOT EXISTS (SELECT * FROM o WHERE o.ck = c.ck)",
    ) == [("cyd",)]


def test_correlated_scalar_subquery(join_db):
    rows = q(
        join_db,
        "SELECT name, (SELECT sum(amount) FROM o WHERE o.ck = c.ck) AS total "
        "FROM c ORDER BY name",
    )
    assert rows == [("ann", 12.0), ("bob", 9.0), ("cyd", None)]


def test_scalar_subquery_multiple_rows_raises(join_db):
    with pytest.raises(ProgrammingError):
        q(join_db, "SELECT (SELECT ok FROM o) FROM c")


def test_scalar_subquery_in_having(join_db):
    rows = q(
        join_db,
        "SELECT ck, sum(amount) FROM o GROUP BY ck "
        "HAVING sum(amount) > (SELECT avg(amount) FROM o)",
    )
    assert rows == [(1, 12.0), (2, 9.0)]


# ---------------------------------------------------------------- evaluation order
#
# DESIGN.md §5b "Join steps filter before they join": a conjunct that names
# one source runs on that source's rows before they are joined — on every
# row when the step hashes the source, on the rows an index finds when it
# looks keys up — and an uncorrelated subquery runs where its conjunct does.
# So a row no join partner reaches can fail a filter that used to run only
# on joined rows.  PostgreSQL filters at the scan too.  Grouping buckets the
# rows by key before it folds any aggregate, so it evaluates every row's key
# before any aggregate argument.


def test_a_local_filter_runs_on_rows_no_join_partner_reaches(join_db):
    server, sid = join_db
    execute(server, sid, "CREATE TABLE n (ck INT, code VARCHAR(5))")  # no index: hashed
    execute(server, sid, "INSERT INTO n VALUES (1, '42'), (9, 'x')")
    # only (1, '42') has a partner in c; the CAST fails on (9, 'x')
    with pytest.raises(DataError):
        q(join_db, "SELECT name FROM c JOIN n ON c.ck = n.ck WHERE CAST(n.code AS INT) > 0")
    # what the join used to answer, when the CAST ran on joined rows only
    assert q(
        join_db,
        "SELECT name FROM c JOIN n ON c.ck = n.ck WHERE n.ck <> 9 AND CAST(n.code AS INT) > 0",
    ) == [("ann",)]


def test_an_uncorrelated_subquery_runs_under_an_empty_join(join_db):
    # cyd has no orders: the join is empty, and the scalar subquery (three
    # rows) used to wait for a joined row that never came
    sql = "SELECT name FROM c JOIN o ON c.ck = o.ck WHERE c.name = 'cyd' AND c.ck {} (SELECT ck FROM o)"
    with pytest.raises(ProgrammingError, match="more than one row"):
        q(join_db, sql.format("="))
    assert q(join_db, sql.format("IN")) == []


def test_grouping_evaluates_every_key_before_any_aggregate_argument(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE e (k INT PRIMARY KEY, g VARCHAR(5), x VARCHAR(5))")
    # row 1's argument fails, and row 2's key: the key's error surfaces
    execute(server, sid, "INSERT INTO e VALUES (1, '1', 'x'), (2, 'y', '2')")
    sql = "SELECT CAST(g AS INT), sum(CAST(x AS INT)) FROM e GROUP BY CAST(g AS INT)"
    with pytest.raises(DataError, match="'y'"):
        execute(server, sid, sql)
    execute(server, sid, "UPDATE e SET g = '2' WHERE k = 2")
    with pytest.raises(DataError, match="'x'"):
        execute(server, sid, sql)


def test_constant_false_where_short_circuits(db):
    server, sid = db
    before = server.stats.rows_returned
    rows = q(db, "SELECT k, v FROM t WHERE 0 = 1")
    assert rows == []


def test_dates_round_trip(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE d (when_ DATE)")
    execute(server, sid, "INSERT INTO d VALUES ('1998-12-01')")
    rows = execute(server, sid, "SELECT when_ - INTERVAL '90' DAY FROM d")
    assert rows == [(datetime.date(1998, 9, 2),)]


def test_extract_and_case(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE d (when_ DATE)")
    execute(server, sid, "INSERT INTO d VALUES ('1998-12-01'), ('1997-01-15')")
    rows = execute(
        server, sid,
        "SELECT CASE WHEN EXTRACT(YEAR FROM when_) = 1998 THEN 'new' ELSE 'old' END "
        "FROM d ORDER BY when_",
    )
    assert rows == [("old",), ("new",)]
