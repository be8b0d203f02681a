"""Tests for EXPLAIN plan introspection."""

from __future__ import annotations

import pytest

from tests.conftest import execute


@pytest.fixture()
def db(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE c (ck INT PRIMARY KEY, name VARCHAR(10))")
    execute(server, sid, "CREATE TABLE o (ok INT PRIMARY KEY, ck INT, amt FLOAT)")
    return server, sid


def plan(db, sql):
    server, sid = db
    return [row[0] for row in execute(server, sid, f"EXPLAIN {sql}")]


def test_explain_simple_scan(db):
    lines = plan(db, "SELECT * FROM c")
    assert lines[0] == "Scan c"
    assert lines[-1].startswith("Project")


def test_explain_hash_join_from_where_equality(db):
    lines = plan(db, "SELECT name FROM c, o WHERE c.ck = o.ck")
    assert any(line.startswith("HashJoin") and "c.ck = o.ck" in line for line in lines)


def test_explain_hash_join_from_on_clause(db):
    lines = plan(db, "SELECT name FROM c JOIN o ON c.ck = o.ck")
    assert any("HashJoin(INNER)" in line for line in lines)


def test_explain_left_join(db):
    lines = plan(db, "SELECT name FROM c LEFT JOIN o ON c.ck = o.ck")
    assert any("HashJoin(LEFT)" in line for line in lines)


def test_explain_cross_join_without_keys_is_nested_loop(db):
    lines = plan(db, "SELECT name FROM c, o")
    assert any("NestedLoop(CROSS)" in line for line in lines)


def test_explain_pushed_filter_noted(db):
    lines = plan(db, "SELECT name FROM c WHERE name LIKE 'a%'")
    assert "residual filter" in lines[0]


def test_explain_constant_filter(db):
    lines = plan(db, "SELECT name FROM c WHERE 0 = 1")
    assert any("ConstantFilter" in line for line in lines)


def test_explain_subquery_filter_stays_final(db):
    """A correlated subquery reads the row it is asked about: its conjunct
    waits for the whole joined row."""
    lines = plan(db, "SELECT name FROM c WHERE EXISTS (SELECT 1 FROM o WHERE o.ck = c.ck)")
    assert lines[0] == "Scan c"
    assert any("final WHERE" in line for line in lines)


def test_explain_uncorrelated_subquery_filters_at_its_step(db):
    """An uncorrelated ``IN (SELECT …)`` is a value like a literal: its
    conjunct filters the rows of the source it names, before the join."""
    lines = plan(db, "SELECT name FROM c, o WHERE c.ck = o.ck AND o.ok IN (SELECT ck FROM c)")
    assert lines[0] == "Scan c"
    assert lines[1] == "HashJoin(CROSS) o ON c.ck = o.ck  [local prefilter (residual filter on o rows)]"
    assert not any("final WHERE" in line for line in lines)


def test_explain_local_and_cross_source_filters(db):
    lines = plan(db, "SELECT name FROM c JOIN o ON c.ck = o.ck AND o.amt > 2 AND o.amt > c.ck")
    assert lines[1] == (
        "HashJoin(INNER) o ON c.ck = o.ck  "
        "[local prefilter (residual filter on o rows), residual filter on joined rows]"
    )


def test_explain_index_join_per_outer_row(db):
    lines = plan(db, "SELECT name FROM o JOIN c ON c.ck = o.ck")
    assert lines[1] == (
        "IndexJoin(INNER) c ON o.ck = c.ck (primary key looked up per outer row; "
        "HashJoin when the outer side is not smaller)"
    )
    server, sid = db
    execute(server, sid, "CREATE INDEX o_ck ON o (ck)")
    lines = plan(db, "SELECT name FROM c LEFT JOIN o ON c.ck = o.ck")
    assert lines[1].startswith("IndexJoin(LEFT) o ON c.ck = o.ck (index on ck looked up")


def test_explain_names_a_list_probe(db):
    """An ``IN (…)`` list over the primary key or an indexed column is a
    probe, named with its number of values; ``NOT IN`` scans."""
    assert plan(db, "SELECT amt FROM o WHERE ok IN (2, 5)")[0] == (
        "PkLookup o (ok IN 2 values)  [local prefilter (residual filter on o rows)]"
    )
    server, sid = db
    execute(server, sid, "CREATE INDEX o_ck ON o (ck)")
    assert plan(db, "SELECT amt FROM o WHERE ck IN (7)")[0].startswith(
        "IndexScan o (ck IN 1 value)"
    )
    assert plan(db, "SELECT amt FROM o WHERE ck IN (7) AND ok = 1")[0].startswith(
        "PkLookup o (ok = const)"
    )
    assert plan(db, "SELECT amt FROM o WHERE ck NOT IN (7)")[0].startswith("Scan o")


def test_explain_mixed_type_equality_is_no_join_key(db):
    """``=`` between an INT and a VARCHAR casts the string: a hash of the
    two values would miss what it finds, so it is a residual."""
    server, sid = db
    execute(server, sid, "CREATE TABLE r (id INT PRIMARY KEY, s VARCHAR(10))")
    lines = plan(db, "SELECT name FROM c JOIN r ON c.ck = r.s")
    assert lines[1] == "NestedLoop(INNER) r  [residual filter on joined rows]"


def test_explain_aggregate_sort_limit(db):
    lines = plan(
        db,
        "SELECT name, count(*) FROM c GROUP BY name HAVING count(*) > 1 "
        "ORDER BY name LIMIT 5 OFFSET 2",
    )
    joined = "\n".join(lines)
    assert "Aggregate by [name]" in joined
    assert "Having" in joined
    assert "Sort name" in joined
    assert "Limit 5 Offset 2" in joined


def test_explain_distinct(db):
    assert any("Distinct" in line for line in plan(db, "SELECT DISTINCT name FROM c"))


def test_explain_constant_row(db):
    assert plan(db, "SELECT 1")[0] == "Result: constant row"


def test_explain_does_not_execute(db):
    server, sid = db
    execute(server, sid, "INSERT INTO c VALUES (1, 'x')")
    before = server.stats.rows_returned
    execute(server, sid, "EXPLAIN SELECT * FROM c")
    # only the plan rows were returned, not table data
    lines = execute(server, sid, "EXPLAIN SELECT * FROM c")
    assert all(isinstance(line[0], str) for line in lines)


def test_explain_round_trips_through_parser(db):
    from repro.sql import parse

    stmt = parse("EXPLAIN SELECT * FROM c")
    assert parse(stmt.sql()).sql() == stmt.sql()


def test_explain_through_phoenix(system):
    conn = system.phoenix.connect(system.DSN)
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    cur.execute("EXPLAIN SELECT * FROM t")
    lines = cur.fetchall()
    assert lines and lines[0] == ("Scan t",)
    conn.close()
