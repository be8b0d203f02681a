"""The join order: an inner-only FROM list runs in the order its static
estimates price cheapest, and its rows come back in FROM order.

What moves with the order — where a correlated subquery finds its outer
row, a view or derived table as a source, the columns ``*`` names — must
not move the answer; a LEFT join keeps FROM order; a single-source
statement never reaches the estimator; and the search stays polynomial.
"""

from __future__ import annotations

import pytest

from repro.engine import DatabaseServer
from repro.engine import executor as executor_module
from repro.errors import DataError
from tests.conftest import execute
from tests.test_differential_sqlite import (  # noqa: F401 - fixtures
    assert_same_answer,
    engines,
    seeded_server,
)


def explain(server, sid, sql) -> list[str]:
    return [line for (line,) in execute(server, sid, "EXPLAIN " + sql)]


@pytest.fixture()
def db():
    server = DatabaseServer()
    sid = server.connect()
    for sql in [
        "CREATE TABLE big (k INT PRIMARY KEY, v INT, s VARCHAR(5))",
        "CREATE INDEX ibv ON big (v)",
        "CREATE TABLE small (id INT PRIMARY KEY, bv INT, tag VARCHAR(5))",
        "INSERT INTO big VALUES " + ", ".join(f"({k}, {k % 7}, 's{k % 3}')" for k in range(60)),
        "INSERT INTO small VALUES (1, 3, 'x'), (2, 5, 'y'), (3, 3, 'z')",
    ]:
        execute(server, sid, sql)
    return server, sid


#: written big first; run small (one PK row) first, then big by its index
REORDERED = "FROM big, small WHERE big.v = small.bv AND small.id = 1"


def test_a_reordered_plan_names_its_order(db):
    lines = explain(*db, "SELECT big.k " + REORDERED)
    assert lines[0] == (
        "Join order small, big by estimated cost (rows restored to FROM order big, small)"
    )
    assert lines[1].startswith("PkLookup small (id = const)")
    assert lines[2].startswith("IndexJoin(CROSS) big ON small.bv = big.v")


def test_star_and_table_star_keep_from_order(db):
    """``*`` names the sources' columns in FROM order and ``t.*`` its own
    table's, whatever order the steps run in."""
    server, sid = db
    result = server.execute(sid, "SELECT * " + REORDERED)
    assert [c.name for c in result.columns] == ["k", "v", "s", "id", "bv", "tag"]
    assert result.rows == [(k, 3, f"s{k % 3}", 1, 3, "x") for k in range(3, 60, 7)]
    result = server.execute(sid, "SELECT small.*, big.* " + REORDERED)
    assert [c.name for c in result.columns] == ["id", "bv", "tag", "k", "v", "s"]
    assert result.rows[0] == (1, 3, "x", 3, 3, "s0")


def test_a_left_join_keeps_from_order(db):
    """The inner form of the join runs ``small`` first; with a LEFT join
    the FROM list runs as written."""
    server, sid = db
    on = "ON big.v = small.bv AND small.id = 1"
    inner = explain(server, sid, f"SELECT big.k FROM big JOIN small {on}")
    assert inner[0].startswith("Join order small, big ")
    left = explain(server, sid, f"SELECT big.k FROM big LEFT JOIN small {on}")
    assert left[0] == "Scan big"
    assert left[1].startswith("HashJoin(LEFT) small ON big.v = small.bv")
    assert not any(line.startswith("Join order") for line in left)


#: ``t`` is written first and runs second (``d``'s PK filter makes it one
#: row): each subquery reads its outer column from a source that moved
MOVED_OUTER = "FROM t a0, d a1 WHERE a0.v = a1.tv AND a1.id = 4"


@pytest.mark.parametrize(
    "sql",
    [
        # Q17's shape: a correlated scalar subquery over the moved source
        f"SELECT a0.k, a1.id {MOVED_OUTER} AND a0.f < (SELECT MAX(w) FROM r WHERE r.tk = a0.k)",
        # Q21's shapes: EXISTS and NOT EXISTS correlated on it
        f"SELECT a0.k {MOVED_OUTER} AND EXISTS (SELECT 1 FROM r WHERE r.tk = a0.k)",
        f"SELECT a0.k {MOVED_OUTER} AND NOT EXISTS (SELECT 1 FROM r WHERE r.tk = a0.k AND r.w > 1)",
        f"SELECT a0.k, (SELECT COUNT(*) FROM r WHERE r.tk = a0.k) {MOVED_OUTER}",
    ],
)
def test_a_correlated_subquery_reads_a_moved_source(engines, seeded_server, sql):
    server, sid = seeded_server
    assert explain(server, sid, sql)[0].startswith("Join order a1, a0 ")
    assert_same_answer(engines, sql)


@pytest.mark.parametrize(
    "sql",
    [
        # a derived table written first and joined last: d's one row looks
        # t's keys up, and x, which has no index, is hashed
        "SELECT x.k, x.v, a2.g FROM (SELECT k, v FROM t WHERE k < 200) x, t a1, d a2 "
        "WHERE x.k = a1.k AND a1.v = a2.tv AND a2.id = 4",
        "SELECT a0.k, x.id FROM t a0, (SELECT id, tv FROM d WHERE g < 3) x, d a2 "
        "WHERE a0.v = x.tv AND x.id = a2.id AND a2.id = 7",
    ],
)
def test_a_derived_table_joins_in_a_reordered_plan(engines, seeded_server, sql):
    server, sid = seeded_server
    assert explain(server, sid, sql)[0].startswith("Join order ")
    assert_same_answer(engines, sql)


def test_a_view_joins_in_a_reordered_plan(engines, seeded_server):
    """A view is a source of a reordered join like a derived table: the
    rows the FROM order would give, in that order."""
    server, sid = seeded_server
    ours, reference = engines
    view = "CREATE VIEW low_t AS SELECT k, v, f FROM t WHERE k < 200"
    execute(server, sid, view)
    reference(view)
    sql = ("SELECT lt.k, lt.f, a2.g FROM low_t lt, t a1, d a2 "
           "WHERE lt.k = a1.k AND a1.v = a2.tv AND a2.id = 4")
    try:
        assert explain(server, sid, sql)[0].startswith("Join order a2, a1, lt ")
        assert_same_answer(engines, sql)
        # a LEFT join keeps FROM order: the same rows, in the order written
        from_order = ours(
            "SELECT lt.k, lt.f, a2.g FROM low_t lt JOIN t a1 ON lt.k = a1.k "
            "LEFT JOIN d a2 ON a1.v = a2.tv AND a2.id = 4 WHERE a2.id IS NOT NULL"
        )
        assert ours(sql) == from_order
    finally:
        execute(server, sid, "DROP VIEW low_t")
        reference("DROP VIEW low_t")


def test_a_single_source_statement_never_reaches_the_estimator(db, monkeypatch):
    server, sid = db
    calls = []
    choose = executor_module._SelectPlan._choose_order

    def counting(plan, *args):
        calls.append(plan)
        return choose(plan, *args)

    monkeypatch.setattr(executor_module._SelectPlan, "_choose_order", counting)
    for sql in [
        "SELECT * FROM big WHERE k = 5",
        "SELECT v, COUNT(*) FROM big WHERE s = 's1' GROUP BY v",
        "SELECT k FROM big WHERE v IN (SELECT bv FROM small)",
        "SELECT k FROM big WHERE EXISTS (SELECT 1 FROM small WHERE small.bv = big.v)",
        "INSERT INTO small VALUES (9, 1, 'w')",
        "UPDATE big SET s = 's9' WHERE k = 7",
        "DELETE FROM small WHERE id = 9",
        "SELECT k FROM big ORDER BY v LIMIT 3",
    ]:
        execute(server, sid, sql)
    assert calls == []
    execute(server, sid, "SELECT big.k " + REORDERED)
    assert len(calls) == 1


def test_a_chain_of_twelve_tables_plans_in_bounded_work(monkeypatch):
    """Twelve tables in a chain, written in scrambled order: the search
    takes at most n² greedy steps (n starts × n steps), each pricing at
    most n candidates — n³ estimates, no enumeration of the 12! orders —
    and finds a plan with no cross product whose answer is the chain's."""
    server = DatabaseServer()
    sid = server.connect()
    count = 12
    for i in range(count):
        execute(server, sid, f"CREATE TABLE c{i} (id INT PRIMARY KEY, nxt INT)")
        rows = ", ".join(f"({j}, {(j * 7 + i) % 20})" for j in range(20))
        execute(server, sid, f"INSERT INTO c{i} VALUES {rows}")
    written = [5, 0, 11, 3, 8, 1, 10, 6, 2, 9, 4, 7]
    sql = (
        "SELECT c0.id, c11.nxt FROM " + ", ".join(f"c{i}" for i in written)
        + " WHERE " + " AND ".join(f"c{i}.nxt = c{i + 1}.id" for i in range(count - 1))
        + " AND c0.id < 3"
    )
    steps = []
    next_step = executor_module._next_step

    def counting(joined, *args):
        steps.append(bin(joined).count("1"))  # the sources joined so far
        return next_step(joined, *args)

    monkeypatch.setattr(executor_module, "_next_step", counting)
    plan = explain(server, sid, sql)
    assert 0 < len(steps) <= count ** 2
    assert sum(count - joined for joined in steps) <= count ** 3  # candidates priced
    assert plan[0].startswith("Join order ")
    assert not any(line.startswith("NestedLoop") for line in plan)

    def follow(start: int) -> tuple[int, int]:
        key = start
        for i in range(count - 1):
            key = (key * 7 + i) % 20
        return start, (key * 7 + count - 1) % 20

    assert sorted(execute(server, sid, sql)) == [follow(start) for start in range(3)]


def test_an_implied_filter_can_raise_where_the_or_alone_did_not():
    """DESIGN.md §5b: an implied local filter runs on every row of its
    source that the step reads, before the join drops the rows that find no
    partner.  ``a``'s row with ``x = 0`` meets no ``b`` row, so the OR,
    evaluated on joined rows only, never divides by that zero; the filter
    it implies on ``a`` reads every row of ``a`` — the step hashes ``a``,
    as ``b``'s 50 rows are not fewer than its 5 — and raises."""
    server = DatabaseServer()
    sid = server.connect()
    execute(server, sid, "CREATE TABLE a (id INT PRIMARY KEY, x INT)")
    execute(server, sid, "INSERT INTO a VALUES (1, 0), (2, 1), (3, 2), (4, 4), (5, 5)")
    execute(server, sid, "CREATE TABLE b (aid INT, tag VARCHAR(5))")
    rows = ", ".join(f"({2 + i % 4}, '{'pq'[i % 2]}')" for i in range(50))
    execute(server, sid, f"INSERT INTO b VALUES {rows}")
    join = "FROM b, a WHERE a.id = b.aid"
    assert execute(server, sid, f"SELECT COUNT(*) {join} AND a.x = 0") == [(0,)]
    sql = (
        f"SELECT b.aid {join} AND "
        "((10 / a.x > 2 AND b.tag = 'p') OR (10 / a.x > 1 AND b.tag = 'q'))"
    )
    step = explain(server, sid, sql)[1]
    assert step.startswith("IndexJoin(CROSS) a ON b.aid = a.id")
    assert "local prefilter (residual filter on a rows)" in step
    with pytest.raises(DataError, match="division by zero"):
        execute(server, sid, sql)
