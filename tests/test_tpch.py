"""TPC-H workload tests: generator determinism, schema integrity, query
sanity, refresh functions, and the power-test driver."""

from __future__ import annotations

import datetime
import hashlib
from operator import itemgetter

import pytest

import repro
from repro.engine import executor as executor_module
from repro.engine.expressions import ExpressionCompiler, is_constant
from repro.sql import ast
from repro.workloads.tpch import (
    QUERIES,
    ddl_statements,
    generate,
    populate,
    query_sql,
    rf1_statements,
    rf2_statements,
)
from repro.workloads.tpch.power import run_power_test
from repro.workloads.tpch.queries import QUERY_ORDER
from repro.workloads.tpch.refresh import reload_deleted, undo_rf1_statements

SF = 0.0005  # extra small: tests should be quick


@pytest.fixture(scope="module")
def data():
    return generate(sf=SF, seed=7)


@pytest.fixture(scope="module")
def loaded():
    system = repro.make_system()
    data = populate(system, sf=SF, seed=7)
    return system, data


def q(system, sql):
    sid = system.server.connect()
    try:
        result = system.server.execute(sid, sql)
        if result.result_set is not None:
            return result.result_set.rows
        return result.rowcount
    finally:
        system.server.disconnect(sid)


# ---------------------------------------------------------------- generator

def test_generation_is_deterministic():
    a = generate(sf=SF, seed=7)
    b = generate(sf=SF, seed=7)
    assert a.rows == b.rows
    assert a.rf2_order_keys == b.rf2_order_keys


def test_different_seeds_differ():
    a = generate(sf=SF, seed=1)
    b = generate(sf=SF, seed=2)
    assert a.rows["orders"] != b.rows["orders"]


def test_row_count_ratios(data):
    counts = data.counts()
    assert counts["region"] == 5
    assert counts["nation"] == 25
    assert counts["partsupp"] == 4 * counts["part"]
    # lineitems per order between 1 and 7
    ratio = counts["lineitem"] / counts["orders"]
    assert 1 <= ratio <= 7


def test_primary_keys_unique(data):
    orders = [row[0] for row in data.rows["orders"]]
    assert len(set(orders)) == len(orders)
    lineitem_pk = [(row[0], row[3]) for row in data.rows["lineitem"]]
    assert len(set(lineitem_pk)) == len(lineitem_pk)


def test_foreign_keys_resolve(data):
    customer_keys = {row[0] for row in data.rows["customer"]}
    assert all(row[1] in customer_keys for row in data.rows["orders"])
    order_keys = {row[0] for row in data.rows["orders"]}
    assert all(row[0] in order_keys for row in data.rows["lineitem"])
    nation_keys = {row[0] for row in data.rows["nation"]}
    assert all(row[3] in nation_keys for row in data.rows["supplier"])


def test_some_customers_have_no_orders(data):
    """Spec: only ~2/3 of customers place orders (drives Q13/Q22)."""
    with_orders = {row[1] for row in data.rows["orders"]}
    all_customers = {row[0] for row in data.rows["customer"]}
    assert with_orders < all_customers


def test_dates_within_spec_range(data):
    for row in data.rows["orders"]:
        assert datetime.date(1992, 1, 1) <= row[4] <= datetime.date(1998, 8, 2)


def test_rf_data_disjoint_from_base(data):
    base = {row[0] for row in data.rows["orders"]}
    new = {row[0] for row in data.rows["new_orders"]}
    assert not base & new
    assert set(data.rf2_order_keys) <= base


def test_ddl_statements_parse():
    from repro.sql import parse

    for ddl in ddl_statements():
        parse(ddl)


# ---------------------------------------------------------------- loading & queries

def test_populate_loads_everything(loaded):
    system, data = loaded
    for table, rows in data.rows.items():
        assert q(system, f"SELECT count(*) FROM {table}") == [(len(rows),)]


@pytest.mark.parametrize("query_id", QUERY_ORDER)
def test_every_query_executes(loaded, query_id):
    system, data = loaded
    rows = q(system, query_sql(query_id, data.sf))
    assert isinstance(rows, list)


def test_q1_aggregates_are_consistent(loaded):
    system, data = loaded
    rows = q(system, query_sql("Q1", data.sf))
    for row in rows:
        flag, status, sum_qty, sum_base, sum_disc, sum_charge, avg_qty, avg_price, avg_disc, n = row
        assert n > 0
        assert abs(avg_qty - sum_qty / n) < 1e-6
        assert sum_disc <= sum_base  # discounts only reduce
        assert sum_charge >= sum_disc  # tax only adds


def test_q6_equals_manual_computation(loaded):
    system, data = loaded
    got = q(system, query_sql("Q6", data.sf))[0][0]
    expected = sum(
        row[5] * row[6]
        for row in data.rows["lineitem"]
        if datetime.date(1994, 1, 1) <= row[10] < datetime.date(1995, 1, 1)
        and 0.05 <= row[6] <= 0.07
        and row[4] < 24
    )
    if got is None:
        assert expected == 0
    else:
        assert abs(got - expected) < 1e-6


def test_q13_counts_every_customer(loaded):
    system, data = loaded
    rows = q(system, query_sql("Q13", data.sf))
    assert sum(dist for _count, dist in rows) == len(data.rows["customer"])


#: sha256 of the rows of the 22 queries at sf 0.001, data seed 42 (the
#: benchmark's database), in query-number order: a change to the executor
#: must leave every answer byte-identical, row order and float bits included
ANSWERS_DIGEST = "56981e7ef213c69319861691972a86a118ca7c1462a7d1d03981c622d6980116"


def test_the_answers_of_the_22_queries_are_pinned():
    system = repro.make_system()
    data = populate(system, sf=0.001, seed=42, checkpoint=False)
    digest = hashlib.sha256()
    for query_id in sorted(QUERY_ORDER, key=lambda name: int(name[1:])):
        digest.update(f"{query_id} {q(system, query_sql(query_id, data.sf))!r}\n".encode())
    assert digest.hexdigest() == ANSWERS_DIGEST


#: query -> the join lines of its plan: which step looks lineitem up per
#: outer row, and where each filter runs (Q18's uncorrelated IN subquery
#: at the orders step, not after the three-way join)
INDEX_JOIN = "looked up per outer row; HashJoin when the outer side is not smaller)"
PLAN_SHAPES = {
    "Q3": [
        "Scan customer  [local prefilter (residual filter on customer rows)]",
        "IndexJoin(CROSS) orders ON customer.c_custkey = orders.o_custkey (index on o_custkey "
        f"{INDEX_JOIN}  [local prefilter (residual filter on orders rows)]",
        "IndexJoin(CROSS) lineitem ON orders.o_orderkey = lineitem.l_orderkey (index on l_orderkey "
        f"{INDEX_JOIN}  [local prefilter (residual filter on lineitem rows)]",
    ],
    "Q10": [
        "Scan customer",
        "IndexJoin(CROSS) orders ON customer.c_custkey = orders.o_custkey (index on o_custkey "
        f"{INDEX_JOIN}  [local prefilter (residual filter on orders rows)]",
        "IndexJoin(CROSS) lineitem ON orders.o_orderkey = lineitem.l_orderkey (index on l_orderkey "
        f"{INDEX_JOIN}  [local prefilter (residual filter on lineitem rows)]",
        "IndexJoin(CROSS) nation ON customer.c_nationkey = nation.n_nationkey (primary key "
        f"{INDEX_JOIN}",
    ],
    "Q18": [
        "Scan customer",
        "IndexJoin(CROSS) orders ON customer.c_custkey = orders.o_custkey (index on o_custkey "
        f"{INDEX_JOIN}  [local prefilter (residual filter on orders rows)]",
        "IndexJoin(CROSS) lineitem ON orders.o_orderkey = lineitem.l_orderkey (index on l_orderkey "
        f"{INDEX_JOIN}",
    ],
}


@pytest.mark.parametrize("query_id", PLAN_SHAPES)
def test_join_plan_shapes(loaded, query_id):
    system, data = loaded
    lines = [line for (line,) in q(system, "EXPLAIN " + query_sql(query_id, data.sf))]
    joins = PLAN_SHAPES[query_id]
    assert lines[: len(joins)] == joins
    assert lines[len(joins)].startswith("Aggregate by")  # no final WHERE


#: the comparison operators a compiled shape covers
COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}


def test_the_hot_shapes_of_the_22_queries_compile_to_their_fast_closures(loaded, monkeypatch):
    """A refactor that drops a compiled shape fails here, not only in the
    timing gate.  Over the 22 queries: every ``column <op> constant`` (either
    way round), constant-bounded BETWEEN and constant IN list whose
    constants pair directly with some row value reads its slot in one
    closure, and every GROUP BY of plain columns keys rows with
    ``itemgetter``."""
    system, data = loaded
    compiled = []  # (compiler, node, closure), in compile order
    plans = []
    compile_expr = ExpressionCompiler.compile
    plan_grouping = executor_module._SelectPlan._plan_grouping

    def recording_compile(compiler, expr):
        fn = compile_expr(compiler, expr)
        compiled.append((compiler, expr, fn))
        return fn

    def recording_grouping(plan, key_fns):
        plan_grouping(plan, key_fns)
        plans.append(plan)

    monkeypatch.setattr(ExpressionCompiler, "compile", recording_compile)
    monkeypatch.setattr(executor_module._SelectPlan, "_plan_grouping", recording_grouping)
    for query_id in QUERY_ORDER:
        q(system, query_sql(query_id, data.sf))

    def column(compiler, node) -> bool:
        if not isinstance(node, ast.ColumnRef):
            return False
        resolved = compiler.scope.try_resolve(node.name, node.table)
        return resolved is not None and resolved[0] == 0

    def comparable(fn) -> bool:
        if not is_constant(fn):
            return False
        value = fn(None)
        return value == value and type(value) in {int, float, str, datetime.date}

    latest: dict[int, object] = {}  # node -> its closure in the compile at hand
    found = {"_cmp_constant": 0, "_between_constants": 0, "_in_set": 0}
    for compiler, node, fn in compiled:
        latest[id(node)] = fn
        expected = None
        if isinstance(node, ast.Binary) and node.op in COMPARISONS:
            left, right = latest[id(node.left)], latest[id(node.right)]
            if (column(compiler, node.left) and comparable(right)) or (
                column(compiler, node.right) and comparable(left)
            ):
                expected = "_cmp_constant"
        elif isinstance(node, ast.Between):
            bounds = (latest[id(node.low)], latest[id(node.high)])
            if column(compiler, node.operand) and all(map(comparable, bounds)):
                expected = "_between_constants"
        elif isinstance(node, ast.InList):
            items = [latest[id(item)] for item in node.items]
            if column(compiler, node.operand) and all(map(comparable, items)):
                if len({type(item(None)) for item in items}) == 1:
                    expected = "_in_set"
        if expected is not None:
            assert fn.__name__ == expected, node.sql()
            found[expected] += 1
    # the counts at sf 0.0005: a guard that checks nothing must not pass
    assert found["_cmp_constant"] >= 53 and found["_between_constants"] >= 9, found
    assert found["_in_set"] >= 6, found

    plain_keys = 0
    for plan in plans:
        if plan.group_exprs and all(column(plan.compiler, e) for e in plan.group_exprs):
            assert isinstance(plan.group_key, itemgetter), plan.select.sql()
            plain_keys += 1
    assert plain_keys >= 20, plain_keys


def test_queries_named_in_paper_exist():
    # the rows the paper's Table 1 excerpt names
    for query_id in ("Q16",):
        assert query_id in QUERIES


# ---------------------------------------------------------------- refresh

def test_rf1_inserts_then_undo_restores(loaded):
    system, data = loaded
    before = q(system, "SELECT count(*) FROM orders")
    sid = system.server.connect()
    for txn in rf1_statements(data):
        system.server.execute(sid, "BEGIN")
        for sql in txn:
            system.server.execute(sid, sql)
        system.server.execute(sid, "COMMIT")
    added = len(data.rows["new_orders"])
    assert q(system, "SELECT count(*) FROM orders") == [(before[0][0] + added,)]
    for sql in undo_rf1_statements(data):
        system.server.execute(sid, sql)
    system.server.disconnect(sid)
    assert q(system, "SELECT count(*) FROM orders") == before


def test_rf2_deletes_then_reload_restores(loaded):
    system, data = loaded
    before_orders = q(system, "SELECT count(*) FROM orders")
    before_items = q(system, "SELECT count(*) FROM lineitem")
    sid = system.server.connect()
    for txn in rf2_statements(data):
        system.server.execute(sid, "BEGIN")
        for sql in txn:
            system.server.execute(sid, sql)
        system.server.execute(sid, "COMMIT")
    assert q(system, "SELECT count(*) FROM orders") == [
        (before_orders[0][0] - len(data.rf2_order_keys),)
    ]
    reload_deleted(data, lambda sql: system.server.execute(sid, sql))
    system.server.disconnect(sid)
    assert q(system, "SELECT count(*) FROM orders") == before_orders
    assert q(system, "SELECT count(*) FROM lineitem") == before_items


def test_rf_transactions_split_in_two(data):
    assert len(rf1_statements(data)) == 2
    assert len(rf2_statements(data)) == 2


# ---------------------------------------------------------------- power test

def test_power_test_reports_all_items(loaded):
    system, data = loaded
    connection = system.plain.connect(system.DSN)
    report = run_power_test(connection, data, queries=["Q1", "Q6"])
    connection.close()
    names = [r.name for r in report.results]
    assert names == ["Q1", "Q6", "RF1", "RF2"]
    assert report.total_query_seconds > 0
    assert all(r.seconds >= 0 for r in report.results)


def test_power_test_leaves_data_unchanged(loaded):
    system, data = loaded
    before = q(system, "SELECT count(*) FROM orders")
    connection = system.plain.connect(system.DSN)
    run_power_test(connection, data, queries=["Q6"])
    connection.close()
    assert q(system, "SELECT count(*) FROM orders") == before


def test_power_test_phoenix_equals_native_rows(loaded):
    system, data = loaded
    native = system.plain.connect(system.DSN)
    phoenix = system.phoenix.connect(system.DSN)
    report_native = run_power_test(native, data, queries=["Q1", "Q3"], include_refresh=False)
    report_phoenix = run_power_test(phoenix, data, queries=["Q1", "Q3"], include_refresh=False)
    native.close()
    phoenix.close()
    assert [r.rows for r in report_native.results] == [
        r.rows for r in report_phoenix.results
    ]
