"""Table 1 — TPC-H power test: native ODBC vs Phoenix/ODBC (paper §4).

Runs the paper's per-query comparison once and pins its headline claims
(``test_table1_overhead_shape``):

* total query overhead is modest (paper: ≈1%; we allow a generous bound —
  a micro-scale engine pays proportionally more fixed cost per query);
* update overhead is small (paper: <0.5%);
* every query returns identical rows through both managers (transparency).

The full rendered table: ``python -m repro.bench.reporting table1``.  The
gated form of the first claim is ``phoenix_vs_plain_ratio`` of
``benchmarks/e2e/run.py --workload tpch_power`` (real files, real TCP).
"""

from __future__ import annotations

from repro.bench.harness import run_table1_power_comparison
from repro.workloads.tpch.queries import query_sql

#: the named rows of the paper's Table 1 excerpt, checked for transparency
NAMED_QUERIES = ["Q1", "Q6", "Q11", "Q16"]


def test_table1_overhead_shape(tpch_system):
    """The paper's Table 1 claims, as assertions on a fresh comparison."""
    system, data = tpch_system
    rows = run_table1_power_comparison(system=system, data=data, repetitions=2)
    by_name = {r.name: r for r in rows}

    total_query = by_name["Total Query"]
    assert total_query.ratio < 1.6, (
        f"Phoenix query overhead ratio {total_query.ratio:.2f} is far above "
        "the paper's 'modest overhead' claim"
    )
    total_updates = by_name["Total Updates"]
    assert total_updates.ratio < 2.0

    # transparency: identical results through both managers
    native = system.plain.connect(system.DSN)
    phoenix = system.phoenix.connect(system.DSN)
    for query_id in NAMED_QUERIES:
        sql = query_sql(query_id, data.sf)
        native_rows = native.cursor().execute(sql).fetchall()
        phoenix_rows = phoenix.cursor().execute(sql).fetchall()
        assert native_rows == phoenix_rows, f"{query_id} differs under Phoenix"
    native.close()
    phoenix.close()
