"""The TPC-H power test driver (paper §4, Table 1).

"The TPC-H power test executes all queries and update functions defined in
the benchmark one at a time in order and their running time is measured
individually."  :func:`run_power_test` does exactly that through an
arbitrary connection-like object (plain ODBC or Phoenix — same code), then
undoes the refresh functions so repeated runs see identical data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.workloads.tpch.datagen import TpchData
from repro.workloads.tpch.queries import QUERY_ORDER, query_sql
from repro.workloads.tpch.refresh import (
    reload_deleted,
    rf1_statements,
    rf2_statements,
    undo_rf1_statements,
)

__all__ = ["PowerResult", "PowerReport", "run_power_test"]


@dataclass
class PowerResult:
    """One query / refresh function measurement."""

    name: str
    seconds: float
    rows: int  # tuples returned (queries) or modified (updates)


@dataclass
class PowerReport:
    """A full power-test run."""

    results: list[PowerResult] = field(default_factory=list)

    def by_name(self) -> dict[str, PowerResult]:
        return {r.name: r for r in self.results}

    @property
    def total_query_seconds(self) -> float:
        return sum(r.seconds for r in self.results if r.name.startswith("Q"))


def run_power_test(
    connection,
    data: TpchData,
    *,
    queries: list[str] | None = None,
    include_refresh: bool = True,
    undo_refresh: bool = True,
) -> PowerReport:
    """Run the power test on ``connection`` (any object with ``cursor()``).

    Each query is executed and fully fetched (the paper times execution
    plus delivery).  RF1/RF2 run as their two decomposed transactions each.
    With ``undo_refresh`` the data is restored afterwards so back-to-back
    runs (native vs. Phoenix, repeated repetitions) measure the same thing.
    """
    report = PowerReport()
    cursor = connection.cursor()

    for query_id in queries if queries is not None else QUERY_ORDER:
        sql = query_sql(query_id, data.sf)
        started = time.perf_counter()
        cursor.execute(sql)
        rows = cursor.fetchall()
        elapsed = time.perf_counter() - started
        report.results.append(PowerResult(query_id, elapsed, len(rows)))

    if include_refresh:
        for name, transactions in (
            ("RF1", rf1_statements(data)),
            ("RF2", rf2_statements(data)),
        ):
            started = time.perf_counter()
            modified = 0
            for statements in transactions:
                connection.begin()
                for sql in statements:
                    cursor.execute(sql)
                    modified += max(cursor.rowcount, 0)
                connection.commit()
            elapsed = time.perf_counter() - started
            report.results.append(PowerResult(name, elapsed, modified))

        if undo_refresh:
            for sql in undo_rf1_statements(data):
                cursor.execute(sql)
            reload_deleted(data, lambda sql: cursor.execute(sql))

    cursor.close()
    return report
