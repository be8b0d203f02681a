"""The executor's access paths: ordered indexes, range probes, top-k, parity.

Pins the PR-9 executor work (docs/ARCHITECTURE.md "Execution & access
paths"):

* :class:`~repro.engine.table.OrderedIndex` maintains sorted keys and
  sorted postings incrementally — equality probes stop re-sorting per
  call, range probes are bisect slices, and ordered iteration matches a
  stable ``sort_key`` sort exactly (NULLS first ascending).
* An indexed table (range probe, index-ordered top-k) and an un-indexed
  copy of the same rows (scan, stable sort) return byte-identical results
  over range / BETWEEN / ORDER BY ... LIMIT workloads, tie order included
  — the exact-order guard on the access paths.  (What the answers *should*
  be is checked against sqlite in ``test_differential_sqlite.py``.)
* Index maintenance stays consistent across rollback, crash recovery,
  escalated row locks, and AS OF time-travel reconstruction, because
  every one of those paths routes through the same Table primitives.
* The executor counters surface in ``registry.snapshot()["executor"]``.
"""

from __future__ import annotations

import random
import re

import pytest

import repro
from repro.engine import DatabaseServer
from repro.engine.table import OrderedIndex
from repro.errors import DataError
from tests.conftest import execute


# ------------------------------------------------------------- OrderedIndex


def test_ordered_index_postings_stay_sorted_without_per_call_sort():
    index = OrderedIndex()
    for rowid in (5, 1, 9, 3, 7):
        index.add("x", rowid)
    # eq() returns the maintained posting list order — no sort on probe
    assert index.eq("x") == [1, 3, 5, 7, 9]
    index.remove("x", 5)
    assert index.eq("x") == [1, 3, 7, 9]
    assert index.eq("missing") == []


def test_ordered_index_range_inclusivity():
    index = OrderedIndex()
    for rowid, value in enumerate([10, 20, 20, 30, 40]):
        index.add(value, rowid)
    assert index.range(20, 30) == [1, 2, 3]
    assert index.range(20, 30, low_inclusive=False) == [3]
    assert index.range(20, 30, high_inclusive=False) == [1, 2]
    assert index.range(None, 20) == [0, 1, 2]          # unbounded low
    assert index.range(30, None) == [3, 4]             # unbounded high
    assert index.range(25, 15) == []                   # empty interval
    assert index.range(20, 30, desc=True) == [3, 1, 2]  # key order flips only


def test_ordered_index_nulls_never_match_ranges_but_order_first_asc():
    index = OrderedIndex()
    index.add(None, 4)
    index.add(None, 2)
    index.add(1, 0)
    index.add(3, 1)
    assert index.range(None, None) == [0, 1]      # NULLs excluded from ranges
    assert index.eq(None) == [2, 4]
    assert list(index.ordered()) == [2, 4, 0, 1]        # NULLS first asc
    assert list(index.ordered(desc=True)) == [1, 0, 2, 4]  # NULLS last desc
    assert len(index) == 4


def test_ordered_index_remove_cleans_empty_keys():
    index = OrderedIndex()
    index.add(7, 1)
    index.remove(7, 1)
    assert index.range(None, None) == []
    assert len(index) == 0
    index.remove(7, 1)  # idempotent on absent entries
    index.remove(None, 1)


# ------------------------------------------------------ indexed vs unindexed


def _seeded():
    """One server holding the same rows twice: ``t`` with a primary key and
    two ordered indexes, ``u`` with no index at all — every query on ``u``
    is a scan plus a stable sort, the reference order."""
    rng = random.Random(17)
    rows = []
    for k in range(300):
        v = "NULL" if rng.random() < 0.1 else str(rng.randrange(40))
        s = "NULL" if rng.random() < 0.1 else f"'s{rng.randrange(9)}'"
        rows.append(f"({k}, {v}, {s})")
    server = DatabaseServer()
    sid = server.connect()
    for sql in (
        "CREATE TABLE t (k INT PRIMARY KEY, v INT, s VARCHAR(10))",
        "CREATE INDEX iv ON t (v)",
        "CREATE INDEX istr ON t (s)",
        "CREATE TABLE u (k INT, v INT, s VARCHAR(10))",
        "INSERT INTO t VALUES " + ", ".join(rows),
        "INSERT INTO u VALUES " + ", ".join(rows),
    ):
        execute(server, sid, sql)
    return server, sid


def _unindexed(sql: str) -> str:
    """The same query over the un-indexed copy."""
    return re.sub(r"\bt\b", "u", sql)


PARITY_QUERIES = [
    "SELECT k, v FROM t WHERE v >= 10 AND v < 20 ORDER BY k",
    "SELECT k FROM t WHERE v BETWEEN 5 AND 8 ORDER BY k",
    "SELECT k FROM t WHERE v BETWEEN k - 290 AND 30 ORDER BY k",  # one bound usable: v <= 30
    "SELECT k FROM t WHERE v > 35 ORDER BY k",
    "SELECT k FROM t WHERE v <= 2 ORDER BY k",
    "SELECT k, v FROM t ORDER BY v LIMIT 9",
    "SELECT k, v FROM t ORDER BY v DESC LIMIT 9",
    "SELECT k, v FROM t ORDER BY v LIMIT 6 OFFSET 4",
    "SELECT k, v FROM t WHERE v > 20 ORDER BY v LIMIT 5",
    "SELECT k, s FROM t WHERE s BETWEEN 's2' AND 's4' ORDER BY k",
    "SELECT k, s FROM t ORDER BY s DESC LIMIT 8",
    "SELECT s, COUNT(*), SUM(v) FROM t WHERE v >= 15 GROUP BY s ORDER BY s",
    "SELECT DISTINCT v FROM t WHERE v BETWEEN 0 AND 10 ORDER BY v",
    "SELECT k FROM t WHERE v = 7 AND s = 's3' ORDER BY k",
    "SELECT a.k FROM t a, t b WHERE a.v = b.k AND a.k < 20 ORDER BY a.k, a.v",
]


def test_compiled_matches_interpreted_fingerprints():
    server, sid = _seeded()
    stats = server.executor_stats
    reference = [execute(server, sid, _unindexed(sql)) for sql in PARITY_QUERIES]
    # ``u`` has nothing to probe: the reference really is scan + stable sort
    assert (stats.index_range_scans, stats.index_eq_probes, stats.topk_shortcuts) == (0, 0, 0)
    for sql, expected in zip(PARITY_QUERIES, reference):
        assert execute(server, sid, sql) == expected, sql
    # ... and ``t`` really took the index paths
    assert stats.index_range_scans >= 6 and stats.topk_shortcuts >= 5


def test_range_probe_error_parity_on_incomparable_bound():
    """A range bound the column type can't coerce must raise with an index
    exactly as without one (the probe falls back to a full scan so the
    per-row compare surfaces the same DataError), not silently return zero
    rows."""
    server, sid = _seeded()
    for table in ("t", "u"):
        with pytest.raises(DataError):
            execute(server, sid, f"SELECT k FROM {table} WHERE v > 'abc'")


def test_null_range_bound_matches_nothing_in_both_modes():
    server, sid = _seeded()
    sql = "SELECT k FROM t WHERE v > NULL"
    assert execute(server, sid, sql) == execute(server, sid, _unindexed(sql)) == []


def test_topk_ties_resolved_identically():
    """Duplicate ORDER BY keys: index-ordered streaming must reproduce the
    stable-sort tie order (postings ascend by rowid) for asc and desc."""
    server = DatabaseServer()
    sid = server.connect()
    values = ", ".join(f"({i}, {i % 3})" for i in range(30))
    for sql in (
        "CREATE TABLE d (k INT PRIMARY KEY, v INT)",
        "CREATE INDEX dv ON d (v)",
        "CREATE TABLE e (k INT, v INT)",
        f"INSERT INTO d VALUES {values}",
        f"INSERT INTO e VALUES {values}",
    ):
        execute(server, sid, sql)
    for order in ("v", "v DESC"):
        streamed = execute(server, sid, f"SELECT k, v FROM d ORDER BY {order} LIMIT 12")
        sorted_ = execute(server, sid, f"SELECT k, v FROM e ORDER BY {order} LIMIT 12")
        assert streamed == sorted_, order
    assert server.executor_stats.topk_shortcuts == 2


# --------------------------------------------------------------- EXPLAIN


@pytest.fixture()
def indexed(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "CREATE INDEX iv ON t (v)")
    execute(
        server, sid,
        "INSERT INTO t VALUES " + ", ".join(f"({i}, {i % 10})" for i in range(50)),
    )
    return server, sid


def _explain(server, sid, sql):
    return "\n".join(r[0] for r in execute(server, sid, f"EXPLAIN {sql}"))


def test_explain_shows_index_range(indexed):
    server, sid = indexed
    plan = _explain(server, sid, "SELECT k FROM t WHERE v >= 3 AND v < 7")
    assert "IndexRange t (v >= const AND v < const)" in plan
    plan = _explain(server, sid, "SELECT k FROM t WHERE v BETWEEN 2 AND 4")
    assert "IndexRange t (v >= const AND v <= const)" in plan


def test_explain_shows_topk_instead_of_sort(indexed):
    server, sid = indexed
    plan = _explain(server, sid, "SELECT k, v FROM t ORDER BY v DESC LIMIT 5")
    assert "TopK 5 Offset 0 ORDER BY v DESC (index-ordered, no sort)" in plan
    assert "Sort" not in plan
    # no index on k beyond the PK hash → ordinary sort path
    plan = _explain(server, sid, "SELECT k, v FROM t ORDER BY k LIMIT 5")
    assert "Sort k" in plan and "TopK" not in plan


def test_explain_eq_probe_outranks_range(indexed):
    server, sid = indexed
    plan = _explain(server, sid, "SELECT k FROM t WHERE v = 3 AND v < 9")
    assert "IndexScan t (v = const)" in plan and "IndexRange" not in plan


# --------------------------------------------------------------- counters


def test_executor_counters_in_registry_snapshot():
    system = repro.make_system(dsn="exec-counters")
    server = system.server
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "CREATE INDEX iv ON t (v)")
    execute(
        server, sid,
        "INSERT INTO t VALUES " + ", ".join(f"({i}, {i})" for i in range(20)),
    )
    system.registry.reset()
    execute(server, sid, "SELECT k FROM t WHERE v >= 5 AND v < 10")
    execute(server, sid, "SELECT k FROM t ORDER BY v DESC LIMIT 3")
    execute(server, sid, "SELECT k FROM t WHERE v = 7")
    snap = system.registry.snapshot()["executor"]
    assert snap["index_range_scans"] == 1
    assert snap["topk_shortcuts"] == 1
    assert snap["index_eq_probes"] == 1
    assert snap["rows_returned"] == 5 + 3 + 1
    assert snap["rows_scanned"] >= snap["rows_returned"]
    # every one of the three SELECTs compiled its plan inside the window: an
    # executor that reports 0 compiled plans is lying (was CI's bench-smoke guard)
    assert snap["compiled_plans"] >= 3
    system.registry.reset()
    assert system.registry.snapshot()["executor"]["rows_scanned"] == 0


# ------------------------------------------------------- maintenance paths


def _range_and_topk(server, sid):
    return (
        execute(server, sid, "SELECT k FROM t WHERE v BETWEEN 2 AND 5 ORDER BY k"),
        execute(server, sid, "SELECT k, v FROM t ORDER BY v LIMIT 5"),
    )


def _expected_via_scan(server, sid):
    """The same answers with every secondary index dropped (full scans)."""
    execute(server, sid, "DROP INDEX iv")
    return _range_and_topk(server, sid)


def test_index_consistent_after_rollback(indexed):
    server, sid = indexed
    before = _range_and_topk(server, sid)
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (100, 3)")
    execute(server, sid, "UPDATE t SET v = 4 WHERE k = 0")
    execute(server, sid, "DELETE FROM t WHERE k = 1")
    execute(server, sid, "ROLLBACK")
    assert _range_and_topk(server, sid) == before
    assert _expected_via_scan(server, sid) == before


def test_index_consistent_after_crash_recovery(indexed):
    server, sid = indexed
    execute(server, sid, "UPDATE t SET v = 99 WHERE k = 5")
    before = _range_and_topk(server, sid)
    server.crash()
    server.restart()
    sid = server.connect()
    assert _range_and_topk(server, sid) == before
    assert _expected_via_scan(server, sid) == before


def test_index_consistent_under_escalated_row_locks(indexed, monkeypatch):
    """A transaction whose row locks escalate to a table lock must leave
    the ordered index exactly as consistent as one that never escalated."""
    server, sid = indexed
    monkeypatch.setattr(repro.engine.locks, "ESCALATION_THRESHOLD", 3)
    execute(server, sid, "BEGIN")
    for k in range(8):  # crosses the threshold mid-transaction
        execute(server, sid, f"UPDATE t SET v = {k + 20} WHERE k = {k}")
    execute(server, sid, "COMMIT")
    assert server.database.locks.stats.escalations >= 1
    fast = _range_and_topk(server, sid)
    assert _expected_via_scan(server, sid) == fast


def test_index_consistent_in_as_of_reconstruction(system):
    server = system.server
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "CREATE INDEX iv ON t (v)")
    execute(
        server, sid,
        "INSERT INTO t VALUES " + ", ".join(f"({i}, {i})" for i in range(20)),
    )
    ts = server.time_travel.clock.now()
    pinned = (
        execute(server, sid, "SELECT k FROM t WHERE v BETWEEN 3 AND 8 ORDER BY k"),
        execute(server, sid, "SELECT k FROM t ORDER BY v DESC LIMIT 4"),
    )
    execute(server, sid, "UPDATE t SET v = 0 WHERE k > 2")
    execute(server, sid, "DELETE FROM t WHERE k = 4")
    got = (
        execute(
            server, sid,
            f"SELECT k FROM t WHERE v BETWEEN 3 AND 8 ORDER BY k AS OF {ts!r}",
        ),
        execute(server, sid, f"SELECT k FROM t ORDER BY v DESC LIMIT 4 AS OF {ts!r}"),
    )
    assert got == pinned
