"""Measurement runners for the paper's evaluation artifacts.

**Table 1** — TPC-H power test under native ODBC vs. Phoenix/ODBC, N
repetitions, per-query means, difference and ratio columns exactly as the
paper lays them out.

**Figure 2** — elapsed time for Phoenix session recovery over varying
result-set sizes, split into the *virtual session* component (reconnect +
option replay; size-independent) and the *SQL state* component (verify
materialized tables + reposition delivery), plus the recompute baseline the
paper compares against ("less than a tenth of the time required to simply
recompute Q11").
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import repro
from repro.errors import CommunicationError
from repro.workloads.tpch.datagen import TpchData, populate
from repro.workloads.tpch.power import run_power_test
from repro.workloads.tpch.queries import QUERY_ORDER

__all__ = [
    "Table1Row",
    "run_table1_power_comparison",
    "Fig2Point",
    "Fig2Series",
    "run_fig2_recovery_sweep",
    "RoundTripRow",
    "run_round_trip_accounting",
    "AvailabilityResult",
    "run_availability_experiment",
    "PlanCacheRun",
    "run_plan_cache_ablation",
    "ExecutorRun",
    "executor_speedup",
    "run_executor_ablation",
    "WireBatchRun",
    "WireBatchResult",
    "run_wire_batch",
    "ChaosResult",
    "run_chaos_experiment",
    "ObsOverheadResult",
    "run_obs_overhead",
    "RecoveryBreakdownRow",
    "run_recovery_breakdown",
    "ConcurrencyThroughputRow",
    "ConcurrencyRecoveryRow",
    "ConcurrencyResult",
    "run_concurrency",
    "ContentionRow",
    "run_contention",
    "contention_speedup",
    "PlannedRestartResult",
    "run_planned_restart",
    "TimeTravelReconstructRow",
    "TimeTravelResult",
    "run_time_travel",
    "TcpIdleScaleRow",
    "TcpServingResult",
    "run_tcp_serving",
]


# ======================================================================= Table 1


@dataclass
class Table1Row:
    """One row of Table 1."""

    name: str
    result_rows: int
    native_seconds: float
    phoenix_seconds: float

    @property
    def difference(self) -> float:
        return self.phoenix_seconds - self.native_seconds

    @property
    def ratio(self) -> float:
        if self.native_seconds <= 0:
            return float("nan")
        return self.phoenix_seconds / self.native_seconds


def run_table1_power_comparison(
    *,
    sf: float = 0.001,
    repetitions: int = 3,
    seed: int = 42,
    queries: list[str] | None = None,
    system: "repro.System | None" = None,
    data: TpchData | None = None,
) -> list[Table1Row]:
    """Run the power test ``repetitions`` times per driver manager and
    return per-item mean rows plus the Total Query / Total Updates rows.

    The paper ran 50 repetitions with <1% standard deviation; a handful is
    enough here and the row structure is identical.
    """
    if system is None:
        system = repro.make_system()
        data = populate(system, sf=sf, seed=seed)
    assert data is not None

    def run_side(manager) -> dict[str, tuple[float, int]]:
        per_item: dict[str, list[float]] = {}
        rows_of: dict[str, int] = {}
        for _ in range(repetitions):
            connection = manager.connect(system.DSN)
            report = run_power_test(connection, data, queries=queries)
            connection.close()
            for result in report.results:
                per_item.setdefault(result.name, []).append(result.seconds)
                rows_of[result.name] = result.rows
        return {
            name: (statistics.fmean(times), rows_of[name])
            for name, times in per_item.items()
        }

    native = run_side(system.plain)
    phoenix = run_side(system.phoenix)

    rows = [
        Table1Row(
            name=name,
            result_rows=native[name][1],
            native_seconds=native[name][0],
            phoenix_seconds=phoenix[name][0],
        )
        for name in native
    ]
    query_rows = [r for r in rows if r.name.startswith("Q")]
    update_rows = [r for r in rows if r.name.startswith("RF")]
    rows.append(
        Table1Row(
            "Total Query",
            sum(r.result_rows for r in query_rows),
            sum(r.native_seconds for r in query_rows),
            sum(r.phoenix_seconds for r in query_rows),
        )
    )
    if update_rows:
        rows.append(
            Table1Row(
                "Total Updates",
                sum(r.result_rows for r in update_rows),
                sum(r.native_seconds for r in update_rows),
                sum(r.phoenix_seconds for r in update_rows),
            )
        )
    return rows


# ======================================================================= Figure 2


@dataclass
class Fig2Point:
    """One result-set size in the recovery sweep."""

    result_size: int
    virtual_session_seconds: float
    sql_state_seconds: float
    outstanding_fetch_seconds: float
    recompute_seconds: float

    @property
    def recovery_seconds(self) -> float:
        return (
            self.virtual_session_seconds
            + self.sql_state_seconds
            + self.outstanding_fetch_seconds
        )

    @property
    def recovery_vs_recompute(self) -> float:
        if self.recompute_seconds <= 0:
            return float("nan")
        return self.recovery_seconds / self.recompute_seconds


@dataclass
class Fig2Series:
    points: list[Fig2Point] = field(default_factory=list)


def _bench_query(groups: int) -> str:
    """A Q11-shaped aggregate whose *result size* is the parameter: group a
    fixed-size detail table into ``groups`` buckets."""
    return (
        f"SELECT k % {groups} AS bucket, sum(v) AS total, avg(v) AS mean, count(*) AS n "
        f"FROM bench_rows GROUP BY k % {groups} ORDER BY bucket"
    )


def run_fig2_recovery_sweep(
    *,
    result_sizes: list[int] | None = None,
    table_rows: int = 20_000,
    unread_tail: int = 5,
) -> Fig2Series:
    """Reproduce Figure 2's experiment.

    For each result size: run the query through Phoenix, fetch to within
    ``unread_tail`` tuples of the end (the paper leaves "a few tuples
    unread"), crash and restart the server, then measure Phoenix recovering
    the session — virtual-session phase and SQL-state phase separately —
    and answering the outstanding fetch.  The recompute baseline re-runs
    the query natively and re-delivers all rows.
    """
    # default sizes bracket the paper's 2541-tuple Q11 result
    sizes = result_sizes if result_sizes is not None else [100, 500, 1000, 1750, 2500]
    system = repro.make_system()
    loader = system.server.connect(user="loader")
    system.server.execute(
        loader, "CREATE TABLE bench_rows (k INT PRIMARY KEY, v FLOAT)"
    )
    for start in range(0, table_rows, 1000):
        values = ", ".join(
            f"({k}, {(k % 97) * 1.5})" for k in range(start + 1, min(start + 1001, table_rows + 1))
        )
        system.server.execute(loader, f"INSERT INTO bench_rows VALUES {values}")
    system.server.checkpoint()
    system.server.disconnect(loader)

    series = Fig2Series()
    for size in sizes:
        connection = system.phoenix.connect(system.DSN)
        connection.config.sleep = lambda _s: None
        cursor = connection.cursor()
        sql = _bench_query(size)
        cursor.execute(sql)
        consumed = cursor.fetchmany(max(size - unread_tail, 0))

        system.server.crash()
        system.endpoint.restart_server()

        # Phoenix recovery: the next server interaction detects the failure.
        started = time.perf_counter()
        connection.recovery.recover(CommunicationError("bench-injected crash"))
        fetch_started = time.perf_counter()
        tail = cursor.fetchall()
        fetch_seconds = time.perf_counter() - fetch_started
        assert len(consumed) + len(tail) == size, (len(consumed), len(tail), size)

        # recompute baseline (paper: "simply recompute Q11" + redeliver)
        native = system.plain.connect(system.DSN)
        native_cursor = native.cursor()
        recompute_started = time.perf_counter()
        native_cursor.execute(sql)
        native_cursor.fetchall()
        recompute_seconds = time.perf_counter() - recompute_started
        native.close()

        series.points.append(
            Fig2Point(
                result_size=size,
                virtual_session_seconds=connection.stats.last_virtual_session_seconds,
                sql_state_seconds=connection.stats.last_sql_state_seconds,
                outstanding_fetch_seconds=fetch_seconds,
                recompute_seconds=recompute_seconds,
            )
        )
        connection.close()
    return series


# ================================================================ round trips


@dataclass
class RoundTripRow:
    """Wire cost of one query under both driver managers."""

    name: str
    native_trips: int
    phoenix_trips: int
    native_bytes: int
    phoenix_bytes: int
    #: device log forces the Phoenix execution cost (``WalStats.forces``)
    phoenix_forces: int = 0

    def projected_overhead_seconds(self, rtt_seconds: float) -> float:
        """Extra wall-clock Phoenix would cost purely from extra round
        trips at a given network round-trip time."""
        return (self.phoenix_trips - self.native_trips) * rtt_seconds


def run_round_trip_accounting(
    *,
    sf: float = 0.001,
    seed: int = 42,
    queries: list[str] | None = None,
) -> list[RoundTripRow]:
    """Count wire round trips and bytes per query for native vs Phoenix.

    Wall-clock on an in-process wire hides what a real network charges;
    round trips do not.  This is the placement-independent version of
    Table 1's overhead column (experiment A5 in DESIGN.md).
    """
    from repro.workloads.tpch.queries import QUERY_ORDER, query_sql

    selected = queries if queries is not None else QUERY_ORDER
    rows: list[RoundTripRow] = []
    system = repro.make_system()
    data = populate(system, sf=sf, seed=seed)

    native = system.plain.connect(system.DSN)
    phoenix = system.phoenix.connect(system.DSN)
    native_cur = native.cursor()
    phoenix_cur = phoenix.cursor()
    metrics = system.metrics
    wal_stats = system.server.database.wal.stats
    for query_id in selected:
        sql = query_sql(query_id, data.sf)
        before = (metrics.round_trips, metrics.bytes_sent + metrics.bytes_received)
        native_cur.execute(sql)
        native_cur.fetchall()
        mid = (metrics.round_trips, metrics.bytes_sent + metrics.bytes_received)
        forces = wal_stats.forces
        phoenix_cur.execute(sql)
        phoenix_cur.fetchall()
        after = (metrics.round_trips, metrics.bytes_sent + metrics.bytes_received)
        rows.append(
            RoundTripRow(
                name=query_id,
                native_trips=mid[0] - before[0],
                phoenix_trips=after[0] - mid[0],
                native_bytes=mid[1] - before[1],
                phoenix_bytes=after[1] - mid[1],
                phoenix_forces=wal_stats.forces - forces,
            )
        )
    native.close()
    phoenix.close()
    return rows


# ======================================================== plan-cache ablation


@dataclass
class PlanCacheRun:
    """One (workload, cache setting) cell of the plan-cache ablation."""

    workload: str  # "tpch_power" | "phoenix_trace"
    cache: str  # "on" | "off"
    seconds: float
    statements: int
    #: order-sensitive hash over every result set — identical across cache
    #: settings iff caching changed nothing observable
    fingerprint: int
    #: EngineMetrics.snapshot() taken after the workload
    metrics: dict[str, float]

    @property
    def statements_per_second(self) -> float:
        return self.statements / self.seconds if self.seconds > 0 else float("inf")


def _fold_fingerprint(fingerprint: int, name: str, rows: list) -> int:
    return hash((fingerprint, name, str(rows)))


def run_plan_cache_ablation(
    *,
    sf: float = 0.001,
    repetitions: int = 5,
    seed: int = 42,
    queries: list[str] | None = None,
    trace_iterations: int = 40,
    timing_trials: int = 4,
) -> list[PlanCacheRun]:
    """The engine-cache ablation: identical workloads with the parse/plan
    caches on vs off.

    Two workloads, chosen to match how the caches earn their keep in the
    paper's evaluation:

    * ``tpch_power`` — the Table 1 power loop shape: the same query texts
      re-executed over one native connection, ``repetitions`` times.  Pure
      repeated-statement traffic; both caches should run hot.
    * ``phoenix_trace`` — a Phoenix session mixing the statement traffic
      Phoenix itself doubles: repeated metadata probes (``WHERE 0=1`` —
      compile-only, so caches are the entire cost), status-wrapped DML, and
      periodic result-set materialization.  The materialization's ``phx_*``
      DDL invalidates hot plans mid-trace, so the cells also measure
      invalidation overhead, not just the sunny path.

    The read-only ``tpch_power`` loop is timed best-of-``timing_trials``
    with the on/off trials *interleaved* in one pass: the parse/plan delta
    is a few percent of an execution-dominated workload, smaller than the
    slow drift a process accumulates between two back-to-back measurement
    blocks (allocator warm-up, CPU frequency), so measuring the two sides
    adjacently and taking each side's minimum is what isolates the
    systematic delta.  ``phoenix_trace`` mutates its table, so its
    interleaved trials each run against a freshly built system — the trace
    is deterministic, making trials comparable.

    Returns one :class:`PlanCacheRun` per (workload, cache) cell.  The
    fingerprints double as the correctness guard: caching must not change a
    single row.
    """
    from repro.workloads.tpch.queries import query_sql

    selected = queries if queries is not None else ["Q1", "Q3", "Q6", "Q12", "Q14"]
    runs: list[PlanCacheRun] = []

    # -- TPC-H power loop over one connection per cache setting ---------------
    tpch: dict[bool, dict] = {}
    for cache_on in (True, False):
        system = repro.make_system(plan_cache=cache_on)
        data = populate(system, sf=sf, seed=seed)
        connection = system.plain.connect(system.DSN)
        system.server.engine_metrics.reset()
        tpch[cache_on] = {
            "system": system,
            "connection": connection,
            "cursor": connection.cursor(),
            "sf": data.sf,
            "seconds": float("inf"),
            "fingerprint": 0,
            "statements": 0,
        }

    def _power_loop(cell: dict) -> None:
        fingerprint = 0
        statements = 0
        started = time.perf_counter()
        for _ in range(repetitions):
            for query_id in selected:
                cell["cursor"].execute(query_sql(query_id, cell["sf"]))
                fingerprint = _fold_fingerprint(
                    fingerprint, query_id, cell["cursor"].fetchall()
                )
                statements += 1
        cell["seconds"] = min(cell["seconds"], time.perf_counter() - started)
        # read-only workload: every trial produces the same fingerprint
        cell["fingerprint"] = fingerprint
        cell["statements"] = statements

    # untimed warm-up: absorb the steep early process drift (and make the
    # cache-on side hot) before any measured trial
    for cache_on in (True, False):
        _power_loop(tpch[cache_on])
        tpch[cache_on]["seconds"] = float("inf")

    # even trial count + ABBA order → each side occupies positionally
    # symmetric slots, so monotone drift cancels instead of favouring
    # whichever side runs last
    trials = max(2, timing_trials + (timing_trials % 2))
    for trial in range(trials):
        order = (True, False) if trial % 2 == 0 else (False, True)
        for cache_on in order:
            _power_loop(tpch[cache_on])

    for cache_on in (True, False):
        cell = tpch[cache_on]
        cell["connection"].close()
        runs.append(
            PlanCacheRun(
                "tpch_power", "on" if cache_on else "off", cell["seconds"],
                cell["statements"], cell["fingerprint"],
                cell["system"].server.engine_metrics.snapshot(),
            )
        )

    # -- Phoenix session trace ------------------------------------------------
    # Mutating workload, so interleaved timing trials each run against a
    # fresh system; min across trials per side cancels process drift the
    # same way the tpch loop does.
    from repro.sql import parse

    def _trace_once(cache_on: bool) -> tuple[float, int, int, dict[str, float]]:
        system = repro.make_system(plan_cache=cache_on)
        loader = system.server.connect(user="loader")
        system.server.execute(
            loader,
            "CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR(20), balance FLOAT)",
        )
        values = ", ".join(
            f"({i}, 'owner_{i % 7}', {100.0 + i})" for i in range(1, 101)
        )
        system.server.execute(loader, f"INSERT INTO accounts VALUES {values}")
        system.server.disconnect(loader)

        connection = system.phoenix.connect(system.DSN)
        cursor = connection.cursor()
        scan = parse("SELECT id, owner, balance FROM accounts WHERE balance > 120")
        agg = parse(
            "SELECT count(*) AS n, avg(balance) AS mean FROM accounts "
            "WHERE owner LIKE 'owner_%'"
        )
        system.server.engine_metrics.reset()
        fingerprint = 0
        statements = 0
        started = time.perf_counter()
        for i in range(trace_iterations):
            # statement preparation: Phoenix's compile-only metadata probes
            connection.probe_metadata(scan)
            connection.probe_metadata(agg)
            cursor.execute(
                f"UPDATE accounts SET balance = balance + 1 WHERE id = {i % 50 + 1}"
            )
            statements += 3
            if i % 8 == 0:
                # full result-set persistence: phx_* DDL evicts hot plans
                cursor.execute(
                    "SELECT id, owner, balance FROM accounts "
                    "WHERE balance > 120 ORDER BY id"
                )
                fingerprint = _fold_fingerprint(fingerprint, "scan", cursor.fetchall())
                statements += 1
        seconds = time.perf_counter() - started
        connection.close()
        return seconds, statements, fingerprint, system.server.engine_metrics.snapshot()

    trace: dict[bool, dict] = {
        True: {"seconds": float("inf")},
        False: {"seconds": float("inf")},
    }
    for trial in range(trials):
        order = (True, False) if trial % 2 == 0 else (False, True)
        for cache_on in order:
            seconds, statements, fingerprint, metrics = _trace_once(cache_on)
            cell = trace[cache_on]
            cell["seconds"] = min(cell["seconds"], seconds)
            # fresh system per trial: the trace is deterministic, so every
            # trial produces the same fingerprint
            cell["fingerprint"] = fingerprint
            cell["statements"] = statements
            cell["metrics"] = metrics
    for cache_on in (True, False):
        cell = trace[cache_on]
        runs.append(
            PlanCacheRun(
                "phoenix_trace", "on" if cache_on else "off", cell["seconds"],
                cell["statements"], cell["fingerprint"], cell["metrics"],
            )
        )
    return runs


# ========================================================= executor ablation


@dataclass
class ExecutorRun:
    """One (workload, executor mode) cell of the executor ablation."""

    workload: str  # "range_topk" | "tpch_power"
    executor: str  # "compiled" | "interpreted"
    seconds: float
    statements: int
    #: order-sensitive hash over every result set — identical across
    #: executor modes iff the vectorized path changed nothing observable
    fingerprint: int
    #: ExecutorStats.snapshot() taken after the workload
    counters: dict[str, int]

    @property
    def statements_per_second(self) -> float:
        return self.statements / self.seconds if self.seconds > 0 else float("inf")


def executor_speedup(runs: list[ExecutorRun], workload: str) -> float:
    """interpreted seconds / compiled seconds for one workload (∞ if absent)."""
    by_mode = {r.executor: r for r in runs if r.workload == workload}
    compiled, interpreted = by_mode.get("compiled"), by_mode.get("interpreted")
    if compiled is None or interpreted is None or compiled.seconds <= 0:
        return float("inf")
    return interpreted.seconds / compiled.seconds


def run_executor_ablation(
    *,
    sf: float = 0.001,
    repetitions: int = 3,
    seed: int = 42,
    rows: int = 2000,
    loops: int = 3,
    timing_trials: int = 4,
    queries: list[str] | None = None,
) -> list[ExecutorRun]:
    """The executor ablation: identical workloads under the compiled
    (vectorized) executor vs the interpreted per-row baseline.

    Two workloads, matching how the vectorized executor earns its keep:

    * ``range_topk`` — the access-path workload: narrow range selections,
      BETWEEN, and ORDER BY ... LIMIT over an indexed column of a
      ``rows``-row table.  The compiled side serves these via ordered-index
      range probes and index-ordered top-k streaming; the interpreted side
      full-scans and materialize-then-sorts.  This is where the ordered
      indexes themselves are the speedup.
    * ``tpch_power`` — the Table 1 power loop re-run per executor mode,
      with ordered indexes on the date columns the selected queries filter
      by (``l_shipdate``, ``o_orderdate`` — same DDL on both sides; the
      interpreted baseline only ever uses equality probes, so the indexes
      sit idle there, exactly the PR-8 state).  This is where the compiled
      row pipeline shows up on analytic SQL.

    Both workloads are read-only, so they use the same interleaved ABBA
    best-of-``timing_trials`` discipline as :func:`run_plan_cache_ablation`
    (adjacent trials, per-side minimum) to cancel process drift.  The
    fingerprints double as the correctness guard: if the two modes ever
    disagree on a single row, the speedup is meaningless — callers (and
    CI's bench-smoke) must check ``fingerprint`` equality per workload.

    Returns one :class:`ExecutorRun` per (workload, mode) cell.
    """
    from repro.workloads.tpch.queries import query_sql

    selected = queries if queries is not None else ["Q1", "Q3", "Q6", "Q12", "Q14"]
    modes = ("compiled", "interpreted")
    runs: list[ExecutorRun] = []
    trials = max(2, timing_trials + (timing_trials % 2))

    # -- range/top-k workload over an indexed table ---------------------------
    values = rows // 2  # two rows per distinct indexed value
    window = max(1, values // 50)  # ~2% selectivity per range query
    range_sql: list[str] = []
    for i in range(8):
        low = (i * 131) % (values - window)
        range_sql += [
            f"SELECT k, v FROM events WHERE v >= {low} AND v < {low + window} ORDER BY k",
            f"SELECT k FROM events WHERE v BETWEEN {low} AND {low + window} ORDER BY k",
            f"SELECT k, v FROM events WHERE v > {values - window} ORDER BY v LIMIT 10",
            "SELECT k, v FROM events ORDER BY v LIMIT 10",
            "SELECT k, v FROM events ORDER BY v DESC LIMIT 10",
            f"SELECT k FROM events WHERE v = {low}",
        ]

    cells: dict[str, dict] = {}
    for mode in modes:
        system = repro.make_system(executor=mode)
        session = system.server.connect(user="loader")
        system.server.execute(
            session,
            "CREATE TABLE events (k INT PRIMARY KEY, v INT, grp INT, label VARCHAR(12))",
        )
        for start in range(0, rows, 500):
            chunk = ", ".join(
                f"({k}, {k % values}, {k % 13}, 'label_{k % 7}')"
                for k in range(start, min(start + 500, rows))
            )
            system.server.execute(session, f"INSERT INTO events VALUES {chunk}")
        system.server.execute(session, "CREATE INDEX bench_events_v ON events (v)")
        system.server.disconnect(session)
        connection = system.plain.connect(system.DSN)
        cells[mode] = {
            "system": system,
            "connection": connection,
            "cursor": connection.cursor(),
            "seconds": float("inf"),
            "fingerprint": 0,
            "statements": 0,
        }

    def _range_loop(cell: dict) -> None:
        fingerprint = 0
        statements = 0
        started = time.perf_counter()
        for _ in range(loops):
            for sql in range_sql:
                cell["cursor"].execute(sql)
                fingerprint = _fold_fingerprint(fingerprint, sql, cell["cursor"].fetchall())
                statements += 1
        cell["seconds"] = min(cell["seconds"], time.perf_counter() - started)
        cell["fingerprint"] = fingerprint  # read-only: same every trial
        cell["statements"] = statements

    for mode in modes:  # untimed warm-up (plans go hot, drift absorbed)
        _range_loop(cells[mode])
        cells[mode]["seconds"] = float("inf")
        cells[mode]["system"].registry.executor.reset()
    for trial in range(trials):
        order = modes if trial % 2 == 0 else modes[::-1]
        for mode in order:
            _range_loop(cells[mode])
    for mode in modes:
        cell = cells[mode]
        cell["connection"].close()
        runs.append(
            ExecutorRun(
                "range_topk", mode, cell["seconds"], cell["statements"],
                cell["fingerprint"], cell["system"].registry.executor.snapshot(),
            )
        )

    # -- TPC-H power loop per executor mode -----------------------------------
    cells = {}
    for mode in modes:
        system = repro.make_system(executor=mode)
        data = populate(system, sf=sf, seed=seed)
        session = system.server.connect(user="loader")
        system.server.execute(
            session, "CREATE INDEX bench_l_shipdate ON lineitem (l_shipdate)"
        )
        system.server.execute(
            session, "CREATE INDEX bench_o_orderdate ON orders (o_orderdate)"
        )
        system.server.disconnect(session)
        connection = system.plain.connect(system.DSN)
        cells[mode] = {
            "system": system,
            "connection": connection,
            "cursor": connection.cursor(),
            "sf": data.sf,
            "seconds": float("inf"),
            "fingerprint": 0,
            "statements": 0,
        }

    def _power_loop(cell: dict) -> None:
        fingerprint = 0
        statements = 0
        started = time.perf_counter()
        for _ in range(repetitions):
            for query_id in selected:
                cell["cursor"].execute(query_sql(query_id, cell["sf"]))
                fingerprint = _fold_fingerprint(
                    fingerprint, query_id, cell["cursor"].fetchall()
                )
                statements += 1
        cell["seconds"] = min(cell["seconds"], time.perf_counter() - started)
        cell["fingerprint"] = fingerprint
        cell["statements"] = statements

    for mode in modes:
        _power_loop(cells[mode])
        cells[mode]["seconds"] = float("inf")
        cells[mode]["system"].registry.executor.reset()
    for trial in range(trials):
        order = modes if trial % 2 == 0 else modes[::-1]
        for mode in order:
            _power_loop(cells[mode])
    for mode in modes:
        cell = cells[mode]
        cell["connection"].close()
        runs.append(
            ExecutorRun(
                "tpch_power", mode, cell["seconds"], cell["statements"],
                cell["fingerprint"], cell["system"].registry.executor.snapshot(),
            )
        )
    return runs


# ======================================================== wire-batch ablation


@dataclass
class WireBatchRun:
    """One (mode, trial) cell of the wire-batching ablation."""

    mode: str  # "unbatched" | "batched"
    trial: int
    batch_size: int
    seconds: float
    statements: int
    round_trips: int
    batch_requests: int
    requests_batched: int
    wal_forces: int
    group_forces: int
    forces_coalesced: int
    #: order-sensitive hash over the table contents and the status-table
    #: totals — identical across modes iff batching changed nothing durable
    fingerprint: int


@dataclass
class WireBatchResult:
    """The wire-batch ablation: batched vs unbatched executemany DML."""

    rows: int
    batch_size: int
    runs: list[WireBatchRun] = field(default_factory=list)

    def _mode(self, mode: str) -> list[WireBatchRun]:
        return [r for r in self.runs if r.mode == mode]

    @property
    def fingerprints_match(self) -> bool:
        return len({r.fingerprint for r in self.runs}) == 1

    @property
    def trip_ratio(self) -> float:
        """Unbatched round trips per batched round trip (higher = batching
        saved more wire)."""
        batched = statistics.fmean(r.round_trips for r in self._mode("batched"))
        unbatched = statistics.fmean(r.round_trips for r in self._mode("unbatched"))
        return unbatched / batched if batched else float("inf")

    @property
    def force_ratio(self) -> float:
        """Unbatched WAL forces per batched WAL force (group commit's win)."""
        batched = statistics.fmean(r.wal_forces for r in self._mode("batched"))
        unbatched = statistics.fmean(r.wal_forces for r in self._mode("unbatched"))
        return unbatched / batched if batched else float("inf")


def run_wire_batch(
    *,
    rows: int = 48,
    batch_size: int = 8,
    trials: int = 3,
) -> WireBatchResult:
    """The wire-batching + group-commit ablation (experiment WB).

    The same executemany workload — ``rows`` INSERTs then ``rows`` UPDATEs
    through a Phoenix cursor — runs with ``BATCH_SIZE = 1`` (one wrapped
    DML per round trip, one WAL force per commit: the paper's shape) and
    with ``BATCH_SIZE = batch_size`` (N wrapped statements per
    ``BatchExecuteRequest``, all commit forces coalesced into one group
    force at the batch boundary).  Each trial runs each mode against a
    freshly built system; the registry is reset after setup so the counters
    scope exactly the DML window.

    The fingerprint folds the table contents and the status-table totals
    read back *server-side* after the workload; a mismatch between modes
    means batching changed durable state and raises ``RuntimeError`` — the
    guard CI's bench-smoke job leans on.
    """
    from repro.odbc.constants import CursorType, StatementAttr

    result = WireBatchResult(rows=rows, batch_size=batch_size)
    for trial in range(trials):
        # interleave modes ABBA-style so drift cancels across trials
        order = ("unbatched", "batched") if trial % 2 == 0 else ("batched", "unbatched")
        for mode in order:
            system = repro.make_system()
            loader = system.server.connect(user="loader")
            system.server.execute(
                loader, "CREATE TABLE wire_bench (k INT PRIMARY KEY, v FLOAT)"
            )
            system.server.disconnect(loader)

            connection = system.phoenix.connect(system.DSN)
            cursor = connection.cursor()
            cursor.set_attr(StatementAttr.CURSOR_TYPE, CursorType.FORWARD_ONLY)
            cursor.set_attr(
                StatementAttr.BATCH_SIZE, 1 if mode == "unbatched" else batch_size
            )
            registry = system.registry
            registry.reset()

            started = time.perf_counter()
            cursor.executemany(
                "INSERT INTO wire_bench VALUES (?, ?)",
                [[k, k * 1.5] for k in range(1, rows + 1)],
            )
            inserted = cursor.rowcount
            cursor.executemany(
                "UPDATE wire_bench SET v = v + ? WHERE k = ?",
                [[0.5, k] for k in range(1, rows + 1)],
            )
            updated = cursor.rowcount
            seconds = time.perf_counter() - started
            if inserted != rows or updated != rows:
                raise RuntimeError(
                    f"{mode} trial {trial}: rowcounts {inserted}/{updated}, "
                    f"expected {rows}/{rows}"
                )

            # counters first (the verification reads below cost trips too)
            network = registry.network
            wal = registry.wal
            run = WireBatchRun(
                mode=mode,
                trial=trial,
                batch_size=1 if mode == "unbatched" else batch_size,
                seconds=seconds,
                statements=2 * rows,
                round_trips=network.round_trips,
                batch_requests=network.batch_requests,
                requests_batched=network.requests_batched,
                wal_forces=wal.forces,
                group_forces=wal.group_forces,
                forces_coalesced=wal.forces_coalesced,
                fingerprint=0,
            )

            # fingerprint durable state server-side, before close() drops
            # the session's status table
            verifier = system.server.connect(user="verifier")
            data = system.server.execute(
                verifier, "SELECT k, v FROM wire_bench ORDER BY k"
            )
            status = system.server.execute(
                verifier,
                f"SELECT count(*) AS n, sum(n_rows) AS total "
                f"FROM {connection.names.status_table}",
            )
            system.server.disconnect(verifier)
            fingerprint = _fold_fingerprint(0, "data", data.result_set.rows)
            run.fingerprint = _fold_fingerprint(
                fingerprint, "status", status.result_set.rows
            )
            result.runs.append(run)
            connection.close()

    if not result.fingerprints_match:
        raise RuntimeError(
            "wire-batch ablation: durable state diverged between modes: "
            + ", ".join(f"{r.mode}/{r.trial}={r.fingerprint}" for r in result.runs)
        )
    return result


# ============================================================== availability


@dataclass
class AvailabilityResult:
    """Application availability under a periodic-crash chaos schedule."""

    driver: str  # "native" | "phoenix"
    sessions_total: int
    sessions_completed: int
    crashes: int
    elapsed_seconds: float

    @property
    def availability(self) -> float:
        if not self.sessions_total:
            return 1.0
        return self.sessions_completed / self.sessions_total


def run_availability_experiment(
    *,
    sessions: int = 20,
    crash_every: int = 25,
    seed: int = 7,
) -> dict[str, "AvailabilityResult"]:
    """The paper's motivating metric, measured.

    Runs the same deterministic session traces through the plain stack and
    through Phoenix while the server crashes on every ``crash_every``-th
    request.  Native sessions that hit a crash abort (the application has
    no failure handling — §2's premise); Phoenix sessions ride it out.
    The server is restarted after each crash either way, so the comparison
    is purely about *application* availability, not server downtime.
    """
    from repro.net import FaultKind
    from repro.workloads.sessions import generate_traces, run_trace, setup_workload

    results: dict[str, AvailabilityResult] = {}
    for driver_name in ("native", "phoenix"):
        system = repro.make_system()
        loader = system.server.connect(user="loader")
        setup_workload(lambda sql: system.server.execute(loader, sql))
        system.server.disconnect(loader)
        system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE, every=crash_every)
        # Phoenix recovery "waits" by restarting the crashed server — the
        # operator's role, compressed to zero for a deterministic bench.
        system.phoenix.config.sleep = lambda _s: (
            system.endpoint.restart_server() if not system.server.up else None
        )

        traces = generate_traces(sessions, seed=seed)
        completed = 0
        started = time.perf_counter()
        for trace in traces:
            if not system.server.up:
                system.endpoint.restart_server()
            try:
                if driver_name == "native":
                    connection = system.plain.connect(system.DSN)
                else:
                    connection = system.phoenix.connect(system.DSN)
            except Exception:
                continue  # could not even connect: the session is lost
            outcome = run_trace(connection, trace)
            if outcome.completed:
                completed += 1
            try:
                if not system.server.up:
                    system.endpoint.restart_server()
                connection.close()
            except Exception:
                pass
        results[driver_name] = AvailabilityResult(
            driver=driver_name,
            sessions_total=sessions,
            sessions_completed=completed,
            crashes=system.server.stats.crashes,
            elapsed_seconds=time.perf_counter() - started,
        )
    return results


# ============================================================ planned restart


@dataclass
class PlannedRestartResult:
    """Upgrade-under-load availability: planned drain/swap vs. hard crash.

    The same 16-client disjoint-key UPDATE workload runs twice.  In the
    *planned* phase the operator calls ``drain_and_restart()`` K times
    mid-workload: clients park behind the drain barrier for the pause and
    ride through on session recovery — ``client_errors`` must be 0.  In
    the *crash* phase the server is killed K times instead and clients pay
    detection + ping backoff before recovery.  Per-operation latencies are
    collected client-side; the planned p99 staying strictly below the
    crash p99 is the PR's acceptance line: an advertised pause beats an
    unannounced death.
    """

    clients: int
    restarts: int
    ops_total: int
    client_errors: int
    #: per-op client-observed latency, seconds (the pause shows up here)
    planned_p50: float
    planned_p99: float
    planned_max: float
    crash_p50: float
    crash_p99: float
    crash_max: float
    #: server-side drain bookkeeping (planned phase)
    drains_completed: int
    sessions_ridden_through: int
    statements_bounced: int
    max_pause_seconds: float
    #: recoveries the Phoenix layer performed in each phase
    planned_recoveries: int
    crash_recoveries: int
    #: durable state must be identical between the two phases (the
    #: workload is deterministic and exactly-once)
    fingerprints_match: bool


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def run_planned_restart(
    *,
    clients: int = 16,
    ops_per_client: int = 40,
    restarts: int = 3,
    latency: float = 0.002,
    drain_timeout: float = 0.25,
) -> PlannedRestartResult:
    """Measure upgrade-under-load availability (see
    :class:`PlannedRestartResult`)."""
    import threading

    def run_phase(mode: str) -> tuple[list[float], int, int, int, "repro.System"]:
        system = repro.make_system()
        system.endpoint.latency = latency
        loader = system.server.connect(user="loader")
        system.server.execute(
            loader, "CREATE TABLE restart_bench (k INT PRIMARY KEY, v INT)"
        )
        for i in range(clients):
            system.server.execute(loader, f"INSERT INTO restart_bench VALUES ({i}, 0)")
        system.server.disconnect(loader)

        connections = [
            system.phoenix.connect(system.DSN, user=f"pr{i}") for i in range(clients)
        ]
        if mode == "crash":
            # the operator's restart, modelled inside the recovery sleep:
            # the client genuinely waits out its backoff interval (that IS
            # the crash downtime) and the server is back for the next ping
            def sleep_hook(seconds: float) -> None:
                time.sleep(seconds)
                try:
                    if not system.server.up:
                        system.endpoint.restart_server()
                except Exception:
                    pass  # another client's hook won the restart race

            system.phoenix.config.sleep = sleep_hook

        errors_seen: list[str] = []
        latencies: list[float] = []
        lat_lock = threading.Lock()
        barrier = threading.Barrier(clients + 1)

        def run_client(connection, key: int) -> None:
            mine: list[float] = []
            try:
                cursor = connection.cursor()
                barrier.wait()
                for _ in range(ops_per_client):
                    started = time.perf_counter()
                    cursor.execute(f"UPDATE restart_bench SET v = v + 1 WHERE k = {key}")
                    mine.append(time.perf_counter() - started)
            except Exception as exc:
                errors_seen.append(f"{type(exc).__name__}: {exc}")
            with lat_lock:
                latencies.extend(mine)

        threads = [
            threading.Thread(target=run_client, args=(connections[i], i), name=f"pr-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        # K restarts spaced through the workload, from the operator thread
        workload_estimate = ops_per_client * latency
        gap = max(0.01, workload_estimate / (restarts + 1))
        for _ in range(restarts):
            time.sleep(gap)
            if mode == "planned":
                system.endpoint.drain_and_restart(
                    repro.RestartPolicy(mode="deadline", drain_timeout=drain_timeout)
                )
            else:
                system.server.crash()
        for thread in threads:
            thread.join()
        recoveries = sum(c.stats.recoveries for c in connections)
        if not system.server.up:  # a trailing crash with no traffic after it
            system.endpoint.restart_server()
        for connection in connections:
            try:
                connection.close()
            except Exception:
                pass

        verifier = system.server.connect(user="verifier")
        data = system.server.execute(verifier, "SELECT k, v FROM restart_bench ORDER BY k")
        fingerprint = _fold_fingerprint(0, "restart_bench", data.result_set.rows)
        # exactly-once, checked exactly: every key must have ridden every
        # one of its client's increments through every restart
        wrong = [row for row in data.result_set.rows if row[1] != ops_per_client]
        if wrong:
            raise RuntimeError(f"{mode} phase lost or doubled updates: {wrong[:4]}")
        system.server.disconnect(verifier)
        return latencies, len(errors_seen), recoveries, fingerprint, system

    planned_lat, planned_errors, planned_rec, planned_fp, planned_system = run_phase(
        "planned"
    )
    crash_lat, crash_errors, crash_rec, crash_fp, _crash_system = run_phase("crash")

    drain = planned_system.registry.server
    return PlannedRestartResult(
        clients=clients,
        restarts=restarts,
        ops_total=clients * ops_per_client,
        client_errors=planned_errors + crash_errors,
        planned_p50=_percentile(planned_lat, 0.50),
        planned_p99=_percentile(planned_lat, 0.99),
        planned_max=max(planned_lat, default=0.0),
        crash_p50=_percentile(crash_lat, 0.50),
        crash_p99=_percentile(crash_lat, 0.99),
        crash_max=max(crash_lat, default=0.0),
        drains_completed=drain.drains_completed,
        sessions_ridden_through=drain.sessions_ridden_through,
        statements_bounced=drain.statements_bounced,
        max_pause_seconds=drain.max_pause_seconds,
        planned_recoveries=planned_rec,
        crash_recoveries=crash_rec,
        fingerprints_match=planned_fp == crash_fp,
    )


# ==================================================================== chaos sweep


@dataclass
class ChaosResult:
    """The chaos sweep as a benchmark artifact.

    ``recovered_fraction`` is the headline (1.0 = every crash schedule
    passed the exactly-once oracle); the per-kind rows and the
    phase-1/phase-2 recovery-time split quantify *where* recovery spends
    its time under each fault shape.
    """

    seed: int
    golden_requests: int
    runs: int
    recovered_fraction: float
    total_recoveries: int
    mean_virtual_session_seconds: float
    mean_sql_state_seconds: float
    elapsed_seconds: float
    #: fault kind -> {"runs", "recovered_fraction", "recoveries"}
    by_kind: dict[str, dict[str, float]] = field(default_factory=dict)
    #: failing schedules, rendered (empty on a fully green sweep)
    failures: list[dict] = field(default_factory=list)


def run_chaos_experiment(
    *,
    seed: int = 0,
    stride: int = 1,
    random_runs: int = 24,
) -> ChaosResult:
    """Exhaustive single-fault sweep + storage faults + mid-batch crashes
    (every interior position of every batched request) + seeded multi-fault
    schedules, judged by the exactly-once oracle (see :mod:`repro.chaos`).

    ``stride`` thins the crash-point grid (1 = every wire request index);
    ``random_runs`` multi-fault schedules derive from ``seed`` alone, so a
    failure reproduces from the artifact's recorded seed.
    """
    from repro.chaos import ChaosExplorer
    from repro.net.faults import BATCH_FAULTS, DRAIN_FAULTS, STORAGE_FAULTS, WIRE_FAULTS

    explorer = ChaosExplorer(seed=seed)
    started = time.perf_counter()
    report = explorer.sweep_single_faults(stride=stride)
    report.merge(explorer.sweep_storage_faults(stride=stride))
    report.merge(explorer.sweep_batch_faults(stride=stride))
    report.merge(explorer.sweep_drain_faults(stride=stride))
    report.merge(explorer.sweep_random(random_runs))
    elapsed = time.perf_counter() - started

    by_kind: dict[str, dict[str, float]] = {}
    for kind in WIRE_FAULTS + STORAGE_FAULTS + BATCH_FAULTS + DRAIN_FAULTS:
        single = [
            r for r in report.results
            if len(r.schedule) == 1 and r.schedule[0][1] is kind
        ]
        if not single:
            continue
        by_kind[kind.value] = {
            "runs": len(single),
            "recovered_fraction": sum(1 for r in single if r.ok) / len(single),
            "recoveries": sum(r.recoveries for r in single),
        }
    multi = [r for r in report.results if len(r.schedule) > 1]
    if multi:
        by_kind["multi_fault"] = {
            "runs": len(multi),
            "recovered_fraction": sum(1 for r in multi if r.ok) / len(multi),
            "recoveries": sum(r.recoveries for r in multi),
        }
    return ChaosResult(
        seed=seed,
        golden_requests=report.golden_requests,
        runs=report.runs,
        recovered_fraction=report.recovered_fraction,
        total_recoveries=report.total_recoveries,
        mean_virtual_session_seconds=report.mean_virtual_session_seconds,
        mean_sql_state_seconds=report.mean_sql_state_seconds,
        elapsed_seconds=elapsed,
        by_kind=by_kind,
        failures=[
            {"schedule": r.describe(), "violations": r.violations}
            for r in report.failures
        ],
    )


# ============================================================= tracing overhead


@dataclass
class ObsOverheadResult:
    """Cost of the tracing instrumentation on the phoenix-trace workload.

    Three modes over the identical deterministic workload:

    * ``baseline`` — the process default: no tracer was ever installed
      (module-level disabled tracer, exactly what normal operation pays);
    * ``disabled`` — a ``Tracer(enabled=False)`` explicitly installed, to
      prove an installed-but-off tracer costs the same as none;
    * ``on`` — a ``Tracer(enabled=True)`` capturing every span and event.

    The acceptance bar: ``disabled_ratio`` ≈ 1 (tracing off is a true
    no-op) and ``on_ratio`` < 1.10 (full capture under 10% overhead).
    """

    baseline_seconds: float
    disabled_seconds: float
    on_seconds: float
    statements: int
    #: span/event records one traced pass of the workload produces
    records_captured: int
    #: spans absorb_trace() folded into latency histograms from that pass
    spans_absorbed: int
    #: per-mode result fingerprints — identical iff tracing changed nothing
    fingerprints: dict[str, int] = field(default_factory=dict)
    trials: int = 0

    @property
    def disabled_ratio(self) -> float:
        return self.disabled_seconds / self.baseline_seconds

    @property
    def on_ratio(self) -> float:
        return self.on_seconds / self.baseline_seconds


def run_obs_overhead(
    *,
    trace_iterations: int = 40,
    timing_trials: int = 6,
    seed: int = 0,
) -> ObsOverheadResult:
    """Measure tracing overhead on the plan-cache ablation's phoenix-trace
    workload (metadata probes + wrapped DML + periodic materialization —
    the span-densest path in the system).

    The workload mutates its table, so every trial runs against a freshly
    built system (the trace is deterministic, making trials comparable).
    Trials rotate the mode order each round so each mode occupies every
    position equally and monotone process drift cancels; each mode's
    minimum across trials is the reported time.
    """
    from repro.obs import MetricsRegistry, Tracer, use_tracer
    from repro.sql import parse

    def _workload() -> tuple[float, int, int]:
        system = repro.make_system()
        loader = system.server.connect(user="loader")
        system.server.execute(
            loader,
            "CREATE TABLE accounts (id INT PRIMARY KEY, owner VARCHAR(20), balance FLOAT)",
        )
        values = ", ".join(
            f"({i}, 'owner_{i % 7}', {100.0 + i})" for i in range(1, 101)
        )
        system.server.execute(loader, f"INSERT INTO accounts VALUES {values}")
        system.server.disconnect(loader)

        connection = system.phoenix.connect(system.DSN)
        cursor = connection.cursor()
        scan = parse("SELECT id, owner, balance FROM accounts WHERE balance > 120")
        agg = parse(
            "SELECT count(*) AS n, avg(balance) AS mean FROM accounts "
            "WHERE owner LIKE 'owner_%'"
        )
        fingerprint = 0
        statements = 0
        started = time.perf_counter()
        for i in range(trace_iterations):
            connection.probe_metadata(scan)
            connection.probe_metadata(agg)
            cursor.execute(
                f"UPDATE accounts SET balance = balance + 1 WHERE id = {i % 50 + 1}"
            )
            statements += 3
            if i % 8 == 0:
                cursor.execute(
                    "SELECT id, owner, balance FROM accounts "
                    "WHERE balance > 120 ORDER BY id"
                )
                fingerprint = _fold_fingerprint(fingerprint, "scan", cursor.fetchall())
                statements += 1
        seconds = time.perf_counter() - started
        connection.close()
        return seconds, statements, fingerprint

    modes = ("baseline", "disabled", "on")
    best = {mode: float("inf") for mode in modes}
    fingerprints: dict[str, int] = {}
    statements = 0
    records_captured = 0
    spans_absorbed = 0

    def _run_mode(mode: str) -> None:
        nonlocal statements, records_captured, spans_absorbed
        if mode == "baseline":
            seconds, statements, fingerprint = _workload()
        elif mode == "disabled":
            with use_tracer(Tracer(enabled=False, seed=seed)):
                seconds, statements, fingerprint = _workload()
        else:
            tracer = Tracer(enabled=True, seed=seed)
            with use_tracer(tracer):
                seconds, statements, fingerprint = _workload()
            records_captured = len(tracer.records)
            registry = MetricsRegistry()
            spans_absorbed = registry.absorb_trace(tracer.records)
        best[mode] = min(best[mode], seconds)
        fingerprints[mode] = fingerprint

    # untimed warm-up round before any measured trial
    for mode in modes:
        _run_mode(mode)
    for mode in modes:
        best[mode] = float("inf")

    # trial count a multiple of 3: rotating the order each round puts each
    # mode in each position equally often, cancelling monotone drift
    trials = max(3, timing_trials + (-timing_trials % 3))
    for trial in range(trials):
        shift = trial % 3
        for mode in modes[shift:] + modes[:shift]:
            _run_mode(mode)

    return ObsOverheadResult(
        baseline_seconds=best["baseline"],
        disabled_seconds=best["disabled"],
        on_seconds=best["on"],
        statements=statements,
        records_captured=records_captured,
        spans_absorbed=spans_absorbed,
        fingerprints=fingerprints,
        trials=trials,
    )


# ========================================================== recovery breakdown


@dataclass
class RecoveryBreakdownRow:
    """Per-fault-kind recovery-time split, reconstructed from span traces.

    Every faulted chaos run is executed under a tracer; a
    :class:`repro.obs.RecoveryTimeline` rebuilt from each trace yields the
    per-recovery phase durations the row aggregates.  This is Figure 2's
    phase split measured *from the trace* rather than from
    ``PhoenixStats`` — the two must agree, which is itself a cross-check.
    """

    kind: str
    runs: int
    recoveries: int
    mean_pings: float
    mean_await_ms: float
    mean_phase1_ms: float
    mean_phase2_ms: float
    mean_total_ms: float


def run_recovery_breakdown(
    *,
    seed: int = 0,
    stride: int = 4,
) -> list[RecoveryBreakdownRow]:
    """Traced single-fault chaos sweep → per-kind recovery phase breakdown.

    For each fault kind, the probe/DML trace runs once per crash point
    (thinned by ``stride``) under an enabled tracer; the recovery spans in
    each captured trace are reconstructed into timelines and aggregated.
    """
    from repro.chaos.trace import probe_dml_trace, run_trace
    from repro.net.faults import STORAGE_FAULTS, WIRE_FAULTS
    from repro.obs import RecoveryTimeline, Tracer

    trace = probe_dml_trace()
    golden = run_trace(trace)
    if not golden.completed:
        raise RuntimeError(f"golden run failed: {golden.error}")

    rows: list[RecoveryBreakdownRow] = []
    for kind in WIRE_FAULTS + STORAGE_FAULTS:
        runs = 0
        recoveries = 0
        pings = 0
        await_s = 0.0
        phase1_s = 0.0
        phase2_s = 0.0
        total_s = 0.0
        for index in range(0, golden.requests_seen, stride):
            tracer = Tracer(enabled=True, seed=seed)
            run_trace(trace, ((index, kind),), tracer=tracer)
            runs += 1
            timeline = RecoveryTimeline.from_records(tracer.records)
            for view in timeline.recoveries:
                if view.outcome == "spurious":
                    continue
                recoveries += 1
                pings += view.pings
                await_s += view.phase_seconds("recovery.await_server")
                phase1_s += view.phase_seconds("recovery.phase1.virtual_session")
                phase2_s += view.phase_seconds("recovery.phase2.sql_state")
                total_s += view.duration
        n = recoveries or 1
        rows.append(
            RecoveryBreakdownRow(
                kind=kind.value,
                runs=runs,
                recoveries=recoveries,
                mean_pings=pings / n,
                mean_await_ms=await_s / n * 1e3,
                mean_phase1_ms=phase1_s / n * 1e3,
                mean_phase2_ms=phase2_s / n * 1e3,
                mean_total_ms=total_s / n * 1e3,
            )
        )
    return rows


# ============================================================== concurrency


@dataclass
class ConcurrencyThroughputRow:
    """One client-count point of the multi-client throughput experiment."""

    clients: int
    operations: int
    seconds: float
    fingerprint: int

    @property
    def ops_per_second(self) -> float:
        if self.seconds <= 0:
            return float("nan")
        return self.operations / self.seconds


@dataclass
class ConcurrencyRecoveryRow:
    """One (session count, mode) point of the parallel-recovery experiment."""

    sessions: int
    mode: str  # "serial" | "parallel"
    workers: int
    seconds: float
    rebuilt: int
    fingerprint: int


@dataclass
class ContentionRow:
    """One (scenario, client count) point of the lock-contention experiment.

    Scenarios: ``hot_row_locks`` — every client updates its own key of one
    shared table under row-granularity locking; ``hot_table_locks`` — the
    identical workload with ``LockManager.row_locking`` forced off (the
    pre-row-locking whole-table baseline); ``disjoint`` — each client gets
    its own table (the no-contention upper bound).
    """

    scenario: str
    clients: int
    operations: int
    seconds: float
    fingerprint: int
    lock_waits: int
    lock_wait_seconds: float

    @property
    def ops_per_second(self) -> float:
        if self.seconds <= 0:
            return float("nan")
        return self.operations / self.seconds


def contention_speedup(rows: list[ContentionRow], clients: int) -> float:
    """hot-table-baseline seconds / hot-row seconds at one client count —
    how much the row locks buy on the contended workload."""
    row_locks = next(
        (r for r in rows if r.scenario == "hot_row_locks" and r.clients == clients),
        None,
    )
    table_locks = next(
        (r for r in rows if r.scenario == "hot_table_locks" and r.clients == clients),
        None,
    )
    if row_locks is None or table_locks is None or row_locks.seconds <= 0:
        return float("nan")
    return table_locks.seconds / row_locks.seconds


@dataclass
class ConcurrencyResult:
    """Multi-client serving throughput + parallel session recovery."""

    latency: float
    segments: int
    ops_per_segment: int
    throughput: list[ConcurrencyThroughputRow] = field(default_factory=list)
    recovery: list[ConcurrencyRecoveryRow] = field(default_factory=list)
    contention_rounds: int = 0
    contention_ops_per_txn: int = 0
    contention: list[ContentionRow] = field(default_factory=list)

    def speedup(self, clients: int) -> float:
        base = next((r for r in self.throughput if r.clients == 1), None)
        point = next((r for r in self.throughput if r.clients == clients), None)
        if base is None or point is None or point.seconds <= 0:
            return float("nan")
        return base.seconds / point.seconds

    def recovery_ratio(self, sessions: int) -> float:
        serial = next(
            (r for r in self.recovery if r.sessions == sessions and r.mode == "serial"),
            None,
        )
        parallel = next(
            (
                r
                for r in self.recovery
                if r.sessions == sessions and r.mode == "parallel"
            ),
            None,
        )
        if serial is None or parallel is None or serial.seconds <= 0:
            return float("nan")
        return parallel.seconds / serial.seconds

    def hot_speedup(self, clients: int) -> float:
        return contention_speedup(self.contention, clients)

    @property
    def contention_fingerprints_match(self) -> bool:
        """The identical hot workload under row locks vs table locks must
        leave identical durable state (disjoint uses different tables and
        is excluded)."""
        by_clients: dict[int, set] = {}
        for r in self.contention:
            if r.scenario in ("hot_row_locks", "hot_table_locks"):
                by_clients.setdefault(r.clients, set()).add(r.fingerprint)
        return all(len(prints) <= 1 for prints in by_clients.values())

    @property
    def throughput_fingerprints_match(self) -> bool:
        prints = {r.fingerprint for r in self.throughput}
        return len(prints) <= 1

    @property
    def recovery_fingerprints_match(self) -> bool:
        by_sessions: dict[int, set] = {}
        for r in self.recovery:
            by_sessions.setdefault(r.sessions, set()).add(r.fingerprint)
        return all(len(prints) <= 1 for prints in by_sessions.values())


def _concurrency_segment_ops(segment: int, ops: int) -> list[tuple[str, str]]:
    """Segment ``segment``'s deterministic op list: ("dml"|"query", sql).

    Ops rotate INSERT / UPDATE / SELECT over the segment's private key
    range, so the same total op set partitioned across any client count
    leaves identical durable state.
    """
    base = 1000 * (segment + 1)
    out: list[tuple[str, str]] = []
    for j in range(ops):
        k = base + (j // 3) * 3
        if j % 3 == 0:
            out.append(("dml", f"INSERT INTO conc_bench VALUES ({k}, {j}.0)"))
        elif j % 3 == 1:
            out.append(("dml", f"UPDATE conc_bench SET v = v + 1 WHERE k = {k}"))
        else:
            out.append(("query", f"SELECT k, v FROM conc_bench WHERE k = {k}"))
    return out


def run_contention(
    *,
    client_counts: tuple[int, ...] = (1, 16),
    rounds: int = 6,
    ops_per_txn: int = 4,
    latency: float = 0.002,
    scenarios: tuple[str, ...] = ("hot_row_locks", "hot_table_locks", "disjoint"),
) -> list[ContentionRow]:
    """The hot-table lock-contention experiment.

    Every client runs ``rounds`` explicit transactions of ``ops_per_txn``
    UPDATEs against **its own key** — so there is no logical conflict, only
    lock-granularity conflict.  The transaction is held open across
    ``ops_per_txn`` wire round-trips (each paying ``latency``), which is
    exactly the shape where lock granularity matters: under whole-table
    locking the first UPDATE takes the table X lock and every other
    client's transaction queues behind the commit; under row locking the
    clients hold compatible IX table locks plus X locks on their own rows
    and overlap fully.  ``disjoint`` (a private table per client) is the
    no-contention upper bound.

    The hot workload is byte-identical between ``hot_row_locks`` and
    ``hot_table_locks`` (only ``LockManager.row_locking`` differs), so
    their durable fingerprints must match — serialization order cannot
    matter because clients touch disjoint keys.
    """
    import threading

    rows_out: list[ContentionRow] = []
    for clients in client_counts:
        for scenario in scenarios:
            system = repro.make_system()
            system.endpoint.latency = latency
            loader = system.server.connect(user="loader")
            if scenario == "disjoint":
                tables = [f"hot_bench_{i}" for i in range(clients)]
                for i, table in enumerate(tables):
                    system.server.execute(
                        loader, f"CREATE TABLE {table} (k INT PRIMARY KEY, v FLOAT)"
                    )
                    system.server.execute(
                        loader, f"INSERT INTO {table} VALUES ({i}, 0.0)"
                    )
            else:
                tables = ["hot_bench"] * clients
                system.server.execute(
                    loader, "CREATE TABLE hot_bench (k INT PRIMARY KEY, v FLOAT)"
                )
                for i in range(clients):
                    system.server.execute(
                        loader, f"INSERT INTO hot_bench VALUES ({i}, 0.0)"
                    )
            system.server.disconnect(loader)
            if scenario == "hot_table_locks":
                # the ablation baseline: every row request degrades to its
                # whole-table lock (the pre-row-locking design)
                system.server.database.locks.row_locking = False

            connections = [
                system.phoenix.connect(system.DSN, user=f"hot{i}")
                for i in range(clients)
            ]
            errors_seen: list[str] = []
            barrier = threading.Barrier(clients)

            def run_client(connection, table, key) -> None:
                try:
                    cursor = connection.cursor()
                    # a 250 ms default budget starves 16 queued clients;
                    # give waits the room the workload needs
                    cursor.execute("SET lock_timeout 30000")
                    barrier.wait()
                    for _ in range(rounds):
                        connection.begin()
                        for _ in range(ops_per_txn):
                            cursor.execute(
                                f"UPDATE {table} SET v = v + 1 WHERE k = {key}"
                            )
                        connection.commit()
                except Exception as exc:
                    errors_seen.append(f"{type(exc).__name__}: {exc}")

            threads = [
                threading.Thread(
                    target=run_client,
                    args=(connections[i], tables[i], i),
                    name=f"hot-{i}",
                )
                for i in range(clients)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - started
            if errors_seen:
                raise RuntimeError(
                    f"contention {scenario}/{clients} clients failed: {errors_seen}"
                )
            for connection in connections:
                connection.close()

            verifier = system.server.connect(user="verifier")
            fingerprint = 0
            for table in dict.fromkeys(tables):
                data = system.server.execute(
                    verifier, f"SELECT k, v FROM {table} ORDER BY k"
                )
                fingerprint = _fold_fingerprint(
                    fingerprint, table, data.result_set.rows
                )
            system.server.disconnect(verifier)
            lock_stats = system.registry.locks
            rows_out.append(
                ContentionRow(
                    scenario=scenario,
                    clients=clients,
                    operations=clients * rounds * ops_per_txn,
                    seconds=seconds,
                    fingerprint=fingerprint,
                    lock_waits=lock_stats.waits,
                    lock_wait_seconds=lock_stats.total_wait_time,
                )
            )
    return rows_out


def run_concurrency(
    *,
    client_counts: tuple[int, ...] = (1, 4, 16),
    segments: int = 16,
    ops_per_segment: int = 9,
    session_counts: tuple[int, ...] = (4, 16),
    latency: float = 0.002,
    parallel_workers: int = 8,
    contention_clients: tuple[int, ...] = (1, 16),
    contention_rounds: int = 6,
    contention_ops_per_txn: int = 4,
) -> ConcurrencyResult:
    """The concurrent-serving experiment (experiment CC).

    **Throughput** — the same ``segments * ops_per_segment`` operation set
    (a probe/DML mix over ``segments`` disjoint key ranges of one shared
    table) is partitioned across k clients for each k in ``client_counts``;
    every wire request pays ``latency`` seconds of transit, so this
    measures how much of that transit the threaded dispatcher overlaps.
    The durable table fingerprint must be identical across client counts
    (the partition is over disjoint ranges) — a divergence raises
    ``RuntimeError``.

    **Recovery** — for each N in ``session_counts``, N Phoenix sessions
    with session state (SET options, committed rows, a half-fetched
    result) meet a crash+restart, then ``recover_all`` rebuilds the fleet
    serially (``max_workers=1``) and in parallel
    (``max_workers=parallel_workers``), each against its own fresh fleet.
    Both modes must leave identical durable state; the parallel/serial
    wall-time ratio is the headline number.
    """
    import threading

    from repro.core.parallel import recover_all

    result = ConcurrencyResult(
        latency=latency, segments=segments, ops_per_segment=ops_per_segment
    )

    # --- throughput ---------------------------------------------------------
    for clients in client_counts:
        system = repro.make_system()
        system.endpoint.latency = latency
        loader = system.server.connect(user="loader")
        system.server.execute(
            loader, "CREATE TABLE conc_bench (k INT PRIMARY KEY, v FLOAT)"
        )
        system.server.disconnect(loader)

        plans: list[list[tuple[str, str]]] = [[] for _ in range(clients)]
        for segment in range(segments):
            plans[segment % clients].extend(
                _concurrency_segment_ops(segment, ops_per_segment)
            )

        connections = [
            system.phoenix.connect(system.DSN, user=f"bench{i}")
            for i in range(clients)
        ]
        errors_seen: list[str] = []

        def run_client(connection, plan) -> None:
            try:
                cursor = connection.cursor()
                for op, sql in plan:
                    cursor.execute(sql)
                    if op == "query":
                        cursor.fetchall()
            except Exception as exc:
                errors_seen.append(f"{type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(
                target=run_client, args=(connections[i], plans[i]), name=f"bench-{i}"
            )
            for i in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - started
        if errors_seen:
            raise RuntimeError(
                f"throughput with {clients} clients failed: {errors_seen}"
            )
        for connection in connections:
            connection.close()

        verifier = system.server.connect(user="verifier")
        data = system.server.execute(
            verifier, "SELECT k, v FROM conc_bench ORDER BY k"
        )
        system.server.disconnect(verifier)
        result.throughput.append(
            ConcurrencyThroughputRow(
                clients=clients,
                operations=segments * ops_per_segment,
                seconds=seconds,
                fingerprint=_fold_fingerprint(0, "data", data.result_set.rows),
            )
        )

    if not result.throughput_fingerprints_match:
        raise RuntimeError(
            "concurrency throughput: durable state diverged across client "
            "counts: "
            + ", ".join(f"k={r.clients}={r.fingerprint}" for r in result.throughput)
        )

    # --- parallel recovery --------------------------------------------------
    for sessions in session_counts:
        for mode, workers in (("serial", 1), ("parallel", parallel_workers)):
            system = repro.make_system()
            system.endpoint.latency = latency
            loader = system.server.connect(user="loader")
            system.server.execute(
                loader, "CREATE TABLE recov_bench (k INT PRIMARY KEY, v FLOAT)"
            )
            system.server.disconnect(loader)

            fleet = []
            cursors = []
            for i in range(sessions):
                connection = system.phoenix.connect(system.DSN, user=f"fleet{i}")
                cursor = connection.cursor()
                cursor.execute(f"SET app_tag 'fleet-{i}'")
                base = 10 * (i + 1)
                cursor.execute(
                    f"INSERT INTO recov_bench VALUES "
                    f"({base}, 1.0), ({base + 1}, 2.0), ({base + 2}, 3.0)"
                )
                cursor.execute(
                    f"SELECT k, v FROM recov_bench "
                    f"WHERE k >= {base} AND k <= {base + 2} ORDER BY k"
                )
                cursor.fetchone()  # leave the delivery open mid-result
                fleet.append(connection)
                cursors.append(cursor)

            system.server.crash()
            system.endpoint.restart_server()  # database recovery: not timed

            started = time.perf_counter()
            outcomes = recover_all(fleet, max_workers=workers)
            seconds = time.perf_counter() - started
            rebuilt = sum(1 for o in outcomes if o.rebuilt)
            failed = [o for o in outcomes if o.error is not None]
            if failed:
                raise RuntimeError(
                    f"recovery {mode}/{sessions}: {len(failed)} session(s) "
                    f"failed: {failed[0].error}"
                )

            # the rebuilt sessions must actually work: drain the reopened
            # delivery from its saved position, then one more committed write
            for i, (connection, cursor) in enumerate(zip(fleet, cursors)):
                base = 10 * (i + 1)
                remainder = cursor.fetchall()
                if [row[0] for row in remainder] != [base + 1, base + 2]:
                    raise RuntimeError(
                        f"recovery {mode}/{sessions}: session {i} repositioned "
                        f"wrong: {remainder!r}"
                    )
                cursor.execute(
                    f"UPDATE recov_bench SET v = v + 10 WHERE k = {base}"
                )
            for connection in fleet:
                connection.close()

            verifier = system.server.connect(user="verifier")
            data = system.server.execute(
                verifier, "SELECT k, v FROM recov_bench ORDER BY k"
            )
            system.server.disconnect(verifier)
            result.recovery.append(
                ConcurrencyRecoveryRow(
                    sessions=sessions,
                    mode=mode,
                    workers=workers,
                    seconds=seconds,
                    rebuilt=rebuilt,
                    fingerprint=_fold_fingerprint(0, "data", data.result_set.rows),
                )
            )

    if not result.recovery_fingerprints_match:
        raise RuntimeError(
            "parallel recovery: durable state diverged between serial and "
            "parallel modes"
        )

    # --- lock contention ----------------------------------------------------
    result.contention_rounds = contention_rounds
    result.contention_ops_per_txn = contention_ops_per_txn
    result.contention = run_contention(
        client_counts=contention_clients,
        rounds=contention_rounds,
        ops_per_txn=contention_ops_per_txn,
        latency=latency,
    )
    if not result.contention_fingerprints_match:
        raise RuntimeError(
            "contention: hot-table durable state diverged between row-lock "
            "and table-lock modes: "
            + ", ".join(
                f"{r.scenario}/k={r.clients}={r.fingerprint}"
                for r in result.contention
                if r.scenario != "disjoint"
            )
        )
    return result


# ================================================================== time travel


@dataclass
class TimeTravelReconstructRow:
    """One point of the reconstruction-cost sweep: rebuild the latest cut
    from a cold snapshot cache over a log of the given length."""

    commits: int
    log_records: int
    cut_lsn: int
    records_replayed: int
    reconstruct_seconds: float


@dataclass
class TimeTravelResult:
    """Experiment TT: what point-in-time queries cost and whether they tell
    the truth.

    Four measurements share the artifact.  *Reconstruction vs log length*
    rebuilds the newest cut cold at several workload sizes (the cost is
    linear in log records — there is no snapshot shortcut by design).
    *AS OF latency* compares a live ``SELECT`` against the same query
    ``AS OF`` a historical cut, cold (first touch pays a reconstruction)
    and warm (the LRU snapshot answers).  The *fingerprint sweep* is the
    correctness guard: a timestamp is pinned after **every** commit of the
    largest workload — spanning a mid-run checkpoint truncation — and every
    pinned cut must reproduce its live fingerprint exactly
    (``fingerprints_match``).  The *ride-through* phase runs 16 Phoenix
    clients through one ``restore_to`` (to now) mid-workload:
    ``client_errors`` must be 0, every increment must survive exactly once,
    and a cut pinned before the restore must still reconstruct after it.
    """

    # reconstruction cost vs log length
    reconstruct: list[TimeTravelReconstructRow]
    # AS OF latency vs a live read (same query, same table)
    live_select_seconds: float
    as_of_cold_seconds: float
    as_of_warm_seconds: float
    snapshot_hits: int
    # the sweep guard: AS OF must reproduce every pinned cut exactly
    cuts_pinned: int
    cuts_matched: int
    fingerprints_match: bool
    # restore_to ride-through under load
    clients: int
    ops_total: int
    client_errors: int
    restore_seconds: float
    restore_sessions_ridden: int
    restore_commits_discarded: int
    ride_through_exactly_once: bool
    pre_restore_cut_ok: bool


def _time_travel_statement(i: int) -> str:
    """Deterministic insert/update/delete mix, one commit per statement."""
    if i % 7 == 3 and i > 8:
        return f"DELETE FROM tt_bench WHERE k = {i - 7}"
    if i % 3 == 0 and i > 3:
        return f"UPDATE tt_bench SET v = v + {i} WHERE k = {i - 3}"
    return f"INSERT INTO tt_bench VALUES ({i}, {i * 10})"


def run_time_travel(
    *,
    sizes: tuple[int, ...] = (16, 64, 128),
    latency_trials: int = 20,
    clients: int = 16,
    ops_per_client: int = 30,
    latency: float = 0.002,
    drain_timeout: float = 0.25,
) -> TimeTravelResult:
    """Measure time-travel cost and verify it end to end (see
    :class:`TimeTravelResult`)."""
    import threading

    reconstruct_rows: list[TimeTravelReconstructRow] = []
    cuts_pinned = cuts_matched = 0
    live_seconds = cold_seconds = warm_seconds = 0.0
    snapshot_hits = 0

    for size in sizes:
        system = repro.make_system()
        manager = system.server.time_travel
        session = system.server.connect(user="tt_bench")
        system.server.execute(
            session, "CREATE TABLE tt_bench (k INT PRIMARY KEY, v INT)"
        )
        pins: list[tuple[float, tuple]] = []
        for i in range(size):
            system.server.execute(session, _time_travel_statement(i))
            if i == size // 2:
                # a checkpoint truncates the live log mid-sweep: every cut
                # pinned before it must survive via the log archive
                system.server.database.checkpoint()
            ts = manager.clock.now()
            data = system.server.execute(session, "SELECT * FROM tt_bench")
            pins.append((ts, tuple(sorted(data.result_set.rows))))

        # (a) cold reconstruction of the newest cut over the whole history
        manager._snapshots.clear()
        started = time.perf_counter()
        snapshot = manager.snapshot_at(pins[-1][0])
        reconstruct_rows.append(
            TimeTravelReconstructRow(
                commits=size,
                log_records=snapshot.info.records_scanned,
                cut_lsn=snapshot.cut_lsn,
                records_replayed=snapshot.info.records_replayed,
                reconstruct_seconds=time.perf_counter() - started,
            )
        )

        # (c) the sweep guard: every pinned cut must reproduce exactly
        for ts, expected in pins:
            data = system.server.execute(
                session, f"SELECT * FROM tt_bench AS OF {ts!r}"
            )
            cuts_pinned += 1
            if tuple(sorted(data.result_set.rows)) == expected:
                cuts_matched += 1

        if size == max(sizes):
            # (b) AS OF latency on the largest history, against a mid cut
            mid_ts = pins[len(pins) // 2][0]
            started = time.perf_counter()
            for _ in range(latency_trials):
                system.server.execute(session, "SELECT * FROM tt_bench")
            live_seconds = (time.perf_counter() - started) / latency_trials
            manager._snapshots.clear()
            started = time.perf_counter()
            system.server.execute(session, f"SELECT * FROM tt_bench AS OF {mid_ts!r}")
            cold_seconds = time.perf_counter() - started
            hits_before = manager.stats.snapshot_hits
            started = time.perf_counter()
            for _ in range(latency_trials):
                system.server.execute(
                    session, f"SELECT * FROM tt_bench AS OF {mid_ts!r}"
                )
            warm_seconds = (time.perf_counter() - started) / latency_trials
            snapshot_hits = manager.stats.snapshot_hits - hits_before
        system.server.disconnect(session)

    # (d) restore_to ride-through: 16 Phoenix clients, one restore-to-now
    # mid-workload; nothing committed is discarded, so exactly-once holds
    system = repro.make_system()
    system.endpoint.latency = latency
    loader = system.server.connect(user="loader")
    system.server.execute(loader, "CREATE TABLE tt_ride (k INT PRIMARY KEY, v INT)")
    for i in range(clients):
        system.server.execute(loader, f"INSERT INTO tt_ride VALUES ({i}, 0)")
    pre_ts = system.server.time_travel.clock.now()
    data = system.server.execute(loader, "SELECT * FROM tt_ride")
    pre_fingerprint = tuple(sorted(data.result_set.rows))
    system.server.disconnect(loader)

    connections = [
        system.phoenix.connect(system.DSN, user=f"tt{i}") for i in range(clients)
    ]
    errors_seen: list[str] = []
    barrier = threading.Barrier(clients + 1)

    def run_client(connection, key: int) -> None:
        try:
            cursor = connection.cursor()
            barrier.wait()
            for _ in range(ops_per_client):
                cursor.execute(f"UPDATE tt_ride SET v = v + 1 WHERE k = {key}")
        except Exception as exc:
            errors_seen.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=run_client, args=(connections[i], i), name=f"tt-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    time.sleep(max(0.01, ops_per_client * latency / 2))
    report = system.endpoint.restore_to(
        None, policy=repro.RestartPolicy(mode="deadline", drain_timeout=drain_timeout)
    )
    for thread in threads:
        thread.join()
    for connection in connections:
        try:
            connection.close()
        except Exception:
            pass

    verifier = system.server.connect(user="verifier")
    data = system.server.execute(verifier, "SELECT k, v FROM tt_ride ORDER BY k")
    exactly_once = all(row[1] == ops_per_client for row in data.result_set.rows)
    data = system.server.execute(verifier, f"SELECT * FROM tt_ride AS OF {pre_ts!r}")
    pre_cut_ok = tuple(sorted(data.result_set.rows)) == pre_fingerprint
    system.server.disconnect(verifier)

    return TimeTravelResult(
        reconstruct=reconstruct_rows,
        live_select_seconds=live_seconds,
        as_of_cold_seconds=cold_seconds,
        as_of_warm_seconds=warm_seconds,
        snapshot_hits=snapshot_hits,
        cuts_pinned=cuts_pinned,
        cuts_matched=cuts_matched,
        fingerprints_match=cuts_matched == cuts_pinned,
        clients=clients,
        ops_total=clients * ops_per_client,
        client_errors=len(errors_seen),
        restore_seconds=report.seconds,
        restore_sessions_ridden=report.sessions_ridden,
        restore_commits_discarded=report.commits_discarded,
        ride_through_exactly_once=exactly_once,
        pre_restore_cut_ok=pre_cut_ok,
    )


# ================================================================ Experiment NET


@dataclass
class TcpIdleScaleRow:
    """One point of the idle-session scaling sweep: N concurrent TCP
    sessions held open on one event loop, then every one pinged."""

    sessions: int
    connect_seconds: float
    ping_seconds: float
    pings_answered: int
    client_errors: int


@dataclass
class TcpServingResult:
    """Experiment NET: what the real-socket serving tier costs and whether
    it changes any answers.

    *Idle scaling* opens N concurrent TCP sessions against one listener
    (one asyncio event loop, one blocking socket per client), holds them
    all open, and pings every one — the C10K-shaped claim behind the tier
    is that idle sessions cost a file descriptor, not a thread, so every
    ping must come back with ``client_errors == 0`` at every size.
    *Per-op latency* runs the same single-client statement mix through the
    in-process transport and through a real socket (fresh server each),
    and reports the per-operation cost plus the TCP/in-process
    ``overhead_ratio`` — the price of real framing, syscalls, and the
    event-loop↔dispatcher handoff.  The *fingerprint guard* compares the
    final table contents of the two runs (``fingerprints_match``): the
    transport may change the wire, never the answers.
    """

    # idle-session scaling: all pings answered, 0 errors at every size
    idle_scale: list[TcpIdleScaleRow]
    # per-op latency, same workload over both transports
    ops: int
    inprocess_op_seconds: float
    tcp_op_seconds: float
    overhead_ratio: float
    # the guard: both workloads must leave identical table contents
    inprocess_fingerprint: tuple
    tcp_fingerprint: tuple
    fingerprints_match: bool


def _tcp_serving_statement(i: int) -> str:
    """Deterministic insert/update/select mix for the latency comparison."""
    if i % 4 == 3:
        return f"UPDATE net_bench SET v = v + {i} WHERE k = {i - 3}"
    if i % 7 == 5:
        return f"SELECT * FROM net_bench WHERE k = {i - 5}"
    return f"INSERT INTO net_bench VALUES ({i}, {i * 3})"


def run_tcp_serving(
    *,
    idle_sizes: tuple[int, ...] = (100, 1000, 4000),
    ops: int = 400,
) -> TcpServingResult:
    """Measure the TCP serving tier and verify transport neutrality (see
    :class:`TcpServingResult`)."""
    from repro.net.protocol import ConnectRequest, PingRequest, PongResponse
    from repro.net.tcp import TcpTransport

    # (a) idle-session scaling: hold N sessions open, ping every one
    idle_rows: list[TcpIdleScaleRow] = []
    for sessions in idle_sizes:
        system = repro.make_system(dsn="net_bench_idle", listen="127.0.0.1:0")
        try:
            transport = TcpTransport(*system.tcp.address)
            metrics = repro.NetworkMetrics()
            channels = []
            started = time.perf_counter()
            for i in range(sessions):
                channel = transport.open_channel(metrics=metrics)
                channel.send(ConnectRequest(user=f"idle-{i}", options={}))
                channels.append(channel)
            connect_seconds = time.perf_counter() - started
            answered = 0
            started = time.perf_counter()
            for channel in channels:
                if isinstance(channel.send(PingRequest()), PongResponse):
                    answered += 1
            ping_seconds = time.perf_counter() - started
            for channel in channels:
                channel.close()
            idle_rows.append(
                TcpIdleScaleRow(
                    sessions=sessions,
                    connect_seconds=connect_seconds,
                    ping_seconds=ping_seconds,
                    pings_answered=answered,
                    client_errors=metrics.errors,
                )
            )
        finally:
            system.close()

    # (b) per-op latency + (c) fingerprint guard: same workload, both wires
    timings: dict[str, float] = {}
    fingerprints: dict[str, tuple] = {}
    for mode in ("inprocess", "tcp"):
        system = repro.make_system(
            dsn=f"net_bench_{mode}",
            listen="127.0.0.1:0" if mode == "tcp" else None,
        )
        try:
            dsn = system.url if mode == "tcp" else system.DSN
            connection = repro.connect(dsn, phoenix=False, user="net_bench")
            cursor = connection.cursor()
            cursor.execute("CREATE TABLE net_bench (k INT PRIMARY KEY, v INT)")
            started = time.perf_counter()
            for i in range(ops):
                statement = _tcp_serving_statement(i)
                cursor.execute(statement)
                if statement.startswith("SELECT"):
                    cursor.fetchall()
            timings[mode] = (time.perf_counter() - started) / ops
            cursor.execute("SELECT * FROM net_bench")
            fingerprints[mode] = tuple(sorted(cursor.fetchall()))
            connection.close()
        finally:
            system.close()

    return TcpServingResult(
        idle_scale=idle_rows,
        ops=ops,
        inprocess_op_seconds=timings["inprocess"],
        tcp_op_seconds=timings["tcp"],
        overhead_ratio=(
            timings["tcp"] / timings["inprocess"] if timings["inprocess"] else 0.0
        ),
        inprocess_fingerprint=fingerprints["inprocess"],
        tcp_fingerprint=fingerprints["tcp"],
        fingerprints_match=fingerprints["inprocess"] == fingerprints["tcp"],
    )
