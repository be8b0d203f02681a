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

The ablations and experiments after them follow the same shape: a result
dataclass (whose fields and :class:`~repro.bench.skeleton.derived`
properties *are* the JSON document) and a ``run_*`` built from the shared
scaffolding of :mod:`repro.bench.skeleton`.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import repro
from repro.bench.skeleton import (
    derived,
    durable_fingerprint,
    loaded_system,
    require_identical,
    run_clients,
)
from repro.chaos.trace import operator_restart
from repro.errors import CommunicationError
from repro.odbc.constants import StatementAttr
from repro.workloads.tpch.datagen import TpchData, populate
from repro.workloads.tpch.power import run_power_test
from repro.workloads.tpch.queries import QUERY_ORDER, query_sql


def _ratio(numerator: float, denominator: float, *, undefined: float = float("nan")) -> float:
    return numerator / denominator if denominator > 0 else undefined


# ======================================================================= Table 1


@dataclass
class Table1Row:
    """One row of Table 1."""

    name: str
    result_rows: int
    native_seconds: float
    phoenix_seconds: float

    @derived
    def difference(self) -> float:
        return self.phoenix_seconds - self.native_seconds

    @derived
    def ratio(self) -> float:
        return _ratio(self.phoenix_seconds, self.native_seconds)


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
        Table1Row(name, native[name][1], native[name][0], phoenix[name][0])
        for name in native
    ]

    def total(label: str, part: list[Table1Row]) -> Table1Row:
        return Table1Row(
            label,
            sum(r.result_rows for r in part),
            sum(r.native_seconds for r in part),
            sum(r.phoenix_seconds for r in part),
        )

    update_rows = [r for r in rows if r.name.startswith("RF")]
    rows.append(total("Total Query", [r for r in rows if r.name.startswith("Q")]))
    if update_rows:
        rows.append(total("Total Updates", update_rows))
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

    @derived
    def recovery_seconds(self) -> float:
        return (
            self.virtual_session_seconds
            + self.sql_state_seconds
            + self.outstanding_fetch_seconds
        )

    @property
    def recovery_vs_recompute(self) -> float:
        return _ratio(self.recovery_seconds, self.recompute_seconds)


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
) -> list[Fig2Point]:
    """Reproduce Figure 2's experiment.

    For each result size: run the query through Phoenix, fetch to within
    ``unread_tail`` tuples of the end (the paper leaves "a few tuples
    unread"), crash and restart the server, then measure Phoenix recovering
    the session — virtual-session phase and SQL-state phase separately —
    and answering the outstanding fetch.  The cursor fetches blocks of
    ``unread_tail`` rows, so the unread tuples are still on the server and
    recovery repositions there (with the driver's 100-row block the last
    block would already hold them: nothing left to recover).  The
    recompute baseline re-runs the query natively and re-delivers all rows.
    """
    # default sizes bracket the paper's 2541-tuple Q11 result
    sizes = result_sizes if result_sizes is not None else [100, 500, 1000, 1750, 2500]
    fill = (
        "INSERT INTO bench_rows VALUES "
        + ", ".join(
            f"({k}, {(k % 97) * 1.5})"
            for k in range(start + 1, min(start + 1001, table_rows + 1))
        )
        for start in range(0, table_rows, 1000)
    )
    system = loaded_system("CREATE TABLE bench_rows (k INT PRIMARY KEY, v FLOAT)", *fill)
    system.server.checkpoint()

    points: list[Fig2Point] = []
    for size in sizes:
        connection = system.phoenix.connect(system.DSN)
        connection.config.sleep = lambda _s: None  # the server is already back
        cursor = connection.cursor()
        cursor.set_attr(StatementAttr.FETCH_BLOCK_SIZE, max(unread_tail, 1))
        sql = _bench_query(size)
        cursor.execute(sql)
        consumed = cursor.fetchmany(max(size - unread_tail, 0))

        system.server.crash()
        system.endpoint.restart_server()

        # Phoenix recovery: the next server interaction detects the failure.
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

        points.append(
            Fig2Point(
                result_size=size,
                virtual_session_seconds=connection.stats.last_virtual_session_seconds,
                sql_state_seconds=connection.stats.last_sql_state_seconds,
                outstanding_fetch_seconds=fetch_seconds,
                recompute_seconds=recompute_seconds,
            )
        )
        connection.close()
    return points


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
    selected = queries if queries is not None else QUERY_ORDER
    system = repro.make_system()
    data = populate(system, sf=sf, seed=seed)
    network, wal = system.registry.network, system.registry.wal

    def cost(cursor, sql: str) -> tuple[int, int, int]:
        """(round trips, bytes on the wire, log forces) of one execution."""
        before = (network.round_trips, network.bytes_sent + network.bytes_received, wal.forces)
        cursor.execute(sql)
        cursor.fetchall()
        after = (network.round_trips, network.bytes_sent + network.bytes_received, wal.forces)
        return tuple(b - a for a, b in zip(before, after))

    native = system.plain.connect(system.DSN)
    phoenix = system.phoenix.connect(system.DSN)
    native_cursor, phoenix_cursor = native.cursor(), phoenix.cursor()
    rows: list[RoundTripRow] = []
    for query_id in selected:
        sql = query_sql(query_id, data.sf)
        native_trips, native_bytes, _ = cost(native_cursor, sql)
        phoenix_trips, phoenix_bytes, phoenix_forces = cost(phoenix_cursor, sql)
        rows.append(
            RoundTripRow(
                query_id, native_trips, phoenix_trips, native_bytes, phoenix_bytes,
                phoenix_forces,
            )
        )
    native.close()
    phoenix.close()
    return rows


# ============================================================== availability


@dataclass
class AvailabilityResult:
    """Application availability under a periodic-crash chaos schedule."""

    driver: str  # "native" | "phoenix"
    sessions_total: int
    sessions_completed: int
    crashes: int

    @derived
    def availability(self) -> float:
        return _ratio(self.sessions_completed, self.sessions_total, undefined=1.0)


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

    setup: list[str] = []
    setup_workload(setup.append)
    results: dict[str, AvailabilityResult] = {}
    for driver_name in ("native", "phoenix"):
        system = loaded_system(*setup)
        system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE, every=crash_every)
        system.phoenix.config.sleep = operator_restart(system)
        manager = system.plain if driver_name == "native" else system.phoenix

        completed = 0
        for trace in generate_traces(sessions, seed=seed):
            if not system.server.up:
                system.endpoint.restart_server()
            try:
                connection = manager.connect(system.DSN)
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
        )
    return results


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

    For each fault kind, the chaos explorer runs each of its placements
    (thinned by ``stride``) under an enabled tracer; the recovery spans in
    each captured trace are reconstructed into timelines and aggregated.
    """
    from repro.chaos import ChaosExplorer
    from repro.net.faults import STORAGE_FAULTS, WIRE_FAULTS
    from repro.obs import RecoveryTimeline, Tracer

    explorer = ChaosExplorer(seed=seed)
    rows: list[RecoveryBreakdownRow] = []
    for kind in WIRE_FAULTS + STORAGE_FAULTS:
        schedules = explorer.placements(kind, stride=stride)
        views = []
        for schedule in schedules:
            tracer = Tracer(enabled=True, seed=seed)
            explorer.run_schedule(schedule, tracer=tracer)
            timeline = RecoveryTimeline.from_records(tracer.records)
            views += [view for view in timeline.recoveries if view.outcome != "spurious"]

        def mean(measure) -> float:
            return sum(map(measure, views)) / (len(views) or 1)

        def phase_ms(phase: str) -> float:
            return mean(lambda view: view.phase_seconds(phase)) * 1e3

        rows.append(
            RecoveryBreakdownRow(
                kind=kind.value,
                runs=len(schedules),
                recoveries=len(views),
                mean_pings=mean(lambda view: view.pings),
                mean_await_ms=phase_ms("recovery.await_server"),
                mean_phase1_ms=phase_ms("recovery.phase1.virtual_session"),
                mean_phase2_ms=phase_ms("recovery.phase2.sql_state"),
                mean_total_ms=mean(lambda view: view.duration) * 1e3,
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
    #: single-client seconds / this row's seconds (filled once the
    #: single-client row exists)
    speedup: float = float("nan")

    @derived
    def ops_per_second(self) -> float:
        return _ratio(self.operations, self.seconds)


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
    shared table by primary key (row locks); ``hot_table_locks`` — the same
    updates spelled ``WHERE k + 0 = <key>``, a predicate no index answers,
    so each takes the whole-table X lock (the pre-row-locking baseline);
    ``disjoint`` — each client gets its own table (the no-contention upper
    bound).
    """

    scenario: str
    clients: int
    operations: int
    seconds: float
    fingerprint: int
    lock_waits: int
    lock_wait_seconds: float

    @derived
    def ops_per_second(self) -> float:
        return _ratio(self.operations, self.seconds)


def _seconds_of(rows: list, **where) -> float:
    """``seconds`` of the one row whose attributes equal ``where`` (NaN when
    there is none, which every ratio built on it then is too)."""
    for row in rows:
        if all(getattr(row, name) == value for name, value in where.items()):
            return row.seconds
    return float("nan")


def _one_fingerprint_per(rows: list, group) -> bool:
    """All rows that share ``group(row)`` carry the same fingerprint."""
    seen: dict = {}
    return all(seen.setdefault(group(r), r.fingerprint) == r.fingerprint for r in rows)


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
    #: client count → ``sweep_multi`` cell (per-client exactly-once oracle)
    multi_client_chaos: dict[int, dict] = field(default_factory=dict)

    @derived
    def recovery_ratios(self) -> dict[int, float]:
        """parallel / serial wall time per session count."""
        return {
            sessions: _ratio(
                _seconds_of(self.recovery, sessions=sessions, mode="parallel"),
                _seconds_of(self.recovery, sessions=sessions, mode="serial"),
            )
            for sessions in sorted({row.sessions for row in self.recovery})
        }

    @derived
    def hot_speedups(self) -> dict[int, float]:
        """hot-table-baseline seconds / hot-row seconds per client count —
        how much the row locks buy on the contended workload."""
        return {
            clients: _ratio(
                _seconds_of(self.contention, scenario="hot_table_locks", clients=clients),
                _seconds_of(self.contention, scenario="hot_row_locks", clients=clients),
            )
            for clients in sorted({row.clients for row in self.contention})
        }

    @derived
    def throughput_fingerprints_match(self) -> bool:
        return _one_fingerprint_per(self.throughput, lambda r: None)

    @derived
    def recovery_fingerprints_match(self) -> bool:
        return _one_fingerprint_per(self.recovery, lambda r: r.sessions)

    @derived
    def contention_fingerprints_match(self) -> bool:
        """The identical hot workload under row locks vs table locks must
        leave identical durable state (disjoint uses different tables and
        is excluded)."""
        hot = [r for r in self.contention if r.scenario != "disjoint"]
        return _one_fingerprint_per(hot, lambda r: r.clients)


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

    ``hot_table_locks`` prices the whole-table baseline by how the
    statement is written, not by a switch: ``k + 0 = <key>`` selects the
    rows ``k = <key>`` does, through the non-keyed path, which locks the
    table *before* the scan and holds it to commit.  The two hot scenarios
    therefore leave identical durable state, and their fingerprints must
    match — serialization order cannot matter because clients touch
    disjoint keys.
    """
    rows_out: list[ContentionRow] = []
    for clients in client_counts:
        for scenario in scenarios:
            if scenario == "disjoint":
                tables = [f"hot_bench_{i}" for i in range(clients)]
            else:
                tables = ["hot_bench"] * clients
            system = loaded_system(
                *(
                    f"CREATE TABLE {table} (k INT PRIMARY KEY, v FLOAT)"
                    for table in dict.fromkeys(tables)
                ),
                *(
                    f"INSERT INTO {table} VALUES ({i}, 0.0)"
                    for i, table in enumerate(tables)
                ),
                latency=latency,
            )
            # the baseline's predicate names the key through an expression,
            # which no index answers: the statement locks the whole table
            key_expr = "k + 0" if scenario == "hot_table_locks" else "k"

            def work(connection, key: int):
                cursor = connection.cursor()
                # a 250 ms default budget starves 16 queued clients;
                # give waits the room the workload needs
                cursor.execute("SET lock_timeout 30000")
                yield
                for _ in range(rounds):
                    connection.begin()
                    for _ in range(ops_per_txn):
                        cursor.execute(
                            f"UPDATE {tables[key]} SET v = v + 1 WHERE {key_expr} = {key}"
                        )
                    connection.commit()
                    yield

            run = run_clients(system, clients, work, user="hot")
            if run.errors:
                raise RuntimeError(
                    f"contention {scenario}/{clients} clients failed: {run.errors}"
                )

            lock_stats = system.registry.locks
            rows_out.append(
                ContentionRow(
                    scenario=scenario,
                    clients=clients,
                    operations=clients * rounds * ops_per_txn,
                    seconds=run.seconds,
                    fingerprint=durable_fingerprint(
                        system,
                        **{table: f"SELECT k, v FROM {table} ORDER BY k" for table in tables},
                    ),
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
    chaos_clients: tuple[int, ...] = (1, 4, 16),
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

    **Contention** — :func:`run_contention` at ``contention_clients``.

    **Multi-client chaos** — ``repro.chaos.sweep_multi`` at
    ``chaos_clients``: the correctness companion of the numbers above (k
    clients mid-flight at a crash, per-client exactly-once oracle).
    """
    from repro.chaos import sweep_multi
    from repro.core.parallel import recover_all

    result = ConcurrencyResult(
        latency=latency, segments=segments, ops_per_segment=ops_per_segment
    )

    # --- throughput ---------------------------------------------------------
    for clients in client_counts:
        system = loaded_system(
            "CREATE TABLE conc_bench (k INT PRIMARY KEY, v FLOAT)", latency=latency
        )
        plans: list[list[tuple[str, str]]] = [[] for _ in range(clients)]
        for segment in range(segments):
            plans[segment % clients].extend(
                _concurrency_segment_ops(segment, ops_per_segment)
            )

        def work(connection, index: int):
            cursor = connection.cursor()
            yield
            for op, sql in plans[index]:
                cursor.execute(sql)
                if op == "query":
                    cursor.fetchall()
                yield

        run = run_clients(system, clients, work)
        if run.errors:
            raise RuntimeError(f"throughput with {clients} clients failed: {run.errors}")
        result.throughput.append(
            ConcurrencyThroughputRow(
                clients=clients,
                operations=segments * ops_per_segment,
                seconds=run.seconds,
                fingerprint=durable_fingerprint(
                    system, data="SELECT k, v FROM conc_bench ORDER BY k"
                ),
            )
        )
    for row in result.throughput:
        row.speedup = _ratio(_seconds_of(result.throughput, clients=1), row.seconds)
    require_identical(
        "concurrency throughput across client counts",
        {f"k={r.clients}": r.fingerprint for r in result.throughput},
    )

    # --- parallel recovery --------------------------------------------------
    for sessions in session_counts:
        for mode, workers in (("serial", 1), ("parallel", parallel_workers)):
            system = loaded_system(
                "CREATE TABLE recov_bench (k INT PRIMARY KEY, v FLOAT)", latency=latency
            )
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
            result.recovery.append(
                ConcurrencyRecoveryRow(
                    sessions=sessions,
                    mode=mode,
                    workers=workers,
                    seconds=seconds,
                    rebuilt=rebuilt,
                    fingerprint=durable_fingerprint(
                        system, data="SELECT k, v FROM recov_bench ORDER BY k"
                    ),
                )
            )
        require_identical(
            f"parallel recovery of {sessions} sessions, serial vs parallel",
            {r.mode: r.fingerprint for r in result.recovery if r.sessions == sessions},
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
    for clients in contention_clients:
        require_identical(
            f"contention at {clients} clients, row locks vs table locks",
            {
                r.scenario: r.fingerprint
                for r in result.contention
                if r.clients == clients and r.scenario != "disjoint"
            },
        )

    # --- multi-client chaos -------------------------------------------------
    if chaos_clients:
        result.multi_client_chaos = sweep_multi(chaos_clients)
    return result
