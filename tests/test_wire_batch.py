"""Wire batching + WAL group commit: one round trip and one log force per
batch on the hot DML path, with per-statement exactly-once preserved.

Covers the protocol messages, the server's deferred-force execution, the
batched executemany client path (vs the statement-at-a-time baseline),
partial-batch replay after mid-batch crashes and a torn WAL tail under a
group force, the satellite fixes (``FETCH_BLOCK_SIZE`` in fetchall,
executemany rowcount accumulation), the metrics surfaces, and the chaos
batch sweep.
"""

from __future__ import annotations

import pytest

import repro
from repro.chaos import ChaosExplorer
from repro.errors import IntegrityError
from repro.net import FaultKind
from repro.net.faults import BATCH_FAULTS, STORAGE_FAULTS, WIRE_FAULTS
from repro.engine.results import StatementResult
from repro.net.protocol import (
    BatchExecuteRequest,
    BatchExecuteResponse,
    ErrorResponse,
    decode_message,
    encode_message,
)
from repro.odbc.constants import CursorType, StatementAttr


def _create_table(system) -> None:
    loader = system.server.connect(user="loader")
    system.server.execute(loader, "CREATE TABLE t (k INT PRIMARY KEY, v FLOAT)")
    system.server.disconnect(loader)


def _table_rows(system, sql: str = "SELECT k, v FROM t ORDER BY k") -> list[tuple]:
    session = system.server.connect(user="check")
    result = system.server.execute(session, sql)
    system.server.disconnect(session)
    return result.rows


def _auto_restart(system, connection) -> None:
    connection.config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )


def _is_batch(request) -> bool:
    return isinstance(request, BatchExecuteRequest)


# ------------------------------------------------------------------- protocol


def test_batch_messages_round_trip_the_wire():
    request = BatchExecuteRequest(
        session_id=7, sql="INSERT INTO t VALUES (?, ?)", rows=[[1, 1.5], [2, None]]
    )
    assert decode_message(encode_message(request)) == request

    response = BatchExecuteResponse(
        results=[StatementResult(kind="rowcount", rowcount=1, batch_rowcounts=[1, 1])],
        error=ErrorResponse(error_type="IntegrityError", message="duplicate key"),
        error_index=1,
    )
    assert decode_message(encode_message(response)) == response


def test_mid_batch_fault_is_batch_scoped_not_wire_scoped():
    # the exhaustive wire sweep's run count is pinned to WIRE_FAULTS; the
    # argumented mid-batch kind sweeps separately over batch positions
    assert FaultKind.CRASH_MID_BATCH in BATCH_FAULTS
    assert FaultKind.CRASH_MID_BATCH not in WIRE_FAULTS
    assert FaultKind.CRASH_MID_BATCH not in STORAGE_FAULTS


# ------------------------------------------------------- server group commit


def test_execute_batch_coalesces_commit_forces(system):
    _create_table(system)
    session = system.server.connect()
    system.registry.reset()
    rows = [[k, k + 0.5] for k in range(1, 5)]
    results, error, error_index = system.server.execute_batch(
        session, "INSERT INTO t VALUES (?, ?)", rows
    )
    assert error is None and error_index == -1
    assert [r.rowcount for r in results] == [1, 1, 1, 1]
    wal = system.registry.wal
    assert wal.forces == 1  # one device force for four autocommit INSERTs
    assert wal.group_forces == 1
    assert wal.forces_coalesced == 3
    assert len(_table_rows(system)) == 4


def test_execute_batch_error_prefix_is_durable(system):
    _create_table(system)
    session = system.server.connect()
    system.registry.reset()
    rows = [[1, 1.5], [1, 9.9], [2, 2.5]]  # the second is a duplicate key
    results, error, error_index = system.server.execute_batch(
        session, "INSERT INTO t VALUES (?, ?)", rows
    )
    assert len(results) == 1
    assert isinstance(error, IntegrityError)
    assert error_index == 1
    assert system.registry.wal.group_forces <= 1  # never more than one per batch
    # the completed prefix was forced before the reply: it survives a crash,
    # and the suffix after the error never ran
    system.server.crash()
    system.endpoint.restart_server()
    assert _table_rows(system) == [(1, 1.5)]


def test_group_force_is_noop_for_read_only_batch(system):
    _create_table(system)
    session = system.server.connect()
    system.registry.reset()
    results, error, _ = system.server.execute_batch(session, "SELECT count(*) FROM t", [[], []])
    assert error is None and len(results) == 2
    # nothing committed, so no device force happened at the boundary
    assert system.registry.wal.forces == 0
    assert system.registry.wal.group_forces == 0


# --------------------------------------------------------- batched executemany


ROWS = [[k, k * 1.5] for k in range(1, 10)]  # 9 rows: exercises a short tail chunk


def _run_executemany(batch_size: int) -> tuple[repro.System, "repro.PhoenixCursor"]:
    system = repro.make_system()
    _create_table(system)
    connection = system.phoenix.connect(system.DSN)
    _auto_restart(system, connection)
    cursor = connection.cursor()
    cursor.set_attr(StatementAttr.BATCH_SIZE, batch_size)
    system.registry.reset()
    cursor.executemany("INSERT INTO t VALUES (?, ?)", ROWS)
    return system, cursor


def test_batched_executemany_matches_unbatched_with_fewer_trips():
    batched_system, batched_cursor = _run_executemany(4)
    unbatched_system, unbatched_cursor = _run_executemany(1)

    assert batched_cursor.rowcount == unbatched_cursor.rowcount == len(ROWS)
    assert _table_rows(batched_system) == _table_rows(unbatched_system)

    batched_net = batched_system.registry.network
    unbatched_net = unbatched_system.registry.network
    assert batched_net.batch_requests == 3  # ceil(9 / 4)
    assert batched_net.requests_batched == len(ROWS)
    assert unbatched_net.batch_requests == 0
    assert batched_net.round_trips * 2 <= unbatched_net.round_trips

    batched_wal = batched_system.registry.wal
    unbatched_wal = unbatched_system.registry.wal
    assert batched_wal.forces == 3
    assert batched_wal.forces_coalesced == len(ROWS) - 3
    assert unbatched_wal.forces == len(ROWS)
    assert unbatched_wal.forces_coalesced == 0


def test_batched_executemany_stops_at_error_like_unbatched():
    system, _ = _run_executemany(4)
    connection = system.phoenix.connect(system.DSN)
    cursor = connection.cursor()
    cursor.set_attr(StatementAttr.BATCH_SIZE, 4)
    with pytest.raises(IntegrityError):
        # 1 already exists: the batch aborts at the failing row
        cursor.executemany(
            "INSERT INTO t VALUES (?, ?)", [[100, 1.0], [1, 9.9], [101, 1.0]]
        )
    rows = dict(_table_rows(system))
    assert 100 in rows  # prefix landed
    assert 101 not in rows  # suffix after the error never ran
    # the failed wrapper transaction was rolled back: the cursor still works
    cursor.execute("INSERT INTO t VALUES (102, 1.0)")
    assert cursor.rowcount == 1
    connection.close()


# ------------------------------------------------------- partial-batch replay


@pytest.mark.parametrize("executed", [0, 1, 2, 3])
def test_crash_mid_batch_recovers_exactly_once(executed):
    """Kill the server after ``executed`` sub-statements of a 3-statement
    batch (3 = all ran, group force never issued).  Recovery must resolve
    the partial batch and land every row exactly once."""
    system = repro.make_system()
    _create_table(system)
    connection = system.phoenix.connect(system.DSN)
    _auto_restart(system, connection)
    cursor = connection.cursor()
    cursor.set_attr(StatementAttr.BATCH_SIZE, 3)
    system.faults.schedule(
        FaultKind.CRASH_MID_BATCH, matcher=_is_batch, arg=min(executed, 3)
    )
    cursor.executemany("INSERT INTO t VALUES (?, ?)", [[k, float(k)] for k in (1, 2, 3)])
    assert cursor.rowcount == 3
    assert _table_rows(system) == [(1, 1.0), (2, 2.0), (3, 3.0)]
    assert connection.stats.recoveries >= 1
    connection.close()


def test_torn_wal_tail_under_group_force_recovers():
    """The one-shot storage fault armed at a batch request fires at the
    group force — the batch's single device write tears.  Nothing the
    client observed is lost (no reply preceded the force), and resubmission
    lands every statement exactly once."""
    system = repro.make_system()
    _create_table(system)
    connection = system.phoenix.connect(system.DSN)
    _auto_restart(system, connection)
    cursor = connection.cursor()
    cursor.set_attr(StatementAttr.BATCH_SIZE, 3)
    system.faults.schedule(FaultKind.TORN_WAL_TAIL, matcher=_is_batch)
    cursor.executemany("INSERT INTO t VALUES (?, ?)", [[k, float(k)] for k in (1, 2, 3)])
    assert cursor.rowcount == 3
    assert _table_rows(system) == [(1, 1.0), (2, 2.0), (3, 3.0)]
    connection.close()


# --------------------------------------------------------- satellite: fetchall


def test_phoenix_fetchall_honors_fetch_block_size(system):
    from repro.obs import Tracer, use_tracer

    _create_table(system)
    loader = system.server.connect(user="loader")
    values = ", ".join(f"({k}, {k}.5)" for k in range(1, 31))
    system.server.execute(loader, f"INSERT INTO t VALUES {values}")
    system.server.disconnect(loader)

    with use_tracer(Tracer(enabled=True)) as tracer:
        connection = system.phoenix.connect(system.DSN)
        cursor = connection.cursor()
        cursor.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
        cursor.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 10)
        cursor.execute("SELECT k, v FROM t ORDER BY k")
        rows = cursor.fetchall()
        connection.close()
    assert len(rows) == 30
    # fetchall drains in FETCH_BLOCK_SIZE chunks, not a hardcoded 1024 gulp
    asked = [
        r["attrs"]["n"]
        for r in tracer.records
        if r.get("kind") == "span" and r["name"] == "client.fetch"
    ]
    assert asked and set(asked) == {10}


def test_plain_fetchall_honors_fetch_block_size(system):
    _create_table(system)
    loader = system.server.connect(user="loader")
    values = ", ".join(f"({k}, {k}.5)" for k in range(1, 31))
    system.server.execute(loader, f"INSERT INTO t VALUES {values}")
    system.server.disconnect(loader)

    connection = system.plain.connect(system.DSN)
    statement = connection.cursor()
    statement.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    statement.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 10)
    network = system.registry.network
    statement.execute("SELECT k, v FROM t ORDER BY k")
    before = network.by_request_type["FetchRequest"]
    rows = statement.fetchall()
    fetches = network.by_request_type["FetchRequest"] - before
    assert len(rows) == 30
    assert fetches >= 3
    connection.close()


# ------------------------------------------------ satellite: rowcount summing


def test_plain_executemany_rowcount_accumulates(system):
    _create_table(system)
    connection = system.plain.connect(system.DSN)
    statement = connection.cursor()
    statement.executemany("INSERT INTO t VALUES (?, ?)", [[k, 1.0] for k in (1, 2, 3)])
    assert statement.rowcount == 3
    # a 0-row UPDATE contributes 0 — it is not dropped, and not -1
    statement.executemany(
        "UPDATE t SET v = ? WHERE k = ?", [[9.0, 1], [9.0, 99], [9.0, 2]]
    )
    assert statement.rowcount == 2
    connection.close()


def test_phoenix_executemany_rowcount_accumulates_unbatched(system):
    _create_table(system)
    connection = system.phoenix.connect(system.DSN)
    cursor = connection.cursor()
    cursor.set_attr(StatementAttr.BATCH_SIZE, 1)  # statement-at-a-time path
    cursor.executemany("INSERT INTO t VALUES (?, ?)", [[k, 1.0] for k in (1, 2, 3)])
    assert cursor.rowcount == 3
    cursor.executemany(
        "UPDATE t SET v = ? WHERE k = ?", [[9.0, 1], [9.0, 99], [9.0, 2]]
    )
    assert cursor.rowcount == 2
    connection.close()


# ----------------------------------------------------------- metrics surfaces


def test_registry_snapshot_exposes_wal_and_batch_counters():
    system, _cursor = _run_executemany(3)
    snapshot = system.registry.snapshot()
    wal = snapshot["wal"]
    assert wal["forces"] == 3
    assert wal["group_forces"] == 3
    assert wal["forces_coalesced"] == len(ROWS) - 3
    network = snapshot["network"]
    assert network["batch_requests"] == 3
    assert network["requests_batched"] == len(ROWS)
    system.registry.reset()
    after = system.registry.snapshot()
    assert after["wal"]["forces"] == 0
    assert after["network"]["batch_requests"] == 0


def test_wal_counters_survive_crash_restart():
    system, _cursor = _run_executemany(3)
    before = system.registry.wal.forces
    system.server.crash()
    system.endpoint.restart_server()
    assert system.registry.wal.forces >= before  # cumulative, never zeroed


# ------------------------------------------------------- drain x batch straddle


def test_inflight_batch_group_forces_before_drain_swap():
    """A batch that holds the engine mutex when a planned restart begins
    runs to completion — group force included — before the engine swap,
    never split by it."""
    import threading
    import time

    system = repro.make_system()
    _create_table(system)
    connection = system.phoenix.connect(system.DSN)
    _auto_restart(system, connection)
    cursor = connection.cursor()
    cursor.set_attr(StatementAttr.BATCH_SIZE, 3)

    entered, release = threading.Event(), threading.Event()
    original = system.server.execute_batch

    def slow_batch(session_id, sql, rows, **kwargs):
        with system.server._engine_mutex:
            entered.set()
            release.wait(5.0)
            return original(session_id, sql, rows, **kwargs)

    system.server.execute_batch = slow_batch
    failures: list[str] = []

    def run_batch() -> None:
        try:
            cursor.executemany(
                "INSERT INTO t VALUES (?, ?)", [[k, float(k)] for k in (1, 2, 3)]
            )
        except Exception as exc:  # noqa: BLE001 — reported via the assertion
            failures.append(f"{type(exc).__name__}: {exc}")

    client = threading.Thread(target=run_batch)
    client.start()
    assert entered.wait(5.0)
    drainer = threading.Thread(target=system.server.drain_and_restart)
    drainer.start()
    time.sleep(0.05)
    # the swap waits for the batch that holds the engine mutex
    assert drainer.is_alive()
    assert system.registry.server.swaps_completed == 0
    group_forces_before = system.registry.wal.group_forces

    release.set()
    client.join(5.0)
    drainer.join(5.0)
    assert not client.is_alive() and not drainer.is_alive()
    assert failures == []
    assert cursor.rowcount == 3
    # the batch's one group force happened (before the checkpoint), and the
    # swapped-in engine carries every row exactly once
    assert system.registry.wal.group_forces == group_forces_before + 1
    assert _table_rows(system) == [(1, 1.0), (2, 2.0), (3, 3.0)]
    connection.close()


def test_batch_parked_behind_drain_resolves_exactly_once_after_swap():
    """A batch submitted while a swap holds the engine mutex waits for it,
    runs against the swapped-in engine, loses its session, and is resolved
    by ``resolve_batch`` on recovery — every statement lands exactly once,
    none twice, none dropped."""
    import threading
    import time

    system = repro.make_system()
    _create_table(system)
    batcher = system.phoenix.connect(system.DSN)
    _auto_restart(system, batcher)
    cursor = batcher.cursor()
    cursor.set_attr(StatementAttr.BATCH_SIZE, 3)

    # the swap's checkpoint holds it open inside the engine mutex
    entered, release = threading.Event(), threading.Event()
    database = system.server.database
    checkpoint = database.checkpoint

    def held_checkpoint():
        entered.set()
        release.wait(5.0)
        return checkpoint()

    database.checkpoint = held_checkpoint
    failures: list[str] = []

    def run_batch() -> None:
        try:
            cursor.executemany(
                "INSERT INTO t VALUES (?, ?)", [[k, float(k)] for k in (1, 2, 3)]
            )
        except Exception as exc:  # noqa: BLE001
            failures.append(f"batch {type(exc).__name__}: {exc}")

    drainer = threading.Thread(target=system.server.drain_and_restart)
    drainer.start()
    assert entered.wait(5.0)

    dispatched = system.registry.dispatch.dispatched
    batch_thread = threading.Thread(target=run_batch)
    batch_thread.start()
    deadline = time.monotonic() + 5.0
    while system.registry.dispatch.dispatched == dispatched:
        assert time.monotonic() < deadline, "the batch never reached the server"
        time.sleep(0.001)

    release.set()
    for thread in (drainer, batch_thread):
        thread.join(5.0)
        assert not thread.is_alive()
    assert failures == []
    assert cursor.rowcount == 3
    assert batcher.stats.recoveries >= 1  # the parked batch rode through
    assert _table_rows(system) == [(1, 1.0), (2, 2.0), (3, 3.0)]
    batcher.close()


# ------------------------------------------------------------ chaos batch sweep


def test_batch_fault_sweep_is_green():
    explorer = ChaosExplorer(seed=3)
    assert explorer.golden.batch_requests  # the trace exercises wire batching
    report = explorer.sweep(BATCH_FAULTS)
    assert report.runs == sum(size + 1 for _i, size in explorer.golden.batch_requests)
    assert report.recovered_fraction == 1.0
    assert report.total_recoveries >= report.runs - len(explorer.golden.batch_requests)
