"""The chaos workload trace and its runner.

A :class:`ChaosTrace` is one deterministic application script per client.
:func:`probe_dml_trace` is the one-client trace covering every Phoenix
mechanism the paper describes: SET options, wrapped DDL/DML, materialized
default result sets with partial fetches, a keyset cursor, temp-object
redirection, explicit transactions (committed and rolled back), batched
executemany, and clean close; :func:`repro.chaos.multi.multi_client_trace`
is its k-client sibling.  :func:`run_trace` executes a trace against a
fresh :func:`repro.make_system` deployment — optionally under a fault
schedule — and returns a :class:`TraceRecord`:

* per client (:class:`ClientRecord`): ``observations`` — everything the
  *application* saw, in order (row blocks at their delivered offsets, DML
  rowcounts, commit acknowledgements); ``status_rows`` — its Phoenix status
  table read server-side (bypassing the wire, so the read cannot meet a
  scheduled fault); whether it completed, its recoveries and their phases;
* ``fingerprints`` — each user table's full content, read server-side and
  canonically sorted;
* post-close hygiene: orphaned sessions/cursors and leftover ``phx_*``
  objects on the server.

The oracle (:mod:`repro.chaos.oracle`) compares a faulted run's record
against the fault-free golden record, client by client, then field by field.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

import repro
from repro import errors
from repro.net.faults import FaultKind
from repro.obs.tracer import Tracer, use_tracer
from repro.odbc.constants import DEFAULT_FETCH_BLOCK, CursorType, StatementAttr
from repro.sql import ast

__all__ = [
    "ChaosTrace",
    "ClientRecord",
    "Step",
    "TraceRecord",
    "operator_restart",
    "probe_dml_trace",
    "run_trace",
]


@dataclass(frozen=True)
class Step:
    """One application action.  ``op`` selects the shape:

    * ``set`` — ``cursor.execute("SET name value")``
    * ``ddl`` / ``dml`` — ``cursor.execute(sql)`` (autocommit, wrapped)
    * ``query`` — execute ``sql`` then ``fetchmany(n)`` for each n in
      ``fetches`` (a short list leaves the delivery open mid-result); a
      ``block`` smaller than the result has it materialized and shipped a
      block at a time
    * ``cursor_query`` — same, through a keyset server cursor
    * ``begin`` / ``commit`` / ``rollback`` — explicit transaction control
    * ``txn`` — ``cursor.execute(sql)`` inside the open transaction
    * ``executemany`` — ``cursor.executemany(sql, rows)`` with the wire
      batch size set to ``batch_size`` (exercises BatchExecuteRequest +
      WAL group commit, including partial-batch replay under faults)
    * ``barrier`` — wait until every client of the trace reaches it (with
      one client it never waits)
    """

    op: str
    sql: str = ""
    name: str = ""
    value: Any = None
    fetches: tuple[int, ...] = ()
    rows: tuple[tuple, ...] = ()
    batch_size: int = 0
    #: the cursor's fetch block for a query (0: the driver's default)
    block: int = 0


@dataclass(frozen=True)
class ChaosTrace:
    #: one step script per client; each runs on its own Phoenix connection
    clients: tuple[tuple[Step, ...], ...]
    #: user tables to fingerprint (must survive the trace)
    tables: tuple[str, ...]
    #: statements run on a direct server session before any client starts
    setup: tuple[str, ...] = ()


def probe_dml_trace() -> ChaosTrace:
    """The canonical probe/DML trace the chaos sweep explores."""
    return ChaosTrace(
        clients=((
            Step("set", name="lock_timeout", value=1000),
            Step("ddl", sql="CREATE TABLE accounts (id INT PRIMARY KEY, balance FLOAT)"),
            Step(
                "dml",
                sql="INSERT INTO accounts VALUES "
                "(1, 100.0), (2, 200.0), (3, 300.0), (4, 400.0)",
            ),
            Step(
                "query",
                sql="SELECT id, balance FROM accounts ORDER BY id",
                fetches=(2, 10),
                block=2,
            ),
            Step("cursor_query", sql="SELECT id, balance FROM accounts", fetches=(2, 2, 10)),
            Step("dml", sql="UPDATE accounts SET balance = balance + 5 WHERE id <= 2"),
            Step("ddl", sql="CREATE TABLE #scratch (k INT PRIMARY KEY, note VARCHAR(10))"),
            Step("dml", sql="INSERT INTO #scratch VALUES (1, 'a'), (2, 'b')"),
            Step("query", sql="SELECT k, note FROM #scratch ORDER BY k", fetches=(10,)),
            Step("begin"),
            Step("txn", sql="UPDATE accounts SET balance = balance - 25 WHERE id = 1"),
            Step("txn", sql="UPDATE accounts SET balance = balance + 25 WHERE id = 3"),
            Step("commit"),
            Step("begin"),
            Step("txn", sql="UPDATE accounts SET balance = 0 WHERE id = 4"),
            Step("rollback"),
            Step("dml", sql="DELETE FROM accounts WHERE id = 2"),
            Step("ddl", sql="DROP TABLE #scratch"),
            Step("query", sql="SELECT sum(balance) FROM accounts", fetches=(1,)),
            Step(
                "query",
                sql="SELECT id, balance FROM accounts ORDER BY id",
                fetches=(1, 2, 5),
                block=2,
            ),
            # batched-executemany segment: 6 wrapped INSERTs in 2 wire
            # batches of 3 — mid-batch faults land between sub-statements,
            # and a storage fault scheduled at a batch request tears the WAL
            # tail under the *group* force
            Step(
                "executemany",
                sql="INSERT INTO accounts VALUES (?, ?)",
                rows=(
                    (10, 10.0),
                    (11, 11.0),
                    (12, 12.0),
                    (13, 13.0),
                    (14, 14.0),
                    (15, 15.0),
                ),
                batch_size=3,
            ),
            Step(
                "query",
                sql="SELECT count(*), sum(balance) FROM accounts",
                fetches=(1,),
            ),
        ),),
        tables=("accounts",),
    )


@dataclass
class ClientRecord:
    """One client's story: what its application saw, and its recoveries."""

    #: ordered application-visible events: ("rows", step, offset, rows),
    #: ("dml", step, rowcount), ("commit", step), ("rollback", step), ...
    observations: list[tuple] = field(default_factory=list)
    #: (stmt_seq, n_rows) rows of the client's Phoenix status table, read
    #: server-side; None = the table did not exist
    status_rows: frozenset | None = None
    completed: bool = False
    error: str = ""
    recoveries: int = 0
    deadlock_retries: int = 0
    virtual_session_seconds: float = 0.0
    sql_state_seconds: float = 0.0


@dataclass
class TraceRecord:
    """Everything one run of a trace produced — the oracle's raw material."""

    #: one record per client of the trace, in trace order
    clients: list[ClientRecord] = field(default_factory=list)
    #: table name -> canonically sorted tuple of its rows (server-side read)
    fingerprints: dict[str, tuple] = field(default_factory=dict)
    #: wire requests the fault injector inspected over the whole run
    requests_seen: int = 0
    #: (request_index, sub-statement count) of every BatchExecuteRequest —
    #: the explorer sweeps CRASH_MID_BATCH over each interior position
    batch_requests: tuple[tuple[int, int], ...] = ()
    #: fault kinds that actually fired (names, in firing order)
    fired: tuple[str, ...] = ()
    orphan_sessions: int = 0
    orphan_cursors: int = 0
    leftover_tables: tuple[str, ...] = ()
    #: (step_index, ts) moments pinned between steps while the run executed
    #: (one-client traces only)
    time_travel_cuts: tuple = ()
    #: end-of-run ``AS OF`` replay failures: each pinned moment must
    #: reproduce the table fingerprints captured when it was pinned
    time_travel_violations: tuple[str, ...] = ()

    @property
    def completed(self) -> bool:
        return all(client.completed for client in self.clients)

    @property
    def error(self) -> str:
        return "; ".join(
            f"client {i}: {client.error}" for i, client in enumerate(self.clients) if client.error
        )

    @property
    def recoveries(self) -> int:
        return sum(client.recoveries for client in self.clients)

    @property
    def observations(self) -> list[list[tuple]]:
        return [client.observations for client in self.clients]

    @property
    def status_rows(self) -> list[frozenset | None]:
        return [client.status_rows for client in self.clients]


def operator_restart(system: "repro.System") -> Callable[[float], None]:
    """A ``PhoenixConfig.sleep`` hook standing in for the operator or
    watchdog the paper assumes: recovery "waits" by restarting the crashed
    server, so downtime is compressed to zero.  Locked, so concurrent
    recoveries do not double-restart and wipe the sessions the first
    restart's recoveries just rebuilt."""
    restarting = threading.Lock()

    def sleep(_seconds: float) -> None:
        with restarting:
            if not system.server.up:
                system.endpoint.restart_server()

    return sleep


def run_trace(
    trace: ChaosTrace,
    schedule: tuple[tuple, ...] = (),
    *,
    victim: int | None = None,
    tracer: Tracer | None = None,
    transport: str = "inprocess",
) -> TraceRecord:
    """Run ``trace`` on a fresh system under ``schedule`` and record it.

    Every client of the trace runs its steps on its own Phoenix connection
    and thread; the trace's ``setup`` runs first on a direct server
    session.  ``schedule`` is a tuple of ``(request_index, FaultKind)``
    pairs — or ``(request_index, FaultKind, arg)`` triples for kinds that
    take an argument (CRASH_MID_BATCH's sub-statement position); each
    becomes a one-shot fault armed before the first request, so index *i*
    fires on the i-th wire request (0-based), whichever client sends it.
    The recovery sleep is :func:`operator_restart`: recovery waits out the
    outage and proceeds.

    ``victim`` arms a session-targeted crash when the clients pass the
    trace's ``barrier`` step: the server dies when client ``victim``'s
    COMMIT arrives, and no other client takes a step past the barrier
    until that COMMIT has returned (crash and recovery included), so every
    other client holds its open transaction through the crash.

    Pass a ``tracer`` (:class:`repro.obs.Tracer`) to capture the whole run
    as a span trace — it is installed process-wide for the run's duration
    and restored after; read the records off ``tracer.records`` or render
    them with :func:`repro.obs.render_tree`.

    ``transport="tcp"`` runs the identical trace over real sockets: the
    fresh system gets an asyncio TCP listener on a free port and the
    Phoenix stack rides :class:`~repro.net.tcp.TcpTransport`.  The fault
    injector sits server-side behind the listener, so the same schedule
    fires at the same request indices — the parity tests assert the record
    (fingerprints included) is byte-identical to the in-process run.
    """
    if tracer is not None:
        with use_tracer(tracer):
            return _run_trace(trace, schedule, victim, transport)
    return _run_trace(trace, schedule, victim, transport)


def _run_trace(
    trace: ChaosTrace, schedule: tuple[tuple, ...], victim: int | None, transport: str
) -> TraceRecord:
    system = repro.make_system(listen="127.0.0.1:0" if transport == "tcp" else None)
    try:
        return _run_trace_on(system, trace, schedule, victim)
    finally:
        system.close()  # stops the TCP listener; no-op in-process


def _run_trace_on(
    system, trace: ChaosTrace, schedule: tuple[tuple, ...], victim: int | None
) -> TraceRecord:
    config = system.phoenix.config
    config.sleep = operator_restart(system)
    # concurrent clients' batches lose no-wait lock conflicts to each
    # other: give their resubmission a deep retry budget
    config.max_deadlock_retries = 64
    for entry in schedule:
        after, kind = entry[0], entry[1]
        arg = entry[2] if len(entry) > 2 else None
        system.faults.schedule(kind, after=after, arg=arg)
    # set-up runs off the wire, immune to the fault schedule
    loader = system.server.connect("chaos-loader")
    for sql in trace.setup:
        system.server.execute(loader, sql)
    system.server.disconnect(loader)

    clients = len(trace.clients)
    record = TraceRecord(clients=[ClientRecord() for _ in range(clients)])
    connections: list = [None] * clients
    # a stamp taken between one client's steps could race another's commit
    tt_cuts: list[tuple[int, float, dict[str, tuple]]] | None = [] if clients == 1 else None
    victim_committed = threading.Event()

    def arm_victim() -> None:
        if victim is not None and connections[victim] is not None:
            system.faults.schedule(
                FaultKind.CRASH_BEFORE_EXECUTE,
                session_id=connections[victim].app.session_id,
                matcher=lambda request: "COMMIT" in getattr(request, "sql", ""),
            )

    barrier = threading.Barrier(clients, action=arm_victim, timeout=60)

    def run_client(i: int) -> None:
        client = record.clients[i]
        try:
            connections[i] = connection = system.phoenix.connect(system.DSN)
            cursor = connection.cursor()
            for index, step in enumerate(trace.clients[i]):
                if step.op == "barrier":
                    barrier.wait()
                    if victim not in (None, i):
                        victim_committed.wait(timeout=60)
                    continue
                _run_step(client, connection, cursor, index, step)
                if i == victim and step.op == "commit":
                    victim_committed.set()
                if tt_cuts is not None:
                    _pin_time_travel_cut(system, connection, trace, index, tt_cuts)
            client.completed = True
        except Exception as exc:  # the oracle reports it; nothing may escape
            client.error = f"{type(exc).__name__}: {exc}"
            barrier.abort()  # a client that died must not strand the rest
        finally:
            if i == victim:
                victim_committed.set()

    threads = [
        threading.Thread(target=run_client, args=(i,), name=f"chaos-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # --- server-side ground truth, read off the wire (fault-immune) --------
    _ensure_up(system)
    for client, connection in zip(record.clients, connections):
        if connection is not None:
            client.status_rows = _read_status(system, connection.names.status_table)
    for table in trace.tables:
        record.fingerprints[table] = _fingerprint(system, table)
    if tt_cuts is not None:
        record.time_travel_cuts = tuple((index, ts) for index, ts, _ in tt_cuts)
        record.time_travel_violations = tuple(_replay_time_travel_cuts(system, tt_cuts))

    # --- clean close, then post-close hygiene ------------------------------
    for client, connection in zip(record.clients, connections):
        if connection is None:
            continue
        try:
            connection.close()
        except Exception as exc:
            if client.completed:
                client.completed = False
                client.error = f"close failed: {type(exc).__name__}: {exc}"
        stats = connection.stats
        client.recoveries = stats.recoveries
        client.deadlock_retries = stats.deadlock_retries
        client.virtual_session_seconds = stats.virtual_session_seconds_total
        client.sql_state_seconds = stats.sql_state_seconds_total
    _ensure_up(system)
    record.orphan_sessions = len(system.server.sessions)
    record.orphan_cursors = sum(
        len(s.cursors) for s in system.server.sessions.values()
    )
    record.leftover_tables = tuple(
        name for name in system.server.table_names() if name.startswith("phx_")
    )
    record.requests_seen = system.faults.requests_seen
    record.batch_requests = tuple(system.faults.batch_requests)
    record.fired = tuple(kind.value for kind in system.faults.fired)
    return record


def _run_step(record, connection, cursor, index, step) -> None:
    if step.op == "set":
        cursor.execute(ast.SetOption(step.name, step.value).sql())
        record.observations.append(("set", index))
        return
    if step.op == "begin":
        connection.begin()
        record.observations.append(("begin", index))
        return
    if step.op == "commit":
        connection.commit()
        record.observations.append(("commit", index))
        return
    if step.op == "rollback":
        connection.rollback()
        record.observations.append(("rollback", index))
        return
    if step.op in ("query", "cursor_query"):
        if step.op == "cursor_query":
            cursor.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
        else:
            cursor.set_attr(StatementAttr.CURSOR_TYPE, CursorType.FORWARD_ONLY)
        cursor.set_attr(StatementAttr.FETCH_BLOCK_SIZE, step.block or DEFAULT_FETCH_BLOCK)
        cursor.execute(step.sql)
        offset = 0
        for n in step.fetches:
            rows = cursor.fetchmany(n)
            record.observations.append(("rows", index, offset, tuple(rows)))
            offset += len(rows)
        return
    if step.op == "executemany":
        cursor.set_attr(StatementAttr.CURSOR_TYPE, CursorType.FORWARD_ONLY)
        if step.batch_size:
            cursor.set_attr(StatementAttr.BATCH_SIZE, step.batch_size)
        cursor.executemany(step.sql, [list(row) for row in step.rows])
        record.observations.append(("executemany", index, cursor.rowcount))
        return
    # ddl / dml / txn: one statement through the cursor
    cursor.set_attr(StatementAttr.CURSOR_TYPE, CursorType.FORWARD_ONLY)
    cursor.execute(step.sql)
    record.observations.append((step.op, index, cursor.rowcount))


def _pin_time_travel_cut(system, connection, trace, index, cuts) -> None:
    """Stamp a moment strictly between this step's commits and the next
    step's (the commit clock is shared and strictly monotonic, so the stamp
    is a guaranteed-valid cut) and fingerprint every user table server-side.
    At the end of the run ``AS OF <stamp>`` must reproduce each fingerprint
    exactly — the log is the time machine (docs/TIME_TRAVEL.md).  Best
    effort: a server that is down pins nothing, and neither
    does a step inside an open application transaction — the live
    fingerprint would see that transaction's uncommitted rows, which no
    cut may ever show (``AS OF`` reads committed state only)."""
    if not system.server.up:
        return
    if connection.in_transaction:
        return
    try:
        ts = system.server.time_travel.clock.now()
        fps = {table: _fingerprint(system, table) for table in trace.tables}
    except errors.Error:
        return  # crashed under a fault: no cut to pin
    cuts.append((index, ts, fps))


def _replay_time_travel_cuts(system, cuts) -> list[str]:
    """End-of-run check: every pinned moment must still reconstruct to the
    fingerprints captured live — across every crash, recovery, checkpoint
    (which only moves the redo start: the log keeps every commit), and
    restore *to now* the run performed in between."""
    violations: list[str] = []
    for index, ts, fps in cuts:
        for table, expected in fps.items():
            session_id = _server_session(system)
            try:
                result = system.server.execute(
                    session_id, f"SELECT * FROM {table} AS OF {ts!r}"
                )
                actual = tuple(sorted(result.rows))
            except errors.CatalogError:
                actual = ("<missing>",)
            except errors.Error as exc:
                violations.append(
                    f"cut after step {index} not reconstructible for "
                    f"{table}: {type(exc).__name__}: {exc}"
                )
                continue
            finally:
                system.server.disconnect(session_id)
            if actual != expected:
                violations.append(
                    f"cut after step {index} diverged for {table}: "
                    f"expected {len(expected)} rows, got {len(actual)}"
                )
    return violations


def _ensure_up(system) -> None:
    if not system.server.up:
        system.endpoint.restart_server()


def _server_session(system):
    return system.server.connect("chaos-oracle")


def _read_status(system, status_table: str) -> frozenset | None:
    """The status table's rows, read through a direct server session (no
    wire, no faults).  None when the table does not exist."""
    session_id = _server_session(system)
    try:
        result = system.server.execute(
            session_id, f"SELECT stmt_seq, n_rows FROM {status_table}"
        )
        return frozenset(result.rows)
    except errors.CatalogError:
        return None
    finally:
        system.server.disconnect(session_id)


def _fingerprint(system, table: str) -> tuple:
    """Canonical content fingerprint of ``table`` (sorted row tuples);
    ("<missing>",) when the table does not exist."""
    session_id = _server_session(system)
    try:
        result = system.server.execute(session_id, f"SELECT * FROM {table}")
        return tuple(sorted(result.rows))
    except errors.CatalogError:
        return ("<missing>",)
    finally:
        system.server.disconnect(session_id)
