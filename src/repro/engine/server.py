"""The database server: sessions, SQL execution, crash and restart.

:class:`DatabaseServer` is what sits on the far side of the wire.  It owns

* a :class:`~repro.engine.database.Database` (volatile object over stable
  storage),
* the live :class:`~repro.engine.session.Session` objects,

and exposes the operations the wire protocol maps onto: ``connect`` (with
``disconnect_sessions`` for the sessions a connect reaps), ``execute``
(which can open a server cursor already ``advance``-d), ``fetch``,
``close_cursor``, ``disconnect``.

Fault injection drives :meth:`crash` — which throws away every volatile
object exactly as a process kill would, and which a failed log write calls
itself (the engine is fail-stop) — and :meth:`restart`, which runs restart
recovery from stable storage.  Committed tables come back; sessions,
temp tables, and open cursors do not.  That asymmetry is the entire reason
Phoenix/ODBC exists.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any

from repro.errors import (
    Error,
    OperationalError,
    ProgrammingError,
    ServerCrashedError,
    SessionLostError,
)
from repro.engine.cursors import CursorType, open_cursor
from repro.engine.database import Database
from repro.engine.dispatch import SessionDispatcher
from repro.engine.executor import Executor
from repro.engine.locks import DEFAULT_SERVER_WAIT, LockStats
from repro.engine.plancache import PARSE_CACHE_CAPACITY, EngineMetrics, ExecutorStats, LRUCache
from repro.engine.recovery import RecoveryReport, recover
from repro.engine.results import StatementResult
from repro.engine.session import Session
from repro.engine.storage import InMemoryStableStorage, StableStorage
from repro.engine.timetravel import TimeTravelManager
from repro.engine.wal import WalStats
from repro.obs.metrics import CounterSet, MetricsRegistry
from repro.obs.tracer import get_tracer
from repro.sql import ast, parse_script

__all__ = [
    "DatabaseServer",
    "ServerStats",
    "DrainStats",
    "RestoreReport",
]


class ServerStats(CounterSet):
    """Counters for the server object — the ``activity`` slot of the
    registry.  Cumulative across crashes/restarts: they describe the
    simulation, not server state."""

    statements: int = 0
    rows_returned: int = 0
    connects: int = 0
    crashes: int = 0
    restarts: int = 0


class DrainStats(CounterSet):
    """Planned-restart counters — the ``server`` slot of the registry."""

    #: completed engine swaps (``drain_and_restart`` and ``restore_to``)
    swaps_completed: int = 0
    #: lock waiters a swap woke on its dead engine (their statements abort)
    waiters_evicted: int = 0
    sessions_ridden_through: int = 0
    max_pause_seconds: float = 0.0

    def merge(self, other: "DrainStats") -> None:
        longest = max(self.max_pause_seconds, other.max_pause_seconds)
        super().merge(other)
        self.max_pause_seconds = longest  # a high-water mark, not a sum


@dataclass
class RestoreReport:
    """What one :meth:`DatabaseServer.restore_to` did."""

    ts: float
    cut_lsn: int
    cut_end: int
    #: committed transactions whose effects the restore erased (post-cut)
    commits_discarded: int = 0
    records_replayed: int = 0
    tables: int = 0
    #: Phoenix sessions disconnected by the swap (they ride through on the
    #: ordinary recovery path, exactly like a planned restart)
    sessions_ridden: int = 0
    seconds: float = 0.0


class DatabaseServer:
    """A single-node SQL server over a stable-storage device."""

    def __init__(
        self,
        storage: StableStorage | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ):
        self.storage = storage if storage is not None else InMemoryStableStorage()
        #: every counter set this server feeds lives in the registry, not in
        #: the volatile engine: one object per slot is threaded through
        #: every database incarnation, which is what makes the counters
        #: cumulative across crashes (contract: repro.obs.metrics)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.wal_stats: WalStats = self.registry.wal
        self.lock_stats: LockStats = self.registry.locks
        self.drain_stats: DrainStats = self.registry.server
        self.stats: ServerStats = self.registry.activity
        #: parse/plan cache counters
        self.engine_metrics: EngineMetrics = self.registry.engine
        #: executor access-path counters
        self.executor_stats: ExecutorStats = self.registry.executor
        self.database: Database | None = None
        self.sessions: dict[int, Session] = {}
        self._executors: dict[int, Executor] = {}
        #: SQL text → parsed statements; volatile (None while the server is
        #: down, rebuilt cold on restart)
        self._parse_cache: LRUCache | None = None
        self.last_recovery: RecoveryReport | None = None
        self.up = False
        #: Engine-wide mutex: every public operation runs under it, so the
        #: worker threads of the dispatch layer interleave at *statement*
        #: granularity while engine structures (catalog, WAL, sessions) see
        #: single-threaded access.  It is an RLock, and the lock manager's
        #: condition variable is built over it — a session waiting for a
        #: table lock releases the engine so other sessions can run and
        #: eventually commit (see :mod:`repro.engine.locks`).  The mutex
        #: survives crashes: it guards the *server*, not one database
        #: incarnation.  A planned swap holds it from start to finish, so
        #: it is the whole of a planned restart's barrier.
        self._engine_mutex = threading.RLock()
        #: per-session FIFO dispatch over a dynamic worker pool — the wire
        #: endpoint routes every request through it
        self.dispatcher = SessionDispatcher(stats=self.registry.dispatch)
        #: time-travel surface (AS OF snapshots + restore_to) — one manager
        #: per server, spanning every database incarnation like the stats
        #: objects, so its commit clock stays monotonic across restarts
        self.time_travel = TimeTravelManager(
            self.storage,
            stats=self.registry.timetravel,
            engine_metrics=self.engine_metrics,
        )
        self._boot()

    def _boot(self) -> None:
        self.database, self.last_recovery = recover(
            self.storage, wal_stats=self.wal_stats, lock_stats=self.lock_stats
        )
        self._install(self.database)
        self._parse_cache = LRUCache(PARSE_CACHE_CAPACITY)
        # the commit clock starts past every stamp in history; the commit
        # index loads from the log when a reader first asks for it
        self.time_travel.reset(self.last_recovery.last_commit_ts)
        self.up = True

    def _install(self, database: Database) -> None:
        """Wire an engine incarnation into this server."""
        # the lock manager waits on the engine mutex so blocked statements
        # release the engine, and the server grants waiters a real budget
        # (standalone LockManagers keep the historical fail-fast default)
        database.locks.use_mutex(self._engine_mutex)
        database.locks.default_timeout = DEFAULT_SERVER_WAIT
        # fail-stop: a failed log write crashes the server inside the mutex
        # hold that met it, so no other session commits after the torn frame.
        # Weakly: a database must not keep its server alive, or a closed
        # system would wait for the cycle collector to be freed
        server = weakref.ref(self)
        database.wal.on_fault = lambda: server().crash()
        # the WAL stamps commits with time travel's (restart-spanning) clock
        # and publishes them to its index
        self.time_travel.attach(database)

    # ----------------------------------------------------------- lifecycle

    def _tear_down(self) -> int:
        """End the engine incarnation — the one teardown of :meth:`crash`,
        a planned swap and :meth:`shutdown`.

        Marking the database dead and invalidating its lock manager wakes
        every statement asleep in a lock wait (the only statements that run
        without holding the engine mutex) into
        :class:`~repro.errors.ServerCrashedError`, and tells their cleanup
        paths that no undo — and no WAL write — may run.  Returns how many
        waiters it evicted.  :attr:`up` is the caller's: a crash and a
        shutdown clear it, a swap keeps it set.
        """
        evicted = 0
        if self.database is not None:
            self.database.mark_dead()
            evicted = self.database.locks.invalidate()
        self.database = None  # and with it its plan and procedure caches
        self.sessions.clear()
        self._executors.clear()
        self._parse_cache = None  # caches are volatile: a restart starts cold
        return evicted

    def crash(self) -> None:
        """Kill the server: all volatile state is gone, stable storage stays."""
        with self._engine_mutex:
            self.up = False
            self._tear_down()
            # a dead server has no pending device fault — the injected torn
            # write / failed force models the crash moment itself
            self.storage.clear_append_fault()
            self.stats.crashes += 1
            get_tracer().event("server.crash")

    def restart(self) -> RecoveryReport:
        """Run restart recovery and come back up (with zero sessions)."""
        with self._engine_mutex:
            if self.up:
                raise OperationalError("server is already up")
            with get_tracer().span("server.restart"):
                self._boot()
            self.stats.restarts += 1
            return self.last_recovery

    # ------------------------------------------------------ planned restart

    def drain_and_restart(self) -> RecoveryReport:
        """Planned restart: end every session, checkpoint, and swap in a
        fresh engine instance — without ever going *down*."""
        self._planned_swap("server.swap", lambda: self.database.checkpoint())
        return self.last_recovery

    def _planned_swap(self, span: str, rewrite, **attrs):
        """The one choreography of :meth:`drain_and_restart` and
        :meth:`restore_to`; they differ only in ``rewrite``, the step
        between ending the sessions and booting the fresh engine.

        The swap holds the engine mutex from start to finish: it ends every
        session (open transactions abort), runs ``rewrite``, tears the old
        engine down (evicting its lock waiters, as a crash does) and boots
        a fresh one from stable storage.  :attr:`up` stays True throughout,
        so a request that arrives meanwhile is not refused: it waits for
        the mutex, meets the new engine and finds its session gone, and
        each Phoenix client rides through on the paper's recovery path, in
        one connect.  A boot that fails leaves the server down, as a crash.

        The pause it records runs from the call, so it includes the wait
        for a statement that holds the mutex — requests queued behind the
        swap wait that long too.

        Returns ``(rewrite's result, sessions ridden through)``.
        """
        start = time.monotonic()
        with self._engine_mutex, get_tracer().span(span, **attrs):
            self._require_up()
            ridden = len(self.sessions)
            self.end_sessions()
            result = rewrite()
            evicted = self._tear_down()
            try:
                self._boot()
            except BaseException:
                self.crash()
                raise
            self.stats.restarts += 1
            stats = self.drain_stats
            stats.swaps_completed += 1
            stats.waiters_evicted += evicted
            stats.sessions_ridden_through += ridden
            stats.max_pause_seconds = max(
                stats.max_pause_seconds, time.monotonic() - start
            )
        return result, ridden

    # ------------------------------------------------------------ time travel

    def restore_storage_to(self, ts: float | None = None) -> RestoreReport:
        """The destructive half of :meth:`restore_to`: rewrite stable
        storage so its durable state is exactly the cut for ``ts``.

        Order is fail-safe, and a process death at any step boots either the
        state before the restore or the cut:

        1. reconstruct the cut (read-only) — a failure leaves storage as
           it was;
        2. write the cut's table images and catalog, stamped with the cut,
           under a redo start of 0, and delete the files of tables the cut
           lacks (:meth:`Database.write_cut`) — the whole log is still
           there, so a restart replays every later commit onto them;
        3. cut the log after the cut's commit, and close the transactions
           the cut leaves open with bare ABORT records (their ends are gone);
        4. checkpoint, which moves the redo start past the cut.

        ``ts`` None means "now": the latest committed state, which discards
        no commits — the no-op restore chaos exploits.

        The in-memory engine still reflects *pre*-restore state afterwards
        and must be thrown away (a swap's fresh boot, or :meth:`crash`).
        """
        with self._engine_mutex:
            self._require_up()
            if ts is None:
                ts = self.time_travel.clock.now()
            self.time_travel.stats.restores_started += 1
            cut = self.time_travel.resolve_cut(ts)
            cut_end = self.time_travel.cut_end(cut)
            snapshot = self.time_travel.snapshot_at_cut(cut)
            info = snapshot.info
            restored = Database(
                self.storage,
                tables=snapshot.database.tables,
                procedures=snapshot.database.procedures,
                views=snapshot.database.views,
                wal_stats=self.wal_stats,
                lock_stats=self.lock_stats,
            )
            restored.indexes = dict(snapshot.database.indexes)
            self._install(restored)
            restored.write_cut(cut)
            self.storage.truncate_log_suffix(cut_end)
            discarded = self.time_travel.log_index.truncate_to(cut)
            restored.close_unended(info.open_txns)
            restored.checkpoint()
            self.time_travel.stats.commits_discarded += discarded
            return RestoreReport(
                ts=ts,
                cut_lsn=cut,
                cut_end=cut_end,
                commits_discarded=discarded,
                records_replayed=info.records_replayed,
                tables=info.tables,
            )

    def restore_to(self, ts: float | None) -> RestoreReport:
        """Restore the database to its state as of ``ts`` — application
        error recovery from the log (Talius et al.; docs/TIME_TRAVEL.md).

        A planned restart whose swap rewrites stable storage to the cut
        (:meth:`restore_storage_to`) where a restart checkpoints; every
        Phoenix session rides through on the ordinary recovery path.
        Commits after the cut are *erased* — that is the point — so the
        caller chooses ``ts`` with care.
        """
        start = time.monotonic()
        report, ridden = self._planned_swap(
            "server.restore", lambda: self.restore_storage_to(ts), ts=ts
        )
        self.time_travel.stats.restores_completed += 1
        report.sessions_ridden = ridden
        report.seconds = time.monotonic() - start
        return report

    def end_sessions(self) -> None:
        """Disconnect every session (a crashed server has none left)."""
        with self._engine_mutex:
            if self.up:
                for session_id in list(self.sessions):
                    self.disconnect(session_id)

    def shutdown(self) -> None:
        """Clean shutdown: end the sessions, checkpoint, then stop — a lock
        waiter the ended sessions would have freed is evicted, not run."""
        with self._engine_mutex:
            self._require_up()
            self.end_sessions()
            self.database.checkpoint()
            self.up = False
            self._tear_down()

    def _require_up(self) -> None:
        if not self.up:
            raise ServerCrashedError("server is down")

    # ----------------------------------------------------------- sessions

    def connect(self, user: str = "app", options: dict[str, Any] | None = None) -> int:
        """Open a session; returns the session id."""
        with self._engine_mutex:
            self._require_up()
            session = Session(user)
            if options:
                session.options.update(options)
            self.sessions[session.session_id] = session
            self._executors[session.session_id] = Executor(
                self.database,
                session,
                metrics=self.engine_metrics,
                stats=self.executor_stats,
            )
            self.stats.connects += 1
            return session.session_id

    def disconnect(self, session_id: int) -> None:
        with self._engine_mutex:
            self._require_up()
            session = self._session(session_id)
            if session.current_txn is not None:
                self.database.abort(session.current_txn)
                session.current_txn = None
            session.close()
            del self.sessions[session_id]
            del self._executors[session_id]

    def disconnect_sessions(self, session_ids: list[int]) -> list[int]:
        """Disconnect every listed session that still exists (open
        transactions abort, locks go) and return their ids — what a connect
        reaps for a client before its new session opens; an id that is
        already gone is skipped."""
        with self._engine_mutex:
            self._require_up()
            reaped = [sid for sid in dict.fromkeys(session_ids) if sid in self.sessions]
            for session_id in reaped:
                self.disconnect(session_id)
            return reaped

    def serve_connect(
        self,
        user: str,
        options: dict[str, Any] | None,
        reap: list[int],
        sql: str | None,
        placeholders: list | None = None,
    ) -> tuple[int, StatementResult | None, list[int]]:
        """The server side of a wire connect: reap the listed sessions, open
        a new one and run its recipe ``sql`` in it, all in one engine-mutex
        hold — a planned swap lands before or after the whole connect, never
        between its session open and its recipe.  A recipe that fails takes
        the new session with it.  Returns ``(session id, the recipe's result
        or None, the reaped ids)``."""
        with self._engine_mutex:
            reaped = self.disconnect_sessions(reap)
            session_id = self.connect(user, options)
            if not sql:
                return session_id, None, reaped
            try:
                result = self.execute(session_id, sql, placeholders=placeholders)
            except Error:
                if self.session_exists(session_id):
                    self.disconnect(session_id)  # no half-built session stays
                raise
            return session_id, result, reaped

    def _session(self, session_id: int) -> Session:
        try:
            return self.sessions[session_id]
        except KeyError:
            # The server is up but this session is gone — it died in a crash
            # + fast restart, or was disconnected.  A distinct error type so
            # Phoenix can route straight to session recovery.
            raise SessionLostError(
                f"no session {session_id} (lost in a crash or closed)"
            ) from None

    def executor_for(self, session_id: int) -> Executor:
        with self._engine_mutex:
            self._require_up()
            self._session(session_id)
            return self._executors[session_id]

    def session_exists(self, session_id: int) -> bool:
        with self._engine_mutex:
            return session_id in self.sessions

    # ----------------------------------------------------------- execution

    def execute(
        self,
        session_id: int,
        sql: str,
        *,
        placeholders: list | None = None,
        cursor_type: str = CursorType.DEFAULT,
        position: int = 0,
    ) -> StatementResult:
        """Parse and execute a SQL batch for a session.

        SELECT statements honour ``cursor_type``: the default materializes
        the whole result in the reply (a *default result set*); keyset and
        dynamic open a server cursor and return only metadata +
        ``cursor_id`` — the client then block-fetches, from row
        ``position`` on (the cursor is :meth:`advance`-d there first).
        """
        with self._engine_mutex:
            return self._execute_locked(
                session_id,
                sql,
                placeholders=placeholders,
                cursor_type=cursor_type,
                position=position,
            )

    def _execute_locked(
        self,
        session_id: int,
        sql: str,
        *,
        placeholders: list | None = None,
        cursor_type: str = CursorType.DEFAULT,
        position: int = 0,
    ) -> StatementResult:
        self._require_up()
        session = self._session(session_id)
        executor = self._executors[session_id]
        self.stats.statements += 1
        result = StatementResult.ok()
        last_rows: StatementResult | None = None
        batch_rowcounts: list[int] = []
        into_columns: list = []
        for stmt in self._parse(sql):
            if (
                isinstance(stmt, ast.Select)
                and stmt.into is None
                and cursor_type != CursorType.DEFAULT
            ):
                cursor = open_cursor(executor, stmt, cursor_type, placeholders)
                session.register_cursor(cursor)
                if position:
                    self.advance(session_id, cursor.cursor_id, position)
                result = StatementResult(
                    kind="rows",
                    columns=cursor.columns,
                    cursor_id=cursor.cursor_id,
                    effective_cursor_type=cursor.effective_type,
                )
            else:
                result = executor.execute(stmt, placeholders=placeholders)
                if result.kind == "rows":
                    self.stats.rows_returned += len(result.rows)
                    last_rows = result
                elif result.kind == "rowcount":
                    batch_rowcounts.append(result.rowcount)
                into_columns = result.into_columns or into_columns
        # Like typical clients consuming a batch: the result set survives
        # trailing non-query statements (e.g. "CREATE VIEW; SELECT; DROP
        # VIEW" — TPC-H Q15's shape); their rowcounts ride alongside, and
        # so does the description of the batch's last SELECT ... INTO.
        if result.kind != "rows" and last_rows is not None:
            result = last_rows
        result.batch_rowcounts = batch_rowcounts
        result.into_columns = into_columns
        return result

    def execute_batch(
        self,
        session_id: int,
        sql: str,
        rows: list[list],
        *,
        stop_after: int | None = None,
    ) -> tuple[list[StatementResult], Exception | None, int]:
        """Execute ``sql`` once per row of ``?`` values, as one wire unit
        under WAL group commit.

        Each row runs exactly as :meth:`execute` would run ``sql`` with it
        (own wrapper transaction, own status-table row — per-statement
        exactly-once is unchanged), but every commit-time WAL force inside
        the batch is deferred and one group force at the batch boundary
        covers them all.
        The caller (the endpoint) releases no reply before this method
        returns, i.e. before the covering force landed — that is the group
        commit invariant.

        Returns ``(results, error, error_index)``: on a SQL error the
        results are the successful prefix and the suffix is not executed
        (matching the per-statement loop, where the error surfaces at the
        failing statement).  ``stop_after`` is fault injection's hook: run
        only that many sub-statements and return *without* the group force,
        modelling a process kill mid-batch (the deferred commits are lost).
        """
        with self._engine_mutex:
            return self._execute_batch_locked(session_id, sql, rows, stop_after=stop_after)

    def _execute_batch_locked(
        self,
        session_id: int,
        sql: str,
        rows: list[list],
        *,
        stop_after: int | None = None,
    ) -> tuple[list[StatementResult], Exception | None, int]:
        self._require_up()
        self._session(session_id)  # session errors surface batch-level
        wal = self.database.wal
        results: list[StatementResult] = []
        error: Exception | None = None
        error_index = -1
        bound = len(rows) if stop_after is None else min(stop_after, len(rows))
        wal.begin_deferred()
        try:
            # No lock *waits* inside a deferred window: waiting releases the
            # engine mutex, and another session's commit acknowledged during
            # the window would ride a force that hasn't happened yet.  Lock
            # conflicts inside a batch therefore fail fast (and Phoenix's
            # batch resubmission handles them like any statement error).
            with self.database.locks.no_wait():
                for index in range(bound):
                    try:
                        results.append(
                            self._execute_locked(session_id, sql, placeholders=rows[index])
                        )
                    except Error as exc:
                        error = exc
                        error_index = index
                        break
        except BaseException:
            # a device fault (StorageFault) mid-batch has crashed the
            # server — leave the deferred commits un-forced; they died with
            # the volatile engine
            wal.end_deferred()
            raise
        if stop_after is not None:
            # simulated kill between sub-statements: no group force, so
            # every deferred commit stays volatile and the crash loses it
            wal.end_deferred()
        else:
            # the invariant: force before any result is released — this can
            # itself meet an armed device fault (torn tail under the group
            # force), which propagates as a StorageFault crash with the
            # durable prefix deciding which sub-statements survived
            wal.group_force()
        return results, error, error_index

    def _parse(self, sql: str) -> tuple:
        """Parse a SQL batch through the server-wide parse cache.

        Repeated statement texts come back as the *same* AST objects —
        which is what keys the database's plan cache.  Parse errors are
        not cached (they raise before the put).
        """
        cache = self._parse_cache
        statements = cache.get(sql)
        if statements is not None:
            self.engine_metrics.parse_hits += 1
            return statements
        self.engine_metrics.parse_misses += 1
        statements = tuple(parse_script(sql))
        cache.put(sql, statements)
        return statements

    def fetch(self, session_id: int, cursor_id: int, n: int) -> tuple[list[tuple], bool]:
        """Fetch the next block from an open cursor."""
        with self._engine_mutex:
            self._require_up()
            if n <= 0:
                raise ProgrammingError("fetch count must be positive")
            session = self._session(session_id)
            cursor = session.get_cursor(cursor_id)
            rows, done = cursor.fetch(n)
            self.stats.rows_returned += len(rows)
            return rows, done

    def advance(self, session_id: int, cursor_id: int, position: int) -> None:
        """Server-side reposition (no rows cross the wire)."""
        with self._engine_mutex:
            self._require_up()
            session = self._session(session_id)
            session.get_cursor(cursor_id).advance_to(position)

    def close_cursor(self, session_id: int, cursor_id: int) -> None:
        with self._engine_mutex:
            self._require_up()
            self._session(session_id).close_cursor(cursor_id)

    # ----------------------------------------------------------- admin helpers

    def checkpoint(self) -> int:
        with self._engine_mutex:
            self._require_up()
            lsn = self.database.checkpoint()
        # What a checkpoint leaves resident is long-lived (loaded tables,
        # catalogue, plans): move it out of the cyclic collector's reach, or
        # every full collection re-walks every row and lands its pause in
        # whichever statement runs next.  Refcounting still frees it.
        gc.collect()
        gc.freeze()
        return lsn

    def table_names(self) -> list[str]:
        with self._engine_mutex:
            self._require_up()
            return sorted(self.database.tables)

    def table_schema(self, session_id: int, name: str):
        """Catalog lookup for a table visible to the session (temp tables
        shadow persistent ones, as in name resolution)."""
        with self._engine_mutex:
            self._require_up()
            executor = self.executor_for(session_id)
            table, _ = executor.resolve_table(name)
            return table.schema
