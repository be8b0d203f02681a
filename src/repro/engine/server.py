"""The database server: sessions, SQL execution, crash and restart.

:class:`DatabaseServer` is what sits on the far side of the wire.  It owns

* a :class:`~repro.engine.database.Database` (volatile object over stable
  storage),
* the live :class:`~repro.engine.session.Session` objects,

and exposes the operations the wire protocol maps onto: ``connect``,
``execute``, ``fetch``, ``advance``, ``close_cursor``, ``disconnect``.

Fault injection drives :meth:`crash` — which throws away every volatile
object exactly as a process kill would — and :meth:`restart`, which runs
restart recovery from stable storage.  Committed tables come back; sessions,
temp tables, and open cursors do not.  That asymmetry is the entire reason
Phoenix/ODBC exists.
"""

from __future__ import annotations

import gc
import threading
import time
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
from repro.engine.plancache import EngineMetrics, ExecutorStats, ParseCache
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
    "RestartPolicy",
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


@dataclass
class RestartPolicy:
    """How :meth:`DatabaseServer.drain_and_restart` treats in-flight work.

    * ``graceful`` — wait however long it takes for every in-flight
      statement to finish; nothing is bounced.
    * ``deadline`` — wait up to ``drain_timeout`` seconds, then bounce
      every lock waiter with a retryable
      :class:`~repro.errors.ServerRestartingError` (their transactions are
      aborted like deadlock victims) and finish the drain.
    * ``immediate`` — bounce waiters right away; only statements already
      past their lock acquisitions run to completion.

    Every session ends at the swap, and its cached plans with it.
    """

    mode: str = "deadline"
    drain_timeout: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("graceful", "deadline", "immediate"):
            raise ValueError(f"unknown restart mode: {self.mode!r}")


class DrainStats(CounterSet):
    """Planned-restart counters — the ``server`` slot of the registry."""

    drains_started: int = 0
    drains_completed: int = 0
    statements_bounced: int = 0
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
        self._parse_cache: ParseCache | None = None
        self.last_recovery: RecoveryReport | None = None
        #: monotonically increasing activity counter; every session-scoped
        #: operation stamps its session with the current value, which is
        #: what :meth:`reap_sessions` compares against.  Cumulative across
        #: restarts (it describes the simulation timeline, like stats).
        self.activity_epoch = 0
        self.up = False
        #: planned-restart state machine: ``running`` → ``draining`` →
        #: ``swapping`` → ``running``.  Orthogonal to :attr:`up`, which stays
        #: True for the whole planned restart — the server is not *dead*,
        #: merely pausing; a crash mid-drain resets this to ``running``.
        self.lifecycle = "running"
        #: monotonic deadline of the current drain window (None outside a
        #: planned restart) — what the RESTARTING ping reply advertises
        self._restart_deadline: float | None = None
        #: Engine-wide mutex: every public operation runs under it, so the
        #: worker threads of the dispatch layer interleave at *statement*
        #: granularity while engine structures (catalog, WAL, sessions) see
        #: single-threaded access.  It is an RLock, and the lock manager's
        #: condition variable is built over it — a session waiting for a
        #: table lock releases the engine so other sessions can run and
        #: eventually commit (see :mod:`repro.engine.locks`).  The mutex
        #: survives crashes: it guards the *server*, not one database
        #: incarnation.
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
        # the lock manager waits on the engine mutex so blocked statements
        # release the engine, and the server grants waiters a real budget
        # (standalone LockManagers keep the historical fail-fast default)
        self.database.locks.use_mutex(self._engine_mutex)
        self.database.locks.default_timeout = DEFAULT_SERVER_WAIT
        self._parse_cache = ParseCache()
        # wire the new incarnation into time travel: the WAL stamps commits
        # with the manager's (restart-spanning) clock and publishes them to
        # its index, which is reloaded here from the archive's commit rows
        # and the commits recovery's scan of the live log just met
        self.time_travel.attach(self.database)
        self.time_travel.rebuild(self.last_recovery.live_commits)
        self.up = True

    # ----------------------------------------------------------- lifecycle

    def crash(self) -> None:
        """Kill the server: all volatile state is gone, stable storage stays.

        Under concurrency a crash can hit while other sessions' statements
        are mid-flight (most visibly: asleep in a lock wait).  Marking the
        database dead and invalidating the lock manager wakes every waiter
        into :class:`~repro.errors.ServerCrashedError` and tells their
        cleanup paths that no undo — and no post-crash WAL write — may run.
        """
        with self._engine_mutex:
            self.up = False
            if self.database is not None:
                self.database.mark_dead()
                self.database.locks.invalidate()
            self.database = None
            self.sessions.clear()
            # compiled plans hold their tables and their executor, which holds
            # them: emptied first, the dead engine is freed by reference
            # count — not whenever the collector next runs
            for executor in self._executors.values():
                executor.clear_caches()
            self._executors.clear()
            self._parse_cache = None  # caches are volatile: a restart starts cold
            # a dead server has no pending device fault — the injected torn
            # write / failed force models the crash moment itself
            self.storage.clear_append_fault()
            self.stats.crashes += 1
            # a crash during a planned drain aborts the drain: lift the
            # barrier so parked requests run, observe the dead server, and
            # enter the normal (unplanned) recovery path instead of hanging
            self.lifecycle = "running"
            self._restart_deadline = None
            self.dispatcher.resume()
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

    def begin_drain(self, policy: RestartPolicy | None = None) -> None:
        """Enter the ``draining`` state: the dispatcher stops claiming new
        work (submissions park inside their wire threads), pings start
        answering RESTARTING.  Split out of :meth:`drain_and_restart` so
        fault injection can crash the server *inside* the drain window."""
        policy = policy if policy is not None else RestartPolicy()
        with self._engine_mutex:
            self._require_up()
            if self.lifecycle != "running":
                raise OperationalError("a planned restart is already in progress")
            self.lifecycle = "draining"
            # graceful mode has no bound, but the advertised ETA still uses
            # drain_timeout as the operator's estimate of the pause
            self._restart_deadline = time.monotonic() + policy.drain_timeout
            self.drain_stats.drains_started += 1
        self.dispatcher.pause()

    def restart_eta_seconds(self) -> float:
        """Remaining seconds of the advertised drain window (0 when past
        the deadline or when no planned restart is in progress)."""
        deadline = self._restart_deadline
        if deadline is None:
            return 0.0
        return max(0.0, deadline - time.monotonic())

    def drain_and_restart(self, policy: RestartPolicy | None = None) -> RecoveryReport:
        """Planned restart: drain in-flight work, checkpoint, swap in a
        fresh engine instance, resume — without ever going *down*.

        New wire requests park behind the dispatcher's drain barrier for
        the duration (their clients see a bounded pause, not an error);
        in-flight statements run to completion, or — past the policy's
        drain deadline — lock waiters are bounced with a retryable
        :class:`~repro.errors.ServerRestartingError`.  All sessions are
        then disconnected (open transactions abort cleanly), the database
        checkpoints, and a fresh engine boots from stable storage: every
        Phoenix client rides through on the existing recovery path, which
        finds the server up, its session gone, and rebuilds it.

        Must be called from an administrative thread, never from a
        dispatcher worker (the quiesce would wait on itself).
        """
        policy = policy if policy is not None else RestartPolicy()
        tracer = get_tracer()
        start = time.monotonic()
        bounced_before = self.lock_stats.drain_bounces
        self._drain_in_flight(policy, tracer)
        with tracer.span("server.swap"):
            with self._engine_mutex:
                try:
                    self._require_up()  # a mid-drain crash beat us to the swap
                    self.lifecycle = "swapping"
                    ridden = len(self.sessions)
                    self.end_sessions()
                    self.database.checkpoint()
                    self._boot()
                    self.stats.restarts += 1
                    self.drain_stats.drains_completed += 1
                    self.drain_stats.sessions_ridden_through += ridden
                finally:
                    self.lifecycle = "running"
                    self._restart_deadline = None
                    self.dispatcher.resume()
        pause = time.monotonic() - start
        self.drain_stats.statements_bounced += (
            self.lock_stats.drain_bounces - bounced_before
        )
        self.drain_stats.max_pause_seconds = max(
            self.drain_stats.max_pause_seconds, pause
        )
        return self.last_recovery

    def _drain_in_flight(self, policy: RestartPolicy, tracer) -> None:
        """The drain half of a planned restart/restore: enter ``draining``,
        quiesce the dispatcher per the policy, bounce lock waiters past the
        deadline.  On failure the barrier is lifted before re-raising."""
        with tracer.span("server.drain", mode=policy.mode, drain_timeout=policy.drain_timeout):
            self.begin_drain(policy)
            try:
                if policy.mode == "graceful":
                    self.dispatcher.quiesce(None)
                else:
                    timeout = policy.drain_timeout if policy.mode == "deadline" else 0.0
                    if not self.dispatcher.quiesce(timeout):
                        # deadline passed: evict lock waiters (their txns
                        # abort like deadlock victims) and wait out the
                        # statements that are genuinely executing
                        self.database.locks.bounce_waiters()
                        self.dispatcher.quiesce(None)
            except BaseException:
                # drain failed (e.g. a concurrent crash() raced us): lift
                # the barrier rather than leave parked requests hanging
                self.lifecycle = "running"
                self._restart_deadline = None
                self.dispatcher.resume()
                raise

    # ------------------------------------------------------------ time travel

    def restore_storage_to(self, ts: float | None = None) -> RestoreReport:
        """The destructive half of :meth:`restore_to`: rewrite stable
        storage so its durable state is exactly the cut for ``ts``.

        Order is fail-safe: the cut is reconstructed (read-only) *before*
        anything is discarded, then post-cut log bytes are truncated and
        the reconstructed state is checkpointed onto the device — after
        which an ordinary boot (or crash recovery, if the process dies
        right here: see CRASH_MID_RESTORE) comes up at the cut.  ``ts``
        None means "now": the latest committed state, which discards no
        commits — the no-op restore chaos exploits.

        Callers must hold the engine quiet (drained or about to crash);
        the in-memory engine still reflects *pre*-restore state afterwards
        and must be thrown away (:meth:`_boot` or :meth:`crash`).
        """
        with self._engine_mutex:
            self._require_up()
            if ts is None:
                ts = self.time_travel.clock.now()
            self.time_travel.stats.restores_started += 1
            cut = self.time_travel.resolve_cut(ts)
            cut_end = self.time_travel.cut_end(cut)
            # reconstruct first — any failure here leaves storage untouched
            snapshot = self.time_travel.snapshot_at_cut(cut)
            info = snapshot.info
            # log first, archive second.  If the process dies between the
            # two, what the archive still holds past the cut is either below
            # the log base, where the table files still reflect it (the
            # restore did not happen), or at or above it, where no read
            # trusts the archive and the next checkpoint's chunk replaces it
            self.storage.truncate_log_suffix(cut_end)
            self.storage.truncate_archive(cut_end)
            discarded = self.time_travel.log_index.truncate_to(cut)
            restored = Database(
                self.storage,
                tables=snapshot.database.tables,
                procedures=snapshot.database.procedures,
                views=snapshot.database.views,
                txn_seed=info.max_txn_id,
                wal_stats=self.wal_stats,
                lock_stats=self.lock_stats,
            )
            restored.indexes = dict(snapshot.database.indexes)
            self.time_travel.attach(restored)
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

    def restore_to(
        self, ts: float, policy: RestartPolicy | None = None
    ) -> RestoreReport:
        """Restore the database to its state as of ``ts`` — application
        error recovery from the log (Talius et al.; docs/TIME_TRAVEL.md).

        The choreography is a planned restart with the engine swap replaced
        by a storage rewrite: drain in-flight work behind the dispatcher
        barrier, disconnect every session (open transactions abort), rewrite
        stable storage to the cut via :meth:`restore_storage_to`, boot a
        fresh engine from it, resume.  Every Phoenix session rides through
        on the ordinary recovery path.  Commits after the cut are *erased*
        — that is the point — so the caller chooses ``ts`` with care.

        Must be called from an administrative thread, never a dispatcher
        worker (the quiesce would wait on itself).
        """
        policy = policy if policy is not None else RestartPolicy()
        tracer = get_tracer()
        start = time.monotonic()
        self._drain_in_flight(policy, tracer)
        with tracer.span("server.restore", ts=ts):
            with self._engine_mutex:
                try:
                    self._require_up()  # a mid-drain crash beat us here
                    self.lifecycle = "swapping"
                    ridden = len(self.sessions)
                    self.end_sessions()
                    report = self.restore_storage_to(ts)
                    self._boot()
                    self.stats.restarts += 1
                    self.drain_stats.drains_completed += 1
                    self.drain_stats.sessions_ridden_through += ridden
                    self.time_travel.stats.restores_completed += 1
                    report.sessions_ridden = ridden
                finally:
                    self.lifecycle = "running"
                    self._restart_deadline = None
                    self.dispatcher.resume()
        report.seconds = time.monotonic() - start
        return report

    def end_sessions(self) -> None:
        """Disconnect every session (a crashed server has none left)."""
        with self._engine_mutex:
            if self.up:
                for session_id in list(self.sessions):
                    self.disconnect(session_id)

    def shutdown(self) -> None:
        """Clean shutdown: checkpoint, then stop."""
        with self._engine_mutex:
            self._require_up()
            self.end_sessions()
            self.database.checkpoint()
            self.up = False
            self.database = None

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
            self._touch(session)
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
            self._executors.pop(session_id).clear_caches()  # see crash()

    def _touch(self, session: Session) -> None:
        self.activity_epoch += 1
        session.last_epoch = self.activity_epoch

    def reap_sessions(self, older_than_epoch: int) -> list[int]:
        """Administrative GC hook: disconnect every session whose last
        activity predates ``older_than_epoch`` (open transactions are
        aborted by the disconnect).  A client that loses its connection
        without a crash (network glitch) leaves its old session orphaned —
        Phoenix reaps its own orphans best-effort during recovery, and this
        hook is the server-side backstop an operator (or test) can drive.
        Returns the reaped session ids."""
        with self._engine_mutex:
            self._require_up()
            # A session parked behind the drain barrier looks idle (its last
            # request is queued, not stamped) but its client is alive and
            # blocked mid-request — reaping it would turn a planned pause
            # into a lost session.
            parked = self.dispatcher.keys_with_pending()
            reaped = []
            for session_id, session in list(self.sessions.items()):
                if session.last_epoch < older_than_epoch and session_id not in parked:
                    self.disconnect(session_id)
                    reaped.append(session_id)
            return reaped

    def _session(self, session_id: int) -> Session:
        try:
            session = self.sessions[session_id]
            self._touch(session)
            return session
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
    ) -> StatementResult:
        """Parse and execute a SQL batch for a session.

        SELECT statements honour ``cursor_type``: the default materializes
        the whole result in the reply (a *default result set*); keyset and
        dynamic open a server cursor and return only metadata +
        ``cursor_id`` — the client then block-fetches.
        """
        with self._engine_mutex:
            return self._execute_locked(
                session_id, sql, placeholders=placeholders, cursor_type=cursor_type
            )

    def _execute_locked(
        self,
        session_id: int,
        sql: str,
        *,
        placeholders: list | None = None,
        cursor_type: str = CursorType.DEFAULT,
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
                result = StatementResult(
                    kind="rows",
                    result_set=None,
                    cursor_id=cursor.cursor_id,
                    extra={
                        "columns": cursor.columns,
                        "effective_cursor_type": cursor.effective_type,
                    },
                )
            else:
                result = executor.execute(stmt, placeholders=placeholders)
                if result.kind == "rows" and result.result_set is not None:
                    self.stats.rows_returned += len(result.result_set.rows)
                    last_rows = result
                elif result.kind == "rowcount":
                    batch_rowcounts.append(result.rowcount)
                into_columns = result.extra.get("into_columns", into_columns)
        # Like typical clients consuming a batch: the result set survives
        # trailing non-query statements (e.g. "CREATE VIEW; SELECT; DROP
        # VIEW" — TPC-H Q15's shape); their rowcounts ride alongside, and
        # so does the description of the batch's last SELECT ... INTO.
        if result.kind != "rows" and last_rows is not None:
            result = last_rows
        result.extra["batch_rowcounts"] = batch_rowcounts
        result.extra["into_columns"] = into_columns
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
            # a device fault (StorageFault) mid-batch: the server is about
            # to be crashed by the endpoint — leave the deferred commits
            # un-forced; they die with the volatile engine
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
        which is what keys the per-session plan caches.  Parse errors are
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
