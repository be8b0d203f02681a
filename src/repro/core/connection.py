"""The Phoenix virtual connection.

The application holds a :class:`PhoenixConnection` — a *virtual* connection
handle (paper §3 "Virtual ODBC Sessions").  Underneath lives one real driver
connection, the **app connection**, the driver connection of the inherited
plain :class:`~repro.odbc.driver_manager.Connection` surface.  It carries
the application's own statements (after rewriting) — queries as the plain
stack sends them, wrapped DML/DDL, transactions, SET options, key-cursor
blocks, the server cursor that delivers a materialized result block by
block — and what Phoenix sends on a statement's behalf: the one-request
script that fills a result table and reads back its first block, key-cursor
materialisation, status-table probes, clean-up.  The paper gives the latter
a second connection of their own; one server session here runs any number
of statements and cursors, so one serves a virtual session (DESIGN.md §5b).

The app connection is rebuilt after a crash; the virtual handle the
application holds never changes.  All session context needed to rebuild
(login, options in application order, temp-object maps,
materialized-result registry, the open transaction's statement log) is kept
client-side — the client survives; the paper only protects against
*server* failures.

There is one failure path: every request sent on the application's behalf
goes through :meth:`PhoenixConnection._ride_through` — the only handler of
a communication error, the only caller of ``recover()``, the owner of both
retry bounds.  What differs per request kind is the "did it land?" decision
the caller hands it (the table in docs/RECOVERY.md).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from repro.errors import (
    DeadlockError,
    Error,
    LockError,
    ProgrammingError,
    RecoveryError,
)
from repro.engine.schema import Column
from repro.engine.results import StatementResult
from repro.core.config import PhoenixConfig
from repro.core.interceptor import (
    Rendering,
    Template,
    name_placeholders,
    placeholder_values,
    redirect_names,
    render,
)
from repro.core.naming import NameAllocator
from repro.core.recovery import RECOVERABLE_ERRORS, PhoenixRecovery
from repro.core.statements import FillProcedure, ResultState, TxnReplayLog
from repro.obs.metrics import CounterSet, gauge
from repro.obs.tracer import get_tracer
from repro.odbc.driver import DriverConnection, NativeDriver
from repro.odbc.driver_manager import Connection
from repro.sql import ast
from repro.sql.walk import key_cursor_source, key_query, with_false_where

__all__ = ["PhoenixConnection", "PhoenixStats"]

#: how many recoveries one application call (``execute`` / ``executemany`` /
#: ``fetch*`` / ``commit`` / ``rollback`` / ``close``) may trigger, over all
#: the requests it sends, before the original communication error is passed
#: to the application — each re-send can meet a fresh, independent crash.
MAX_OPERATION_RETRIES = 10


class PhoenixStats(CounterSet):
    """Observable Phoenix activity of one connection — benchmarks and
    tests read these.  Cumulative across the crashes the connection rides
    through, like every :class:`~repro.obs.metrics.CounterSet`."""

    queries_materialized: int = 0
    cursors_materialized: int = 0
    dml_wrapped: int = 0
    recoveries: int = 0
    spurious_timeouts: int = 0
    status_probes: int = 0
    probe_hits: int = 0
    replayed_txns: int = 0
    #: statements transparently re-run after the server aborted them as a
    #: deadlock victim (or a batch entry lost its no-wait lock conflict)
    deadlock_retries: int = 0
    #: connects (recovery's ping) not answered with a session while waiting
    #: out an outage — one per backoff wait
    recovery_pings: int = 0
    #: orphaned server sessions this connection disconnected best-effort
    sessions_reaped: int = 0
    #: phase times of the most recent recovery (gauges: not running totals)
    last_virtual_session_seconds: float = gauge(0.0)
    last_sql_state_seconds: float = gauge(0.0)
    #: cumulative phase times across every recovery of this connection —
    #: the chaos bench reports mean phase-1/phase-2 splits from these.
    virtual_session_seconds_total: float = 0.0
    sql_state_seconds_total: float = 0.0


class PhoenixConnection(Connection):
    """A persistent database session: the plain connection surface with
    transaction control, cursors and close intercepted."""

    def __init__(
        self,
        manager,
        dsn: str,
        driver: NativeDriver,
        user: str,
        options: dict[str, Any] | None = None,
        config: PhoenixConfig | None = None,
    ):
        # the app connection is opened (crash-retried) by the session recipe
        super().__init__(manager, dsn, None, options or {})
        self.driver = driver
        self.user = user
        self.config = config if config is not None else PhoenixConfig()
        self.names = NameAllocator()
        self.stats = PhoenixStats()

        # client-side session context (replayed on recovery, in order)
        self.set_log: list[tuple[str, Any]] = []
        self.temp_table_map: dict[str, str] = {}
        self.temp_proc_map: dict[str, str] = {}
        self.results: dict[int, ResultState] = {}
        #: statement template -> its fill procedure (dropped at close)
        self.fill_procs: dict[Any, FillProcedure] = {}
        self.txn_log = TxnReplayLog()
        #: result tables (and the status table) to drop at clean termination
        self.cleanup_tables: list[str] = [self.names.status_table]
        #: the tail of every DML wrapper (:meth:`_wrapped`)
        self._status_insert = (
            f"INSERT INTO {self.names.status_table} VALUES (?, rowcount()); COMMIT"
        )

        #: recoveries the running application call may still trigger; None
        #: between application calls.  One budget is the scope of an
        #: application call (``execute`` / ``executemany`` / a ``fetch*`` that
        #: can send / ``close``, or else the outermost :meth:`_ride_through`):
        #: everything the call sends, nested sends included (the status probe
        #: inside a commit, the blocks of one fetch), draws on the same
        #: ``MAX_OPERATION_RETRIES``, so the worst case is that many
        #: recoveries — not that many per request, multiplied through every
        #: nested retry.  Each scope sets and clears it inline: the no-fault
        #: path pays no frame for it.
        self._recoveries_left: int | None = None

        self.recovery = PhoenixRecovery(self)

        #: one correlation id per virtual session — every span the session
        #: produces (driver, wire, engine, recovery) carries it, which is
        #: what stitches a crash-spanning trace into one causal timeline.
        #: None when tracing is disabled (no id allocation).
        self.correlation_id = get_tracer().new_correlation_id()

        # The real connection behind the virtual handle.  Session establishment
        # itself must survive a crash: the recipe is recovery's phase one,
        # retried by the same bounded loop (its statements are idempotent).
        with get_tracer().span("session.open", corr=self.correlation_id, user=user, dsn=dsn):
            self.recovery.open_session()

    # ------------------------------------------------------------- the failure path

    def _ride_through(
        self,
        send: Callable[[], Any],
        landed: Callable[[], Any] | None = None,
        *,
        replay_txn: bool = True,
        retry_locks: type[LockError] | tuple = (),
        scope: str | None = None,
        probe: Callable[[], list[int]] | None = None,
    ) -> Any:
        """The paper's §3 protocol, once: on a communication error recover
        the virtual session, test whether the request's effect already
        landed, then re-send or return the logged outcome; if the server
        stays away, pass the original error on.

        ``send`` looks the connection up per attempt (recovery replaces
        it).  ``landed`` is asked after each recovery: a non-None answer
        is the logged outcome, returned in place of a re-send; a request
        without one is idempotent.  ``probe`` names the status-table seqs
        ``landed`` will ask about: a rebuild reads them in its session
        recipe, so the question costs no request of its own.  A *different*
        crash can hit the re-sent request too; each failure runs a fresh
        recovery cycle until the application call's budget is spent
        (recover() itself gives up when the server stays down, so this
        terminates either way).
        ``retry_locks``: lock errors after which the server has aborted the
        request's transaction whole, so re-sending is a fresh execution
        (bounded by ``max_deadlock_retries``).
        """
        original: Exception | None = None
        lock_retries = 0
        outermost = self._recoveries_left is None
        if outermost:
            self._recoveries_left = MAX_OPERATION_RETRIES
        try:
            while True:
                try:
                    return send()
                except RECOVERABLE_ERRORS as exc:
                    original = original or exc
                    if not self._recoveries_left:
                        raise original
                    self._recoveries_left -= 1
                    self.recovery.recover(
                        exc, replay_txn=replay_txn, probe=probe() if probe else ()
                    )
                    if landed is not None:
                        outcome = landed()
                        if outcome is not None:
                            return outcome
                except retry_locks as exc:
                    lock_retries += 1
                    if lock_retries > max(1, self.config.max_deadlock_retries):
                        raise
                    self.stats.deadlock_retries += 1
                    get_tracer().event(
                        "deadlock.retry",
                        corr=self.correlation_id,
                        scope=scope,
                        attempt=lock_retries,
                    )
                    # the victim's open transaction went with it: replayed
                    # before the re-send (see _txn_execute)
                    self.txn_log.lost = self.txn_log.active
                    if not isinstance(exc, DeadlockError):
                        # a no-wait conflict never waited server-side (a
                        # deadlock victim did): back off before re-sending
                        self.config.sleep(0.002 * lock_retries)
        finally:
            if outermost:
                self._recoveries_left = None

    def _app_execute(self, sql: str, values: list | None = None) -> StatementResult:
        """One idempotent request on the app connection."""
        return self._ride_through(lambda: self.app.execute(sql, placeholders=values))

    def _execute_atomic(
        self, statements: list[str], *, arguments: Callable[[], list] | None = None
    ) -> StatementResult:
        """Run Phoenix-generated statements as ONE transaction in one
        round trip — one log force at its COMMIT, and a crash or SQL error
        leaves none of the objects it builds (restart skips a transaction
        without a commit record).  Inside the application's transaction they
        join it instead: its COMMIT decides.  Re-sent through recovery like
        any idempotent request: a script whose commit landed before the
        reply died starts with its own ``DROP ... IF EXISTS``, or
        ``arguments`` — the values of its ``?``, asked for per attempt —
        name a new object.
        """
        own = not self.in_transaction
        script = "; ".join(statements)
        if own:
            script = f"BEGIN TRANSACTION; {script}; COMMIT"
        try:
            return self._ride_through(
                lambda: self.app.execute(script, placeholders=arguments and arguments())
            )
        except RECOVERABLE_ERRORS:
            raise
        except Error:
            if own:
                # a SQL error aborted the script after its BEGIN: close the
                # transaction, or the session's next script dies on "already
                # in progress"
                self._rollback_wrapper_txn()
            raise

    # ------------------------------------------------------------- public API

    @property
    def app(self) -> DriverConnection:
        """The app connection, under the name the inherited surface reads:
        pass-through results fetch and close through it like plain ones."""
        return self._driver_connection

    @app.setter
    def app(self, driver_connection: DriverConnection) -> None:
        self._driver_connection = driver_connection

    def cursor(self):
        self._require_open()
        from repro.core.cursor import PhoenixCursor

        return PhoenixCursor(self)

    def _release(self) -> None:
        """Clean termination: drop every Phoenix-managed server object
        (paper §3: "After the client application has successfully
        terminated, Phoenix/ODBC cleans up all persistent structures")."""
        # an application call of its own: one recovery budget for all of it
        self._recoveries_left = MAX_OPERATION_RETRIES
        try:
            # forget every result first: a recovery triggered *during* cleanup
            # must not try to verify/reposition tables we just dropped
            self.results.clear()
            procs = [*(p.name for p in self.fill_procs.values()), *self.temp_proc_map.values()]
            drops = [f"DROP PROCEDURE IF EXISTS {proc}" for proc in procs]
            tables = [*self.cleanup_tables, *self.temp_table_map.values()]
            drops += [f"DROP TABLE IF EXISTS {table}" for table in tables]
            with get_tracer().span("session.close", corr=self.correlation_id):
                if self.in_transaction:
                    # an abandoned transaction is rolled back, not replayed —
                    # first, or the DROPs wait on its locks
                    try:
                        self.rollback()
                    except Error:
                        pass  # nothing left open server-side, or the server stayed down
                    self.txn_log.clear()
                try:
                    self._execute_atomic(drops)
                except (RecoveryError, *RECOVERABLE_ERRORS):
                    pass  # server stayed down: orphans reclaimed out of band
                try:
                    acked = self.app.disconnect()
                except RECOVERABLE_ERRORS:
                    acked = False
                if not acked:
                    # the DisconnectRequest died in flight: if the server is
                    # still up the session is orphaned — reap it out of band
                    self._reap_server_sessions([self.app.session_id])
        finally:
            self._recoveries_left = None

    def _reap_server_sessions(self, session_ids: list[int]) -> None:
        """Best-effort disconnect of orphaned server sessions by id.

        Used when close()'s disconnect died in flight (a recovery's rebuild
        reaps what it abandoned in its own connect).  Each id gets a few
        attempts on throwaway channels; a session that is already gone
        (crash took it, or the disconnect did land) counts as reaped.  Never
        raises: a session left behind lives until the server restarts.
        """
        from repro.errors import ServerCrashedError, SessionLostError

        for session_id in session_ids:
            for _attempt in range(3):
                try:
                    self.driver.disconnect_session(session_id)
                    self.stats.sessions_reaped += 1
                    break
                except SessionLostError:
                    break  # already gone — nothing to reap
                except ServerCrashedError:
                    break  # sessions die with the server
                except RECOVERABLE_ERRORS:
                    continue  # transient (hang/drop on the reap itself): retry
                except Error:
                    break

    # ------------------------------------------------------------- interception

    def rewrite(self, stmt: ast.Statement) -> ast.Statement:
        """``stmt`` with temp-object redirection applied — ``stmt`` itself
        when this session has redirected nothing, a rewritten copy otherwise."""
        return redirect_names(stmt, self.temp_table_map, self.temp_proc_map)

    def rendered(self, template: Template) -> Rendering:
        """What ``template`` sends on this session: its own rendering, made
        when it was parsed — unless this session redirects a temp object it
        names, and then its :meth:`rewrite`, rendered now.  Nothing is kept:
        a redirection made or dropped later is seen by the next execution."""
        tables, procedures = self.temp_table_map, self.temp_proc_map
        if (tables and not template.tables.isdisjoint(tables)) or (
            procedures and not template.procedures.isdisjoint(procedures)
        ):
            return render(self.rewrite(template.stmt), template.kind)
        return template.rendering

    @property
    def in_transaction(self) -> bool:
        return self.txn_log.active

    @property
    def broken(self) -> bool:
        """Never: recovery rebuilds a dead wire on the next statement."""
        return False

    # --- transactions ---------------------------------------------------------

    def begin(self) -> None:
        self._require_open()
        if self.in_transaction:
            raise ProgrammingError("transaction already in progress")
        with get_tracer().span("txn.begin", corr=self.correlation_id):
            self._app_execute("BEGIN TRANSACTION")
        self.txn_log.begin()

    def commit(self) -> StatementResult:
        """Commit with testable state: a status-table insert rides inside
        the transaction, so a lost COMMIT reply is decidable afterwards."""
        self._require_open()
        if not self.in_transaction:
            raise ProgrammingError("no transaction in progress")
        seq = self.names.next_seq()
        batch = f"INSERT INTO {self.names.status_table} VALUES (?, 0); COMMIT"

        def landed() -> StatementResult | None:
            # probe EVERY round: a retried batch may have committed just
            # before its reply died — replaying then would double-commit
            if self.probe_status(seq) is None:
                # no status row: the batch never ran, or died with the
                # transaction — re-send (a lost transaction is replayed first)
                return None
            # the probe itself can meet a crash, and its nested recovery
            # replays the open txn_log before the probe retry discovers the
            # commit landed: that replayed transaction is a double-apply
            # sitting open on the server — discard it before reporting the
            # commit
            self._rollback_wrapper_txn()
            self.stats.probe_hits += 1
            return StatementResult(kind="ok", message="COMMIT (recovered)")

        with get_tracer().span("txn.commit", corr=self.correlation_id, seq=seq):
            response = self._ride_through(
                lambda: self._txn_execute(batch, [seq]),
                landed,
                replay_txn=False,
                probe=lambda: [seq],
            )
        self.txn_log.clear()
        return response

    def rollback(self) -> StatementResult:
        self._require_open()
        if not self.in_transaction:
            raise ProgrammingError("no transaction in progress")

        def landed() -> StatementResult | None:
            if self.txn_log.lost:
                # a crash rolls the transaction back by definition
                return StatementResult(kind="ok", message="ROLLBACK (by crash)")
            return None  # spurious: the transaction is still open — re-send

        with get_tracer().span("txn.rollback", corr=self.correlation_id):
            response = self._ride_through(
                lambda: self.app.execute("ROLLBACK"), landed, replay_txn=False
            )
        self.txn_log.clear()
        return response

    def _replay_transaction(self) -> None:
        """Re-execute the open transaction's statements on a session that
        lost it (rebuilt after a crash, or aborted as a deadlock victim).

        The replay itself can be interrupted by another failure; whoever
        rides through that one starts it from scratch — ``txn_log.lost``
        stays set until the last statement is back, and the interrupted
        half-replay was rolled back by the crash, or is aborted explicitly
        when the session survived a spurious failure.  No statement is ever
        applied twice: an attempt either commits nothing (it never reaches
        COMMIT — that happens later) or is wholly discarded.
        """
        get_tracer().event(
            "recovery.replay_txn",
            corr=self.correlation_id,
            statements=len(self.txn_log.statements),
        )
        # clear any half-replayed open transaction (no-op after a crash;
        # required after a spurious failure mid-replay)
        try:
            self.app.execute("ROLLBACK")
        except RECOVERABLE_ERRORS:
            raise
        except Error:
            pass
        self.app.execute("BEGIN TRANSACTION")
        for sql, placeholders in self.txn_log.statements:
            self.app.execute(sql, placeholders=placeholders)
        self.txn_log.lost = False
        self.stats.replayed_txns += 1

    def _txn_execute(self, sql: str, placeholders: list | None = None) -> StatementResult:
        """One request inside the open transaction: a session that lost the
        transaction gets it replayed first."""
        if self.txn_log.lost:
            self._replay_transaction()
        return self.app.execute(sql, placeholders=placeholders)

    def run_in_transaction(self, sql: str, placeholders: list | None = None) -> StatementResult:
        """Execute a statement (``?`` bound to ``placeholders``) inside the
        app's explicit transaction.

        Pass-through (no materialization — the transaction's effects are
        volatile anyway) but recorded for wholesale replay.  A failure that
        killed the session has the lost transaction replayed by recovery
        before the statement is re-sent; a spurious failure (the session
        survived) just re-sends the statement.

        A :class:`~repro.errors.DeadlockError` means the server picked this
        transaction as the deadlock victim and aborted it *whole* — it
        committed nothing, so the statement log is exactly what is needed to
        transparently re-run it: replay the transaction so far, then retry
        the statement (bounded by ``max_deadlock_retries``).
        """
        response = self._ride_through(
            lambda: self._txn_execute(sql, placeholders),
            retry_locks=DeadlockError,
            scope="transaction",
        )
        self.txn_log.record(sql, placeholders)
        return response

    # --- DML (autocommit) --------------------------------------------------------

    def _wrapped(self, sql: str) -> str:
        """The paper's DML wrapper around ``sql``: one transaction holding
        the statement and a status-table insert of its outcome (rows
        affected), one round trip.  It binds the statement's values, then
        the sequence number — one text per statement template and session,
        whatever the values."""
        return f"BEGIN TRANSACTION; {sql}; {self._status_insert}"

    def run_dml(self, sql: str, values: list) -> tuple[int, int, "StatementResult | None"]:
        """Execute one autocommit DML/DDL/EXEC statement (``?`` bound to
        ``values``) exactly once.

        Returns (seq, rowcount, response).  The statement travels inside
        the paper's wrapper transaction that also records its outcome in
        the status table; after a failure Phoenix probes the table — hit:
        return the logged outcome; miss: re-execute (§3 "Data Modification
        Statements").  ``response`` carries any result rows the statement
        produced (an EXEC of a row-returning procedure); it is None when
        the reply was lost and only the logged outcome survives — the one
        place our reply-buffer (a rowcount) is narrower than the paper's.
        """
        seq = self.names.next_seq()
        batch = self._wrapped(sql)
        arguments = [*values, seq]
        self.stats.dml_wrapped += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("interceptor.wrap_dml", seq=seq)

        def send() -> tuple[int, int, StatementResult]:
            response = self.app.execute(batch, placeholders=arguments)
            # batch_rowcounts ends with the status insert's own count;
            # anything before it is the wrapped statement's.  A DDL
            # contributes no entry, and its recorded outcome is 0 — the
            # live reply must say the same, or a replayed run would
            # report a different rowcount than the original.
            rowcounts = response.batch_rowcounts
            return (seq, rowcounts[0] if len(rowcounts) > 1 else 0, response)

        def landed() -> tuple[int, int, None] | None:
            logged = self.probe_status(seq)
            if logged is None:
                # not logged → the wrapper transaction never committed;
                # re-executing cannot double-apply.
                return None
            self.stats.probe_hits += 1
            return (seq, logged, None)

        try:
            # a deadlock victim's wrapper transaction was aborted whole by
            # the server, so the status row never landed and resubmitting is
            # a fresh exactly-once execution.  No rollback needed — the
            # abort already released everything.
            return self._ride_through(
                send, landed, retry_locks=DeadlockError, scope="dml", probe=lambda: [seq]
            )
        except (DeadlockError, *RECOVERABLE_ERRORS):
            raise
        except Error:
            # a SQL error (duplicate key, missing table, ...) aborted
            # the batch after its BEGIN: close the wrapper transaction
            # before handing the error to the application, or the next
            # wrapped statement would trip over the open transaction
            self._rollback_wrapper_txn()
            raise

    def _rollback_wrapper_txn(self) -> None:
        """Best-effort ROLLBACK of a failed wrapper transaction."""
        try:
            self.app.execute("ROLLBACK")
        except Error:
            pass  # no transaction open (error hit before BEGIN) or server gone

    def probe_status(self, seq: int) -> int | None:
        """Read the status table for a statement's outcome (None = absent)
        — the answer the session recipe of the recovery just made read, if
        it did."""
        self.stats.status_probes += 1
        probed = self.recovery.take_probed([seq])
        if probed is None:
            response = self._app_execute(
                f"SELECT n_rows FROM {self.names.status_table} WHERE stmt_seq = ?", [seq]
            )
            probed = {seq: response.rows[0][0]} if response.rows else {}
        get_tracer().event("status.probe", corr=self.correlation_id, seq=seq, hit=seq in probed)
        return probed.get(seq)

    def probe_status_many(self, seqs: list[int]) -> dict[int, int]:
        """Probe the status table for many statements in one round trip.

        Returns ``{seq: logged rowcount}`` for every seq that landed — the
        batch analog of :meth:`probe_status`, used to resolve which of a
        failed batch's sub-statements are evidenced durable."""
        if not seqs:
            return {}
        self.stats.status_probes += 1
        landed = self.recovery.take_probed(seqs)
        if landed is None:
            response = self._app_execute(
                f"SELECT stmt_seq, n_rows FROM {self.names.status_table} "
                f"WHERE stmt_seq IN ({', '.join('?' * len(seqs))})",
                seqs,
            )
            landed = dict(response.rows)
        get_tracer().event(
            "status.probe_batch",
            corr=self.correlation_id,
            probed=len(seqs),
            hits=len(landed),
        )
        return landed

    # --- wire batching -----------------------------------------------------------

    def run_dml_batch(self, sql: str, rows: list[list]) -> list[int]:
        """Execute one autocommit DML statement once per row of values, in
        one round trip, exactly once each.

        Each row runs in the paper's wrapper (BEGIN; dml; status insert;
        COMMIT) with a sequence number of its own; the request carries the
        wrapper's text once and the rows beside it.  The server runs them
        as a unit under WAL group commit: one device force covers every
        sub-statement, and no reply is released before it lands.

        On a transport failure Phoenix recovers the session and *resolves*
        the batch: one status-table probe finds which seqs are evidenced
        durable (their logged rowcounts are final); the un-evidenced suffix
        never committed — a crash inside the deferred-force window loses all
        its deferred commits — so resubmitting it cannot double-apply.

        A SQL error aborts the batch at the failing entry: the landed prefix
        keeps its effects (each sub-statement is its own transaction; the
        group force covering them happened before the reply), the wrapper
        transaction of the failing entry is rolled back, and the error is
        re-raised — same semantics as the statement-at-a-time loop.

        Returns the per-row rowcounts, in row order.
        """
        from repro.net.transport import _rebuild_error

        wrapper = self._wrapped(sql)
        entries = [(self.names.next_seq(), values) for values in rows]
        rowcounts: dict[int, int] = {}
        pending = list(entries)
        self.stats.dml_wrapped += len(entries)

        def send() -> bool:
            response = self.app.execute_batch(
                wrapper, [[*values, seq] for seq, values in pending]
            )
            for (seq, _values), sub in zip(pending, response.results):
                counts = sub.batch_rowcounts
                rowcounts[seq] = counts[0] if len(counts) > 1 else 0
            # the landed prefix is durable; what is left is the unfinished suffix
            del pending[: len(response.results)]
            if response.error is not None:
                self._rollback_wrapper_txn()
                raise _rebuild_error(response.error)
            return True

        def landed() -> bool | None:
            resolved, remaining = self.recovery.resolve_batch(pending)
            pending[:] = remaining
            for seq, logged in resolved.items():
                rowcounts[seq] = logged
                self.stats.probe_hits += 1
            return None if pending else True  # something left: resubmit it

        with get_tracer().span(
            "dml.batch", corr=self.correlation_id, statements=len(entries)
        ):
            # batches run inside the server's no-wait lock window (a wait
            # there would stall the WAL group force that covers already-acked
            # commits), so a conflict with another session fails fast instead
            # of blocking: the unfinished suffix is resubmitted after a short
            # backoff.
            self._ride_through(
                send,
                landed,
                retry_locks=LockError,
                scope="batch",
                probe=lambda: [seq for seq, _values in pending],
            )
        return [rowcounts[seq] for seq, _values in entries]

    # --- temp-object redirection ----------------------------------------------------

    def handle_create_temp_table(self, stmt: ast.CreateTable) -> StatementResult:
        """Rewrite CREATE of a temp table into a persistent Phoenix table
        and remember the mapping (§3 "Temporary Objects")."""
        original = stmt.name.lower()
        persistent = self.names.redirected_table(original)
        create = replace(stmt, name=persistent, temporary=False)
        # idempotent under retry: a lost reply may have left the table
        # created; any prior incarnation of this Phoenix-owned name is stale
        response = self._execute_atomic([f"DROP TABLE IF EXISTS {persistent}", create.sql()])
        self.temp_table_map[original] = persistent
        return response

    def handle_drop_temp(self, stmt: "ast.DropTable | ast.DropProcedure") -> StatementResult:
        """DROP of a temp table or procedure: drop its stand-in, forget it."""
        table = isinstance(stmt, ast.DropTable)
        kind = "TABLE" if table else "PROCEDURE"
        redirected = self.temp_table_map if table else self.temp_proc_map
        persistent = redirected.pop(stmt.name.lower(), None)
        if persistent is None:
            raise ProgrammingError(f"temp {kind.lower()} {stmt.name} does not exist")
        return self._app_execute(f"DROP {kind} IF EXISTS {persistent}")

    def handle_create_temp_proc(self, stmt: ast.CreateProcedure) -> StatementResult:
        original = stmt.name.lower()
        persistent = self.names.redirected_procedure(original)
        # the body's references to other temp objects follow their redirection
        create = replace(self.rewrite(stmt), name=persistent)
        # DROP-first makes the retry after a lost reply idempotent
        response = self._execute_atomic([f"DROP PROCEDURE IF EXISTS {persistent}", create.sql()])
        self.temp_proc_map[original] = persistent
        return response

    # --- query materialization --------------------------------------------------------

    def probe_metadata(self, select: ast.Select, values: list = ()) -> list[Column]:
        """Result metadata in one cheap round trip (``WHERE 0=1``: the query
        is compiled, never run) — for key cursors only: their materialising
        reply describes the captured keys, not the application's columns."""
        probe = with_false_where(select)
        response = self._app_execute(probe.sql(), placeholder_values(probe, values))
        return list(response.columns)

    def _fill(
        self, key: Any, query: ast.Select, values: list, *, read_back: int | None
    ) -> tuple[str, StatementResult]:
        """Phoenix Step 3 in ONE request: ``key``'s fill procedure — the
        paper's: the target table and the ``values`` are its arguments — runs
        ``query`` ``INTO`` a new table server-side (the server derives the
        table and says what the query called its columns) and, with
        ``read_back``, returns that many of its first rows; the first
        execution creates the procedure in the request that first calls it.
        Every attempt fills a table of its own (registered for cleanup before
        the request leaves): a re-sent request cannot trip over what a lost
        reply's request committed.  Returns table and reply."""
        proc = self.fill_procs.get(key)
        if proc is None:
            body, n_values = name_placeholders(query)
            name = self.names.next_query_procedure()
            params = ", ".join(["@t", *(f"@p{i}" for i in range(n_values))])
            tail = f"; SELECT * FROM @t LIMIT {read_back}" if read_back else ""
            create = (
                f"DROP PROCEDURE IF EXISTS {name}; CREATE PROCEDURE {name} ({params}) "
                f"AS BEGIN {replace(body, into='@t').sql()}{tail} END"
            )
            call = f"EXEC {name} ?" + ", ?" * n_values
            proc = self.fill_procs[key] = FillProcedure(name, n_values, [create, call])
        table = ""

        def arguments() -> list:
            nonlocal table
            table = self.names.next_table()
            self.cleanup_tables.append(table)
            return [table, *values[: proc.n_values]]

        get_tracer().event("interceptor.fill", procedure=proc.name)
        response = self._execute_atomic(proc.script, arguments=arguments)
        del proc.script[:-1]  # acknowledged: from now on it is only called
        return table, response

    def query(
        self, sent: Rendering, values: list, key: Any, block: int
    ) -> tuple[StatementResult, ResultState | None]:
        """A default result set (a template as :meth:`rendered`, ``values``
        bound), sent as the plain stack sends it: the statement's text on
        the app connection, the values beside it.

        The server persists only the rows it does not ship: the paper
        materializes a result because the rows not yet delivered live only
        in server memory, while the client's buffer survives a server
        crash.  Inside the application's transaction nothing is persisted —
        the transaction's replay log re-runs the query.  Outside one the
        request asks for one row more than a ``block``: no more than a block
        back is the whole result, and a lost reply is simply re-run (the
        application saw nothing of it); a larger result is materialized
        (:meth:`materialize_default`).  Returns the reply whose rows the
        client buffers, and the materialized result's state (None when the
        reply carried the whole result)."""
        if self.in_transaction:
            return self.run_in_transaction(sent.text, values), None
        text = sent.capped(block)
        response = self._ride_through(lambda: self.app.execute(text, placeholders=values))
        if len(response.rows) <= block:
            return response, None
        return self.materialize_default(sent.stmt, values, key, block)

    def materialize_default(
        self, select: ast.Select, values: list, key: Any, block: int
    ) -> tuple[StatementResult, ResultState]:
        """A default result larger than one ``block``, in one request: the
        template's fill procedure runs the query into a new table and reads
        back the first block, the rest stays on the server
        (:meth:`fetch_result_block`).  The state is registered only once the
        rows are here: a recovery inside the guarded request has nothing to
        re-attach, the retried script's rows are the only ones delivered.
        The description is each reply's (tables get re-created)."""
        seq = self.names.next_seq()
        table, response = self._fill((key, block), select, values, read_back=block)
        self.stats.queries_materialized += 1
        state = ResultState(
            seq=seq,
            kind="default",
            table=table,
            select=select,
            app_columns=response.into_columns,
            shipped=len(response.rows),
        )
        self.results[seq] = state
        return response, state

    def materialize_cursor(
        self, select: ast.Select, values: list, kind: str, key: Any
    ) -> ResultState | None:
        """Persist keyset/dynamic cursor state: only the *keys* go into the
        Phoenix table (§3 "Cursors"), captured by the template's key
        procedure.  Returns None when the query shape cannot support a key
        cursor (caller falls back to default)."""
        key_column = self._keyable(select)
        if key_column is None:
            return None
        if kind == "dynamic" and select.order_by:
            return None  # dynamic delivery is in key order only
        seq = self.names.next_seq()
        app_columns = self.probe_metadata(select, values)
        keys_table, response = self._fill(
            (key, "keys"), key_query(select, key_column), values, read_back=None
        )
        self.stats.cursors_materialized += 1
        state = ResultState(
            seq=seq,
            kind=kind,
            table=keys_table,
            select=select,
            app_columns=app_columns,
            key_column=key_column,
            key_count=response.batch_rowcounts[0],
            values=values,
        )
        self.results[seq] = state
        return state

    def _keyable(self, select: ast.Select) -> str | None:
        """Client-side keyability check: the shape the server's cursors ask
        for too, then the key via the driver's catalog call."""
        source = key_cursor_source(select)
        if source is None:
            return None
        base = source.name
        try:
            schema = self._ride_through(lambda: self.app.table_schema(base))
        except RECOVERABLE_ERRORS:
            raise
        except Exception:
            return None
        if len(schema.primary_key) != 1:
            return None
        return schema.primary_key[0]

    # --- cursor block fetching ------------------------------------------------------------

    def fetch_result_block(self, state: ResultState, n: int) -> tuple[list[tuple], bool]:
        """The next ``n`` rows of a materialized default result, read through
        a server cursor over its table (paper §3: the rows not yet delivered
        stay on the server).  The cursor is opened at the rows already
        shipped — by the first call, and by every recovery in between.
        Returns (rows, done); a drained result is nothing recovery needs to
        re-open."""

        def send() -> tuple[list[tuple], bool]:
            if state.cursor_id is None:
                self.recovery.reposition(state)
            return self.app.fetch(state.cursor_id, n)

        rows, done = self._ride_through(send)
        state.shipped += len(rows)
        if done:
            self.release_result(state)
        return rows, done

    def release_result(self, state: ResultState) -> None:
        """Nothing of ``state`` is left to deliver: recovery forgets it, and
        its server cursor is closed (best-effort, like the plain close — the
        session's end frees it too).  Its table waits for ``close()``."""
        self.results.pop(state.seq, None)
        cursor_id, state.cursor_id = state.cursor_id, None
        if cursor_id is not None:
            try:
                self.app.close_cursor(cursor_id)
            except Error:
                pass

    def fetch_key_block(self, state: ResultState, n: int) -> tuple[list[tuple], bool]:
        """Fetch the next block of rows for a keyset/dynamic cursor.

        Returns (rows, done).  Every path reads the persistent keys table,
        so this works identically before and after a crash.
        """
        if state.kind == "keyset":
            return self._fetch_keyset_block(state, n)
        return self._fetch_dynamic_block(state, n)

    def _read_block(
        self, state: ResultState, where: ast.Expr | None, extra: list, **clauses
    ) -> list[tuple]:
        """Rows of a key cursor: the template's select list and the key where
        ``where`` holds; the ``?`` it adds are numbered after the template's,
        ``extra`` holds their values."""
        select = state.select
        key = ast.ColumnRef(state.key_column, table=select.from_.binding)
        block = ast.Select([*select.items, ast.SelectItem(key)], select.from_, where, **clauses)
        values = placeholder_values(block, [*state.values, *extra])
        return self._app_execute(block.sql(), values).rows

    def _fetch_keyset_block(self, state: ResultState, n: int) -> tuple[list[tuple], bool]:
        keys = self._app_execute(
            f"SELECT {state.key_column} FROM {state.table} LIMIT {n} OFFSET {state.shipped}"
        ).rows
        if not keys:
            return [], True
        key_values = [row[0] for row in keys]
        holders = [ast.Placeholder(len(state.values) + i) for i in range(len(key_values))]
        block = self._read_block(
            state, ast.InList(ast.ColumnRef(state.key_column), holders), key_values
        )
        by_key = {row[-1]: row[:-1] for row in block}
        # deliver in captured-key order; vanished keys are keyset "holes"
        rows = [by_key[k] for k in key_values if k in by_key]
        state.shipped += len(keys)
        done = state.shipped >= (state.key_count or 0)
        return rows, done

    def _fetch_dynamic_block(self, state: ResultState, n: int) -> tuple[list[tuple], bool]:
        """Paper §3: "use the last record key seen by the application and
        the next record key from the table to SELECT a range of rows" —
        inserts into the range are picked up, deletions fall out.  Past the
        captured keys, the scan runs open-ended (new tail rows show up)."""
        boundary = None
        if not state.keys_exhausted:
            boundary_rows = self._app_execute(
                f"SELECT {state.key_column} FROM {state.table} LIMIT {n} OFFSET {state.shipped}"
            ).rows
            state.shipped += len(boundary_rows)
            if len(boundary_rows) < n:
                state.keys_exhausted = True
            if boundary_rows:
                boundary = boundary_rows[-1][0]
        key = ast.ColumnRef(state.key_column)
        where, extra = state.select.where, []
        for op, value in ((">", state.last_key), ("<=", boundary)):
            if value is not None:
                bound = ast.Binary(op, key, ast.Placeholder(len(state.values) + len(extra)))
                where = bound if where is None else ast.Binary("AND", where, bound)
                extra.append(value)
        limit = n if boundary is None else None
        block = self._read_block(state, where, extra, order_by=[ast.OrderItem(key)], limit=limit)
        rows = [row[:-1] for row in block]
        if block:
            state.last_key = block[-1][-1]
        if boundary is None:
            done = len(block) < n  # open-ended tail drained
        else:
            done = False
        return rows, done
