"""Phoenix session recovery: detect, decide, rebuild, re-sync.

The paper's protocol (§3 "Server and Session Crash Recovery"), implemented
as :meth:`PhoenixRecovery.recover`:

1. **Decide whether anything actually died.**  A timeout with a healthy
   channel might be a slow server — probe the session's temp proxy table;
   success means "spurious timeout", and the caller simply retries.
2. **Ping until the server answers** (bounded; on exhaustion the original
   communication error is passed to the application, per the paper).
3. **Phase one — recover the virtual session**: a fresh server session with
   the original login, the SET options replayed in application order, the
   proxy table recreated, the status table re-ensured, abandoned sessions
   reaped.  This phase's cost is independent of any result-set size (the
   paper's flat 0.37 s line in Figure 2).
4. **Phase two — reinstall SQL state**, in one pass over the open results:
   reposition each default result at the rows it has ``shipped`` (open a
   cursor over the materialized table and ADVANCE; no rows cross the wire —
   what the client already holds stays in its buffer), and verify each key
   cursor's table survived database recovery — opening a default result's
   table is its verification.  Finally replay the open explicit
   transaction, if any.

Both phases are timed separately into ``PhoenixStats`` — that split *is*
Figure 2.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Callable

from repro.errors import (
    CatalogError,
    CommunicationError,
    RecoveryError,
    ServerRestartingError,
    SessionLostError,
    TimeoutError,
)
from repro.core.naming import PROXY_TABLE
from repro.obs.tracer import get_tracer
from repro.sql import ast

if TYPE_CHECKING:
    from repro.core.connection import PhoenixConnection
    from repro.core.statements import ResultState

__all__ = ["PhoenixRecovery", "RECOVERABLE_ERRORS"]

#: errors that mean "the session may be gone" rather than "the SQL is wrong"
RECOVERABLE_ERRORS = (CommunicationError, SessionLostError)

#: pings of a dead server before the original communication error is passed
#: to the application (paper §3: "If after a period of time Phoenix/ODBC is
#: unable to connect ... it passes the communication error on").
MAX_PING_ATTEMPTS = 50
#: seconds before the *first* retry ping; later waits grow by
#: ``PING_BACKOFF_FACTOR`` up to ``PING_MAX_INTERVAL`` — exponential backoff,
#: a deliberate deviation from the paper's fixed ping loop (DESIGN.md §5b: a
#: thundering herd of fixed-interval pings is exactly what a recovering
#: server does not need).
PING_INTERVAL = 0.05
PING_BACKOFF_FACTOR = 2.0
PING_MAX_INTERVAL = 2.0
#: each wait is scaled by a factor in [1 - PING_JITTER, 1 + PING_JITTER],
#: drawn from a stream seeded with the connection's client id: a fleet's
#: reconnect storms de-correlate, and one run of a schedule repeats exactly.
PING_JITTER = 0.1
#: session builds that are themselves interrupted by another crash, before
#: recovery gives up with :class:`RecoveryError`.
MAX_RECOVERY_ATTEMPTS = 5


class PhoenixRecovery:
    """Recovery engine for one Phoenix connection."""

    def __init__(self, connection: "PhoenixConnection"):
        self.connection = connection
        #: the jitter stream, seeded per connection (``PING_JITTER``)
        self._jitter_rng = random.Random(connection.names.client_id)
        #: server sessions abandoned by rebuilds, not yet reaped
        self._stale_sessions: list[int] = []

    # ------------------------------------------------------------------ entry

    def recover(self, cause: Exception, *, replay_txn: bool = True) -> bool:
        """Bring the virtual session back to life (or raise).

        Returns True when the session was actually rebuilt, False when the
        failure turned out to be spurious (the session survived).  A rebuild
        marks an open transaction ``txn_log.lost``; ``replay_txn=False``
        leaves it so, letting transaction handling own the replay decision
        (commit probes the status table first).
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._recover_impl(cause, replay_txn=replay_txn)
        with tracer.span(
            "recovery",
            corr=self.connection.correlation_id,
            cause=type(cause).__name__,
        ) as span:
            rebuilt = self._recover_impl(cause, replay_txn=replay_txn)
            span.set(outcome="rebuilt" if rebuilt else "spurious")
            return rebuilt

    def _recover_impl(self, cause: Exception, *, replay_txn: bool) -> bool:
        connection = self.connection
        stats = connection.stats
        tracer = get_tracer()

        # 1. spurious timeout? (channel still healthy)
        if isinstance(cause, TimeoutError) and not connection.app.channel.broken:
            with tracer.span("recovery.detect"):
                survived = self._probe_session()
            if survived:
                stats.spurious_timeouts += 1
                return False

        # 2. wait for the server
        self._await_server(cause)

        # 2b. server answers and the session itself survived (e.g. the
        # timeout fired while the server was merely slow) — keep it.
        if not connection.app.channel.broken and self._probe_session():
            stats.spurious_timeouts += 1
            return False

        # 3+4. rebuild
        self._until_built(lambda: self._rebuild(replay_txn))
        stats.recoveries += 1
        return True

    def open_session(self) -> None:
        """Session open: the recipe of phase one, under the same bounded
        loop — a server that dies while the session is being set up is
        waited out and the setup starts over."""
        self._until_built(self._build_session)

    def _until_built(self, build: Callable[[], None]) -> None:
        """Run ``build`` to completion; a server that crashes *again*
        mid-way just restarts the whole procedure (bounded)."""
        for attempt in range(MAX_RECOVERY_ATTEMPTS):
            try:
                return build()
            except RECOVERABLE_ERRORS as exc:
                if attempt + 1 >= MAX_RECOVERY_ATTEMPTS:
                    raise RecoveryError(
                        f"session recovery kept failing: {exc}"
                    ) from exc
                self._await_server(exc)

    def _rebuild(self, replay_txn: bool) -> None:
        """Phases one and two, each timed into ``PhoenixStats``."""
        connection = self.connection
        stats = connection.stats
        tracer = get_tracer()
        started = time.perf_counter()
        with tracer.span("recovery.phase1.virtual_session"):
            self._build_session()
        phase1 = time.perf_counter() - started
        stats.last_virtual_session_seconds = phase1
        stats.virtual_session_seconds_total += phase1
        # an open transaction died with the old session
        connection.txn_log.lost = connection.txn_log.active

        started = time.perf_counter()
        with tracer.span("recovery.phase2.sql_state"):
            self._reinstall_results()
            if replay_txn and connection.txn_log.lost:
                connection._replay_transaction()
        phase2 = time.perf_counter() - started
        stats.last_sql_state_seconds = phase2
        stats.sql_state_seconds_total += phase2

    def resolve_batch(
        self, entries: list[tuple[int, list]]
    ) -> tuple[dict[int, int], list[tuple[int, list]]]:
        """Partial-batch replay: split a failed batch into landed / resubmit.

        After the session is back, one status-table probe over the batch's
        seqs decides each sub-statement's fate.  A seq with a status row is
        evidenced durable (the group force that covered its commit landed —
        its logged rowcount is final); a seq without one never committed:
        either the crash hit before its turn, or its commit was still
        deferred when the server died and the un-forced WAL tail (torn or
        merely volatile) lost it wholesale.  Resubmitting the un-evidenced
        suffix therefore cannot double-apply — the paper's probe-after-
        failure argument, at batch granularity.

        ``entries`` are ``(seq, values)``, one per row of the batch.  Returns
        ``(landed {seq: rowcount}, entries to resubmit in order)``.
        """
        landed = self.connection.probe_status_many([seq for seq, _values in entries])
        remaining = [entry for entry in entries if entry[0] not in landed]
        get_tracer().event(
            "recovery.resolve_batch",
            corr=self.connection.correlation_id,
            statements=len(entries),
            landed=len(landed),
            resubmit=len(remaining),
        )
        return landed, remaining

    # ------------------------------------------------------------------ steps

    def _probe_session(self) -> bool:
        """The paper's proxy test: does the session's temp table still
        exist?  Temp tables die with their session, so a hit proves the
        session (and hence the server) survived."""
        try:
            self.connection.app.execute(f"SELECT count(*) FROM {PROXY_TABLE}")
        except Exception:
            return False
        return True

    def _await_server(self, cause: Exception) -> None:
        """Ping (on throwaway channels) until the server answers.

        The wait between pings backs off exponentially with deterministic
        jitter (``PING_INTERVAL`` × ``PING_BACKOFF_FACTOR`` capped at
        ``PING_MAX_INTERVAL``, ±``PING_JITTER``), and the whole wait is
        bounded by ``MAX_PING_ATTEMPTS``.

        A ping answered with RESTARTING (the server is mid *planned*
        restart and advertises when it expects to be back) proves the
        server process is alive — the backoff interval resets to the base
        ``PING_INTERVAL`` and does not grow, so a planned pause is polled
        politely at a flat cadence instead of inheriting crash-tuned
        exponential intervals that could overshoot the swap by seconds.
        """
        sleep = self.connection.config.sleep
        tracer = get_tracer()
        interval = PING_INTERVAL
        with tracer.span("recovery.await_server"):
            for _ in range(MAX_PING_ATTEMPTS):
                try:
                    self.connection.driver.ping()
                    tracer.event("recovery.ping", ok=True)
                    return
                except ServerRestartingError as exc:
                    tracer.event(
                        "recovery.ping", ok=False, restarting=True,
                        state=exc.state, eta_seconds=exc.eta_seconds,
                    )
                    self.connection.stats.recovery_pings += 1
                    interval = PING_INTERVAL  # planned pause: flat cadence
                    sleep(self._jittered(interval))
                except RECOVERABLE_ERRORS:
                    tracer.event("recovery.ping", ok=False)
                    self.connection.stats.recovery_pings += 1
                    sleep(self._jittered(interval))
                    interval = min(interval * PING_BACKOFF_FACTOR, PING_MAX_INTERVAL)
            # paper: "If after a period of time Phoenix/ODBC is unable to
            # connect to the server ... passes the communication error on."
            raise cause

    def _jittered(self, interval: float) -> float:
        """Scale a wait by the connection's next jitter factor."""
        return interval * (1.0 + PING_JITTER * (2.0 * self._jitter_rng.random() - 1.0))

    def _build_session(self) -> None:
        """The virtual-session recipe — session open and recovery's phase
        one alike (at open ``set_log`` and the stale list are simply empty):
        a fresh server session with the recorded session context replayed
        and the status table ensured (persistent; idempotent for post-crash
        rebuilds).

        When the server *survived* (a dropped connection, not a crash), the
        old session id still holds a live server session — temp tables, an
        open transaction, locks.  It is reaped best-effort once the new
        session is up, so an orphaned transaction's locks never block the
        replayed one.  The ids outlive a build that is itself interrupted
        (its half-built session joins them — retrying without that leaks a
        lock-holding session per attempt), so the attempt that finally
        succeeds reaps every session abandoned on the way.
        """
        connection = self.connection
        old = connection.app
        if old is not None:  # session open: nothing came before
            if old.session_id not in self._stale_sessions:
                self._stale_sessions.append(old.session_id)
            old.channel.close()
        connection.app = connection.driver.connect(connection.user, connection.options)
        for name, value in connection.set_log:
            connection.app.execute(ast.SetOption(name, value).sql())
        connection.app.execute(f"CREATE TABLE {PROXY_TABLE} (x INT)")
        connection.app.execute(
            f"CREATE TABLE IF NOT EXISTS {connection.names.status_table} "
            f"(stmt_seq INT PRIMARY KEY, n_rows INT)"
        )
        connection._reap_server_sessions(self._stale_sessions)
        self._stale_sessions = []

    def _reinstall_results(self) -> None:
        """Paper: "first verifies that all application state materialized in
        tables on the server was recovered by the database recovery
        mechanisms" — then re-attaches it.  A default result that still has
        rows on the server (``connection.results`` forgets a drained one) is
        re-opened at the rows it has shipped, and that open is its
        verification.  A keyset/dynamic cursor has nothing to re-open — each
        of its blocks is an independent query over persistent tables — so
        its keys table is probed."""
        connection = self.connection
        tracer = get_tracer()
        for state in connection.results.values():
            try:
                if state.kind == "default":
                    self.reposition(state)
                else:
                    connection.app.execute(f"SELECT count(*) FROM {state.table}")
            except CatalogError as exc:
                tracer.event("recovery.verify_table", table=state.table, ok=False)
                raise RecoveryError(
                    f"materialized state {state.table} missing after database recovery"
                ) from exc
            tracer.event("recovery.verify_table", table=state.table, ok=True)

    def reposition(self, state: "ResultState") -> None:
        """Open a server cursor over the materialized table (rows stay on
        the server) and advance it past the rows the client holds — the
        paper's stored-procedure repositioning, "advancing through the
        result set on the server without passing tuples to the client".
        Also how a result's second block is first reached.  The cursor is
        the state's only once it stands at ``shipped``: an advance that
        fails leaves the re-send to open another."""
        connection = self.connection
        get_tracer().event("recovery.reposition", table=state.table, shipped=state.shipped)
        cursor_id = connection.app.execute(
            f"SELECT * FROM {state.table}", cursor_type="keyset"
        ).cursor_id
        if state.shipped:
            connection.app.advance(cursor_id, state.shipped)
        state.cursor_id = cursor_id
