"""Phoenix session recovery: detect, decide, rebuild, re-sync.

The paper's protocol (§3 "Server and Session Crash Recovery"), implemented
as :meth:`PhoenixRecovery.recover`.  Its logical steps are the paper's; its
requests are as few as they allow — a recovery after a crash is a failed
connect, a connect, and one request per open default result:

1. **Decide whether anything actually died.**  A failure that left the
   channel healthy (a timeout might be a slow server) — probe the
   session's temp proxy table; success means "spurious", and the caller
   simply retries.
2. **Phase one — recover the virtual session, in one request**: a connect
   that carries the *session recipe* — the abandoned sessions to reap, the
   SET options replayed in application order, the proxy table recreated,
   the status table re-ensured and, for the request being guarded, its
   status probe.  The server runs it in the fresh session before it
   replies.  The connect is also the ping: one the server does not answer
   is retried after a backoff wait (bounded; on exhaustion the original
   communication error is passed to the application, per the paper).  This
   phase's cost is independent of any result-set size (the paper's flat
   0.37 s line in Figure 2).
3. **Phase two — reinstall SQL state**, in one pass over the open results:
   re-open each default result at the rows it has ``shipped`` (one request:
   a server cursor over the materialized table that already stands there;
   no rows cross the wire — what the client already holds stays in its
   buffer), and verify each key cursor's table survived database recovery
   — opening a default result's table is its verification.  Finally replay
   the open explicit transaction, if any.

Both phases are timed separately into ``PhoenixStats`` — that split *is*
Figure 2.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING

from repro.errors import (
    CatalogError,
    CommunicationError,
    RecoveryError,
    SessionLostError,
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

#: connects a dead server fails before the original communication error is
#: passed to the application (paper §3: "If after a period of time
#: Phoenix/ODBC is unable to connect ... it passes the communication error
#: on").  A connect is the ping: the names keep the paper's word.
MAX_PING_ATTEMPTS = 50
#: seconds before the *first* retried connect; later waits grow by
#: ``PING_BACKOFF_FACTOR`` up to ``PING_MAX_INTERVAL`` — exponential backoff,
#: a deliberate deviation from the paper's fixed ping loop (DESIGN.md §5b: a
#: thundering herd of fixed-interval connects is exactly what a recovering
#: server does not need).
PING_INTERVAL = 0.05
PING_BACKOFF_FACTOR = 2.0
PING_MAX_INTERVAL = 2.0
#: each wait is scaled by a factor in [1 - PING_JITTER, 1 + PING_JITTER],
#: drawn from a stream seeded with the connection's client id: a fleet's
#: reconnect storms de-correlate, and one run of a schedule repeats exactly.
PING_JITTER = 0.1
#: rebuilds whose phase two is itself interrupted by another crash, before
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
        #: what the last session build's recipe probed: (the seqs, {seq:
        #: logged rowcount} of those that landed); taken by the first status
        #: probe that asks for them (:meth:`take_probed`)
        self._probed: tuple[frozenset[int], dict[int, int]] | None = None

    # ------------------------------------------------------------------ entry

    def recover(
        self, cause: Exception, *, replay_txn: bool = True, probe: list[int] = ()
    ) -> bool:
        """Bring the virtual session back to life (or raise).

        Returns True when the session was actually rebuilt, False when the
        failure turned out to be spurious (the session survived).  A rebuild
        marks an open transaction ``txn_log.lost``; ``replay_txn=False``
        leaves it so, letting transaction handling own the replay decision
        (commit probes the status table first).  ``probe``: the status-table
        seqs of the request being guarded — a rebuild reads them in its
        recipe, and the caller's "did it land?" probe takes the answer
        (:meth:`take_probed`) instead of sending one.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._recover_impl(cause, replay_txn=replay_txn, probe=probe)
        with tracer.span(
            "recovery",
            corr=self.connection.correlation_id,
            cause=type(cause).__name__,
        ) as span:
            rebuilt = self._recover_impl(cause, replay_txn=replay_txn, probe=probe)
            span.set(outcome="rebuilt" if rebuilt else "spurious")
            return rebuilt

    def _recover_impl(self, cause: Exception, *, replay_txn: bool, probe: list[int]) -> bool:
        connection = self.connection
        stats = connection.stats
        self._probed = None

        # 1. spurious? A channel that is still healthy (a timeout, or a
        # server that answered "no such session") may lead to a session that
        # survived: the probe on it is then also the proof the server is up
        if not connection.app.channel.broken:
            with get_tracer().span("recovery.detect"):
                survived = self._probe_session()
            if survived:
                stats.spurious_timeouts += 1
                return False

        # 2+3. rebuild
        self._rebuild(cause, replay_txn, probe)
        stats.recoveries += 1
        return True

    def open_session(self) -> None:
        """Session open: phase one's connect — the same recipe, under the
        same bounded wait for a server that is not answering."""
        self._build_session(None)

    def _rebuild(self, cause: Exception, replay_txn: bool, probe: list[int]) -> None:
        """Phases one and two, each timed into ``PhoenixStats``.  A crash
        inside phase two starts the rebuild over (``MAX_RECOVERY_ATTEMPTS``
        in all); a server that stays away fails phase one with ``cause``."""
        connection = self.connection
        stats = connection.stats
        for attempt in range(MAX_RECOVERY_ATTEMPTS):
            phase1 = self._build_session(cause, probe)
            stats.last_virtual_session_seconds = phase1
            stats.virtual_session_seconds_total += phase1
            # an open transaction died with the old session
            connection.txn_log.lost = connection.txn_log.active

            started = time.perf_counter()
            try:
                with get_tracer().span("recovery.phase2.sql_state"):
                    self._reinstall_results()
                    if replay_txn and connection.txn_log.lost:
                        connection._replay_transaction()
            except RECOVERABLE_ERRORS as exc:
                if attempt + 1 >= MAX_RECOVERY_ATTEMPTS:
                    raise RecoveryError(f"session recovery kept failing: {exc}") from exc
                continue
            phase2 = time.perf_counter() - started
            stats.last_sql_state_seconds = phase2
            stats.sql_state_seconds_total += phase2
            return

    def take_probed(self, seqs: list[int]) -> dict[int, int] | None:
        """The last session build's answer for ``seqs`` — ``{seq: logged
        rowcount}`` of those that landed — when its recipe probed every one
        of them; None when it did not (the caller probes itself).  An answer
        is given once: it is true only of the session the build opened."""
        probed, self._probed = self._probed, None
        if probed is None or not seqs or not probed[0].issuperset(seqs):
            return None
        return {seq: probed[1][seq] for seq in seqs if seq in probed[1]}

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

    def _jittered(self, interval: float) -> float:
        """Scale a wait by the connection's next jitter factor."""
        return interval * (1.0 + PING_JITTER * (2.0 * self._jitter_rng.random() - 1.0))

    def _build_session(self, cause: Exception | None, probe: list[int] = ()) -> float:
        """Phase one — session open and recovery alike — in one request: a
        connect carrying the virtual-session recipe, retried until the
        server answers.  Returns the answered connect's seconds.

        The recipe (the server runs it in the new session before replying):
        reap every session this client abandoned — when the server
        *survived* (a dropped connection, not a crash) the old session still
        holds temp tables, maybe an open transaction and its locks, and they
        go before anything else runs; replay the recorded SETs in order;
        recreate the proxy table; ensure the status table (persistent;
        idempotent after a crash); and read the status rows of ``probe``,
        the guarded request's seqs — the reap went first, so that answer is
        final.  A reply lost after the recipe ran costs nothing: the
        session it opened holds no lock and no transaction, and the retry
        builds afresh.  The stale ids outlive connects that fail (an
        abandoned session joins them), so the one that is answered reaps
        every session given up on the way.

        The connect is the ping: one that fails is retried after a wait
        that backs off exponentially with deterministic jitter
        (``PING_INTERVAL`` × ``PING_BACKOFF_FACTOR`` capped at
        ``PING_MAX_INTERVAL``, ±``PING_JITTER``), ``MAX_PING_ATTEMPTS``
        connects in all; then ``cause`` — the original communication error —
        is passed on (at open, the last connect's).
        """
        connection = self.connection
        old = connection.app
        if old is not None:  # session open: nothing came before
            if old.session_id not in self._stale_sessions:
                self._stale_sessions.append(old.session_id)
            old.channel.close()
        status = connection.names.status_table
        recipe = [ast.SetOption(name, value).sql() for name, value in connection.set_log]
        recipe += [
            f"CREATE TABLE {PROXY_TABLE} (x INT)",
            f"CREATE TABLE IF NOT EXISTS {status} (stmt_seq INT PRIMARY KEY, n_rows INT)",
        ]
        if probe:
            recipe.append(
                f"SELECT stmt_seq, n_rows FROM {status} "
                f"WHERE stmt_seq IN ({', '.join('?' * len(probe))})"
            )
        sleep = connection.config.sleep
        tracer = get_tracer()
        interval = PING_INTERVAL
        for _ in range(MAX_PING_ATTEMPTS):
            started = time.perf_counter()
            try:
                with tracer.span("recovery.phase1.virtual_session"):
                    app = connection.driver.connect(
                        connection.user,
                        connection.options,
                        recipe="; ".join(recipe),
                        placeholders=list(probe),
                        reap=self._stale_sessions,
                    )
            except RECOVERABLE_ERRORS as exc:
                tracer.event("recovery.ping", ok=False)
                failure = exc
                wait, interval = interval, min(interval * PING_BACKOFF_FACTOR, PING_MAX_INTERVAL)
            else:
                seconds = time.perf_counter() - started
                tracer.event("recovery.ping", ok=True)
                connection.app = app
                connection.stats.sessions_reaped += len(app.opened.reaped)
                self._stale_sessions = []
                if probe:
                    self._probed = (frozenset(probe), dict(app.opened.result.rows))
                return seconds
            connection.stats.recovery_pings += 1
            with tracer.span("recovery.await_server"):
                sleep(self._jittered(wait))
        # paper: "If after a period of time Phoenix/ODBC is unable to
        # connect to the server ... passes the communication error on."
        raise cause or failure

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
        the server) already advanced past the rows the client holds, in one
        request — the paper's stored-procedure repositioning, "advancing
        through the result set on the server without passing tuples to the
        client".  Also how a result's second block is first reached."""
        get_tracer().event("recovery.reposition", table=state.table, shipped=state.shipped)
        state.cursor_id = self.connection.app.advance(f"SELECT * FROM {state.table}", state.shipped)
