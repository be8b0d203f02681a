"""Deterministic fault injection on the client/server wire.

A :class:`FaultInjector` sits inside the server endpoint and fires scheduled
faults when a matching request arrives.  The three failure shapes the paper
cares about:

* ``CRASH_BEFORE_EXECUTE`` — the server dies while the request is in
  flight; nothing executed; the client sees a connection reset.  (The
  classic "ODBC function hangs or errors" case of §2.)
* ``CRASH_AFTER_EXECUTE`` — the server executes the request — including any
  commit — and *then* dies before replying.  The client cannot tell this
  from the previous case; distinguishing them is exactly why Phoenix logs
  DML outcomes in a status table ("testable state", §3).
* ``HANG`` — the server stays up but the reply never comes; the client's
  timeout fires.  Phoenix must then ping to decide crash vs. slow network.

Two further shapes live *below* the wire, at the storage device (the fault
classes instant-restore/recovery work injects into the log):

* ``TORN_WAL_TAIL`` — the next WAL append writes only a prefix of its
  payload and the server dies: restart recovery must stop its log scan at
  the first bad frame and truncate the garbage tail.
* ``FORCE_FAIL`` — the next WAL append fails outright (device error) and
  the server dies with nothing of the append on disk.

Both are armed on the storage backend when the scheduled request arrives
and fire at that request's first log append; a request that never appends
(a pure read) leaves the fault armed for the next appending request, and a
crash from any other cause disarms it (a dead server has no pending device
fault).

Faults are one-shot by default and matched by an optional predicate on the
request (e.g. "the third FETCH", "any SQL containing 'invoices'"), which
keeps failure tests exact and repeatable.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.net.protocol import BatchExecuteRequest, Request

__all__ = [
    "FaultKind",
    "ScheduledFault",
    "FaultInjector",
    "WIRE_FAULTS",
    "STORAGE_FAULTS",
    "BATCH_FAULTS",
    "DRAIN_FAULTS",
    "RESTORE_FAULTS",
]


class FaultKind(enum.Enum):
    CRASH_BEFORE_EXECUTE = "crash_before_execute"
    CRASH_AFTER_EXECUTE = "crash_after_execute"
    HANG = "hang"
    DROP_CONNECTION = "drop_connection"  # comm glitch: server stays up
    TORN_WAL_TAIL = "torn_wal_tail"  # storage: partial last append, then crash
    FORCE_FAIL = "force_fail"  # storage: append fails outright, then crash
    #: the server dies *between* a batch request's sub-statements: the
    #: scheduled fault's ``arg`` is how many sub-statements execute before
    #: the kill (default: half).  Their commits were deferred for the group
    #: force, so the crash loses all of them — the sharpest test of
    #: partial-batch replay.  On a non-batch request this degenerates to
    #: CRASH_BEFORE_EXECUTE.
    CRASH_MID_BATCH = "crash_mid_batch"
    #: a planned restart (drain + swap) begins at this request and the
    #: process is killed inside it: ``arg`` 0 dies in the drain window
    #: (nothing checkpointed), ``arg`` 1 during the swap (after the
    #: checkpoint, before the fresh engine boots).  Either way the planned
    #: restart must degrade into the ordinary crash-recovery path with
    #: exactly-once outcomes intact.
    CRASH_MID_DRAIN = "crash_mid_drain"
    #: a ``restore_to`` begins at this request and the process is killed
    #: inside it: ``arg`` 0 dies in the drain window (storage untouched),
    #: ``arg`` 1 after the storage rewrite (a restore *to now*, preserving
    #: all committed state) but before the fresh engine boots.  Either way
    #: the restore must degrade into ordinary crash recovery with
    #: exactly-once outcomes intact.
    CRASH_MID_RESTORE = "crash_mid_restore"


#: faults that fire on the wire itself (the chaos explorer's request sweep)
WIRE_FAULTS = (
    FaultKind.CRASH_BEFORE_EXECUTE,
    FaultKind.CRASH_AFTER_EXECUTE,
    FaultKind.HANG,
    FaultKind.DROP_CONNECTION,
)

#: faults that fire at the stable-storage device, below the wire
STORAGE_FAULTS = (FaultKind.TORN_WAL_TAIL, FaultKind.FORCE_FAIL)

#: faults that target positions *inside* a batched wire request
BATCH_FAULTS = (FaultKind.CRASH_MID_BATCH,)

#: faults that kill the server inside a *planned* restart (drain/swap)
DRAIN_FAULTS = (FaultKind.CRASH_MID_DRAIN,)

#: faults that kill the server inside a ``restore_to`` (drain/rewrite/boot)
RESTORE_FAULTS = (FaultKind.CRASH_MID_RESTORE,)


@dataclass
class ScheduledFault:
    """One armed fault.

    ``matcher`` filters requests (default: match anything).  ``after``
    counts **matching requests only**: a one-shot fault with ``after=N``
    lets the first N requests its matcher accepts through and fires on the
    N+1-th match — requests the matcher rejects never advance the
    countdown.  (With the default match-anything matcher this is simply
    "fire on the N+1-th request the injector inspects".)  ``repeat`` keeps
    the fault armed after it fires (default one-shot — the injector removes
    the fault the first time it fires).  ``every`` makes a repeating fault
    *periodic*: it fires on each Nth matching request — the chaos schedule
    availability experiments use.  :attr:`fires_remaining` and
    :attr:`matches_until_fire` expose the pending state so a schedule
    explorer can introspect what is still armed.
    """

    kind: FaultKind
    matcher: Callable[[Request], bool] | None = None
    after: int = 0
    repeat: bool = False
    every: int | None = None
    #: kind-specific argument — for CRASH_MID_BATCH, the number of
    #: sub-statements executed before the kill (None = half the batch)
    arg: int | None = None
    #: target one virtual session: only requests carrying this
    #: ``session_id`` match (composes with ``matcher``/``after``).  Under
    #: concurrent serving this is how a schedule kills the server while
    #: *client k* is mid-transaction, regardless of how the other clients'
    #: requests interleave around it.
    session_id: int | None = None
    _seen: int = field(default=0, repr=False)
    _fired: int = field(default=0, repr=False)

    def check(self, request: Request) -> bool:
        """True if this fault fires for ``request`` (consumes one-shot)."""
        if self.session_id is not None and getattr(request, "session_id", None) != self.session_id:
            return False
        if self.matcher is not None and not self.matcher(request):
            return False
        self._seen += 1
        if self.every is not None:
            fires = self._seen % self.every == 0
        else:
            fires = self._seen > self.after and (self.repeat or self._fired == 0)
        if fires:
            self._fired += 1
        return fires

    @property
    def fires_remaining(self) -> int | None:
        """How many more times this fault can fire: ``None`` for repeating
        faults (unbounded), else 1 until the one-shot fires, then 0."""
        if self.repeat:
            return None
        return 0 if self._fired else 1

    @property
    def matches_until_fire(self) -> int | None:
        """Matching requests left before the next firing (1 = the next
        match fires).  ``None`` once a one-shot has already fired."""
        if self.every is not None:
            return self.every - (self._seen % self.every)
        if self.fires_remaining == 0:
            return None
        return max(self.after - self._seen, 0) + 1


class FaultInjector:
    """Holds the schedule and decides, per request, what fate it meets."""

    def __init__(self):
        self._faults: list[ScheduledFault] = []
        #: serializes fault decisions under threaded dispatch — the check /
        #: countdown / remove sequence must be atomic per request
        self._lock = threading.Lock()
        self.fired: list[FaultKind] = []
        #: total requests inspected — the chaos explorer's golden run reads
        #: this to learn how many crash points the trace has.
        self.requests_seen = 0
        #: (request_index, sub-statement count) of every BatchExecuteRequest
        #: inspected — the chaos explorer's golden run reads this to learn
        #: which crash points have *interior* positions to sweep.
        self.batch_requests: list[tuple[int, int]] = []
        #: ``arg`` of the most recently fired fault (endpoint reads this to
        #: position a CRASH_MID_BATCH kill)
        self.last_fault_arg: int | None = None

    def schedule(
        self,
        kind: FaultKind,
        *,
        matcher: Callable[[Request], bool] | None = None,
        after: int = 0,
        repeat: bool = False,
        every: int | None = None,
        arg: int | None = None,
        session_id: int | None = None,
    ) -> ScheduledFault:
        if every is not None:
            repeat = True
        fault = ScheduledFault(
            kind=kind,
            matcher=matcher,
            after=after,
            repeat=repeat,
            every=every,
            arg=arg,
            session_id=session_id,
        )
        with self._lock:
            self._faults.append(fault)
        return fault

    def schedule_on_sql(self, kind: FaultKind, needle: str, *, after: int = 0) -> ScheduledFault:
        """Convenience: fire when a request's SQL (an ExecuteRequest's, or the
        text a BatchExecuteRequest runs per row) contains ``needle``."""

        def matcher(request: Request) -> bool:
            sql = getattr(request, "sql", "")
            return needle.lower() in sql.lower()

        return self.schedule(kind, matcher=matcher, after=after)

    def cancel_all(self) -> None:
        with self._lock:
            self._faults.clear()

    def next_fault(self, request: Request) -> FaultKind | None:
        """The fault (if any) that fires for this request."""
        kind, _arg = self.next_fault_with_arg(request)
        return kind

    def next_fault_with_arg(
        self, request: Request
    ) -> tuple[FaultKind | None, int | None]:
        """Like :meth:`next_fault`, but returns ``(kind, arg)`` atomically —
        under threaded dispatch another request's fault may fire between a
        ``next_fault`` call and a later :attr:`last_fault_arg` read."""
        with self._lock:
            if isinstance(request, BatchExecuteRequest):
                self.batch_requests.append((self.requests_seen, len(request.rows)))
            self.requests_seen += 1
            for fault in self._faults:
                if fault.check(request):
                    if not fault.repeat:
                        self._faults.remove(fault)
                    self.fired.append(fault.kind)
                    self.last_fault_arg = fault.arg
                    return fault.kind, fault.arg
        return None, None

    @property
    def pending(self) -> int:
        return len(self._faults)
