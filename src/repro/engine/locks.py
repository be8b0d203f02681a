"""Row and key locks under table intent locks: the two modes the engine takes.

A transaction that writes a row it can name first takes **IX** (intent
exclusive) on the table, then **X** on the ``(table, rowid)`` resource —
or on ``(table, key)``, the primary-key value a DELETE or a key-moving
UPDATE vacates and an INSERT waits out.  DDL and every DML statement that
cannot name its rows before it reads them (non-keyed scans, secondary-index
paths) take **X** on the whole table.  Reads take no lock at all (DESIGN.md
§5b: they are read-uncommitted until ROADMAP item 32's committed view
lands).

Compatibility is one rule: IX coexists with IX, and X with nothing.  A
transaction's held mode on a resource is the stronger of what it asked
for there (re-entrant acquires never self-conflict).  Holding table X
covers every row of the table.  Past :data:`ESCALATION_THRESHOLD` row locks
on one table a transaction **escalates**: it takes table X and drops its
row and key locks — safe because table X can only be granted once no other
transaction holds IX on the table, at which point nobody else can hold or
acquire row locks there.

Waiting, deadlines, and crash behaviour:

* a **timeout** — per-transaction (``SET lock_timeout <ms>`` via
  :meth:`set_timeout`) falling back to :attr:`LockManager.default_timeout`
  (0 = historical fail-fast for standalone managers; the server installs
  :data:`DEFAULT_SERVER_WAIT`).
* a **waits-for-graph deadlock detector** — edges are transaction →
  transaction regardless of which granularity the conflict is at, so
  cycles that pass through a row lock on one side and a table lock on the
  other are caught by the same DFS.  The requester is the victim and
  raises :class:`~repro.errors.DeadlockError`.
* **no-wait windows** — inside a WAL group-commit deferred window the
  worker must never sleep on any lock (row or table): waiting releases
  the engine mutex and another session's commit would be acknowledged
  before the covering group force.  :meth:`no_wait` marks the thread.
* :meth:`invalidate` (server crash, planned swap or shutdown) drops all
  lock state and wakes every sleeper into
  :class:`~repro.errors.ServerCrashedError`.

The condition variable is built over the engine-wide mutex the server
installs via :meth:`use_mutex`; waiting releases the engine.  Every
completed wait emits a ``lock.wait`` trace event carrying the table, row,
requested mode, wait time, and the waits-for edges observed when the
waiter went to sleep — what ``python -m repro.obs --locks`` renders.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import defaultdict

from repro.errors import DeadlockError, LockError, ServerCrashedError
from repro.obs.metrics import CounterSet
from repro.obs.tracer import get_tracer

__all__ = ["LockMode", "LockManager", "LockStats", "DEFAULT_SERVER_WAIT"]

#: Server-installed default wait budget (seconds).  Short enough that the
#: historical "conflict surfaces as LockError" tests still pass promptly,
#: long enough that commit-latency-scale contention waits instead of failing.
DEFAULT_SERVER_WAIT = 0.25

#: Row locks one transaction may hold on one table before it trades them
#: for a single full-table lock.  Large enough that OLTP-shaped
#: transactions never escalate; small enough that a bulk statement inside
#: an explicit transaction stops ballooning the lock table.
ESCALATION_THRESHOLD = 128


class LockMode(enum.Enum):
    INTENT_EXCLUSIVE = "IX"
    EXCLUSIVE = "X"


_X = LockMode.EXCLUSIVE


#: a resource is (table, rowid) — rowid None means the table itself, and a
#: tuple is a primary-key value (the key a DELETE or an UPDATE vacates)
Resource = tuple[str, "int | tuple | None"]


class LockStats(CounterSet):
    """Lock-manager counters — the ``locks`` slot of the registry.  They
    describe the simulation, not one database incarnation, so the server
    threads one object through every restart exactly like
    :class:`~repro.engine.wal.WalStats`."""

    acquires: int = 0
    #: acquires that targeted a row (the rest are table/intent level)
    row_acquires: int = 0
    waits: int = 0
    wait_timeouts: int = 0
    deadlocks: int = 0
    #: row-lock sets traded for a full table lock
    escalations: int = 0
    total_wait_time: float = 0.0


class LockManager:
    """Tracks two-level (table, row) locks per transaction; strict
    two-phase — released only at commit/abort via :meth:`release_all`."""

    def __init__(self, *, stats: LockStats | None = None):
        # (table, rowid|None) -> {txn_id -> LockMode}
        self._locks: dict[Resource, dict[int, LockMode]] = defaultdict(dict)
        #: txn_id -> resources it holds (release_all is O(held), and an
        #: empty entry is how release_all knows nothing could be freed)
        self._held: dict[int, set[Resource]] = {}
        #: (txn_id, table) -> row locks held there (escalation trigger; key
        #: locks are not counted — a transaction takes at most one per row it
        #: locks — but go with the row locks when the table lock replaces them)
        self._row_counts: dict[tuple[int, str], int] = {}
        self._mutex = threading.RLock()
        self._cond = threading.Condition(self._mutex)
        #: waiting txn -> set of txn_ids it is blocked behind (waits-for graph)
        self._waits_for: dict[int, set[int]] = {}
        #: per-transaction wait budget override, seconds (``SET lock_timeout``)
        self._timeouts: dict[int, float] = {}
        #: standalone managers keep the historical fail-fast behaviour; the
        #: server raises this to DEFAULT_SERVER_WAIT when it installs its mutex
        self.default_timeout = 0.0
        #: bumped by :meth:`invalidate` (the engine's teardown) so sleepers
        #: learn the engine they were waiting on no longer exists
        self._generation = 0
        self._no_wait = threading.local()
        #: injectable so the counters survive database incarnations
        self.stats = stats if stats is not None else LockStats()

    # ----------------------------------------------------------- wiring

    def use_mutex(self, mutex: threading.RLock) -> None:
        """Rebuild the condition over an externally owned mutex (the
        server's engine-wide lock).  Call only while no waiter sleeps."""
        self._mutex = mutex
        self._cond = threading.Condition(mutex)

    def set_timeout(self, txn_id: int, seconds: float | None) -> None:
        """Install (or clear) a per-transaction wait budget, from the
        session's ``lock_timeout`` option (milliseconds on the wire)."""
        if seconds is None:
            self._timeouts.pop(txn_id, None)
        else:
            self._timeouts[txn_id] = seconds

    class _NoWaitWindow:
        def __init__(self, manager: "LockManager"):
            self._manager = manager

        def __enter__(self) -> None:
            local = self._manager._no_wait
            local.depth = getattr(local, "depth", 0) + 1

        def __exit__(self, *exc) -> None:
            self._manager._no_wait.depth -= 1

    def no_wait(self) -> "_NoWaitWindow":
        """Context manager: acquires on the current thread fail fast instead
        of sleeping.  Used for WAL group-commit deferred windows, where a
        lock wait would release the engine mutex and let another session's
        commit be acknowledged before the covering force."""
        return self._NoWaitWindow(self)

    def invalidate(self) -> int:
        """The engine's teardown: drop all lock state and wake every sleeper
        so it raises :class:`ServerCrashedError` instead of waiting on an
        engine that no longer exists.  Returns how many sleepers it woke."""
        with self._cond:
            evicted = len(self._waits_for)
            self._locks.clear()
            self._held.clear()
            self._row_counts.clear()
            self._waits_for.clear()
            self._timeouts.clear()
            self._generation += 1
            self._cond.notify_all()
            return evicted

    # ----------------------------------------------------------- acquisition

    def acquire(
        self, txn_id: int, table: str, mode: LockMode, *, row: int | None = None
    ) -> None:
        """Grant or upgrade a lock on ``table`` (or on row ``row`` of it),
        waiting if necessary.

        A request on a table the transaction holds X on (including after
        escalation) is covered: it returns at once and counts in no
        statistic.  A row request is X, and the caller already holds IX on
        the table — :meth:`~repro.engine.database.Database.lock_row_write`
        takes both.  It trips escalation when the transaction's row-lock
        count on the table reaches :data:`ESCALATION_THRESHOLD`.

        Raises :class:`DeadlockError` when waiting would close a cycle in
        the waits-for graph (the requester is the victim), plain
        :class:`LockError` when the wait budget expires, and
        :class:`ServerCrashedError` when the server dies mid-wait.
        """
        with self._cond:
            if self._locks.get((table, None), {}).get(txn_id) is _X:
                return
            self.stats.acquires += 1
            if row is not None:
                self.stats.row_acquires += 1
                if self._row_counts.get((txn_id, table), 0) >= ESCALATION_THRESHOLD:
                    self._escalate(txn_id, table)
                    return
            self._acquire_resource(txn_id, (table, row), mode)

    def _escalate(self, txn_id: int, table: str) -> None:
        """Trade the transaction's row and key locks on ``table`` for table X.

        The table lock waits like any other acquire; once granted, no other
        transaction holds IX on the table, hence none holds (or can acquire)
        row locks there — dropping ours frees memory without letting anyone
        slip past.
        """
        self.stats.escalations += 1
        self._acquire_resource(txn_id, (table, None), _X)
        held = self._held.get(txn_id, set())
        for resource in [r for r in held if r[0] == table and r[1] is not None]:
            holders = self._locks.get(resource)
            if holders is not None:
                holders.pop(txn_id, None)
                if not holders:
                    del self._locks[resource]
            held.discard(resource)
        self._row_counts.pop((txn_id, table), None)

    def _acquire_resource(self, txn_id: int, resource: Resource, mode: LockMode) -> None:
        """The grant/wait loop, shared by table- and row-level requests."""
        if self._try_grant(txn_id, resource, mode):
            return
        budget = self._timeouts.get(txn_id, self.default_timeout)
        if budget <= 0 or getattr(self._no_wait, "depth", 0):
            # no-wait (batch) windows keep their LockError contract — the
            # client's batch resubmission path owns that error shape
            raise self._conflict_error(txn_id, resource)
        generation = self._generation
        deadline = time.monotonic() + budget
        self.stats.waits += 1
        wait_started = time.monotonic()
        #: waits-for edges as this waiter first saw them (for the trace event)
        graph_at_sleep: dict[int, list[int]] = {}
        try:
            while True:
                blockers = self._blockers(txn_id, resource, mode)
                if not blockers:  # freed between checks
                    break
                self._waits_for[txn_id] = blockers
                if not graph_at_sleep:
                    graph_at_sleep = {
                        t: sorted(b) for t, b in self._waits_for.items()
                    }
                if self._in_cycle(txn_id):
                    self.stats.deadlocks += 1
                    raise DeadlockError(
                        f"transaction {txn_id} deadlocked on "
                        f"{self._resource_name(resource)} "
                        f"(victim; cycle through {sorted(blockers)})"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.stats.wait_timeouts += 1
                    raise self._conflict_error(txn_id, resource, waited=True)
                self._cond.wait(remaining)
                if self._generation != generation:
                    raise ServerCrashedError(
                        f"server crashed while transaction {txn_id} "
                        f"waited for a lock on {self._resource_name(resource)}"
                    )
                if self._try_grant(txn_id, resource, mode):
                    return
        finally:
            self._waits_for.pop(txn_id, None)
            waited = time.monotonic() - wait_started
            self.stats.total_wait_time += waited
            get_tracer().event(
                "lock.wait",
                table=resource[0],
                row=resource[1],
                mode=mode.value,
                wait_seconds=waited,
                waits_for={str(t): b for t, b in graph_at_sleep.items()},
            )
        # blockers vanished without a grant racing us — take the lock
        self._grant(txn_id, resource, mode)

    def _try_grant(self, txn_id: int, resource: Resource, mode: LockMode) -> bool:
        if self._blockers(txn_id, resource, mode):
            return False
        self._grant(txn_id, resource, mode)
        return True

    def _grant(self, txn_id: int, resource: Resource, mode: LockMode) -> None:
        holders = self._locks[resource]
        current = holders.get(txn_id)
        if current is not _X:
            holders[txn_id] = mode
        if current is None:
            self._held.setdefault(txn_id, set()).add(resource)
            if type(resource[1]) is int:  # a row, not the table or a key
                key = (txn_id, resource[0])
                self._row_counts[key] = self._row_counts.get(key, 0) + 1

    def _blockers(self, txn_id: int, resource: Resource, mode: LockMode) -> set[int]:
        """Transactions (other than the requester) preventing the grant:
        IX coexists with IX, X with nothing, and a held X covers either."""
        holders = self._locks[resource]
        current = holders.get(txn_id)
        if current is _X or current is mode:
            return set()
        return {
            t for t, m in holders.items() if t != txn_id and (mode is _X or m is _X)
        }

    def _in_cycle(self, start: int) -> bool:
        """DFS over the waits-for graph: does a path from ``start`` return
        to ``start``?  All edges live under the mutex, so the walk is
        consistent."""
        stack = list(self._waits_for.get(start, ()))
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._waits_for.get(node, ()))
        return False

    @staticmethod
    def _resource_name(resource: Resource) -> str:
        table, row = resource
        if row is None:
            return table
        return f"{table} {'key' if isinstance(row, tuple) else 'row'} {row}"

    def _conflict_error(
        self, txn_id: int, resource: Resource, *, waited: bool = False
    ) -> LockError:
        suffix = " (lock wait timeout)" if waited else ""
        return LockError(
            f"transaction {txn_id} blocked: {self._resource_name(resource)} "
            f"is locked by another transaction{suffix}"
        )

    # ----------------------------------------------------------- release / introspection

    def release_all(self, txn_id: int) -> None:
        """Drop every lock the transaction holds (commit/abort), waking
        waiters only when the transaction actually held something or
        someone was queued behind it — an empty-handed commit must not
        stampede every sleeper in the process."""
        with self._cond:
            held = self._held.pop(txn_id, None)
            waited_on = any(
                txn_id in blockers for blockers in self._waits_for.values()
            )
            if held:
                for resource in held:
                    holders = self._locks.get(resource)
                    if holders is not None:
                        holders.pop(txn_id, None)
                        if not holders:
                            del self._locks[resource]
                for key in [k for k in self._row_counts if k[0] == txn_id]:
                    del self._row_counts[key]
            self._timeouts.pop(txn_id, None)
            if held or waited_on:
                self._cond.notify_all()

    def held(self, txn_id: int, table: str, row: int | None = None) -> LockMode | None:
        with self._mutex:
            return self._locks.get((table, row), {}).get(txn_id)

    def holders(self, table: str, row: int | None = None) -> dict[int, LockMode]:
        with self._mutex:
            return dict(self._locks.get((table, row), {}))

    def held_by_another(self, txn_id: int, table: str, row) -> bool:
        """Whether a transaction other than ``txn_id`` holds ``row``."""
        with self._mutex:
            return any(t != txn_id for t in self._locks.get((table, row), ()))

    def row_locks_held(self, txn_id: int, table: str) -> int:
        """How many row locks the transaction holds on ``table`` (0 after
        escalation — the table lock subsumed them)."""
        with self._mutex:
            return self._row_counts.get((txn_id, table), 0)

    def waiting(self) -> dict[int, set[int]]:
        """Snapshot of the waits-for graph (observability/tests)."""
        with self._mutex:
            return {t: set(b) for t, b in self._waits_for.items()}
