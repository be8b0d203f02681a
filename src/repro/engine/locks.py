"""Multi-granularity lock manager: row/key locks under table intent locks.

The engine used to take whole-table S/X locks, so one hot table serialized
every writer behind a single X holder.  Locking is now **two-level**
(Gray's multi-granularity protocol): a transaction that wants a row first
takes an *intent* lock on the table (IS for row reads, IX for row writes),
then the actual S/X lock on the ``(table, rowid)`` resource.  Whole-table
operations (non-keyed scans, DDL) still take plain table S/X — the intent
modes are what make the two granularities conflict correctly without the
table-level path ever enumerating row locks.

Compatibility matrix (standard; symmetric)::

          IS   IX   S    SIX  X
    IS    ✓    ✓    ✓    ✓    ✗
    IX    ✓    ✓    ✗    ✗    ✗
    S     ✓    ✗    ✓    ✗    ✗
    SIX   ✓    ✗    ✗    ✗    ✗
    X     ✗    ✗    ✗    ✗    ✗

A transaction's held mode on a resource is the *supremum* of everything it
requested there (re-entrant acquires never self-conflict; ``sup(S, IX) =
SIX``).  Past :data:`ESCALATION_THRESHOLD` row locks on one table, a
transaction **escalates**: it takes the full table lock (S for reads, X
for writes) and drops its row locks — safe because the table lock
can only be granted once no other transaction holds an intent on the
table, at which point nobody else can hold or acquire row locks there.

Waiting, deadlines, and crash behaviour are unchanged from the
table-granular design, now operating on ``(table, rowid)`` resources:

* a **timeout** — per-transaction (``SET lock_timeout <ms>`` via
  :meth:`set_timeout`) falling back to :attr:`LockManager.default_timeout`
  (0 = historical fail-fast for standalone managers; the server installs
  :data:`DEFAULT_SERVER_WAIT`).
* a **waits-for-graph deadlock detector** — edges are transaction →
  transaction regardless of which granularity the conflict is at, so
  cycles that pass through a row lock on one side and a table (or intent)
  lock on the other are caught by the same DFS.  The requester is the
  victim and raises :class:`~repro.errors.DeadlockError`.
* **no-wait windows** — inside a WAL group-commit deferred window the
  worker must never sleep on any lock (row or table): waiting releases
  the engine mutex and another session's commit would be acknowledged
  before the covering group force.  :meth:`no_wait` marks the thread.
* :meth:`invalidate` (server crash) drops all two-level state and wakes
  every sleeper into :class:`~repro.errors.ServerCrashedError`.

The condition variable is built over the engine-wide mutex the server
installs via :meth:`use_mutex`; waiting releases the engine.  Every
completed wait emits a ``lock.wait`` trace event carrying the table, row,
requested mode, wait time, and the waits-for edges observed when the
waiter went to sleep — which is how the observability CLI reconstructs
the live graph after the fact.

S→X upgrade semantics (pinned by regression tests before waits landed)
fall out of the matrix: the upgrade is granted iff no *other* transaction
holds the resource — the upgrader's own re-entrant shared acquires never
block its own upgrade.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import defaultdict

from repro.errors import (
    DeadlockError,
    LockError,
    ServerCrashedError,
    ServerRestartingError,
)
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
    SHARED = "S"
    EXCLUSIVE = "X"
    INTENT_SHARED = "IS"
    INTENT_EXCLUSIVE = "IX"
    SHARED_INTENT_EXCLUSIVE = "SIX"
    # short aliases (enum aliasing by value): LockMode.IX is LockMode.INTENT_EXCLUSIVE
    S = "S"
    X = "X"
    IS = "IS"
    IX = "IX"
    SIX = "SIX"


_IS = LockMode.INTENT_SHARED
_IX = LockMode.INTENT_EXCLUSIVE
_S = LockMode.SHARED
_SIX = LockMode.SHARED_INTENT_EXCLUSIVE
_X = LockMode.EXCLUSIVE

#: mode -> the set of modes another transaction may hold concurrently
_COMPAT: dict[LockMode, frozenset[LockMode]] = {
    _IS: frozenset((_IS, _IX, _S, _SIX)),
    _IX: frozenset((_IS, _IX)),
    _S: frozenset((_IS, _S)),
    _SIX: frozenset((_IS,)),
    _X: frozenset(),
}

#: pairwise supremum of the mode lattice (held mode after a re-request)
_SUP: dict[tuple[LockMode, LockMode], LockMode] = {}
for _a in LockMode:
    for _b in LockMode:
        if _a is _b:
            _SUP[(_a, _b)] = _a
        elif _X in (_a, _b):
            _SUP[(_a, _b)] = _X
        elif _SIX in (_a, _b) or {_a, _b} == {_IX, _S}:
            _SUP[(_a, _b)] = _SIX
        elif _a is _IS:
            _SUP[(_a, _b)] = _b
        elif _b is _IS:
            _SUP[(_a, _b)] = _a
        else:  # unreachable: remaining pairs are covered above
            _SUP[(_a, _b)] = _X
del _a, _b

#: table-level modes that make an explicit row lock of the given mode
#: redundant (holding table X covers every row; S/SIX cover row reads)
_COVERS_ROW: dict[LockMode, frozenset[LockMode]] = {
    _S: frozenset((_S, _SIX, _X)),
    _X: frozenset((_X,)),
}

#: a resource is (table, rowid) — rowid None means the table itself
Resource = tuple[str, "int | None"]


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
    #: waiters evicted (or fail-fasted) by a planned-restart drain
    drain_bounces: int = 0
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
        #: (txn_id, table) -> row locks held there (escalation trigger)
        self._row_counts: dict[tuple[int, str], int] = {}
        self._mutex = threading.RLock()
        self._cond = threading.Condition(self._mutex)
        #: waiting txn -> set of txn_ids it is blocked behind (waits-for graph)
        self._waits_for: dict[int, set[int]] = {}
        #: waiting txn -> (table, row, mode) it is asking for (graph labels)
        self._wait_info: dict[int, tuple[str, int | None, LockMode]] = {}
        #: per-transaction wait budget override, seconds (``SET lock_timeout``)
        self._timeouts: dict[int, float] = {}
        #: standalone managers keep the historical fail-fast behaviour; the
        #: server raises this to DEFAULT_SERVER_WAIT when it installs its mutex
        self.default_timeout = 0.0
        #: bumped by :meth:`invalidate` (server crash) so sleepers learn the
        #: engine they were waiting on no longer exists
        self._generation = 0
        #: bumped by :meth:`bounce_waiters` (planned-restart drain deadline)
        #: so sleepers raise a retryable ServerRestartingError
        self._bounce_generation = 0
        #: set by :meth:`bounce_waiters`: the drain deadline has passed, so
        #: *new* wait attempts fail fast with ServerRestartingError too (a
        #: statement still in flight must not park behind a lock held by a
        #: transaction whose releasing commit is itself parked behind the
        #: drain barrier).  Never cleared: the swap discards this manager.
        self._draining = False
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

    def invalidate(self) -> None:
        """Server crash: drop all lock state and wake every sleeper so it
        raises :class:`ServerCrashedError` instead of waiting on an engine
        that no longer exists."""
        with self._cond:
            self._locks.clear()
            self._held.clear()
            self._row_counts.clear()
            self._waits_for.clear()
            self._wait_info.clear()
            self._timeouts.clear()
            self._generation += 1
            self._cond.notify_all()

    def bounce_waiters(self) -> int:
        """Planned-restart drain deadline: wake every sleeping waiter so it
        raises :class:`ServerRestartingError` instead of blocking the drain.

        Unlike :meth:`invalidate` this keeps all granted lock state — only
        *waiters* are evicted; each one's transaction is then aborted by the
        executor exactly like a deadlock victim, so the statement is safely
        retryable after the swap.  Returns the number of waiters evicted.
        """
        with self._cond:
            bounced = len(self._waits_for)
            self._bounce_generation += 1
            self._draining = True
            self.stats.drain_bounces += bounced
            self._cond.notify_all()
            return bounced

    # ----------------------------------------------------------- acquisition

    def acquire(
        self,
        txn_id: int,
        table: str,
        mode: LockMode,
        *,
        row: int | None = None,
        timeout: float | None = None,
    ) -> None:
        """Grant or upgrade a lock on ``table`` (or on row ``row`` of it),
        waiting if necessary.

        Row requests must be S or X and the caller must already hold the
        matching intent (IS/IX) on the table — :class:`~repro.engine
        .database.Database` wraps both steps.  A row request is satisfied
        without a row lock when the transaction's table-level mode already
        covers it (including after escalation), and trips escalation when
        the transaction's row-lock count on the table crosses
        :data:`ESCALATION_THRESHOLD`.

        Raises :class:`DeadlockError` when waiting would close a cycle in
        the waits-for graph (the requester is the victim), plain
        :class:`LockError` when the wait budget expires, and
        :class:`ServerCrashedError` when the server dies mid-wait.
        """
        with self._cond:
            self.stats.acquires += 1
            if row is not None:
                self.stats.row_acquires += 1
                table_mode = self._locks.get((table, None), {}).get(txn_id)
                if table_mode is not None and table_mode in _COVERS_ROW[mode]:
                    return
                if self._row_counts.get((txn_id, table), 0) >= ESCALATION_THRESHOLD:
                    self._escalate(txn_id, table, mode, timeout)
                    return
            self._acquire_resource(txn_id, (table, row), mode, timeout)

    def _escalate(
        self, txn_id: int, table: str, mode: LockMode, timeout: float | None
    ) -> None:
        """Trade the transaction's row locks on ``table`` for one full
        table lock (S for a read request, X for a write request).

        The table lock waits like any other acquire; once granted, no other
        transaction holds an intent on the table, hence none holds (or can
        acquire) row locks there — dropping ours frees memory without
        letting anyone slip past.
        """
        self.stats.escalations += 1
        self._acquire_resource(txn_id, (table, None), mode, timeout)
        held = self._held.get(txn_id, set())
        for resource in [r for r in held if r[0] == table and r[1] is not None]:
            holders = self._locks.get(resource)
            if holders is not None:
                holders.pop(txn_id, None)
                if not holders:
                    del self._locks[resource]
            held.discard(resource)
        self._row_counts.pop((txn_id, table), None)

    def _acquire_resource(
        self,
        txn_id: int,
        resource: Resource,
        mode: LockMode,
        timeout: float | None,
    ) -> None:
        """The grant/wait loop, shared by table- and row-level requests."""
        if self._try_grant(txn_id, resource, mode):
            return
        budget = timeout
        if budget is None:
            budget = self._timeouts.get(txn_id, self.default_timeout)
        if budget <= 0 or getattr(self._no_wait, "depth", 0):
            # no-wait (batch) windows keep their LockError contract — the
            # client's batch resubmission path owns that error shape
            raise self._conflict_error(txn_id, resource, mode)
        if self._draining:
            self.stats.drain_bounces += 1
            raise ServerRestartingError(
                f"server draining for planned restart: transaction {txn_id} "
                f"must not wait for a lock on {self._resource_name(resource)}"
            )
        generation = self._generation
        bounce_generation = self._bounce_generation
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
                self._wait_info[txn_id] = (resource[0], resource[1], mode)
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
                    raise self._conflict_error(txn_id, resource, mode, waited=True)
                self._cond.wait(remaining)
                if self._generation != generation:
                    raise ServerCrashedError(
                        f"server crashed while transaction {txn_id} "
                        f"waited for a lock on {self._resource_name(resource)}"
                    )
                if self._bounce_generation != bounce_generation:
                    raise ServerRestartingError(
                        f"server draining for planned restart: transaction "
                        f"{txn_id} bounced off its lock wait on "
                        f"{self._resource_name(resource)}"
                    )
                if self._try_grant(txn_id, resource, mode):
                    return
        finally:
            self._waits_for.pop(txn_id, None)
            self._wait_info.pop(txn_id, None)
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
        holders = self._locks[resource]
        current = holders.get(txn_id)
        target = mode if current is None else _SUP[(current, mode)]
        if current is target:
            return True  # already covered (re-entrant)
        if any(
            t != txn_id and target not in _COMPAT[m] for t, m in holders.items()
        ):
            return False
        self._grant(txn_id, resource, mode)
        return True

    def _grant(self, txn_id: int, resource: Resource, mode: LockMode) -> None:
        holders = self._locks[resource]
        current = holders.get(txn_id)
        holders[txn_id] = mode if current is None else _SUP[(current, mode)]
        if current is None:
            self._held.setdefault(txn_id, set()).add(resource)
            if resource[1] is not None:
                key = (txn_id, resource[0])
                self._row_counts[key] = self._row_counts.get(key, 0) + 1

    def _blockers(self, txn_id: int, resource: Resource, mode: LockMode) -> set[int]:
        """Transactions (other than the requester) preventing the grant."""
        holders = self._locks[resource]
        current = holders.get(txn_id)
        target = mode if current is None else _SUP[(current, mode)]
        if current is target:
            return set()
        return {
            t for t, m in holders.items() if t != txn_id and target not in _COMPAT[m]
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
        return table if row is None else f"{table} row {row}"

    def _conflict_error(
        self, txn_id: int, resource: Resource, mode: LockMode, *, waited: bool = False
    ) -> LockError:
        suffix = " (lock wait timeout)" if waited else ""
        name = self._resource_name(resource)
        if mode in (_S, _IS):
            return LockError(
                f"transaction {txn_id} blocked: {name} is exclusively locked{suffix}"
            )
        return LockError(
            f"transaction {txn_id} blocked: {name} is locked by another transaction{suffix}"
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

    def row_locks_held(self, txn_id: int, table: str) -> int:
        """How many row locks the transaction holds on ``table`` (0 after
        escalation — the table lock subsumed them)."""
        with self._mutex:
            return self._row_counts.get((txn_id, table), 0)

    def waiting(self) -> dict[int, set[int]]:
        """Snapshot of the waits-for graph (observability/tests)."""
        with self._mutex:
            return {t: set(b) for t, b in self._waits_for.items()}

    def waits_for_graph(self) -> list[dict]:
        """The live waits-for graph with resource labels, one entry per
        waiter — what ``python -m repro.obs --locks`` renders."""
        with self._mutex:
            out = []
            for txn_id, blockers in sorted(self._waits_for.items()):
                table, row, mode = self._wait_info.get(
                    txn_id, ("?", None, LockMode.EXCLUSIVE)
                )
                out.append(
                    {
                        "txn": txn_id,
                        "waits_for": sorted(blockers),
                        "table": table,
                        "row": row,
                        "mode": mode.value,
                    }
                )
            return out
