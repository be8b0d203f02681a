"""Statement and plan caching: stop re-parsing and re-planning hot SQL.

The paper's evaluation repeats statements relentlessly — TPC-H power runs
execute the same 22 query texts over and over, and Phoenix adds generated
statements of its own (fill procedures, status-table writes, a key cursor's
``WHERE 0=1`` probe).  The seed engine re-lexed, re-parsed, and re-built
a fresh ``_SelectPlan`` for every one of them.  This module provides the
reuse layers, the :class:`LRUCache` they are all made of, and the counters
that prove they work.  The rule they share: one parse per statement text,
and a parsed statement is never modified.

* The **parse cache** — ``DatabaseServer._parse_cache``, an
  ``LRUCache(PARSE_CACHE_CAPACITY)`` mapping raw SQL text to the parsed
  statement tuple.  Parsing is pure, so entries are shared across sessions;
  the server treats a parsed statement as immutable (only the client-side
  Phoenix interceptor rewrites ASTs, and it parses its own copies).  The
  cache is **volatile**: ``crash()`` discards it and restart recovery
  starts cold, exactly like every other non-logged structure.

* :class:`PlanCache` — one per database incarnation (``Database.plans``):
  a parsed statement → its compiled plans, shared by every session.
  Keys are object identities of statements returned by the parse cache or
  held by the procedure cache (entries pin the statement, so an id can never
  be reused while its entry lives), which makes hits O(1) with no
  re-rendering.  A compiled plan holds no session — each execution hands it
  a :class:`~repro.engine.expressions.RunContext` with the session's
  executor, its ``?`` and ``@name`` values and its memos — so the first
  session to run a text compiles it and every later one reuses the plan.
  It lives and dies with its database: a crash, a planned restart, a
  rewind and a time-travel snapshot's eviction drop the plans together
  with the tables they read.

  A plan is valid while **what it resolved** is unchanged, as seen from the
  session that looks: compilation records, per name in a FROM clause, the
  object the name stood for — the :class:`~repro.engine.table.Table` with
  its ``version`` (index DDL moves it), the view's text, or for a table
  *parameter* the columns of the table it named — and a lookup resolves the
  names again in the looking session and compares.  Dropping and
  re-creating a table, undoing its DDL, and a temp table that starts or
  stops shadowing it all make the name resolve to another object; DDL on
  anything else does not touch the plan — Phoenix creates a table for
  every SELECT it materialises, so a server-wide catalog counter would
  evict every plan at each one.  One statement keeps up to
  :data:`PLAN_VARIANTS` plans, most recently used first, so a session whose
  temp table shadows a name gets a plan of its own without evicting the
  one every other session runs.

  **Staleness by size.**  The join order is chosen from the row counts the
  compile saw, and a plan now outlives many sessions: a plan is also stale
  once a table it bound holds more than :data:`GROWTH` times the rows it
  held at compile, or fewer than 1/:data:`GROWTH` of them.  A refresh
  stream that adds or removes a small share of a table never trips it; a
  table loaded after its first query recompiles that query once per
  doubling.

  A lookup that finds plans for the statement but none valid counts as an
  *invalidation* and recompiles.

* The **procedure cache** — ``Database.procedure_parses``, an
  ``LRUCache(PROC_CACHE_CAPACITY)`` beside the plan cache, mapping a stored
  procedure's source text to its parsed ``CREATE PROCEDURE``.
  ``Executor._create_procedure`` primes it with the statement it is
  executing (which *is* the parse of the text it stores), so the ``EXEC``
  that follows in a Phoenix script parses nothing; ``DROP PROCEDURE`` and a
  rolled-back ``CREATE`` drop the entry; an ``EXEC`` that misses parses the
  catalog's text, which stays the durable truth.  Keyed on the text rather
  than the name, a leftover entry can never be *wrong* — a re-created
  procedure with another body has another key — only unused, and the LRU
  bounds those.  While it holds a procedure the body's statements keep
  their identity for every session, so their plans are shared too.

The client side has the same thing in front of the wire:
``repro.core.interceptor.statement_templates`` keeps application texts
parsed, classified and rendered in one process-wide LRU
(``functools.lru_cache``).

Every top-level SELECT / UNION, UPDATE, DELETE and INSERT … VALUES is
cached — of a request or of a procedure body.  A DML plan holds its
compiled WHERE, its SET or VALUES functions and the access path it chose;
its target binds like a FROM name, with no row count (the path reads
indexes, not sizes).  An INSERT whose VALUES are all literals, or whose
rows come from a SELECT (cached as itself), compiles nothing of its own and
is not kept: a plan of it would be a copy of its rows.  Neither kind of
parameter prevents caching: a compiled plan reads ``?`` placeholders,
``@name`` parameters and ``rowcount()`` from its execution's run context,
so the template is the cache key — four executions of one ``WHERE k = ?``
text with different values, from one session or four, are 1 parse miss + 3
parse hits and 1 plan miss + 3 plan hits, and so are four ``EXEC``s of one
procedure.  Phoenix's DML wrapper (``<dml>; INSERT INTO <status> VALUES (?,
rowcount())``) is two plans, compiled once per text.

:class:`EngineMetrics` aggregates the hit/miss/invalidation counters and is
surfaced through the bench harness next to the round-trip counts — the
paper's observability discipline applied to the engine's own hot path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.obs.metrics import CounterSet

__all__ = ["EngineMetrics", "ExecutorStats", "LRUCache", "PlanCache"]

#: Server-wide parse cache capacity (distinct SQL texts).
PARSE_CACHE_CAPACITY = 256
#: Plan cache capacity of one database (distinct cached statements).
PLAN_CACHE_CAPACITY = 256
#: Compiled plans kept per statement, for sessions that resolve its names
#: to different objects (a temp table shadowing a persistent one).
PLAN_VARIANTS = 4
#: A plan is stale once a table it bound has grown or shrunk past this
#: factor since compile: its join order read the old row count.
GROWTH = 2
#: Procedure cache capacity of one database (distinct stored procedure texts).
PROC_CACHE_CAPACITY = 128


class EngineMetrics(CounterSet):
    """Cache observability counters for one server.

    Cumulative across crashes and restarts like every
    :class:`~repro.obs.metrics.CounterSet` — they describe the simulation,
    not server state.  The *caches themselves* are volatile; the counters
    let tests prove it (a restart shows fresh misses for SQL that used to
    hit).
    """

    parse_hits: int = 0
    parse_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_invalidations: int = 0

    @property
    def parse_hit_rate(self) -> float:
        total = self.parse_hits + self.parse_misses
        return self.parse_hits / total if total else 0.0

    @property
    def plan_hit_rate(self) -> float:
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            **super().snapshot(),
            "parse_hit_rate": self.parse_hit_rate,
            "plan_hit_rate": self.plan_hit_rate,
        }


class ExecutorStats(CounterSet):
    """Access-path and pipeline counters for one server's executors.

    The observability surface of the executor — which access
    path each query actually took (PK probe, secondary equality, secondary
    range, full scan narrowed or not), how many rows it touched versus
    returned, and how often the index-ordered top-k shortcut fired.
    """

    #: base-table rows read by SELECT plans only (full scans + probe
    #: results + top-k streams): the candidates of an UPDATE / DELETE are
    #: not counted, whichever path found them
    rows_scanned: int = 0
    #: rows returned by SELECT plans (subquery and union parts included)
    rows_returned: int = 0
    #: PK / secondary equality probes executed, by SELECT plans and DML
    #: alike (a PK point DML probes once per pass of its lock loop); an
    #: ``IN (…)`` list counts one per distinct value it looks up
    index_eq_probes: int = 0
    #: secondary range probes executed (<, <=, >, >=, BETWEEN), likewise
    index_range_scans: int = 0
    #: ORDER BY ... LIMIT served by index-ordered streaming (no sort)
    topk_shortcuts: int = 0
    #: plans compiled — SELECT plans (subqueries, views and EXPLAIN
    #: included) and the UPDATE, DELETE and INSERT … VALUES plans the cache
    #: keeps; a plan-cache hit compiles nothing, so a warmed-up window
    #: reads 0 here
    compiled_plans: int = 0


class LRUCache:
    """Tiny LRU map: get/put/pop with least-recently-used eviction."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Any, Any] = OrderedDict()

    def get(self, key: Any) -> Any | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Any, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def pop(self, key: Any) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries


class _Plan:
    """One compiled plan of a statement, with what it was compiled against."""

    __slots__ = ("bindings", "sizes", "runner")

    def __init__(self, bindings: list[tuple[str, Any]], sizes: list[tuple[Any, int]], runner: Any):
        #: (name, what it resolved to) for every name the plan bound
        self.bindings = bindings
        #: (table, its row count at compile) for every table it bound
        self.sizes = sizes
        self.runner = runner

    def fits(self, resolve: Callable[[str], Any]) -> bool:
        for name, bound in self.bindings:
            if resolve(name) != bound:
                return False
        for table, rows in self.sizes:
            now = table.row_count()
            if now > rows * GROWTH or rows > now * GROWTH:
                return False
        return True


class _PlanEntry:
    __slots__ = ("stmt", "plans")

    def __init__(self, stmt: Any):
        #: strong reference pins the statement object: while this entry is
        #: alive, id(stmt) cannot be reused, so identity keys are sound.
        self.stmt = stmt
        #: most recently used first, at most PLAN_VARIANTS
        self.plans: list[_Plan] = []


class PlanCache:
    """Parsed statement (by identity) → compiled plans, each valid while
    every name it bound still resolves to what it resolved to at compile
    time and every table it bound is within :data:`GROWTH` of its size."""

    def __init__(self):
        self._cache = LRUCache(PLAN_CACHE_CAPACITY)

    def lookup(
        self, stmt: Any, resolve: Callable[[str], Any], metrics: EngineMetrics
    ) -> Any | None:
        """Return a cached runner for ``stmt`` valid for the looking
        session, else None.

        ``resolve(name)`` is what ``name`` stands for now, in that session.
        Plans that do not fit stay for the sessions they fit; a statement
        with plans none of which fits counts an invalidation (the recompile
        that follows is the miss counted here).
        """
        entry: _PlanEntry | None = self._cache.get(id(stmt))
        if entry is None or entry.stmt is not stmt:
            metrics.plan_misses += 1
            return None
        plans = entry.plans
        for index, plan in enumerate(plans):
            if plan.fits(resolve):
                if index:
                    plans.insert(0, plans.pop(index))
                metrics.plan_hits += 1
                return plan.runner
        metrics.plan_invalidations += 1
        metrics.plan_misses += 1
        return None

    def store(
        self,
        stmt: Any,
        bindings: list[tuple[str, Any]],
        runner: Any,
        sizes: list[tuple[Any, int]] = (),
    ) -> None:
        entry: _PlanEntry | None = self._cache.get(id(stmt))
        if entry is None or entry.stmt is not stmt:
            entry = _PlanEntry(stmt)
            self._cache.put(id(stmt), entry)
        entry.plans.insert(0, _Plan(bindings, list(sizes), runner))
        del entry.plans[PLAN_VARIANTS:]

    def __len__(self) -> int:
        return len(self._cache)
