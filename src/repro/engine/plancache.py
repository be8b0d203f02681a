"""Statement and plan caching: stop re-parsing and re-planning hot SQL.

The paper's evaluation repeats statements relentlessly — TPC-H power runs
execute the same 22 query texts over and over, and Phoenix adds generated
statements of its own (fill procedures, status-table writes, a key cursor's
``WHERE 0=1`` probe).  The seed engine re-lexed, re-parsed, and re-built
a fresh ``_SelectPlan`` for every one of them.  This module provides the
reuse layers, the :class:`LRUCache` they are all made of, and the counters
that prove they work.  The rule they share: one parse per statement text,
and a parsed statement is never modified.

* :class:`ParseCache` — server-wide LRU mapping raw SQL text to the parsed
  statement tuple.  Parsing is pure, so entries are shared across sessions.
  The cache lives on the :class:`~repro.engine.server.DatabaseServer` and is
  **volatile**: ``crash()`` discards it and restart recovery starts cold,
  exactly like every other non-logged structure.

* :class:`PlanCache` — per-session (per-:class:`~repro.engine.executor
  .Executor`) LRU mapping a parsed SELECT statement to its compiled plan.
  Keys are object identities of statements returned by the parse cache or
  held by the procedure cache (entries pin the statement, so an id can never
  be reused while its entry lives), which makes hits O(1) with no
  re-rendering.  An entry is valid while **what it resolved** is unchanged:
  compilation records, per name in a FROM clause, the object the name stood
  for — the :class:`~repro.engine.table.Table` with its ``version`` (index
  DDL moves it), the view's text, or for a table *parameter* the columns of
  the table it named — and a lookup resolves the names again and compares.
  Dropping and re-creating a table, undoing its DDL, and a temp table that
  starts or stops shadowing it all make the name resolve to another object;
  DDL on anything else does not touch the entry — Phoenix creates a table
  for every SELECT it materialises, so a server-wide catalog counter would
  evict every plan of every session at each one.

  A changed binding counts as an *invalidation* and recompiles.

* The **procedure cache** — per-executor ``LRUCache(PROC_CACHE_CAPACITY)``
  mapping a stored procedure's source text to its parsed ``CREATE
  PROCEDURE``.  ``Executor._create_procedure`` primes it with the statement
  it is executing (which *is* the parse of the text it stores), so the
  ``EXEC`` that follows in a Phoenix script parses nothing; ``DROP
  PROCEDURE`` and a rolled-back ``CREATE`` drop the entry; an ``EXEC`` that
  misses parses the catalog's text, which stays the durable truth.  Keyed on
  the text rather than the name, a leftover entry can never be *wrong* — a
  re-created procedure with another body has another key — only unused,
  and the LRU bounds those.  Volatile like the session that owns it.  While
  it holds a procedure the body's statements keep their identity, so their
  plans stay in the plan cache from one ``EXEC`` to the next.

The client side has the same thing in front of the wire:
``repro.core.interceptor.statement_templates`` keeps application texts
parsed and classified in one process-wide ``LRUCache``.

Only top-level SELECT / UNION statements are cached — of a request or of a
procedure body.  Neither kind of parameter prevents it: a compiled plan
reads ``?`` placeholders from one shared list and ``@name`` parameters from
one shared dict at run time, and ``Executor.execute_select`` rebinds both
per execution, so the template is the cache key — four executions of one
``WHERE k = ?`` text with different values are 1 parse miss + 3 parse hits
and 1 plan miss + 3 plan hits, and so are four ``EXEC``s of one procedure.

:class:`EngineMetrics` aggregates the hit/miss/invalidation counters and is
surfaced through the bench harness next to the round-trip counts — the
paper's observability discipline applied to the engine's own hot path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.obs.metrics import CounterSet

__all__ = ["EngineMetrics", "ExecutorStats", "LRUCache", "ParseCache", "PlanCache"]

#: Server-wide parse cache capacity (distinct SQL texts).
PARSE_CACHE_CAPACITY = 256
#: Per-session plan cache capacity (distinct cached statements).
PLAN_CACHE_CAPACITY = 128
#: Per-session procedure cache capacity (distinct stored procedure texts).
PROC_CACHE_CAPACITY = 64


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
    #: alike (a PK point DML probes once per pass of its lock loop)
    index_eq_probes: int = 0
    #: secondary range probes executed (<, <=, >, >=, BETWEEN), likewise
    index_range_scans: int = 0
    #: ORDER BY ... LIMIT served by index-ordered streaming (no sort)
    topk_shortcuts: int = 0
    #: SELECT plans compiled; a plan-cache hit compiles nothing, so a
    #: warmed-up window reads 0 here
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


class ParseCache:
    """SQL text → parsed statement tuple (server-wide, volatile).

    Statements handed out are shared: the server-side executor treats parsed
    ASTs as immutable (only the *client-side* Phoenix interceptor rewrites
    ASTs, and it parses its own copies), so one parse serves every session
    issuing the same text.
    """

    def __init__(self):
        self._cache = LRUCache(PARSE_CACHE_CAPACITY)

    def get(self, sql: str) -> tuple | None:
        return self._cache.get(sql)

    def put(self, sql: str, statements: tuple) -> None:
        self._cache.put(sql, tuple(statements))

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)


class _PlanEntry:
    __slots__ = ("stmt", "bindings", "runner")

    def __init__(self, stmt: Any, bindings: list[tuple[str, Any]], runner: Any):
        #: strong reference pins the statement object: while this entry is
        #: alive, id(stmt) cannot be reused, so identity keys are sound.
        self.stmt = stmt
        #: (name, what it resolved to) for every name the plan bound
        self.bindings = bindings
        self.runner = runner


class PlanCache:
    """Parsed statement (by identity) → compiled plan, valid while every
    name it bound still resolves to what it resolved to at compile time."""

    def __init__(self):
        self._cache = LRUCache(PLAN_CACHE_CAPACITY)

    def lookup(
        self, stmt: Any, resolve: Callable[[str], Any], metrics: EngineMetrics
    ) -> Any | None:
        """Return the cached runner for ``stmt`` if still valid, else None.

        ``resolve(name)`` is what ``name`` stands for now.  A changed
        binding evicts the entry and counts an invalidation (the recompile
        that follows is the miss counted here).
        """
        entry: _PlanEntry | None = self._cache.get(id(stmt))
        if entry is None or entry.stmt is not stmt:
            metrics.plan_misses += 1
            return None
        for name, bound in entry.bindings:
            if resolve(name) != bound:
                self._cache.pop(id(stmt))
                metrics.plan_invalidations += 1
                metrics.plan_misses += 1
                return None
        metrics.plan_hits += 1
        return entry.runner

    def store(self, stmt: Any, bindings: list[tuple[str, Any]], runner: Any) -> None:
        self._cache.put(id(stmt), _PlanEntry(stmt, bindings, runner))

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
