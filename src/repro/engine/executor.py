"""Statement execution.

One :class:`Executor` is created per (database, session) pair and executes
parsed statements.  SELECT goes through a straightforward materializing
pipeline (FROM → WHERE → GROUP/HAVING → project → DISTINCT → ORDER →
LIMIT); DML and DDL route through the logged mutation API for persistent
objects and through direct in-memory operations for session temp objects —
that split *is* the volatile/durable distinction the paper builds on.

Transaction discipline: with no explicit transaction open, each DML/DDL
statement runs in its own implicit transaction, committed (and the WAL
forced) before the reply — matching the autocommit behaviour Phoenix
assumes when it wraps statements.  Under a batched request the server puts
the WAL in deferred-force mode (:meth:`repro.engine.wal.WriteAheadLog
.begin_deferred`): each sub-statement still commits in order, but the
commit-time forces coalesce into one group force at the batch boundary —
the invariant is unchanged, no reply is released before the force covering
it lands; only *which* force covers a commit moves.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Any, Iterator

from repro.errors import (
    CatalogError,
    DataError,
    DeadlockError,
    NotSupportedError,
    ProgrammingError,
    ServerRestartingError,
    TransactionError,
)
from repro.engine import functions
from repro.engine.database import Database
from repro.engine.expressions import (
    CompiledExpr,
    Env,
    ExpressionCompiler,
    FLIPPED,
    PlaceholderList,
    Scope,
    is_constant,
    slot_of,
)
from repro.engine.plancache import (
    PROC_CACHE_CAPACITY,
    EngineMetrics,
    ExecutorStats,
    LRUCache,
    PlanCache,
)
from repro.engine.results import ResultSet, StatementResult
from repro.engine.schema import Column, schema_from_ast, type_spec_to_sql_type
from repro.engine.table import Table
from repro.engine.values import SqlType, compares_directly, one_nan, sort_key
from repro.engine.wal import RecordType
from repro.obs.tracer import get_tracer
from repro.sql import ast, parse_script
from repro.sql.walk import SUBQUERY_EXPRS, aggregate_calls, children, walk

__all__ = ["Executor"]

#: comparison operators usable as index probes (equality or range bound)
_PROBE_OPS = ("=", "<", "<=", ">", ">=")
#: the names a table parameter's argument may create a table under
_TABLE_NAME = re.compile(r"#?\w+")
#: sentinel from bounds evaluation: the probe constant cannot be coerced to
#: the column type, so the plan must fall back to the full scan — only the
#: per-row predicate may decide (and raise) there, keeping error semantics
#: identical to the unprobed path.
_FALLBACK_SCAN = object()
#: the probe kinds valued from a join's outer row -> the index each reads
_JOIN_PROBES = {"pk join": "pk", "secondary join": "secondary"}


def _as_of_timestamp(expr: "ast.Expr") -> float:
    """The timestamp an ``AS OF`` clause names.

    Only literals qualify: a placeholder would make the cut vary per
    execution while plan caches and Phoenix's statement log key on SQL
    text, so the moment must be spelled out in the statement itself.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, bool):
            pass  # bools are ints in Python; fall through to the error
        elif isinstance(value, (int, float)):
            return float(value)
        elif isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
    raise ProgrammingError(
        "AS OF expects a literal numeric timestamp (placeholders and "
        "expressions are not supported)"
    )


class Executor:
    """Executes AST statements for one session against one database."""

    def __init__(
        self,
        database: Database,
        session,
        *,
        metrics: EngineMetrics | None = None,
        stats: ExecutorStats | None = None,
    ):
        self.database = database
        self.session = session  # repro.engine.session.Session
        #: stored procedure text -> its parsed CREATE PROCEDURE.  Primed by
        #: CREATE (the statement in hand *is* the parse of the text stored),
        #: filled by a cold EXEC; volatile, like the session that owns it.
        self._proc_cache = LRUCache(PROC_CACHE_CAPACITY)
        #: shared server-wide counters (a private set when standalone)
        self.metrics = metrics if metrics is not None else EngineMetrics()
        #: access-path / pipeline counters (shared server-wide when wired)
        self.stats = stats if stats is not None else ExecutorStats()
        #: compiled-plan reuse for repeated top-level SELECTs
        self._plan_cache = PlanCache()
        #: while a plan is being compiled for the cache: (name, what it
        #: resolved to) for every table or view name the plan binds
        self._bindings: list[tuple[str, Any]] | None = None
        #: statement epoch, bumped at every top-level SELECT entry; compiled
        #: closures capture this cell so "once per statement" memos (uncorrelated
        #: subqueries, derived tables, views) recompute when a cached plan is
        #: re-run — see expressions._statement_memo.
        self._epoch_cell: list[int] = [0]

    # ------------------------------------------------------------ entry point

    def execute(
        self,
        stmt: ast.Statement,
        *,
        params: dict[str, Any] | None = None,
        placeholders: list | None = None,
    ) -> StatementResult:
        """Execute one statement with autocommit semantics (see module doc)."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("engine.stmt", stmt=type(stmt).__name__):
                return self._execute_traced(stmt, params=params, placeholders=placeholders)
        return self._execute_traced(stmt, params=params, placeholders=placeholders)

    def _execute_traced(
        self,
        stmt: ast.Statement,
        *,
        params: dict[str, Any] | None = None,
        placeholders: list | None = None,
    ) -> StatementResult:
        if isinstance(stmt, ast.BeginTransaction):
            return self._begin()
        if isinstance(stmt, ast.Commit):
            return self._commit()
        if isinstance(stmt, ast.Rollback):
            return self._rollback()
        if isinstance(stmt, ast.SetOption):
            self.session.options[stmt.name] = stmt.value
            return StatementResult.ok(f"SET {stmt.name}")
        if isinstance(stmt, ast.Checkpoint):
            lsn = self.database.checkpoint()
            return StatementResult.ok(f"CHECKPOINT at {lsn}")
        if isinstance(stmt, ast.Explain):
            if isinstance(stmt.select, ast.UnionSelect):
                lines = []
                for i, part in enumerate(stmt.select.parts):
                    flag = (
                        "" if i == 0
                        else (" ALL" if stmt.select.all_flags[i - 1] else "")
                    )
                    lines.append(f"Union{flag} part {i + 1}:")
                    part_plan = _SelectPlan(self, part, params or {}, placeholders or [], None)
                    lines.extend("  " + line for line in part_plan.describe())
            else:
                plan = _SelectPlan(
                    self, stmt.select, params or {}, placeholders or [], None
                )
                lines = plan.describe()
            return StatementResult.rows(
                ResultSet(
                    columns=[Column("plan", SqlType.VARCHAR)],
                    rows=[(line,) for line in lines],
                )
            )
        if isinstance(stmt, (ast.Select, ast.UnionSelect)) and stmt.into is None:
            result_set = self.execute_select(
                stmt, params=params, placeholders=placeholders
            )
            return StatementResult.rows(result_set)

        # Everything else mutates: run inside a transaction.
        autocommit = self.session.current_txn is None
        txn = self._begin_txn() if autocommit else self.session.current_txn
        statement_mark = len(txn.records)
        try:
            bound = PlaceholderList(placeholders or [])
            result = self._execute_mutation(stmt, txn, params or {}, bound)
            # a ?-template needing more values than were bound must error
            # even when no row was touched (e.g. a filter over an empty
            # table); the raise lands in the rollback path below
            bound.check_bound()
        except BaseException as exc:
            if self.database.dead:
                # The server crashed out from under this statement (e.g. a
                # lock wait interrupted by crash()): the volatile engine is
                # gone, so there is nothing to undo — and above all no WAL
                # write may happen after the crash point.
                self.session.current_txn = None
            elif isinstance(exc, (DeadlockError, ServerRestartingError)):
                # Deadlock victim, or a waiter bounced off the planned-restart
                # drain barrier: the *whole* transaction aborts — its locks
                # must release so the surviving side (or the drain) can
                # proceed.  The client sees a distinguishable, retryable
                # error (the transaction is gone, so a replay is safe).
                self._abort(txn)
                self.session.current_txn = None
            elif autocommit:
                self._abort(txn)
            else:
                # statement-level atomicity: a failed statement inside an
                # explicit transaction rolls back only its own effects
                self._forget_procedures(txn.records[statement_mark:])
                self.database.rollback_statement(txn, statement_mark)
            raise
        if autocommit:
            self.database.commit(txn)
        # rowcount() reflects the immediately preceding statement: DML sets
        # it, any other mutation (DDL, EXEC returning rows) resets it to 0 —
        # sticky values would leak a *previous* statement's count into the
        # Phoenix status table when a wrapped DDL records its outcome.
        self.session.last_rowcount = (
            result.rowcount if result.kind == "rowcount" else 0
        )
        return result

    def execute_sql(self, sql: str, **kwargs) -> StatementResult:
        """Parse and execute a batch; returns the last statement's result."""
        result = StatementResult.ok()
        for stmt in parse_script(sql):
            result = self.execute(stmt, **kwargs)
        return result

    # ------------------------------------------------------------ transactions

    def _begin_txn(self):
        """Start an engine transaction carrying the session's lock-wait
        budget (``SET lock_timeout <ms>``) into the lock manager."""
        txn = self.database.begin()
        timeout_ms = self.session.options.get("lock_timeout")
        if isinstance(timeout_ms, (int, float)) and not isinstance(timeout_ms, bool):
            self.database.locks.set_timeout(txn.txn_id, timeout_ms / 1000.0)
        return txn

    def _begin(self) -> StatementResult:
        if self.session.current_txn is not None:
            raise TransactionError("transaction already in progress")
        self.session.current_txn = self._begin_txn()
        return StatementResult.ok("BEGIN")

    def _commit(self) -> StatementResult:
        txn = self.session.current_txn
        if txn is None:
            raise TransactionError("no transaction in progress")
        self.database.commit(txn)
        self.session.current_txn = None
        return StatementResult.ok("COMMIT")

    def _rollback(self) -> StatementResult:
        txn = self.session.current_txn
        if txn is None:
            raise TransactionError("no transaction in progress")
        self._abort(txn)
        self.session.current_txn = None
        return StatementResult.ok("ROLLBACK")

    def _abort(self, txn) -> None:
        self._forget_procedures(txn.records)
        self.database.abort(txn)

    def _forget_procedures(self, records) -> None:
        """A CREATE PROCEDURE being rolled back leaves nothing to EXEC:
        drop the parse that was primed for it."""
        for record in records:
            if record.type is RecordType.CREATE_PROC:
                self._proc_cache.pop(record.proc_sql)

    # ------------------------------------------------------------ mutation dispatch

    def _execute_mutation(
        self, stmt: ast.Statement, txn, params: dict[str, Any], placeholders: list
    ) -> StatementResult:
        if isinstance(stmt, (ast.Select, ast.UnionSelect)):  # SELECT ... INTO
            return self._select_into(stmt, txn, params, placeholders)
        if isinstance(stmt, ast.Insert):
            return self._insert(stmt, txn, params, placeholders)
        if isinstance(stmt, ast.Update):
            return self._update(stmt, txn, params, placeholders)
        if isinstance(stmt, ast.Delete):
            return self._delete(stmt, txn, params, placeholders)
        if isinstance(stmt, ast.CreateTable):
            return self._create_table(stmt, txn)
        if isinstance(stmt, ast.DropTable):
            return self._drop_table(stmt, txn)
        if isinstance(stmt, ast.CreateIndex):
            return self._create_index(stmt, txn)
        if isinstance(stmt, ast.DropIndex):
            return self._drop_index(stmt, txn)
        if isinstance(stmt, ast.CreateView):
            return self._create_view(stmt, txn)
        if isinstance(stmt, ast.DropView):
            return self._drop_view(stmt, txn)
        if isinstance(stmt, ast.CreateProcedure):
            return self._create_procedure(stmt, txn)
        if isinstance(stmt, ast.DropProcedure):
            return self._drop_procedure(stmt, txn)
        if isinstance(stmt, ast.ExecProcedure):
            return self._exec_procedure(stmt, txn, params, placeholders)
        raise NotSupportedError(f"statement {type(stmt).__name__} is not supported")

    # ------------------------------------------------------------ name resolution

    def resolve_table(self, name: str) -> tuple[Table, bool]:
        """Find a table by name; session temp tables shadow persistent ones.

        Returns (table, is_temp).
        """
        lowered = name.lower()
        temp = self.session.temp_tables.get(lowered)
        if temp is not None:
            return temp, True
        return self.database.get_table(lowered), False

    def table_exists(self, name: str) -> bool:
        lowered = name.lower()
        return lowered in self.session.temp_tables or self.database.has_table(lowered)

    def table_name(self, name: str, params: dict[str, Any]) -> str:
        """The table a statement names: ``name`` itself, or what the
        procedure's caller passed for ``@name``."""
        if name[0] != "@":
            return name
        value = params.get(name[1:].lower())
        if not isinstance(value, str):
            raise ProgrammingError(f"parameter {name} does not name a table: {value!r}")
        return value

    def _binding(self, name: str, params: dict[str, Any]) -> Any:
        """What the FROM name ``name`` stands for right now, as a value that
        compares equal exactly while a plan compiled against it stays valid:
        the table object (a dropped and re-created, undone or shadowed table
        is another object) with its version (index DDL moves it), a view's
        text, None for nothing; for a table parameter the named table's
        columns — such a plan finds its table at run time."""
        lowered = self.table_name(name, params).lower()
        table = self.session.temp_tables.get(lowered)
        if table is None:
            table = self.database.tables.get(lowered)
        if name[0] == "@":
            return None if table is None else table.schema.columns
        if table is not None:
            return (table, table.version)
        return self.database.views.get(lowered)

    def bind(self, name: str, params: dict[str, Any]) -> None:
        """A plan under compilation resolves ``name``: a cached plan keeps
        what it found, and is valid while :meth:`_binding` finds the same."""
        if self._bindings is not None:
            self._bindings.append((name, self._binding(name, params)))

    def clear_caches(self) -> None:
        """Drop every compiled plan and parsed procedure.  Their closures
        hold the tables they read, and this executor holds them: cleared, a
        dead engine is freed by reference count, not by the collector."""
        self._plan_cache.clear()
        self._proc_cache.clear()

    # ------------------------------------------------------------ DDL

    def _create_table(self, stmt: ast.CreateTable, txn) -> StatementResult:
        schema = schema_from_ast(stmt)
        if self.table_exists(schema.name):
            if stmt.if_not_exists:
                return StatementResult.ok(f"table {schema.name} exists")
            raise CatalogError(f"table {schema.name} already exists")
        if schema.temporary:
            self.session.temp_tables[schema.name] = Table.create(schema)
        else:
            self.database.create_table(txn, schema)
        return StatementResult.ok(f"CREATE TABLE {schema.name}")

    def _drop_table(self, stmt: ast.DropTable, txn) -> StatementResult:
        name = stmt.name.lower()
        if name in self.session.temp_tables:
            del self.session.temp_tables[name]
            return StatementResult.ok(f"DROP TABLE {name}")
        if not self.database.has_table(name):
            if stmt.if_exists:
                return StatementResult.ok(f"table {name} absent")
            raise CatalogError(f"table {name} does not exist")
        self.database.drop_table(txn, name)
        return StatementResult.ok(f"DROP TABLE {name}")

    def _create_index(self, stmt: ast.CreateIndex, txn) -> StatementResult:
        name = stmt.name.lower()
        table = stmt.table.lower()
        if table in self.session.temp_tables:
            raise NotSupportedError("indexes on temp tables are not supported")
        self.database.create_index(txn, name, table, stmt.column.lower())
        return StatementResult.ok(f"CREATE INDEX {name}")

    def _drop_index(self, stmt: ast.DropIndex, txn) -> StatementResult:
        name = stmt.name.lower()
        if not self.database.has_index(name):
            if stmt.if_exists:
                return StatementResult.ok(f"index {name} absent")
            from repro.errors import CatalogError as _CatalogError

            raise _CatalogError(f"index {name} does not exist")
        self.database.drop_index(txn, name)
        return StatementResult.ok(f"DROP INDEX {name}")

    def _create_view(self, stmt: ast.CreateView, txn) -> StatementResult:
        name = stmt.name.lower()
        if self.table_exists(name) or self.database.has_view(name):
            raise CatalogError(f"name {name} is already in use")
        # plan the defining query now: unknown tables/columns fail at
        # CREATE VIEW time, not first use (and the column list must fit)
        meta = _SelectPlan(self, stmt.select, {}, [], None)
        if stmt.columns and len(stmt.columns) != len(meta.output_columns):
            raise CatalogError(
                f"view {name} names {len(stmt.columns)} columns but its query "
                f"produces {len(meta.output_columns)}"
            )
        self.database.create_view(txn, name, stmt.sql())
        return StatementResult.ok(f"CREATE VIEW {name}")

    def _drop_view(self, stmt: ast.DropView, txn) -> StatementResult:
        name = stmt.name.lower()
        if not self.database.has_view(name):
            if stmt.if_exists:
                return StatementResult.ok(f"view {name} absent")
            raise CatalogError(f"view {name} does not exist")
        self.database.drop_view(txn, name)
        return StatementResult.ok(f"DROP VIEW {name}")

    def view_definition(self, name: str) -> ast.CreateView | None:
        """Parsed CREATE VIEW statement for ``name``, or None."""
        source = self.database.views.get(name.lower())
        if source is None:
            return None
        from repro.sql import parse

        parsed = parse(source)
        assert isinstance(parsed, ast.CreateView)
        return parsed

    def _create_procedure(self, stmt: ast.CreateProcedure, txn) -> StatementResult:
        name = stmt.name.lower()
        exists = name in self.session.temp_procedures or self.database.has_procedure(name)
        if exists:
            raise CatalogError(f"procedure {name} already exists")
        source = stmt.sql()
        if stmt.temporary:
            self.session.temp_procedures[name] = source
        else:
            self.database.create_procedure(txn, name, source)
        # EXEC looks the procedure up by the text just stored, and ``stmt`` is
        # what parsing that text yields: keep it, so the EXEC parses nothing
        self._proc_cache.put(source, stmt)
        return StatementResult.ok(f"CREATE PROCEDURE {name}")

    def _drop_procedure(self, stmt: ast.DropProcedure, txn) -> StatementResult:
        name = stmt.name.lower()
        if name in self.session.temp_procedures:
            self._proc_cache.pop(self.session.temp_procedures.pop(name))
            return StatementResult.ok(f"DROP PROCEDURE {name}")
        if not self.database.has_procedure(name):
            if stmt.if_exists:
                return StatementResult.ok(f"procedure {name} absent")
            raise CatalogError(f"procedure {name} does not exist")
        self._proc_cache.pop(self.database.get_procedure(name))
        self.database.drop_procedure(txn, name)
        return StatementResult.ok(f"DROP PROCEDURE {name}")

    # ------------------------------------------------------------ procedures

    def _exec_procedure(
        self, stmt: ast.ExecProcedure, txn, params: dict[str, Any], placeholders: list
    ) -> StatementResult:
        name = stmt.name.lower()
        source = self.session.temp_procedures.get(name) or (
            self.database.procedures.get(name)
        )
        if source is None:
            raise CatalogError(f"procedure {name} does not exist")
        proc = self._proc_cache.get(source)
        if proc is None:
            from repro.sql import parse

            parsed = parse(source)
            if not isinstance(parsed, ast.CreateProcedure):
                raise CatalogError(f"stored text of {name} is not a procedure")
            proc = parsed
            self._proc_cache.put(source, proc)
        if len(stmt.args) != len(proc.params):
            raise ProgrammingError(
                f"procedure {name} expects {len(proc.params)} args, got {len(stmt.args)}"
            )
        # Evaluate call arguments in a rowless scope (constants / outer params).
        scope = Scope()
        compiler = ExpressionCompiler(
            scope, self, params=params, placeholders=placeholders
        )
        env = Env(values=[])
        bound: dict[str, Any] = {}
        for (pname, ptype), arg in zip(proc.params, stmt.args):
            value = compiler.compile(arg)(env)
            if ptype is not None:
                value = Column(
                    pname.lower(), type_spec_to_sql_type(ptype), length=ptype.length
                ).coerce(value)
            bound[pname.lower()] = value
        result = StatementResult.ok(f"EXEC {name}")
        into_columns = None
        for body_stmt in proc.body:
            if isinstance(body_stmt, (ast.Select, ast.UnionSelect)) and body_stmt.into is None:
                result = StatementResult.rows(
                    self.execute_select(body_stmt, params=bound)
                )
            else:
                result = self._execute_mutation(body_stmt, txn, bound, [])
                into_columns = result.extra.get("into_columns", into_columns)
        if into_columns is not None:
            # the description of the body's last SELECT ... INTO rides with
            # whatever the procedure answers (its read-back of that table)
            result.extra["into_columns"] = into_columns
        return result

    # ------------------------------------------------------------ DML

    def _insert(
        self, stmt: ast.Insert, txn, params: dict[str, Any], placeholders: list
    ) -> StatementResult:
        table, is_temp = self.resolve_table(stmt.table)
        schema = table.schema
        if stmt.columns is not None:
            positions = [schema.column_index(c.lower()) for c in stmt.columns]
        else:
            positions = list(range(len(schema.columns)))

        def make_full_row(values: list) -> list:
            if len(values) != len(positions):
                raise ProgrammingError(
                    f"INSERT expects {len(positions)} values, got {len(values)}"
                )
            full: list = [None] * len(schema.columns)
            for pos, value in zip(positions, values):
                full[pos] = value
            return full

        count = 0
        if stmt.select is not None:
            result = self.execute_select(stmt.select, params=params, placeholders=placeholders)
            for row in result.rows:
                self._insert_row(table, is_temp, txn, make_full_row(list(row)))
                count += 1
        else:
            scope = Scope()
            compiler = ExpressionCompiler(scope, self, params=params, placeholders=placeholders)
            env = Env(values=[])
            for row_exprs in stmt.rows or []:
                values = [compiler.compile(e)(env) for e in row_exprs]
                self._insert_row(table, is_temp, txn, make_full_row(values))
                count += 1
        return StatementResult.count(count, f"INSERT {count}")

    def _insert_row(self, table: Table, is_temp: bool, txn, full_row: list) -> None:
        if is_temp:
            table.insert(table.schema.coerce_row(full_row))
        else:
            self.database.insert_row(txn, table.name, full_row)

    def _dml_lock_candidates(self, txn, table: Table, is_temp: bool, where, compiler, scope):
        """Lock and return the (rowid, row) candidates of an UPDATE/DELETE.

        The access path is the SELECT planner's (:func:`_index_probe`),
        chosen once per statement; the predicate is still applied in full
        to what comes back.  Its kind decides the lock granularity:

        A primary-key probe locks only the touched rows: lock, then
        re-probe, looping until the candidate set is stable under the held
        row locks.  The loop is the row-granularity form of the
        lock-before-scan rule: a candidate computed before a lock wait may
        be a dirty read (the victim aborted mid-wait; the key now lives in
        a different row, or nowhere), and values pre-computed from it must
        never be applied.  Each iteration re-reads after its locks are
        granted, so the set returned was probed entirely under held locks —
        committed state only.

        Everything else — full scans, secondary-index equality and range
        probes — takes the whole-table X lock *before* the probe or scan is
        evaluated.
        """
        probe = _index_probe(table, 0, _split_conjuncts(where), scope, compiler)
        env = Env(values=[None] * scope.slot_count)

        def candidates() -> list[tuple[int, tuple]]:
            rowids = None if probe is None else _probe_rowids(table, probe, env, self.stats)
            if rowids is None:
                return list(table.scan())
            return [(rowid, table.get(rowid)) for rowid in rowids]

        if is_temp:
            return candidates()
        if probe is None or probe[2] != "pk":
            self.database.lock_write(txn, table.name)
            return candidates()
        locked: set[int] = set()
        while True:
            found = candidates()
            fresh = [rowid for rowid, _row in found if rowid not in locked]
            if not fresh:
                return found
            for rowid in fresh:
                self.database.lock_row_write(txn, table.name, rowid)
            locked.update(fresh)

    def _update(
        self, stmt: ast.Update, txn, params: dict[str, Any], placeholders: list
    ) -> StatementResult:
        table, is_temp = self.resolve_table(stmt.table)
        schema = table.schema
        scope = Scope()
        scope.add_source(stmt.table, schema.column_names)
        compiler = ExpressionCompiler(scope, self, params=params, placeholders=placeholders)
        where = compiler.compile_predicate(stmt.where) if stmt.where is not None else None
        assignments = [
            (schema.column_index(col.lower()), compiler.compile(expr))
            for col, expr in stmt.assignments
        ]
        # Lock before evaluating anything row-dependent: candidate rows and
        # assignment inputs must never be computed from another
        # transaction's uncommitted writes — a waiter that pre-computed new
        # values from a dirty read would apply them verbatim after the
        # holder aborts.  Keyed point updates lock just the touched rows
        # (see _dml_lock_candidates); everything else locks the table.
        # Snapshot first: assignments must see pre-statement values and the
        # scan must not chase its own writes.
        targets: list[tuple[int, tuple]] = []
        for rowid, row in self._dml_lock_candidates(
            txn, table, is_temp, stmt.where, compiler, scope
        ):
            env = Env(values=list(row))
            if where is None or where(env) is True:
                targets.append((rowid, row))
        for rowid, row in targets:
            env = Env(values=list(row))
            new_row = list(row)
            for index, value_fn in assignments:
                new_row[index] = value_fn(env)
            if is_temp:
                table.update(rowid, schema.coerce_row(new_row))
            else:
                self.database.update_row(txn, table.name, rowid, new_row)
        return StatementResult.count(len(targets), f"UPDATE {len(targets)}")

    def _delete(
        self, stmt: ast.Delete, txn, params: dict[str, Any], placeholders: list
    ) -> StatementResult:
        table, is_temp = self.resolve_table(stmt.table)
        scope = Scope()
        scope.add_source(stmt.table, table.schema.column_names)
        compiler = ExpressionCompiler(scope, self, params=params, placeholders=placeholders)
        where = compiler.compile_predicate(stmt.where) if stmt.where is not None else None
        # Same lock-before-scan rule as UPDATE: the candidate set must not
        # reflect another transaction's uncommitted rows.  Keyed point
        # deletes lock just the touched rows; the rest lock the table.
        targets = [
            rowid
            for rowid, row in self._dml_lock_candidates(
                txn, table, is_temp, stmt.where, compiler, scope
            )
            if where is None or where(Env(values=list(row))) is True
        ]
        for rowid in targets:
            if is_temp:
                table.delete(rowid)
            else:
                self.database.delete_row(txn, table.name, rowid)
        return StatementResult.count(len(targets), f"DELETE {len(targets)}")

    def _select_into(
        self,
        stmt: "ast.Select | ast.UnionSelect",
        txn,
        params: dict[str, Any],
        placeholders: list,
    ) -> StatementResult:
        """``SELECT ... INTO t`` — materialize the result of any query the
        executor can run (a UNION, an ``AS OF`` read of the past: the rows
        come from the snapshot, the table is created in the live database,
        as for ``INSERT INTO t SELECT ... AS OF``) as a new table.  The
        table stores uniquified column names; the reply describes the
        query's own (``into_columns``)."""
        assert stmt.into is not None
        target = self.table_name(stmt.into, params)
        if target is not stmt.into and not _TABLE_NAME.fullmatch(target):
            raise ProgrammingError(f"parameter {stmt.into} names no table it could create: {target!r}")
        result = self.execute_select(stmt, params=params, placeholders=placeholders)
        schema = result.to_schema(target.lower())
        if self.table_exists(schema.name):
            raise CatalogError(f"table {schema.name} already exists")
        if schema.temporary:
            table = Table.create(schema)
            self.session.temp_tables[schema.name] = table
            for row in result.rows:
                table.insert(schema.coerce_row(list(row)))
        else:
            self.database.create_table(txn, schema)
            for row in result.rows:
                self.database.insert_row(txn, schema.name, list(row))
        outcome = StatementResult.count(len(result.rows), f"SELECT INTO {schema.name}")
        outcome.extra["into_columns"] = result.columns
        return outcome

    # ------------------------------------------------------------ SELECT pipeline

    def execute_select(
        self,
        select: "ast.Select | ast.UnionSelect",
        *,
        params: dict[str, Any] | None = None,
        placeholders: list | None = None,
        outer_scope: Scope | None = None,
        outer_env: Env | None = None,
    ) -> ResultSet:
        """Run the full SELECT pipeline and return a materialized result."""
        top_level = outer_scope is None and outer_env is None
        if (
            top_level
            and getattr(select, "as_of", None) is not None
            and getattr(self, "as_of_cut", None) is None
        ):
            # Point-in-time query: route to the snapshot executor for the
            # cut.  Snapshot executors carry ``as_of_cut`` — they already
            # *are* the requested moment, so they fall through and run the
            # same AST normally (the as_of field is resolved, not recursed
            # on).
            return self._execute_as_of(select, params=params, placeholders=placeholders)
        if top_level:
            # new statement epoch: per-statement memos inside any reused
            # compiled plan (uncorrelated subqueries, derived tables, views)
            # must recompute so intervening DML is visible.
            self._epoch_cell[0] += 1
            # The compiled plan reads ``?`` from its shared placeholder list
            # and ``@name`` from its shared parameter dict at run time, so
            # rebinding the two re-parameterizes the cached plan without a
            # recompile: the template (of a request or of a procedure body)
            # keys the cache.
            runner = self._cached_runner(select, params or {})
            runner.placeholders[:] = placeholders or []
            runner.placeholders.check_bound()
            return runner.run(None)
        bound = PlaceholderList(placeholders or [])
        if isinstance(select, ast.UnionSelect):
            runner = _UnionRunner(self, select, params or {}, bound, outer_scope)
            bound.check_bound()
            return runner.run(outer_env)
        plan = _SelectPlan(self, select, params or {}, bound, outer_scope)
        bound.check_bound()
        return plan.run(outer_env)

    def _execute_as_of(
        self,
        select: "ast.Select | ast.UnionSelect",
        *,
        params: dict[str, Any] | None = None,
        placeholders: list | None = None,
    ) -> ResultSet:
        """Run ``select`` against the committed state at its ``AS OF``
        timestamp (see :mod:`repro.engine.timetravel`)."""
        manager = self.database.time_travel
        if manager is None:
            raise NotSupportedError(
                "AS OF queries need a server-managed database "
                "(no time-travel manager is attached)"
            )
        ts = _as_of_timestamp(select.as_of)
        manager.stats.as_of_queries += 1
        snapshot = manager.snapshot_at(ts)
        return snapshot.executor.execute_select(
            select, params=params, placeholders=placeholders
        )

    def _cached_runner(self, select: "ast.Select | ast.UnionSelect", params: dict[str, Any]):
        """Compiled plan for a top-level SELECT with ``params`` bound,
        reused across executions while every name it resolved stands for
        what it stood for (see :meth:`_binding`).  Keys are statement object
        identities — the server-side parse cache returns the *same* AST
        objects for repeated SQL text, the procedure cache for repeated
        ``EXEC``s, and the entry pins the statement so the id stays
        unambiguous."""
        runner = self._plan_cache.lookup(
            select, lambda name: self._binding(name, params), self.metrics
        )
        if runner is not None:
            runner.params.update(params)  # same names every time: the procedure's
            return runner
        own = dict(params)  # the plan's container, rebound above from now on
        self._bindings = bindings = []
        try:
            if isinstance(select, ast.UnionSelect):
                runner = _UnionRunner(self, select, own, PlaceholderList(), None)
            else:
                runner = _SelectPlan(self, select, own, PlaceholderList(), None)
        finally:
            self._bindings = None
        self._plan_cache.store(select, bindings, runner)
        return runner

    # -- SubqueryRunner protocol ------------------------------------------------

    def prepare_subquery(
        self, select: ast.Select, scope: Scope, params: dict[str, Any], placeholders: list
    ):
        """Plan a subquery once against ``scope``; returns (rows_fn,
        correlated).  ``rows_fn(env)`` re-runs the compiled plan with the
        outer row's environment — compilation happens exactly once per
        statement, which is what makes correlated subqueries affordable.
        ``params`` and ``placeholders`` are the enclosing statement's own
        containers, so rebinding them reaches the subquery too."""
        if isinstance(select, ast.UnionSelect):
            runner = _UnionRunner(self, select, params, placeholders, scope)

            def union_rows(env: Env) -> list[tuple]:
                return runner.run(env).rows

            return union_rows, runner.correlated
        probe = Scope(parent=scope)
        plan = _SelectPlan(self, select, params, placeholders, scope, probe_scope=probe)

        def rows_fn(env: Env) -> list[tuple]:
            return plan.run(env).rows

        return rows_fn, probe.used_parent


class _SelectPlan:
    """One compiled SELECT: scope, compiled filters, and the row pipeline."""

    def __init__(
        self,
        executor: Executor,
        select: ast.Select,
        params: dict[str, Any],
        placeholders: list,
        outer_scope: Scope | None,
        probe_scope: Scope | None = None,
    ):
        self.executor = executor
        self.select = select
        self.params = params
        self.placeholders = placeholders
        self.scope = probe_scope if probe_scope is not None else Scope(parent=outer_scope)
        #: Column metadata per scope slot, parallel to scope slots.
        self.slot_columns: list[Column] = []
        #: (binding, rows supplier) in scope order
        self.sources: list[_Source] = []
        self._register_from(select.from_)
        self.compiler = ExpressionCompiler(
            self.scope, executor, params=params, placeholders=placeholders
        )
        self._plan_joins()
        self._plan_projection()
        self._plan_topk()
        executor.stats.compiled_plans += 1

    # -- FROM ---------------------------------------------------------------

    def _register_from(self, ref: ast.TableRef | None) -> None:
        if ref is None:
            return
        if isinstance(ref, ast.TableName):
            self.executor.bind(ref.name.lower(), self.params)
            if ref.name[0] == "@":
                self._register_table_parameter(ref)
                return
            if not self.executor.table_exists(ref.name):
                view = self.executor.view_definition(ref.name)
                if view is not None:
                    self._register_view(ref, view)
                    return
            table, _ = self.executor.resolve_table(ref.name)
            binding = (ref.alias or ref.name).lower()
            self.scope.add_source(binding, table.schema.column_names)
            self.slot_columns.extend(table.schema.columns)
            self.sources.append(
                _Source(binding, table.rows, table=table)
            )
            return
        if isinstance(ref, ast.SubquerySource):
            # Derived tables are planned now (their column metadata becomes
            # scope slots) and evaluated lazily once per statement — they
            # cannot see sibling FROM items, only the statement's outer scope.
            if isinstance(ref.select, ast.UnionSelect):
                meta = _UnionRunner(
                    self.executor, ref.select, self.params, self.placeholders, self.scope.parent
                )
            else:
                meta = _SelectPlan(
                    self.executor, ref.select, self.params, self.placeholders, self.scope.parent
                )
            self.scope.add_source(ref.alias, [c.name for c in meta.output_columns])
            self.slot_columns.extend(
                Column(c.name, c.type, length=c.length) for c in meta.output_columns
            )
            holder: dict[str, Any] = {}
            epoch_cell = self.executor._epoch_cell

            def derived_rows_cached() -> list[tuple]:
                # memoized per statement epoch, not per plan object: a cached
                # plan re-run after DML must re-evaluate the derived table.
                if holder.get("epoch") != epoch_cell[0]:
                    holder["r"] = meta.run(None).rows
                    holder["epoch"] = epoch_cell[0]
                return holder["r"]

            self.sources.append(_Source(ref.alias.lower(), derived_rows_cached))
            return
        if isinstance(ref, ast.Join):
            self._register_from(ref.left)
            self._register_from(ref.right)
            return
        raise NotSupportedError(f"FROM element {type(ref).__name__}")

    def _register_table_parameter(self, ref: ast.TableName) -> None:
        """``FROM @t``: the plan binds the *columns* of the table the
        argument names and finds the table again at each run, so one plan
        serves every table of that shape.  No index path: an index belongs
        to one table."""
        executor, params = self.executor, self.params

        def table() -> Table:
            return executor.resolve_table(executor.table_name(ref.name, params))[0]

        schema = table().schema
        binding = (ref.alias or ref.name).lower()
        self.scope.add_source(binding, schema.column_names)
        self.slot_columns.extend(schema.columns)
        self.sources.append(_Source(binding, lambda: table().rows()))

    def _register_view(self, ref: ast.TableName, view: ast.CreateView) -> None:
        """Expand a view reference as a derived table (planned once,
        evaluated lazily once per statement), applying the view's declared
        column names."""
        meta = _SelectPlan(self.executor, view.select, self.params, self.placeholders, None)
        names = view.columns or [c.name for c in meta.output_columns]
        binding = (ref.alias or ref.name).lower()
        self.scope.add_source(binding, names)
        self.slot_columns.extend(
            Column(name, c.type, length=c.length)
            for name, c in zip(names, meta.output_columns)
        )
        holder: dict[str, Any] = {}
        epoch_cell = self.executor._epoch_cell

        def view_rows() -> list[tuple]:
            if holder.get("epoch") != epoch_cell[0]:
                holder["r"] = meta.run(None).rows
                holder["epoch"] = epoch_cell[0]
            return holder["r"]

        self.sources.append(_Source(binding, view_rows))

    def _plan_joins(self) -> None:
        """Plan the join pipeline: where each conjunct runs, and how each
        step finds its inner rows.

        WHERE is split into AND-conjuncts, and so is the ON of an inner
        join, which filters as WHERE does.  Each conjunct is compiled once.
        One that reads no row of this query (a ``?``, an outer reference,
        an uncorrelated subquery alone) runs once per run; one with a
        correlated subquery runs in the final WHERE; any other runs at the
        step of the latest source its column references name — an
        uncorrelated subquery is a value there, like a literal.  At step
        *k* a conjunct is one of:

        * an equi key: ``col = col`` linking an earlier source to source
          *k*, over two column types whose values compare directly (hashing
          an INT against a VARCHAR would miss what ``=`` finds);
        * a local filter: it reads source *k* alone (and values constant
          for the run), and is applied to each inner row before the row is
          hashed or joined;
        * a residual: applied to each joined row, which ends at source *k*
          — a conjunct placed by its latest source reads no slot past it.

        The ON of a LEFT join stays at its step, split the same way (a
        residual there that names a later source reads NULL for it).  A
        WHERE conjunct whose step is a LEFT join is a post filter, applied
        after the join pads its rows: filtering inside would change which
        rows get NULL-padded.

        A step whose equi key is the inner table's one-column primary key,
        or has a secondary index, can look each outer row's key up instead
        of hashing the table: :meth:`_join` decides per run.
        """
        # absolute slot range per source
        self.source_ranges: list[tuple[int, int]] = []
        offset = 0
        for source in self.sources:
            width = len(self.scope.columns_of(source.binding))
            self.source_ranges.append((offset, offset + width))
            offset += width

        # collect per-step kind and ON expression from the FROM tree
        kinds: list[str] = []
        on_exprs: list[ast.Expr | None] = []

        def visit(ref: ast.TableRef | None) -> None:
            if ref is None:
                return
            if isinstance(ref, (ast.TableName, ast.SubquerySource)):
                kinds.append("FIRST" if not kinds else "CROSS")
                on_exprs.append(None)
                return
            if isinstance(ref, ast.Join):
                visit(ref.left)
                if isinstance(ref.right, ast.Join):
                    raise NotSupportedError("right-nested joins are not supported")
                visit(ref.right)
                kinds[-1] = ref.kind
                on_exprs[-1] = ref.on
                return
            raise NotSupportedError(f"FROM element {type(ref).__name__}")

        visit(self.select.from_)

        #: per step: (conjunct, compiled, reads this step's source alone)
        at_step: list[list[tuple[ast.Expr, CompiledExpr, bool]]] = [[] for _ in self.sources]
        post: list[list[CompiledExpr]] = [[] for _ in self.sources]
        final: list[CompiledExpr] = []
        #: conjuncts referencing no column of this query's rows (a ``?``,
        #: an ``@name``, ``rowcount()``, outer-correlated guards) — evaluated
        #: once per run, not once per row
        row_independent: list[CompiledExpr] = []
        #: set when a conjunct folded to not-True at compile time (Phoenix's
        #: ``0 = 1`` metadata probe) — the plan is then an empty-result
        #: short circuit, which makes ``WHERE 0=1`` compile-only, as the
        #: paper assumes.
        self.folded_false = False

        def place(conjunct: ast.Expr) -> None:
            fn, correlated = self.compiler.compile_conjunct(conjunct)
            if correlated:
                final.append(fn)
                return
            read = self._sources_read(conjunct)
            if not read:
                if not is_constant(fn):
                    row_independent.append(fn)
                elif fn(None) is not True:
                    self.folded_false = True
                return
            target = max(read)
            if kinds[target] == "LEFT":
                post[target].append(fn)
            else:
                at_step[target].append((conjunct, fn, read == {target}))

        for index, on_expr in enumerate(on_exprs):
            for conjunct in _split_conjuncts(on_expr):
                if kinds[index] != "LEFT":
                    place(conjunct)
                    continue
                fn, correlated = self.compiler.compile_conjunct(conjunct)
                local = not correlated and self._sources_read(conjunct) <= {index}
                at_step[index].append((conjunct, fn, local))
        for conjunct in _split_conjuncts(self.select.where):
            place(conjunct)
        self.constant_filter = _all_true(row_independent)

        self.join_steps: list[_JoinStep] = []
        for index, kind in enumerate(kinds):
            equi: list[tuple[int, int]] = []
            local: list[CompiledExpr] = []
            residual: list[CompiledExpr] = []
            for conjunct, fn, reads_own_source in at_step[index]:
                pair = self._equi_pair(conjunct, index)
                if pair is not None:
                    equi.append(pair)
                elif reads_own_source:
                    local.append(fn)
                else:
                    residual.append(fn)
            table = self.sources[index].table
            probe = lookup = None
            if table is not None and kind != "LEFT":
                probe = _index_probe(
                    table,
                    self.source_ranges[index][0],
                    [conjunct for conjunct, _fn, own in at_step[index] if own],
                    self.scope,
                    self.compiler,
                )
            if table is not None and probe is None and index > 0:
                lookup = _lookup_probe(table, equi)
            self.join_steps.append(
                _JoinStep(
                    kind=kind,
                    equi=equi,
                    local=_all_true(local),
                    residual=_all_true(residual),
                    post=_all_true(post[index]),
                    probe=probe,
                    lookup=lookup,
                )
            )
        self.where = _all_true(final)

    def _sources_read(self, conjunct: ast.Expr) -> set[int]:
        """The sources whose columns ``conjunct`` names outside its
        subqueries (an outer reference names none of them)."""
        read = set()
        for ref in _plain_refs(conjunct):
            resolved = self.scope.try_resolve(ref.name, ref.table)
            if resolved is not None and resolved[0] == 0:
                read.add(self._source_of(resolved[1]))
        return read

    def _source_of(self, slot: int) -> int:
        for index, (start, end) in enumerate(self.source_ranges):
            if start <= slot < end:
                return index
        raise AssertionError(f"slot {slot} belongs to no source")

    def _equi_pair(self, conjunct: ast.Expr, step: int) -> tuple[int, int] | None:
        """If ``conjunct`` is ``left_col = right_col`` linking an earlier
        source to source ``step``, and the two columns' values compare
        directly, return (left_abs_slot, right_local_slot)."""
        if not (
            isinstance(conjunct, ast.Binary)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            return None
        sides = []
        for ref in (conjunct.left, conjunct.right):
            resolved = self.scope.try_resolve(ref.name, ref.table)
            if resolved is None or resolved[0] != 0:
                return None
            sides.append(resolved[1])
        start, end = self.source_ranges[step]
        a, b = sides
        if start <= a < end and b < start:
            outer, inner = b, a
        elif start <= b < end and a < start:
            outer, inner = a, b
        else:
            return None
        if not compares_directly(self.slot_columns[outer].type, self.slot_columns[inner].type):
            return None  # ``=`` casts one side first: a hash would miss its matches
        return (outer, inner - start)

    # -- projection planning ----------------------------------------------------

    def _expand_items(self) -> list[tuple[ast.Expr, str]]:
        """Expand stars; returns [(expr, output name)]."""
        items: list[tuple[ast.Expr, str]] = []
        for item in self.select.items:
            expr = item.expr
            if isinstance(expr, ast.Star):
                bindings = (
                    [expr.table.lower()] if expr.table else [b for b, _ in self.scope.sources]
                )
                for binding in bindings:
                    for name in self.scope.columns_of(binding):
                        items.append((ast.ColumnRef(name, table=binding), name))
                continue
            name = item.alias or _derive_name(expr)
            items.append((expr, name.lower()))
        return items

    def _plan_projection(self) -> None:
        select = self.select
        self.items = self._expand_items()
        self.aliases = {
            (item.alias or "").lower(): item.expr
            for item in select.items
            if item.alias
        }

        # Resolve GROUP BY entries (aliases allowed, TPC-H style).
        group_exprs = [self._dealias(e) for e in select.group_by]
        agg_nodes: list[ast.FuncCall] = []
        for expr, _ in self.items:
            _collect_aggregates(expr, agg_nodes)
        if select.having is not None:
            _collect_aggregates(self._dealias(select.having), agg_nodes)
        for order in select.order_by:
            _collect_aggregates(self._dealias(order.expr), agg_nodes)
        self.group_exprs = group_exprs
        self.agg_nodes = agg_nodes
        self.grouped = bool(group_exprs) or bool(agg_nodes)

        if self.grouped:
            # Synthetic slots for aggregate results, post-group compilation.
            agg_slots: dict[int, int] = {}
            for node in agg_nodes:
                agg_slots[id(node)] = self.scope.add_synthetic_slot()
            self._plan_grouping([self.compiler.compile(e) for e in group_exprs])
            post_compiler = ExpressionCompiler(
                self.scope,
                self.executor,
                agg_slots=agg_slots,
                params=self.params,
                placeholders=self.placeholders,
            )
            self.item_fns = [post_compiler.compile(expr) for expr, _ in self.items]
            self.having_fn = (
                post_compiler.compile_predicate(self._dealias(select.having))
                if select.having is not None
                else None
            )
            self.order_fns = self._compile_order(post_compiler)
        else:
            if select.having is not None:
                raise ProgrammingError("HAVING requires GROUP BY or aggregates")
            self.item_fns = [self.compiler.compile(expr) for expr, _ in self.items]
            self.having_fn = None
            self.order_fns = self._compile_order(self.compiler)
        #: the select list's slots when every item is a column of the row:
        #: the output rows are then one ``itemgetter`` over the rows, not a
        #: closure call per item and row
        self.project_slots = None
        slots = [slot_of(fn) for fn in self.item_fns]
        if not self.grouped and slots and None not in slots:
            self.project_slots = slots

        self.output_columns = [
            _infer_column(expr, name, self.slot_columns, self.scope)
            for expr, name in self.items
        ]

    def _plan_grouping(self, key_fns: list[CompiledExpr]) -> None:
        """How :meth:`_run_grouped` keys a row and reads each aggregate's
        arguments: through ``itemgetter`` where they are columns of the row,
        through the compiled closures elsewhere."""
        self.group_key_fns = key_fns
        slots = [slot_of(fn) for fn in key_fns]
        #: the key of a row when every GROUP BY key is a column of it
        self.group_key = itemgetter(*slots) if slots and None not in slots else None
        #: per aggregate: (a group's rows, env) -> its argument values, in
        #: order; ``count(*)`` counts the rows themselves
        self.agg_args = [
            (lambda rows, env: rows) if node.star
            else _values_of(self.compiler.compile(node.args[0]))
            for node in self.agg_nodes
        ]
        self.agg_folds = [
            functions.make_accumulator(node.name, star=node.star, distinct=node.distinct).fold
            for node in self.agg_nodes
        ]

    def _dealias(self, expr: ast.Expr) -> ast.Expr:
        """Replace a bare alias reference with the aliased expression."""
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            aliased = self.aliases.get(expr.name.lower())
            if aliased is not None and self.scope.try_resolve(expr.name) is None:
                return aliased
        return expr

    def _compile_order(self, compiler: ExpressionCompiler):
        order_fns = []
        for order in self.select.order_by:
            expr = order.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if not 0 <= index < len(self.items):
                    raise ProgrammingError(f"ORDER BY position {expr.value} out of range")
                order_fns.append(("position", index, order.desc))
                continue
            order_fns.append(("expr", compiler.compile(self._dealias(expr)), order.desc))
        return order_fns

    def _plan_topk(self) -> None:
        """Detect the index-ordered top-k shape: a single-table ``ORDER BY
        <indexed column> LIMIT k`` (optionally with a range probe on that
        same column) can stream rowids in index order and stop after
        offset+limit matches instead of materialize-then-sort.  The ordered
        index yields exactly the stable ``sort_key`` order the sort would
        produce (NULLS FIRST ascending, ties in rowid order), so results
        are identical."""
        self.topk: tuple[str, bool] | None = None
        select = self.select
        if select.limit is None or select.distinct or self.grouped:
            return
        if len(self.sources) != 1 or self.sources[0].table is None:
            return
        if len(select.order_by) != 1 or len(self.order_fns) != 1:
            return
        step = self.join_steps[0]
        if step.post is not None:
            return
        expr = self._dealias(select.order_by[0].expr)
        if not isinstance(expr, ast.ColumnRef):
            return
        resolved = self.scope.try_resolve(expr.name, expr.table)
        if resolved is None or resolved[0] != 0:
            return
        start, end = self.source_ranges[0]
        slot = resolved[1]
        if not start <= slot < end:
            return
        table = self.sources[0].table
        column = table.schema.columns[slot - start].name
        if not table.has_secondary_index(column):
            return
        probe = step.probe
        if probe is not None and not (probe[2] == "range" and probe[0] == column):
            # an equality probe (or a range on another column) is more
            # selective than streaming the whole index — keep the probe path
            return
        self.topk = (column, select.order_by[0].desc)

    # -- plan introspection -------------------------------------------------------

    def describe(self) -> list[str]:
        """Human-readable plan: join order, hash keys, pushed filters —
        the EXPLAIN output."""
        lines: list[str] = []
        select = self.select
        if not self.sources:
            lines.append("Result: constant row")
        for index, (source, step) in enumerate(zip(self.sources, self.join_steps)):
            if step.probe is not None:
                column, payload, probe_kind = step.probe
                if probe_kind == "range":
                    low_fn, low_incl, high_fn, high_incl = payload
                    parts = []
                    if low_fn is not None:
                        parts.append(f"{column} {'>=' if low_incl else '>'} const")
                    if high_fn is not None:
                        parts.append(f"{column} {'<=' if high_incl else '<'} const")
                    head = f"IndexRange {source.binding} ({' AND '.join(parts)})"
                else:
                    label = "PkLookup" if probe_kind == "pk" else "IndexScan"
                    head = f"{label} {source.binding} ({column} = const)"
            elif index == 0:
                head = f"Scan {source.binding}"
            elif step.equi:
                keys = ", ".join(
                    f"{self._slot_name(left)} = {source.binding}.{self._local_name(index, right)}"
                    for left, right in step.equi
                )
                head = f"HashJoin({step.kind}) {source.binding} ON {keys}"
                if step.lookup is not None:
                    column, _value_fn, probe_kind = step.lookup
                    index_name = "primary key" if probe_kind == "pk join" else f"index on {column}"
                    head = (
                        f"IndexJoin({step.kind}) {source.binding} ON {keys} ({index_name} "
                        "looked up per outer row; HashJoin when the outer side is not smaller)"
                    )
            else:
                head = f"NestedLoop({step.kind}) {source.binding}"
            notes = []
            if step.local is not None:
                notes.append(f"local prefilter (residual filter on {source.binding} rows)")
            if step.residual is not None:
                notes.append("residual filter on joined rows")
            if step.post is not None:
                notes.append("post filter")
            lines.append(head + (f"  [{', '.join(notes)}]" if notes else ""))
        if self.folded_false:
            lines.append("ConstantFilter (folded false at compile time: empty result)")
        if self.constant_filter is not None:
            lines.append("ConstantFilter (evaluated once per run)")
        if self.where is not None:
            lines.append("Filter (final WHERE: correlated subqueries)")
        if self.grouped:
            keys = ", ".join(e.sql() for e in self.group_exprs) or "<all rows>"
            lines.append(f"Aggregate by [{keys}] computing {len(self.agg_nodes)} aggregate(s)")
        if select.having is not None:
            lines.append("Having")
        if select.distinct:
            lines.append("Distinct")
        if self.topk is not None:
            column, desc = self.topk
            lines.append(
                f"TopK {select.limit} Offset {select.offset or 0} "
                f"ORDER BY {column}{' DESC' if desc else ''} (index-ordered, no sort)"
            )
        else:
            if select.order_by:
                lines.append("Sort " + ", ".join(o.sql() for o in select.order_by))
            if select.limit is not None or select.offset is not None:
                lines.append(f"Limit {select.limit} Offset {select.offset or 0}")
        lines.append(f"Project {len(self.items)} column(s)")
        return lines

    def _slot_name(self, slot: int) -> str:
        for index, (start, end) in enumerate(self.source_ranges):
            if start <= slot < end:
                binding = self.sources[index].binding
                return f"{binding}.{self._local_name(index, slot - start)}"
        return f"slot{slot}"

    def _local_name(self, source_index: int, local_slot: int) -> str:
        binding = self.sources[source_index].binding
        return self.scope.columns_of(binding)[local_slot]

    # -- execution ---------------------------------------------------------------

    def run(self, outer_env: Env | None) -> ResultSet:
        out_rows = self._run_rows(outer_env)
        self.executor.stats.rows_returned += len(out_rows)
        return ResultSet(self.output_columns, out_rows)

    def _run_rows(self, outer_env: Env | None) -> list[tuple]:
        if self._passes_no_row(outer_env):
            # nothing is read, but an aggregate without GROUP BY still
            # answers its one row over no input
            rows: list[tuple] = []
        elif self.topk is not None:
            return self._run_topk(outer_env)
        else:
            rows = self._source_rows(outer_env)
        if self.where is not None:
            where = self.where
            # one reused environment for the whole filter pass — the
            # compiled closures read slot offsets out of it, so
            # rebinding ``values`` is all a new row costs
            env = _env([], outer_env)
            kept: list[tuple] = []
            for r in rows:
                env.values = r
                if where(env) is True:
                    kept.append(r)
            rows = kept

        if self.grouped:
            out_rows = self._run_grouped(rows, outer_env)
        else:
            slots = self.project_slots
            if slots is None:
                item_fns = self.item_fns
                env = _env([], outer_env)
                out_rows = []
                for r in rows:
                    env.values = r
                    out_rows.append(tuple(fn(env) for fn in item_fns))
            elif len(slots) == 1:
                (slot,) = slots
                out_rows = [(r[slot],) for r in rows]
            else:
                out_rows = list(map(itemgetter(*slots), rows))
            self._ordering_rows = rows  # parallel to out_rows, for ORDER BY

        return self._order_distinct_limit(out_rows, outer_env)

    def _passes_no_row(self, outer_env: Env | None) -> bool:
        """Did WHERE fold to not-true, or is a conjunct that reads no row
        not true for this run?"""
        if self.folded_false:
            return True
        if self.constant_filter is None:
            return False
        probe_env = _env([None] * self.scope.slot_count, outer_env)
        return self.constant_filter(probe_env) is not True

    def _run_topk(self, outer_env: Env | None) -> list[tuple]:
        """Index-ordered top-k: stream rowids in ORDER BY order (optionally
        restricted to the range probe's slice of the index) and stop at
        offset+limit accepted rows — no materialize, no sort."""
        select = self.select
        if select.limit == 0:
            return []  # the loop below stops *after* a row is accepted
        column, desc = self.topk
        source = self.sources[0]
        table = source.table
        step = self.join_steps[0]
        stats = self.executor.stats
        if step.probe is not None:  # range probe on the ORDER BY column
            bounds = _range_probe_bounds(
                table, step.probe, _env([None] * self.scope.slot_count, outer_env)
            )
            if bounds is None:
                rowids: Any = ()
            elif bounds is _FALLBACK_SCAN:
                rowids = table.index_ordered(column, desc=desc)
            else:
                low, high, low_incl, high_incl = bounds
                stats.index_range_scans += 1
                rowids = table.index_range(
                    column, low, high,
                    low_inclusive=low_incl, high_inclusive=high_incl, desc=desc,
                )
        else:
            rowids = table.index_ordered(column, desc=desc)
        local = step.local
        where = self.where
        offset = select.offset or 0
        need = select.limit + offset
        env = _env([], outer_env)
        item_fns = self.item_fns
        get = table.get
        out: list[tuple] = []
        scanned = 0
        for rowid in rowids:
            scanned += 1
            env.values = get(rowid)
            if local is not None and local(env) is not True:
                continue
            if where is not None and where(env) is not True:
                continue
            out.append(tuple(fn(env) for fn in item_fns))
            if len(out) >= need:
                break
        stats.rows_scanned += scanned
        stats.topk_shortcuts += 1
        return out[offset:] if offset else out

    def _source_rows(self, outer_env: Env | None) -> list[tuple]:
        """Join pipeline: the first source's rows its local filters keep,
        then one :meth:`_join` per further source.  A row is a tuple of the
        sources' values so far: a stored row is shared, not copied, and a
        join builds each joined row once.  No row carries the aggregate
        slots — grouping builds its own rows with them."""
        if not self.sources:
            return [()]
        rows = self._inner_rows(0, outer_env)
        for index in range(1, len(self.sources)):
            rows = self._join(index, rows, outer_env)
        return rows

    def _inner_rows(self, index: int, outer_env: Env | None) -> list[tuple]:
        """Every row of source ``index`` its local filters keep, in scan
        order: what its constant index probe finds, else the whole source."""
        source, step = self.sources[index], self.join_steps[index]
        found = None
        if step.probe is not None:
            found = self._probe_rows(source, step.probe, outer_env)
        if found is None:
            found = source.rows_fn()
        if source.table is not None:
            self.executor.stats.rows_scanned += len(found)
        keep = self._local_filter(index, outer_env)
        return found if keep is None else keep(found)

    def _local_filter(self, index: int, outer_env: Env | None):
        """A function from rows of source ``index`` to those its local
        filters pass, or None when it has none.  The filters read only that
        source's slots, so a row is placed at them and nothing is copied
        for the first source."""
        local = self.join_steps[index].local
        if local is None:
            return None
        start, end = self.source_ranges[index]
        env = _env([None] * end, outer_env)
        if start == 0:
            def keep(rows: list[tuple]) -> list[tuple]:
                kept = []
                for row in rows:
                    env.values = row
                    if local(env) is True:
                        kept.append(row)
                return kept
        else:
            placed = env.values

            def keep(rows: list[tuple]) -> list[tuple]:
                kept = []
                for row in rows:
                    placed[start:] = row
                    if local(env) is True:
                        kept.append(row)
                return kept
        return keep

    def _join(self, index: int, outer: list[tuple], outer_env: Env | None) -> list[tuple]:
        """Join the rows so far to source ``index``.  Each outer row meets
        the inner rows that pass the step's local filters and match its
        equi keys: found by looking its key up in the inner table's index
        when the step has one and the outer side has fewer rows than the
        inner table, else by hashing every inner row that passes (a nested
        loop without equi keys).  Both ways give each outer row its
        matches in rowid order, so the joined rows come out in the same
        order — float sums and sort ties see no difference.  The residual
        filters each joined row; a LEFT join pads an outer row that kept no
        match."""
        source, step = self.sources[index], self.join_steps[index]
        start, end = self.source_ranges[index]
        left_slots = [slot for slot, _ in step.equi]
        right_slots = [local for _, local in step.equi]
        if step.lookup is not None and len(outer) < source.table.row_count():
            matches = self._lookup_matches(index, left_slots, right_slots, outer_env)
        else:
            inner = self._inner_rows(index, outer_env)
            if step.equi:
                # a key holding NULL is never bucketed, so never found
                buckets = _hash_rows(inner, right_slots)
                outer_key = itemgetter(*left_slots)

                def matches(left: tuple) -> list[tuple]:
                    return buckets.get(outer_key(left), ())
            else:
                def matches(left: tuple) -> list[tuple]:
                    return inner

        residual, post = step.residual, step.post
        env = _env([], outer_env)
        joined: list[tuple] = []
        if step.kind != "LEFT":
            for left in outer:
                for right in matches(left):
                    row = left + right
                    if residual is not None:
                        env.values = row
                        if residual(env) is not True:
                            continue
                    joined.append(row)
            return joined
        null_right = (None,) * (end - start)
        # an ON conjunct may name a source joined later: it reads NULL there
        pad = (None,) * (self.source_ranges[-1][1] - end)
        for left in outer:
            matched = False
            for right in matches(left):
                row = left + right
                if residual is not None:
                    env.values = row + pad
                    if residual(env) is not True:
                        continue
                matched = True
                if post is not None:
                    env.values = row
                    if post(env) is not True:
                        continue
                joined.append(row)
            if not matched:
                row = left + null_right
                env.values = row
                if post is None or post(env) is True:
                    joined.append(row)
        return joined

    def _lookup_matches(
        self, index: int, left_slots: list[int], right_slots: list[int], outer_env: Env | None
    ):
        """The index path of :meth:`_join`: a function from an outer row
        to the inner rows its key finds through the step's per-row probe
        (:func:`_probe_rowids`) that match every equi key and pass the
        local filters."""
        source, step = self.sources[index], self.join_steps[index]
        table, probe = source.table, step.lookup
        stats = self.executor.stats
        keep = self._local_filter(index, outer_env)
        get = table.get
        env = _env([], outer_env)
        several = len(left_slots) > 1
        outer_key, inner_key = itemgetter(*left_slots), itemgetter(*right_slots)

        def matches(left: tuple) -> list[tuple]:
            env.values = left
            found = [get(rowid) for rowid in _probe_rowids(table, probe, env, stats)]
            stats.rows_scanned += len(found)
            if several:
                # the probe matched one key; a hash matches all of them
                key = outer_key(left)
                if None in key:
                    return []
                found = [row for row in found if inner_key(row) == key]
            return found if keep is None else keep(found)

        return matches

    def _probe_rows(
        self, source: _Source, probe, outer_env: Env | None
    ) -> list[tuple] | None:
        """The rows an index probe finds, as stored, or None when the probe
        cannot be used this run (see :func:`_probe_rowids`): the caller
        falls back to the full scan."""
        table = source.table
        rowids = _probe_rowids(table, probe, _env([], outer_env), self.executor.stats)
        if rowids is None:
            return None
        return [table.get(rowid) for rowid in rowids]

    def _run_grouped(self, rows: list[tuple], outer_env: Env | None) -> list[tuple]:
        """Bucket the rows by group key — every row's key is evaluated
        before any aggregate argument — then fold each aggregate over each
        bucket's argument values, in input order."""
        if self.group_exprs:
            key_of = self.group_key
            if key_of is None:
                key_fns = self.group_key_fns
                key_env = _env([], outer_env)

                def key_of(row: tuple) -> tuple:
                    key_env.values = row
                    return tuple([fn(key_env) for fn in key_fns])

            groups = list(_buckets(rows, key_of).values())
        else:
            groups = [rows]  # one group of every row, even of none
        no_row = (None,) * (self.scope.slot_count - len(self.agg_nodes))
        aggregates = list(zip(self.agg_folds, self.agg_args))
        arg_env = _env([], outer_env)
        env = _env([], outer_env)
        out_rows: list[tuple] = []
        ordering_rows: list[tuple] = []
        for bucket in groups:
            # place aggregate results in their synthetic slots (the last
            # len(agg_nodes) slots, allocated in agg_nodes order)
            first = bucket[0] if bucket else no_row
            full = first + tuple([fold(args(bucket, arg_env)) for fold, args in aggregates])
            env.values = full
            if self.having_fn is not None and self.having_fn(env) is not True:
                continue
            out_rows.append(tuple([fn(env) for fn in self.item_fns]))
            ordering_rows.append(full)
        self._ordering_rows = ordering_rows
        return out_rows

    def _order_distinct_limit(self, out_rows: list[tuple], outer_env: Env | None) -> list[tuple]:
        select = self.select
        rows = out_rows
        if select.distinct:
            kept = _distinct_positions(rows)
            rows = [rows[i] for i in kept]
            self._ordering_rows = [self._ordering_rows[i] for i in kept]
        if self.order_fns:
            indexed = list(zip(rows, self._ordering_rows))
            sort_env = _env([], outer_env)
            keys = []
            for kind, key, desc in self.order_fns:
                if kind == "position":
                    keys.append((lambda pair, position=key: pair[0][position], desc))
                else:
                    def _value(pair, key=key):
                        sort_env.values = pair[1]
                        return key(sort_env)

                    keys.append((_value, desc))
            _sort(indexed, keys)
            rows = [pair[0] for pair in indexed]
        if select.offset is not None:
            rows = rows[select.offset :]
        if select.limit is not None:
            rows = rows[: select.limit]
        return rows


class _UnionRunner:
    """Executes a UNION chain: per-part plans + combination semantics.

    Quacks like _SelectPlan where callers need it (``output_columns``,
    ``run(env)``), so derived tables and subqueries can hold unions.
    """

    def __init__(self, executor, union, params, placeholders, outer_scope):
        self.union = union
        #: shared across every part's plan tree; mutated in place on rebind
        self.placeholders = placeholders
        self.params = params
        self.plans = []
        self.correlated = False
        for part in union.parts:
            probe = Scope(parent=outer_scope)
            plan = _SelectPlan(executor, part, params, placeholders, outer_scope, probe_scope=probe)
            self.plans.append(plan)
            self.correlated = self.correlated or probe.used_parent
        widths = {len(p.output_columns) for p in self.plans}
        if len(widths) != 1:
            raise ProgrammingError(
                f"UNION parts produce different column counts: {sorted(widths)}"
            )
        #: metadata comes from the first part (standard SQL behaviour)
        self.output_columns = self.plans[0].output_columns

    def run(self, outer_env: Env | None) -> ResultSet:
        rows: list[tuple] = []
        for index, plan in enumerate(self.plans):
            part_rows = plan.run(outer_env).rows
            rows.extend(part_rows)
            # plain UNION dedupes everything accumulated so far (left-assoc)
            if index > 0 and not self.union.all_flags[index - 1]:
                rows = [rows[i] for i in _distinct_positions(rows)]
        rows = self._order_limit(rows)
        return ResultSet(self.output_columns, rows)

    def _order_limit(self, rows: list[tuple]) -> list[tuple]:
        union = self.union
        if union.order_by:
            name_to_index = {c.name: i for i, c in enumerate(self.output_columns)}
            keys = []
            for order in union.order_by:
                expr = order.expr
                if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                    position = expr.value - 1
                elif isinstance(expr, ast.ColumnRef) and expr.table is None:
                    position = name_to_index.get(expr.name.lower(), -1)
                else:
                    position = -1
                if not 0 <= position < len(self.output_columns):
                    raise ProgrammingError(
                        "UNION ORDER BY must name an output column or position"
                    )
                keys.append((itemgetter(position), order.desc))
            rows = list(rows)
            _sort(rows, keys)
        if union.offset is not None:
            rows = rows[union.offset :]
        if union.limit is not None:
            rows = rows[: union.limit]
        return rows


class _Source:
    """One FROM source: binding name, a supplier of its rows in scan order
    (a list the caller may keep but must not change), and (for base tables)
    the Table object — the planner needs it for index probes."""

    def __init__(self, binding: str, rows_fn, table=None):
        self.binding = binding
        self.rows_fn = rows_fn
        self.table = table


class _JoinStep:
    """Execution plan for one join step (aligned with one source)."""

    __slots__ = ("kind", "equi", "local", "residual", "post", "probe", "lookup")

    def __init__(self, kind: str, equi, local, residual, post, probe=None, lookup=None):
        self.kind = kind
        #: [(left_absolute_slot, right_local_slot)] hash-join keys
        self.equi = equi
        #: conjuncts reading this source alone, applied to its rows before
        #: they are joined (for a LEFT join: from its ON only)
        self.local = local
        #: the rest of the join condition, applied to each joined row
        self.residual = residual
        #: pushed WHERE conjuncts applied after a LEFT join pads its rows
        self.post = post
        #: (column_name, payload, kind) index probe replacing the full scan;
        #: kind is "pk" / "secondary" (payload = value_fn) or "range"
        #: (payload = (low_fn, low_inclusive, high_fn, high_inclusive))
        self.probe = probe
        #: (column_name, value_fn, "pk join" / "secondary join"): the probe
        #: this step may make per outer row instead of hashing the table;
        #: value_fn reads the outer row's equi key
        self.lookup = lookup


def _hash_rows(rows: list[tuple], local_slots: list[int]) -> dict:
    """Bucket rows, in order, by their key: the value at the one slot, or
    the tuple of values at several.  A key holding NULL is left out: NULL
    never equi-joins."""
    key_of = itemgetter(*local_slots)
    several = len(local_slots) > 1
    buckets: dict = {}
    for row in rows:
        key = key_of(row)
        if key is None or several and None in key:
            continue
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return buckets


def _buckets(rows: list[tuple], key_of) -> dict:
    """Rows by ``key_of(row)``, keys in first-seen order and each bucket's
    rows in input order.  A NaN in a key is filed under the one
    :data:`~repro.engine.values.NAN`: NaN groups with NaN."""
    buckets: dict = {}
    for row in rows:
        key = key_of(row)
        bucket = buckets.get(key)
        if bucket is None:
            key = one_nan(key)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
                continue
        bucket.append(row)
    return buckets


def _distinct_positions(rows: list[tuple]) -> list[int]:
    """The position of the first of each set of equal rows, in order (a
    NaN equals a NaN)."""
    seen: set = set()
    first: list[int] = []
    for position, row in enumerate(rows):
        if row not in seen:
            row = one_nan(row)
            if row not in seen:
                seen.add(row)
                first.append(position)
    return first


def _sort(items: list, keys: list[tuple[Any, bool]]) -> None:
    """Sort ``items`` in place by ORDER BY ``keys``: (item -> the value it
    sorts by, descending?) in order of precedence, NULLs first and NaN above
    every number (:func:`~repro.engine.values.sort_key`).  Each run of
    consecutive keys with one direction is one stable sort on a tuple of
    sort keys; runs sort last first, so an earlier run decides and a later
    one orders its ties."""
    runs: list[tuple[list, bool]] = []
    for value_of, desc in keys:
        if runs and runs[-1][1] == desc:
            runs[-1][0].append(value_of)
        else:
            runs.append(([value_of], desc))
    for values_of, desc in reversed(runs):
        items.sort(key=lambda item: tuple([sort_key(v(item)) for v in values_of]), reverse=desc)


def _values_of(fn: CompiledExpr):
    """A function from a group's rows to the values of ``fn`` over them, in
    order — an ``itemgetter`` map when ``fn`` reads a column of the row."""
    slot = slot_of(fn)
    if slot is not None:
        getter = itemgetter(slot)
        return lambda rows, env: list(map(getter, rows))

    def values(rows: list[tuple], env: Env) -> list:
        out = []
        for row in rows:
            env.values = row
            out.append(fn(env))
        return out

    return values


def _lookup_probe(table: Table, equi: list[tuple[int, int]]):
    """The probe a join step into ``table`` can make per outer row: on an
    equi key whose inner column is the table's one-column primary key
    (first choice) or has a secondary index, valued from the outer row's
    key.  None when no equi key has an index."""
    found = None
    for outer_slot, local in equi:
        column = table.schema.columns[local].name

        def outer_key(env: Env, slot: int = outer_slot) -> Any:
            return env.values[slot]

        if table.schema.primary_key == (column,):
            return (column, outer_key, "pk join")
        if found is None and table.has_secondary_index(column):
            found = (column, outer_key, "secondary join")
    return found


def _index_probe(
    table: Table, start: int, conjuncts: list[ast.Expr], scope: Scope, compiler: ExpressionCompiler
):
    """Pick the best access path into ``table`` — whose columns sit at
    ``scope`` slots ``start``… — from the conjuncts every wanted row
    satisfies, ranked **PK probe > secondary equality > secondary range**
    (None = full scan).  Range probes come from ``<``, ``<=``, ``>``, ``>=``
    and ``BETWEEN`` conjuncts over an ordered secondary index.  A conjunct
    counts wherever it stands, and every chosen conjunct must still be
    applied to the rows found — the probe only narrows the scan, it never
    replaces the predicate.  SELECT (per join step), UPDATE and DELETE all
    choose here; a DML's lock granularity follows from the kind returned
    (``Executor._dml_lock_candidates``)."""
    end = start + len(table.schema.columns)

    def comparisons(conjunct: ast.Expr):
        # every reading of the conjunct as <column side> <op> <value side>
        if isinstance(conjunct, ast.Binary) and conjunct.op in _PROBE_OPS:
            yield conjunct.left, conjunct.op, conjunct.right
            yield conjunct.right, FLIPPED[conjunct.op], conjunct.left
        elif isinstance(conjunct, ast.Between) and not conjunct.negated:
            yield conjunct.operand, ">=", conjunct.low
            yield conjunct.operand, "<=", conjunct.high

    def local_column(col_side: ast.Expr) -> str | None:
        if not isinstance(col_side, ast.ColumnRef):
            return None
        resolved = scope.try_resolve(col_side.name, col_side.table)
        if resolved is None or resolved[0] != 0 or not start <= resolved[1] < end:
            return None
        return table.schema.columns[resolved[1] - start].name

    def row_independent(value_side: ast.Expr) -> bool:
        # the probe value must not depend on this query's rows
        if any(isinstance(node, SUBQUERY_EXPRS) for node in walk(value_side)):
            return False
        return not any(_is_local_ref(scope, r) for r in _plain_refs(value_side))

    eq_pk: tuple[str, ast.Expr] | None = None
    eq_secondary: tuple[str, ast.Expr] | None = None
    #: column -> [low_expr, low_inclusive, high_expr, high_inclusive]
    range_bounds: dict[str, list] = {}

    for conjunct in conjuncts:
        for col_side, op, value_side in comparisons(conjunct):
            column = local_column(col_side)
            if column is None or not row_independent(value_side):
                continue
            if op == "=":
                if table.schema.primary_key == (column,):
                    eq_pk = eq_pk or (column, value_side)
                elif table.has_secondary_index(column):
                    eq_secondary = eq_secondary or (column, value_side)
            elif table.has_secondary_index(column):
                bounds = range_bounds.setdefault(column, [None, True, None, True])
                side = 0 if op in (">", ">=") else 2
                if bounds[side] is None:  # the first bound of a side wins
                    bounds[side], bounds[side + 1] = value_side, op in (">=", "<=")

    if eq_pk is not None:
        column, value_side = eq_pk
        return (column, compiler.compile(value_side), "pk")
    if eq_secondary is not None:
        column, value_side = eq_secondary
        return (column, compiler.compile(value_side), "secondary")
    if range_bounds:
        # prefer the column bounded on both sides (tightest interval)
        column, bounds = max(
            range_bounds.items(),
            key=lambda kv: (kv[1][0] is not None) + (kv[1][2] is not None),
        )
        low_expr, low_incl, high_expr, high_incl = bounds
        low_fn = compiler.compile(low_expr) if low_expr is not None else None
        high_fn = compiler.compile(high_expr) if high_expr is not None else None
        return (column, (low_fn, low_incl, high_fn, high_incl), "range")
    return None


def _probe_rowids(table: Table, probe, env: Env, stats: ExecutorStats) -> list[int] | None:
    """The rowids an index probe (PK, secondary equality, or secondary
    range) finds, in scan (rowid) order; ``env`` is the rowless environment
    the probe's values are evaluated in — for a join probe, the outer row.
    Returns None when the probe cannot be used this run (an uncoercible
    range bound, a NaN) — the caller falls back to the full scan so per-row
    error semantics are preserved.  A join probe's value is looked up as it
    is: its equi key compares directly, so the index finds what hashing
    the table would, and it is never None."""
    column, value_fn, probe_kind = probe
    if probe_kind == "range":
        bounds = _range_probe_bounds(table, probe, env)
        if bounds is _FALLBACK_SCAN:
            return None
        if bounds is None:
            return []  # a NULL bound: the comparison is never true
        low, high, low_incl, high_incl = bounds
        stats.index_range_scans += 1
        # index_range returns rowids in *key* order; re-sort to rowid
        # (scan) order so downstream aggregation and stable sorts see
        # rows in exactly the order the full scan would feed them —
        # float sums and tie-breaking are order-sensitive — and a
        # multi-row DML logs its records in the order the scan would.
        return sorted(
            table.index_range(
                column, low, high, low_inclusive=low_incl, high_inclusive=high_incl
            )
        )
    value = value_fn(env)
    if value is None:
        return []  # NULL never equals anything
    joined = _JOIN_PROBES.get(probe_kind)
    if joined is not None:
        probe_kind = joined
    else:
        try:
            value = table.schema.column(column).coerce(value)
        except DataError:
            return []  # incomparable constant: no row can match
        if value != value:
            return None  # NaN: the index cannot find a NaN it holds; compare can
    stats.index_eq_probes += 1
    if probe_kind == "pk":
        rowid = table.lookup_key((value,))
        return [] if rowid is None else [rowid]
    return table.index_lookup(column, value)


def _range_probe_bounds(table: Table, probe, env: Env):
    """Evaluate a range probe's bound expressions in ``env``.

    Returns ``(low, high, low_inclusive, high_inclusive)`` with bounds
    coerced to the column type (None = unbounded side), ``None`` when a
    bound evaluated to SQL NULL (the range matches nothing), or
    :data:`_FALLBACK_SCAN` when a bound cannot be coerced — the full
    scan must run so the per-row comparison raises exactly as it would
    without the index."""
    column, (low_fn, low_incl, high_fn, high_incl), _kind = probe
    spec = table.schema.column(column)
    bounds = []
    for bound_fn in (low_fn, high_fn):
        value = None
        if bound_fn is not None:
            value = bound_fn(env)
            if value is None:
                return None
            try:
                value = spec.coerce(value)
            except DataError:
                return _FALLBACK_SCAN
            if value != value:
                return _FALLBACK_SCAN  # NaN: compare orders it, bisect cannot
        bounds.append(value)
    return (*bounds, low_incl, high_incl)


def _is_local_ref(scope: Scope, ref: ast.ColumnRef) -> bool:
    """Does this column reference resolve to one of *this* query's rows
    (depth 0), as opposed to an outer scope?"""
    resolved = scope.try_resolve(ref.name, ref.table)
    return resolved is not None and resolved[0] == 0


def _split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten a predicate into AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op.upper() == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _all_true(fns: list[CompiledExpr]) -> CompiledExpr | None:
    """One filter out of compiled predicates: true when each is true."""
    if not fns:
        return None
    if len(fns) == 1:
        return fns[0]
    if len(fns) == 2:
        first, second = fns
        return lambda env: first(env) is True and second(env) is True

    def _all(env: Env):
        for fn in fns:
            if fn(env) is not True:
                return False
        return True

    return _all


def _plain_refs(expr: ast.Node) -> Iterator[ast.ColumnRef]:
    """The column references of ``expr`` outside its subqueries (the
    operand of an ``IN (SELECT …)`` is outside)."""
    if isinstance(expr, ast.ColumnRef):
        yield expr
    elif not isinstance(expr, (ast.Select, ast.UnionSelect)):
        for child in children(expr):
            yield from _plain_refs(child)


def _env(values: list, outer_env: Env | None) -> Env:
    return Env(values=values, parent=outer_env)


def _collect_aggregates(expr: ast.Expr, out: list[ast.FuncCall]) -> None:
    """Gather aggregate calls at this query level (do not descend into
    subqueries — their aggregates are their own)."""
    out.extend(aggregate_calls(expr))


def _derive_name(expr: ast.Expr) -> str:
    """Output column name for an unaliased select item."""
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return expr.name
    return expr.sql().lower()[:64]


def _infer_column(
    expr: ast.Expr, name: str, slot_columns: list[Column], scope: Scope
) -> Column:
    """Static type inference for output metadata (Phoenix's CREATE TABLE is
    built from this, so it must work without executing the query)."""
    sql_type, length = _infer_type(expr, slot_columns, scope)
    return Column(name.lower(), sql_type, length=length)


def _infer_type(
    expr: ast.Expr, slot_columns: list[Column], scope: Scope
) -> tuple[SqlType, int | None]:
    if isinstance(expr, ast.ColumnRef):
        resolved = scope.try_resolve(expr.name, expr.table)
        if resolved is not None and resolved[0] == 0 and resolved[1] < len(slot_columns):
            column = slot_columns[resolved[1]]
            return column.type, column.length
        return SqlType.VARCHAR, None
    if isinstance(expr, ast.Literal):
        value = expr.value
        if expr.is_date:
            return SqlType.DATE, None
        if isinstance(value, bool):
            return SqlType.BOOLEAN, None
        if isinstance(value, int):
            return SqlType.INT, None
        if isinstance(value, float):
            return SqlType.FLOAT, None
        return SqlType.VARCHAR, None
    if isinstance(expr, ast.FuncCall):
        name = expr.name.lower()
        if name == "count":
            return SqlType.INT, None
        if name in ("sum", "avg"):
            return SqlType.FLOAT, None
        if name in ("min", "max") and expr.args:
            return _infer_type(expr.args[0], slot_columns, scope)
        if name in ("upper", "lower", "trim", "ltrim", "rtrim", "substr", "substring", "concat", "replace"):
            return SqlType.VARCHAR, None
        if name in ("length", "floor", "ceil", "ceiling", "mod"):
            return SqlType.INT, None
        if name in ("abs", "round", "sqrt"):
            return SqlType.FLOAT, None
        if name == "date":
            return SqlType.DATE, None
        return SqlType.VARCHAR, None
    if isinstance(expr, ast.Binary):
        if expr.op.upper() in ("AND", "OR", "=", "<>", "<", "<=", ">", ">="):
            return SqlType.BOOLEAN, None
        if expr.op == "||":
            return SqlType.VARCHAR, None
        left_type, _ = _infer_type(expr.left, slot_columns, scope)
        right_type, _ = _infer_type(expr.right, slot_columns, scope)
        if left_type is SqlType.DATE and isinstance(expr.right, ast.IntervalLiteral):
            return SqlType.DATE, None
        if left_type is SqlType.DATE and right_type is SqlType.DATE:
            return SqlType.INT, None
        if left_type is SqlType.DATE:
            return SqlType.DATE, None
        if expr.op == "/":
            return SqlType.FLOAT, None
        if left_type is SqlType.INT and right_type is SqlType.INT:
            return SqlType.INT, None
        return SqlType.FLOAT, None
    if isinstance(expr, ast.Unary):
        if expr.op.upper() == "NOT":
            return SqlType.BOOLEAN, None
        return _infer_type(expr.operand, slot_columns, scope)
    if isinstance(expr, (ast.IsNull, ast.Between, ast.InList, ast.InSelect, ast.Like, ast.Exists)):
        return SqlType.BOOLEAN, None
    if isinstance(expr, ast.CaseExpr):
        for _, result in expr.whens:
            return _infer_type(result, slot_columns, scope)
    if isinstance(expr, ast.Cast):
        return type_spec_to_sql_type(expr.type), expr.type.length
    if isinstance(expr, ast.ScalarSelect):
        return SqlType.FLOAT, None  # most common use: aggregated subquery
    if isinstance(expr, ast.ExtractExpr):
        return SqlType.INT, None
    if isinstance(expr, ast.SubstringExpr):
        return SqlType.VARCHAR, None
    return SqlType.VARCHAR, None
