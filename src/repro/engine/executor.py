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
from typing import Any, Callable, Iterator

from repro.errors import (
    CatalogError,
    DataError,
    DeadlockError,
    NotSupportedError,
    ProgrammingError,
    TransactionError,
)
from repro.engine import functions
from repro.engine.database import Database
from repro.engine.expressions import (
    Code,
    Emitter,
    Env,
    ExpressionCompiler,
    FLIPPED,
    RunContext,
    Scope,
    all_true,
    row_function,
    statement_memo,
)
from repro.engine.plancache import EngineMetrics, ExecutorStats
from repro.engine.results import ResultSet, StatementResult
from repro.engine.schema import Column, schema_from_ast, type_spec_to_sql_type
from repro.engine.table import Table
from repro.engine.values import SqlType, compares_directly, one_nan, sort_key
from repro.engine.wal import RecordType
from repro.obs.tracer import get_tracer
# benchmarks/e2e/tracing.py wraps this module's own parse_script binding
from repro.sql import ast, parse_script  # noqa: F401
from repro.sql.walk import SUBQUERY_EXPRS, aggregate_calls, children, walk

__all__ = ["Executor"]

#: comparison operators usable as index probes (equality or range bound)
_PROBE_OPS = ("=", "<", "<=", ">", ">=")
#: the names a table parameter's argument may create a table under
_TABLE_NAME = re.compile(r"#?\w+")
#: sentinel from a probe value's evaluation: the index cannot stand in for
#: the per-row comparison (:func:`_probe_value`), so the plan must fall back
#: to the full scan — only the per-row predicate may decide (and raise)
#: there, keeping answers and errors identical to the unprobed path.
_FALLBACK_SCAN = object()
#: the probe kinds valued from a join's outer row -> the index each reads
_JOIN_PROBES = {"pk join": "pk", "secondary join": "secondary"}
#: the probe kinds valued from an ``IN (…)`` list -> the index each reads
_LIST_PROBES = {"pk list": "pk", "secondary list": "secondary"}
#: the share of a source's rows a filter on it keeps, by the filter's shape
#: — static defaults in System R's manner: no statistics, no sampling, no
#: look at a parameter's value.  ``column = value`` keeps 1/distinct count
#: when a primary key or index knows it, else the ``=`` share; an ``IN``
#: list of *k* items keeps *k* times the ``=`` share.
_SELECTIVITY = {
    "=": 1 / 10,
    "<": 1 / 3,  # a one-sided range
    "BETWEEN": 1 / 4,  # a two-sided range: BETWEEN, or bounds on both sides
    "LIKE": 1 / 10,
    "NOT": 9 / 10,  # <>, NOT, NOT IN, NOT BETWEEN, NOT LIKE, IS NOT NULL
    "columns": 1 / 3,  # column <op> column of one source
    "subquery": 1 / 2,  # IN (SELECT …), EXISTS, a comparison with a subquery
}
#: the rows a source without a row count is estimated at: a derived
#: table, a view or a table parameter (none of which has an index)
_DERIVED_ROWS = 100.0
#: what a row fetched through an index lookup costs, in rows scanned: a
#: probe per outer row, and the lookup's rows filtered a few at a time
_INDEX_FETCH = 3.0
#: what :meth:`_SelectPlan._reads` finds in a literal: no source, no subquery
_READS_NOTHING = (frozenset(), False)
#: the column of a reordered plan's anonymous slot after each source's
#: columns: the row's position in that source's scan
_POSITION = Column("#position", SqlType.INT)


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
        #: shared server-wide counters (a private set when standalone)
        self.metrics = metrics if metrics is not None else EngineMetrics()
        #: access-path / pipeline counters (shared server-wide when wired)
        self.stats = stats if stats is not None else ExecutorStats()

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
                    part_plan = _SelectPlan(_Planner(self, params or {}), part, None)
                    lines.extend("  " + line for line in part_plan.describe())
            else:
                plan = _SelectPlan(_Planner(self, params or {}), stmt.select, None)
                lines = plan.describe()
            return StatementResult(
                kind="rows",
                columns=[Column("plan", SqlType.VARCHAR)],
                rows=[(line,) for line in lines],
            )
        if isinstance(stmt, (ast.Select, ast.UnionSelect)) and stmt.into is None:
            return StatementResult.of(
                self.execute_select(stmt, params=params, placeholders=placeholders)
            )

        # Everything else mutates: run inside a transaction.
        autocommit = self.session.current_txn is None
        txn = self._begin_txn() if autocommit else self.session.current_txn
        statement_mark = len(txn.records)
        try:
            result = self._execute_mutation(
                stmt, txn, RunContext(self, placeholders or [], params or {})
            )
        except BaseException as exc:
            if self.database.dead:
                # The server crashed out from under this statement (e.g. a
                # lock wait interrupted by crash()): the volatile engine is
                # gone, so there is nothing to undo — and above all no WAL
                # write may happen after the crash point.
                self.session.current_txn = None
            elif isinstance(exc, DeadlockError):
                # Deadlock victim: the *whole* transaction aborts — its locks
                # must release so the surviving side can proceed.  The
                # client sees a distinguishable, retryable error (the
                # transaction is gone, so a replay is safe).
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
                self.database.procedure_parses.pop(record.proc_sql)

    # ------------------------------------------------------------ mutation dispatch

    def _execute_mutation(self, stmt: ast.Statement, txn, run: RunContext) -> StatementResult:
        """Run a mutation; ``run`` holds the values its plan reads."""
        if isinstance(stmt, (ast.Select, ast.UnionSelect)):  # SELECT ... INTO
            return self._select_into(stmt, txn, run)
        if isinstance(stmt, ast.Insert):
            return self._insert(self._dml_plan(stmt, run), txn, run)
        if isinstance(stmt, ast.Update):
            return self._update(self._dml_plan(stmt, run), txn, run)
        if isinstance(stmt, ast.Delete):
            return self._delete(self._dml_plan(stmt, run), txn, run)
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
            return self._exec_procedure(stmt, txn, run)
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
        meta = _SelectPlan(_Planner(self, {}), stmt.select, None)
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
        self.database.procedure_parses.put(source, stmt)
        return StatementResult.ok(f"CREATE PROCEDURE {name}")

    def _drop_procedure(self, stmt: ast.DropProcedure, txn) -> StatementResult:
        name = stmt.name.lower()
        if name in self.session.temp_procedures:
            self.database.procedure_parses.pop(self.session.temp_procedures.pop(name))
            return StatementResult.ok(f"DROP PROCEDURE {name}")
        if not self.database.has_procedure(name):
            if stmt.if_exists:
                return StatementResult.ok(f"procedure {name} absent")
            raise CatalogError(f"procedure {name} does not exist")
        self.database.procedure_parses.pop(self.database.get_procedure(name))
        self.database.drop_procedure(txn, name)
        return StatementResult.ok(f"DROP PROCEDURE {name}")

    # ------------------------------------------------------------ procedures

    def _exec_procedure(self, stmt: ast.ExecProcedure, txn, run: RunContext) -> StatementResult:
        name = stmt.name.lower()
        source = self.session.temp_procedures.get(name) or (
            self.database.procedures.get(name)
        )
        if source is None:
            raise CatalogError(f"procedure {name} does not exist")
        parses = self.database.procedure_parses
        proc = parses.get(source)
        if proc is None:
            from repro.sql import parse

            parsed = parse(source)
            if not isinstance(parsed, ast.CreateProcedure):
                raise CatalogError(f"stored text of {name} is not a procedure")
            proc = parsed
            parses.put(source, proc)
        if len(stmt.args) != len(proc.params):
            raise ProgrammingError(
                f"procedure {name} expects {len(proc.params)} args, got {len(stmt.args)}"
            )
        # Evaluate call arguments in a rowless scope (constants / outer params);
        # a ``?`` past the values bound raises as it is read.
        compiler = ExpressionCompiler(Scope(), _Planner(self, run.params), params=run.params)
        env = Env([], run=run)
        bound: dict[str, Any] = {}
        for (pname, ptype), arg in zip(proc.params, stmt.args):
            value = compiler.value(arg, env)
            if ptype is not None:
                value = Column(
                    pname.lower(), type_spec_to_sql_type(ptype), length=ptype.length
                ).coerce(value)
            bound[pname.lower()] = value
        result = StatementResult.ok(f"EXEC {name}")
        into_columns = []
        for body_stmt in proc.body:
            if isinstance(body_stmt, (ast.Select, ast.UnionSelect)) and body_stmt.into is None:
                result = StatementResult.of(self.execute_select(body_stmt, params=bound))
            else:
                result = self._execute_mutation(body_stmt, txn, RunContext(self, [], bound))
                into_columns = result.into_columns or into_columns
        # the description of the body's last SELECT ... INTO rides with
        # whatever the procedure answers (its read-back of that table)
        result.into_columns = into_columns
        return result

    # ------------------------------------------------------------ DML

    def _dml_plan(self, stmt: "ast.Insert | ast.Update | ast.Delete", run: RunContext):
        """The plan of an INSERT, UPDATE or DELETE, from the database's plan
        cache, refused when fewer ``?`` values are bound than it reads.  An
        INSERT whose VALUES are all literals, or whose rows come from a
        SELECT (cached as itself), compiles nothing of its own: its plan is
        made for the one run and not kept — kept, it would be a copy of the
        statement's rows."""
        if isinstance(stmt, ast.Insert) and not _computes_values(stmt):
            plan = _InsertPlan(_Planner(self, run.params), stmt)
        else:
            plan = self._cached_runner(stmt, run.params)
        _check_bound(plan.placeholders_required, run.placeholders)
        return plan

    def _target(self, plan: "_InsertPlan | _DmlPlan", run: RunContext) -> tuple[Table, bool]:
        """The table a DML plan writes, found in the running session (a
        table parameter names it anew at each call); (table, is_temp)."""
        return self.resolve_table(self.table_name(plan.table, run.params))

    def _insert(self, plan: "_InsertPlan", txn, run: RunContext) -> StatementResult:
        table, is_temp = self._target(plan, run)
        count = 0
        if plan.select is not None:
            result = self.execute_select(
                plan.select, params=run.params, placeholders=run.placeholders
            )
            for row in result.rows:
                self._insert_row(table, is_temp, txn, plan.full_row(row))
                count += 1
        else:
            env = Env([], run=run)
            for values, computed in plan.rows:
                full = values[:]
                for position, value_fn in computed:
                    full[position] = value_fn(env)
                self._insert_row(table, is_temp, txn, full)
                count += 1
        return StatementResult.count(count, f"INSERT {count}")

    def _insert_row(self, table: Table, is_temp: bool, txn, full_row: list) -> None:
        if is_temp:
            table.insert(table.schema.coerce_row(full_row))
        else:
            self.database.insert_row(txn, table.name, full_row)

    def _dml_lock_candidates(self, txn, table: Table, is_temp: bool, plan: "_DmlPlan", run):
        """Lock and return the (rowid, row) candidates of an UPDATE/DELETE.

        The access path is the SELECT planner's (:func:`_index_probe`),
        chosen when the statement was planned; the predicate is still
        applied in full to what comes back.  Its kind decides the lock
        granularity:

        A primary-key probe — equality or ``IN (…)`` list — locks only the
        touched rows: lock, then
        re-probe, looping until the candidate set is stable under the held
        row locks.  The loop is the row-granularity form of the
        lock-before-scan rule: a candidate computed before a lock wait may
        be a dirty read (the victim aborted mid-wait; the key now lives in
        a different row, or nowhere), and values pre-computed from it must
        never be applied.  Each iteration re-reads after its locks are
        granted, so the set returned was probed entirely under held locks —
        committed state only.

        Everything else — full scans, secondary-index equality, list and
        range probes — takes the whole-table X lock *before* the probe or
        scan is evaluated.
        """
        probe = plan.probe
        env = Env([None] * plan.slot_count, run=run)

        def candidates() -> list[tuple[int, tuple]]:
            rowids = None if probe is None else _probe_rowids(table, probe, env, self.stats)
            if rowids is None:
                return list(table.scan())
            return [(rowid, table.get(rowid)) for rowid in rowids]

        if is_temp:
            return candidates()
        if probe is None or probe[2] not in ("pk", "pk list"):
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

    def _update(self, plan: "_DmlPlan", txn, run: RunContext) -> StatementResult:
        table, is_temp = self._target(plan, run)
        schema = table.schema
        where = plan.where
        # Lock before evaluating anything row-dependent: candidate rows and
        # assignment inputs must never be computed from another
        # transaction's uncommitted writes — a waiter that pre-computed new
        # values from a dirty read would apply them verbatim after the
        # holder aborts.  Keyed point updates lock just the touched rows
        # (see _dml_lock_candidates); everything else locks the table.
        # Snapshot first: assignments must see pre-statement values and the
        # scan must not chase its own writes.
        targets: list[tuple[int, tuple]] = []
        for rowid, row in self._dml_lock_candidates(txn, table, is_temp, plan, run):
            env = Env(list(row), run=run)
            if where is None or where(env) is True:
                targets.append((rowid, row))
        for rowid, row in targets:
            env = Env(list(row), run=run)
            new_row = list(row)
            for index, value_fn in plan.assignments:
                new_row[index] = value_fn(env)
            if is_temp:
                table.update(rowid, schema.coerce_row(new_row))
            else:
                self.database.update_row(txn, table.name, rowid, new_row)
        return StatementResult.count(len(targets), f"UPDATE {len(targets)}")

    def _delete(self, plan: "_DmlPlan", txn, run: RunContext) -> StatementResult:
        table, is_temp = self._target(plan, run)
        where = plan.where
        # Same lock-before-scan rule as UPDATE: the candidate set must not
        # reflect another transaction's uncommitted rows.  Keyed point
        # deletes lock just the touched rows; the rest lock the table.
        targets = [
            rowid
            for rowid, row in self._dml_lock_candidates(txn, table, is_temp, plan, run)
            if where is None or where(Env(list(row), run=run)) is True
        ]
        for rowid in targets:
            if is_temp:
                table.delete(rowid)
            else:
                self.database.delete_row(txn, table.name, rowid)
        return StatementResult.count(len(targets), f"DELETE {len(targets)}")

    def _select_into(
        self, stmt: "ast.Select | ast.UnionSelect", txn, run: RunContext
    ) -> StatementResult:
        """``SELECT ... INTO t`` — materialize the result of any query the
        executor can run (a UNION, an ``AS OF`` read of the past: the rows
        come from the snapshot, the table is created in the live database,
        as for ``INSERT INTO t SELECT ... AS OF``) as a new table.  The
        table stores uniquified column names; the reply describes the
        query's own (``into_columns``)."""
        assert stmt.into is not None
        target = self.table_name(stmt.into, run.params)
        if target is not stmt.into and not _TABLE_NAME.fullmatch(target):
            raise ProgrammingError(f"parameter {stmt.into} names no table it could create: {target!r}")
        result = self.execute_select(stmt, params=run.params, placeholders=run.placeholders)
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
        outcome.into_columns = result.columns
        return outcome

    # ------------------------------------------------------------ SELECT pipeline

    def execute_select(
        self,
        select: "ast.Select | ast.UnionSelect",
        *,
        params: dict[str, Any] | None = None,
        placeholders: list | None = None,
    ) -> ResultSet:
        """Run a top-level SELECT through the database's plan cache and
        return a materialized result."""
        if getattr(select, "as_of", None) is not None and getattr(self, "as_of_cut", None) is None:
            # Point-in-time query: route to the snapshot executor for the
            # cut.  Snapshot executors carry ``as_of_cut`` — they already
            # *are* the requested moment, so they fall through and run the
            # same AST normally (the as_of field is resolved, not recursed
            # on).
            return self._execute_as_of(select, params=params, placeholders=placeholders)
        params = params or {}
        placeholders = placeholders or []
        # The compiled plan reads ``?`` and ``@name`` from the run context
        # it is handed, so the template (of a request or of a procedure
        # body) keys the cache and no value is bound into the plan.
        runner = self._cached_runner(select, params)
        _check_bound(runner.placeholders_required, placeholders)
        return runner.run(Env([], run=RunContext(self, placeholders, params)))

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

    def _cached_runner(self, stmt: ast.Statement, params: dict[str, Any]):
        """Compiled plan for a top-level SELECT, UPDATE, DELETE or INSERT …
        VALUES, from the database's plan cache while every name it resolved
        stands, in this session, for what it stood for (see
        :meth:`_binding`).  Keys are statement object identities — the
        server-side parse cache returns the *same* AST objects for repeated
        SQL text, the procedure cache for repeated ``EXEC``s, and the entry
        pins the statement so the id stays unambiguous."""
        plans = self.database.plans
        runner = plans.lookup(stmt, lambda name: self._binding(name, params), self.metrics)
        if runner is None:
            planner = _Planner(self, params, cached=True)
            if isinstance(stmt, (ast.Select, ast.UnionSelect)):
                runner = _compile(planner, stmt, None)
            else:
                runner = (_InsertPlan if isinstance(stmt, ast.Insert) else _DmlPlan)(planner, stmt)
                self.stats.compiled_plans += 1
            plans.store(stmt, planner.bindings, runner, planner.sizes)
        return runner


class _Planner:
    """What compiling one statement reads and records.  It lives for one
    compile: no plan keeps it, so a compiled plan holds no session.

    ``executor`` is the compiling session's — names resolve in its session.
    ``params`` are the ``@name`` values in force: their names are what the
    statement may read, and a table parameter's value names the table whose
    columns ``FROM @t`` is compiled against.  ``required`` counts the ``?``
    values the statement needs.  For a plan compiled for the cache,
    ``bindings`` and ``sizes`` collect what its validity rests on
    (:class:`~repro.engine.plancache.PlanCache`).
    """

    def __init__(self, executor: Executor, params: dict[str, Any], cached: bool = False):
        self.executor = executor
        self.params = params
        self.required = 0
        #: (name, what it resolved to) per FROM name; None when not cached
        self.bindings: list[tuple[str, Any]] | None = [] if cached else None
        #: (table, its row count now) per table bound
        self.sizes: list[tuple[Table, int]] = []

    def bind(self, name: str, sized: bool = True) -> None:
        """The plan resolves ``name``: a cached plan keeps what it found,
        and is valid while :meth:`Executor._binding` finds the same.  A
        table the plan reads ``sized`` also keeps its row count, which its
        join order was chosen from; a DML target is found through its
        indexes, whatever its size."""
        if self.bindings is None:
            return
        bound = self.executor._binding(name, self.params)
        self.bindings.append((name, bound))
        if sized and name[0] != "@" and isinstance(bound, tuple):  # (table, version)
            self.sizes.append((bound[0], bound[0].row_count()))

    # -- SubqueryRunner protocol ------------------------------------------------

    def prepare_subquery(self, select: ast.Select, scope: Scope):
        """Plan a subquery once against ``scope``; returns (rows_fn,
        correlated).  ``rows_fn(env)`` re-runs the compiled plan with the
        outer row's environment — compilation happens exactly once per
        statement, which is what makes correlated subqueries affordable."""
        plan = _compile(self, select, scope)

        def rows_fn(env: Env) -> list[tuple]:
            return plan.run(env).rows

        if isinstance(plan, _UnionRunner):
            return rows_fn, plan.correlated
        return rows_fn, plan.scope.used_parent


def _compile(planner: _Planner, select: "ast.Select | ast.UnionSelect", outer_scope: Scope | None):
    """The plan of a SELECT or a UNION, with ``outer_scope`` as its outer
    level."""
    if isinstance(select, ast.UnionSelect):
        return _UnionRunner(planner, select, outer_scope)
    return _SelectPlan(planner, select, outer_scope)


class _DmlPlan:
    """One compiled UPDATE or DELETE: its WHERE, its SET functions (none for
    a DELETE), the access path :func:`_index_probe` chose into the target
    and the width of the row environment.

    Like a SELECT plan it holds no session: a run finds the target in the
    running session (:meth:`Executor._target`), and the plan is valid while
    the name resolves to the table — and the index set — it was compiled
    against.  A table parameter (``UPDATE @t``) binds the columns of the
    table it named, so one plan serves every table of that shape, and takes
    no index path: an index belongs to one table."""

    __slots__ = ("table", "where", "assignments", "probe", "slot_count", "placeholders_required")

    def __init__(self, planner: _Planner, stmt: "ast.Update | ast.Delete"):
        executor = planner.executor
        name = self.table = stmt.table
        planner.bind(name.lower(), sized=False)
        table, _ = executor.resolve_table(executor.table_name(name, planner.params))
        schema = table.schema
        scope = Scope()
        scope.add_source(name, schema.column_names)
        compiler = ExpressionCompiler(scope, planner, params=planner.params)
        self.where = compiler.compile_predicate(stmt.where) if stmt.where is not None else None
        self.assignments = [
            (schema.column_index(column.lower()), compiler.compile(expr))
            for column, expr in (stmt.assignments if isinstance(stmt, ast.Update) else ())
        ]
        self.probe = (
            None if name[0] == "@"
            else _index_probe(table, 0, _split_conjuncts(stmt.where), scope, compiler)
        )
        self.slot_count = scope.slot_count
        self.placeholders_required = planner.required


class _InsertPlan:
    """One INSERT: the target's column positions, and either its source
    SELECT or its VALUES rows — each as the row's values with a function in
    place of every value a run computes (``?``, ``@name``, ``rowcount()``,
    a subquery, a function call).  Cached only when some value is computed
    (:meth:`Executor._dml_plan`)."""

    __slots__ = ("table", "positions", "width", "select", "rows", "placeholders_required")

    def __init__(self, planner: _Planner, stmt: ast.Insert):
        executor = planner.executor
        name = self.table = stmt.table
        planner.bind(name.lower(), sized=False)
        schema = executor.resolve_table(executor.table_name(name, planner.params))[0].schema
        if stmt.columns is not None:
            self.positions = [schema.column_index(c.lower()) for c in stmt.columns]
        else:
            self.positions = list(range(len(schema.columns)))
        self.width = len(schema.columns)
        self.select = stmt.select
        compiler = ExpressionCompiler(Scope(), planner, params=planner.params)
        #: per VALUES row: (its values, None where computed; [(position, function)])
        self.rows: list[tuple[list, list[tuple[int, Callable]]]] = []
        for row_exprs in stmt.rows or ():
            self._check_width(len(row_exprs))
            values: list = [None] * self.width
            computed = []
            for position, expr in zip(self.positions, row_exprs):
                code = compiler.code(expr)
                if code.constant:
                    values[position] = code.value
                else:
                    computed.append((position, row_function(code)))
            self.rows.append((values, computed))
        self.placeholders_required = planner.required

    def _check_width(self, count: int) -> None:
        if count != len(self.positions):
            raise ProgrammingError(f"INSERT expects {len(self.positions)} values, got {count}")

    def full_row(self, row: tuple) -> list:
        """A row of the source SELECT placed at the target's positions."""
        self._check_width(len(row))
        full: list = [None] * self.width
        for position, value in zip(self.positions, row):
            full[position] = value
        return full


def _computes_values(stmt: ast.Insert) -> bool:
    """Does a VALUES item of ``stmt`` compute anything — is it not a bare
    literal?  Only such an INSERT has a plan worth keeping."""
    return stmt.rows is not None and not all(
        expr.__class__ is ast.Literal for row in stmt.rows for expr in row
    )


def _check_bound(required: int, placeholders: list) -> None:
    """Refuse a run given fewer ``?`` values than the statement needs."""
    if len(placeholders) < required:
        raise ProgrammingError(
            f"statement has placeholder ?{required} but only "
            f"{len(placeholders)} values were bound"
        )


class _SelectPlan:
    """One compiled SELECT: scope, compiled filters, and the row pipeline.

    Immutable once compiled and free of any session: a run reads what
    varies from the :class:`~repro.engine.expressions.RunContext` of the
    environment it is handed, so one plan serves every session of its
    database, interleaved runs included."""

    def __init__(self, planner: _Planner, select: ast.Select, outer_scope: Scope | None):
        self.select = select
        #: name resolution for this query level; its ``used_parent`` says
        #: whether the query is correlated
        self.scope = Scope(parent=outer_scope)
        #: Column metadata per scope slot, parallel to scope slots.
        self.slot_columns: list[Column] = []
        #: (binding, rows supplier) in scope order — the order the joins run
        self.sources: list[_Source] = []
        self._register_from(planner, select.from_)
        #: the bindings in the order the FROM list names them: ``*`` expands so
        self.from_bindings = [source.binding for source in self.sources]
        self._plan_join_order()
        compiler = ExpressionCompiler(self.scope, planner, params=planner.params)
        self._plan_joins(compiler)
        self._plan_projection(planner, compiler)
        self._plan_topk()
        #: the ``?`` values a run needs: those of the whole statement on a
        #: top-level plan, compiled last
        self.placeholders_required = planner.required
        planner.executor.stats.compiled_plans += 1

    # -- FROM ---------------------------------------------------------------

    def _register_from(self, planner: _Planner, ref: ast.TableRef | None) -> None:
        if ref is None:
            return
        if isinstance(ref, ast.TableName):
            executor = planner.executor
            planner.bind(ref.name.lower())
            if ref.name[0] == "@":
                self._register_table_parameter(planner, ref)
                return
            if not executor.table_exists(ref.name):
                view = executor.view_definition(ref.name)
                if view is not None:
                    self._register_view(planner, ref, view)
                    return
            table, _ = executor.resolve_table(ref.name)
            binding = (ref.alias or ref.name).lower()
            rows = table.rows
            self._add_source(
                _Source(binding, lambda env: rows(), table.schema.columns, table=table)
            )
            return
        if isinstance(ref, ast.SubquerySource):
            # Derived tables are planned now (their column metadata becomes
            # scope slots) and evaluated lazily once per statement — they
            # cannot see sibling FROM items, only the statement's outer scope.
            meta = _compile(planner, ref.select, self.scope.parent)
            columns = [Column(c.name, c.type, length=c.length) for c in meta.output_columns]
            self._add_source(_Source(ref.alias.lower(), _once_per_run(meta), columns))
            return
        if isinstance(ref, ast.Join):
            self._register_from(planner, ref.left)
            self._register_from(planner, ref.right)
            return
        raise NotSupportedError(f"FROM element {type(ref).__name__}")

    def _register_table_parameter(self, planner: _Planner, ref: ast.TableName) -> None:
        """``FROM @t``: the plan binds the *columns* of the table the
        argument names and finds the table again at each run, in the
        running session, so one plan serves every table of that shape.  No
        index path: an index belongs to one table."""
        name = ref.name
        executor = planner.executor
        columns = executor.resolve_table(executor.table_name(name, planner.params))[0].schema.columns

        def rows(env: Env) -> list[tuple]:
            run = env.run
            return run.executor.resolve_table(run.executor.table_name(name, run.params))[0].rows()

        self._add_source(_Source((ref.alias or name).lower(), rows, columns))

    def _register_view(self, planner: _Planner, ref: ast.TableName, view: ast.CreateView) -> None:
        """Expand a view reference as a derived table (planned once,
        evaluated lazily once per statement), applying the view's declared
        column names."""
        meta = _SelectPlan(planner, view.select, None)
        names = view.columns or [c.name for c in meta.output_columns]
        binding = (ref.alias or ref.name).lower()
        columns = [
            Column(name, c.type, length=c.length) for name, c in zip(names, meta.output_columns)
        ]
        self._add_source(_Source(binding, _once_per_run(meta), columns))

    def _add_source(self, source: "_Source") -> None:
        """Append ``source`` to the scope, its columns, and the sources."""
        self.scope.add_source(source.binding, [column.name for column in source.columns])
        self.slot_columns.extend(source.columns)
        self.sources.append(source)

    def _plan_join_order(self) -> None:
        """Choose the order the joins run in, before anything is compiled.

        A FROM list of two or more sources whose steps are all inner or
        cross joins may run in any order: :meth:`_choose_order` picks the
        one its static estimates price cheapest, FROM order on a tie.  A
        list with a LEFT join runs as written.  For such a list the planner
        also closes the column equalities between sources into equivalence
        classes (any connected order gets an equi key) and derives the local
        filters a disjunction implies (:meth:`_implied_filters`).

        When the order changes, :meth:`_run_in` lays the plan out in run
        order, and :meth:`_source_rows` sorts the joined rows back into FROM
        order after the last step: every later stage sees the rows, in the
        order, that the FROM-order plan would give it.
        """
        kinds, on_exprs = _from_steps(self.select.from_)
        #: per source, in run order: does each row carry its scan position?
        self.positioned = [False] * len(self.sources)
        self.source_ranges = self._ranges()
        #: a row -> the scan positions that put it back in FROM order, when
        #: the joins run in another order; None when they run in FROM order
        self.restore = None
        #: per step, in run order: its join kind and its ON
        self.step_kinds, self.step_on = kinds, on_exprs
        #: filters on one source a disjunction implies, placed beside WHERE's
        self.implied: list[ast.Expr] = []
        #: columns equated across sources, as absolute slots, per class
        self.classes: list[list[int]] = []
        #: conjunct id -> the sources (run order) it reads, found on the way
        self.conjunct_reads: dict[int, frozenset] = {}
        #: conjunct id -> its :meth:`_column_pair`, likewise
        self.column_pairs: dict[int, tuple[int, int] | None] = {}
        if len(self.sources) < 2 or "LEFT" in kinds:
            return
        #: node id -> what :meth:`_reads` found, while FROM order holds
        self._read_memo: dict[int, tuple[frozenset, bool]] = {}
        #: slot -> what :meth:`_distinct` found, likewise
        self._distinct_memo: dict[int, float | None] = {}
        conjuncts = [c for on in on_exprs for c in _split_conjuncts(on)]
        conjuncts += _split_conjuncts(self.select.where)
        self.implied = self._implied_filters(conjuncts)
        conjuncts += self.implied
        self.classes = self._equivalence_classes(conjuncts)
        order = self._choose_order(conjuncts, self.classes)
        run_of = {index: step for step, index in enumerate(order)}
        self.conjunct_reads = {
            id(c): frozenset(run_of[i] for i in self._reads(c)[0]) for c in conjuncts
        }
        del self._read_memo, self._distinct_memo
        if order != sorted(order):
            self._run_in(order, run_of)
            # the FROM list's first source joins the way its second step does
            self.step_kinds = [kinds[i] if i else kinds[1] for i in order]
            self.step_kinds[0] = "FIRST"
            self.step_on = [on_exprs[i] for i in order]

    def _run_in(self, order: list[int], run_of: dict[int, int]) -> None:
        """Lay the sources, the scope and the column metadata out in run
        ``order``, and set :attr:`restore` to put the joined rows back.

        Rows come out in lexicographic order of the sources' scan positions
        taken in run order, and FROM order sorts them taken in FROM order.
        A stable sort on the positions of the first FROM sources leaves ties
        in run order, which is FROM order for the sources after them when
        those run in FROM order: only the first sources carry a position,
        in a slot past their columns."""
        keyed = len(order) - 1
        while keyed and run_of[keyed - 1] < run_of[keyed]:
            keyed -= 1
        sources, from_ranges = self.sources, self.source_ranges
        self.sources = [sources[index] for index in order]
        self.positioned = [index < keyed for index in order]
        self.source_ranges = self._ranges()
        moved = list(range(from_ranges[-1][1]))  # FROM-order slot -> run-order slot
        for index, (start, end) in enumerate(from_ranges):
            run_start = self.source_ranges[run_of[index]][0]
            moved[start:end] = range(run_start, run_start + end - start)
        self.scope = self.scope.reordered(order, moved, self.source_ranges[-1][1])
        self.slot_columns = []
        for source, positioned in zip(self.sources, self.positioned):
            self.slot_columns += source.columns
            if positioned:
                self.slot_columns.append(_POSITION)
        self.restore = itemgetter(*(self.source_ranges[run_of[i]][1] - 1 for i in range(keyed)))
        self.classes = [sorted(moved[slot] for slot in members) for members in self.classes]
        self.column_pairs = {
            key: pair and (moved[pair[0]], moved[pair[1]])
            for key, pair in self.column_pairs.items()
        }

    def _ranges(self) -> list[tuple[int, int]]:
        """Each source's absolute slot range, in scope order: its columns
        and, in a reordered plan, its position slot."""
        ranges, offset = [], 0
        #: absolute slot -> the source it belongs to
        self.slot_sources = []
        for index, source in enumerate(self.sources):
            width = len(source.columns) + self.positioned[index]
            ranges.append((offset, offset + width))
            self.slot_sources += [index] * width
            offset += width
        return ranges

    def _implied_filters(self, conjuncts: list[ast.Expr]) -> list[ast.Expr]:
        """The filters on one source that OR conjuncts imply.  When every
        arm of an OR over several sources has conjuncts that read source *s*
        alone, the OR of those parts holds for every row the OR keeps: it
        filters *s* before *s* is joined, and the OR itself stays to decide.
        Q7's ``(n1 = … AND n2 = …) OR (n1 = … AND n2 = …)`` gives ``n1`` and
        ``n2`` a two-value filter each."""
        implied = []
        for conjunct in conjuncts:
            arms = _split_conjuncts(conjunct, "OR")
            if len(arms) < 2:
                continue
            read = self._reads(conjunct)[0]
            if len(read) < 2:
                continue
            arm_parts = [_split_conjuncts(arm) for arm in arms]
            for source in sorted(read):
                implied_arms = []
                for parts in arm_parts:
                    own = [part for part in parts if self._reads(part) == ({source}, False)]
                    if not own:
                        break
                    implied_arms.append(_joined(own, "AND"))
                else:
                    implied.append(_joined(implied_arms, "OR"))
        return implied

    def _equivalence_classes(self, conjuncts: list[ast.Expr]) -> list[list[int]]:
        """The column equalities between sources, closed transitively: each
        class lists the absolute slots of columns whose values are equal in
        every row the query keeps.  Only pairs that compare directly join a
        class (:meth:`_column_pair`), and the classes of directly comparable
        types (numbers, texts, dates) never mix, so any two members compare
        directly."""
        parent: dict[int, int] = {}

        def root(slot: int) -> int:
            while parent.get(slot, slot) != slot:
                slot = parent[slot]
            return slot

        for conjunct in conjuncts:
            pair = self.column_pairs[id(conjunct)] = self._column_pair(conjunct)
            if pair is not None:
                low, high = sorted(map(root, pair))
                if low != high:
                    parent[high] = parent[low] = low
        classes: dict[int, list[int]] = {}
        for slot in sorted(parent):
            classes.setdefault(root(slot), []).append(slot)
        return list(classes.values())

    def _choose_order(self, conjuncts: list[ast.Expr], classes: list[list[int]]) -> list[int]:
        """The run order (FROM indices) :func:`_cheapest_order` prices
        lowest, from static estimates: a table's row count (a derived
        table, view or table parameter is :data:`_DERIVED_ROWS` rows and has
        no index), the share of its rows its own conjuncts keep
        (:meth:`_local_share`), and per equivalence class the distinct
        count that divides a join's fan-out — the largest a primary key or
        index knows of, else the larger member source's row count."""
        rows = [
            float(source.table.row_count()) if source.table is not None else _DERIVED_ROWS
            for source in self.sources
        ]
        own: list[list[ast.Expr]] = [[] for _ in self.sources]
        for conjunct in conjuncts:
            read = self._reads(conjunct)[0]
            if len(read) == 1:
                own[min(read)].append(conjunct)
        kept, scanned, probed = [], [], []
        for index, conjuncts_of in enumerate(own):
            share, fetched = self._local_share(index, conjuncts_of)
            kept.append(rows[index] * share)
            scanned.append(rows[index] * fetched)
            probed.append(fetched < 1.0)
        links: list[list[tuple[int, float, float | None]]] = [[] for _ in self.sources]
        for members in classes:
            by_source: dict[int, list[float | None]] = {}
            for slot in members:
                by_source.setdefault(self._source_of(slot), []).append(self._distinct(slot))
            known = [count for counts in by_source.values() for count in counts if count]
            distinct = max(known) if known else max(rows[index] for index in by_source)
            mask = sum(1 << index for index in by_source)
            for index, counts in by_source.items():
                per_probe = None
                if not probed[index]:
                    per_probe = min(
                        (rows[index] / count for count in counts if count), default=None
                    )
                links[index].append((mask & ~(1 << index), max(distinct, 1.0), per_probe))
        return _cheapest_order(rows, scanned, kept, links)

    def _local_share(self, index: int, conjuncts: list[ast.Expr]) -> tuple[float, float]:
        """(the share of source ``index``'s rows its own ``conjuncts`` keep,
        the share a constant index probe would fetch: 1.0 when none
        would).  Bounds on one column from separate conjuncts price as one
        range: two-sided when both sides are bounded."""
        share = fetched = 1.0
        bounds: dict[int, tuple[set, bool]] = {}  # slot -> (sides, indexed)
        for conjunct in conjuncts:
            part, indexed = self._selectivity(conjunct, index, bounds)
            share *= part
            if indexed:
                fetched = min(fetched, part)
        for sides, indexed in bounds.values():
            part = _SELECTIVITY["BETWEEN" if len(sides) == 2 else "<"]
            share *= part
            if indexed:
                fetched = min(fetched, part)
        return share, fetched

    def _selectivity(self, conjunct: ast.Expr, index: int, bounds: dict | None):
        """(the share of source ``index``'s rows ``conjunct`` keeps, could
        an index probe fetch them) by the conjunct's shape
        (:data:`_SELECTIVITY`), reading it as :func:`_probe_readings`
        does.  A one-sided bound on a column is entered in ``bounds`` and
        priced by the caller when ``bounds`` is given."""
        negated = (
            getattr(conjunct, "negated", False)
            or isinstance(conjunct, ast.Unary) and conjunct.op.upper() == "NOT"
        )
        if self._reads(conjunct)[1]:
            return _SELECTIVITY["NOT" if negated else "subquery"], False
        if isinstance(conjunct, ast.Binary):
            op = conjunct.op.upper()
            if op == "AND" or op == "OR":
                left, _ = self._selectivity(conjunct.left, index, None)
                right, _ = self._selectivity(conjunct.right, index, None)
                return (left * right if op == "AND" else min(1.0, left + right)), False
            negated = op == "<>" or op == "!="
        sides = []
        compared = False
        for column_side, op, value_side in _probe_readings(conjunct):
            compared = True
            values = value_side if op == "IN" else [value_side]
            if any(self._reads(value)[0] for value in values) or not self._reads(column_side)[0]:
                continue
            slot = _column_slot(self.scope, column_side)
            distinct = None if slot is None else self._distinct(slot)
            if op in ("=", "IN"):
                equal = 1.0 / distinct if distinct else _SELECTIVITY["="]
                return min(1.0, equal * len(values)), distinct is not None
            sides.append((slot, op in (">", ">=")))
        if len(sides) == 2:  # BETWEEN
            slot = sides[0][0]
            return _SELECTIVITY["BETWEEN"], slot is not None and self._distinct(slot) is not None
        if sides:
            slot, lower = sides[0]
            if bounds is None or slot is None:
                return _SELECTIVITY["<"], False
            entry = bounds.setdefault(slot, (set(), self._distinct(slot) is not None))
            entry[0].add(lower)
            return 1.0, False
        if compared:  # column <op> column, both of this source
            return _SELECTIVITY["columns"], False
        if negated:
            return _SELECTIVITY["NOT"], False
        if isinstance(conjunct, ast.Like):
            return _SELECTIVITY["LIKE"], False
        return 1.0, False

    def _reads(self, expr: ast.Node) -> tuple[frozenset, bool]:
        """(the sources ``expr`` reads, as :meth:`_sources_read` finds them;
        does it hold a subquery?) — remembered for every node under
        ``expr``, so choosing the order reads each conjunct once."""
        memo = self._read_memo
        found = memo.get(id(expr))
        if found is not None:
            return found
        if isinstance(expr, ast.ColumnRef):
            slot = _column_slot(self.scope, expr)
            found = (frozenset(() if slot is None else (self._source_of(slot),)), False)
        elif isinstance(expr, (ast.Literal, ast.Select, ast.UnionSelect)):
            found = _READS_NOTHING
        else:
            read, subquery = frozenset(), isinstance(expr, SUBQUERY_EXPRS)
            for child in children(expr):
                child_read, child_subquery = self._reads(child)
                read |= child_read
                subquery = subquery or child_subquery
            found = (read, subquery)
        memo[id(expr)] = found
        return found

    def _distinct(self, slot: int) -> float | None:
        """How many distinct values the column at ``slot`` holds, when a
        one-column primary key (its row count) or a secondary index (its
        key count) says; else None."""
        memo = self._distinct_memo
        if slot in memo:
            return memo[slot]
        index = self._source_of(slot)
        table = self.sources[index].table
        found = None
        if table is not None:
            name = self.slot_columns[slot].name
            if table.schema.primary_key == (name,):
                found = float(table.row_count())
            elif table.has_secondary_index(name):
                found = float(table.index_key_count(name))
        memo[slot] = found
        return found

    def _plan_joins(self, compiler: ExpressionCompiler) -> None:
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

        A step also gets an equi key from each equivalence class with a
        column at source *k* and one earlier that no conjunct's key covers,
        and the filters :meth:`_implied_filters` derived run as local
        filters beside the rest.

        The ON of a LEFT join stays at its step, split the same way (a
        residual there that names a later source reads NULL for it).  A
        WHERE conjunct whose step is a LEFT join is a post filter, applied
        after the join pads its rows: filtering inside would change which
        rows get NULL-padded.

        A step whose equi key is the inner table's one-column primary key,
        or has a secondary index, can look each outer row's key up instead
        of hashing the table: :meth:`_join` decides per run.
        """
        kinds, on_exprs = self.step_kinds, self.step_on

        #: per step: (conjunct, compiled, reads this step's source alone)
        at_step: list[list[tuple[ast.Expr, Code, bool]]] = [[] for _ in self.sources]
        post: list[list[Code]] = [[] for _ in self.sources]
        final: list[Code] = []
        #: conjuncts referencing no column of this query's rows (a ``?``,
        #: an ``@name``, ``rowcount()``, outer-correlated guards) — evaluated
        #: once per run, not once per row
        row_independent: list[Code] = []
        #: set when a conjunct folded to not-True at compile time (Phoenix's
        #: ``0 = 1`` metadata probe) — the plan is then an empty-result
        #: short circuit, which makes ``WHERE 0=1`` compile-only, as the
        #: paper assumes.
        self.folded_false = False

        def place(conjunct: ast.Expr) -> None:
            code, correlated = compiler.compile_conjunct(conjunct)
            if correlated:
                final.append(code)
                return
            read = self._sources_read(conjunct)
            if not read:
                if not code.constant:
                    row_independent.append(code)
                elif code.value is not True:
                    self.folded_false = True
                return
            target = max(read)
            if kinds[target] == "LEFT":
                post[target].append(code)
            else:
                at_step[target].append((conjunct, code, read == {target}))

        for index, on_expr in enumerate(on_exprs):
            for conjunct in _split_conjuncts(on_expr):
                if kinds[index] != "LEFT":
                    place(conjunct)
                    continue
                code, correlated = compiler.compile_conjunct(conjunct)
                local = not correlated and self._sources_read(conjunct) <= {index}
                at_step[index].append((conjunct, code, local))
        for conjunct in _split_conjuncts(self.select.where) + self.implied:
            place(conjunct)
        #: the conjuncts that read no row, as one ``env → bool``
        self.constant_filter = all_true(row_independent)

        #: per step: (class, its first column, its first column at the step)
        #: for each equivalence class that reaches the step from an earlier one
        class_keys: list[list[tuple[list[int], int, int]]] = [[] for _ in self.sources]
        for members in self.classes:
            reached = {self._source_of(members[0])}
            for slot in members[1:]:
                step = self._source_of(slot)
                if step not in reached:
                    reached.add(step)
                    class_keys[step].append((members, members[0], slot))

        self.join_steps: list[_JoinStep] = []
        for index, kind in enumerate(kinds):
            equi: list[tuple[int, int]] = []
            local: list[Code] = []
            residual: list[Code] = []
            for conjunct, code, reads_own_source in at_step[index]:
                pair = self._equi_pair(conjunct, index)
                if pair is not None:
                    equi.append(pair)
                elif reads_own_source:
                    local.append(code)
                else:
                    residual.append(code)
            start, end = self.source_ranges[index]
            for members, outer, inner in class_keys[index]:
                if not any(start + right in members for _, right in equi):
                    equi.append((outer, inner - start))
            table = self.sources[index].table
            probe = lookup = None
            if table is not None and kind != "LEFT":
                probe = _index_probe(
                    table,
                    self.source_ranges[index][0],
                    [conjunct for conjunct, _fn, own in at_step[index] if own],
                    self.scope,
                    compiler,
                )
            if table is not None and probe is None and index > 0:
                lookup = _lookup_probe(table, equi)
            step = _JoinStep(kind, equi, local, residual, post[index], probe, lookup)
            positioned = self.positioned[index]
            if local:
                step.scan_filter = _filter_rows(local, start, positions=positioned)
                step.lookup_filter = (
                    _filter_rows(local, start) if positioned and lookup else step.scan_filter
                )
            if index:
                step.join = _join_rows(step, start, end, self.source_ranges[-1][1])
            self.join_steps.append(step)
        #: the WHERE conjuncts with a correlated subquery, after the last step
        self.where_codes = final
        self.where = _filter_rows(final, 0) if final else None

    def _sources_read(self, conjunct: ast.Expr) -> set[int]:
        """The sources whose columns ``conjunct`` names outside its
        subqueries (an outer reference names none of them)."""
        found = self.conjunct_reads.get(id(conjunct))
        if found is not None:
            return set(found)
        read = set()
        for ref in _plain_refs(conjunct):
            resolved = self.scope.try_resolve(ref.name, ref.table)
            if resolved is not None and resolved[0] == 0:
                read.add(self._source_of(resolved[1]))
        return read

    def _source_of(self, slot: int) -> int:
        return self.slot_sources[slot]

    def _equi_pair(self, conjunct: ast.Expr, step: int) -> tuple[int, int] | None:
        """If ``conjunct`` is a :meth:`_column_pair` linking an earlier
        source to source ``step``, return (left_abs_slot, right_local_slot)."""
        key = id(conjunct)
        pair = self.column_pairs[key] if key in self.column_pairs else self._column_pair(conjunct)
        if pair is None:
            return None
        start, end = self.source_ranges[step]
        a, b = pair
        if start <= a < end and b < start:
            return (b, a - start)
        if start <= b < end and a < start:
            return (a, b - start)
        return None

    def _column_pair(self, conjunct: ast.Expr) -> tuple[int, int] | None:
        """If ``conjunct`` is ``col = col`` over columns of two different
        sources whose values compare directly, their absolute slots."""
        if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
            return None
        a = _column_slot(self.scope, conjunct.left)
        b = _column_slot(self.scope, conjunct.right)
        if a is None or b is None or self._source_of(a) == self._source_of(b):
            return None
        if not compares_directly(self.slot_columns[a].type, self.slot_columns[b].type):
            return None  # ``=`` casts one side first: a hash would miss its matches
        return (a, b)

    # -- projection planning ----------------------------------------------------

    def _expand_items(self) -> list[tuple[ast.Expr, str]]:
        """Expand stars; returns [(expr, output name)]."""
        items: list[tuple[ast.Expr, str]] = []
        for item in self.select.items:
            expr = item.expr
            if isinstance(expr, ast.Star):
                bindings = [expr.table.lower()] if expr.table else self.from_bindings
                for binding in bindings:
                    for name in self.scope.columns_of(binding):
                        items.append((ast.ColumnRef(name, table=binding), name))
                continue
            name = item.alias or _derive_name(expr)
            items.append((expr, name.lower()))
        return items

    def _plan_projection(self, planner: _Planner, compiler: ExpressionCompiler) -> None:
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
            self._plan_grouping(compiler, [compiler.code(e) for e in group_exprs])
            post_compiler = ExpressionCompiler(
                self.scope, planner, agg_slots=agg_slots, params=planner.params
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
            self.item_codes = [compiler.code(expr) for expr, _ in self.items]
            self.having_fn = None
            self.order_fns = self._compile_order(compiler)
        #: the select list's slots when every item is a column of the row:
        #: the output rows are then one ``itemgetter`` over the rows; else
        #: ``project`` computes them in one generated loop
        self.project_slots = self.project = None
        if not self.grouped:
            slots = [code.slot for code in self.item_codes]
            if slots and None not in slots:
                self.project_slots = slots
            else:
                self.project = _project_rows(self.item_codes)

        self.output_columns = [
            _infer_column(expr, name, self.slot_columns, self.scope)
            for expr, name in self.items
        ]

    def _plan_grouping(self, compiler: ExpressionCompiler, key_codes: list[Code]) -> None:
        """How :meth:`_run_grouped` keys the rows and folds each group's
        aggregates: an ``itemgetter`` key where every GROUP BY key is a
        column of the row, else each key's per-row function; and one
        generated function per group for the aggregates."""
        slots = [code.slot for code in key_codes]
        #: the key of a row when every GROUP BY key is a column of it
        self.group_key = itemgetter(*slots) if slots and None not in slots else None
        self.group_key_fns = [row_function(code) for code in key_codes]
        #: (a group's rows, env) -> its aggregates' values, in order
        self.aggregate = _aggregate_rows(
            [
                (
                    functions.make_accumulator(node.name, star=node.star, distinct=node.distinct).fold,
                    None if node.star else compiler.code(node.args[0]),
                )
                for node in self.agg_nodes
            ]
        )

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
        if step.post:
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
        #: per row: the local filters, the final WHERE, the select list
        self.topk_fns = (
            all_true(step.local),
            all_true(self.where_codes),
            [row_function(code) for code in self.item_codes],
        )

    # -- plan introspection -------------------------------------------------------

    def describe(self) -> list[str]:
        """Human-readable plan: join order, hash keys, pushed filters —
        the EXPLAIN output."""
        lines: list[str] = []
        select = self.select
        if not self.sources:
            lines.append("Result: constant row")
        if self.restore is not None:
            lines.append(
                f"Join order {', '.join(s.binding for s in self.sources)} by estimated cost "
                f"(rows restored to FROM order {', '.join(self.from_bindings)})"
            )
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
                    index = _LIST_PROBES.get(probe_kind, probe_kind)
                    label = "PkLookup" if index == "pk" else "IndexScan"
                    if probe_kind in _LIST_PROBES:
                        count = len(payload)
                        match = f"IN {count} value{'' if count == 1 else 's'}"
                    else:
                        match = "= const"
                    head = f"{label} {source.binding} ({column} {match})"
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
            if step.local:
                notes.append(f"local prefilter (residual filter on {source.binding} rows)")
            if step.residual:
                notes.append("residual filter on joined rows")
            if step.post:
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

    def run(self, outer_env: Env) -> ResultSet:
        """Run the plan for the outer row ``outer_env`` (a rowless one at
        the top level), whose run context carries what the run reads."""
        out_rows = self._run_rows(outer_env)
        outer_env.run.stats.rows_returned += len(out_rows)
        return ResultSet(self.output_columns, out_rows)

    def _run_rows(self, outer_env: Env) -> list[tuple]:
        if self._passes_no_row(outer_env):
            # nothing is read, but an aggregate without GROUP BY still
            # answers its one row over no input
            rows: list[tuple] = []
        elif self.topk is not None:
            return self._run_topk(outer_env)
        else:
            rows = self._source_rows(outer_env)
        if self.where is not None:
            rows = self.where(rows, _env([], outer_env))

        if self.grouped:
            out_rows, rows = self._run_grouped(rows, outer_env)
        else:
            slots = self.project_slots
            if slots is None:
                out_rows = self.project(rows, _env([], outer_env))
            elif len(slots) == 1:
                (slot,) = slots
                out_rows = [(r[slot],) for r in rows]
            else:
                out_rows = list(map(itemgetter(*slots), rows))
        # ``rows`` are parallel to ``out_rows``: what ORDER BY reads
        return self._order_distinct_limit(out_rows, rows, outer_env)

    def _passes_no_row(self, outer_env: Env) -> bool:
        """Did WHERE fold to not-true, or is a conjunct that reads no row
        not true for this run?"""
        if self.folded_false:
            return True
        if self.constant_filter is None:
            return False
        probe_env = _env([None] * self.scope.slot_count, outer_env)
        return self.constant_filter(probe_env) is not True

    def _run_topk(self, outer_env: Env) -> list[tuple]:
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
        stats = outer_env.run.stats
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
        local, where, item_fns = self.topk_fns
        offset = select.offset or 0
        need = select.limit + offset
        env = _env([], outer_env)
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

    def _source_rows(self, outer_env: Env) -> list[tuple]:
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
        if self.restore is not None:
            # the steps ran in estimated-cost order: back to FROM order
            rows.sort(key=self.restore)
        return rows

    def _inner_rows(self, index: int, outer_env: Env) -> list[tuple]:
        """Every row of source ``index`` its local filters keep, in scan
        order: what its constant index probe finds, else the whole source.
        A row of a positioned source carries its position among them."""
        source, step = self.sources[index], self.join_steps[index]
        found = None
        if step.probe is not None:
            found = self._probe_rows(source, step.probe, outer_env)
        if found is None:
            found = source.rows_fn(outer_env)
        if source.table is not None:
            outer_env.run.stats.rows_scanned += len(found)
        if step.scan_filter is not None:
            return step.scan_filter(found, _env([], outer_env))
        if self.positioned[index]:
            return [row + (position,) for position, row in enumerate(found)]
        return found

    def _join(self, index: int, outer: list[tuple], outer_env: Env) -> list[tuple]:
        """Join the rows so far to source ``index``.  Each outer row meets
        the inner rows that pass the step's local filters and match its
        equi keys: found by looking its key up in the inner table's index
        when the step has one and the outer side has fewer rows than the
        inner table, else by hashing every inner row that passes (a nested
        loop without equi keys).  Both ways give each outer row its
        matches in rowid order, so the joined rows come out in the same
        order — float sums and sort ties see no difference.  The residual
        filters each joined row; a LEFT join pads an outer row that kept no
        match.

        The joined rows are thus in lexicographic order of the sources'
        scan positions taken in run order.  When the steps run in another
        order than the FROM list's, the rows of the first FROM sources
        carry their positions (their rowids on the lookup path, their
        places in the scan otherwise) and :meth:`_source_rows` sorts the
        last step's rows by them once: the order the FROM-order pipeline
        gives."""
        source, step = self.sources[index], self.join_steps[index]
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

        return step.join(outer, matches, _env([], outer_env))

    def _lookup_matches(
        self, index: int, left_slots: list[int], right_slots: list[int], outer_env: Env
    ):
        """The index path of :meth:`_join`: a function from an outer row
        to the inner rows its key finds through the step's per-row probe
        (:func:`_probe_rowids`) that match every equi key and pass the
        local filters."""
        source, step = self.sources[index], self.join_steps[index]
        table, probe = source.table, step.lookup
        stats = outer_env.run.stats
        keep = step.lookup_filter
        get = table.get
        env = _env([], outer_env)
        several = len(left_slots) > 1
        outer_key, inner_key = itemgetter(*left_slots), itemgetter(*right_slots)
        if self.positioned[index]:
            # the rowid is the row's position in its scan
            def get(rowid: int, stored=table.get) -> tuple:
                return stored(rowid) + (rowid,)

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
            return found if keep is None else keep(found, env)

        return matches

    def _probe_rows(
        self, source: _Source, probe, outer_env: Env
    ) -> list[tuple] | None:
        """The rows an index probe finds, as stored, or None when the probe
        cannot be used this run (see :func:`_probe_rowids`): the caller
        falls back to the full scan."""
        table = source.table
        rowids = _probe_rowids(table, probe, _env([], outer_env), outer_env.run.stats)
        if rowids is None:
            return None
        return [table.get(rowid) for rowid in rowids]

    def _run_grouped(
        self, rows: list[tuple], outer_env: Env
    ) -> tuple[list[tuple], list[tuple]]:
        """Bucket the rows by group key — every row's key is evaluated
        before any aggregate argument — then fold each aggregate over each
        bucket's argument values, in input order.  Returns the output rows
        and, parallel to them, each group's row with its aggregates: what
        ORDER BY reads."""
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
        aggregate = self.aggregate
        arg_env = _env([], outer_env)
        env = _env([], outer_env)
        out_rows: list[tuple] = []
        ordering_rows: list[tuple] = []
        for bucket in groups:
            # place aggregate results in their synthetic slots (the last
            # len(agg_nodes) slots, allocated in agg_nodes order)
            first = bucket[0] if bucket else no_row
            full = first + aggregate(bucket, arg_env)
            env.values = full
            if self.having_fn is not None and self.having_fn(env) is not True:
                continue
            out_rows.append(tuple([fn(env) for fn in self.item_fns]))
            ordering_rows.append(full)
        return out_rows, ordering_rows

    def _order_distinct_limit(
        self, out_rows: list[tuple], ordering_rows: list[tuple], outer_env: Env
    ) -> list[tuple]:
        select = self.select
        rows = out_rows
        if select.distinct:
            kept = _distinct_positions(rows)
            rows = [rows[i] for i in kept]
            ordering_rows = [ordering_rows[i] for i in kept]
        if self.order_fns:
            indexed = list(zip(rows, ordering_rows))
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

    def __init__(self, planner: _Planner, union: ast.UnionSelect, outer_scope: Scope | None):
        self.union = union
        self.plans = []
        self.correlated = False
        for part in union.parts:
            plan = _SelectPlan(planner, part, outer_scope)
            self.plans.append(plan)
            self.correlated = self.correlated or plan.scope.used_parent
        widths = {len(p.output_columns) for p in self.plans}
        if len(widths) != 1:
            raise ProgrammingError(
                f"UNION parts produce different column counts: {sorted(widths)}"
            )
        #: metadata comes from the first part (standard SQL behaviour)
        self.output_columns = self.plans[0].output_columns
        #: the ``?`` values a run needs (see :class:`_SelectPlan`)
        self.placeholders_required = planner.required

    def run(self, outer_env: Env) -> ResultSet:
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
    (called with the run's outer environment; a list the caller may keep but
    must not change), its columns, and (for base tables) the Table object —
    the planner needs it for index probes and row counts."""

    def __init__(self, binding: str, rows_fn, columns: list[Column], table=None):
        self.binding = binding
        self.rows_fn = rows_fn
        self.columns = columns
        self.table = table


class _JoinStep:
    """Execution plan for one join step (aligned with one source)."""

    __slots__ = (
        "kind", "equi", "local", "residual", "post", "probe", "lookup",
        "scan_filter", "lookup_filter", "join",
    )

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
        #: (rows, env) -> the rows of the source the local filters keep, each
        #: with its scan position appended when the source is positioned;
        #: ``lookup_filter`` likewise for rows the lookup path found (which
        #: carry their position already); None without local filters
        self.scan_filter = self.lookup_filter = None
        #: (outer rows, outer row -> its inner rows, env) -> the joined rows
        #: the residual keeps (padded, and post-filtered, for a LEFT join)
        self.join = None
        #: (column_name, payload, kind) index probe replacing the full scan;
        #: kind is "pk" / "secondary" (payload = value_fn), "pk list" /
        #: "secondary list" (payload = [item_fn, …]) or "range"
        #: (payload = (low_fn, low_inclusive, high_fn, high_inclusive))
        self.probe = probe
        #: (column_name, value_fn, "pk join" / "secondary join"): the probe
        #: this step may make per outer row instead of hashing the table;
        #: value_fn reads the outer row's equi key
        self.lookup = lookup


# -- generated pipeline steps ---------------------------------------------------
#
# Each step's per-row work is one function, written by an
# :class:`~repro.engine.expressions.Emitter` and compiled once per shape.  A
# step function takes the rows and an environment whose ``run`` (and outer
# row) the bound callables read; it sets ``env.values`` to the row only when
# one of them reads the row through it (a correlated subquery).


def _filter_rows(codes: list[Code], start: int, positions: bool = False) -> Callable:
    """(rows, env) -> the rows every predicate of ``codes`` passes, in
    order.  The rows are those of the source whose first slot is ``start``;
    with ``positions`` each row kept carries its position among them."""
    gen = Emitter(base=start)
    gen.line("kept = []")
    gen.line("append = kept.append")
    with gen.block("for position, row in enumerate(rows):" if positions else "for row in rows:"):
        gen.when_env_row_read("env.values = row")
        gen.filter(codes)
        gen.line("append(row + (position,))" if positions else "append(row)")
    gen.line("return kept")
    # a correlated conjunct runs after the last step, over whole rows
    assert not (start and gen.reads_env_row)
    return gen.function("_filter", "rows, env")


def _join_rows(step: "_JoinStep", start: int, end: int, width: int) -> Callable:
    """(outer rows, outer row -> its inner rows, env) -> the joined rows of
    ``step``, whose source has slots ``start``…``end`` of ``width``: each
    outer row meets each of its inner rows, and the residual keeps the
    joined row.  A LEFT join pads an outer row that kept no match with
    NULLs, and its post filters see the rows padded; an ON conjunct that
    names a later source reads NULL there."""
    residual, post = step.residual, step.post
    if step.kind != "LEFT" and not residual:
        gen = Emitter()
        gen.line("return [left + right for left in outer for right in matches(left)]")
        return gen.function("_join", "outer, matches, env")
    gen = Emitter(limit=end)
    gen.line("joined = []")
    gen.line("append = joined.append")
    with gen.block("for left in outer:"):
        if step.kind == "LEFT":
            gen.line("matched = False")
        with gen.block("for right in matches(left):"):
            gen.line("row = left + right")
            if residual:
                padded = f"row + {gen.bind((None,) * (width - end))}" if width > end else "row"
                gen.when_env_row_read(f"env.values = {padded}")
                gen.filter(residual)
            if step.kind == "LEFT":
                gen.line("matched = True")
                gen.when_env_row_read("env.values = row")
                gen.filter(post)
            gen.line("append(row)")
        if step.kind == "LEFT":
            with gen.block("if not matched:"):
                gen.line(f"row = left + {gen.bind((None,) * (end - start))}")
                gen.when_env_row_read("env.values = row")
                gen.filter(post)
                gen.line("append(row)")
    gen.line("return joined")
    return gen.function("_join", "outer, matches, env")


def _project_rows(codes: list[Code]) -> Callable:
    """(rows, env) -> each row's select list."""
    gen = Emitter()
    gen.line("out = []")
    gen.line("append = out.append")
    with gen.block("for row in rows:"):
        gen.when_env_row_read("env.values = row")
        gen.line(f"append(({''.join(code.emit(gen) + ', ' for code in codes)}))")
    gen.line("return out")
    return gen.function("_project", "rows, env")


def _aggregate_rows(aggregates: list[tuple[Callable, "Code | None"]]) -> Callable:
    """(a group's rows, env) -> the tuple of its aggregates, each ``fold``
    over its argument's values in input order (``count(*)``, with no
    argument, over the rows themselves), one aggregate after the other."""
    gen = Emitter()
    folded = []
    for fold, argument in aggregates:
        fold_name = gen.bind(fold, "a")
        if argument is None:
            folded.append(gen.assign(f"{fold_name}(rows)"))
        elif argument.slot is not None:
            getter = gen.bind(itemgetter(argument.slot), "g")
            folded.append(gen.assign(f"{fold_name}(list(map({getter}, rows)))"))
        else:
            values = gen.temp()
            gen.line(f"{values} = []")
            with gen.block("for row in rows:"):
                gen.when_env_row_read("env.values = row")
                gen.line(f"{values}.append({argument.emit(gen)})")
            folded.append(gen.assign(f"{fold_name}({values})"))
    gen.line(f"return ({''.join(name + ', ' for name in folded)})")
    return gen.function("_aggregate", "rows, env")


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
    satisfies, ranked **PK probe > secondary equality > PK list > secondary
    list > secondary range** (None = full scan).  A list probe comes from an
    ``IN (…)`` list whose every item is row-independent; range probes come
    from ``<``, ``<=``, ``>``, ``>=`` and ``BETWEEN`` conjuncts over an
    ordered secondary index (:func:`_probe_readings`).  A conjunct
    counts wherever it stands, and every chosen conjunct must still be
    applied to the rows found — the probe only narrows the scan, it never
    replaces the predicate.  SELECT (per join step), UPDATE and DELETE all
    choose here; a DML's lock granularity follows from the kind returned
    (``Executor._dml_lock_candidates``)."""
    end = start + len(table.schema.columns)

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
    in_pk: tuple[str, list[ast.Expr]] | None = None
    in_secondary: tuple[str, list[ast.Expr]] | None = None
    #: column -> [low_expr, low_inclusive, high_expr, high_inclusive]
    range_bounds: dict[str, list] = {}

    for conjunct in conjuncts:
        for col_side, op, value_side in _probe_readings(conjunct):
            column = local_column(col_side)
            values = value_side if op == "IN" else [value_side]
            if column is None or not all(map(row_independent, values)):
                continue
            is_pk = table.schema.primary_key == (column,)
            if op == "=":
                if is_pk:
                    eq_pk = eq_pk or (column, value_side)
                elif table.has_secondary_index(column):
                    eq_secondary = eq_secondary or (column, value_side)
            elif op == "IN":
                if is_pk:
                    in_pk = in_pk or (column, value_side)
                elif table.has_secondary_index(column):
                    in_secondary = in_secondary or (column, value_side)
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
    for in_list, kind in ((in_pk, "pk list"), (in_secondary, "secondary list")):
        if in_list is not None:
            column, items = in_list
            return (column, [compiler.compile(item) for item in items], kind)
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


def _probe_readings(conjunct: ast.Expr):
    """Every reading of ``conjunct`` an index can serve, as ``(column side,
    op, value side)``: a comparison either way round, a ``BETWEEN`` as its
    two bounds, an ``IN (…)`` list as ``(operand, "IN", items)``.  A negated
    ``BETWEEN`` or ``IN`` has none."""
    if isinstance(conjunct, ast.Binary) and conjunct.op in _PROBE_OPS:
        yield conjunct.left, conjunct.op, conjunct.right
        yield conjunct.right, FLIPPED[conjunct.op], conjunct.left
    elif isinstance(conjunct, ast.Between) and not conjunct.negated:
        yield conjunct.operand, ">=", conjunct.low
        yield conjunct.operand, "<=", conjunct.high
    elif isinstance(conjunct, ast.InList) and not conjunct.negated:
        yield conjunct.operand, "IN", conjunct.items


def _probe_rowids(table: Table, probe, env: Env, stats: ExecutorStats) -> list[int] | None:
    """The rowids an index probe (PK or secondary equality, PK or secondary
    list, secondary range) finds, in scan (rowid) order; ``env`` is the
    rowless environment the probe's values are evaluated in — for a join
    probe, the outer row.  Returns None when the probe cannot be used this
    run (a value or bound :func:`_probe_value` refuses) — the caller falls
    back to the full scan, so the per-row predicate decides, and raises,
    exactly as it does without the index.  A join
    probe's value is looked up as it is: its equi key compares directly, so
    the index finds what hashing the table would, and it is never None."""
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
    listed = _LIST_PROBES.get(probe_kind)
    if listed is not None:
        spec = table.schema.column(column)
        keys = set()
        for item_fn in value_fn:
            value = item_fn(env)
            if value is None:
                continue  # a NULL item equals nothing
            value = _probe_value(spec, value)
            if value is _FALLBACK_SCAN:
                return None
            keys.add(value)
        stats.index_eq_probes += len(keys)
        if listed == "pk":
            found = [table.lookup_key((key,)) for key in keys]
            return sorted(rowid for rowid in found if rowid is not None)
        # each key's postings are disjoint: merged, then sorted to scan order
        return sorted(rowid for key in keys for rowid in table.index_lookup(column, key))
    value = value_fn(env)
    if value is None:
        return []  # NULL never equals anything
    joined = _JOIN_PROBES.get(probe_kind)
    if joined is not None:
        probe_kind = joined
    else:
        value = _probe_value(table.schema.column(column), value)
        if value is _FALLBACK_SCAN:
            return None
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
            value = _probe_value(spec, value)
            if value is _FALLBACK_SCAN:
                return _FALLBACK_SCAN
        bounds.append(value)
    return (*bounds, low_incl, high_incl)


def _probe_value(spec: Column, value: Any) -> Any:
    """A non-NULL probe value coerced to the probed column's type, or
    :data:`_FALLBACK_SCAN` when the index cannot stand in for the per-row
    comparison: the value cannot be coerced (the comparison raises), it is
    a NaN (the comparison finds the NaNs an index can neither find nor
    order), or it is not text and the column is (the comparison casts each
    text to the value's type, so ``5`` equals ``'5'`` and ``'05'`` alike,
    where the index holds one spelling)."""
    try:
        coerced = spec.coerce(value)
    except DataError:
        return _FALLBACK_SCAN
    if coerced != coerced or (coerced.__class__ is str and value.__class__ is not str):
        return _FALLBACK_SCAN
    return coerced


def _is_local_ref(scope: Scope, ref: ast.ColumnRef) -> bool:
    """Does this column reference resolve to one of *this* query's rows
    (depth 0), as opposed to an outer scope?"""
    resolved = scope.try_resolve(ref.name, ref.table)
    return resolved is not None and resolved[0] == 0


def _split_conjuncts(expr: ast.Expr | None, op: str = "AND") -> list[ast.Expr]:
    """Flatten a predicate into AND-ed conjuncts (or OR-ed arms)."""
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op.upper() == op:
        return _split_conjuncts(expr.left, op) + _split_conjuncts(expr.right, op)
    return [expr]


def _joined(parts: list[ast.Expr], op: str) -> ast.Expr:
    """``parts`` joined left to right by ``op`` (AND or OR)."""
    expr = parts[0]
    for part in parts[1:]:
        expr = ast.Binary(op, expr, part)
    return expr


def _column_slot(scope: Scope, expr: ast.Expr) -> int | None:
    """The slot of ``expr`` when it is a column of this query's rows."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    resolved = scope.try_resolve(expr.name, expr.table)
    return resolved[1] if resolved is not None and resolved[0] == 0 else None


def _from_steps(ref: ast.TableRef | None) -> tuple[list[str], list[ast.Expr | None]]:
    """Per FROM source, in written order: the kind of join that adds it
    (``FIRST`` for the first) and its ON."""
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

    visit(ref)
    return kinds, on_exprs


def _cheapest_order(rows, scanned, kept, links) -> list[int]:
    """The join order, as FROM indices, of least estimated cost.

    Per source: ``rows`` in all, ``scanned`` by reading it without a join
    key (all of them, or what a constant index probe fetches), ``kept`` by
    its own filters, and ``links``: per equivalence class it is in, (the
    bit mask of the class's other sources, the distinct count dividing a
    join's fan-out, rows one index lookup fetches or None).  From each
    start the search adds, greedily, the source whose step costs least
    (:func:`_next_step`).  A start's total is what its scan fetches and
    keeps plus its steps' costs; the cheapest total wins, and FROM position
    breaks every tie.  At most n starts × n steps, each pricing at most n
    candidates, and fewer: the cheapest starts go first, and a start stops
    once its total passes the best or it joins a set of sources an earlier
    start joined for less — the rows estimated for a set do not depend on
    the order that joined it, so neither does the greedy way on from it."""
    count = len(rows)
    best: list[int] = list(range(count))
    best_cost = float("inf")
    #: sources joined (bit mask) -> the cheapest (total, order) that got there
    reached: dict[int, tuple[float, list[int]]] = {}
    for first, start in sorted((scanned[i] + kept[i], i) for i in range(count)):
        order, joined = [start], 1 << start
        outer = kept[start]
        total = first
        while len(order) < count and total <= best_cost:
            if reached.setdefault(joined, (total, order[:])) < (total, order):
                break
            pick, cost, outer = _next_step(joined, outer, rows, scanned, kept, links)
            order.append(pick)
            joined |= 1 << pick
            total += cost
        if len(order) == count and (total, order) < (best_cost, best):
            best, best_cost = order, total
    return best


def _next_step(joined, outer, rows, scanned, kept, links):
    """(source, cost, rows produced) of the cheapest step from the sources in
    bit mask ``joined`` (``outer`` estimated rows): among the sources an
    equi key links to them, else — a cross product — among all the rest;
    the earlier FROM position on a tie.

    An equi step's fan-out is the rows the source keeps divided by each
    linking class's distinct count (System R).  A step fetches what
    :meth:`_SelectPlan._join` would: by index lookups when a linking column
    has an index and the outer side has fewer rows than the table — each
    such row weighs :data:`_INDEX_FETCH` scanned rows — else by reading the
    source and hashing the rows its filters keep.  Cost = rows fetched (and
    hashed) + rows produced."""
    best = cross = None
    for source in range(len(rows)):
        if joined >> source & 1:
            continue
        produced = outer * kept[source]
        linked = False
        per_probe = None
        for others, distinct, probe_rows in links[source]:
            if others & joined:
                linked = True
                produced /= distinct
                if probe_rows is not None and (per_probe is None or probe_rows < per_probe):
                    per_probe = probe_rows
        if per_probe is not None and outer < rows[source]:
            cost = outer * per_probe * _INDEX_FETCH + produced
        else:  # read, and the rows kept hashed: what a first step costs too
            cost = scanned[source] + kept[source] + produced
        if linked:
            if best is None or cost < best[1]:
                best = (source, cost, produced)
        elif best is None and (cross is None or cost < cross[1]):
            cross = (source, cost, produced)
    return best or cross


def _plain_refs(expr: ast.Node) -> Iterator[ast.ColumnRef]:
    """The column references of ``expr`` outside its subqueries (the
    operand of an ``IN (SELECT …)`` is outside)."""
    if isinstance(expr, ast.ColumnRef):
        yield expr
    elif not isinstance(expr, (ast.Select, ast.UnionSelect)):
        for child in children(expr):
            yield from _plain_refs(child)


def _env(values: list, outer_env: Env) -> Env:
    return Env(values, outer_env, outer_env.run)


def _once_per_run(plan: "_SelectPlan | _UnionRunner"):
    """The rows supplier of a derived table or a view: ``plan`` run once
    per execution, with no outer row (it cannot see sibling FROM items)."""
    return statement_memo(lambda env: plan.run(Env([], run=env.run)).rows)


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
