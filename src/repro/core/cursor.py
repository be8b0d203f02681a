"""The Phoenix cursor: the application's statement handle.

A :class:`repro.odbc.Statement` subclass — the fetch loop, ``executemany``
rowcount rule, statement attributes and context manager are inherited — in
which every request is intercepted per the paper's dispatch:

* **queries** go out as the plain stack sends them; a result larger than
  one fetch block is materialized as a persistent server table and
  delivered from there block by block, so delivery resumes after a crash
  at the exact row the server stopped shipping (the client keeps what it
  holds);
* **DML / DDL / EXEC** travel inside a wrapper transaction that records the
  outcome in the status table — exactly-once across crashes;
* **temp objects** are transparently redirected to persistent stand-ins;
* statements inside an explicit transaction pass through natively but are
  recorded for wholesale replay.

Every statement sent carries its own ``?`` values beside its text, as the
plain stack sends them.  A crash during any of this surfaces to the
application only as latency.
"""

from __future__ import annotations

from repro.core.connection import PhoenixConnection
from repro.core.interceptor import StatementClass, Template, statement_templates
from repro.core.statements import ResultState
from repro.errors import NotSupportedError, ProgrammingError
from repro.net.protocol import ResultResponse
from repro.obs.tracer import get_tracer
from repro.odbc.constants import CursorType, StatementAttr
from repro.odbc.driver_manager import Statement, describe_columns
from repro.sql import ast
from repro.sql import parse_script  # noqa: F401 — a name benchmarks/e2e/tracing.py wraps

__all__ = ["PhoenixCursor"]


class PhoenixCursor(Statement):
    """Drop-in statement handle backed by a persistent virtual session."""

    connection: PhoenixConnection
    _state: ResultState | None = None

    def _reset_result(self) -> None:
        self._retire_state()
        super()._reset_result()

    def _retire_state(self) -> None:
        """The application is done with this cursor's result (it re-executed
        or closed the cursor): recovery must stop verifying, re-opening and
        re-advancing it, and the connection stops holding its AST.  The
        server-side ``phx_*`` objects still wait for ``close()``, as the
        paper says."""
        if self._state is not None:
            self._state.open = False
            self.connection.release_result(self._state)
            self._state = None

    # ------------------------------------------------------------- execute

    def execute(self, sql: str, placeholders: list | None = None) -> "PhoenixCursor":
        self._require_open()
        self._reset_result()
        bound = list(placeholders or [])
        tracer = get_tracer()
        with self.connection.application_call():
            for index, template in enumerate(statement_templates(sql)):
                if len(bound) < template.values.stop:
                    # refused before it is sent, as the plain stack's server
                    # refuses it: a wrapper's seq would bind in their place
                    raise ProgrammingError(
                        f"statement has placeholder ?{template.values.stop} but only "
                        f"{len(bound)} values were bound"
                    )
                values = bound[template.values]
                if tracer.enabled:
                    with tracer.span(
                        "client.statement",
                        corr=self.connection.correlation_id,
                        sql=template.stmt.sql()[:80],
                        cls=template.kind.name,
                    ):
                        self._execute_one(template, values, (sql, index))
                else:
                    self._execute_one(template, values, (sql, index))
        return self

    def _execute_one(self, template: Template, values: list, key: tuple[str, int]) -> None:
        """Dispatch one statement, ``values`` bound to its ``?``.  The
        template is shared (see
        :func:`~repro.core.interceptor.statement_templates`): nothing here or
        below modifies it.  ``key`` names it: its text and position there."""
        connection = self.connection
        stmt, kind = template.stmt, template.kind

        if kind is StatementClass.QUERY:
            # a template over a redirected temp object is keyed by its rewrite
            select = connection.rewrite(stmt)
            self._execute_query(select, values, key if select is stmt else select.sql())
            return

        if kind is StatementClass.SET_OPTION:
            connection.set_log.append((stmt.name, stmt.value))
            self._absorb_ok(connection._app_execute(stmt.sql()))
            return
        if kind is StatementClass.TXN_BEGIN:
            connection.begin()
            self.messages.append("BEGIN")
            return
        if kind is StatementClass.TXN_COMMIT:
            self._absorb_ok(connection.commit())
            return
        if kind is StatementClass.TXN_ROLLBACK:
            self._absorb_ok(connection.rollback())
            return
        if kind is StatementClass.CREATE_TEMP_TABLE:
            self._absorb_ok(connection.handle_create_temp_table(stmt))
            return
        if kind is StatementClass.CREATE_TEMP_PROC:
            self._absorb_ok(connection.handle_create_temp_proc(stmt))
            return
        if kind in (StatementClass.DROP_TEMP_TABLE, StatementClass.DROP_TEMP_PROC):
            self._absorb_ok(connection.handle_drop_temp(stmt))
            return

        # SELECT INTO a temp table creates a temp object as a side effect —
        # register its redirection before rewriting, like CREATE TABLE #x
        into = getattr(stmt, "into", None)
        if into and into.startswith("#"):
            original = into.lower()
            if original not in connection.temp_table_map:
                connection.temp_table_map[original] = connection.names.redirected_table(original)

        if isinstance(stmt, ast.CreateIndex) and stmt.table.lower() in connection.temp_table_map:
            # the persistent stand-in would take the index; the temp table
            # it stands in for does not
            raise NotSupportedError("indexes on temp tables are not supported")

        # everything below references tables/procs: apply redirection
        rewritten_sql = connection.rewrite(stmt).sql()

        if connection.in_transaction:
            # pass-through + record for replay
            self._absorb(connection.run_in_transaction(rewritten_sql, values))
            return

        if kind in (StatementClass.DML, StatementClass.DDL, StatementClass.EXEC):
            seq, rowcount, response = connection.run_dml(rewritten_sql, values)
            if response is not None and response.kind == "rows":
                # an EXEC whose procedure returns a result set: deliver it
                # like the native stack would
                self._absorb(response)
            if kind is StatementClass.DDL:
                # PEP 249: a CREATE/DROP's count "cannot be determined" —
                # live or logged (the status row says 0)
                rowcount = -1
            self.rowcount = rowcount
            self.messages.append(f"#{seq}: {rowcount} rows")
            return
        # OTHER (CHECKPOINT, EXPLAIN, ...): pass through, retry-safe
        self._absorb(connection._app_execute(rewritten_sql, values))

    def _execute_query(self, select: ast.Select, values: list, key) -> None:
        connection = self.connection
        cursor_type = self.attrs[StatementAttr.CURSOR_TYPE]
        state = None
        if cursor_type in (CursorType.KEYSET, CursorType.DYNAMIC) and not connection.in_transaction:
            state = connection.materialize_cursor(select, values, cursor_type, key)
        if state is None:  # not asked for, or unsupported shape → downgrade, like real drivers do
            response, state = connection.query(select, values, key, self._fetch_block)
            if state is None:  # the reply carried the whole result
                self._absorb(response)
                return
            cursor_type = CursorType.FORWARD_ONLY
            self._buffer = list(response.rows)
        self._state = state
        self.columns = state.app_columns
        self.description = describe_columns(state.app_columns)
        self.effective_cursor_type = cursor_type
        self._server_done = False

    @property
    def _fetch_block(self) -> int:
        return max(int(self.attrs[StatementAttr.FETCH_BLOCK_SIZE]), 1)

    def executemany(self, sql: str, rows: list[list]) -> "PhoenixCursor":
        """DB-API executemany — batched onto the wire when it safely can be.

        A single autocommit DML statement is shipped in
        :attr:`StatementAttr.BATCH_SIZE`-sized BatchExecuteRequests — its
        wrapped text once, the rows beside it — each one round trip and one
        WAL group force server-side; every row keeps its own seq and status
        row, so per-statement exactly-once is unchanged.  Anything else
        (multi-statement scripts, explicit transactions, non-DML, batching
        disabled) falls back to the inherited statement-at-a-time loop.
        """
        self._require_open()
        with self.connection.application_call():
            batch = self._batch(sql, rows)
            if batch is None:
                return super().executemany(sql, rows)
            self._reset_result()
            text, values = batch
            batch_size = max(int(self.attrs[StatementAttr.BATCH_SIZE]), 1)
            total = 0
            for start in range(0, len(values), batch_size):
                counts = self.connection.run_dml_batch(text, values[start : start + batch_size])
                total += sum(counts)
        self.rowcount = total
        self.messages.append(f"{len(values)} statements batched")
        return self

    def _batch(self, sql: str, rows: list[list]) -> tuple[str, list[list]] | None:
        """The statement text and each row's values for a batchable
        executemany, or None when it must go row-at-a-time (a row with too
        few values too: the loop fails at that row, as the plain one does)."""
        connection = self.connection
        if (
            not rows
            or connection.in_transaction
            or max(int(self.attrs[StatementAttr.BATCH_SIZE]), 1) <= 1
        ):
            return None
        templates = statement_templates(sql)
        if len(templates) != 1 or templates[0].kind is not StatementClass.DML:
            return None
        (template,) = templates
        if any(len(row) < template.values.stop for row in rows):
            return None
        values = [list(row)[template.values] for row in rows]
        return connection.rewrite(template.stmt).sql(), values

    def _absorb_ok(self, response: ResultResponse) -> None:
        """Absorb the reply of a statement Phoenix ran on the application's
        behalf (SET, COMMIT, a redirected temp-object DDL): only its message
        is the application's to see."""
        if response.message:
            self.messages.append(response.message)

    # ------------------------------------------------------------- fetch

    def fetchmany(self, n: int | None = None) -> list[tuple]:
        connection = self.connection
        tracer = get_tracer()
        with connection.application_call():
            if not tracer.enabled or self._state is None:
                return super().fetchmany(n)
            with tracer.span(
                "client.fetch",
                corr=connection.correlation_id,
                n=self.arraysize if n is None else n,
            ) as span:
                out = super().fetchmany(n)
                span.set(rows=len(out))
                return out

    def _refill(self, wanted: int) -> bool:
        state = self._state
        if state is None:
            return super()._refill(wanted)  # a result the reply carried whole
        connection = self.connection
        block = self._fetch_block
        while not self._server_done:
            if state.is_cursor:
                rows, done = connection.fetch_key_block(state, block)
                # an all-holes keyset block yields no rows: fetch the next
                exhausted = done and not rows
            else:
                rows, exhausted = connection.fetch_result_block(state, block)
            self._buffer = rows
            self._buffer_pos = 0
            self._server_done = exhausted
            if rows:
                return True
        return False

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        self._retire_state()
        super().close()
