"""One path per decision: guards that keep dead and deleted switches out.

PR 19 removed the ablation baselines from ``PhoenixConfig`` and the executor
mode from the engine; these tests fail when a knob nobody reads is added, or
when a removed one drifts back in through a default.  PR 20 folded the
Phoenix driver's retry loops into one: they also fail when a field nothing
sets appears, when a second handler starts calling ``recover()``, or when
the session fixtures are spelled out twice again.  PR 22 gave ``repro.sql``
the one traversal of a statement: they fail when a function enumerates the
expression classes by hand again, or the driver borrows the engine's reading.
PR 23 made the fill procedure the paper's (one per statement template, the
target table a parameter) and plan validity per dependency: they fail when a
procedure is named per execution again, or a plan is checked against a
server-wide counter.  PR 24 gave DML the SELECT planner's access paths: they
fail when a second function starts looking rows up in an index.  PR 25 made
every value only tests turned a constant: they fail when a config field or
an engine or wire constructor keyword has no caller outside the tests, and
the planned restart's policy argument showed that a defaulted keyword of a
server or endpoint method is such a setting too.  One
server session serves a virtual session: they fail when ``repro.core``
opens a second one.  Values travel beside the text: they fail when a bound
value or a sequence number is spliced into a statement Phoenix sends.  A
log record has one meaning: they fail when a function other than
``Database.apply`` or ``inverse`` branches on a record's kind.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core import PhoenixConfig
from repro.core.naming import NameAllocator
from repro.engine import DatabaseServer
from repro.engine.executor import Executor
from repro.engine.wal import RecordType
from repro.net.transport import ServerEndpoint
from repro.odbc.constants import StatementAttr
from repro.odbc.driver import DriverConnection
from repro.sql import ast as sql_ast  # ``ast`` is Python's here

SRC = Path(repro.__file__).resolve().parent


def _config_attributes(paths, ctx: type) -> set[str]:
    """Every ``<...>config.<name>`` attribute used in ``ctx`` (``ast.Load``
    or ``ast.Store``) in ``paths``, ``core/config.py`` itself excluded."""
    found = set()
    for path in paths:
        if path == SRC / "core" / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx)):
                continue
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name == "config":
                found.add(node.attr)
    return found


def _config_attributes_read() -> set[str]:
    """Attributes *read* under ``src/repro`` (assignments such as
    ``config.sleep = ...`` do not count: setting a knob is not honouring it)."""
    return _config_attributes(SRC.rglob("*.py"), ast.Load)


def test_every_phoenix_config_field_is_read():
    """A field no code reads is a knob that silently does nothing
    (``fetch_block_size`` was one: the fetch loops read the statement
    attribute, never the config)."""
    fields = {field.name for field in dataclasses.fields(PhoenixConfig)}
    assert _config_attributes_read() == fields


@pytest.mark.parametrize(
    "function", [repro.make_system, DatabaseServer.__init__, Executor.__init__]
)
def test_no_executor_mode_parameter(function):
    assert not {"executor", "vectorized", "plan_cache"} & set(
        inspect.signature(function).parameters
    )


# ---------------------------------------------------------------- settings have callers

#: where a setting's callers live.  Tests and examples are not callers: a
#: value only a test turns is a module constant the test monkeypatches.
CALLER_TREES = ("src", "benchmarks")


def _caller_paths() -> list[Path]:
    repo = SRC.parent.parent
    return [path for top in CALLER_TREES for path in sorted((repo / top).rglob("*.py"))]


def _caller_calls() -> list[ast.Call]:
    return [
        node
        for path in _caller_paths()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    ]


def _config_fields_set() -> set[str]:
    """Every name given a value under ``src/`` or ``benchmarks/`` the way a
    config field is: by a ``<...>config.name = ...`` assignment, or as a
    call keyword (``PhoenixConfig(name=...)``, or a helper that forwards
    its keywords)."""
    assigned = _config_attributes(_caller_paths(), ast.Store)
    assigned.update(keyword.arg for call in _caller_calls() for keyword in call.keywords)
    return assigned


def test_every_phoenix_config_field_is_set_by_some_caller():
    """A field no deployment or workload sets has one value in use: it is a
    constant (``max_operation_retries`` and ``recovery_workers`` were two;
    the ping and rebuild bounds, set only by tests, were seven more)."""
    fields = {field.name for field in dataclasses.fields(PhoenixConfig)}
    assert fields - _config_fields_set() == set()
    assert fields == {"sleep", "max_deadlock_retries"}


#: constructor keywords nothing under ``src/`` or ``benchmarks/`` passes,
#: kept on purpose — name → why
UNPASSED_KEYWORDS = {
    "make_system.config": "the caller's PhoenixConfig for every connection of the system",
    "make_system.registry": "an injected counter set, shared with a caller's other systems",
}


def _defaulted_parameters(function: ast.FunctionDef) -> dict[str, int | None]:
    """Parameter name → its position in a call (None: keyword only), for
    every parameter with a default; ``self`` does not count."""
    args = function.args
    positional = [a.arg for a in args.posonlyargs + args.args if a.arg != "self"]
    out: dict[str, int | None] = {
        name: positional.index(name)
        for name in positional[len(positional) - len(args.defaults):]
    }
    out.update(
        (a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults) if default
    )
    return out


def _constructors() -> dict[str, dict[str, int | None]]:
    """Every class under ``engine/`` and ``net/`` that defines ``__init__``,
    and ``make_system``: name → its defaulted parameters."""
    found = {}
    for package in ("engine", "net"):
        for path in sorted((SRC / package).rglob("*.py")):
            for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(cls, ast.ClassDef):
                    for function in cls.body:
                        if isinstance(function, ast.FunctionDef) and function.name == "__init__":
                            found[cls.name] = _defaulted_parameters(function)
    for function in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(function, ast.FunctionDef) and function.name == "make_system":
            found["make_system"] = _defaulted_parameters(function)
    return found


#: classes whose public methods' defaulted keywords are settings as well
SETTINGS_METHOD_CLASSES = (DatabaseServer, ServerEndpoint)


def _public_methods() -> dict[str, dict[str, int | None]]:
    """Every public method of :data:`SETTINGS_METHOD_CLASSES`: method name
    → its defaulted parameters."""
    found = {}
    for cls in SETTINGS_METHOD_CLASSES:
        [tree] = ast.parse(textwrap.dedent(inspect.getsource(cls))).body
        for function in tree.body:
            if isinstance(function, ast.FunctionDef) and not function.name.startswith("_"):
                found[function.name] = _defaulted_parameters(function)
    return found


def test_every_constructor_keyword_is_passed_by_some_caller():
    """A keyword nobody passes is a setting with one value in use: the
    constant beside the code that reads it (dispatcher pool bounds, TCP
    timeouts, cache capacities, the commit clock's time source, a server
    name, an endpoint's fault injector were such keywords).  The server's
    and the endpoint's public methods count as constructors here: the
    planned restart's three-mode policy was a method argument only tests
    passed."""
    constructors = {**_constructors(), **_public_methods()}
    passed: dict[str, set] = {name: set() for name in constructors}
    for call in _caller_calls():
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        if name in passed:
            passed[name].update(k.arg for k in call.keywords)
            passed[name].update(range(len(call.args)))
    unpassed = {
        f"{name}.{parameter}"
        for name, parameters in constructors.items()
        for parameter, position in parameters.items()
        if parameter not in passed[name] and position not in passed[name]
    }
    assert unpassed == set(UNPASSED_KEYWORDS)


def test_every_statement_attribute_is_read():
    """An attribute a statement stores but no code reads is a knob that does
    nothing (``QUERY_TIMEOUT`` was one): every one is looked up in a
    statement's ``attrs`` somewhere under ``src/``."""
    declared = {name for name in vars(StatementAttr) if name.isupper()}
    read = {
        node.slice.attr
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.slice, ast.Attribute)
        and getattr(node.slice.value, "id", None) == "StatementAttr"
    }
    assert declared == read


# ---------------------------------------------------------------- one failure path

CORE = SRC / "core"
#: driver calls that put a request on the wire
SENDS = {"execute", "execute_batch", "fetch", "advance", "table_schema"}


def _functions(tree: ast.AST):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _calls(node: ast.AST) -> set[str]:
    return {
        n.func.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    }


def _catches_recoverable(handler: ast.ExceptHandler) -> bool:
    return handler.type is not None and any(
        isinstance(n, ast.Name) and n.id == "RECOVERABLE_ERRORS" for n in ast.walk(handler.type)
    )


def test_one_handler_recovers_and_one_loop_resends():
    """The paper's failure protocol is written once: a single ``except
    RECOVERABLE_ERRORS`` handler calls ``recover()`` (there were nine), and
    no unbounded loop re-sends a request outside the function that owns the
    recovery budget."""
    recovering, unbounded = [], []
    for path in sorted(CORE.glob("*.py")):
        for function in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.ExceptHandler)
                    and _catches_recoverable(node)
                    and "recover" in _calls(node)
                ):
                    recovering.append(f"{path.name}:{function.name}")
                if (
                    isinstance(node, ast.While)
                    and isinstance(node.test, ast.Constant)
                    and node.test.value is True
                    and SENDS & _calls(node)
                ):
                    unbounded.append(f"{path.name}:{function.name}")
    assert recovering == ["connection.py:_ride_through"]
    assert unbounded == []


def test_one_server_session_per_virtual_session():
    """Phoenix sends everything on one connection: ``repro.core`` opens a
    server session in one place, the session recipe, and a
    ``PhoenixConnection`` holds one ``DriverConnection`` (a second one, for
    the statements Phoenix sends on its own behalf, needed a connect, a
    channel repair and a reap of its own)."""
    connects = [
        f"{path.name}:{function.name}"
        for path in sorted(CORE.glob("*.py"))
        for function in _functions(ast.parse(path.read_text(encoding="utf-8")))
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "connect"
        and "driver" in ast.unparse(node.func.value)
    ]
    assert connects == ["recovery.py:_build_session"]
    system = repro.make_system()
    connection = system.phoenix.connect(system.DSN)
    try:
        held = [
            name for name, value in vars(connection).items()
            if isinstance(value, DriverConnection)
        ]
        assert held == ["_driver_connection"]
    finally:
        connection.close()


@pytest.mark.parametrize("ddl", ["CREATE TABLE {PROXY_TABLE}", "(stmt_seq INT PRIMARY KEY"])
def test_session_fixture_ddl_is_written_once(ddl):
    """One function builds a virtual session, for open and recovery alike."""
    holders = [
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        for _ in range(path.read_text(encoding="utf-8").count(ddl))
    ]
    assert holders == ["core/recovery.py"]


# ---------------------------------------------------------------- one reading of a statement

EXPR_CLASSES = {
    name
    for name, cls in vars(sql_ast).items()
    if isinstance(cls, type) and issubclass(cls, sql_ast.Expr) and cls is not sql_ast.Expr
}


def _expr_classes_tested(function: ast.AST) -> set[str]:
    """The ``ast.<Expr subclass>`` names inside ``isinstance`` calls of ``function``."""
    return {
        node.attr
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
        for node in ast.walk(call)
        if isinstance(node, ast.Attribute) and node.attr in EXPR_CLASSES
    }


def test_no_function_enumerates_the_expression_classes_again():
    """Who a node's children are is ``repro.sql.walk``'s to say, once.  A
    function outside ``repro.sql`` that tests for four or more expression
    classes is a hand-written walker (there were five, each with its own
    omissions); ``_infer_type`` is the exception — its arms are what each
    class *means*, not where its children are."""
    enumerating = sorted(
        f"{path.relative_to(SRC).as_posix()}:{function.name}"
        for path in SRC.rglob("*.py")
        if SRC / "sql" not in path.parents
        for function in _functions(ast.parse(path.read_text(encoding="utf-8")))
        if len(_expr_classes_tested(function)) >= 4
    )
    assert enumerating == ["engine/executor.py:_infer_type"]


def test_the_driver_reads_statements_without_the_engine():
    """``repro.core`` shares ``repro.sql``'s readings with the engine; it
    does not borrow the executor's or the cursors' private helpers, and it
    never rewrites a deep copy of a statement."""
    for path in sorted(CORE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        imported = {
            name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in [getattr(node, "module", None), *(alias.name for alias in node.names)]
        }
        assert not {"repro.engine.executor", "repro.engine.cursors"} & imported, path.name
        assert "deepcopy" not in source, path.name


# ---------------------------------------------------------------- one fill procedure per template

def _identifiers(tree: ast.AST) -> set[str]:
    return {
        name
        for node in ast.walk(tree)
        for name in (
            getattr(node, "id", None), getattr(node, "attr", None),
            getattr(node, "name", None), getattr(node, "arg", None),
        )
        if isinstance(name, str)
    }


def test_a_fill_procedure_is_named_per_template_never_per_execution():
    """The per-execution procedure is gone, not kept beside its replacement:
    its builder, its name and the field that held it do not exist, no text
    the driver generates around a procedure interpolates a statement
    sequence number, and the allocator numbers procedures on their own."""
    gone = {"build_fill_batch", "fill_procedure", "fill_proc"}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not gone & _identifiers(tree), path.name
        if CORE not in path.parents:
            continue
        for text in (n for n in ast.walk(tree) if isinstance(n, ast.JoinedStr)):
            literal = "".join(v.value for v in text.values if isinstance(v, ast.Constant))
            if "PROCEDURE" in literal or "EXEC " in literal:
                assert not any("seq" in name for name in _identifiers(text)), ast.unparse(text)
    names = NameAllocator()
    first = names.next_query_procedure()
    assert [names.next_seq() for _ in range(5)] == [1, 2, 3, 4, 5]
    assert (first, names.next_query_procedure()) == (
        f"phx_c{names.client_id}_q1", f"phx_c{names.client_id}_q2"
    )
    assert list(inspect.signature(NameAllocator.next_query_procedure).parameters) == ["self"]


def test_the_keys_table_is_built_by_the_server():
    """No client-written DDL for a Phoenix result or keys table: the only
    CREATE TABLE texts in the driver are the session's own fixtures."""
    creating = sorted(
        (path.name, literal)
        for path in CORE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for literal in [node.value]
        if literal.lstrip().startswith("CREATE TABLE") or "create_table_sql" in literal
    )
    assert [name for name, _ in creating] == ["recovery.py", "recovery.py"]  # proxy, status
    for path in CORE.glob("*.py"):
        assert "create_table_sql" not in path.read_text(encoding="utf-8"), path.name


def _identifiers_under_src() -> set[str]:
    return {
        name
        for path in SRC.rglob("*.py")
        for name in _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    }


def test_no_plan_is_validated_against_a_server_wide_counter():
    """A cached plan is valid while what it resolved is unchanged
    (``Executor._binding``): the server-wide DDL counters it used to be
    checked against do not exist."""
    assert not {"catalog_version", "temp_version", "bump_catalog_version"} & (
        _identifiers_under_src()
    )


def test_deleted_settings_stay_deleted():
    """The table-lock ablation switch, the planned restart's catalog bump,
    the fleet-wide jitter seed, the second (wall-clock) recovery bound, the
    simulated-latency counter, the planned restart's policy, RESTARTING
    answer, ETA and epoch, the test-only session reaper, the unread query
    timeout, the unused return codes, the time-travel archive with the
    log-prefix truncation it served, the lock modes no statement requests,
    the per-part catalog meta entries, the client-side connection pool and
    the planned restart's drain barrier beside the engine mutex (its
    lifecycle, timeout, lock-waiter bounce and error class) are gone, not
    kept beside what replaced them."""
    gone = {
        "row_locking", "bump_catalog", "catalog_version", "temp_version",
        "jitter_seed", "recovery_deadline", "simulated_seconds",
        "RestartPolicy", "RestartingResponse", "restart_eta_seconds",
        "_restarting_bypass", "server_epoch", "reap_sessions", "activity_epoch",
        "last_epoch", "QUERY_TIMEOUT", "ReturnCode",
        # the second serving entry and the second result shape
        "_InProcessWire", "_WorkItem", "_result_response", "ResultResponse",
        # the fault injector's unread API
        "next_fault_with_arg", "last_fault_arg", "fires_remaining", "matches_until_fire",
        # definitions nothing named
        "execute_sql", "active_count", "is_numeric", "record_many",
        "total_phase_seconds", "correlation_ids", "in_use", "total_update_seconds",
        "COMPARISON_OPS", "ARITHMETIC_OPS", "LOGICAL_OPS",
        # a second history device beside the log, and cutting the log's front
        "append_archive", "truncate_archive", "archive_rows", "archive_segments",
        "truncate_log_prefix", "log_base", "_archive_log_prefix", "live_commits",
        # the shared half of the lock lattice, which nothing requests, and
        # the waits-for view only a test read
        "SHARED", "INTENT_SHARED", "SHARED_INTENT_EXCLUSIVE", "SIX", "_SUP",
        "_COVERS_ROW", "waits_for_graph", "_wait_info",
        # one meta entry per checkpoint, not one per catalog part
        "_META_PROCEDURES", "_META_VIEWS", "_META_INDEXES",
        # a connection pool beside repro.connect, and its counters: a Phoenix
        # connection already outlives a crash
        "ConnectionPool", "_resolve_stats", "DEFAULT_CHECKOUT_TIMEOUT",
        "pool_checkouts", "pool_checkins", "pool_pings", "pool_replacements",
        "pool_exhausted", "pool_in_use", "pool_checkout", "pool_checkin",
        "pool_ping", "pool_replacement", "pool_exhaustion",
        # a drain barrier beside the engine mutex, which already serializes
        # every engine operation a planned swap must wait for
        "begin_drain", "_end_drain", "_drain_in_flight", "lifecycle", "DRAIN_TIMEOUT",
        "quiesce", "keys_with_pending", "_paused", "bounce_waiters",
        "_bounce_generation", "_draining", "drain_bounces", "ServerRestartingError",
        "drains_started", "drains_completed", "statements_bounced",
    }
    assert not gone & _identifiers_under_src()
    assert not (SRC / "pool.py").exists()
    # names other code also uses as identifiers
    from repro.engine.dispatch import SessionDispatcher
    from repro.engine.results import StatementResult
    from repro.net.transport import Transport

    assert not hasattr(ServerEndpoint, "handle")
    assert not hasattr(SessionDispatcher, "run")
    assert not {"pause", "resume", "_active"} & set(vars(SessionDispatcher))
    assert not hasattr(SessionDispatcher(), "_active")
    assert not hasattr(Transport, "close") and not hasattr(Transport, "describe")
    assert "extra" not in {field.name for field in dataclasses.fields(StatementResult)}


# ---------------------------------------------------------------- one way to find a table's rows

def test_one_function_finds_the_rows_a_predicate_names():
    """The next access path is written once: SELECT, UPDATE, DELETE and a
    keyset cursor's fetch all reach the indexes through the shared prober
    (the DML copy of chooser and prober knew equality only, and let the
    order of the conjuncts pick the lock granularity).  The one named
    exception does not look candidates up: ``_run_topk`` streams a slice of
    an ordered index in ORDER BY order."""
    lookups = {"lookup_key", "index_lookup", "index_range"}
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not {"_dml_index_probe", "_dml_candidates"} & _identifiers(tree), path.name
        if SRC / "engine" in path.parents:
            callers += [
                f"{path.name}:{function.name}"
                for function in _functions(tree)
                if lookups & _calls(function)
            ]
    assert sorted(callers) == ["executor.py:_probe_rowids", "executor.py:_run_topk"]


# ---------------------------------------------------------------- one meaning per log record

#: the data and DDL record kinds: every kind but the markers of a
#: transaction's or the log's progress
RECORD_KINDS = set(RecordType.__members__) - {"BEGIN", "COMMIT", "ABORT", "CHECKPOINT"}
#: the functions that may branch on them: the record's meaning, its
#: inverse, and the executor's eviction of a rolled-back procedure's parse
#: (a cache entry, not database state)
RECORD_KIND_BRANCHES = {
    "engine/database.py:apply",
    "engine/wal.py:inverse",
    "engine/executor.py:_forget_procedures",
}


def test_one_function_says_what_a_record_does():
    """What a log record does to the database is written once, in
    ``Database.apply``; undo is the apply of its ``inverse``.  Abort,
    statement rollback, a checkpoint's clean images, restart and time
    travel each had a per-kind copy of it before (four in all), each with
    its own omissions.  A comparison against a data or DDL kind anywhere
    else is such a copy."""
    branching = {
        f"{path.relative_to(SRC).as_posix()}:{function.name}"
        for path in sorted(SRC.rglob("*.py"))
        for function in _functions(ast.parse(path.read_text(encoding="utf-8")))
        for compare in ast.walk(function)
        if isinstance(compare, ast.Compare)
        for node in ast.walk(compare)
        if isinstance(node, ast.Attribute)
        and node.attr in RECORD_KINDS
        and getattr(node.value, "id", None) == "RecordType"
    }
    assert branching <= RECORD_KIND_BRANCHES, sorted(branching - RECORD_KIND_BRANCHES)
    assert "engine/database.py:apply" in branching


# ---------------------------------------------------------------- values beside the text

def test_no_bound_value_is_spliced_into_a_text(monkeypatch):
    """Every statement Phoenix sends carries its values beside its text:
    the inliner, the function that rendered a sequence number into the
    wrapper and the batch's list of rendered texts are gone, no literal is
    quoted in ``repro.core``, and a repeated statement is a repeated text."""
    from repro.net.protocol import BatchExecuteRequest, ExecuteRequest
    from repro.net.transport import ClientChannel

    assert not {"inline_placeholders", "build_dml_batch"} & _identifiers_under_src()
    fields = [f.name for f in dataclasses.fields(BatchExecuteRequest)]
    assert fields == ["session_id", "sql", "rows"]
    quoting = [
        f"{path.name}:{node.lineno}"
        for path in sorted(CORE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "quote_literal" in ast.unparse(node.func)
    ]
    assert quoting == []

    system = repro.make_system()
    connection = system.phoenix.connect(system.DSN)
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    cursor.execute("INSERT INTO t VALUES (1, 0), (2, 0)")
    sent: list[str] = []
    send = ClientChannel.send

    def recording(channel, request):
        if isinstance(request, ExecuteRequest):
            sent.append(request.sql)
        return send(channel, request)

    monkeypatch.setattr(ClientChannel, "send", recording)
    for i in range(20):
        cursor.execute("UPDATE t SET v = ? WHERE k = ?", [i, 1 + i % 2])
    for i in range(2):
        connection.begin()
        cursor.execute("UPDATE t SET v = ? WHERE k = ?", [100 + i, 1])
        connection.commit()
    wrappers = {sql for sql in sent if sql.startswith("BEGIN TRANSACTION; UPDATE")}
    commits = {sql for sql in sent if sql.endswith("COMMIT") and "rowcount()" not in sql}
    assert len(wrappers) == 1 and len(commits) == 1, (wrappers, commits)
    assert cursor.execute("SELECT v FROM t ORDER BY k").fetchall() == [(101,), (19,)]
    connection.close()


# ---------------------------------------------------------------- one path from driver to engine

def test_an_in_process_request_enters_the_server_through_submit(monkeypatch):
    """The in-process wire is the TCP path with the socket taken out: each
    request is exactly one ``SessionDispatcher.submit``, as a socket's is."""
    from repro.engine.dispatch import SessionDispatcher
    from repro.net.transport import ClientChannel

    system = repro.make_system()
    connection = repro.connect(system, phoenix=False)
    cursor = connection.cursor()
    sent, submitted = [], []
    send, submit = ClientChannel.send, SessionDispatcher.submit

    def counting_send(channel, request):
        sent.append(type(request).__name__)
        return send(channel, request)

    def counting_submit(dispatcher, key, fn, callback):
        submitted.append(key)
        return submit(dispatcher, key, fn, callback)

    monkeypatch.setattr(ClientChannel, "send", counting_send)
    monkeypatch.setattr(SessionDispatcher, "submit", counting_submit)
    cursor.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    cursor.executemany("INSERT INTO t VALUES (?)", [[1], [2]])
    assert cursor.execute("SELECT k FROM t ORDER BY k").fetchall() == [(1,), (2,)]
    connection.close()
    assert sent and len(submitted) == len(sent)
    system.close()


#: definitions called by name from outside the source, with the reason
CALLED_BY_NAME = {
    "find_class": "pickle.Unpickler calls it for every class a payload names",
    "connection_made": "asyncio calls it on a Protocol when a socket connects",
    "connection_lost": "asyncio calls it on a Protocol when a socket closes",
    "data_received": "asyncio calls it on a Protocol with each chunk read",
}
#: a prefix of definitions dispatched by name, with the reason
CALLED_BY_PREFIX = {
    "_compile_": "ExpressionCompiler dispatches on the node's class name",
}
ROOT = SRC.parent.parent


def _docstring_nodes(tree: ast.AST) -> set[int]:
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def _names_used(tree: ast.AST, strings: bool = True) -> set[str]:
    """Every name ``tree`` reads: names, attributes, imports, keywords and,
    with ``strings``, the words of its non-docstring strings
    (``setattr(module, "NAME")``, a ``"Class.method"`` patch target) —
    never a definition's own name."""
    docstrings = _docstring_nodes(tree)
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.keyword) and node.arg:
            used.add(node.arg)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return used


def _definitions(tree: ast.Module):
    """Module functions, classes, their methods and module constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node.lineno


def test_every_definition_is_named_somewhere():
    """Code nothing calls is deleted, not kept: every function, method,
    class and module constant under ``src/`` is named somewhere under
    ``src/``, ``tests/``, ``benchmarks/`` or ``scripts/`` other than at its
    own definition — or is called by name from outside (the allow-lists).
    The strings of this file do not count: its lists name deleted code."""
    used: set[str] = set()
    for folder in ("src", "tests", "benchmarks", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= _names_used(tree, strings=path.resolve() != Path(__file__).resolve())
    unnamed = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, line in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in used
        and not (name.startswith("__") and name.endswith("__"))
        and name not in CALLED_BY_NAME
        and not name.startswith(tuple(CALLED_BY_PREFIX))
    ]
    assert unnamed == []
