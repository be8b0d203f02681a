"""Expression compilation: AST → Python source → one generated function.

Expressions are compiled once per statement against a :class:`Scope`
(name→slot resolution) into a :class:`Code`: what the expression *emits*
into a generated Python function.  There is one emitter and two wrappers:

* :func:`row_function` — ``env → value``, one expression evaluated for one
  row environment (:class:`Env`: the flat row values, chained to outer rows
  for correlated subqueries).  DML's WHERE and SET, HAVING, ORDER BY keys,
  a plan's once-per-run filter, computed GROUP BY keys and constant
  folding use it; :meth:`ExpressionCompiler.compile` returns it.
* a loop over rows — the executor writes one per pipeline step (a source's
  local filters, a join step, the final WHERE, the aggregate arguments, the
  projection) with an :class:`Emitter`, so a step's per-row work is
  straight-line code in one function.

Every node that has a source form emits it: slot reads, constants (bound
as names of the function's namespace, never spliced in as literals),
arithmetic, date arithmetic, comparisons, three-valued AND/OR/NOT,
``IS [NOT] NULL``, ``[NOT] BETWEEN``, ``[NOT] IN`` and CASE.  Every other
node — function calls, LIKE, CAST, EXTRACT, SUBSTRING, subqueries, ``?``,
``@name``, ``rowcount()`` — is bound into the namespace as a callable and
called with the operand values the function computed, and with the
:class:`Env` when it reads the run.  Because constants are names, a
generated source depends only on the plan's shape; :func:`_code_of`
memoizes source text → code object, so a plan compiled again (after a
crash, a restart, a rewind) compiles no Python.

Three-valued logic: predicates answer ``True``/``False``/``None``; the
executor treats only ``True`` as satisfying WHERE/HAVING/ON.  Each
generated function evaluates the operands the SQL evaluates, in order: AND,
OR and arithmetic evaluate both sides before looking at NULL, so every
error an operand raises is raised.

Compilation folds bottom-up: a literal compiles to a constant, and any
other node whose compiled operands are all constants is evaluated once, at
compile time — except a function call, a ``?``, an ``@name`` and a
subquery, which are never constant.  Constness is read off the compiled
operands, not found by walking the tree again: an INSERT whose VALUES are
all literals compiles them on every execution.  A comparison whose two
values are of a pair in :data:`~repro.engine.values.DIRECT_PAIRS` applies
Python's operator to them directly; every other pair, a NULL and a NaN go
through :func:`~repro.engine.values.compare`.  The shapes a scan filters by
most — ``column <op> constant`` either way round, ``column [NOT] BETWEEN
constant AND constant`` and ``x [NOT] IN (constants)`` — test the row
value's class against the classes that pair directly with the constants
(none for a NULL or NaN constant), and an IN list of such constants is a
``frozenset``.

Subqueries are compiled through a callback into the executor (to avoid an
import cycle the executor passes its planner in as the ``SubqueryRunner``).
Uncorrelated subqueries are detected at compile time — their result is
computed lazily once and cached for the statement.

A compiled expression holds no session: what varies per execution — the
``?`` and ``@name`` values, the session's ``rowcount()``, the statement's
memos — is read from the :class:`RunContext` its environment carries, so
one compiled plan serves every session of its database.
"""

from __future__ import annotations

import builtins
import datetime
import functools
import re
import types
import weakref
from typing import Any, Callable, Iterable, Protocol

from repro.errors import DataError, ProgrammingError
from repro.engine import functions
from repro.engine.values import DIRECT_PAIRS, add_interval, coerce_value, compare, parse_date
from repro.engine.schema import type_spec_to_sql_type
from repro.sql import ast

__all__ = [
    "Scope",
    "Env",
    "Code",
    "CompiledExpr",
    "Emitter",
    "ExpressionCompiler",
    "RunContext",
    "SubqueryRunner",
    "FLIPPED",
    "all_true",
    "like_to_regex",
    "row_function",
    "source_of",
    "statement_memo",
]

#: A compiled expression's per-row function: env → value.
CompiledExpr = Callable[["Env"], Any]


class RunContext:
    """What one execution of a compiled plan reads besides its rows.

    A compiled plan holds no session: it is shared by every session of its
    database.  Each execution builds one context and hands it down the
    plan tree on its row environments (:attr:`Env.run`):

    * ``executor`` — the session's executor: its temp tables, its last
      ``rowcount()``, the table a ``FROM @t`` names;
    * ``placeholders`` — the ``?`` values; ``params`` — the ``@name`` values;
    * ``stats`` — the counters the run adds to;
    * ``memo`` — what is computed once per execution (uncorrelated
      subqueries, derived tables, views), which dies with the context.
    """

    __slots__ = ("executor", "placeholders", "params", "stats", "memo")

    def __init__(self, executor: Any, placeholders: Any, params: dict):
        self.executor = executor
        self.placeholders = placeholders
        self.params = params
        self.stats = None if executor is None else executor.stats
        self.memo: dict = {}


class Env:
    """Runtime row environment: flat slot values, the outer row's
    environment, and the execution's :class:`RunContext`."""

    __slots__ = ("values", "parent", "run")

    def __init__(self, values: list, parent: "Env | None" = None, run: RunContext | None = None):
        self.values = values
        self.parent = parent
        self.run = run


class Scope:
    """Compile-time name resolution over one level of row slots.

    A scope is a sequence of *sources*; each source contributes its columns
    as consecutive slots.  An extra block of anonymous slots can be added
    for aggregate results (see :meth:`add_synthetic_slot`).
    """

    def __init__(self, parent: "Scope | None" = None):
        self.parent = parent
        self._sources: list[tuple[str, list[str]]] = []
        self._slot_count = 0
        #: (binding, column) -> slot; column -> [slots] for unqualified lookup
        self._qualified: dict[tuple[str, str], int] = {}
        self._unqualified: dict[str, list[int]] = {}
        #: set by resolve() when a lookup escaped to the parent scope —
        #: how we detect correlated subqueries.
        self.used_parent = False

    def add_source(self, binding: str, column_names: list[str]) -> None:
        binding = binding.lower()
        if any(b == binding for b, _ in self._sources):
            raise ProgrammingError(f"duplicate table binding {binding!r} in FROM")
        self._sources.append((binding, [c.lower() for c in column_names]))
        for name in column_names:
            slot = self._slot_count
            self._qualified[(binding, name.lower())] = slot
            self._unqualified.setdefault(name.lower(), []).append(slot)
            self._slot_count += 1

    def reordered(self, order: list[int], moved: list[int], slot_count: int) -> "Scope":
        """A scope over the same sources (and parent) with the sources in
        ``order`` — indices into :attr:`sources` — and each column's slot
        ``moved[slot]``, of ``slot_count`` slots: what a name resolves to
        moves with its source."""
        scope = Scope(self.parent)
        scope._sources = [self._sources[index] for index in order]
        scope._slot_count = slot_count
        scope._qualified = {key: moved[slot] for key, slot in self._qualified.items()}
        scope._unqualified = {
            name: [moved[slot] for slot in slots] for name, slots in self._unqualified.items()
        }
        return scope

    def add_synthetic_slot(self) -> int:
        """Reserve one anonymous slot (aggregate results); returns its index."""
        slot = self._slot_count
        self._slot_count += 1
        return slot

    @property
    def slot_count(self) -> int:
        return self._slot_count

    @property
    def sources(self) -> list[tuple[str, list[str]]]:
        return list(self._sources)

    def columns_of(self, binding: str) -> list[str]:
        binding = binding.lower()
        for b, cols in self._sources:
            if b == binding:
                return list(cols)
        raise ProgrammingError(f"unknown table {binding!r}")

    def try_resolve(self, name: str, table: str | None = None) -> tuple[int, int] | None:
        """Resolve to (depth, slot) or None; marks parent usage."""
        name = name.lower()
        if table is not None:
            slot = self._qualified.get((table.lower(), name))
        else:
            slots = self._unqualified.get(name, [])
            if len(slots) > 1:
                raise ProgrammingError(f"ambiguous column reference {name!r}")
            slot = slots[0] if slots else None
        if slot is not None:
            return (0, slot)
        if self.parent is not None:
            resolved = self.parent.try_resolve(name, table)
            if resolved is not None:
                self.used_parent = True
                depth, upper_slot = resolved
                return (depth + 1, upper_slot)
        return None

    def resolve(self, name: str, table: str | None = None) -> tuple[int, int]:
        resolved = self.try_resolve(name, table)
        if resolved is None:
            qualified = f"{table}.{name}" if table else name
            raise ProgrammingError(f"unknown column {qualified!r}")
        return resolved


class SubqueryRunner(Protocol):
    """The executor-side hook expression compilation needs: it plans
    subqueries and counts the ``?`` values the statement needs."""

    #: the ``?`` values the statement compiled so far needs (max index + 1)
    required: int

    def prepare_subquery(self, select: ast.Select, scope: Scope):
        """Plan ``select`` once with ``scope`` as its outer level.  Returns
        ``(rows_fn, correlated)`` where ``rows_fn(env)`` re-runs the plan
        for one outer row's environment."""
        ...


@functools.lru_cache(maxsize=512)
def like_to_regex(pattern: str, escape: str | None = None) -> re.Pattern:
    """Translate a SQL LIKE pattern to a compiled anchored regex.

    Memoized: non-literal LIKE patterns (``col LIKE other_col``, computed
    patterns) hit this per *row*, and TPC-H Q13/Q16-style scans repeat the
    same handful of pattern strings millions of times.
    """
    out: list[str] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape is not None and ch == escape and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return re.compile("".join(out) + r"\Z", re.DOTALL)


#: each generated code object's source, while the code object lives
_SOURCES: "weakref.WeakKeyDictionary[types.CodeType, str]" = weakref.WeakKeyDictionary()


def source_of(fn: Callable) -> str:
    """The source of a generated function."""
    return _SOURCES[fn.__code__]


@functools.lru_cache(maxsize=1024)
def _code_of(source: str) -> types.CodeType:
    """The code object of the one function ``source`` defines.

    Memoized by source text: a generated source depends only on the shape
    of what it evaluates (constants are names of its namespace), so every
    plan of one shape — in any database incarnation, after any crash —
    shares one ``compile()``.  The memo holds code objects and their text
    only: no constant, table or session."""
    module = compile(source, "<generated>", "exec")
    code = next(const for const in module.co_consts if isinstance(const, types.CodeType))
    _SOURCES[code] = source
    return code


def statement_memo(compute: Callable[[Env], Any]) -> Callable[[Env], Any]:
    """``compute`` evaluated once per execution of its plan.

    An uncorrelated subquery, a derived table and a view give one answer
    within a statement but not across statements: a cached plan serves many
    executions, and DML in between (of any session) must be visible.  The
    value is kept in the execution's :attr:`RunContext.memo`, so it dies
    with the execution and two executions share nothing.
    """

    def memoized(env: Env) -> Any:
        memo = env.run.memo
        value = memo.get(compute, _UNSET)
        if value is _UNSET:
            value = memo[compute] = compute(env)
        return value

    return memoized


#: what :func:`statement_memo` finds for a value not computed yet
_UNSET = object()


# -- the emitter ---------------------------------------------------------------


class Code:
    """A compiled expression: ``emit(gen)`` appends the statements that
    compute its value to the :class:`Emitter` ``gen`` and returns the name
    that holds the value.

    ``constant`` says it folded at compile time (then ``value`` is its
    value); ``slot`` is the slot it reads when it is a column of this
    query's row, as it stands; ``three_valued`` says it answers only
    True/False/None, so used as a predicate it needs no normalizing;
    ``function`` is the callable of the environment the node is, when it
    is one (``?``, ``@name``, ``rowcount()``, a subquery).  A function built
    for a node refers to the node, never the other way round: compiling
    makes no reference cycle for the collector to find."""

    __slots__ = ("emit", "constant", "value", "slot", "three_valued", "function")

    def __init__(self, emit: Callable[["Emitter"], str], three_valued: bool = False):
        self.emit = emit
        self.constant = False
        self.value = None
        self.slot: int | None = None
        self.three_valued = three_valued
        self.function: CompiledExpr | None = None


class Emitter:
    """The source of one generated function, written line by line.

    Rows are read as ``row``: a slot read emits ``row[slot - base]``, so a
    loop over one source's rows reads them where they stand, and a slot at
    or past ``limit`` (a LEFT join's sources after its step) reads NULL.
    Outer rows are read through ``env``.  Names bound into the namespace
    are numbered in emission order, so the source depends only on the
    shape of what is emitted."""

    #: the indent of the current line
    indent = ""
    #: the temporaries named so far
    temps = 0
    #: did a bound callable read the row through ``env.values``?
    reads_env_row = False

    def __init__(self, base: int = 0, limit: int | None = None):
        self.base = base
        self.limit = limit
        self.lines: list[str] = []
        #: indices in ``lines`` kept only if ``reads_env_row``
        self.env_row_lines: list[int] = []
        self.namespace: dict[str, Any] = {}
        #: the indents of the blocks open around the current line
        self.outer: list[str] = []

    def line(self, text: str) -> None:
        self.lines.append(self.indent + text)

    def lines_of(self, text: str) -> None:
        """Each line of ``text``, at the current indent."""
        indent = self.indent
        self.lines += [indent + line for line in text.split("\n")]

    def block(self, header: str) -> "Emitter":
        """``with gen.block(header):`` — the lines written inside are
        indented under ``header``."""
        self.line(header)
        self.outer.append(self.indent)
        self.indent += "    "
        return self

    def __enter__(self) -> "Emitter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.indent = self.outer.pop()

    def when_env_row_read(self, text: str) -> None:
        """A line kept only if a bound callable reads the row through
        ``env.values`` (a correlated subquery)."""
        self.env_row_lines.append(len(self.lines))
        self.line(text)

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def assign(self, expression: str) -> str:
        name = self.temp()
        self.lines.append(f"{self.indent}{name} = {expression}")
        return name

    def bind(self, obj: Any, prefix: str = "c") -> str:
        """A name of the namespace for ``obj``: ``c…`` a constant, ``f…`` a
        callable a node is evaluated by, ``p…`` / ``m…`` a class or member
        set (the executor adds ``a…`` folds and ``g…`` getters)."""
        name = f"{prefix}{len(self.namespace)}"
        self.namespace[name] = obj
        return name

    def call(self, fn: Callable, *args: str) -> str:
        return self.assign(f"{self.bind(fn, 'f')}({', '.join(args)})")

    def column(self, slot: int) -> str:
        if self.limit is not None and slot >= self.limit:
            return self.bind(None)
        return self.assign(f"row[{slot - self.base}]")

    def predicate(self, code: Code) -> str:
        """``code``'s value normalized to True/False/None."""
        name = code.emit(self)
        if code.three_valued:
            return name
        return self.assign(f"None if {name} is None else bool({name})")

    def filter(self, codes: list[Code], otherwise: str = "continue") -> None:
        """Each predicate in turn; the first not True runs ``otherwise``
        (the later ones are not evaluated)."""
        for code in codes:
            name = self.predicate(code)
            self.lines += [f"{self.indent}if {name} is not True:", f"{self.indent}    {otherwise}"]

    def function(self, name: str, params: str) -> Callable:
        """The function of the lines written, built from the memoized code
        object of its source."""
        lines = self.lines
        if not self.reads_env_row:
            for index in reversed(self.env_row_lines):
                del lines[index]
        code = _code_of(f"def {name}({params}):\n    " + "\n    ".join(lines) + "\n")
        return types.FunctionType(code, {**_HELPERS, **self.namespace}, name)


def row_function(code: Code) -> CompiledExpr:
    """``code`` as ``env → value``.  A node that is a callable of the
    environment is its own; a constant's and a column's need no source: a
    probe's IN list is mostly literals, and an ORDER BY key or an
    aggregate's value mostly a slot."""
    if code.function is not None:
        return code.function
    if code.constant:
        value = code.value

        def fn(env: Env) -> Any:
            return value
    elif code.slot is not None:
        slot = code.slot

        def fn(env: Env) -> Any:
            return env.values[slot]
    else:
        gen = Emitter()
        gen.line("row = env.values")
        gen.line(f"return {code.emit(gen)}")
        fn = gen.function("_row", "env")
    return fn


def all_true(codes: list[Code]) -> CompiledExpr | None:
    """One ``env → bool`` filter: each predicate of ``codes`` is True (None
    when there is none)."""
    if not codes:
        return None
    gen = Emitter()
    gen.line("row = env.values")
    gen.filter(codes, "return False")
    gen.line("return True")
    return gen.function("_conjunction", "env")


def _between_by_compare(value: Any, low: Any, high: Any, negated: bool) -> Any:
    """``value [NOT] BETWEEN low AND high`` through ``compare``."""
    lo = compare(value, low)
    hi = compare(value, high)
    if lo is None or hi is None:
        # ``value >= low AND value <= high`` in three-valued logic: a NULL
        # bound leaves the answer unknown unless the other bound already
        # fails — ``5 BETWEEN 9 AND NULL`` is false, so its NOT is true
        if (lo is None or lo >= 0) and (hi is None or hi <= 0):
            return None
        result = False
    else:
        result = lo >= 0 and hi <= 0
    return not result if negated else result


def _in_values(value: Any, others: Iterable[Any], negated: bool) -> Any:
    """``value [NOT] IN (others)`` through ``compare``."""
    if value is None:
        return None
    saw_null = False
    for other in others:
        if other is None:
            saw_null = True
        elif _equal(value, other):
            return not negated
    if saw_null:
        return None
    return negated


def _equal(a: Any, b: Any) -> bool:
    """``compare(a, b) == 0``, with ``==`` applied directly to a direct pair."""
    if (a.__class__, b.__class__) in DIRECT_PAIRS:
        if a == b:
            return True
        if a == a and b == b:  # no NaN: Python's "unequal" is SQL's
            return False
    return compare(a, b) == 0


#: the namespace every generated function starts from
_HELPERS = {
    "__builtins__": builtins,
    "_DIRECT_PAIRS": DIRECT_PAIRS,
    "_NUMBERS": functions.NUMBERS,
    "_DataError": DataError,
    "_compare": compare,
    "_not_numbers": functions.not_numbers,
    "_add_interval": add_interval,
    "_date": datetime.date,
    "_timedelta": datetime.timedelta,
    "_between_by_compare": _between_by_compare,
    "_in_values": _in_values,
    "_equal": _equal,
}

#: class -> the classes whose values pair with its values in DIRECT_PAIRS
_PARTNERS: dict[type, frozenset] = {
    cls: frozenset(a for a, b in DIRECT_PAIRS if b is cls) for _a, cls in DIRECT_PAIRS
}


def _partners(constants: list[Code]) -> frozenset:
    """The classes a value must be of to compare directly with every one
    of ``constants`` — empty unless each folded to a value that is not NULL
    or NaN."""
    found = None
    for code in constants:
        if not code.constant:
            return frozenset()
        value = code.value
        if value != value:  # NaN
            return frozenset()
        partners = _PARTNERS.get(value.__class__, frozenset())
        found = partners if found is None else found & partners
    return found or frozenset()


def _constant(value: Any) -> Code:
    """What a literal compiles to, and what folding makes of a node over
    constants."""
    code = Code(lambda gen: gen.bind(value), value is None or value.__class__ is bool)
    code.constant = True
    code.value = value
    return code


def _folded(code: Code, *operands: Code) -> Code:
    """``code`` evaluated once, now, when every operand is a constant.  An
    evaluation that raises keeps ``code``: the error belongs to the runs
    that evaluate the expression (a filter over an empty table raises
    nothing)."""
    for operand in operands:
        if not operand.constant:
            return code
    try:
        value = row_function(code)(_NO_ROW)
    except Exception:
        return code
    return _constant(value)


#: the environment a constant expression is folded in: it reads no row
_NO_ROW = Env([])


def _predicate(code: Code) -> Code:
    """``code`` used as a filter: its value normalized to True/False/None."""
    if code.three_valued:
        return code
    if code.constant:
        return _constant(None if code.value is None else bool(code.value))
    return Code(lambda gen: gen.predicate(code), three_valued=True)


def _applied(fn: Callable, *operands: Code) -> Code:
    """``fn`` bound into the namespace and called with the operands'
    values; folded when they are constants."""

    def emit(gen: Emitter) -> str:
        return gen.call(fn, *[operand.emit(gen) for operand in operands])

    return _folded(Code(emit), *operands)


def _with_env(fn: Callable, *operands: Code, env_row: bool = False, three_valued: bool = False) -> Code:
    """``fn`` bound into the namespace and called with the environment and
    the operands' values; ``env_row`` when it reads the row through
    ``env.values``.  Never constant."""

    def emit(gen: Emitter) -> str:
        args = "".join(", " + operand.emit(gen) for operand in operands)
        if env_row:
            gen.reads_env_row = True
        return gen.assign(f"{gen.bind(fn, 'f')}(env{args})")

    code = Code(emit, three_valued)
    if not operands:
        code.function = fn
    return code


#: comparison operator -> (the Python operator that answers it for a direct
#: pair with no NaN, the answer that operator gives when a side is NaN —
#: then ``compare`` answers —, the test on compare's -1/0/1)
_COMPARISONS: dict[str, tuple[str, bool, str]] = {
    "=": ("==", False, "== 0"),
    "<>": ("!=", True, "!= 0"),
    "<": ("<", False, "< 0"),
    "<=": ("<=", False, "<= 0"),
    ">": (">", False, "> 0"),
    ">=": (">=", False, ">= 0"),
}

#: each comparison operator with its sides swapped (``5 < k`` is ``k > 5``)
FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: EXTRACT's parts: the ``datetime.date`` attribute each reads
_DATE_PARTS = {"YEAR": "year", "MONTH": "month", "DAY": "day"}


def _comparison(op: str, left: Code, right: Code) -> Code:
    """``left <op> right``: Python's operator on a direct pair with no NaN,
    else ``compare`` over the sides as written (its errors name them in
    order).  A column beside a constant that pairs directly has its class
    tested against the constant's partners."""
    if left.slot is not None and _partners([right]):
        known, form = right, "column first"
    elif right.slot is not None and _partners([left]):
        known, form = left, "constant first"
    else:
        known, form = None, "generic"
    source = _comparison_source(op, form)

    def emit(gen: Emitter) -> str:
        a, b = left.emit(gen), right.emit(gen)
        t, c = gen.temp(), gen.temp()
        p = "" if known is None else gen.bind(_PARTNERS[known.value.__class__], "p")
        gen.lines_of(source.format(a=a, b=b, t=t, c=c, p=p))
        return t

    return _folded(Code(emit, three_valued=True), left, right)


@functools.lru_cache(maxsize=None)
def _comparison_source(op: str, form: str) -> str:
    """The source of ``{t} = {a} <op> {b}`` (``{c}`` a temporary, ``{p}``
    the partner classes of the constant in a ``column first`` / ``constant
    first`` form)."""
    python_op, on_nan, test = _COMPARISONS[FLIPPED[op] if form == "constant first" else op]
    test = _COMPARISONS[op][2]
    if form == "generic":
        direct = (
            "({a}.__class__, {b}.__class__) not in _DIRECT_PAIRS "
            f"or ({{t}} := {{a}} {python_op} {{b}}) is {on_nan} and ({{a}} != {{a}} or {{b}} != {{b}})"
        )
    else:
        value, constant = ("{a}", "{b}") if form == "column first" else ("{b}", "{a}")
        direct = (
            f"{value}.__class__ not in {{p}} "
            f"or ({{t}} := {value} {python_op} {constant}) is {on_nan} and {value} != {value}"
        )
    return _if_chain(
        [(direct, f"{{c}} = _compare({{a}}, {{b}})\n{{t}} = None if {{c}} is None else {{c}} {test}")],
        None,
    )


def _arithmetic_code(op: str, left: Code, right: Code) -> Code:
    """``left <op> right`` over two numbers (and, for ``+`` and ``-``, a
    date and a number of days, or two dates); NULL if either side is
    NULL; a DataError over anything else.  A check a constant operand
    always passes is left out."""
    source = _arithmetic_source(
        op, _known_number(left), _known_number(right),
        not (_known_number(right) and right.value != 0),
    )

    def emit(gen: Emitter) -> str:
        a, b = left.emit(gen), right.emit(gen)
        t = gen.temp()
        gen.lines_of(source.format(a=a, b=b, t=t))
        return t

    return _folded(Code(emit), left, right)


@functools.lru_cache(maxsize=None)
def _arithmetic_source(op: str, left_known: bool, right_known: bool, zero_check: bool) -> str:
    """The source of ``{t} = {a} <op> {b}``: ``*_known`` when that side is
    a constant number, ``zero_check`` unless the divisor is a constant
    other than zero."""
    a, b, t = "{a}", "{b}", "{t}"
    unknown = [x for x, known in ((a, left_known), (b, right_known)) if not known]
    if op in ("+", "-", "*"):
        body = f"{t} = {a} {op} {b}"
    else:
        zero = f"if {b} == 0:\n    raise _DataError('division by zero')\n" if zero_check else ""
        if op == "/":
            body = f"{zero}{t} = {a} / {b}"
        else:
            # SQL remainder takes the sign of the dividend (-7 % 3 = -1);
            # Python's takes the divisor's
            body = f"{zero}{t} = abs({a}) % abs({b})\nif {a} < 0:\n    {t} = -{t}"
    if not unknown:
        return body
    branches = [
        (" or ".join(f"{x} is None" for x in unknown), f"{t} = None"),
        (" and ".join(f"{x}.__class__ in _NUMBERS" for x in unknown), body),
    ]
    if op in ("+", "-"):
        days = b if op == "+" else f"-{b}"
        branches.append(
            (f"isinstance({a}, _date) and isinstance({b}, int)", f"{t} = {a} + _timedelta(days={days})")
        )
    if op == "-":
        branches.append((f"isinstance({a}, _date) and isinstance({b}, _date)", f"{t} = ({a} - {b}).days"))
    return _if_chain(branches, f"raise _not_numbers({op!r}, {a}, {b})")


def _known_number(code: Code) -> bool:
    """Is ``code`` a constant number: no NULL and class check needed?"""
    return code.constant and code.value.__class__ in functions.NUMBERS


def _chain(gen: Emitter, branches: list[tuple[str, str]], otherwise: str | None) -> None:
    """Emit :func:`_if_chain` over names known only now."""
    gen.lines_of(_if_chain(branches, otherwise))


def _if_chain(branches: list[tuple[str, str]], otherwise: str | None) -> str:
    """The source of ``if``/``elif`` over (condition, body) and ``else``
    ``otherwise`` (a body may span lines; with no branch, ``otherwise``
    alone)."""
    lines = []
    for index, (condition, body) in enumerate(branches):
        lines.append(f"{'el' if index else ''}if {condition}:")
        lines += ["    " + line for line in body.split("\n")]
    if otherwise is not None and branches:
        lines.append("else:")
        lines += ["    " + line for line in otherwise.split("\n")]
    elif otherwise is not None:
        lines.append(otherwise)
    return "\n".join(lines)


def _guarded(gen: Emitter, parts: list[Callable[[], None]], done: str) -> None:
    """Emit each of ``parts`` in turn, each after the first only while
    ``done`` is still False: what the first to answer answers, without
    evaluating the rest (and with no nesting per part)."""
    for index, part in enumerate(parts):
        if index == 0:
            part()
            continue
        with gen.block(f"if not {done}:"):
            part()


class ExpressionCompiler:
    """Compiles AST expressions against a scope.

    ``agg_slots`` maps ``id(FuncCall-node) → slot`` for post-group-by
    compilation, where aggregate calls become slot reads instead of being
    evaluated (the group-by executor fills those slots per group).
    ``params`` holds the ``@name`` parameters a statement may read (their
    values are read at run time, from :attr:`RunContext.params`).
    """

    def __init__(
        self,
        scope: Scope,
        runner: SubqueryRunner,
        *,
        agg_slots: dict[int, int] | None = None,
        params: Any = (),
    ):
        self.scope = scope
        self.runner = runner
        self.agg_slots = agg_slots or {}
        self.params = params
        #: how many of the subqueries compiled so far read the row they are
        #: evaluated for (see :meth:`compile_conjunct`)
        self.correlated_subqueries = 0

    # -- entry points ---------------------------------------------------------

    def code(self, expr: ast.Expr) -> Code:
        """``expr`` compiled to what it emits into a generated function."""
        method = _COMPILERS.get(expr.__class__)
        if method is None:
            raise ProgrammingError(f"cannot compile expression {type(expr).__name__}")
        return method(self, expr)

    def compile(self, expr: ast.Expr) -> CompiledExpr:
        """``expr`` compiled to its per-row function (:func:`row_function`)."""
        return row_function(self.code(expr))

    def value(self, expr: ast.Expr, env: Env) -> Any:
        """``expr`` evaluated once, for ``env``: a constant builds no
        function (an ``EXEC``'s arguments are mostly ``?`` and literals)."""
        code = self.code(expr)
        return code.value if code.constant else row_function(code)(env)

    def compile_predicate(self, expr: ast.Expr) -> CompiledExpr:
        """Compile an expression used as a filter (result normalized to 3VL)."""
        return row_function(_predicate(self.code(expr)))

    def compile_conjunct(self, expr: ast.Expr) -> tuple[Code, bool]:
        """Compile a filter, and say whether a subquery in it is correlated.
        The answer comes from the one planning of each subquery that
        compiling does anyway: planning a subquery again to ask would parse
        each view it reads again."""
        before = self.correlated_subqueries
        code = _predicate(self.code(expr))
        return code, self.correlated_subqueries != before

    # -- leaves ------------------------------------------------------------------

    def _compile_Literal(self, expr: ast.Literal) -> Code:
        return _constant(parse_date(str(expr.value)) if expr.is_date else expr.value)

    def _compile_ColumnRef(self, expr: ast.ColumnRef) -> Code:
        depth, slot = self.scope.resolve(expr.name, expr.table)
        if depth == 0:
            code = Code(lambda gen: gen.column(slot))
            code.slot = slot
            return code
        return Code(lambda gen: gen.assign(f"env{'.parent' * depth}.values[{slot}]"))

    def _compile_Param(self, expr: ast.Param) -> Code:
        # Read at *run* time, like a placeholder: one plan serves every
        # EXEC of the procedure.  The names are the procedure's declaration,
        # so an undeclared one is still a compile-time error.
        name = expr.name.lower()
        if name not in self.params:
            raise ProgrammingError(f"unbound parameter @{expr.name}")
        return _with_env(lambda env: env.run.params[name])

    def _compile_Placeholder(self, expr: ast.Placeholder) -> Code:
        # Read at *run* time from the execution's values: one plan serves
        # every binding of a ``?`` template.  The runner counts what the
        # statement needs, so plan entry can reject too few values up front
        # (a filter over an empty table would otherwise never read one).
        index = expr.index
        if self.runner is not None:
            self.runner.required = max(self.runner.required, index + 1)

        def _read(env: Env) -> Any:
            values = env.run.placeholders
            if index >= len(values):
                raise ProgrammingError(
                    f"statement has placeholder ?{index + 1} but only "
                    f"{len(values)} values were bound"
                )
            return values[index]

        return _with_env(_read)

    def _compile_Star(self, expr: ast.Star) -> Code:
        raise ProgrammingError("'*' is only valid in a select list or COUNT(*)")

    # -- operators -------------------------------------------------------------------

    def _compile_Unary(self, expr: ast.Unary) -> Code:
        operand = self.code(expr.operand)
        if expr.op.upper() == "NOT":
            condition = _predicate(operand)

            def emit_not(gen: Emitter) -> str:
                value = condition.emit(gen)
                return gen.assign(f"None if {value} is None else not {value}")

            return _folded(Code(emit_not, three_valued=True), operand)
        if expr.op == "-":

            def emit_neg(gen: Emitter) -> str:
                value = operand.emit(gen)
                t = gen.temp()
                _chain(
                    gen,
                    [(f"{value} is None", f"{t} = None"),
                     (f"{value}.__class__ in _NUMBERS", f"{t} = -{value}")],
                    f"raise _not_numbers('-', {value})",
                )
                return t

            return _folded(Code(emit_neg), operand)
        raise ProgrammingError(f"unknown unary operator {expr.op}")

    def _compile_Binary(self, expr: ast.Binary) -> Code:
        op = expr.op.upper()
        if op in ("+", "-") and isinstance(expr.right, ast.IntervalLiteral):
            # date ± INTERVAL takes its amount from the AST before the
            # operand compiles (a bare IntervalLiteral has no value of its own)
            base = self.code(expr.left)
            amount, unit = expr.right.amount, expr.right.unit
            sign = 1 if op == "+" else -1

            def emit_shift(gen: Emitter) -> str:
                value = base.emit(gen)
                return gen.assign(
                    f"None if {value} is None else _add_interval("
                    f"{value}, {gen.bind(amount)}, {gen.bind(unit)}, {sign})"
                )

            return _folded(Code(emit_shift), base)
        left = self.code(expr.left)
        right = self.code(expr.right)
        if op in ("AND", "OR"):
            return _folded(_kleene(op, _predicate(left), _predicate(right)), left, right)
        if op in _COMPARISONS:
            return _comparison(op, left, right)
        if op in ("+", "-", "*", "/", "%"):
            return _arithmetic_code(op, left, right)
        if op == "||":

            def emit_concat(gen: Emitter) -> str:
                a, b = left.emit(gen), right.emit(gen)
                return gen.assign(f"None if {a} is None or {b} is None else f'{{{a}}}{{{b}}}'")

            return _folded(Code(emit_concat), left, right)
        raise ProgrammingError(f"unknown operator {expr.op}")

    def _compile_IntervalLiteral(self, expr: ast.IntervalLiteral) -> Code:
        raise ProgrammingError("INTERVAL is only valid in date +/- INTERVAL arithmetic")

    # -- predicates -----------------------------------------------------------------

    def _compile_IsNull(self, expr: ast.IsNull) -> Code:
        operand = self.code(expr.operand)
        test = "is not None" if expr.negated else "is None"

        def emit(gen: Emitter) -> str:
            return gen.assign(f"{operand.emit(gen)} {test}")

        return _folded(Code(emit, three_valued=True), operand)

    def _compile_Between(self, expr: ast.Between) -> Code:
        operand = self.code(expr.operand)
        low = self.code(expr.low)
        high = self.code(expr.high)
        negated = expr.negated
        partners = frozenset() if operand.slot is None else _partners([low, high])

        def emit(gen: Emitter) -> str:
            value, lo, hi = operand.emit(gen), low.emit(gen), high.emit(gen)
            t = gen.temp()
            if partners:
                direct = (
                    f"{value}.__class__ not in {gen.bind(partners, 'p')} "
                    f"or ({t} := {lo} <= {value} <= {hi}) is False and {value} != {value}"
                )
            else:
                direct = (
                    f"({value}.__class__, {lo}.__class__) not in _DIRECT_PAIRS "
                    f"or ({value}.__class__, {hi}.__class__) not in _DIRECT_PAIRS "
                    f"or ({t} := {lo} <= {value} <= {hi}) is False "
                    f"and ({value} != {value} or {lo} != {lo} or {hi} != {hi})"
                )
            _chain(
                gen,
                [(direct, f"{t} = _between_by_compare({value}, {lo}, {hi}, {negated})")],
                f"{t} = not {t}" if negated else None,
            )
            return t

        return _folded(Code(emit, three_valued=True), operand, low, high)

    def _compile_InList(self, expr: ast.InList) -> Code:
        operand = self.code(expr.operand)
        items = [self.code(item) for item in expr.items]
        negated = expr.negated
        partners = frozenset() if operand.constant else _partners(items)
        if partners:
            constants = tuple(item.value for item in items)

            def emit_set(gen: Emitter) -> str:
                value = operand.emit(gen)
                t = gen.temp()
                direct = (
                    f"{value}.__class__ not in {gen.bind(partners, 'p')} "
                    f"or ({t} := {value} in {gen.bind(frozenset(constants), 'm')}) is False "
                    f"and {value} != {value}"
                )
                _chain(
                    gen,
                    [(direct, f"{t} = _in_values({value}, {gen.bind(constants)}, {negated})")],
                    f"{t} = not {t}" if negated else None,
                )
                return t

            return Code(emit_set, three_valued=True)

        def emit_items(gen: Emitter) -> str:
            # the first equal item answers, and only then is no further
            # item evaluated; a NULL operand evaluates no item
            value = operand.emit(gen)
            t, found, saw_null = gen.temp(), gen.temp(), gen.temp()
            gen.line(f"{t} = None")
            with gen.block(f"if {value} is not None:"):
                gen.line(f"{found} = {saw_null} = False")

                def part(item: Code) -> Callable[[], None]:
                    def emit_item() -> None:
                        other = item.emit(gen)
                        _chain(
                            gen,
                            [(f"{other} is None", f"{saw_null} = True"),
                             (f"_equal({value}, {other})", f"{found} = True")],
                            None,
                        )

                    return emit_item

                _guarded(gen, [part(item) for item in items], found)
                _chain(
                    gen,
                    [(found, f"{t} = {not negated}"), (f"not {saw_null}", f"{t} = {negated}")],
                    None,
                )
            return t

        return _folded(Code(emit_items, three_valued=True), operand, *items)

    def _compile_Like(self, expr: ast.Like) -> Code:
        operand = self.code(expr.operand)
        negated = expr.negated
        escape_char: str | None = None
        if expr.escape is not None:
            if not isinstance(expr.escape, ast.Literal):
                raise ProgrammingError("ESCAPE must be a string literal")
            escape_char = str(expr.escape.value)
        if isinstance(expr.pattern, ast.Literal):
            regex = like_to_regex(str(expr.pattern.value), escape_char)

            def _like_const(value: Any) -> Any:
                if value is None:
                    return None
                matched = regex.match(str(value)) is not None
                return not matched if negated else matched

            code = _applied(_like_const, operand)
        else:

            def _like(value: Any, pat: Any) -> Any:
                if value is None or pat is None:
                    return None
                matched = like_to_regex(str(pat), escape_char).match(str(value)) is not None
                return not matched if negated else matched

            code = _applied(_like, operand, self.code(expr.pattern))
        code.three_valued = True
        return code

    # -- subqueries ---------------------------------------------------------------------

    def _subquery_rows(self, select: ast.Select) -> tuple[Callable[[Env], list[tuple]], bool]:
        """Compile a subquery; returns (rows_fn, correlated).

        The runner plans the subquery exactly once (name resolution doubles
        as the correlation probe: if nothing escaped to this scope, the
        result cannot depend on the outer row and is safe to cache for the
        whole statement); ``rows_fn`` re-runs the compiled plan per call.
        """
        rows_fn, correlated = self.runner.prepare_subquery(select, self.scope)
        self.correlated_subqueries += correlated
        return rows_fn, correlated

    def _compile_InSelect(self, expr: ast.InSelect) -> Code:
        operand = self.code(expr.operand)
        rows_fn, correlated = self._subquery_rows(expr.select)
        negated = expr.negated

        def gather(env: Env) -> tuple[set, bool]:
            values = set()
            saw_null = False
            for row in rows_fn(env):
                if len(row) != 1:
                    raise ProgrammingError("IN subquery must return one column")
                if row[0] is None:
                    saw_null = True
                else:
                    values.add(row[0])
            return values, saw_null

        cached_gather = statement_memo(gather)

        def _in_select(env: Env, value: Any) -> Any:
            if value is None:
                return None
            if correlated:
                values, saw_null = gather(env)
            else:
                values, saw_null = cached_gather(env)
            if value in values:
                return not negated
            if saw_null:
                return None
            return negated

        return _with_env(_in_select, operand, env_row=correlated, three_valued=True)

    def _compile_Exists(self, expr: ast.Exists) -> Code:
        rows_fn, correlated = self._subquery_rows(expr.select)
        negated = expr.negated
        cached_found = statement_memo(lambda env: bool(rows_fn(env)))

        def _exists(env: Env) -> Any:
            if correlated:
                found = bool(rows_fn(env))
            else:
                found = cached_found(env)
            return not found if negated else found

        return _with_env(_exists, env_row=correlated, three_valued=True)

    def _compile_ScalarSelect(self, expr: ast.ScalarSelect) -> Code:
        rows_fn, correlated = self._subquery_rows(expr.select)

        def scalar(env: Env) -> Any:
            rows = rows_fn(env)
            if not rows:
                return None
            if len(rows) > 1:
                raise ProgrammingError("scalar subquery returned more than one row")
            if len(rows[0]) != 1:
                raise ProgrammingError("scalar subquery must return one column")
            return rows[0][0]

        return _with_env(scalar if correlated else statement_memo(scalar), env_row=correlated)

    # -- functions & friends ---------------------------------------------------------------

    def _compile_FuncCall(self, expr: ast.FuncCall) -> Code:
        name = expr.name.lower()
        if name == "rowcount" and not expr.args:
            # @@ROWCOUNT analog: affected rows of the session's last DML.
            return _with_env(lambda env: env.run.executor.session.last_rowcount)
        if name in functions.AGGREGATE_NAMES:
            slot = self.agg_slots.get(id(expr))
            if slot is None:
                raise ProgrammingError(
                    f"aggregate {name}() is not allowed here (no GROUP BY context)"
                )
            code = Code(lambda gen: gen.column(slot))
            code.slot = slot
            return code
        fn = functions.SCALAR_FUNCTIONS.get(name)
        if fn is None:
            raise ProgrammingError(f"unknown function {expr.name}")
        args = [self.code(a) for a in expr.args]

        def emit(gen: Emitter) -> str:
            return gen.call(fn, *[arg.emit(gen) for arg in args])

        return Code(emit)

    def _compile_CaseExpr(self, expr: ast.CaseExpr) -> Code:
        whens = [(self.code(c), self.code(r)) for c, r in expr.whens]
        else_ = self.code(expr.else_) if expr.else_ is not None else None
        parts = [code for pair in whens for code in pair] + ([else_] if else_ is not None else [])
        operand = self.code(expr.operand) if expr.operand is not None else None

        def emit(gen: Emitter) -> str:
            # the first WHEN that holds answers; no later WHEN, and no
            # other THEN, is evaluated
            value = operand.emit(gen) if operand is not None else None
            t, done = gen.temp(), gen.temp()
            gen.line(f"{t} = None")
            gen.line(f"{done} = False")

            def when(condition: Code, result: Code) -> Callable[[], None]:
                def emit_when() -> None:
                    if value is None:
                        holds = f"{gen.predicate(condition)} is True"
                    else:
                        other = condition.emit(gen)
                        holds = f"{value} is not None and {other} is not None and _equal({value}, {other})"
                    with gen.block(f"if {holds}:"):
                        gen.line(f"{t} = {result.emit(gen)}")
                        gen.line(f"{done} = True")

                return emit_when

            def otherwise() -> None:
                gen.line(f"{t} = {else_.emit(gen)}")

            steps = [when(condition, result) for condition, result in whens]
            _guarded(gen, steps + ([otherwise] if else_ is not None else []), done)
            return t

        if operand is not None:
            parts.insert(0, operand)
        return _folded(Code(emit), *parts)

    def _compile_Cast(self, expr: ast.Cast) -> Code:
        sql_type = type_spec_to_sql_type(expr.type)
        length = expr.type.length
        return _applied(
            lambda value: coerce_value(value, sql_type, length=length), self.code(expr.operand)
        )

    def _compile_ExtractExpr(self, expr: ast.ExtractExpr) -> Code:
        operand = self.code(expr.operand)
        field = _DATE_PARTS.get(expr.part.upper())
        if field is None:
            raise ProgrammingError(f"cannot EXTRACT {expr.part}")

        def _extract(value: Any) -> Any:
            if value is None:
                return None
            if isinstance(value, str):
                value = parse_date(value)
            if not isinstance(value, datetime.date):
                raise DataError(f"EXTRACT requires a date, got {value!r}")
            return getattr(value, field)

        return _applied(_extract, operand)

    def _compile_SubstringExpr(self, expr: ast.SubstringExpr) -> Code:
        operands = [self.code(expr.operand), self.code(expr.start)]
        if expr.length is not None:
            operands.append(self.code(expr.length))
        return _applied(functions.SCALAR_FUNCTIONS["substring"], *operands)


#: AST class -> the :class:`ExpressionCompiler` method that compiles it
_COMPILERS = {
    getattr(ast, name[len("_compile_"):]): method
    for name, method in vars(ExpressionCompiler).items()
    if name.startswith("_compile_")
}


def _kleene(op: str, left: Code, right: Code) -> Code:
    """Three-valued AND / OR over two predicates, both evaluated."""

    def emit(gen: Emitter) -> str:
        a, b = left.emit(gen), right.emit(gen)
        if op == "AND":
            # past the first test both are True or None: ``and`` answers
            return gen.assign(f"False if {a} is False or {b} is False else {a} and {b}")
        # past the first test both are False or None
        return gen.assign(f"True if {a} is True or {b} is True else ({a} if {a} is None else {b})")

    return Code(emit, three_valued=True)
