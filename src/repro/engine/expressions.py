"""Expression compilation: AST → Python closures.

Expressions are compiled once per statement against a :class:`Scope`
(name→slot resolution) and then evaluated per row against an :class:`Env`
(the flat row values, chained to outer rows for correlated subqueries).
This keeps per-row work to attribute-free closure calls, which is what
makes TPC-H-scale scans tolerable in pure Python.

Three-valued logic: predicate closures return ``True``/``False``/``None``;
the executor treats only ``True`` as satisfying WHERE/HAVING/ON.

Compilation folds bottom-up: a literal compiles to a constant, and any
other node whose compiled operands are all constants is evaluated once, at
compile time — except a function call, a ``?``, an ``@name`` and a
subquery, which are never constant.  Constness is read off the compiled
operands, not found by walking the tree again: DML compiles its WHERE and
SET on every execution.  A comparison whose two values are of a pair in
:data:`~repro.engine.values.DIRECT_PAIRS` applies Python's operator to them
directly; every other pair goes through :func:`~repro.engine.values.compare`.

A column of this query's row compiles to a read that carries its slot, as a
folded constant carries its value.  The shapes a scan filters by most —
``column <op> constant`` either way round, ``column <op> column``,
``column [NOT] BETWEEN constant AND constant`` and ``x [NOT] IN (constants)``
— look at both once, at compile time, and compile to one closure that reads
the slot and compares with the bound constant (or tests membership in a
``frozenset``).  A row value whose class does not pair directly with the
constant, a NULL and a NaN fall through to ``compare``, as the generic
closure does; a NULL or NaN constant keeps the generic closure.

Subqueries are compiled through a callback into the executor (to avoid an
import cycle the executor passes its planner in as the ``SubqueryRunner``).
Uncorrelated subqueries are detected at compile time — their result is
computed lazily once and cached for the statement.

A compiled closure holds no session: what varies per execution — the
``?`` and ``@name`` values, the session's ``rowcount()``, the statement's
memos — is read from the :class:`RunContext` its environment carries, so
one compiled plan serves every session of its database.
"""

from __future__ import annotations

import datetime
import functools
import operator
import re
from typing import Any, Callable, Iterable, Protocol

from repro.errors import DataError, ProgrammingError
from repro.engine import functions
from repro.engine.values import DIRECT_PAIRS, add_interval, coerce_value, compare, parse_date
from repro.engine.schema import type_spec_to_sql_type
from repro.sql import ast

__all__ = [
    "Scope",
    "Env",
    "CompiledExpr",
    "ExpressionCompiler",
    "RunContext",
    "SubqueryRunner",
    "FLIPPED",
    "is_constant",
    "like_to_regex",
    "slot_of",
    "statement_memo",
]

#: A compiled expression: env → value.
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

    def at(self, depth: int, slot: int) -> Any:
        env: Env | None = self
        for _ in range(depth):
            assert env is not None
            env = env.parent
        assert env is not None
        return env.values[slot]


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


def _kleene_and(left: Any, right: Any) -> Any:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _kleene_or(left: Any, right: Any) -> Any:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _truthy(value: Any) -> Any:
    """Normalize a value used as a predicate to True/False/None."""
    if value is None:
        return None
    return bool(value)


def _three_valued(fn: CompiledExpr) -> CompiledExpr:
    """Mark ``fn`` as returning only True/False/None: used as a predicate,
    it needs no :func:`_truthy` around it."""
    fn.three_valued = True
    return fn


def _constant(value: Any) -> CompiledExpr:
    """What a literal compiles to, and what folding makes of a node over
    constants."""

    def constant(env: Env) -> Any:
        return value

    constant.constant = True
    constant.three_valued = value is None or value.__class__ is bool
    return constant


def is_constant(fn: CompiledExpr) -> bool:
    """Did ``fn`` fold to a constant at compile time?  Then ``fn(None)`` is
    its value, the same at every run."""
    return getattr(fn, "constant", False)


def slot_of(fn: CompiledExpr) -> int | None:
    """The slot ``fn`` reads when it is a column of this query's row, as
    it stands (``env.values[slot]``); else None."""
    return getattr(fn, "slot", None)


#: class -> the classes whose values pair with its values in DIRECT_PAIRS
_PARTNERS: dict[type, frozenset] = {
    cls: frozenset(a for a, b in DIRECT_PAIRS if b is cls) for _a, cls in DIRECT_PAIRS
}


def _partners(constants: list[CompiledExpr]) -> frozenset:
    """The classes a row value must be of to compare directly with every
    one of ``constants`` — empty unless each folded to a value that is not
    NULL or NaN."""
    found = None
    for fn in constants:
        if not is_constant(fn):
            return frozenset()
        value = fn(None)
        if value != value:  # NaN
            return frozenset()
        partners = _PARTNERS.get(value.__class__, frozenset())
        found = partners if found is None else found & partners
    return found or frozenset()


def _folded(fn: CompiledExpr, *operands: CompiledExpr) -> CompiledExpr:
    """``fn`` evaluated once, now, when every operand is a constant.  An
    evaluation that raises keeps ``fn``: the error belongs to the runs that
    evaluate the expression (a filter over an empty table raises nothing)."""
    for operand in operands:
        if not is_constant(operand):
            return fn
    try:
        value = fn(None)
    except Exception:
        return fn
    return _constant(value)


def _predicate(fn: CompiledExpr) -> CompiledExpr:
    """``fn`` used as a filter: its result normalized to True/False/None."""
    if getattr(fn, "three_valued", False):
        return fn
    if is_constant(fn):
        return _constant(_truthy(fn(None)))
    return lambda env: _truthy(fn(env))


def _equal(a: Any, b: Any) -> bool:
    """``compare(a, b) == 0``, with ``==`` applied directly to a direct pair."""
    if (a.__class__, b.__class__) in DIRECT_PAIRS:
        if a == b:
            return True
        if a == a and b == b:  # no NaN: Python's "unequal" is SQL's
            return False
    return compare(a, b) == 0


#: comparison operator -> (the Python operator that answers it for a direct
#: pair, the answer when that operator holds, the test on compare's -1/0/1).
#: Every Python comparison with a NaN is false, so a false one is taken as
#: the answer only once neither side is NaN.
_COMPARISONS: dict[str, tuple[Callable[[Any, Any], bool], bool, Callable[[int], bool]]] = {
    "=": (operator.eq, True, lambda c: c == 0),
    "<>": (operator.eq, False, lambda c: c != 0),
    "<": (operator.lt, True, lambda c: c < 0),
    "<=": (operator.le, True, lambda c: c <= 0),
    ">": (operator.gt, True, lambda c: c > 0),
    ">=": (operator.ge, True, lambda c: c >= 0),
}

#: each comparison operator with its sides swapped (``5 < k`` is ``k > 5``)
FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: EXTRACT's parts: the ``datetime.date`` attribute each reads
_DATE_PARTS = {"YEAR": "year", "MONTH": "month", "DAY": "day"}


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

    # -- entry point ----------------------------------------------------------

    def compile(self, expr: ast.Expr) -> CompiledExpr:
        method = getattr(self, "_compile_" + type(expr).__name__, None)
        if method is None:
            raise ProgrammingError(f"cannot compile expression {type(expr).__name__}")
        return method(expr)

    def compile_predicate(self, expr: ast.Expr) -> CompiledExpr:
        """Compile an expression used as a filter (result normalized to 3VL)."""
        return _predicate(self.compile(expr))

    def compile_conjunct(self, expr: ast.Expr) -> tuple[CompiledExpr, bool]:
        """Compile a filter, and say whether a subquery in it is correlated.
        The answer comes from the one planning of each subquery that
        compiling does anyway: planning a subquery again to ask would parse
        each view it reads again."""
        before = self.correlated_subqueries
        fn = self.compile_predicate(expr)
        return fn, self.correlated_subqueries != before

    # -- leaves ------------------------------------------------------------------

    def _compile_Literal(self, expr: ast.Literal) -> CompiledExpr:
        return _constant(parse_date(str(expr.value)) if expr.is_date else expr.value)

    def _compile_ColumnRef(self, expr: ast.ColumnRef) -> CompiledExpr:
        depth, slot = self.scope.resolve(expr.name, expr.table)
        if depth == 0:
            def column(env: Env) -> Any:
                return env.values[slot]

            column.slot = slot
            return column
        return lambda env: env.at(depth, slot)

    def _compile_Param(self, expr: ast.Param) -> CompiledExpr:
        # Read at *run* time, like a placeholder: one plan serves every
        # EXEC of the procedure.  The names are the procedure's declaration,
        # so an undeclared one is still a compile-time error.
        name = expr.name.lower()
        if name not in self.params:
            raise ProgrammingError(f"unbound parameter @{expr.name}")
        return lambda env: env.run.params[name]

    def _compile_Placeholder(self, expr: ast.Placeholder) -> CompiledExpr:
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

        return _read

    def _compile_Star(self, expr: ast.Star) -> CompiledExpr:
        raise ProgrammingError("'*' is only valid in a select list or COUNT(*)")

    # -- operators -------------------------------------------------------------------

    def _compile_Unary(self, expr: ast.Unary) -> CompiledExpr:
        operand = self.compile(expr.operand)
        if expr.op.upper() == "NOT":
            condition = _predicate(operand)

            @_three_valued
            def _not(env: Env) -> Any:
                value = condition(env)
                return None if value is None else not value

            return _folded(_not, operand)
        if expr.op == "-":
            def _neg(env: Env) -> Any:
                value = operand(env)
                if value is None:
                    return None
                if value.__class__ not in _NUMBERS:
                    raise _not_numbers("-", value)
                return -value
            return _folded(_neg, operand)
        raise ProgrammingError(f"unknown unary operator {expr.op}")

    def _compile_Binary(self, expr: ast.Binary) -> CompiledExpr:
        op = expr.op.upper()
        if op in ("+", "-") and isinstance(expr.right, ast.IntervalLiteral):
            # date ± INTERVAL takes its amount from the AST before the
            # operand compiles (a bare IntervalLiteral has no value of its own)
            base = self.compile(expr.left)
            amount, unit = expr.right.amount, expr.right.unit
            sign = 1 if op == "+" else -1

            def _date_shift(env: Env) -> Any:
                value = base(env)
                return None if value is None else add_interval(value, amount, unit, sign)

            return _folded(_date_shift, base)
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        return _folded(self._binary(expr, op, left, right), left, right)

    def _binary(
        self, expr: ast.Binary, op: str, left: CompiledExpr, right: CompiledExpr
    ) -> CompiledExpr:
        if op in ("AND", "OR"):
            kleene = _kleene_and if op == "AND" else _kleene_or
            first, second = _predicate(left), _predicate(right)
            return _three_valued(lambda env: kleene(first(env), second(env)))
        if op in _COMPARISONS:
            return self._compile_comparison(op, left, right)
        if op in ("+", "-"):
            return self._compile_additive(expr, op, left, right)
        if op == "*":
            return _arithmetic(op, left, right, operator.mul)
        if op == "/":
            def _div(a: Any, b: Any) -> Any:
                if b == 0:
                    raise DataError("division by zero")
                return a / b
            return _arithmetic(op, left, right, _div)
        if op == "%":
            def _mod(a: Any, b: Any) -> Any:
                if b == 0:
                    raise DataError("division by zero")
                # SQL remainder takes the sign of the dividend (-7 % 3 = -1);
                # Python's takes the divisor's
                remainder = abs(a) % abs(b)
                return -remainder if a < 0 else remainder
            return _arithmetic(op, left, right, _mod)
        if op == "||":
            return _null_safe_binop(left, right, lambda a, b: f"{a}{b}")
        raise ProgrammingError(f"unknown operator {expr.op}")

    @staticmethod
    def _compile_comparison(op: str, left: CompiledExpr, right: CompiledExpr) -> CompiledExpr:
        direct, when_true, test = _COMPARISONS[op]
        when_false = not when_true
        left_slot, right_slot = slot_of(left), slot_of(right)
        if left_slot is not None and right_slot is not None:

            @_three_valued
            def _cmp_columns(env: Env) -> Any:
                values = env.values
                a = values[left_slot]
                b = values[right_slot]
                if (a.__class__, b.__class__) in DIRECT_PAIRS:
                    if direct(a, b):
                        return when_true
                    if a == a and b == b:  # no NaN: Python's false is SQL's
                        return when_false
                c = compare(a, b)
                return None if c is None else test(c)

            return _cmp_columns
        if left_slot is not None and _partners([right]):
            return _compare_constant(op, left_slot, right(None), constant_first=False)
        if right_slot is not None and _partners([left]):
            return _compare_constant(op, right_slot, left(None), constant_first=True)

        @_three_valued
        def _cmp(env: Env) -> Any:
            a = left(env)
            b = right(env)
            if (a.__class__, b.__class__) in DIRECT_PAIRS:
                if direct(a, b):
                    return when_true
                if a == a and b == b:  # no NaN: Python's false is SQL's
                    return when_false
            c = compare(a, b)
            return None if c is None else test(c)

        return _cmp

    def _compile_additive(
        self, expr: ast.Binary, op: str, left: CompiledExpr, right: CompiledExpr
    ) -> CompiledExpr:
        sign = 1 if op == "+" else -1
        apply = operator.add if op == "+" else operator.sub

        def _add(env: Env) -> Any:
            a = left(env)
            b = right(env)
            if a is None or b is None:
                return None
            if a.__class__ in _NUMBERS and b.__class__ in _NUMBERS:
                return apply(a, b)
            if isinstance(a, datetime.date) and isinstance(b, int):
                return a + datetime.timedelta(days=sign * b)
            if op == "-" and isinstance(a, datetime.date) and isinstance(b, datetime.date):
                return (a - b).days
            raise _not_numbers(op, a, b)

        return _add

    def _compile_IntervalLiteral(self, expr: ast.IntervalLiteral) -> CompiledExpr:
        raise ProgrammingError("INTERVAL is only valid in date +/- INTERVAL arithmetic")

    # -- predicates -----------------------------------------------------------------

    def _compile_IsNull(self, expr: ast.IsNull) -> CompiledExpr:
        operand = self.compile(expr.operand)
        if expr.negated:
            return _folded(_three_valued(lambda env: operand(env) is not None), operand)
        return _folded(_three_valued(lambda env: operand(env) is None), operand)

    def _compile_Between(self, expr: ast.Between) -> CompiledExpr:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated
        slot = slot_of(operand)
        partners = _partners([low, high])
        if slot is not None and partners:
            low_value, high_value = low(None), high(None)

            @_three_valued
            def _between_constants(env: Env) -> Any:
                value = env.values[slot]
                if value.__class__ in partners:
                    if low_value <= value <= high_value:
                        return not negated
                    if value == value:
                        return negated  # no NaN: Python's false is SQL's
                return _between_by_compare(value, low_value, high_value, negated)

            return _between_constants

        @_three_valued
        def _between(env: Env) -> Any:
            value = operand(env)
            low_value = low(env)
            high_value = high(env)
            cls = value.__class__
            if (cls, low_value.__class__) in DIRECT_PAIRS and (
                cls, high_value.__class__
            ) in DIRECT_PAIRS:
                if low_value <= value <= high_value:
                    return not negated
                if value == value and low_value == low_value and high_value == high_value:
                    return negated  # no NaN: Python's false is SQL's
            return _between_by_compare(value, low_value, high_value, negated)

        return _folded(_between, operand, low, high)

    def _compile_InList(self, expr: ast.InList) -> CompiledExpr:
        operand = self.compile(expr.operand)
        items = [self.compile(item) for item in expr.items]
        negated = expr.negated
        partners = _partners(items)
        if partners and not is_constant(operand):
            constants = [item(None) for item in items]
            members = frozenset(constants)
            slot = slot_of(operand)

            @_three_valued
            def _in_set(env: Env) -> Any:
                value = operand(env) if slot is None else env.values[slot]
                if value.__class__ in partners:
                    if value in members:
                        return not negated
                    if value == value:
                        return negated  # no NaN: not in the set is unequal
                return _in_values(value, constants, negated)

            return _in_set

        @_three_valued
        def _in_fixed(env: Env) -> Any:
            return _in_values(operand(env), (item(env) for item in items), negated)

        return _folded(_in_fixed, operand, *items)

    def _compile_Like(self, expr: ast.Like) -> CompiledExpr:
        operand = self.compile(expr.operand)
        negated = expr.negated
        escape_char: str | None = None
        if expr.escape is not None:
            if not isinstance(expr.escape, ast.Literal):
                raise ProgrammingError("ESCAPE must be a string literal")
            escape_char = str(expr.escape.value)
        if isinstance(expr.pattern, ast.Literal):
            regex = like_to_regex(str(expr.pattern.value), escape_char)

            @_three_valued
            def _like_const(env: Env) -> Any:
                value = operand(env)
                if value is None:
                    return None
                matched = regex.match(str(value)) is not None
                return not matched if negated else matched

            return _folded(_like_const, operand)
        pattern = self.compile(expr.pattern)

        @_three_valued
        def _like(env: Env) -> Any:
            value = operand(env)
            pat = pattern(env)
            if value is None or pat is None:
                return None
            matched = like_to_regex(str(pat), escape_char).match(str(value)) is not None
            return not matched if negated else matched

        return _folded(_like, operand, pattern)

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

    def _compile_InSelect(self, expr: ast.InSelect) -> CompiledExpr:
        operand = self.compile(expr.operand)
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

        @_three_valued
        def _in_select_fixed(env: Env) -> Any:
            value = operand(env)
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

        return _in_select_fixed

    def _compile_Exists(self, expr: ast.Exists) -> CompiledExpr:
        rows_fn, correlated = self._subquery_rows(expr.select)
        negated = expr.negated
        cached_found = statement_memo(lambda env: bool(rows_fn(env)))

        @_three_valued
        def _exists(env: Env) -> Any:
            if correlated:
                found = bool(rows_fn(env))
            else:
                found = cached_found(env)
            return not found if negated else found

        return _exists

    def _compile_ScalarSelect(self, expr: ast.ScalarSelect) -> CompiledExpr:
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

        cached_scalar = statement_memo(scalar)

        def _scalar_select(env: Env) -> Any:
            if correlated:
                return scalar(env)
            return cached_scalar(env)

        return _scalar_select

    # -- functions & friends ---------------------------------------------------------------

    def _compile_FuncCall(self, expr: ast.FuncCall) -> CompiledExpr:
        name = expr.name.lower()
        if name == "rowcount" and not expr.args:
            # @@ROWCOUNT analog: affected rows of the session's last DML.
            return lambda env: env.run.executor.session.last_rowcount
        if name in functions.AGGREGATE_NAMES:
            slot = self.agg_slots.get(id(expr))
            if slot is None:
                raise ProgrammingError(
                    f"aggregate {name}() is not allowed here (no GROUP BY context)"
                )
            return lambda env: env.values[slot]
        fn = functions.SCALAR_FUNCTIONS.get(name)
        if fn is None:
            raise ProgrammingError(f"unknown function {expr.name}")
        args = [self.compile(a) for a in expr.args]
        return lambda env: fn(*[a(env) for a in args])

    def _compile_CaseExpr(self, expr: ast.CaseExpr) -> CompiledExpr:
        whens = [(self.compile(c), self.compile(r)) for c, r in expr.whens]
        else_ = self.compile(expr.else_) if expr.else_ is not None else None
        parts = [fn for pair in whens for fn in pair] + ([else_] if else_ is not None else [])
        if expr.operand is None:
            conditions = [(_predicate(cond), result) for cond, result in whens]

            def _case(env: Env) -> Any:
                for cond, result in conditions:
                    if cond(env) is True:
                        return result(env)
                return else_(env) if else_ is not None else None
            return _folded(_case, *parts)
        operand = self.compile(expr.operand)

        def _case_operand(env: Env) -> Any:
            value = operand(env)
            for cond, result in whens:
                other = cond(env)
                if value is not None and other is not None and _equal(value, other):
                    return result(env)
            return else_(env) if else_ is not None else None

        return _folded(_case_operand, operand, *parts)

    def _compile_Cast(self, expr: ast.Cast) -> CompiledExpr:
        operand = self.compile(expr.operand)
        sql_type = type_spec_to_sql_type(expr.type)
        length = expr.type.length
        return _folded(lambda env: coerce_value(operand(env), sql_type, length=length), operand)

    def _compile_ExtractExpr(self, expr: ast.ExtractExpr) -> CompiledExpr:
        operand = self.compile(expr.operand)
        field = _DATE_PARTS.get(expr.part.upper())
        if field is None:
            raise ProgrammingError(f"cannot EXTRACT {expr.part}")

        def _extract(env: Env) -> Any:
            value = operand(env)
            if value is None:
                return None
            if isinstance(value, str):
                value = parse_date(value)
            if not isinstance(value, datetime.date):
                raise DataError(f"EXTRACT requires a date, got {value!r}")
            return getattr(value, field)

        return _folded(_extract, operand)

    def _compile_SubstringExpr(self, expr: ast.SubstringExpr) -> CompiledExpr:
        operand = self.compile(expr.operand)
        start = self.compile(expr.start)
        length = self.compile(expr.length) if expr.length is not None else None
        substr = functions.SCALAR_FUNCTIONS["substring"]
        if length is None:
            return _folded(lambda env: substr(operand(env), start(env)), operand, start)
        return _folded(
            lambda env: substr(operand(env), start(env), length(env)), operand, start, length
        )


#: the classes arithmetic is defined on — Python would also "add" two
#: strings, repeat one ``* 2`` and format one ``% 2``
_NUMBERS = frozenset({int, float, bool})


def _not_numbers(op: str, *operands: Any) -> DataError:
    odd = next(value for value in operands if value.__class__ not in _NUMBERS)
    return DataError(f"operator {op} needs numbers, got {odd!r}")


def _arithmetic(
    op: str, left: CompiledExpr, right: CompiledExpr, fn: Callable[[Any, Any], Any]
) -> CompiledExpr:
    """``fn`` over two numbers; NULL if either side is NULL."""

    def _op(env: Env) -> Any:
        a = left(env)
        b = right(env)
        if a is None or b is None:
            return None
        if a.__class__ not in _NUMBERS or b.__class__ not in _NUMBERS:
            raise _not_numbers(op, a, b)
        return fn(a, b)

    return _op


def _null_safe_binop(
    left: CompiledExpr, right: CompiledExpr, fn: Callable[[Any, Any], Any]
) -> CompiledExpr:
    def _op(env: Env) -> Any:
        a = left(env)
        b = right(env)
        if a is None or b is None:
            return None
        return fn(a, b)

    return _op


def _compare_constant(op: str, slot: int, constant: Any, *, constant_first: bool) -> CompiledExpr:
    """``column <op> constant`` (or ``constant <op> column``) over the row
    value at ``slot``: Python's operator, sides flipped to put the column
    first, when the value's class pairs directly with the constant's; else
    ``compare`` over the sides as written (its errors name them in order)."""
    direct, when_true, _test = _COMPARISONS[FLIPPED[op] if constant_first else op]
    when_false = not when_true
    test = _COMPARISONS[op][2]
    partners = _PARTNERS[constant.__class__]

    @_three_valued
    def _cmp_constant(env: Env) -> Any:
        a = env.values[slot]
        if a.__class__ in partners:
            if direct(a, constant):
                return when_true
            if a == a:  # no NaN: Python's false is SQL's
                return when_false
        c = compare(constant, a) if constant_first else compare(a, constant)
        return None if c is None else test(c)

    return _cmp_constant


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
    """``value [NOT] IN (others)``: the first equal item answers, and only
    then is no further item evaluated."""
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
