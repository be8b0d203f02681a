"""Unit tests for scalar functions, aggregates, and expression evaluation
details not covered by the SELECT-level tests."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DataError, ProgrammingError
from repro.engine.executor import _filter_rows, _project_rows
from repro.engine.expressions import Env, ExpressionCompiler, RunContext, Scope, source_of
from repro.engine.functions import SCALAR_FUNCTIONS, make_accumulator
from repro.engine.values import add_interval, compare
from repro.sql import ast, parse
from tests.conftest import execute
from tests.test_values import evaluate


# ---------------------------------------------------------------- scalar fns

@pytest.mark.parametrize("name,args,expected", [
    ("upper", ("abc",), "ABC"),
    ("lower", ("ABC",), "abc"),
    ("length", ("abcd",), 4),
    ("abs", (-3,), 3),
    ("round", (3.456, 2), 3.46),
    ("floor", (3.9,), 3),
    ("ceil", (3.1,), 4),
    ("trim", ("  x  ",), "x"),
    ("ltrim", ("  x",), "x"),
    ("rtrim", ("x  ",), "x"),
    ("substr", ("hello", 2, 3), "ell"),
    ("substr", ("hello", 2), "ello"),
    ("concat", ("a", 1, "b"), "a1b"),
    ("replace", ("banana", "na", "NA"), "baNANA"),
    ("mod", (7, 3), 1),
])
def test_scalar_function_values(name, args, expected):
    assert SCALAR_FUNCTIONS[name](*args) == expected


@pytest.mark.parametrize("name", ["upper", "length", "abs", "substr", "concat"])
def test_scalar_functions_null_propagate(name):
    fn = SCALAR_FUNCTIONS[name]
    arity = {"substr": 2, "concat": 2}.get(name, 1)
    assert fn(*([None] * arity)) is None


def test_coalesce_returns_first_non_null():
    assert SCALAR_FUNCTIONS["coalesce"](None, None, 3, 4) == 3
    assert SCALAR_FUNCTIONS["coalesce"](None, None) is None


def test_nullif():
    assert SCALAR_FUNCTIONS["nullif"](1, 1) is None
    assert SCALAR_FUNCTIONS["nullif"](1, 2) == 1


def test_substring_negative_length_rejected():
    with pytest.raises(DataError):
        SCALAR_FUNCTIONS["substring"]("abc", 1, -1)


def test_date_function_parses():
    import datetime

    assert SCALAR_FUNCTIONS["date"]("1998-01-02") == datetime.date(1998, 1, 2)


# ---------------------------------------------------------------- accumulators

def feed(acc, values):
    """What ``acc`` folds one group's argument values into."""
    return acc.fold(list(values))


def test_count_skips_nulls():
    assert feed(make_accumulator("count"), [1, None, 2]) == 2


def test_count_star_counts_nulls():
    assert feed(make_accumulator("count", star=True), [1, None, 2]) == 3


def test_sum_empty_is_null():
    assert feed(make_accumulator("sum"), []) is None
    assert feed(make_accumulator("sum"), [None]) is None


def test_avg_skips_nulls():
    assert feed(make_accumulator("avg"), [2, None, 4]) == 3


def test_min_max_with_strings():
    assert feed(make_accumulator("min"), ["b", "a", "c"]) == "a"
    assert feed(make_accumulator("max"), ["b", "a", "c"]) == "c"


def test_distinct_wrapper():
    assert feed(make_accumulator("sum", distinct=True), [1, 1, 2, 2, 3]) == 6
    assert feed(make_accumulator("count", distinct=True), [1, 1, None, 2]) == 2


@pytest.mark.parametrize("name,values,odd", [
    ("sum", ["x", "y"], "x"),  # concatenated
    ("sum", ["x"], "x"),  # one string is its own total
    ("sum", [datetime.date(1998, 1, 1)], datetime.date(1998, 1, 1)),
    ("sum", [datetime.date(1998, 1, 1), datetime.date(1998, 1, 2)], datetime.date(1998, 1, 1)),
    ("sum", [None, 1, "x"], "x"),
    ("avg", ["x", "y"], "x"),
    ("avg", [datetime.date(1998, 1, 1)], datetime.date(1998, 1, 1)),
])
def test_sum_and_avg_over_non_numbers_raise_what_plus_raises(name, values, odd):
    with pytest.raises(DataError) as raised:
        feed(make_accumulator(name), values)
    assert str(raised.value) == f"operator + needs numbers, got {odd!r}"
    # the error ``odd + odd`` raises, word for word
    assert answer(evaluate, "? + ?", odd, odd) == f"DataError: {raised.value}"


@pytest.mark.parametrize("values,total", [([True], 1), ([True, True], 2), ([False], 0)])
def test_a_sum_of_booleans_is_an_int(values, total):
    result = feed(make_accumulator("sum"), values)
    assert result == total and type(result) is int


@pytest.mark.parametrize("kind", ["plain", "phoenix"])
def test_sum_over_non_numbers_is_a_data_error_through_both_drivers(system, kind):
    """``sum(d)`` and ``avg(s)`` leaked a raw TypeError through both PEP 249
    drivers; a one-row ``sum(b)`` answered True where two rows answer 2."""
    import repro

    connection = (system.phoenix if kind == "phoenix" else system.plain).connect(system.DSN)
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE agg (k INT PRIMARY KEY, s VARCHAR(5), d DATE, b BOOLEAN)")
    cursor.execute("INSERT INTO agg VALUES (1, 'x', '1998-01-01', TRUE)")
    for sql in ("SELECT sum(s) FROM agg", "SELECT sum(d) FROM agg", "SELECT avg(s) FROM agg",
                "SELECT avg(d) FROM agg"):
        with pytest.raises(repro.errors.DataError):
            cursor.execute(sql)
    cursor.execute("SELECT sum(b) FROM agg")
    assert cursor.fetchall() == [(1,)]
    cursor.execute("INSERT INTO agg VALUES (2, 'y', '1998-01-02', TRUE)")
    cursor.execute("SELECT sum(b) FROM agg")
    assert cursor.fetchall() == [(2,)]
    connection.close()


def test_star_only_valid_for_count():
    with pytest.raises(ProgrammingError):
        make_accumulator("sum", star=True)


def test_unknown_aggregate_rejected():
    with pytest.raises(ProgrammingError):
        make_accumulator("median")


# ---------------------------------------------------------------- via SQL

@pytest.fixture()
def db(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10), n FLOAT)")
    execute(server, sid, "INSERT INTO t VALUES (1, 'Ab', -2.5), (2, NULL, 7.0)")
    return server, sid


def test_functions_compose_in_sql(db):
    server, sid = db
    rows = execute(server, sid, "SELECT upper(coalesce(v, 'none')), abs(n) FROM t ORDER BY k")
    assert rows == [("AB", 2.5), ("NONE", 7.0)]


def test_cast_in_sql(db):
    server, sid = db
    rows = execute(server, sid, "SELECT CAST(n AS INT), CAST(k AS VARCHAR(5)) FROM t ORDER BY k")
    assert rows == [(-2, "1"), (7, "2")]


def test_case_with_operand_in_sql(db):
    server, sid = db
    rows = execute(
        server, sid,
        "SELECT CASE k WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END FROM t ORDER BY k",
    )
    assert rows == [("one",), ("two",)]


def test_case_without_else_yields_null(db):
    server, sid = db
    rows = execute(server, sid, "SELECT CASE WHEN k > 5 THEN 'big' END FROM t")
    assert rows == [(None,), (None,)]


def test_unknown_function_rejected(db):
    server, sid = db
    with pytest.raises(ProgrammingError):
        execute(server, sid, "SELECT frobnicate(k) FROM t")


def test_string_comparison_case_sensitive(db):
    server, sid = db
    assert execute(server, sid, "SELECT count(*) FROM t WHERE v = 'ab'") == [(0,)]
    assert execute(server, sid, "SELECT count(*) FROM t WHERE upper(v) = 'AB'") == [(1,)]


def test_arithmetic_null_propagation(db):
    server, sid = db
    rows = execute(server, sid, "SELECT n + 1, v || 'x' FROM t WHERE k = 2")
    assert rows == [(8.0, None)]


def test_nested_function_calls(db):
    server, sid = db
    rows = execute(server, sid, "SELECT length(concat(v, v)) FROM t WHERE k = 1")
    assert rows == [(4,)]


def test_modulo_operator(db):
    server, sid = db
    assert execute(server, sid, "SELECT 7 % 3") == [(1,)]


def test_date_minus_date_gives_days(session):
    server, sid = session
    rows = execute(server, sid, "SELECT DATE '1998-03-01' - DATE '1998-02-27'")
    assert rows == [(2,)]


def test_date_plus_days_integer(session):
    import datetime

    server, sid = session
    rows = execute(server, sid, "SELECT DATE '1998-02-27' + 2")
    assert rows == [(datetime.date(1998, 3, 1),)]


# ---------------------------------------------------------------- typed comparisons
#
# A comparison over two ints, floats, strings or dates applies Python's
# operator directly; every other pair goes through ``compare``.  Each
# compiled closure must answer what ``compare`` answers — or raise the same
# DataError — for every mix of classes a value can arrive as.

NAN = float("nan")

#: every class a comparison can meet, with the values at its edges
POOL = [
    None,
    0, 1, -3, 2,
    0.0, -0.0, 1.0, 2.5, float("inf"), float("-inf"), NAN,
    True, False,
    "", "a", "b", "abc", "1", "2.5", "nan", "-inf",
    datetime.date(1995, 1, 1), datetime.date(1998, 12, 1),
    "1995-01-01", "1998-12-01",
]
values = st.sampled_from(POOL)

#: operator -> its test on compare's -1/0/1
TESTS = {
    "=": lambda c: c == 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


def answer(fn, *args):
    """What ``fn(*args)`` answers, or the DataError it raises, comparably."""
    try:
        return repr(fn(*args))
    except DataError as exc:
        return f"DataError: {exc}"


def reference_comparison(op, a, b):
    c = compare(a, b)
    return None if c is None else TESTS[op](c)


def kleene_and(left, right):
    if left is False or right is False:
        return False
    return None if left is None or right is None else True


@settings(max_examples=400, deadline=None, derandomize=True)
@given(op=st.sampled_from(sorted(TESTS)), a=values, b=values)
def test_a_compiled_comparison_answers_as_compare_does(op, a, b):
    assert answer(evaluate, f"? {op} ?", a, b) == answer(reference_comparison, op, a, b)


def reference_between(value, low, high, negated):
    result = kleene_and(
        reference_comparison(">=", value, low), reference_comparison("<=", value, high)
    )
    return result if result is None or not negated else not result


def reference_in(value, items, negated):
    if value is None:
        return None
    saw_null = False
    for item in items:
        c = compare(value, item)
        if c is None:
            saw_null = True
        elif c == 0:
            return not negated
    return None if saw_null else negated


@settings(max_examples=300, deadline=None, derandomize=True)
@given(negated=st.booleans(), value=values, low=values, high=values)
def test_a_compiled_between_answers_as_compare_does(negated, value, low, high):
    word = "NOT BETWEEN" if negated else "BETWEEN"
    assert answer(evaluate, f"? {word} ? AND ?", value, low, high) == answer(
        reference_between, value, low, high, negated
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(negated=st.booleans(), value=values, items=st.lists(values, min_size=1, max_size=3))
def test_a_compiled_in_list_answers_as_compare_does(negated, value, items):
    word = "NOT IN" if negated else "IN"
    text = f"? {word} ({', '.join('?' for _ in items)})"
    assert answer(evaluate, text, value, *items) == answer(reference_in, value, items, negated)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=values, first=values, second=values)
def test_a_compiled_case_operand_answers_as_compare_does(value, first, second):
    def reference():
        for when, result in ((first, 1), (second, 2)):
            if compare(value, when) == 0:
                return result
        return 3

    text = "CASE ? WHEN ? THEN 1 WHEN ? THEN 2 ELSE 3 END"
    assert answer(evaluate, text, value, first, second) == answer(reference)


# ---------------------------------------------------------------- compiled shapes
#
# A ``?`` never folds, so the tests above never meet a column beside a
# constant.  These drive the shapes that compile to one slot-reading closure
# — ``col op lit`` either way round, ``col op col``, ``col [NOT] BETWEEN lit
# AND lit``, ``col [NOT] IN (lit, …)`` — with row values and constants from
# the same POOL.  The constants are ``ast.Literal`` nodes, so a NaN or ±inf
# constant (no SQL spelling) is covered too; the reference is ``compare``.


def over_row(expr: ast.Expr, a, b=None):
    """What ``expr`` answers for the row ``(a, b)`` of columns ``a``, ``b``."""
    return over_row_compiled(expr)(Env([a, b]))


def over_row_compiled(expr: ast.Expr):
    scope = Scope()
    scope.add_source("r", ["a", "b"])
    return ExpressionCompiler(scope, None).compile(expr)


COLUMN_A, COLUMN_B = ast.ColumnRef("a"), ast.ColumnRef("b")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(op=st.sampled_from(sorted(TESTS)), a=values, constant=values, column_first=st.booleans())
def test_a_column_against_a_constant_answers_as_compare_does(op, a, constant, column_first):
    if column_first:
        expr, sides = ast.Binary(op, COLUMN_A, ast.Literal(constant)), (a, constant)
    else:
        expr, sides = ast.Binary(op, ast.Literal(constant), COLUMN_A), (constant, a)
    assert answer(over_row, expr, a) == answer(reference_comparison, op, *sides)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(op=st.sampled_from(sorted(TESTS)), a=values, b=values)
def test_a_column_against_a_column_answers_as_compare_does(op, a, b):
    expr = ast.Binary(op, COLUMN_A, COLUMN_B)
    assert answer(over_row, expr, a, b) == answer(reference_comparison, op, a, b)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(negated=st.booleans(), value=values, low=values, high=values)
def test_a_column_between_constants_answers_as_compare_does(negated, value, low, high):
    expr = ast.Between(COLUMN_A, ast.Literal(low), ast.Literal(high), negated)
    assert answer(over_row, expr, value) == answer(reference_between, value, low, high, negated)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(negated=st.booleans(), value=values, items=st.lists(values, min_size=1, max_size=3))
def test_a_column_in_constants_answers_as_compare_does(negated, value, items):
    expr = ast.InList(COLUMN_A, [ast.Literal(item) for item in items], negated)
    assert answer(over_row, expr, value) == answer(reference_in, value, items, negated)


#: each shape, named after the closure it compiled to before expressions
#: became generated source -> what its source form must contain and what it
#: must not.  Every form keeps the ``compare`` fallback.
SHAPES = {
    # a column against a constant: the column's class against the classes
    # that pair directly with the constant
    "_cmp_constant": (".__class__ not in p", "_DIRECT_PAIRS"),
    "_between_constants": (".__class__ not in p", "_DIRECT_PAIRS"),
    # a constant IN list: membership in a frozenset of the constants
    "_in_set": (".__class__ not in p", "_equal("),
    # the generic forms: both classes looked up as a direct pair
    "_cmp_columns": ("_DIRECT_PAIRS", ".__class__ not in p"),
    "_cmp": ("_DIRECT_PAIRS", ".__class__ not in p"),
    "_between": ("_DIRECT_PAIRS", ".__class__ not in p"),
    # the items one by one, each through ``compare`` unless directly equal
    "_in_fixed": ("_equal(", ".__class__ not in p"),
}


def bound_callables(fn) -> list[str]:
    """The names of callables bound into ``fn``'s namespace by the
    compiler (function calls, LIKE, subqueries, ``?`` …): ``f0``, ``f1``…"""
    return [name for name in fn.__globals__ if name[0] == "f" and name[1:].isdigit()]


@pytest.mark.parametrize("text,closure", [
    ("a < 5", "_cmp_constant"),
    ("DATE '1998-12-01' - INTERVAL '90' DAY >= a", "_cmp_constant"),
    ("a = b", "_cmp_columns"),
    ("a NOT BETWEEN 0.05 AND 0.07", "_between_constants"),
    ("a IN (1, 2.5, 3)", "_in_set"),
    ("a IN ('MAIL', 'SHIP')", "_in_set"),
    # what takes the generic form: a NULL constant, a class that never
    # pairs directly, classes no one row value pairs with, no column
    ("a < NULL", "_cmp"),
    ("a = TRUE", "_cmp"),
    ("a BETWEEN 1 AND 'z'", "_between"),
    ("a IN (1, 'x')", "_in_fixed"),
    ("a + 0 < 5", "_cmp"),
])
def test_each_shape_compiles_to_its_closure(text, closure):
    """Each shape compiles to its source form, with no bound callable: the
    row's values are read and compared in the generated function itself.
    (``closure`` names the shape by the closure it once compiled to.)"""
    fn = over_row_compiled(parse(f"SELECT {text}").items[0].expr)
    has, lacks = SHAPES[closure]
    assert has in source_of(fn) and lacks not in source_of(fn), source_of(fn)
    assert "_compare(" in source_of(fn) or "_in_values(" in source_of(fn) or closure == "_in_fixed"
    assert bound_callables(fn) == []
    if closure in ("_in_set",):
        assert any(isinstance(value, frozenset) for value in fn.__globals__.values())


@pytest.mark.parametrize("value", [NAN, float("inf")])
def test_a_nan_constant_keeps_the_generic_closure(value):
    """A NaN constant pairs directly with no class: its comparison takes the
    generic form, where a NaN goes through ``compare``; ±inf is a number."""
    fn = over_row_compiled(ast.Binary("<", COLUMN_A, ast.Literal(value)))
    has, lacks = SHAPES["_cmp" if value != value else "_cmp_constant"]
    assert has in source_of(fn) and lacks not in source_of(fn), source_of(fn)


def test_a_constant_is_a_name_not_a_literal():
    """The source depends only on the shape: two constants, one source, one
    code object."""
    first = over_row_compiled(parse("SELECT a < 12345 AND b = 'xyz'").items[0].expr)
    second = over_row_compiled(parse("SELECT a < 67890 AND b = 'uvw'").items[0].expr)
    assert source_of(first) == source_of(second)
    assert first.__code__ is second.__code__
    assert "12345" not in source_of(first) and "xyz" not in source_of(first)


# ---------------------------------------------------------------- arithmetic
#
# Every arithmetic form against a reference evaluator written here, over the
# same POOL: NULL, NaN, ±inf, booleans, strings and dates.  Each form runs
# through both wrappers of the one emitter — the per-row function, and a
# generated loop over a list of rows whose classes mix, so a row that takes
# the fallback (or raises) in the middle of a loop is covered — with its
# operands as ``?`` values, as two columns, and as a column beside a constant
# (a constant number needs no NULL or class check, so its source differs).

ARITHMETIC = ["+", "-", "*", "/", "%"]
NUMBER_CLASSES = (int, float, bool)


def reference_arithmetic(op, a, b):
    if a is None or b is None:
        return None
    if type(a) in NUMBER_CLASSES and type(b) in NUMBER_CLASSES:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if b == 0:
            raise DataError("division by zero")
        if op == "/":
            return a / b
        remainder = abs(a) % abs(b)  # SQL's sign: the dividend's
        return -remainder if a < 0 else remainder
    if op in ("+", "-") and isinstance(a, datetime.date) and isinstance(b, int):
        return a + datetime.timedelta(days=b if op == "+" else -b)
    if op == "-" and isinstance(a, datetime.date) and isinstance(b, datetime.date):
        return (a - b).days
    odd = a if type(a) not in NUMBER_CLASSES else b
    raise DataError(f"operator {op} needs numbers, got {odd!r}")


def reference_negation(a):
    if a is None:
        return None
    if type(a) not in NUMBER_CLASSES:
        raise DataError(f"operator - needs numbers, got {a!r}")
    return -a


def reference_interval(sign, amount, unit):
    def shift(a, _b=None):
        return None if a is None else add_interval(a, amount, unit, sign)

    return shift


def truthy(value):
    return None if value is None else bool(value)


rows_of_two = st.lists(st.tuples(values, values), min_size=1, max_size=6)


def over_rows(expr: ast.Expr, rows: list[tuple]):
    """What ``expr`` answers over ``rows`` of columns ``a``, ``b`` through
    the generated loops: (the projection's values, the rows the filter
    keeps), each the DataError of the first row that raises instead."""
    scope = Scope()
    scope.add_source("r", ["a", "b"])
    compiler = ExpressionCompiler(scope, None)
    env = Env([], run=RunContext(None, [], {}))
    project = _project_rows([compiler.code(expr)])
    keep = _filter_rows([compiler.compile_conjunct(expr)[0]], 0)
    return (
        answer(lambda: [value for (value,) in project(rows, env)]),
        answer(lambda: keep(rows, env)),
    )


def reference_over_rows(reference, rows: list[tuple]):
    return (
        answer(lambda: [reference(*row) for row in rows]),
        answer(lambda: [row for row in rows if truthy(reference(*row)) is True]),
    )


def per_row(expr: ast.Expr, rows: list[tuple]) -> list:
    fn = over_row_compiled(expr)
    return [answer(fn, Env(list(row))) for row in rows]


def assert_both_wrappers(expr: ast.Expr, rows: list[tuple], reference) -> None:
    assert per_row(expr, rows) == [answer(reference, *row) for row in rows], expr.sql()
    assert over_rows(expr, rows) == reference_over_rows(reference, rows), expr.sql()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(op=st.sampled_from(ARITHMETIC), a=values, b=values)
def test_a_compiled_arithmetic_operator_answers_as_the_reference_does(op, a, b):
    assert answer(evaluate, f"? {op} ?", a, b) == answer(reference_arithmetic, op, a, b)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    op=st.sampled_from(ARITHMETIC),
    rows=rows_of_two,
    constant=values,
    form=st.sampled_from(["columns", "column first", "constant first"]),
)
def test_arithmetic_over_rows_answers_as_the_reference_does(op, rows, constant, form):
    if form == "columns":
        expr = ast.Binary(op, COLUMN_A, COLUMN_B)

        def reference(a, b):
            return reference_arithmetic(op, a, b)
    elif form == "column first":
        expr = ast.Binary(op, COLUMN_A, ast.Literal(constant))

        def reference(a, b):
            return reference_arithmetic(op, a, constant)
    else:
        expr = ast.Binary(op, ast.Literal(constant), COLUMN_A)

        def reference(a, b):
            return reference_arithmetic(op, constant, a)
    assert_both_wrappers(expr, rows, reference)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=rows_of_two)
def test_negation_over_rows_answers_as_the_reference_does(rows):
    assert answer(evaluate, "-?", rows[0][0]) == answer(reference_negation, rows[0][0])
    assert_both_wrappers(ast.Unary("-", COLUMN_A), rows, lambda a, b: reference_negation(a))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=rows_of_two,
    sign=st.sampled_from([1, -1]),
    amount=st.sampled_from([0, 1, 3, 90]),
    unit=st.sampled_from(["DAY", "MONTH", "YEAR"]),
)
def test_date_interval_arithmetic_over_rows_answers_as_the_reference_does(rows, sign, amount, unit):
    op = "+" if sign == 1 else "-"
    reference = reference_interval(sign, amount, unit)
    assert answer(evaluate, f"? {op} INTERVAL '{amount}' {unit}", rows[0][0]) == answer(
        reference, rows[0][0]
    )
    expr = ast.Binary(op, COLUMN_A, ast.IntervalLiteral(amount, unit))
    assert_both_wrappers(expr, rows, reference)


#: every comparison shape: (expression over a, b and a constant, reference)
def comparison_shapes(op, constant, low, high, items, negated):
    def between(a, b):
        return reference_between(a, low, high, negated)

    return [
        (ast.Binary(op, COLUMN_A, COLUMN_B), lambda a, b: reference_comparison(op, a, b)),
        (ast.Binary(op, COLUMN_A, ast.Literal(constant)),
         lambda a, b: reference_comparison(op, a, constant)),
        (ast.Binary(op, ast.Literal(constant), COLUMN_A),
         lambda a, b: reference_comparison(op, constant, a)),
        (ast.Between(COLUMN_A, ast.Literal(low), ast.Literal(high), negated), between),
        (ast.Between(COLUMN_A, COLUMN_B, ast.Literal(high), negated),
         lambda a, b: reference_between(a, b, high, negated)),
        (ast.InList(COLUMN_A, [ast.Literal(item) for item in items], negated),
         lambda a, b: reference_in(a, items, negated)),
        (ast.InList(COLUMN_A, [COLUMN_B] + [ast.Literal(item) for item in items], negated),
         lambda a, b: reference_in(a, [b] + items, negated)),
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    op=st.sampled_from(sorted(TESTS)),
    rows=rows_of_two,
    constant=values,
    low=values,
    high=values,
    items=st.lists(values, min_size=1, max_size=3),
    negated=st.booleans(),
)
def test_each_comparison_shape_over_rows_answers_as_compare_does(
    op, rows, constant, low, high, items, negated
):
    for expr, reference in comparison_shapes(op, constant, low, high, items, negated):
        assert_both_wrappers(expr, rows, reference)


# ---------------------------------------------------------------- constant folding


def code_of(sql_expr: str):
    """``sql_expr`` compiled as a statement's expressions are, as a ``Code``."""
    return ExpressionCompiler(Scope(), None).code(parse(f"SELECT {sql_expr}").items[0].expr)

@pytest.mark.parametrize("text", [
    "DATE '1998-12-01' - INTERVAL '90' DAY",
    "0.06 - 0.01",
    "NOT -1 > CAST('0' AS INT)",
    "1 = 1 AND NULL",
    "NULL IS NULL OR 2 IN (1, 3) OR 2 BETWEEN 1 AND 3",
    "CASE 1 WHEN 1 THEN EXTRACT(YEAR FROM DATE '1998-12-01') END",
    "SUBSTRING('abc' FROM 2) LIKE 'b%'",
])
def test_an_operator_over_constants_compiles_to_a_constant(text):
    assert code_of(text).constant


@pytest.mark.parametrize("text", [
    "? + 1", "-?", "CAST(? AS INT)", "1 IN (?)", "upper('a') = 'A'", "1 / 0",
    "CASE WHEN 1 = 1 THEN 1 ELSE 1 / 0 END",
])
def test_an_operator_over_a_value_known_only_at_run_time_does_not(text):
    assert not code_of(text).constant


def test_a_raising_constant_raises_only_when_it_is_evaluated(session):
    """``1/0`` cannot fold: its closure stays, and raises per row evaluated."""
    server, sid = session
    execute(server, sid, "CREATE TABLE e (k INT PRIMARY KEY, v INT)")
    assert execute(server, sid, "SELECT k FROM e WHERE v < 1/0") == []
    execute(server, sid, "INSERT INTO e VALUES (1, 1)")
    with pytest.raises(DataError, match="division by zero"):
        execute(server, sid, "SELECT k FROM e WHERE v < 1/0")


def test_constants_fold_where_they_stand(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE e (k INT PRIMARY KEY, d DATE, f FLOAT)")
    execute(server, sid, "INSERT INTO e VALUES (1, '1998-09-01', 0.05), (2, '1998-09-03', 0.07)")
    sql = (
        "SELECT k FROM e WHERE d <= DATE '1998-12-01' - INTERVAL '90' DAY "
        "AND f BETWEEN 0.06 - 0.01 AND 0.06 + 0.01 AND NOT -k > CAST('0' AS INT)"
    )
    assert execute(server, sid, sql) == [(1,)]


@pytest.mark.parametrize("name", ["?", "@p", "rowcount()"])
def test_a_value_bound_per_execution_never_folds(session, name):
    """Four executions of one cached text, four values: four answers."""
    server, sid = session
    execute(server, sid, "CREATE TABLE e (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "INSERT INTO e VALUES (1, 0), (2, 0), (3, 0), (4, 0)")
    execute(
        server, sid,
        "CREATE PROCEDURE p (@x INT) AS BEGIN SELECT k FROM e WHERE k <= @x + 0 ORDER BY k END",
    )
    metrics = server.engine_metrics
    answers = []
    for n in (1, 2, 3, 4):
        if name == "?":
            result = server.execute(
                sid, "SELECT k FROM e WHERE k <= ? + 0 ORDER BY k", placeholders=[n]
            )
        elif name == "@p":
            result = server.execute(sid, f"EXEC p {n}")
        else:
            execute(server, sid, f"UPDATE e SET v = v + 1 WHERE k <= {n}")
            result = server.execute(sid, "SELECT k FROM e WHERE k <= rowcount() + 0 ORDER BY k")
        answers.append(result.rows)
        if n == 1:
            hits = metrics.plan_hits
    assert metrics.plan_hits == hits + 3
    assert answers == [[(k,) for k in range(1, n + 1)] for n in (1, 2, 3, 4)]
