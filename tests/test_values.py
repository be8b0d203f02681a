"""Unit tests for the SQL value model (coercion, 3VL compare, dates)."""

from __future__ import annotations

import datetime

import pytest

from repro.errors import DataError
from repro.engine.expressions import Env, ExpressionCompiler, PlaceholderList, Scope
from repro.engine.values import (
    SqlType,
    add_interval,
    coerce_value,
    compare,
    parse_date,
    sort_key,
    type_from_python,
)
from repro.sql import parse


# ---------------------------------------------------------------- coercion

def test_null_passes_through_every_type():
    for sql_type in SqlType:
        assert coerce_value(None, sql_type) is None


def test_int_coercions():
    assert coerce_value(3.9, SqlType.INT) == 3
    assert coerce_value("42", SqlType.INT) == 42
    assert coerce_value(True, SqlType.INT) == 1


def test_int_rejects_garbage():
    with pytest.raises(DataError):
        coerce_value("abc", SqlType.INT)


def test_float_coercions():
    assert coerce_value(3, SqlType.FLOAT) == 3.0
    assert coerce_value(" 2.5 ", SqlType.FLOAT) == 2.5
    assert isinstance(coerce_value(1, SqlType.DECIMAL), float)


def test_varchar_length_enforced():
    with pytest.raises(DataError):
        coerce_value("toolong", SqlType.VARCHAR, length=3)


def test_char_truncates_instead_of_raising():
    assert coerce_value("toolong", SqlType.CHAR, length=3) == "too"


def test_text_unbounded():
    assert coerce_value("x" * 1000, SqlType.TEXT) == "x" * 1000


def test_date_from_string_and_date():
    d = datetime.date(1998, 12, 1)
    assert coerce_value("1998-12-01", SqlType.DATE) == d
    assert coerce_value(d, SqlType.DATE) is d


def test_date_rejects_bad_format():
    with pytest.raises(DataError):
        coerce_value("12/01/1998", SqlType.DATE)


def test_date_renders_to_text():
    assert coerce_value(datetime.date(2000, 1, 2), SqlType.VARCHAR) == "2000-01-02"


@pytest.mark.parametrize("text,expected", [
    ("TRUE", True), ("f", False), ("1", True), ("off", False), ("YES", True),
])
def test_boolean_words(text, expected):
    assert coerce_value(text, SqlType.BOOLEAN) is expected


def test_boolean_rejects_garbage():
    with pytest.raises(DataError):
        coerce_value("maybe", SqlType.BOOLEAN)


# ---------------------------------------------------------------- comparison

def test_compare_is_three_valued():
    assert compare(None, 1) is None
    assert compare(1, None) is None
    assert compare(None, None) is None


def test_compare_numbers():
    assert compare(1, 2) == -1
    assert compare(2.0, 2) == 0
    assert compare(3, 2.5) == 1


def test_compare_date_with_iso_string():
    assert compare(datetime.date(1998, 1, 1), "1998-06-01") == -1
    assert compare("1998-06-01", datetime.date(1998, 1, 1)) == 1


def test_compare_number_with_numeric_string():
    assert compare(10, "9.5") == 1


def test_compare_number_with_non_numeric_string_raises():
    with pytest.raises(DataError):
        compare(10, "abc")


def test_compare_bool_with_number():
    assert compare(True, 1) == 0
    assert compare(False, 0.0) == 0


def test_compare_incomparable_types_raise():
    with pytest.raises(DataError):
        compare(datetime.date(2000, 1, 1), 5)


def test_nan_equals_nan_and_sorts_above_every_number():
    """PostgreSQL's order (Python's makes every comparison with NaN false)."""
    nan = float("nan")
    assert compare(nan, float("nan")) == 0
    assert compare(nan, float("inf")) == 1
    assert compare(-1, nan) == -1
    assert compare("nan", 5) == 1
    ordered = sorted([nan, 1.0, None, float("inf"), -0.0, 7], key=sort_key)
    assert repr(ordered) == "[None, -0.0, 1.0, 7, inf, nan]"


def compiled(sql_expr: str, *values):
    """``sql_expr`` compiled as a statement's expressions are, with
    ``values`` bound to its ``?``."""
    expr = parse(f"SELECT {sql_expr}").items[0].expr
    return ExpressionCompiler(Scope(), None, placeholders=PlaceholderList(values)).compile(expr)


def evaluate(sql_expr: str, *values):
    """What ``sql_expr`` answers with ``values`` bound to its ``?`` (a
    ``?`` never folds, so this runs the per-row closures)."""
    return compiled(sql_expr, *values)(Env([]))


def test_sql_equal():
    """SQL ``=`` with NULL → UNKNOWN, as the compiled operator answers it."""
    assert evaluate("? = ?", 1, 1.0) is True
    assert evaluate("? = ?", "a", "b") is False
    assert evaluate("? = ?", None, 1) is None


# ---------------------------------------------------------------- intervals

def test_add_interval_days():
    assert add_interval(datetime.date(1998, 12, 1), 90, "DAY", -1) == datetime.date(1998, 9, 2)


def test_add_interval_months_clamps_day():
    assert add_interval(datetime.date(1999, 1, 31), 1, "MONTH") == datetime.date(1999, 2, 28)


def test_add_interval_year():
    assert add_interval(datetime.date(1996, 2, 29), 1, "YEAR") == datetime.date(1997, 2, 28)


def test_add_interval_accepts_iso_string():
    assert add_interval("1994-01-01", 1, "YEAR") == datetime.date(1995, 1, 1)


def test_add_interval_rejects_non_date():
    with pytest.raises(DataError):
        add_interval(5, 1, "DAY")


def test_add_interval_unknown_unit():
    with pytest.raises(DataError):
        add_interval(datetime.date(2000, 1, 1), 1, "FORTNIGHT")


# ---------------------------------------------------------------- misc

def test_sort_key_nulls_first():
    values = [3, None, 1, None, 2]
    assert sorted(values, key=sort_key) == [None, None, 1, 2, 3]


def test_parse_date_error_mentions_literal():
    with pytest.raises(DataError, match="not-a-date"):
        parse_date("not-a-date")


def test_type_from_python():
    assert type_from_python(1) is SqlType.INT
    assert type_from_python(1.5) is SqlType.FLOAT
    assert type_from_python(True) is SqlType.BOOLEAN
    assert type_from_python("x") is SqlType.VARCHAR
    assert type_from_python(datetime.date(2000, 1, 1)) is SqlType.DATE
    assert type_from_python(None) is SqlType.VARCHAR


def test_type_from_python_rejects_unknown():
    with pytest.raises(DataError):
        type_from_python(object())
