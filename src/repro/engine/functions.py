"""Scalar and aggregate function implementations.

Scalar functions are plain callables over Python values with SQL NULL
propagation handled per-function (most return NULL on NULL input; COALESCE
and friends do not).  Aggregates are accumulator classes whose ``fold``
the group-by executor calls once per group with the group's argument values.
"""

from __future__ import annotations

import datetime
import functools
import math
import operator
from typing import Any, Callable

from repro.errors import DataError, ProgrammingError
from repro.engine.values import compare, one_nan, parse_date
from repro.sql.ast import AGGREGATE_NAMES

__all__ = ["SCALAR_FUNCTIONS", "AGGREGATE_NAMES", "make_accumulator", "Accumulator"]


def _null_safe(fn: Callable) -> Callable:
    """Wrap a scalar so any NULL argument yields NULL."""

    def wrapper(*args: Any) -> Any:
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapper


def _substr(text: str, start: int, length: int | None = None) -> str:
    """SQL SUBSTRING: 1-based start, optional length."""
    start = int(start)
    begin = max(start - 1, 0)
    if length is None:
        return str(text)[begin:]
    if length < 0:
        raise DataError("negative SUBSTRING length")
    return str(text)[begin : begin + int(length)]


def _round(value: float, digits: int = 0) -> float:
    result = round(float(value), int(digits))
    return result


def _coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(left: Any, right: Any) -> Any:
    return None if compare(left, right) == 0 else left


def _to_date(value: Any) -> datetime.date:
    if isinstance(value, datetime.date):
        return value
    return parse_date(str(value))


#: name → callable.  Names are lower-case; the parser lower-cases call names.
SCALAR_FUNCTIONS: dict[str, Callable] = {
    "upper": _null_safe(lambda s: str(s).upper()),
    "lower": _null_safe(lambda s: str(s).lower()),
    "length": _null_safe(lambda s: len(str(s))),
    "abs": _null_safe(lambda x: abs(x)),
    "round": _null_safe(_round),
    "floor": _null_safe(lambda x: math.floor(x)),
    "ceil": _null_safe(lambda x: math.ceil(x)),
    "ceiling": _null_safe(lambda x: math.ceil(x)),
    "sqrt": _null_safe(lambda x: math.sqrt(x)),
    "mod": _null_safe(lambda a, b: a % b),
    "trim": _null_safe(lambda s: str(s).strip()),
    "ltrim": _null_safe(lambda s: str(s).lstrip()),
    "rtrim": _null_safe(lambda s: str(s).rstrip()),
    "substr": _null_safe(_substr),
    "substring": _null_safe(_substr),
    "concat": _null_safe(lambda *parts: "".join(str(p) for p in parts)),
    "replace": _null_safe(lambda s, old, new: str(s).replace(str(old), str(new))),
    "coalesce": _coalesce,
    "nullif": _nullif,
    "date": _null_safe(_to_date),
}


class Accumulator:
    """Base aggregate: :meth:`fold` one group's argument values, in input
    order, into the aggregate.  SQL semantics: NULLs are skipped (except
    COUNT(*)); empty input yields NULL (except COUNT → 0)."""

    def fold(self, values: list) -> Any:
        raise NotImplementedError


class _Count(Accumulator):
    def fold(self, values: list) -> int:
        return len(values) - values.count(None)


class _CountStar(Accumulator):
    def fold(self, values: list) -> int:
        return len(values)


def _present(values: list) -> list:
    """``values`` without its NULLs."""
    return [value for value in values if value is not None]


class _Sum(Accumulator):
    def fold(self, values: list) -> Any:
        # left to right, one ``+`` per value: the builtin ``sum`` compensates
        # float rounding since CPython 3.12, and a float sum depends on order
        present = _present(values)
        return functools.reduce(operator.add, present) if present else None


class _Avg(Accumulator):
    def fold(self, values: list) -> float | None:
        present = _present(values)
        return functools.reduce(operator.add, present, 0.0) / len(present) if present else None


class _Min(Accumulator):
    def fold(self, values: list) -> Any:
        best: Any = None
        for value in values:
            if value is not None and (best is None or compare(value, best) < 0):
                best = value
        return best


class _Max(Accumulator):
    def fold(self, values: list) -> Any:
        best: Any = None
        for value in values:
            if value is not None and (best is None or compare(value, best) > 0):
                best = value
        return best


class _Distinct(Accumulator):
    """The inner aggregate over the first of each set of equal values (a
    NaN equals a NaN)."""

    def __init__(self, inner: Accumulator):
        self.inner = inner

    def fold(self, values: list) -> Any:
        seen: set = set()
        kept = []
        for value in values:
            if value is None or value in seen:
                continue
            value = one_nan(value)
            if value not in seen:
                seen.add(value)
                kept.append(value)
        return self.inner.fold(kept)


_AGGREGATES = {
    "count": _Count,
    "sum": _Sum,
    "avg": _Avg,
    "min": _Min,
    "max": _Max,
}


def make_accumulator(name: str, *, star: bool = False, distinct: bool = False) -> Accumulator:
    """The accumulator for an aggregate call: it keeps no state, so one
    serves every group of a plan."""
    lowered = name.lower()
    if star:
        if lowered != "count":
            raise ProgrammingError(f"{name}(*) is not valid")
        return _CountStar()
    try:
        inner = _AGGREGATES[lowered]()
    except KeyError:
        raise ProgrammingError(f"unknown aggregate {name}") from None
    return _Distinct(inner) if distinct else inner
