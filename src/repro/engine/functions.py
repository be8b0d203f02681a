"""Scalar and aggregate function implementations.

Scalar functions are plain callables over Python values with SQL NULL
propagation handled per-function (most return NULL on NULL input; COALESCE
and friends do not).  Aggregates are accumulator classes the group-by
executor drives.
"""

from __future__ import annotations

import datetime
import math
from typing import Any, Callable

from repro.errors import DataError, ProgrammingError
from repro.engine.values import compare, parse_date
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
    """Base aggregate accumulator: feed values with :meth:`add`, read the
    aggregate with :meth:`result`.  SQL semantics: NULLs are skipped (except
    COUNT(*)); empty input yields NULL (except COUNT → 0)."""

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class _Count(Accumulator):
    def __init__(self):
        self.n = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.n += 1

    def result(self) -> int:
        return self.n


class _CountStar(Accumulator):
    def __init__(self):
        self.n = 0

    def add(self, value: Any) -> None:
        self.n += 1

    def result(self) -> int:
        return self.n


class _Sum(Accumulator):
    def __init__(self):
        self.total: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def result(self) -> Any:
        return self.total


class _Avg(Accumulator):
    def __init__(self):
        self.total = 0.0
        self.n = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total += value
        self.n += 1

    def result(self) -> float | None:
        return self.total / self.n if self.n else None


class _Min(Accumulator):
    def __init__(self):
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or compare(value, self.best) < 0:
            self.best = value

    def result(self) -> Any:
        return self.best


class _Max(Accumulator):
    def __init__(self):
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or compare(value, self.best) > 0:
            self.best = value

    def result(self) -> Any:
        return self.best


class _Distinct(Accumulator):
    """Wrapper dropping duplicate inputs before the inner accumulator."""

    def __init__(self, inner: Accumulator):
        self.inner = inner
        self.seen: set = set()

    def add(self, value: Any) -> None:
        if value is None or value in self.seen:
            if value is None:
                self.inner.add(value)  # inner skips NULLs itself
            return
        self.seen.add(value)
        self.inner.add(value)

    def result(self) -> Any:
        return self.inner.result()


_AGGREGATES = {
    "count": _Count,
    "sum": _Sum,
    "avg": _Avg,
    "min": _Min,
    "max": _Max,
}


def make_accumulator(name: str, *, star: bool = False, distinct: bool = False) -> Accumulator:
    """Instantiate the accumulator for an aggregate call."""
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
