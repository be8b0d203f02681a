"""SQL value model: types, coercion, comparison, and date arithmetic.

Values are plain Python objects — ``int``, ``float``, ``str``, ``bool``,
``datetime.date``, and ``None`` for SQL NULL.  DECIMAL is carried as
``float`` (documented substitution: TPC-H's money math tolerates it and the
paper's behaviour does not depend on exact decimal semantics).

Comparison follows SQL three-valued logic: any comparison involving NULL
yields ``None`` (UNKNOWN), which predicates treat as not-true.  Floats
order as in PostgreSQL: NaN equals NaN and sorts above every number.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any

from repro.errors import DataError

__all__ = [
    "SqlType",
    "coerce_value",
    "compare",
    "DIRECT_PAIRS",
    "compares_directly",
    "NAN",
    "one_nan",
    "add_interval",
    "parse_date",
    "sort_key",
    "type_from_python",
    "type_holding",
]


class SqlType(enum.Enum):
    """Canonical engine types (lengths/precision are schema metadata)."""

    INT = "INT"
    FLOAT = "FLOAT"
    DECIMAL = "DECIMAL"
    CHAR = "CHAR"
    VARCHAR = "VARCHAR"
    TEXT = "TEXT"
    DATE = "DATE"
    BOOLEAN = "BOOLEAN"

    @property
    def is_numeric(self) -> bool:
        return self in (SqlType.INT, SqlType.FLOAT, SqlType.DECIMAL)

    @property
    def is_text(self) -> bool:
        return self in (SqlType.CHAR, SqlType.VARCHAR, SqlType.TEXT)


def parse_date(text: str) -> datetime.date:
    """Parse an ISO ``yyyy-mm-dd`` date literal."""
    try:
        return datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"invalid date literal {text!r}") from exc


def coerce_value(value: Any, type_: SqlType, *, length: int | None = None) -> Any:
    """Coerce ``value`` into the Python representation of ``type_``.

    NULL passes through.  Raises :class:`~repro.errors.DataError` when the
    value cannot represent the type (e.g. ``'abc'`` as INT).
    """
    if value is None:
        return None
    try:
        if type_ is SqlType.INT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, (int, float)):
                return int(value)
            return int(str(value).strip())
        if type_ in (SqlType.FLOAT, SqlType.DECIMAL):
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            return float(str(value).strip())
        if type_.is_text:
            text = value.isoformat() if isinstance(value, datetime.date) else str(value)
            if length is not None and len(text) > length:
                # SQL would raise on overflow for CHAR/VARCHAR inserts;
                # we truncate CHAR padding semantics down to plain cut-off
                # only for CHAR, and raise for VARCHAR to surface bugs.
                if type_ is SqlType.VARCHAR:
                    raise DataError(
                        f"value of length {len(text)} exceeds VARCHAR({length})"
                    )
                text = text[:length]
            return text
        if type_ is SqlType.DATE:
            if isinstance(value, datetime.date):
                return value
            return parse_date(str(value))
        if type_ is SqlType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return bool(value)
            word = str(value).strip().upper()
            if word in ("TRUE", "T", "1", "ON", "YES"):
                return True
            if word in ("FALSE", "F", "0", "OFF", "NO"):
                return False
            raise DataError(f"invalid boolean literal {value!r}")
    except DataError:
        raise
    except (TypeError, ValueError) as exc:
        raise DataError(f"cannot coerce {value!r} to {type_.value}") from exc
    raise DataError(f"unknown type {type_!r}")


def _comparable_pair(left: Any, right: Any) -> tuple[Any, Any]:
    """Normalize a pair for comparison, applying implicit casts:
    number↔number, date↔ISO-string, bool↔number."""
    if isinstance(left, datetime.date) and isinstance(right, str):
        return left, parse_date(right)
    if isinstance(right, datetime.date) and isinstance(left, str):
        return parse_date(left), right
    if isinstance(left, bool) and isinstance(right, (int, float)) and not isinstance(right, bool):
        return int(left), right
    if isinstance(right, bool) and isinstance(left, (int, float)) and not isinstance(left, bool):
        return left, int(right)
    if isinstance(left, (int, float)) and isinstance(right, str):
        try:
            return left, float(right)
        except ValueError as exc:
            raise DataError(f"cannot compare number with {right!r}") from exc
    if isinstance(right, (int, float)) and isinstance(left, str):
        try:
            return float(left), right
        except ValueError as exc:
            raise DataError(f"cannot compare number with {left!r}") from exc
    return left, right


#: the class pairs ``_comparable_pair`` leaves as they are.  Python's own
#: operators order them as :func:`compare` does, except that every Python
#: comparison with a NaN is false: a caller that applies them directly must
#: send a pair with a NaN to ``compare``.
DIRECT_PAIRS = frozenset({
    (int, int), (int, float), (float, int), (float, float),
    (str, str), (datetime.date, datetime.date),
})

#: the Python class a column of each type holds its values as
_HELD_AS = {
    SqlType.INT: int, SqlType.FLOAT: float, SqlType.DECIMAL: float,
    SqlType.CHAR: str, SqlType.VARCHAR: str, SqlType.TEXT: str,
    SqlType.DATE: datetime.date, SqlType.BOOLEAN: bool,
}


def compares_directly(left: SqlType, right: SqlType) -> bool:
    """Do the values of a ``left`` column and a ``right`` column form a pair
    in :data:`DIRECT_PAIRS`?  Then ``=`` between them is Python's equality,
    and hashing them (or looking one up in an index of the other) finds what
    ``=`` finds — NaN aside, which a hash keeps apart from every other NaN."""
    return (_HELD_AS[left], _HELD_AS[right]) in DIRECT_PAIRS


#: the NaN that grouping, DISTINCT, ``count(DISTINCT …)`` and UNION file
#: every NaN under: Python hashes each NaN object apart, and SQL (as in
#: PostgreSQL) calls NaN equal to NaN
NAN = float("nan")


def one_nan(key: Any) -> Any:
    """``key`` — a value, or a tuple of values — with every NaN in it
    replaced by :data:`NAN`.  A hashed operator calls it only after a lookup
    missed, so a key without a NaN costs nothing more."""
    if key.__class__ is tuple:
        if any(value != value for value in key):
            return tuple([NAN if value != value else value for value in key])
        return key
    return NAN if key != key else key


def compare(left: Any, right: Any) -> int | None:
    """Three-valued SQL comparison.

    Returns ``None`` when either side is NULL, else -1/0/1.  NaN equals NaN
    and sorts above every number, as in PostgreSQL.
    """
    if left is None or right is None:
        return None
    if (left.__class__, right.__class__) not in DIRECT_PAIRS:
        left, right = _comparable_pair(left, right)
    try:
        if left < right:
            return -1
        if left > right:
            return 1
    except TypeError as exc:
        raise DataError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        ) from exc
    # equal, or unordered because a side is NaN (the one value unequal to itself)
    return (left != left) - (right != right)


def add_interval(value: Any, amount: int, unit: str, sign: int = 1) -> datetime.date:
    """``date ± INTERVAL 'amount' unit`` with calendar month/year clamping
    (e.g. Jan 31 + 1 MONTH → Feb 28)."""
    if isinstance(value, str):
        value = parse_date(value)
    if not isinstance(value, datetime.date):
        raise DataError(f"INTERVAL arithmetic requires a date, got {value!r}")
    amount *= sign
    unit = unit.upper()
    if unit == "DAY":
        return value + datetime.timedelta(days=amount)
    if unit in ("MONTH", "YEAR"):
        months = amount * (12 if unit == "YEAR" else 1)
        total = value.year * 12 + (value.month - 1) + months
        year, month = divmod(total, 12)
        month += 1
        day = min(value.day, _days_in_month(year, month))
        return datetime.date(year, month, day)
    raise DataError(f"unknown interval unit {unit!r}")


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    first_next = datetime.date(year, month + 1, 1)
    return (first_next - datetime.timedelta(days=1)).day


#: the key of a NaN: after every other value's ``(True, value)``
_NAN_KEY = (2, 0)


#: Sort group tags: NULLs first, then everything else by value.  Mixed-type
#: ORDER BY columns are a user error we surface via DataError in compare();
#: sort_key is only used on homogeneous columns.
def sort_key(value: Any):
    """Key function for ORDER BY (NULLs sort first, like PostgreSQL ASC
    NULLS FIRST; NaN sorts above every number, as in :func:`compare`)."""
    if value != value:
        return _NAN_KEY
    return (value is not None, value)


_PYTHON_TO_SQL = {
    bool: SqlType.BOOLEAN,
    int: SqlType.INT,
    float: SqlType.FLOAT,
    str: SqlType.VARCHAR,
    datetime.date: SqlType.DATE,
}


#: the types whose values are held as another type's Python class
_STORED_AS = {SqlType.DECIMAL: SqlType.FLOAT, SqlType.CHAR: SqlType.VARCHAR, SqlType.TEXT: SqlType.VARCHAR}


def type_from_python(value: Any) -> SqlType:
    """Infer a SQL type from a Python value (used for computed columns in
    ``SELECT ... INTO`` / Phoenix materialized tables)."""
    if value is None:
        return SqlType.VARCHAR  # NULL with no better information
    for python_type, sql_type in _PYTHON_TO_SQL.items():
        if type(value) is python_type:
            return sql_type
    if isinstance(value, datetime.date):
        return SqlType.DATE
    raise DataError(f"no SQL type for Python value {value!r}")


def type_holding(kinds: set[type], inferred: SqlType) -> SqlType:
    """The column type that stores values of the Python classes ``kinds``
    as they are: ``inferred`` when they are all of its class, else the type
    of the class they share.  Values of several classes have no such type:
    ints among floats are stored as FLOAT, anything else as text (which at
    least never fails to coerce)."""
    held = {_PYTHON_TO_SQL.get(kind, SqlType.VARCHAR) for kind in kinds}
    if held <= {_STORED_AS.get(inferred, inferred)}:
        return inferred
    if len(held) == 1:
        return held.pop()
    return SqlType.FLOAT if held == {SqlType.INT, SqlType.FLOAT} else SqlType.VARCHAR
