#!/usr/bin/env python3
"""Record ``tests/data/lexer_golden.json``: what the tokenizer on the import
path makes of a fixed set of texts.

The committed fixture was recorded at commit b4e6ea1 (the character-at-a-time
lexer), with ``PYTHONPATH`` pointing at that commit's ``src``; the master
pattern lexer that replaced it must reproduce every token stream and every
error in it (``tests/test_lexer.py``).  Re-recording with the current lexer
re-pins the fixture to whatever it does now — do that only for a deliberate
dialect change::

    PYTHONPATH=src python scripts/record_lexer_golden.py

Inputs: the 22 TPC-H texts, RF1/RF2, the SQL of every wire request of the
chaos golden trace, a multi-line / commented / quoted-identifier sample, and
one text per lexer error path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import repro
from repro.chaos.trace import _run_trace_on, probe_dml_trace
from repro.errors import SQLSyntaxError
from repro.net import FaultKind
from repro.sql.lexer import tokenize
from repro.workloads.tpch.datagen import generate
from repro.workloads.tpch.queries import QUERY_ORDER, query_sql
from repro.workloads.tpch.refresh import rf1_statements, rf2_statements

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "lexer_golden.json"

SAMPLE = """\
-- a line comment, then a block comment spanning lines
/* first
   second */ SELECT "Quoted Col", [bracketed name], t.*, 'it''s', 'two
lines'
FROM #temp AS t -- trailing comment
WHERE a<=1.5e-3 AND b<>.5 OR c!=2E+4 AND d>=7. AND e||f = @p1 AND g = ?
  AND h % 2 = -1 /* inline */ AND _under9 IS NOT NULL;
EXEC #proc @x = 1, 'y'
"""

ERRORS = {
    "unterminated string": "SELECT 'abc",
    "unterminated string on line 2": "SELECT 1,\n  'abc",
    "unterminated block comment": "SELECT 1 /* never closed",
    "unterminated double-quoted identifier": 'SELECT "abc FROM t',
    "unterminated bracketed identifier": "SELECT [abc FROM t",
    "bare @": "SELECT @ FROM t",
    "bare @ at end": "SELECT @",
    "bare #": "SELECT * FROM # t",
    "unexpected character": "SELECT a $ b",
    "unexpected character after newlines": "SELECT a\n\n  ~ b",
    "lone !": "SELECT a ! b",
    "lone |": "SELECT a | b",
}


def chaos_request_sql() -> list[str]:
    """The SQL of every wire request of the fault-free chaos trace."""
    system = repro.make_system()
    sent: list[str] = []

    def record(request) -> bool:
        if hasattr(request, "sql"):
            sent.append(request.sql)
        sent.extend(getattr(request, "statements", ()))
        return False

    system.faults.schedule(FaultKind.HANG, matcher=record, repeat=True)
    record_ = _run_trace_on(system, probe_dml_trace(), ())
    assert record_.completed, record_.error
    return sent


def main() -> int:
    data = generate(0.001, 42)
    texts: dict[str, str] = {f"tpch.{q}": query_sql(q, 0.001) for q in QUERY_ORDER}
    for name, transactions in (("rf1", rf1_statements(data)), ("rf2", rf2_statements(data))):
        for t, statements in enumerate(transactions):
            for s, sql in enumerate(statements):
                texts[f"{name}.{t}.{s}"] = sql
    for i, sql in enumerate(chaos_request_sql()):
        texts[f"chaos.{i:02d}"] = sql
    texts["sample"] = SAMPLE

    streams = {
        name: {
            "text": text,
            "tokens": [[t.type.name, t.value, t.pos, t.line] for t in tokenize(text)],
        }
        for name, text in texts.items()
    }
    errors = {}
    for name, text in ERRORS.items():
        try:
            tokenize(text)
        except SQLSyntaxError as exc:
            errors[name] = {
                "text": text,
                "message": exc.args[0],
                "position": exc.position,
                "line": exc.line,
            }
        else:
            raise AssertionError(f"{name}: {text!r} lexed without an error")
    OUT.parent.mkdir(exist_ok=True)
    # one stream or error per line: compact, and a re-pin diffs by text
    lines = [
        f' "{kind}": {{\n'
        + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        + "\n }"
        for kind, entries in (("streams", streams), ("errors", errors))
    ]
    OUT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{OUT}: {len(streams)} streams, {len(errors)} errors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
