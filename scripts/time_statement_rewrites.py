#!/usr/bin/env python3
"""Time what Phoenix does to a statement on the client::

    PYTHONPATH=src python scripts/time_statement_rewrites.py [--number N]

Two tables, each figure the best of 7 timed loops, in µs per call:

* **rewrites** — ``redirect_names`` on an OLTP text and on a TPC-H text,
  with a temp-name map that hits one of its tables and one that misses.
* **interception** — ``oltp_point``'s statements through a Phoenix cursor
  and through a plain one (``execute`` and, for the SELECT, ``fetchall``)
  with a driver that answers at once: each driver connection's ``execute``
  hands back the reply the server gave to the same request.  What is timed
  is therefore the client's own Python, the statement's time less the time
  inside ``DriverConnection.execute``.  The plain SELECT sends the
  application's text; the plain UPDATE sends the very wrapper text and
  values Phoenix sends (its ``BEGIN TRANSACTION; UPDATE …; INSERT INTO
  <status> …; COMMIT``), so the gap is Phoenix's interception alone.

It uses only ``parse``, ``redirect_names``, ``make_system`` and ``connect``,
so pointing ``PYTHONPATH`` at another commit's ``src`` times that commit (the
before/after tables in EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import timeit

import repro
from repro.core.interceptor import redirect_names
from repro.sql import parse
from repro.workloads.tpch.queries import query_sql

TEXTS = {
    "oltp update": "UPDATE acct SET v = v + 1 WHERE k = ?",
    "tpch Q2": query_sql("Q2"),
}
#: ``hit``: one table of each text is redirected; ``miss``: the map matches no name
MAPS = {"hit": {"acct": "phx_tmp_acct", "partsupp": "phx_tmp_partsupp"}, "miss": {"#w": "phx_tmp_w"}}

SELECT = "SELECT k, v FROM acct WHERE k = ?"
UPDATE = "UPDATE acct SET v = v + 1 WHERE k = ?"


def best_us(call, number: int) -> float:
    return min(timeit.repeat(call, number=number, repeat=7)) / number * 1e6


def time_rewrites(number: int) -> None:
    print(f"{'text':<12} {'redirect (hit)':>15} {'redirect (miss)':>16}")
    for name, text in TEXTS.items():
        stmt = parse(text)
        hit = best_us(lambda: redirect_names(stmt, MAPS["hit"]), number)
        miss = best_us(lambda: redirect_names(stmt, MAPS["miss"]), number)
        print(f"{name:<12} {hit:15.1f} {miss:16.1f}")


def recording(driver_connection) -> list:
    """Append (text, values, reply) of each request ``driver_connection``
    sends from now on to the list returned."""
    send, sent = driver_connection.execute, []

    def execute(sql, placeholders=None, **kwargs):
        reply = send(sql, placeholders=placeholders, **kwargs)
        sent.append((sql, list(placeholders or []), reply))
        return reply

    driver_connection.execute = execute
    return sent


def answering_with(driver_connection, reply) -> None:
    """``driver_connection.execute`` sends nothing and hands back ``reply``."""
    driver_connection.execute = lambda sql, placeholders=None, **kwargs: reply


def time_interception(number: int) -> None:
    system = repro.make_system(dsn="time-interception")
    session = system.server.connect(user="setup")
    system.server.execute(session, "CREATE TABLE acct (k INT PRIMARY KEY, v INT)")
    system.server.execute(session, "INSERT INTO acct VALUES (1, 0), (2, 0)")
    system.server.disconnect(session)
    phoenix = repro.connect(system)
    plain = repro.connect(system, phoenix=False)
    phoenix_cursor, plain_cursor = phoenix.cursor(), plain.cursor()

    # one real execution each: the template is parsed and the replies recorded
    phoenix_sent, plain_sent = recording(phoenix.app), recording(plain._driver_connection)
    phoenix_cursor.execute(SELECT, [1]).fetchall()
    plain_cursor.execute(SELECT, [1]).fetchall()
    phoenix_cursor.execute(UPDATE, [2])
    (_, _, phoenix_select), (wrapper, values, phoenix_update) = phoenix_sent
    ((_, _, plain_select),) = plain_sent

    def timed(connection, reply, call) -> float:
        answering_with(connection, reply)
        return best_us(call, number)

    rows = [
        (
            "select",
            timed(plain._driver_connection, plain_select,
                  lambda: plain_cursor.execute(SELECT, [1]).fetchall()),
            timed(phoenix.app, phoenix_select,
                  lambda: phoenix_cursor.execute(SELECT, [1]).fetchall()),
        ),
        (
            "update",  # the plain side sends the wrapper Phoenix sends
            timed(plain._driver_connection, phoenix_update,
                  lambda: plain_cursor.execute(wrapper, values)),
            timed(phoenix.app, phoenix_update, lambda: phoenix_cursor.execute(UPDATE, [2])),
        ),
    ]
    system.close()

    print(f"{'statement':<12} {'plain':>8} {'phoenix':>8} {'gap':>8}")
    for name, plain_us, phoenix_us in rows:
        print(f"{name:<12} {plain_us:8.1f} {phoenix_us:8.1f} {phoenix_us - plain_us:8.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, default=2000, help="calls per timed loop")
    args = parser.parse_args()
    time_rewrites(args.number)
    print()
    time_interception(args.number)


if __name__ == "__main__":
    main()
