"""The k-client chaos workload: k concurrent sessions, a crash, exactly-once each.

The one-client trace (:func:`repro.chaos.trace.probe_dml_trace`) sweeps
crash positions over one session.  Under concurrent serving the sharper
question is: when the server dies while *k* clients are mid-flight —
several of them inside explicit transactions — does **every** client
still observe exactly-once execution?

:func:`multi_client_trace` is that workload, run and judged by the same
runner, oracle and explorer as the one-client trace.  The global
interleaving of wire requests is scheduler-dependent, so the golden run's
request count varies from run to run and a positional fault lands on
whichever request is *i*-th.  What *is* deterministic is each client's own
story — every client works a disjoint key range of one shared table and a
wallet table of its own, its requests are ordered per session by the
dispatcher, and its statement sequence numbers are allocated client-side —
so the oracle compares client *i* with the golden run's client *i*, and
then the tables' fingerprints (the union of the disjoint ranges is
interleaving-independent).

Each client's script has a ``barrier`` step inside its explicit
transaction.  ``run_trace(..., victim=i)`` arms a session-targeted crash
there: the server dies exactly when client *i*'s COMMIT arrives, while
every other client holds its open transaction at the barrier.
"""

from __future__ import annotations

from repro.chaos.trace import ChaosTrace, Step

__all__ = ["SHARED_TABLE", "client_steps", "multi_client_trace", "wallet_table"]

SHARED_TABLE = "chaos_accounts"


def wallet_table(index: int) -> str:
    """Client ``index``'s private table.  Historically load-bearing: with
    table-granular locks an explicit transaction that held the *shared*
    table's X lock across the barrier would starve every other client (an
    application-level deadlock between the lock and the barrier).  Row
    locking has since removed that hazard — clients touch disjoint key
    ranges, so their explicit transactions would coexist on the shared
    table under IX — but per-client wallets stay: they keep the oracle's
    per-client golden traces independent of sibling clients by
    construction, and preserve the shared-vs-private coverage split (all k
    clients mid-transaction at the crash instant on wallets, autocommit
    DML contending on the shared table)."""
    return f"chaos_wallet_{index}"


def client_steps(index: int) -> tuple[Step, ...]:
    """Client ``index``'s deterministic workload over its own key range,
    with the barrier inside its explicit transaction on its wallet table."""
    base = 100 * (index + 1)
    wallet = wallet_table(index)
    return (
        # concurrent transactions wait on each other's locks: a generous
        # server-side wait before a conflict surfaces to the application
        Step("set", name="lock_timeout", value=30000),
        Step(
            "ddl",
            sql=f"CREATE TABLE {wallet} (id INT PRIMARY KEY, balance FLOAT)",
        ),
        Step("dml", sql=f"INSERT INTO {wallet} VALUES (1, 50.0), (2, 50.0)"),
        Step(
            "dml",
            sql=f"INSERT INTO {SHARED_TABLE} VALUES "
            f"({base + 1}, 10.0), ({base + 2}, 20.0), ({base + 3}, 30.0)",
        ),
        Step(
            "query",
            sql=f"SELECT id, balance FROM {SHARED_TABLE} "
            f"WHERE id >= {base + 1} AND id <= {base + 3} ORDER BY id",
            fetches=(2, 5),
        ),
        Step("begin"),
        Step(
            "txn",
            sql=f"UPDATE {wallet} SET balance = balance - 5 WHERE id = 1",
        ),
        Step("barrier"),
        Step(
            "txn",
            sql=f"UPDATE {wallet} SET balance = balance + 5 WHERE id = 2",
        ),
        Step("commit"),
        Step(
            "dml",
            sql=f"UPDATE {SHARED_TABLE} SET balance = balance * 2 WHERE id = {base + 3}",
        ),
        Step(
            "executemany",
            sql=f"INSERT INTO {SHARED_TABLE} VALUES (?, ?)",
            rows=(
                (base + 4, 4.0),
                (base + 5, 5.0),
                (base + 6, 6.0),
                (base + 7, 7.0),
            ),
            batch_size=2,
        ),
        Step("dml", sql=f"DELETE FROM {SHARED_TABLE} WHERE id = {base + 4}"),
        Step(
            "query",
            sql=f"SELECT count(*), sum(balance) FROM {SHARED_TABLE} "
            f"WHERE id >= {base + 1} AND id <= {base + 7}",
            fetches=(1,),
        ),
        Step(
            "query",
            sql=f"SELECT sum(balance) FROM {wallet}",
            fetches=(1,),
        ),
    )


def multi_client_trace(clients: int) -> ChaosTrace:
    """``clients`` concurrent sessions of :func:`client_steps` over one
    shared table, which exists before any client starts."""
    return ChaosTrace(
        clients=tuple(client_steps(i) for i in range(clients)),
        tables=(SHARED_TABLE, *(wallet_table(i) for i in range(clients))),
        setup=(f"CREATE TABLE {SHARED_TABLE} (id INT PRIMARY KEY, balance FLOAT)",),
    )
