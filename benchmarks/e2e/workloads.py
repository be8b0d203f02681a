"""The four workloads.

Each workload loads its tables, runs *slices* — one short application
session of a fixed, seed-determined statement list — on either driver
stack, and checks every answer against an oracle that does not involve the
system: a client-side model, a fingerprint first seen through the other
driver, or a value computed from the generated data.
"""

from __future__ import annotations

from repro import FaultKind, errors
from repro.odbc.constants import StatementAttr
from repro.workloads.tpch.datagen import populate
from repro.workloads.tpch.queries import QUERY_ORDER, query_sql
from repro.workloads.tpch.refresh import (
    reload_deleted,
    rf1_statements,
    rf2_statements,
    undo_rf1_statements,
)

from harness import PHOENIX, PLAIN, Deployment, SliceLog, execute, fetch


class Workload:
    """Base: a workload without per-slice or periodic housekeeping."""

    name = ""
    #: triples of slices per second of ``--seconds``, as timed on the
    #: reference box; committed once, so the work of a run is fixed
    TRIPLES_PER_SECOND = 0.0
    #: set-up is done this often in a run and its median reported, so one
    #: slow load does not read as a set-up regression
    SETUPS = 5

    def __init__(self, seed: int):
        self.seed = seed

    def load(self, dep: Deployment) -> None:
        raise NotImplementedError

    def run_slice(self, dep: Deployment, side: str, rng, log: SliceLog) -> None:
        raise NotImplementedError

    def after_slice(self, dep: Deployment, side: str, log: SliceLog) -> None:
        """Untimed work after a slice (oracle reads, undoing a refresh)."""

    def maintain(self, dep: Deployment, triples_done: int) -> None:
        """Untimed operator work at fixed triple boundaries."""

    def final_check(self, dep: Deployment) -> list[str]:
        """End-of-run oracle; returns what is wrong (empty = correct)."""
        return []


def _insert_chunks(table: str, rows: list[tuple], size: int = 500) -> list[str]:
    return [
        f"INSERT INTO {table} VALUES "
        + ", ".join("(" + ", ".join(repr(v) for v in row) + ")" for row in rows[i : i + size])
        for i in range(0, len(rows), size)
    ]


def _fingerprint(rows: list[tuple]) -> list[str]:
    """Order-free answer fingerprint.  Numbers keep nine significant digits
    and no type: a refresh that is undone re-inserts rows in another order,
    so float sums differ in the last bits, and Phoenix's result tables hand
    an integer sum back as a float of the same value."""
    return sorted(
        repr(tuple(f"{v:.9g}" if isinstance(v, (int, float)) else v for v in row)) for row in rows
    )


class OltpPoint(Workload):
    """PK point SELECT and single-row UPDATE alternate on 5 000 rows:
    per-statement fixed cost (Phoenix round trips, status wrap, wire,
    dispatch, parse, one WAL force) dominates and the executor idles."""

    name = "oltp_point"
    TRIPLES_PER_SECOND = 1.6
    ROWS = 5_000
    PAIRS = 24

    def __init__(self, seed: int):
        super().__init__(seed)
        self.model = [0] * self.ROWS

    def load(self, dep):
        rows = [(k, 0, f"pad-{k:036d}") for k in range(self.ROWS)]
        dep.server_execute(
            ["CREATE TABLE acct (k INT PRIMARY KEY, v INT, pad VARCHAR(40))"]
            + _insert_chunks("acct", rows)
        )

    def run_slice(self, dep, side, rng, log):
        with dep.connect(side) as conn, conn.cursor() as cur:
            for _ in range(self.PAIRS):
                k = rng.randrange(self.ROWS)
                rows = log.run("select", lambda: fetch(cur, "SELECT k, v FROM acct WHERE k = ?", [k]))
                log.expect(rows == [(k, self.model[k])], f"acct[{k}] read {rows}, model {self.model[k]}")
                changed = log.run(
                    "dml", lambda: execute(cur, "UPDATE acct SET v = v + 1 WHERE k = ?", [k])
                )
                log.expect(changed == 1, f"UPDATE acct k={k} changed {changed} rows")
                if changed == 1:
                    self.model[k] += 1

    def final_check(self, dep):
        table = dep.server_execute(["SELECT k, v FROM acct"])
        if sorted(table) != list(enumerate(self.model)):
            return ["final acct table differs from the client-side model"]
        return []


class TpchPower(Workload):
    """The paper's Table 1: all 22 TPC-H queries plus RF1/RF2 at sf=0.001
    per session.  The executor does most of the work, so executor gains
    show here and wire/driver gains must not.

    The seed orders the queries of each pass (as the specification's
    streams do) and leaves the data alone: at this scale another data set
    moves the refresh sets and so the log bytes per statement by 3-5 %,
    which would be the spread of a count that otherwise repeats exactly."""

    name = "tpch_power"
    TRIPLES_PER_SECOND = 0.3
    SF = 0.001
    DATA_SEED = 42
    #: a set-up (load, checkpoint, two passes) takes four to five seconds
    SETUPS = 2
    #: the refresh functions applied per pass, each cycle after a third of
    #: the queries and undone untimed before the next.  One pair gives 8 DML
    #: samples against 22 queries, too few for a 95th percentile in a run of
    #: this length.  The statements fall in four classes of cost (about 1,
    #: 2, 4 and 11 ms: RF1's two inserts, RF2's two deletes); in pairs only,
    #: each class is a quarter of the samples and the median falls in the
    #: gap between the second and the third, where it jumps.  RF2 once more
    #: puts the median inside the third class and keeps the 95th percentile
    #: inside the fourth.
    REFRESHES = (("RF1", "RF2"), ("RF2",), ("RF1", "RF2"))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.data = None
        #: statement -> answer fingerprint, set by whichever side runs it
        #: first; every later pass on either side must reproduce it
        self.fingerprints: dict[str, object] = {}

    def load(self, dep):
        self.data = populate(dep.system, sf=self.SF, seed=self.DATA_SEED, checkpoint=False)

    def _same_answer(self, log, key, answer):
        first = self.fingerprints.setdefault(key, answer)
        log.expect(first == answer, f"{key}: answer differs from the first one seen")

    def run_slice(self, dep, side, rng, log):
        queries = rng.sample(QUERY_ORDER, len(QUERY_ORDER))
        cycles = len(self.REFRESHES)
        with dep.connect(side) as conn, conn.cursor() as cur:
            for cycle, functions in enumerate(self.REFRESHES):
                # a third of the queries, then one refresh cycle: the DML
                # samples of a pass come from three moments, not from one
                for query_id in queries[cycle::cycles]:
                    sql = query_sql(query_id, self.SF)
                    rows = log.run("select", lambda: fetch(cur, sql))
                    self._same_answer(log, query_id, rows and _fingerprint(rows))
                for name in functions:
                    self._refresh(conn, cur, log, name)
                if cycle < cycles - 1:  # the last is undone after the slice
                    log.untimed(lambda: self._undo_refresh(dep))

    def _refresh(self, conn, cur, log, name):
        """One refresh function: two transactions of two statements (paper
        §4).  A statement's sample carries the BEGIN or COMMIT next to it, so
        DML latency includes commit."""
        transactions = rf1_statements(self.data) if name == "RF1" else rf2_statements(self.data)
        for t, (first, second) in enumerate(transactions):

            def opening():
                conn.begin()
                return execute(cur, first)

            def closing():
                changed = execute(cur, second)
                conn.commit()
                return changed

            self._same_answer(log, f"{name}.{t}a", log.run("dml", opening))
            self._same_answer(log, f"{name}.{t}b", log.run("dml", closing))

    def _undo_refresh(self, dep):
        """Put the refreshed rows back so every refresh and every pass sees
        the same data."""
        statements = list(undo_rf1_statements(self.data))
        reload_deleted(self.data, statements.append)
        dep.server_execute(statements)

    def after_slice(self, dep, side, log):
        self._undo_refresh(dep)

    def final_check(self, dep):
        missing = [q for q in QUERY_ORDER if q not in self.fingerprints]
        return [f"queries never answered: {missing}"] if missing else []


class WriteBatch(Workload):
    """executemany batches of 16 INSERTs (wire batching, one group force per
    batch) with indexed range reads beside them: WAL, storage and batch
    (de)serialisation dominate, and the force is amortised where
    ``oltp_point`` pays it per statement."""

    name = "write_batch"
    TRIPLES_PER_SECOND = 2.0
    #: a set-up takes a quarter of a second, too short to time well
    SETUPS = 9
    BATCH = 16
    BATCHES = 8
    READ_EVERY = 2
    CHECKPOINT_EVERY = 4  # triples

    def __init__(self, seed: int):
        super().__init__(seed)
        self.next_key = 0

    def load(self, dep):
        dep.server_execute(
            [
                "CREATE TABLE ev (k INT PRIMARY KEY, seq INT, pad VARCHAR(64))",
                "CREATE INDEX ev_seq ON ev (seq)",
            ]
        )

    def run_slice(self, dep, side, rng, log):
        with dep.connect(side) as conn, conn.cursor() as cur:
            cur.set_attr(StatementAttr.BATCH_SIZE, self.BATCH)
            for batch in range(1, self.BATCHES + 1):
                first = self.next_key
                rows = [
                    [k, 3 * k, f"{rng.getrandbits(128):032x}"]
                    for k in range(first, first + self.BATCH)
                ]

                def insert():
                    cur.executemany("INSERT INTO ev VALUES (?, ?, ?)", rows)
                    return cur.rowcount

                inserted = log.run("dml", insert, statements=self.BATCH)
                log.expect(inserted == self.BATCH, f"batch at k={first} inserted {inserted} rows")
                self.next_key += self.BATCH
                if batch % self.READ_EVERY == 0:
                    newest = log.run(
                        "select",
                        lambda: fetch(
                            cur,
                            "SELECT seq, k FROM ev WHERE seq BETWEEN ? AND ? ORDER BY seq",
                            [3 * first, 3 * (first + self.BATCH - 1)],
                        ),
                    )
                    expected = [(3 * k, k) for k in range(first, first + self.BATCH)]
                    log.expect(newest == expected, f"range read at k={first} returned {newest}")

    def maintain(self, dep, triples_done):
        if triples_done % self.CHECKPOINT_EVERY == 0:
            dep.checkpoint()

    def final_check(self, dep):
        count = dep.server_execute(["SELECT count(*), min(k), max(k) FROM ev"])
        expected = [(self.next_key, 0, self.next_key - 1)]
        if count != expected:
            return [f"ev holds {count}, expected {expected}"]
        return []


class CrashRecovery(Workload):
    """The paper's Fig 2 plus exactly-once DML: each statement's reply is
    lost to an engine crash and the engine restarts from files.  The only
    workload that runs ``engine.recovery`` and ``core.recovery``."""

    name = "crash_recovery"
    TRIPLES_PER_SECOND = 1.25
    ROWS = 1_000
    GROUPS = 300
    CYCLES = 4
    FIRST_BLOCK = 100
    STEP = 5
    AGGREGATE = (
        f"SELECT k % {GROUPS} AS bucket, sum(v) AS total, count(*) AS n "
        f"FROM detail GROUP BY k % {GROUPS} ORDER BY bucket"
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self.values = [(k * 7 + seed) % 97 for k in range(self.ROWS)]
        self.aggregate = [
            (g, sum(self.values[g :: self.GROUPS]), len(self.values[g :: self.GROUPS]))
            for g in range(self.GROUPS)
        ]
        self.acknowledged = 0

    def load(self, dep):
        dep.server_execute(
            ["CREATE TABLE detail (k INT PRIMARY KEY, v INT)"]
            + _insert_chunks("detail", list(enumerate(self.values)))
            + [
                "CREATE TABLE wallet (id INT PRIMARY KEY, v INT)",
                "INSERT INTO wallet VALUES (1, 0), (2, 0)",
            ]
        )
        dep.checkpoint()
        dep.save_template()

    def _lose_reply(self, dep, needle):
        dep.system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, needle)

    def run_slice(self, dep, side, rng, log):
        if side == PHOENIX:
            self._phoenix_session(dep, rng, log)
        else:
            self._plain_session(dep, rng, log)

    def _phoenix_session(self, dep, rng, log):
        with dep.connect(PHOENIX) as conn:
            held = conn.cursor()  # cursor A: open across every crash
            held.execute(self.AGGREGATE)
            delivered = held.fetchmany(self.FIRST_BLOCK)
            for _ in range(self.CYCLES):
                k = rng.randrange(self.ROWS)
                with conn.cursor() as cur:
                    # the result-table fill executes, its reply is lost
                    self._lose_reply(dep, "EXEC phx_")
                    rows = log.run(
                        "select", lambda: fetch(cur, "SELECT k, v FROM detail WHERE k = ?", [k])
                    )
                    log.expect(rows == [(k, self.values[k])], f"detail[{k}] read {rows}")
                delivered += held.fetchmany(self.STEP)
                with conn.cursor() as cur:
                    self._lose_reply(dep, "UPDATE wallet SET")
                    changed = log.run(
                        "dml", lambda: execute(cur, "UPDATE wallet SET v = v + 1 WHERE id = 1")
                    )
                    log.expect(changed == 1, f"UPDATE wallet reported {changed} rows")
                    self.acknowledged += changed == 1
                delivered += held.fetchmany(self.STEP)
            delivered += held.fetchall()
            log.expect(delivered == self.aggregate, "cursor A lost or duplicated rows across restarts")

    def _plain_session(self, dep, rng, log):
        """The application without Phoenix: on a lost connection it waits
        for the engine, reconnects, recomputes the aggregate and reads back
        to where it was, then re-executes the statement (at least once —
        hence its own wallet row, which no oracle reads)."""
        state = {"conn": dep.connect(PLAIN)}
        state["held"] = state["conn"].cursor()
        state["held"].execute(self.AGGREGATE)
        delivered = state["held"].fetchmany(self.FIRST_BLOCK)

        def recompute():
            dep.restart_if_down()
            state["conn"].close()
            state["conn"] = dep.connect(PLAIN)
            state["held"] = state["conn"].cursor()
            state["held"].execute(self.AGGREGATE)
            if state["held"].fetchmany(len(delivered)) != delivered:
                raise errors.DataError("recomputed aggregate differs from the rows delivered")

        def surviving(call):
            def attempt():
                try:
                    return call()
                except errors.CommunicationError:
                    recompute()
                    return call()

            return attempt

        try:
            for _ in range(self.CYCLES):
                k = rng.randrange(self.ROWS)
                self._lose_reply(dep, "FROM detail WHERE k =")
                rows = log.run(
                    "select",
                    surviving(
                        lambda: fetch(state["conn"].cursor(), "SELECT k, v FROM detail WHERE k = ?", [k])
                    ),
                )
                log.expect(rows == [(k, self.values[k])], f"detail[{k}] read {rows}")
                delivered += state["held"].fetchmany(self.STEP)
                self._lose_reply(dep, "UPDATE wallet SET")
                log.run(
                    "dml",
                    surviving(
                        lambda: execute(
                            state["conn"].cursor(), "UPDATE wallet SET v = v + 1 WHERE id = 2"
                        )
                    ),
                )
                delivered += state["held"].fetchmany(self.STEP)
            delivered += state["held"].fetchall()
            log.expect(delivered == self.aggregate, "plain recompute delivered the wrong aggregate")
        finally:
            state["conn"].close()

    def after_slice(self, dep, side, log):
        wallet = dep.server_execute(["SELECT v FROM wallet WHERE id = 1"])
        log.expect(
            wallet == [(self.acknowledged,)],
            f"exactly-once broken: wallet {wallet}, acknowledged {self.acknowledged}",
        )
        orphans = [t for t in dep.system.server.table_names() if t.startswith("phx_")]
        log.expect(not orphans, f"phx_ tables left after close(): {orphans[:3]}")

        # Restart cost grows with all the log ever written (the time-travel
        # index is rebuilt from the whole archive), so every slice starts
        # from the files as loaded; otherwise a stall would measure how many
        # slices the box managed before it, not the code.
        dep.reset_to_template()
        self.acknowledged = 0


WORKLOADS = {w.name: w for w in (OltpPoint, TpchPower, WriteBatch, CrashRecovery)}
