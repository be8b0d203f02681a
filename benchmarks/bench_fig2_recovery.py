"""Figure 2 — elapsed time for session recovery over varying result sizes.

The paper's experiment: run a query, fetch to near the end, kill the
server, restart it, and time Phoenix recovering the session and answering
the outstanding fetch — split into the *virtual session* phase (constant,
0.37 s in the paper) and the *SQL state* phase (repositioning, grows with
the result).  §4 also claims recovery costs "less than a tenth of the time
required to simply recompute" the query; we assert the weaker shape
(recovery strictly cheaper than recompute) and record the measured ratio in
EXPERIMENTS.md.

Full series: ``python -m repro.bench.reporting fig2``.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro.bench.harness import run_fig2_recovery_sweep
from repro.errors import CommunicationError

RESULT_SIZES = [100, 1000, 2500]
TABLE_ROWS = 12_000


def _build_system(table_rows: int = TABLE_ROWS):
    system = repro.make_system()
    loader = system.server.connect(user="loader")
    system.server.execute(loader, "CREATE TABLE bench_rows (k INT PRIMARY KEY, v FLOAT)")
    for start in range(0, table_rows, 1000):
        values = ", ".join(
            f"({k}, {(k % 97) * 1.5})"
            for k in range(start + 1, min(start + 1001, table_rows + 1))
        )
        system.server.execute(loader, f"INSERT INTO bench_rows VALUES {values}")
    system.server.checkpoint()
    system.server.disconnect(loader)
    return system


def _sql(size: int) -> str:
    return (
        f"SELECT k % {size} AS bucket, sum(v) AS total, avg(v) AS mean, count(*) AS n "
        f"FROM bench_rows GROUP BY k % {size} ORDER BY bucket"
    )


@pytest.fixture(scope="module")
def fig2_system():
    return _build_system()


@pytest.mark.parametrize("size", RESULT_SIZES)
def test_fig2_session_recovery(benchmark, fig2_system, size):
    """Time one full Phoenix session recovery at a given result size."""
    system = fig2_system

    def setup():
        connection = system.phoenix.connect(system.DSN)
        connection.config.sleep = lambda _s: None
        cursor = connection.cursor()
        cursor.execute(_sql(size))
        cursor.fetchmany(size - 5)
        system.server.crash()
        system.endpoint.restart_server()
        return (connection, cursor), {}

    def recover(connection, cursor):
        connection.recovery.recover(CommunicationError("bench crash"))
        tail = cursor.fetchall()
        connection.close()
        return tail

    tail = benchmark.pedantic(recover, setup=setup, rounds=3)
    assert len(tail) == 5


@pytest.mark.parametrize("size", RESULT_SIZES)
def test_fig2_recompute_baseline(benchmark, fig2_system, size):
    """The comparison bar: re-running the query natively + redelivery."""
    system = fig2_system
    connection = system.plain.connect(system.DSN)
    cursor = connection.cursor()
    sql = _sql(size)

    def recompute():
        cursor.execute(sql)
        return cursor.fetchall()

    rows = benchmark(recompute)
    assert len(rows) == size
    connection.close()


def test_fig2_shape():
    """Pin the figure's qualitative claims on one fresh sweep:

    * virtual-session recovery time is independent of result size;
    * total recovery beats recomputation at every size.
    """
    points = run_fig2_recovery_sweep(
        result_sizes=[100, 1000, 2500], table_rows=TABLE_ROWS
    )
    virtuals = [p.virtual_session_seconds for p in points]
    assert max(virtuals) < 0.1, "virtual session recovery should be near-instant"
    # size-independence: the largest result's virtual phase is within an
    # order of magnitude of the smallest's (absolute values are sub-ms)
    assert max(virtuals) < 10 * max(min(virtuals), 1e-4)
    for point in points:
        assert point.recovery_seconds < point.recompute_seconds, (
            f"recovery ({point.recovery_seconds:.4f}s) should beat recompute "
            f"({point.recompute_seconds:.4f}s) at size {point.result_size}"
        )


def test_fig2_recovery_vs_recompute_ratio():
    """§4's stronger claim, on the compute-heavy end: with a large detail
    table and the paper's ~2500-row result, recovery costs a small fraction
    of recomputation."""
    (point,) = run_fig2_recovery_sweep(result_sizes=[2500], table_rows=20_000)
    assert point.recovery_vs_recompute < 0.75, (
        f"recovery/recompute = {point.recovery_vs_recompute:.2f}"
    )
