"""Chaos engine: trace runner, exactly-once oracle, schedule exploration.

The exhaustive sweep itself runs in CI (``python -m repro.chaos``); here we
pin the machinery — golden determinism, oracle sensitivity (it must *fail*
on tampered records), targeted fault placements, reproducibility of the
seeded multi-fault mode, and the front end's document and exit status.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.chaos import (
    RECOVERY_FAULTS,
    SWEPT_FAULTS,
    ChaosExplorer,
    check_run,
    probe_dml_trace,
    run_trace,
)
from repro.net.faults import STORAGE_FAULTS, WIRE_FAULTS, FaultKind


@pytest.fixture(scope="module")
def explorer() -> ChaosExplorer:
    ex = ChaosExplorer(seed=11)
    ex.golden  # noqa: B018 — prime the cache once per module
    return ex


# ------------------------------------------------------------------ golden run

def test_golden_run_is_clean_and_deterministic(explorer):
    golden = explorer.golden
    assert golden.completed and not golden.error
    assert golden.orphan_sessions == 0 and golden.orphan_cursors == 0
    assert golden.leftover_tables == ()
    assert golden.requests_seen > 20
    again = run_trace(probe_dml_trace())
    assert again.observations == golden.observations
    assert again.status_rows == golden.status_rows
    assert again.fingerprints == golden.fingerprints
    assert again.requests_seen == golden.requests_seen


def test_golden_run_against_itself_passes_oracle(explorer):
    assert check_run(explorer.golden, explorer.golden) == []


# ------------------------------------------------------------------ the oracle

def _with_client(record, **changes):
    """``record`` with fields of its one client replaced."""
    [client] = record.clients
    return dataclasses.replace(record, clients=[dataclasses.replace(client, **changes)])


def test_oracle_catches_lost_observation(explorer):
    [client] = explorer.golden.clients
    tampered = _with_client(explorer.golden, observations=client.observations[:-1])
    violations = check_run(explorer.golden, tampered)
    assert any("truncated" in v for v in violations)


def test_oracle_catches_duplicated_status_row(explorer):
    rows = set(explorer.golden.clients[0].status_rows)
    seq = max(s for s, _ in rows)
    rows.add((seq + 1, 99))
    tampered = _with_client(explorer.golden, status_rows=frozenset(rows))
    violations = check_run(explorer.golden, tampered)
    assert any("duplicated" in v for v in violations)


def test_oracle_catches_lost_status_row(explorer):
    rows = sorted(explorer.golden.clients[0].status_rows)[:-1]
    tampered = _with_client(explorer.golden, status_rows=frozenset(rows))
    violations = check_run(explorer.golden, tampered)
    assert any("lost" in v for v in violations)


def test_oracle_catches_fingerprint_divergence(explorer):
    prints = dict(explorer.golden.fingerprints)
    prints["accounts"] = prints["accounts"][:-1]
    tampered = dataclasses.replace(explorer.golden, fingerprints=prints)
    violations = check_run(explorer.golden, tampered)
    assert any("diverged from golden fingerprint" in v for v in violations)


def test_oracle_catches_orphaned_sessions(explorer):
    tampered = dataclasses.replace(explorer.golden, orphan_sessions=2)
    violations = check_run(explorer.golden, tampered)
    assert any("orphaned" in v for v in violations)


# ----------------------------------------------------------- targeted schedules

@pytest.mark.parametrize("kind", WIRE_FAULTS, ids=lambda k: k.value)
def test_each_wire_fault_mid_trace_passes_oracle(explorer, kind):
    # index 20 lands mid-DML, well past connect and before the transaction
    result = explorer.run_schedule(((20, kind),))
    assert result.violations == []
    assert result.fired == (kind.value,)


@pytest.mark.parametrize("kind", STORAGE_FAULTS, ids=lambda k: k.value)
def test_each_storage_fault_mid_trace_passes_oracle(explorer, kind):
    result = explorer.run_schedule(((20, kind),))
    assert result.violations == []
    assert result.fired == (kind.value,)
    assert result.recoveries >= 1  # a storage fault always downs the server


def test_fault_during_connect_sequence_leaves_no_orphans(explorer):
    # requests 0-3 are connect+connect+fixtures: historically these leaked
    # a server session per retry (the chaos sweep's first real find)
    for index in range(4):
        result = explorer.run_schedule(((index, FaultKind.HANG),))
        assert result.violations == [], (index, result.violations)


def test_wrapped_ddl_rowcount_survives_replay(explorer):
    # CRASH_AFTER_EXECUTE on the wrapped CREATE executes it, kills the
    # reply, and forces reconstruction from the status table — the
    # reconstructed rowcount must equal the live one (sweep find #2)
    result = explorer.run_schedule(((5, FaultKind.CRASH_AFTER_EXECUTE),))
    assert result.violations == []


def test_crash_between_transaction_phases(explorer):
    golden = explorer.golden
    # fire at every request of the explicit-transaction window (begin ..
    # commit); exactly-once for the commit is the paper's §3 acid test
    begin_i = next(
        i for i, o in enumerate(golden.clients[0].observations) if o[0] == "begin"
    )
    assert begin_i > 0
    for index in range(25, 40):
        result = explorer.run_schedule(((index, FaultKind.CRASH_AFTER_EXECUTE),))
        assert result.violations == [], (index, result.violations)


def test_strided_single_fault_sweep(explorer):
    report = explorer.sweep(WIRE_FAULTS, stride=9)
    assert report.runs == 4 * len(range(0, explorer.golden.requests_seen, 9))
    assert report.recovered_fraction == 1.0, report.summary()


def test_strided_storage_sweep(explorer):
    report = explorer.sweep(STORAGE_FAULTS, stride=9)
    assert report.recovered_fraction == 1.0, report.summary()
    assert report.total_recoveries > 0


# -------------------------------------------------------- seeded multi-fault

def test_random_schedules_reproducible_from_seed():
    a = ChaosExplorer(seed=1234)
    b = ChaosExplorer(seed=1234)
    c = ChaosExplorer(seed=4321)
    assert a.random_schedules(6) == b.random_schedules(6)
    assert a.random_schedules(6) != c.random_schedules(6)


def test_random_schedule_shape(explorer):
    schedules = explorer.random_schedules(10, min_faults=2, max_faults=4)
    assert len(schedules) == 10
    for schedule in schedules:
        assert 2 <= len(schedule) <= 4
        assert [i for i, _ in schedule] == sorted(i for i, _ in schedule)


def test_multi_fault_runs_pass_oracle(explorer):
    report = explorer.sweep((), random_runs=5)
    assert report.runs == 5
    assert report.recovered_fraction == 1.0, report.summary()


def test_run_schedule_records_recovery_phase_split(explorer):
    result = explorer.run_schedule(((10, FaultKind.CRASH_BEFORE_EXECUTE),))
    assert result.recoveries >= 1
    assert result.virtual_session_seconds > 0.0
    assert result.sql_state_seconds > 0.0


# ------------------------------------------------------ faults inside recovery

def test_second_order_schedules_place_a_fault_at_each_recovery_request(explorer):
    """Each wire fault whose run rebuilt the session is kept as the first
    fault, and the second goes to one of the requests its recoveries sent —
    all of them after the first fault, none of them refused as down."""
    found = explorer.recovery_requests(stride=5)
    assert {kind for (_index, kind), _requests in found} == {
        FaultKind.CRASH_BEFORE_EXECUTE,
        FaultKind.CRASH_AFTER_EXECUTE,
        FaultKind.DROP_CONNECTION,
    }
    for (index, _kind), requests in found:
        assert requests and index < min(requests)
        assert list(requests) == sorted(set(requests))
    every = [(first, (i, FaultKind.HANG)) for first, requests in found for i in requests]
    assert explorer.placements(FaultKind.HANG, stride=5, second_order=True) == every[::5]


def test_strided_second_order_sweep_recovers_every_schedule(explorer):
    """Tier-1's slice of the second-order sweep; CI's chaos-smoke runs the
    full density, ``python -m repro.chaos --second-order``."""
    report = explorer.sweep(RECOVERY_FAULTS, stride=5, second_order=True)
    assert list(report.by_kind) == [f"{kind.value} in recovery" for kind in RECOVERY_FAULTS]
    assert report.runs > 10
    assert report.recovered_fraction == 1.0, report.summary()["failures"]


# ------------------------------------------------------------- the front end

def test_cli_sweeps_each_transport_and_writes_one_document(tmp_path, capsys):
    from repro.chaos.__main__ import main

    path = tmp_path / "BENCH_chaos.json"
    argv = ["--stride", "43", "--random-runs", "1", "--transport", "inprocess", "tcp",
            "--json", str(path)]
    assert main(argv) == 0
    assert "Experiment CH" in capsys.readouterr().out
    rows = json.loads(path.read_text())["chaos"]
    assert [row["transport"] for row in rows] == ["inprocess", "tcp"]
    for row in rows:
        assert row["recovered_fraction"] == 1.0 and row["failures"] == []
        assert list(row["by_kind"]) == [k.value for k in SWEPT_FAULTS] + ["multi_fault"]
    # the same schedules recover the same way over either transport
    assert rows[0]["by_kind"] == rows[1]["by_kind"]


def test_cli_exits_nonzero_and_traces_each_failing_schedule(tmp_path, capsys, monkeypatch):
    from repro.chaos import explorer as explorer_module
    from repro.chaos.__main__ import main

    monkeypatch.setattr(
        explorer_module, "check_run",
        lambda golden, record: ["planted violation"] if record.fired else [],
    )
    argv = ["--stride", "43", "--random-runs", "0", "--trace-dir", str(tmp_path)]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "FAILING SCHEDULE(S)" in out and "planted violation" in out
    assert "[inprocess] [crash_after_execute@0]" in out
    assert (tmp_path / "failure-0.jsonl").stat().st_size > 0


# ------------------------------------------------------------- session reaping

def test_drop_mid_txn_leaves_no_lock_holding_orphan(explorer):
    # DROP_CONNECTION while a transaction holds locks: the old session must
    # be reaped during recovery or it would block the replay forever
    result = explorer.run_schedule(((30, FaultKind.DROP_CONNECTION),))
    assert result.violations == []


def test_clean_close_reaps_unacked_disconnects(system):
    connection = system.phoenix.connect(system.DSN)
    system.faults.schedule(FaultKind.DROP_CONNECTION)  # eats one disconnect
    connection.close()
    assert len(system.server.sessions) == 0
    assert connection.stats.sessions_reaped >= 1
