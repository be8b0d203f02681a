"""Tests for the experiment registry and the reporting CLI (fast: every
registered runner is stubbed)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import harness, reporting
from repro.bench.harness import Fig2Point, Table1Row
from repro.bench.skeleton import payload
from repro.chaos import SWEPT_FAULTS, ChaosReport, ChaosRunResult
from repro.chaos import __main__ as chaos_cli
from repro.net.faults import FaultKind

REPO = Path(__file__).resolve().parent.parent


def _chaos_reports() -> list[ChaosReport]:
    """A canned chaos sweep per transport: one run of each fault kind, then
    one multi-fault run, each recovering once."""
    schedules = [((3, kind),) for kind in SWEPT_FAULTS]
    schedules.append(((3, FaultKind.HANG), (9, FaultKind.DROP_CONNECTION)))
    results = [ChaosRunResult(s, [], (), 1, 0, 0.001, 0.001) for s in schedules]
    return [
        ChaosReport(golden_requests=45, results=results, transport=transport)
        for transport in ("inprocess", "tcp")
    ]


#: one canned result per registered experiment, shaped like a real run
STUBS = {
    "table1": [
        Table1Row("Q1", 6, 0.05, 0.052),
        Table1Row("Total Query", 6, 0.05, 0.052),
    ],
    "fig2": [Fig2Point(100, 0.0004, 0.001, 0.0001, 0.05)],
    "availability": [
        harness.AvailabilityResult("native", 20, 14, 6),
        harness.AvailabilityResult("phoenix", 20, 20, 19),
    ],
    "recovery_breakdown": [
        harness.RecoveryBreakdownRow("hang", 12, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ],
    "concurrency": harness.ConcurrencyResult(
        latency=0.002,
        segments=16,
        ops_per_segment=9,
        throughput=[
            harness.ConcurrencyThroughputRow(1, 144, 0.8, 5, 1.0),
            harness.ConcurrencyThroughputRow(16, 144, 0.2, 5, 4.0),
        ],
        recovery=[
            harness.ConcurrencyRecoveryRow(sessions, mode, workers, 0.1, sessions, 5)
            for sessions in (4, 16)
            for mode, workers in (("serial", 1), ("parallel", 8))
        ],
        contention_rounds=6,
        contention_ops_per_txn=4,
        contention=[
            harness.ContentionRow(scenario, clients, 24 * clients, 0.1, 5, 0, 0.0)
            for clients in (1, 16)
            for scenario in ("hot_row_locks", "hot_table_locks", "disjoint")
        ],
        multi_client_chaos={
            k: {
                "runs": 4, "recovered": 4, "recovered_fraction": 1.0, "crashes": 4,
                "recoveries": 4 * k, "deadlock_retries": 0, "violations": [],
            }
            for k in (1, 4, 16)
        },
    ),
}


@pytest.fixture()
def stubbed(monkeypatch):
    """Replace the runner of *every* registered experiment — including any
    registered later: an experiment without a stub fails here, instead of
    silently running for a minute inside ``test_cli_all``."""
    for name, experiment in reporting.EXPERIMENTS.items():
        assert name in STUBS, f"experiment {name!r} is registered but has no stub"
        monkeypatch.setattr(experiment, "runner", lambda _result=STUBS[name], **kw: _result)


def test_cli_table1(stubbed, capsys):
    assert reporting.main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Q1" in out


def test_cli_fig2(stubbed, capsys):
    assert reporting.main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out and "virtual session" in out


def test_cli_all(stubbed, capsys, tmp_path):
    path = tmp_path / "all.json"
    assert reporting.main(["all", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    for experiment in reporting.EXPERIMENTS.values():
        assert experiment.title in out
    document = json.loads(path.read_text())
    assert list(document) == [e.key for e in reporting.EXPERIMENTS.values()]


def test_cli_chaos(monkeypatch, capsys):
    """The chaos sweep's own CLI renders its table, footer under the rows."""
    monkeypatch.setattr(chaos_cli, "run_sweep", lambda **kw: _chaos_reports())
    assert chaos_cli.main(["--transport", "inprocess", "tcp"]) == 0
    out = capsys.readouterr().out
    assert "Experiment CH" in out
    assert "multi_fault" in out and "crash_mid_restore" in out
    assert "inprocess: 100.0% recovered, 10 recoveries" in out
    assert "tcp: 100.0% recovered, 10 recoveries" in out


def test_cli_json_artifact(stubbed, capsys, tmp_path):
    path = tmp_path / "BENCH_table1.json"
    assert reporting.main(["table1", "--json", str(path)]) == 0
    rows = json.loads(path.read_text())["table1"]
    assert [row["name"] for row in rows] == ["Q1", "Total Query"]
    # a ``derived`` property is part of the document, not only the fields
    assert rows[0]["ratio"] == pytest.approx(0.052 / 0.05)


def test_cli_rejects_unknown_artifact(stubbed):
    with pytest.raises(SystemExit):
        reporting.main(["table7"])


def test_cli_passes_declared_options_to_the_runner(monkeypatch, capsys):
    seen = {}
    experiment = reporting.EXPERIMENTS["table1"]
    monkeypatch.setattr(
        experiment, "runner", lambda **kw: seen.update(kw) or STUBS["table1"]
    )
    assert reporting.main(["table1", "--reps", "2", "--sf", "0.002"]) == 0
    assert seen == {"sf": 0.002, "repetitions": 2}


# -- the JSON document is derived from the result types: pin its keys ----------

#: key sets the pre-registry ``_*_json`` functions wrote for the four
#: experiments that have no committed BENCH_*.json
UNCOMMITTED_KEYS = {
    "table1": {"name", "result_rows", "native_seconds", "phoenix_seconds", "difference",
               "ratio"},
    "fig2": {"result_size", "virtual_session_seconds", "sql_state_seconds",
             "outstanding_fetch_seconds", "recovery_seconds", "recompute_seconds"},
    "availability": {"driver", "sessions_total", "sessions_completed", "availability",
                     "crashes"},
    "recovery_breakdown": {"kind", "runs", "recoveries", "mean_pings", "mean_await_ms",
                           "mean_phase1_ms", "mean_phase2_ms", "mean_total_ms"},
}


def _committed_documents() -> dict:
    documents = {}
    for path in REPO.glob("BENCH_*.json"):
        documents.update(json.loads(path.read_text()))
    return documents


def _assert_same_keys(ours, committed, where: str) -> None:
    if isinstance(committed, dict):
        assert isinstance(ours, dict), where
        assert set(ours) == set(committed), where
        for key, value in committed.items():
            _assert_same_keys(ours[key], value, f"{where}.{key}")
    elif isinstance(committed, list) and committed:
        assert isinstance(ours, list) and ours, where
        _assert_same_keys(ours[0], committed[0], f"{where}[]")


@pytest.mark.parametrize("name", [*reporting.EXPERIMENTS, "chaos"])
def test_derived_json_keys_match_the_committed_artifact(name):
    if name == "chaos":  # the chaos sweep's document is ChaosReport.summary()
        ours = [report.summary() for report in _chaos_reports()]
        _assert_same_keys(ours, _committed_documents()["chaos"], "chaos")
        return
    experiment = reporting.EXPERIMENTS[name]
    rows = STUBS[name] if isinstance(STUBS[name], list) else [STUBS[name]]
    assert all(isinstance(row, experiment.result_type) for row in rows)
    ours = payload(STUBS[name])
    if name in UNCOMMITTED_KEYS:
        assert all(set(row) == UNCOMMITTED_KEYS[name] for row in ours)
    else:
        _assert_same_keys(ours, _committed_documents()[experiment.key], experiment.key)


def test_render_table1_handles_nan_ratio():
    text = reporting.EXPERIMENTS["table1"].render([Table1Row("Q0", 0, 0.0, 0.1)])
    assert "nan" in text


def test_render_fig2_bar_scale_never_divides_by_zero():
    text = reporting.EXPERIMENTS["fig2"].render([Fig2Point(1, 0.0, 0.0, 0.0, 0.0)])
    assert "Figure 2" in text


def test_round_trip_row_projection():
    row = harness.RoundTripRow("Q1", native_trips=1, phoenix_trips=4,
                               native_bytes=100, phoenix_bytes=300)
    assert row.projected_overhead_seconds(0.03) == pytest.approx(0.09)
