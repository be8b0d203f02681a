"""Tests for the benchmark harness and reporting (fast, tiny parameters)."""

from __future__ import annotations

import math

import pytest

import repro
from repro.bench.harness import (
    Fig2Point,
    Table1Row,
    run_chaos_experiment,
    run_fig2_recovery_sweep,
    run_obs_overhead,
    run_recovery_breakdown,
    run_table1_power_comparison,
)
from repro.bench.reporting import EXPERIMENTS
from repro.net.faults import BATCH_FAULTS, DRAIN_FAULTS, STORAGE_FAULTS, WIRE_FAULTS
from repro.workloads.tpch.datagen import populate


@pytest.fixture(scope="module")
def tiny():
    system = repro.make_system()
    data = populate(system, sf=0.0005, seed=3)
    return system, data


def test_table1_row_derived_columns():
    row = Table1Row("Q1", 10, native_seconds=2.0, phoenix_seconds=2.2)
    assert abs(row.difference - 0.2) < 1e-12
    assert abs(row.ratio - 1.1) < 1e-12


def test_table1_ratio_handles_zero_native():
    row = Table1Row("Q0", 0, native_seconds=0.0, phoenix_seconds=0.1)
    assert math.isnan(row.ratio)


def test_table1_comparison_has_totals(tiny):
    system, data = tiny
    rows = run_table1_power_comparison(
        system=system, data=data, repetitions=1, queries=["Q1", "Q6"]
    )
    names = [r.name for r in rows]
    assert "Total Query" in names and "Total Updates" in names
    total = next(r for r in rows if r.name == "Total Query")
    parts = [r for r in rows if r.name in ("Q1", "Q6")]
    assert abs(total.native_seconds - sum(p.native_seconds for p in parts)) < 1e-9


def test_fig2_point_totals():
    point = Fig2Point(100, 0.1, 0.2, 0.05, recompute_seconds=1.0)
    assert abs(point.recovery_seconds - 0.35) < 1e-12
    assert abs(point.recovery_vs_recompute - 0.35) < 1e-12


def test_fig2_sweep_produces_points():
    points = run_fig2_recovery_sweep(result_sizes=[50, 100], table_rows=500)
    assert [p.result_size for p in points] == [50, 100]
    for point in points:
        assert point.virtual_session_seconds > 0
        assert point.recompute_seconds > 0


def test_render_table1_layout():
    rows = [Table1Row("Q1", 5, 1.0, 1.1), Table1Row("Total Query", 5, 1.0, 1.1)]
    text = EXPERIMENTS["table1"].render(rows)
    assert "Table 1" in text
    assert "Q1" in text and "Total Query" in text
    assert "1.100" in text  # the ratio column


def test_render_fig2_layout():
    text = EXPERIMENTS["fig2"].render([Fig2Point(100, 0.001, 0.002, 0.0, 0.05)])
    assert "Figure 2" in text
    assert "100" in text
    assert "V = virtual session" in text


# -- real toy-scale runs of the experiments test_reporting.py only stubs ------


def test_recovery_breakdown_has_one_row_per_fault_kind():
    rows = run_recovery_breakdown(stride=16)
    assert [r.kind for r in rows] == [k.value for k in WIRE_FAULTS + STORAGE_FAULTS]
    by_kind = {r.kind: r for r in rows}
    assert by_kind["hang"].recoveries == 0  # every timeout is spurious: nothing rebuilt
    crash = by_kind["crash_before_execute"]
    assert crash.recoveries > 0 and crash.mean_pings >= 1
    assert crash.mean_total_ms >= crash.mean_phase1_ms + crash.mean_phase2_ms > 0
    assert "crash_before_execute" in EXPERIMENTS["recovery_breakdown"].render(rows)


def test_obs_overhead_tracing_changes_no_result():
    result = run_obs_overhead(trace_iterations=4, timing_trials=3)
    assert result.fingerprints_match
    # 4 iterations of (2 probes + 1 UPDATE), and the one materialised SELECT
    assert result.statements == 4 * 3 + 1 and result.trials == 3
    assert result.records_captured > result.spans_absorbed > 0
    assert "results identical" in EXPERIMENTS["obs_overhead"].render(result)


def test_chaos_experiment_recovers_every_thinned_schedule():
    result = run_chaos_experiment(stride=8, random_runs=2)
    assert result.recovered_fraction == 1.0 and not result.failures
    kinds = WIRE_FAULTS + STORAGE_FAULTS + BATCH_FAULTS + DRAIN_FAULTS
    assert list(result.by_kind) == [k.value for k in kinds] + ["multi_fault"]
    assert result.runs == sum(cell["runs"] for cell in result.by_kind.values())
    assert result.by_kind["multi_fault"]["runs"] == 2
    assert "100.0% recovered" in EXPERIMENTS["chaos"].render(result)
