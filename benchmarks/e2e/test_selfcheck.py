"""Self-check of the benchmark: names, determinism of the counts, the oracle,
the ledger's coverage.  Run with ``python -m pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
COUNTS = ("round_trips_per_op", "wal_bytes_per_op", "wal_forces_per_op")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def quick(tmp_path_factory, seed: int) -> dict:
    """One ``--quick`` run of all workloads → {(workload, trace): run}."""
    out = tmp_path_factory.mktemp("quick") / "results.json"
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr[-2000:]
    with open(out) as results:
        return {(r["workload"], r["trace"]): r for r in json.load(results)["runs"]}


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return quick(tmp_path_factory, 1)


@pytest.fixture(scope="module")
def again(tmp_path_factory):
    return quick(tmp_path_factory, 1)


@pytest.fixture(scope="module")
def other_seed(tmp_path_factory):
    return quick(tmp_path_factory, 2)


def test_emits_exactly_the_declared_metrics(first):
    declared = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    assert {w for w, _ in first} == {w["name"] for w in SPEC["workloads"]}
    for (workload, trace), run in first.items():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, workload
        units = {name: m["unit"] for name, m in run["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in declared[trace]}, (workload, trace)


def test_counts_repeat_exactly_for_one_seed(first, again):
    for workload in (w["name"] for w in SPEC["workloads"]):
        for name in COUNTS:
            a = first[workload, 0]["metrics"][name]["value"]
            b = again[workload, 0]["metrics"][name]["value"]
            assert a == b, (workload, name)


def test_another_seed_moves_only_what_the_key_stream_moves(first, other_seed):
    # statement shapes do not depend on the seed, so trips and forces stay
    # everywhere; the bytes logged follow the keys drawn (their digits) ...
    for workload in (w["name"] for w in SPEC["workloads"]):
        for name in ("round_trips_per_op", "wal_forces_per_op"):
            a = first[workload, 0]["metrics"][name]["value"]
            b = other_seed[workload, 0]["metrics"][name]["value"]
            assert a == b, (workload, name)
    a = first["oltp_point", 0]["metrics"]["wal_bytes_per_op"]["value"]
    b = other_seed["oltp_point", 0]["metrics"]["wal_bytes_per_op"]["value"]
    assert a != b and abs(a - b) / a < 0.01
    # ... and where the seed draws no key into the log they stay too: batch
    # keys are sequential, the pad is random but of fixed length
    a = first["write_batch", 0]["metrics"]["wal_bytes_per_op"]["value"]
    b = other_seed["write_batch", 0]["metrics"]["wal_bytes_per_op"]["value"]
    assert a == b


def test_layers_cover_the_statement_time(first):
    for workload in ("oltp_point", "tpch_power"):
        share = first[workload, 1]["metrics"]["trace.unattributed_share"]["value"]
        assert abs(share) <= 0.10, (workload, share)
    assert first["oltp_point", 1]["metrics"]["engine.locks.waits"]["value"] == 0


def test_recovery_layers_run_only_under_crashes(first):
    for (workload, trace), run in first.items():
        if not trace:
            continue
        for name, metric in run["metrics"].items():
            if name.startswith(("engine.recovery.", "core.recovery.")):
                assert (metric["value"] > 0) == (workload == "crash_recovery"), (workload, name)


def test_reference_kernel_is_independent_of_the_program():
    with open(os.path.join(HERE, "refkernel.py")) as source:
        assert "repro" not in source.read().replace("reproduc", "")


def test_a_wrong_answer_fails_the_run():
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "oltp_point", "--seconds", "0.2", "--inject-wrong-answer"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    # the driver also runs the command where only BENCHMARK.json and the
    # benchmark's own files exist: no result, non-zero exit
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", ".work", "__pycache__")
    )
    done = subprocess.run(
        SPEC["command"] + ["--workload", "oltp_point", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env={**os.environ, "PYTHONPATH": ""},
    )  # fmt: skip
    assert done.returncode != 0
    assert "correct" not in done.stdout
