"""Shared fixture for the benchmark suite: one populated TPC-H system per
session (scale factor chosen for seconds-scale total runtime); benches that
crash servers build their own systems.
"""

from __future__ import annotations

import pytest

import repro
from repro.workloads.tpch.datagen import populate

BENCH_SF = 0.001
BENCH_SEED = 42


@pytest.fixture(scope="session")
def tpch_system():
    """A system with TPC-H loaded; shared by read-only benchmarks."""
    system = repro.make_system()
    data = populate(system, sf=BENCH_SF, seed=BENCH_SEED)
    return system, data

