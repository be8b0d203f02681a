"""CI's chaos count check: a sweep whose runs or recoveries differ from the
committed BENCH_chaos.json fails, whatever its timings."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_chaos_counts", REPO_ROOT / "scripts" / "check_chaos_counts.py"
)
check_chaos_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_chaos_counts)


def test_only_counts_are_compared():
    committed = json.loads((REPO_ROOT / "BENCH_chaos.json").read_text(encoding="utf-8"))
    fresh = copy.deepcopy(committed)
    for summary in fresh["chaos"]:
        summary["elapsed_seconds"] *= 2
        summary["mean_virtual_session_seconds"] *= 2
    assert check_chaos_counts.drift(committed, fresh) == []

    inprocess = next(s for s in fresh["chaos"] if s["transport"] == "inprocess")
    inprocess["by_kind"]["crash_mid_drain"]["recoveries"] += 1
    inprocess["total_recoveries"] += 1
    before = committed["chaos"][0]["total_recoveries"]
    assert check_chaos_counts.drift(committed, fresh) == [
        "inprocess crash_mid_drain.recoveries: committed 74, this run 75",
        f"inprocess total_recoveries: committed {before}, this run {before + 1}",
    ]
