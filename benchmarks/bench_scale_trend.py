"""Scale trend — Phoenix's Table 1 overhead ratio converges to 1 with scale.

Phoenix's per-query costs (extra round trips, the server-side fill) are
fixed or O(result size), while query compute grows with the data.  The
paper measured ≈1% at SF 1; our micro scales sit higher, and this bench
pins the *trend* connecting the two: quadrupling the scale factor moves the
scan-bound ratio toward ~1.0 (from ~1.4 when a SELECT was four requests and
five forces; since a SELECT became one request and one force both scales sit
within run-to-run noise of 1.0, so the margin below is noise, not trend).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_table1_power_comparison

SCAN_BOUND = ["Q1", "Q3", "Q6", "Q10", "Q12", "Q14", "Q16"]
SCALES = [0.0005, 0.002]


def ratio_at(sf: float, repetitions: int = 2) -> float:
    rows = run_table1_power_comparison(sf=sf, repetitions=repetitions, queries=SCAN_BOUND)
    return next(r for r in rows if r.name == "Total Query").ratio


def test_overhead_ratio_shrinks_with_scale():
    small = ratio_at(SCALES[0])
    large = ratio_at(SCALES[1])
    print(f"\nratio at sf={SCALES[0]}: {small:.3f}; at sf={SCALES[1]}: {large:.3f}")
    # a 4x scale step must not grow the relative overhead; the margin is the
    # spread of this 2-repetition ratio between identical runs (about 0.25)
    assert large < max(small, 1.0) + 0.25, (small, large)
    assert large < 1.5


@pytest.mark.parametrize("sf", SCALES)
def test_power_subset_benchmark(benchmark, sf):
    result = benchmark.pedantic(lambda: ratio_at(sf, repetitions=1), rounds=1)
    assert result > 0
