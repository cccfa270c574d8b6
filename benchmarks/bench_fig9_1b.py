"""Benchmark: regenerate Figure 9 (speculative one-billion-cell scaling study).

Same hypothetical machine as Figure 8 but with 25x25x200 cells per
processor (one billion cells at 8000 processors).  The published figure
spans roughly 7 s at one processor to 25-30 s at 8000 processors, again
with the +25% and +50% achieved-rate upgrade scenarios.
"""

from __future__ import annotations

from conftest import run_once, save_report

from repro.experiments.report import format_figure
from repro.experiments.study import build_spec, run_study


def test_figure9_full_reproduction(benchmark, report_dir):
    result = run_once(benchmark, run_study, build_spec("figure9")).payload
    report = format_figure(result)
    print("\n" + report)
    save_report(report_dir, "figure9", report)

    actual = result.actual
    benchmark.extra_info["time_at_1_proc_s"] = round(actual.times[0], 3)
    benchmark.extra_info["time_at_8000_procs_s"] = round(actual.final_time, 3)
    benchmark.extra_info["upgrade_speedup_50pct"] = round(result.speedup_from_upgrade(1.5), 3)

    assert len(result.series) == 3
    for series in result.series:
        assert series.is_monotone_nondecreasing()
    lo, hi = result.study.expected_range_at_max
    assert lo <= actual.final_time <= hi
    # The one-billion-cell problem is compute-dominated: the pipeline adds
    # less relative overhead than for the 20M-cell problem, so the +50%
    # upgrade buys a larger fraction of its ideal speedup.
    assert result.speedup_from_upgrade(1.5) > 1.2
