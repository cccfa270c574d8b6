"""Benchmark: regenerate Figure 8 (speculative 20-million-cell scaling study).

The model is reused to speculate on a hypothetical 8000-processor Opteron
SMP cluster with the Myrinet 2000 communication model: 5x5x100 cells per
processor, mk=10, mmi=3, achieved rate 340 MFLOPS plus +25% and +50%
processor-upgrade scenarios.  The published figure shows execution times of
roughly 0.15 s at one processor rising to around one second at 8000
processors, with good scaling behaviour throughout.
"""

from __future__ import annotations

from conftest import save_report

from repro.experiments.report import format_figure
from repro.experiments.study import build_spec, run_study


def test_figure8_full_reproduction(report_dir):
    result = run_study(build_spec("figure8")).payload
    report = format_figure(result)
    print("\n" + report)
    actual = result.actual
    save_report(report_dir, "figure8", report,
                time_at_1_proc_s=round(actual.times[0], 4),
                time_at_8000_procs_s=round(actual.final_time, 4),
                upgrade_speedup_50pct=round(result.speedup_from_upgrade(1.5), 3))

    # Three series (actual, +25%, +50%), each monotone under weak scaling.
    assert len(result.series) == 3
    for series in result.series:
        assert series.is_monotone_nondecreasing()
        assert series.processor_counts[-1] == 8000
    # The "actual" curve lands in the range read off the published figure.
    lo, hi = result.study.expected_range_at_max
    assert lo <= actual.final_time <= hi
    # Faster processors help, but less than proportionally (communication).
    assert 1.0 < result.speedup_from_upgrade(1.5) < 1.5
    assert 1.0 < result.speedup_from_upgrade(1.25) < 1.25
