"""Benchmark: regenerate Table 2 (AMD Opteron / Gigabit Ethernet cluster).

Nine weak-scaled configurations from 4 to 30 processors; the paper reports
an average error of 5.35% with every row below 10%.
"""

from __future__ import annotations

from conftest import save_report

from repro.experiments.report import format_validation_table
from repro.experiments.study import build_spec, run_study


def test_table2_full_reproduction(report_dir):
    result = run_study(build_spec("table2", simulate_measurement=True,
                                  max_iterations=12)).payload
    report = format_validation_table(result)
    print("\n" + report)
    save_report(report_dir, "table2", report,
                rows=len(result.rows),
                max_abs_error_pct=round(result.max_abs_error, 2),
                avg_abs_error_pct=round(result.average_abs_error, 2),
                paper_avg_abs_error_pct=5.35)

    assert len(result.rows) == 9
    assert result.max_abs_error < 10.0
    predictions = result.predictions()
    assert predictions == sorted(predictions)
    # Absolute times in the same ballpark as the published 8.98-12.07 s range.
    assert abs(predictions[0] - 8.98) / 8.98 < 0.25
    assert abs(predictions[-1] - 12.07) / 12.07 < 0.25
