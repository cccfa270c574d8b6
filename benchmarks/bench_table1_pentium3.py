"""Benchmark: regenerate Table 1 (Pentium-3 / Myrinet 2000 cluster).

The paper's Table 1 validates the PACE model on 24 weak-scaled
configurations (4 to 112 processors, 50^3 cells per processor, mk=10,
12 iterations) and reports a maximum error below 10% with an average of
3.41%.  This benchmark reproduces every row: the prediction comes from the
PACE evaluation engine, the measurement from the discrete-event cluster
simulator, and the error statistics follow the saved report.
"""

from __future__ import annotations

from conftest import save_report

from repro.experiments.report import format_validation_table
from repro.experiments.study import build_spec, run_study


def test_table1_full_reproduction(report_dir):
    result = run_study(build_spec("table1", simulate_measurement=True,
                                  max_iterations=12)).payload
    report = format_validation_table(result)
    print("\n" + report)
    save_report(report_dir, "table1", report,
                rows=len(result.rows),
                max_abs_error_pct=round(result.max_abs_error, 2),
                avg_abs_error_pct=round(result.average_abs_error, 2),
                paper_avg_abs_error_pct=3.41)

    # The headline claim of the paper: every error is below 10%.
    assert len(result.rows) == 24
    assert result.max_abs_error < 10.0
    # Predictions must follow the paper's weak-scaling shape: monotone
    # growth with the processor count and within 25% of the published
    # measurements at both ends of the table.
    predictions = result.predictions()
    assert predictions[-1] > predictions[0]
    assert abs(predictions[0] - 26.54) / 26.54 < 0.25
    assert abs(predictions[-1] - 46.32) / 46.32 < 0.25


def test_table1_prediction_only(report_dir):
    """Prediction-only variant (no simulated measurement): the model used
    the way a procurement study would, for all 24 rows."""
    result = run_study(build_spec("table1", simulate_measurement=False,
                                  max_iterations=12)).payload
    report = format_validation_table(result)
    save_report(report_dir, "table1_prediction_only", report,
                rows=len(result.rows))
    for row in result.rows:
        assert row.predicted == row.predicted  # not NaN
        assert abs(row.predicted - row.paper_measured) / row.paper_measured < 0.25
