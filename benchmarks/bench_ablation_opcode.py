"""Benchmark: the Section-4 hardware-benchmarking ablation.

The paper motivates its coarse achieved-rate benchmarking by noting that
the original per-opcode approach produced prediction errors "as large as
50%" on the AMD Opteron cluster.  This benchmark evaluates the same PSL
model against the two HMCL cpu sections and compares both predictions with
the simulated measurement.
"""

from __future__ import annotations

from conftest import run_once, save_report

from repro.experiments.report import format_ablation
from repro.experiments.study import build_spec, run_study


def test_opcode_vs_coarse_benchmarking(benchmark, report_dir):
    result = run_once(benchmark, run_study,
                      build_spec("ablation", max_iterations=12)).payload
    report = format_ablation(result)
    print("\n" + report)
    save_report(report_dir, "ablation_opcode", report)

    benchmark.extra_info["coarse_error_pct"] = round(result.coarse_error_pct, 2)
    benchmark.extra_info["legacy_error_pct"] = round(result.legacy_error_pct, 2)
    benchmark.extra_info["paper_legacy_error_pct"] = 50.0

    # The coarse approach reproduces the <10% accuracy of the paper ...
    assert abs(result.coarse_error_pct) < 10.0
    # ... while the legacy opcode summation is off by tens of percent
    # (the paper quotes errors as large as 50% for this machine).
    assert abs(result.legacy_error_pct) > 25.0
    assert result.improvement_factor > 3.0
