"""Benchmark: cross-model agreement on the speculative study (Section 6).

The paper states that its speculative predictions "were seen to be in good
agreement with other related analytical models" (the LogGP model of
Sundaram-Stukel & Vernon and the Los Alamos model of Hoisie et al.).  This
benchmark evaluates all three predictors on the 20-million-cell study at a
range of processor counts and records their relative spread.
"""

from __future__ import annotations

from conftest import run_once, save_report

from repro.experiments.study import build_spec, run_study


def test_pace_vs_loggp_vs_hoisie(benchmark, report_dir):
    spec = build_spec("agreement",
                      processor_counts=[16, 256, 1024, 4096, 8000])
    result = run_once(benchmark, run_study, spec).payload
    report = result.describe()
    print("\n" + report)
    save_report(report_dir, "model_agreement", report)

    benchmark.extra_info["worst_spread_pct"] = round(result.worst_spread * 100, 1)
    benchmark.extra_info["worst_deviation_from_pace_pct"] = round(
        result.worst_deviation_from_pace * 100, 1)

    # "Good agreement" between three independently formulated analytic
    # models: all predictions within a factor-level band of each other.
    assert result.worst_spread < 0.6
    assert result.worst_deviation_from_pace < 0.6
    # And every model agrees on the qualitative conclusion: the run time at
    # 8000 processors stays within the same order of magnitude as at 16.
    first, last = result.comparisons[0], result.comparisons[-1]
    for model in ("pace", "loggp", "hoisie"):
        assert last.values[model] < 10 * first.values[model]
