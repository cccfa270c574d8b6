"""Benchmark: blocking-factor (mk/mmi) design-space study.

The paper fixes mk=10 and mmi=3 for all of its experiments.  This benchmark
uses the PACE model to sweep both blocking factors for the speculative
20-million-cell problem (5x5x100 cells per processor) on a 400-processor
slice of the hypothetical Opteron/Myrinet machine, where the
latency-vs-pipelining trade-off has a genuine interior optimum — the kind
of design-space exploration the paper advocates performance models for.
"""

from __future__ import annotations

from conftest import save_report

from repro.experiments.study import build_spec, run_study


def test_blocking_factor_design_space(report_dir):
    result = run_study(build_spec("blocking", px=20, py=20)).payload
    report = result.describe()
    print("\n" + report)
    best = result.best()
    save_report(report_dir, "blocking_study", report,
                best_mk=best.mk, best_mmi=best.mmi,
                paper_choice_penalty_pct=round(
                    result.paper_choice_penalty() * 100, 2))

    # The trade-off is real: both extremes are worse than the optimum.
    finest = result.point(1, 1)
    coarsest = result.point(100, 6)
    assert finest.predicted_time > best.predicted_time * 1.05
    assert coarsest.predicted_time > best.predicted_time * 1.5
    # The optimum sits strictly inside the explored range of k blockings.
    assert 1 < best.mk < 100
    # And the paper's fixed choice stays within 50% of the explored optimum.
    assert result.paper_choice_penalty() < 0.50
