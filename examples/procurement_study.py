#!/usr/bin/env python
"""Speculative procurement study: the paper's Section 6 (Figures 8 and 9).

The performance model is reused to speculate about a *hypothetical* system:
the 2-way Opteron SMP node architecture combined with the Myrinet 2000
communication model, scaled to 8000 processors.  Two ASCI-relevant problem
sizes are studied — 20 million cells (5x5x100 per processor) and 1 billion
cells (25x25x200 per processor) — with the achieved floating point rate at
its measured value (340 MFLOPS) and increased by 25% and 50% to quantify
the benefit of a processor upgrade.

The example also extrapolates the single-group, 12-iteration benchmark time
to a realistic multigroup calculation (30 energy groups, 1000 time steps),
the scaling the paper uses to argue that this configuration "will grossly
overrun ASCI execution time goals".

Run with::

    python examples/procurement_study.py [--figure figure8] [--max-processors 1024]
"""

from __future__ import annotations

import argparse

from repro.experiments.paper_data import FIGURE8_STUDY, FIGURE9_STUDY
from repro.experiments.report import format_figure
from repro.experiments.study import build_spec, run_study

#: Realistic multigroup workload factors quoted in Section 6 of the paper.
ENERGY_GROUPS = 30
TIME_STEPS = 1000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", default="figure8", choices=["figure8", "figure9"],
                        help="which speculative figure to reproduce")
    parser.add_argument("--max-processors", type=int, default=8000,
                        help="truncate the processor axis (full study goes to 8000)")
    args = parser.parse_args()

    study = FIGURE8_STUDY if args.figure == "figure8" else FIGURE9_STUDY
    counts = [count for count in study.processor_counts if count <= args.max_processors]
    result = run_study(build_spec(args.figure, processor_counts=counts)).payload
    print(format_figure(result))

    actual = result.actual
    largest = actual.processor_counts[-1]
    benchmark_time = actual.final_time
    # One benchmark run covers 1 energy group and 12 iterations; a realistic
    # calculation runs ~30 groups for ~1000 time steps.
    realistic = benchmark_time * ENERGY_GROUPS * TIME_STEPS
    print(f"\nbenchmark time at {largest} processors           : {benchmark_time:8.2f} s")
    print(f"scaled to {ENERGY_GROUPS} groups x {TIME_STEPS} time steps : "
          f"{realistic:10.0f} s ({realistic / 3600.0:.1f} hours)")
    for factor in study.rate_factors[1:]:
        upgraded = result.series_for(factor).final_time
        print(f"with a +{(factor - 1) * 100:.0f}% processor upgrade the benchmark time "
              f"drops to {upgraded:.2f} s "
              f"({benchmark_time / upgraded:.2f}x faster)")


if __name__ == "__main__":
    main()
