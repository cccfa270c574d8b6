"""Model agreement: PACE vs LogGP vs the Los Alamos analytic model.

Section 6 states that the speculative results "were seen to be in good
agreement with other related analytical models".  This experiment evaluates
the three predictors on the speculative configurations and reports their
relative spread.

The PACE predictions run as one scenario grid through the batch
:class:`~repro.experiments.sweep.SweepRunner` on the prediction backend,
each processor count carrying its own hardware model as a per-scenario
override; the two closed-form analytic models are then evaluated per
point from the same hardware objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import units
from repro.analytic.comparison import ModelComparison, compare_models
from repro.core.workload import SweepWorkload
from repro.experiments.paper_data import FIGURE8_STUDY, SpeculativeStudy
from repro.experiments.sweep import Scenario, ScenarioSweep
from repro.simmpi.cart import Cart2D
from repro.sweep3d.input import Sweep3DInput

if TYPE_CHECKING:
    from repro.experiments.study import StudyContext
    from repro.machines.machine import Machine


@dataclass
class AgreementResult:
    """Agreement of the three models across a set of processor counts."""

    study_name: str
    machine_name: str
    comparisons: list[ModelComparison] = field(default_factory=list)

    @property
    def worst_spread(self) -> float:
        return max((c.spread for c in self.comparisons), default=0.0)

    @property
    def worst_deviation_from_pace(self) -> float:
        return max((c.max_relative_difference("pace") for c in self.comparisons),
                   default=0.0)

    def describe(self) -> str:
        lines = [f"model agreement for {self.study_name} on {self.machine_name}:"]
        for comparison in self.comparisons:
            lines.append("  " + comparison.describe().replace("\n", "\n  "))
        lines.append(f"worst spread: {self.worst_spread * 100:.1f}%")
        return "\n".join(lines)


def _run_model_agreement_impl(context: StudyContext,
                              machine: Machine,
                              study: SpeculativeStudy = FIGURE8_STUDY,
                              processor_counts: list[int] | None = None) -> AgreementResult:
    """Compare the three predictors (the ``agreement`` study)."""
    counts = processor_counts if processor_counts is not None else [16, 256, 1024, 8000]

    nx, ny, nz = study.cells_per_processor
    rate = study.flop_rate_mflops * units.MFLOPS
    result = AgreementResult(study_name=study.name, machine_name=machine.name)

    sweep = ScenarioSweep()
    workloads = []
    for nranks in counts:
        cart = Cart2D.for_size(nranks)
        deck = Sweep3DInput(it=nx * cart.px, jt=ny * cart.py, kt=nz,
                            mk=study.mk, mmi=study.mmi, sn=6, max_iterations=12,
                            label=study.name)
        workload = SweepWorkload(deck, cart.px, cart.py)
        hardware = context.hardware_model(machine, deck, cart.px, cart.py,
                                          flop_rate_override=rate)
        workloads.append((workload, hardware))
        sweep.add(Scenario(label=f"{nranks} processors",
                           variables=workload.model_variables(),
                           hardware=hardware,
                           tags={"nranks": nranks}))

    outcomes = context.prediction_runner().run(sweep)
    for (workload, hardware), outcome in zip(workloads, outcomes):
        result.comparisons.append(
            compare_models(workload, hardware,
                           pace=outcome.result.total_time))
    return result
