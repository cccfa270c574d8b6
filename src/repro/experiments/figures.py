"""Regeneration of the speculative scaling study (Figures 8 and 9)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import units
from repro.core.workload import SweepWorkload
from repro.errors import ExperimentError
from repro.experiments.paper_data import SpeculativeStudy
from repro.experiments.sweep import Scenario, ScenarioSweep
from repro.machines.machine import Machine
from repro.machines.presets import get_machine
from repro.simmpi.cart import Cart2D
from repro.sweep3d.input import Sweep3DInput

if TYPE_CHECKING:
    from repro.experiments.study import StudyContext


@dataclass
class FigureSeries:
    """One curve of a speculative figure (a single achieved-rate factor)."""

    rate_factor: float
    flop_rate_mflops: float
    processor_counts: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)

    def as_rows(self) -> list[tuple[int, float]]:
        return list(zip(self.processor_counts, self.times))

    @property
    def final_time(self) -> float:
        return self.times[-1] if self.times else float("nan")

    def is_monotone_nondecreasing(self, tolerance: float = 1e-9) -> bool:
        """Weak-scaled wavefront times grow with the processor count."""
        return all(b >= a - tolerance for a, b in zip(self.times, self.times[1:]))


@dataclass
class FigureResult:
    """A reproduced speculative figure: one series per achieved-rate factor."""

    study: SpeculativeStudy
    machine_name: str
    series: list[FigureSeries] = field(default_factory=list)

    def series_for(self, rate_factor: float) -> FigureSeries:
        for entry in self.series:
            if abs(entry.rate_factor - rate_factor) < 1e-9:
                return entry
        raise ExperimentError(
            f"{self.study.name} has no series for rate factor {rate_factor}")

    @property
    def actual(self) -> FigureSeries:
        """The series using the baseline ("actual") achieved rate."""
        return self.series_for(1.0)

    def speedup_from_upgrade(self, rate_factor: float) -> float:
        """Run-time ratio actual/upgraded at the largest processor count."""
        return self.actual.final_time / self.series_for(rate_factor).final_time


def _deck_for_processors(study: SpeculativeStudy, nranks: int) -> tuple[Sweep3DInput, int, int]:
    cart = Cart2D.for_size(nranks)
    nx, ny, nz = study.cells_per_processor
    deck = Sweep3DInput(it=nx * cart.px, jt=ny * cart.py, kt=nz,
                        mk=study.mk, mmi=study.mmi, sn=6, max_iterations=12,
                        label=study.name)
    return deck, cart.px, cart.py


def speculative_sweep(study: SpeculativeStudy, machine: Machine,
                      processor_counts: list[int],
                      rate_factors: list[float],
                      context: StudyContext) -> ScenarioSweep:
    """Declare the (rate factor x processor count) grid of one figure.

    One hardware model per rate factor (the communication parameters are
    shared across factors); every point carries its factor and rank count
    as tags so the runner's flat outcome list can be regrouped into series.
    """
    sweep = ScenarioSweep()
    reference_deck, px0, py0 = _deck_for_processors(study, processor_counts[0])
    for factor in rate_factors:
        rate = study.flop_rate_mflops * units.MFLOPS * factor
        hardware = context.hardware_model(machine, reference_deck, px0, py0,
                                          flop_rate_override=rate)
        for nranks in processor_counts:
            deck, px, py = _deck_for_processors(study, nranks)
            workload = SweepWorkload(deck, px, py)
            sweep.add(Scenario(
                label=f"{study.name} x{factor:g} @{nranks}",
                variables=workload.model_variables(),
                hardware=hardware,
                tags={"rate_factor": factor, "nranks": nranks,
                      "flop_rate_mflops": rate / units.MFLOPS},
            ))
    return sweep


def _run_speculative_figure_impl(study: SpeculativeStudy,
                                 context: StudyContext,
                                 machine: Machine | None = None,
                                 processor_counts: list[int] | None = None,
                                 rate_factors: list[float] | None = None) -> FigureResult:
    """The implementation behind the ``figure8``/``figure9`` studies.

    The hypothetical machine's HMCL object uses the fixed achieved rate of
    the study (340 MFLOPS in the paper) scaled by each rate factor, with the
    Myrinet 2000 communication model — the model re-use the paper
    demonstrates in Section 6.  The whole figure is one declared scenario
    grid evaluated by the batch sweep runner.
    """
    machine = machine or get_machine("hypothetical-opteron-myrinet")
    counts = list(processor_counts if processor_counts is not None
                  else study.processor_counts)
    factors = list(rate_factors if rate_factors is not None else study.rate_factors)
    if not counts or not factors:
        raise ExperimentError("speculative figure needs processor counts and rate factors")

    outcomes = context.prediction_runner().run(
        speculative_sweep(study, machine, counts, factors, context))

    result = FigureResult(study=study, machine_name=machine.name)
    series_by_factor: dict[float, FigureSeries] = {}
    for outcome in outcomes:
        factor = outcome.tags["rate_factor"]
        series = series_by_factor.get(factor)
        if series is None:
            series = FigureSeries(
                rate_factor=factor,
                flop_rate_mflops=outcome.tags["flop_rate_mflops"])
            series_by_factor[factor] = series
            result.series.append(series)
        series.processor_counts.append(outcome.tags["nranks"])
        series.times.append(outcome.total_time)
    return result
