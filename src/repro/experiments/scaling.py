"""Scalability metrics derived from model predictions.

The paper reads its speculative figures qualitatively ("the model predicts
good scaling behaviour").  This module quantifies that statement for the
weak-scaled SWEEP3D workloads: given predicted run times over a processor
axis it computes weak-scaling efficiency, the communication/pipeline
overhead fraction, and the processor count at which efficiency drops below
a threshold — the numbers a procurement study would actually quote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import ExperimentError
from repro.experiments.figures import FigureResult, FigureSeries, speculative_sweep
from repro.experiments.paper_data import FIGURE8_STUDY, SpeculativeStudy

if TYPE_CHECKING:
    from repro.experiments.study import StudyContext


@dataclass(frozen=True)
class ScalingPoint:
    """Weak-scaling metrics at one processor count."""

    processors: int
    time: float
    #: Weak-scaling efficiency relative to the single-processor time
    #: (T(1) / T(P); 1.0 means perfect weak scaling).
    efficiency: float
    #: Fraction of the run time not explained by the single-processor work
    #: (pipeline fill + communication overhead).
    overhead_fraction: float


@dataclass
class ScalingAnalysis:
    """Weak-scaling analysis of one predicted series."""

    label: str
    points: list[ScalingPoint] = field(default_factory=list)

    @property
    def base_time(self) -> float:
        if not self.points:
            raise ExperimentError("scaling analysis has no points")
        return self.points[0].time

    def final_efficiency(self) -> float:
        return self.points[-1].efficiency if self.points else 0.0

    def describe(self) -> str:
        lines = [f"weak-scaling analysis: {self.label}",
                 f"{'processors':>12} {'time (s)':>10} {'efficiency':>11} {'overhead':>9}"]
        for point in self.points:
            lines.append(f"{point.processors:>12} {point.time:>10.3f} "
                         f"{point.efficiency:>10.1%} {point.overhead_fraction:>8.1%}")
        return "\n".join(lines)


def analyze_series(processor_counts: Sequence[int], times: Sequence[float],
                   label: str = "") -> ScalingAnalysis:
    """Build a weak-scaling analysis from raw (processors, time) data.

    The first entry is taken as the single-processor (or smallest) baseline.
    """
    if len(processor_counts) != len(times) or not processor_counts:
        raise ExperimentError("processor counts and times must be equal-length and non-empty")
    if any(t <= 0 for t in times):
        raise ExperimentError("run times must be positive")
    base = times[0]
    analysis = ScalingAnalysis(label=label)
    for processors, time in zip(processor_counts, times):
        efficiency = base / time
        analysis.points.append(ScalingPoint(
            processors=int(processors),
            time=float(time),
            efficiency=float(efficiency),
            overhead_fraction=float(max(0.0, 1.0 - base / time)),
        ))
    return analysis


def analyze_figure_series(series: FigureSeries, label: str = "") -> ScalingAnalysis:
    """Weak-scaling analysis of one curve of a speculative figure."""
    return analyze_series(series.processor_counts, series.times,
                          label=label or f"x{series.rate_factor:g} achieved rate")


def analyze_figure(result: FigureResult) -> dict[float, ScalingAnalysis]:
    """Analyse every series of a reproduced figure, keyed by rate factor."""
    return {series.rate_factor: analyze_figure_series(
                series, label=f"{result.study.name} x{series.rate_factor:g}")
            for series in result.series}


def _run_scaling_impl(context: StudyContext,
                      machine=None,
                      study: SpeculativeStudy = FIGURE8_STUDY,
                      processor_counts: Sequence[int] = (1, 16, 256, 1024, 8000),
                      rate_factor: float = 1.0) -> ScalingAnalysis:
    """Predict and analyse a weak-scaling curve (the ``scaling`` study).

    The processor-count axis is declared as a scenario grid and evaluated
    through the batch :class:`~repro.experiments.sweep.SweepRunner`; the
    resulting times feed :func:`analyze_series`.
    """
    from repro.machines.presets import get_machine
    machine = machine or get_machine("hypothetical-opteron-myrinet")
    counts = list(processor_counts)
    if not counts:
        raise ExperimentError("scaling study needs at least one processor count")
    outcomes = context.prediction_runner().run(
        speculative_sweep(study, machine, counts, [rate_factor], context))
    return analyze_series(counts, [outcome.total_time for outcome in outcomes],
                          label=f"{study.name} x{rate_factor:g} on {machine.name}")
