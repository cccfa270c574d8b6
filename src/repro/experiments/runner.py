"""Shared machinery for running validation experiments.

A *validation row* corresponds to one row of Tables 1-3: a problem/processor
configuration for which the harness produces

* a **prediction** — the PACE model evaluated from the PSL application
  model and the machine's HMCL hardware object (profiled flop rate +
  fitted communication parameters), and
* a **measurement** — the parallel sweep executed on the machine's
  discrete-event simulator with OS/network noise,

together with the signed relative error (the paper's convention:
``(measured - predicted) / measured * 100``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro import units
from repro.core.evaluation.result import PredictionResult
from repro.core.workload import SweepWorkload
from repro.experiments.backends import SimulationBackend
from repro.experiments.paper_data import PaperValidationRow
from repro.experiments.sweep import Scenario, ScenarioSweep
from repro.machines.machine import Machine
from repro.sweep3d.input import Sweep3DInput, standard_deck

if TYPE_CHECKING:
    from repro.experiments.study import StudyContext


@dataclass
class ValidationRowResult:
    """Reproduced results for one validation-table row."""

    data_size: str
    pes: int
    px: int
    py: int
    predicted: float
    measured: float | None = None
    paper_row: PaperValidationRow | None = None
    prediction_detail: PredictionResult | None = None
    #: Multi-seed uncertainty block, filled when the measurement grid runs
    #: with ``samples > 0``: the per-seed elapsed times of the batched
    #: trace replay and their summary statistics.  ``measured`` stays the
    #: sample-0 value, bit-identical to the unsampled measurement.
    measured_samples: tuple = ()
    measured_mean: float | None = None
    measured_std: float | None = None
    measured_ci95: float | None = None

    @property
    def n_samples(self) -> int:
        return len(self.measured_samples)

    @property
    def error_pct(self) -> float | None:
        """Signed relative error of the reproduction (paper convention)."""
        if self.measured is None or self.measured == 0:
            return None
        return units.relative_error(self.measured, self.predicted)

    @property
    def paper_measured(self) -> float | None:
        return self.paper_row.measured if self.paper_row else None

    @property
    def paper_predicted(self) -> float | None:
        return self.paper_row.predicted if self.paper_row else None

    @property
    def paper_error_pct(self) -> float | None:
        return self.paper_row.error_pct if self.paper_row else None


@dataclass
class ValidationTableResult:
    """A full reproduced validation table plus its error statistics."""

    name: str
    machine_name: str
    rows: list[ValidationRowResult] = field(default_factory=list)

    def errors(self) -> list[float]:
        return [row.error_pct for row in self.rows if row.error_pct is not None]

    @property
    def max_abs_error(self) -> float:
        errors = self.errors()
        return max(abs(e) for e in errors) if errors else 0.0

    @property
    def average_abs_error(self) -> float:
        errors = self.errors()
        return statistics.mean(abs(e) for e in errors) if errors else 0.0

    @property
    def error_variance(self) -> float:
        errors = self.errors()
        return statistics.pvariance(errors) if len(errors) > 1 else 0.0

    def predictions(self) -> list[float]:
        return [row.predicted for row in self.rows]

    def measurements(self) -> list[float]:
        return [row.measured for row in self.rows if row.measured is not None]


def deck_for_row(row: PaperValidationRow, max_iterations: int = 12) -> Sweep3DInput:
    """The SWEEP3D input deck of a validation-table row (50^3 cells/processor)."""
    return standard_deck("validation", px=row.px, py=row.py,
                         max_iterations=max_iterations)


def scenario_for_row(row: PaperValidationRow,
                     max_iterations: int = 12) -> Scenario:
    """Declare one validation-table row as a sweep scenario point."""
    deck = deck_for_row(row, max_iterations=max_iterations)
    workload = SweepWorkload(deck, row.px, row.py)
    return Scenario(
        label=f"{row.data_size} on {row.px}x{row.py}",
        variables=workload.model_variables(),
        tags={"row": row, "deck": deck},
    )


def predict_rows(machine: Machine, rows: Sequence[PaperValidationRow],
                 context: StudyContext,
                 max_iterations: int = 12) -> list[ValidationRowResult]:
    """Predict a batch of validation rows through the sweep runner.

    All rows of a table share the same per-processor problem size (50^3
    weak scaling), so the hardware model is built once — exactly as the
    paper profiles once per problem size per machine — and the compiled
    model plus its caches are shared across every row.  The
    :class:`~repro.experiments.study.StudyContext` supplies the compiled
    model and the sweep cache, shared across tables.
    """
    rows = list(rows)
    if not rows:
        return []
    first_deck = deck_for_row(rows[0], max_iterations=max_iterations)
    hardware = context.hardware_model(machine, first_deck, rows[0].px,
                                      rows[0].py)
    sweep = ScenarioSweep([scenario_for_row(row, max_iterations=max_iterations)
                           for row in rows])
    outcomes = context.prediction_runner(hardware=hardware).run(sweep)
    return [
        ValidationRowResult(
            data_size=row.data_size,
            pes=row.pes,
            px=row.px,
            py=row.py,
            predicted=outcome.result.total_time,
            paper_row=row,
            prediction_detail=outcome.result,
        )
        for row, outcome in zip(rows, outcomes)
    ]


def measure_rows(machine: Machine, results: Sequence[ValidationRowResult],
                 context: StudyContext,
                 max_iterations: int = 12,
                 execution: str = "auto",
                 samples: int = 0) -> list[ValidationRowResult]:
    """Attach the discrete-event measurements of a whole table as one sweep.

    The rows become one scenario grid evaluated through the
    :class:`~repro.experiments.backends.SimulationBackend` — simulation
    plans, the compute cost table and the context's sweep cache (if any)
    are shared across every row.  Each row's noise seed is its
    processor count (``seed_offset = row.pes``), so every measured value
    equals a one-off ``machine.simulate(..., seed_offset=row.pes)`` of
    that row bit for bit, whatever shard or fleet worker runs it.
    ``execution`` selects
    the simulation tier (``"auto"``: trace replay for these modelled runs;
    ``"engine"``: the per-event reference; both bit-identical).
    ``samples > 0`` replays each row under that many noise seeds in one
    batched max-plus pass and fills the row's ``measured_*`` uncertainty
    fields; ``measured`` itself stays the sample-0 value, bit-identical
    to ``samples=0``.
    """
    results = list(results)
    if not results:
        return results
    backend = SimulationBackend(machine, deck="validation",
                                max_iterations=max_iterations,
                                execution=execution,
                                samples=samples)
    sweep = ScenarioSweep([
        Scenario(label=f"measure {row.data_size} on {row.px}x{row.py}",
                 variables={"px": row.px, "py": row.py, "seed": row.pes},
                 tags={"row": row})
        for row in (result.paper_row for result in results)
    ])
    runner = context.backend_runner(backend)
    for result, outcome in zip(results, runner.run(sweep)):
        measurement = outcome.result
        result.measured = measurement.elapsed_time
        if measurement.n_samples:
            result.measured_samples = tuple(measurement.elapsed_samples)
            result.measured_mean = measurement.elapsed_mean
            result.measured_std = measurement.elapsed_std
            result.measured_ci95 = measurement.elapsed_ci95
    return results
