"""Ablation: legacy per-opcode benchmarking vs coarse achieved-rate benchmarking.

Section 4 of the paper motivates the coarse approach by noting that the
original opcode-level benchmarks "in some cases (such as on the AMD Opteron
2-way SMP cluster) gave a prediction error as large as 50%".  This
experiment reproduces that comparison: the same PSL application model is
evaluated against two HMCL hardware objects for the same machine — one
built from the legacy per-opcode micro-benchmark times, one from the
profiled achieved floating point rate — and both predictions are compared
against the simulated measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import units
from repro.core.workload import SweepWorkload
from repro.experiments.paper_data import PAPER_TABLES
from repro.experiments.runner import (ValidationRowResult, deck_for_row,
                                     measure_rows)
from repro.experiments.sweep import Scenario
from repro.machines.machine import Machine
from repro.machines.presets import get_machine

if TYPE_CHECKING:
    from repro.experiments.study import StudyContext


@dataclass
class AblationResult:
    """Errors of the two benchmarking approaches for one configuration."""

    machine_name: str
    data_size: str
    pes: int
    measured: float
    coarse_prediction: float
    legacy_prediction: float

    @property
    def coarse_error_pct(self) -> float:
        return units.relative_error(self.measured, self.coarse_prediction)

    @property
    def legacy_error_pct(self) -> float:
        return units.relative_error(self.measured, self.legacy_prediction)

    @property
    def improvement_factor(self) -> float:
        """How many times smaller the coarse approach's error magnitude is."""
        coarse = abs(self.coarse_error_pct)
        legacy = abs(self.legacy_error_pct)
        if coarse == 0:
            return float("inf")
        return legacy / coarse

    def describe(self) -> str:
        return (f"{self.machine_name} {self.data_size} ({self.pes} PEs): "
                f"measured {self.measured:.2f}s; "
                f"coarse {self.coarse_prediction:.2f}s ({self.coarse_error_pct:+.1f}%), "
                f"legacy {self.legacy_prediction:.2f}s ({self.legacy_error_pct:+.1f}%)")


def _run_opcode_ablation_impl(context: StudyContext,
                              machine: Machine | None = None,
                              table_name: str = "table2",
                              row_index: int = 0,
                              max_iterations: int = 12,
                              simulate_measurement: bool = True) -> AblationResult:
    """The implementation behind the ``ablation`` study.

    Defaults to the first row of Table 2 — the Opteron cluster singled out
    by the paper's 50 %-error remark.
    """
    spec = PAPER_TABLES[table_name]
    machine = machine or get_machine(spec["machine"])
    row = spec["rows"][row_index]
    deck = deck_for_row(row, max_iterations=max_iterations)
    workload = SweepWorkload(deck, row.px, row.py)

    # The ablation is a two-point hardware sweep: the same scenario
    # variables evaluated against the coarse and the legacy cpu sections.
    variables = workload.model_variables()
    coarse_outcome, legacy_outcome = context.prediction_runner().run([
        Scenario(label="coarse", variables=variables,
                 hardware=context.hardware_model(machine, deck, row.px, row.py,
                                                 legacy_cpu=False)),
        Scenario(label="legacy", variables=variables,
                 hardware=context.hardware_model(machine, deck, row.px, row.py,
                                                 legacy_cpu=True)),
    ])
    coarse = coarse_outcome.total_time
    legacy = legacy_outcome.total_time

    if simulate_measurement:
        # The table studies' measurement grid, so a warm run (or a table
        # run first) serves the row from the sweep cache.
        [measured_row] = measure_rows(
            machine, [ValidationRowResult(data_size=row.data_size,
                                          pes=row.pes, px=row.px, py=row.py,
                                          predicted=coarse, paper_row=row)],
            context, max_iterations=max_iterations)
        measured = measured_row.measured
    else:
        # Scale the paper's measurement to the requested iteration count.
        measured = row.measured * max_iterations / 12.0

    return AblationResult(
        machine_name=machine.name,
        data_size=row.data_size,
        pes=row.pes,
        measured=measured,
        coarse_prediction=coarse,
        legacy_prediction=legacy,
    )
