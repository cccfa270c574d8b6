"""Regeneration of the validation tables (Tables 1-3).

The tables are the ``table1``/``table2``/``table3`` studies of the Study
API: ``run_study(build_spec("table2", max_pes=16))`` reproduces Table 2 up
to 16 processors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ExperimentError
from repro.experiments.paper_data import PAPER_TABLES, PaperValidationRow
from repro.experiments.runner import (
    ValidationTableResult,
    measure_rows,
    predict_rows,
)

if TYPE_CHECKING:
    from repro.experiments.study import StudyContext
    from repro.machines.machine import Machine


def _run_table_impl(table_name: str,
                    context: StudyContext,
                    machine: Machine,
                    rows: Sequence[PaperValidationRow] | None = None,
                    simulate_measurement: bool = True,
                    max_iterations: int = 12,
                    max_pes: int | None = None,
                    sim_execution: str = "auto",
                    samples: int = 0) -> ValidationTableResult:
    """The implementation behind the ``table1``-``table3`` studies."""
    if table_name not in PAPER_TABLES:
        raise ExperimentError(
            f"unknown table {table_name!r}; expected one of {sorted(PAPER_TABLES)}")
    spec = PAPER_TABLES[table_name]
    selected: Iterable[PaperValidationRow] = rows if rows is not None else spec["rows"]
    selected = [row for row in selected
                if max_pes is None or row.pes <= max_pes]
    if not selected:
        raise ExperimentError(f"no rows selected for {table_name}")

    result = ValidationTableResult(name=table_name, machine_name=machine.name)

    # The whole table is one declared scenario grid, twice over: the
    # prediction column runs through the batch sweep runner with the
    # compiled-prediction backend (hardware model and compiled PSL model
    # built once, exactly as the paper profiles once per problem size per
    # machine), and the "Measurement" column runs through the same runner
    # with the discrete-event simulation backend (simulation plans and the
    # compute cost table shared across rows).
    result.rows = predict_rows(machine, selected, context,
                               max_iterations=max_iterations)
    if simulate_measurement:
        result.rows = measure_rows(machine, result.rows, context,
                                   max_iterations=max_iterations,
                                   execution=sim_execution, samples=samples)
    return result


def rows_for_indices(table_name: str,
                     indices: Iterable[int]) -> list[PaperValidationRow]:
    """Resolve published-row indices (a table spec's ``rows`` parameter).

    Row indices are the table studies' shard axis: a
    :class:`~repro.experiments.sharding.ShardPlanner` assigns each shard a
    subset of indices into the published table, and this helper turns them
    back into :class:`PaperValidationRow` objects for the implementation.
    """
    if table_name not in PAPER_TABLES:
        raise ExperimentError(
            f"unknown table {table_name!r}; expected one of {sorted(PAPER_TABLES)}")
    published = PAPER_TABLES[table_name]["rows"]
    selected = []
    for index in indices:
        if not isinstance(index, int) or isinstance(index, bool) \
                or not 0 <= index < len(published):
            raise ExperimentError(
                f"{table_name} row index {index!r} out of range; the "
                f"published table has rows 0..{len(published) - 1}")
        selected.append(published[index])
    return selected
