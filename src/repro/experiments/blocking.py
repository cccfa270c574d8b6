"""Blocking-factor study: the sensitivity of the sweep to ``mk`` and ``mmi``.

The paper fixes the k-plane blocking factor at ``mk = 10`` and the angle
blocking factor at ``mmi = 3`` for every experiment.  Those values embody
the classic wavefront trade-off:

* *small* blocks mean more pipeline stages — the pipeline fills quickly and
  the far corner starts sooner, but every stage pays the per-message
  latency and overhead again;
* *large* blocks amortise the message cost but idle the downstream
  processors for longer while the pipeline fills and drains.

A performance model is exactly the tool for exploring that trade-off
without running the machine, so this experiment uses the PACE model to
sweep the blocking factors for a given machine/processor-array
configuration and reports the predicted run times and the best setting.
It doubles as an ablation on the paper's choice of ``mk = 10``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.workload import SweepWorkload
from repro.errors import ExperimentError
from repro.experiments.sweep import Scenario, ScenarioSweep
from repro.machines.machine import Machine
from repro.machines.presets import get_machine
from repro.sweep3d.input import Sweep3DInput

if TYPE_CHECKING:
    from repro.experiments.study import StudyContext

#: k-plane blocking factors explored by default (divisors of the speculative
#: study's kt = 100, spanning both extremes).
DEFAULT_MK_VALUES: tuple[int, ...] = (1, 2, 5, 10, 20, 50, 100)

#: Angle blocking factors explored by default (the S6 octant has 6 angles).
DEFAULT_MMI_VALUES: tuple[int, ...] = (1, 2, 3, 6)


@dataclass(frozen=True)
class BlockingPoint:
    """Predicted run time for one (mk, mmi) combination."""

    mk: int
    mmi: int
    predicted_time: float
    blocks_per_iteration: int
    messages_per_processor: int


@dataclass
class BlockingStudyResult:
    """Outcome of a blocking-factor sweep."""

    machine_name: str
    px: int
    py: int
    cells_per_processor: tuple[int, int, int]
    points: list[BlockingPoint] = field(default_factory=list)

    def best(self) -> BlockingPoint:
        """The (mk, mmi) combination with the smallest predicted time."""
        if not self.points:
            raise ExperimentError("blocking study produced no points")
        return min(self.points, key=lambda p: p.predicted_time)

    def point(self, mk: int, mmi: int) -> BlockingPoint:
        for candidate in self.points:
            if candidate.mk == mk and candidate.mmi == mmi:
                return candidate
        raise ExperimentError(f"no blocking point for mk={mk}, mmi={mmi}")

    def paper_choice_penalty(self) -> float:
        """Relative slowdown of the paper's mk=10/mmi=3 versus the optimum.

        Returns e.g. ``0.05`` when the paper's choice is 5 % slower than the
        best combination explored (0 when it *is* the best).
        """
        paper = self.point(10, 3)
        best = self.best()
        if best.predicted_time == 0:
            return 0.0
        return paper.predicted_time / best.predicted_time - 1.0

    def describe(self) -> str:
        lines = [f"blocking-factor study on {self.machine_name} "
                 f"({self.px}x{self.py} processors, "
                 f"{'x'.join(str(c) for c in self.cells_per_processor)} cells/proc)",
                 f"{'mk':>4} {'mmi':>4} {'blocks/iter':>12} {'msgs/proc':>10} "
                 f"{'predicted (s)':>14}"]
        for point in sorted(self.points, key=lambda p: (p.mk, p.mmi)):
            lines.append(f"{point.mk:>4} {point.mmi:>4} "
                         f"{point.blocks_per_iteration:>12} "
                         f"{point.messages_per_processor:>10} "
                         f"{point.predicted_time:>14.3f}")
        best = self.best()
        lines.append(f"best: mk={best.mk}, mmi={best.mmi} "
                     f"({best.predicted_time:.3f} s); "
                     f"paper's mk=10/mmi=3 is {self.paper_choice_penalty() * 100:.1f}% "
                     "slower than the best explored setting")
        return "\n".join(lines)


def blocking_sweep(px: int, py: int, cells_per_processor: tuple[int, int, int],
                   mk_values: Sequence[int], mmi_values: Sequence[int],
                   max_iterations: int) -> ScenarioSweep:
    """Declare the (mk, mmi) grid for one machine/array configuration."""
    nx, ny, nz = cells_per_processor
    sweep = ScenarioSweep()
    for mk in mk_values:
        if mk < 1 or mk > nz:
            continue
        for mmi in mmi_values:
            deck = Sweep3DInput(it=nx * px, jt=ny * py, kt=nz, mk=mk, mmi=mmi,
                                sn=6, max_iterations=max_iterations,
                                label="blocking-study")
            workload = SweepWorkload(deck, px, py)
            sweep.add(Scenario(
                label=f"mk={mk} mmi={mmi}",
                variables=workload.model_variables(),
                tags={"mk": mk, "mmi": mmi, "deck": deck},
            ))
    return sweep


def _run_blocking_impl(context: StudyContext,
                       machine: Machine | None = None,
                       px: int = 20,
                       py: int = 20,
                       cells_per_processor: tuple[int, int, int] = (5, 5, 100),
                       mk_values: Sequence[int] = DEFAULT_MK_VALUES,
                       mmi_values: Sequence[int] = DEFAULT_MMI_VALUES,
                       max_iterations: int = 12) -> BlockingStudyResult:
    """The implementation behind the ``blocking`` study.

    The default configuration is the paper's 20-million-cell speculative
    problem (5x5x100 cells per processor) on a 400-processor slice of the
    hypothetical machine: with so little work per block, the latency-vs-
    pipelining trade-off has a genuine interior optimum.  The validation
    problem (50^3 cells per processor) is so compute-heavy that ever finer
    blocking keeps winning — which the study also demonstrates when run
    with ``cells_per_processor=(50, 50, 50)``.
    """
    machine = machine or get_machine("hypothetical-opteron-myrinet")
    nx, ny, nz = cells_per_processor
    base_deck = Sweep3DInput(it=nx * px, jt=ny * py, kt=nz, mk=10, mmi=3,
                             sn=6, max_iterations=max_iterations,
                             label="blocking-study")
    hardware = context.hardware_model(machine, base_deck, px, py)
    sweep = blocking_sweep(px, py, cells_per_processor, mk_values, mmi_values,
                           max_iterations)
    if not len(sweep):
        raise ExperimentError("no valid (mk, mmi) combinations were explored")

    outcomes = context.prediction_runner(hardware=hardware).run(sweep)

    result = BlockingStudyResult(machine_name=machine.name, px=px, py=py,
                                 cells_per_processor=cells_per_processor)
    for outcome in outcomes:
        deck = outcome.tags["deck"]
        blocks = deck.blocks_per_iteration
        # Two receives and two sends per block for an interior processor.
        messages = blocks * max_iterations * 4
        result.points.append(BlockingPoint(
            mk=outcome.tags["mk"], mmi=outcome.tags["mmi"],
            predicted_time=outcome.total_time,
            blocks_per_iteration=blocks,
            messages_per_processor=messages))
    return result
