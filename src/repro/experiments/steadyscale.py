"""Steady-state scaling study: modelled grids far beyond the paper's tables.

The published scaling studies stop at the configurations a 2006-era
cluster could measure (20M cells, 12 source iterations).  The
steady-state execution tier (:mod:`repro.simmpi.steady`) removes the
per-event cost of the *periodic* part of a modelled run, so this study
pushes two axes well past the paper:

* **cells** — per-processor subgrids of ``200 x 200 x 100`` put the
  default grid at 256M cells on 64 ranks (12.8x the paper's largest
  ASCI configuration).  Cell counts only change the per-block compute
  charge, not the event count, so they are effectively free.
* **iterations** — the event stream grows linearly with the source
  iteration count, but a noise-free run on the steady tier records two
  iterations, proves that every later one repeats the second
  (:mod:`repro.simmpi.capture`), replays only those two and extrapolates
  the rest without ever building the run's event table
  (:func:`repro.simmpi.steady.steady_replay`), so hundred-iteration runs
  cost barely more than twelve-iteration ones.

* **ranks** — those two iterations are the only O(events) recorder
  pass, so the grid climbs to 256 ranks (the modelled machine hosts
  8000 processors).  On a 2-vCPU VM the whole default grid, up to its
  256-rank x 100-iteration point (3,200 x 3,200 x 100 cells, 19.5M
  events), runs cold with a ``--cache-dir`` in about 5 s CPU and 136 MB
  peak RSS on the steady tier, where recording and replaying that
  point's events alone took 118 s and 5.4 GB.

Runs are noise-free by construction (``with_noise`` is hardcoded off):
the steady tier refuses noisy traces, and the point of this study is the
deterministic modelled prediction.  The tier that actually served each
scenario is metadata, not data: it is counted in
:attr:`repro.experiments.study.StudyResult.execution` (the table rows are
identical whichever tier ran); under the default
``hypothetical-opteron-myrinet-1ns`` machine (a dyadic-quantised
timebase) every scenario should report ``steady``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExperimentError
from repro.experiments.backends import SimulationBackend
from repro.experiments.sweep import Scenario, ScenarioSweep
from repro.sweep3d.input import Sweep3DInput

# ---------------------------------------------------------------------------
# Payload types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteadyScaleRow:
    """One modelled configuration of the steady-scaling grid."""

    label: str
    px: int
    py: int
    it: int
    jt: int
    kt: int
    iterations: int
    elapsed_s: float
    #: Which execution tier actually served the run (``"steady"``,
    #: ``"replay"`` or ``"engine"``; empty for pre-tier cached entries).
    execution_tier: str
    total_messages: int
    total_bytes: float
    compute_fraction: float

    @property
    def pes(self) -> int:
        return self.px * self.py

    @property
    def cells(self) -> int:
        return self.it * self.jt * self.kt

    @property
    def per_iteration_s(self) -> float:
        return self.elapsed_s / max(self.iterations, 1)


@dataclass
class SteadyScalingResult:
    """The steady-scaling study's payload."""

    machine_name: str
    sim_execution: str
    rows: list[SteadyScaleRow] = field(default_factory=list)

    def tiers(self) -> dict[str, int]:
        """Execution-tier counts across the grid (diagnostic summary)."""
        counts: dict[str, int] = {}
        for row in self.rows:
            tier = row.execution_tier or "unknown"
            counts[tier] = counts.get(tier, 0) + 1
        return counts

    def describe(self) -> str:
        tiers = ", ".join(f"{count} x {tier}"
                          for tier, count in sorted(self.tiers().items()))
        largest = max(self.rows, key=lambda row: row.cells, default=None)
        lines = [f"steady-scaling on {self.machine_name} "
                 f"(execution={self.sim_execution}): "
                 f"{len(self.rows)} configuration(s), tiers: {tiers or 'none'}"]
        if largest is not None:
            lines.append(
                f"  largest grid: {largest.it} x {largest.jt} x {largest.kt} "
                f"({largest.cells:,} cells) on {largest.pes} PE(s), "
                f"{largest.iterations} iteration(s) -> "
                f"{largest.elapsed_s:.3f} s modelled")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scenario grid
# ---------------------------------------------------------------------------


def _near_square(count: int) -> tuple[int, int]:
    """The most-square ``px x py`` factorisation of a processor count."""
    if count < 1:
        raise ExperimentError(
            f"processor counts must be >= 1, got {count!r}")
    px = int(math.isqrt(count))
    while count % px:
        px -= 1
    return px, count // px


def steady_scaling_scenarios(params) -> list[Scenario]:
    """The simulation scenario grid of the steady-scaling study.

    Shared with the noise-sensitivity study's target derivation, so the
    uncertainty sweep samples exactly the grid this study measures.
    """
    from repro.experiments.uncertainty import _deck_variables
    nx, ny, nz = (int(value) for value in params["cells_per_processor"])
    scenarios = []
    for count in params["processor_counts"]:
        px, py = _near_square(int(count))
        for iterations in params["iteration_counts"]:
            deck = Sweep3DInput(it=nx * px, jt=ny * py, kt=nz,
                                mk=int(params["mk"]), mmi=int(params["mmi"]),
                                sn=6, max_iterations=int(iterations),
                                label="steady-scaling")
            variables: dict[str, Any] = {"px": px, "py": py}
            variables.update(_deck_variables(deck))
            scenarios.append(Scenario(
                label=f"{px}x{py} @{int(iterations)} iter",
                variables=variables))
    return scenarios


# ---------------------------------------------------------------------------
# Study implementation
# ---------------------------------------------------------------------------


def _run_steady_scaling_impl(machine, params, context) -> SteadyScalingResult:
    execution = str(params["sim_execution"])
    # Noise is hardcoded off: the steady tier refuses noisy traces (their
    # draws are per-event), and this study measures the deterministic
    # modelled prediction.
    backend = SimulationBackend(machine, deck="validation",
                                numeric=False, with_noise=False,
                                execution=execution)
    runner = context.backend_runner(backend)
    scenarios = steady_scaling_scenarios(params)
    result = SteadyScalingResult(machine_name=machine.name,
                                 sim_execution=execution)
    for scenario, outcome in zip(scenarios, runner.run(ScenarioSweep(scenarios))):
        measurement = outcome.result
        variables = scenario.variables
        result.rows.append(SteadyScaleRow(
            label=scenario.label,
            px=measurement.px, py=measurement.py,
            it=int(variables["it"]), jt=int(variables["jt"]),
            kt=int(variables["kt"]),
            iterations=measurement.iterations,
            elapsed_s=measurement.elapsed_time,
            execution_tier=getattr(measurement, "execution_tier", ""),
            total_messages=measurement.total_messages,
            total_bytes=measurement.total_bytes,
            compute_fraction=measurement.compute_fraction,
        ))
    return result
