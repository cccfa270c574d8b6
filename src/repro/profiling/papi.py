"""PAPI-substitute flop profiling of the serial SWEEP3D kernel.

The paper (Section 4.3) profiles the application with PAPI hardware
counters to obtain the *achieved* floating point operation rate for the
per-processor problem size of interest, on one or two processors.  That
single rate — not per-opcode micro-benchmark times — drives the computation
term of the model, which is what makes the approach robust to superscalar
hardware, memory hierarchies and optimising compilers.

Here the profiler "runs" the serial kernel on a simulated
:class:`~repro.simproc.processor.ProcessorModel`: it builds the kernel's
per-iteration operation mix for the requested sub-domain and asks the
processor model for the achieved execution behaviour.  It also verifies the
static (capp-style) operation counts against the kernel's own tally, the
role run-time profiling plays in the paper's combined static + dynamic
characterisation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.simproc.opcodes import OperationMix
from repro.simproc.processor import ProcessorModel
from repro.sweep3d.input import Sweep3DInput
from repro.sweep3d.kernel import SweepKernel


@dataclass(frozen=True)
class FlopProfile:
    """Result of profiling the serial kernel on a simulated processor.

    Attributes
    ----------
    processor_name:
        The profiled processor.
    cells:
        Per-processor sub-domain shape (nx, ny, nz).
    flops:
        Floating point operations executed per source iteration.
    execute_time:
        Seconds per source iteration on the simulated processor.
    achieved_flop_rate:
        Achieved rate in flop/s — the paper's headline quantity (e.g.
        110 MFLOPS on the Pentium-3 cluster for the 50^3 problem).
    peak_flop_rate:
        Peak rate of the processor, for efficiency reporting.
    legacy_time:
        The per-iteration time the legacy per-opcode summation would
        predict (used by the ablation experiment).
    """

    processor_name: str
    cells: tuple[int, int, int]
    flops: float
    execute_time: float
    achieved_flop_rate: float
    peak_flop_rate: float
    legacy_time: float

    @property
    def achieved_mflops(self) -> float:
        """Achieved rate in MFLOP/s."""
        return self.achieved_flop_rate / units.MFLOPS

    @property
    def seconds_per_flop(self) -> float:
        """Cost of one floating point operation — the HMCL ``MFDG``/``AFDG`` value."""
        return 1.0 / self.achieved_flop_rate

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the processor's peak floating point rate."""
        return self.achieved_flop_rate / self.peak_flop_rate

    def describe(self) -> str:
        nx, ny, nz = self.cells
        return (f"{self.processor_name}: {nx}x{ny}x{nz} cells/proc -> "
                f"{self.achieved_mflops:.0f} MFLOPS achieved "
                f"({self.efficiency * 100:.1f}% of peak)")


class FlopProfiler:
    """Profiles the SWEEP3D serial kernel on a simulated processor."""

    def __init__(self, processor: ProcessorModel):
        self.processor = processor

    def profile(self, deck: Sweep3DInput, nx: int | None = None,
                ny: int | None = None) -> FlopProfile:
        """Profile one source iteration over an ``nx x ny x kt`` sub-domain.

        ``nx``/``ny`` default to the deck's full horizontal extent (a 1x1
        decomposition, as in the paper's single-processor profiling runs).
        """
        nx = deck.it if nx is None else nx
        ny = deck.jt if ny is None else ny
        kernel = SweepKernel(deck)
        mix = kernel.local_sweep_mix(nx, ny)
        return self.profile_mix(mix, cells=(nx, ny, deck.kt))

    def profile_mix(self, mix: OperationMix,
                    cells: tuple[int, int, int] = (0, 0, 0)) -> FlopProfile:
        """Profile an explicit operation mix (used by tests and the ablation)."""
        execute_time = self.processor.execute_time(mix)
        return FlopProfile(
            processor_name=self.processor.name,
            cells=cells,
            flops=mix.flops,
            execute_time=execute_time,
            achieved_flop_rate=mix.flops / execute_time,
            peak_flop_rate=self.processor.peak_flop_rate,
            legacy_time=self.processor.legacy_opcode_time(mix),
        )
