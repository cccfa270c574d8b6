"""The simulated processor model.

A :class:`ProcessorModel` answers "how long does this operation mix take?"
in two different ways:

* :meth:`ProcessorModel.execute_time` — the *achieved* behaviour of the
  processor, including superscalar overlap, compiler optimisation and memory
  hierarchy stalls.  This is the ground truth of the simulated machine: the
  discrete-event cluster simulator charges compute time through it and the
  PAPI-substitute profiler measures achieved MFLOPS from it.

* :meth:`ProcessorModel.legacy_opcode_time` — the prediction the *original*
  PACE hardware layer would have made by summing per-opcode micro-benchmark
  latencies obtained from dependent-chain benchmarks.  On superscalar
  processors this over-estimates the run time substantially, reproducing the
  up-to-50 % errors the paper reports for the old approach.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProcessorConfigError
from repro.simproc.cache import MemoryHierarchy
from repro.simproc.compiler import CompilerModel
from repro.simproc.opcodes import OpcodeCostTable, OperationMix
from repro import units
from repro.units import snap_to_grid


@dataclass(frozen=True)
class SuperscalarModel:
    """Instruction-level-parallelism capability of the core.

    Parameters
    ----------
    issue_width:
        Maximum instructions issued per cycle.
    fp_pipelines:
        Number of floating point execution pipelines (peak flops/cycle for
        fused-free codes equals this value).
    ilp_efficiency:
        Fraction of the theoretically available overlap the core actually
        achieves on the (dependency-laden) sweep kernel, in ``[0, 1]``.
    """

    issue_width: int
    fp_pipelines: int
    ilp_efficiency: float

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ProcessorConfigError("issue_width must be >= 1")
        if self.fp_pipelines < 1:
            raise ProcessorConfigError("fp_pipelines must be >= 1")
        if not 0.0 <= self.ilp_efficiency <= 1.0:
            raise ProcessorConfigError("ilp_efficiency must be in [0, 1]")

    @property
    def effective_parallelism(self) -> float:
        """Average number of operations retired per cycle-slot of the model."""
        return 1.0 + (self.issue_width - 1) * self.ilp_efficiency


@dataclass(frozen=True)
class ProcessorModel:
    """A complete single-processor performance model.

    Parameters
    ----------
    name:
        Marketing name, e.g. ``"Intel Pentium III 1.4GHz"``.
    clock_hz:
        Core clock frequency.
    costs:
        Per-opcode latency/throughput cycle table.
    memory:
        Cache hierarchy model.
    superscalar:
        ILP capability.
    compiler:
        Compiler used to build the application on this machine.
    """

    name: str
    clock_hz: float
    costs: OpcodeCostTable
    memory: MemoryHierarchy
    superscalar: SuperscalarModel
    compiler: CompilerModel

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ProcessorConfigError("clock frequency must be positive")

    # -- achieved behaviour --------------------------------------------------

    def execute_cycles(self, mix: OperationMix) -> float:
        """Cycles needed to execute ``mix`` as an optimised instruction stream."""
        if mix.is_empty():
            return 0.0
        optimised = self.compiler.optimise_mix(mix)
        issue = self.costs.throughput_cycles(optimised)
        issue *= self.compiler.schedule_factor()
        issue /= self.superscalar.effective_parallelism
        stalls = self.memory.stall_cycles(
            optimised.memory_accesses, optimised.working_set_bytes)
        return issue + stalls

    def execute_time(self, mix: OperationMix) -> float:
        """Wall-clock seconds for ``mix`` on this processor (achieved behaviour)."""
        return self.execute_cycles(mix) / self.clock_hz

    def achieved_flop_rate(self, mix: OperationMix) -> float:
        """Achieved floating point rate (flop/s) while executing ``mix``.

        This is the quantity the paper measures with PAPI and records in the
        HMCL hardware model (e.g. 110 MFLOPS for the Pentium-3 cluster at
        50^3 cells per processor).
        """
        time = self.execute_time(mix)
        if time <= 0:
            raise ProcessorConfigError("cannot compute a flop rate for an empty mix")
        return mix.flops / time

    def seconds_per_flop(self, mix: OperationMix) -> float:
        """Achieved cost of one floating point operation, in seconds.

        This is exactly the value stored against ``MFDG``/``AFDG`` in the
        HMCL hardware object (Figure 7 stores it in microseconds).
        """
        return 1.0 / self.achieved_flop_rate(mix)

    # -- legacy (original PACE) behaviour -------------------------------------

    def opcode_benchmark(self) -> dict[str, float]:
        """Per-opcode times (seconds) as the original PACE micro-benchmarks report.

        Dependent-chain micro-benchmarks observe instruction *latency*, with
        no overlap, no compiler rescheduling and in-cache data.
        """
        return {category.value: self.costs.latency[category] / self.clock_hz
                for category in self.costs.latency}

    def legacy_opcode_time(self, mix: OperationMix) -> float:
        """Predicted seconds for ``mix`` using the legacy per-opcode summation."""
        return self.costs.latency_cycles(mix) / self.clock_hz

    # -- descriptive ----------------------------------------------------------

    @property
    def peak_flop_rate(self) -> float:
        """Peak floating point rate of the core (flop/s)."""
        return self.clock_hz * self.superscalar.fp_pipelines

    def efficiency(self, mix: OperationMix) -> float:
        """Achieved fraction of peak floating point rate for ``mix``."""
        return self.achieved_flop_rate(mix) / self.peak_flop_rate

    def describe(self) -> str:
        return (f"{self.name}: {self.clock_hz / 1e9:.2f} GHz, "
                f"{self.superscalar.fp_pipelines} FP pipes, "
                f"{self.memory.describe()}, {self.compiler.describe()}, "
                f"peak {units.format_rate(self.peak_flop_rate)}")


@dataclass(frozen=True)
class QuantizedProcessor(ProcessorModel):
    """A processor whose modelled execute times snap to a dyadic time grid.

    Identical to :class:`ProcessorModel` except that
    :meth:`execute_time` rounds to the nearest multiple of
    ``time_quantum`` seconds (a power of two).  Together with
    :class:`~repro.simnet.link.QuantizedLink` this puts every event
    duration of a simulated run on one shared dyadic grid — the exactness
    precondition of the steady-state tier (:mod:`repro.simmpi.steady`).
    The cycle-level model (:meth:`execute_cycles`, flop rates, the legacy
    opcode path) is untouched; only the wall-clock conversion snaps.

    ``time_quantum = 0`` degrades to the continuous behaviour.
    """

    time_quantum: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.time_quantum < 0:
            raise ProcessorConfigError("time_quantum must be >= 0")

    def execute_time(self, mix: OperationMix) -> float:
        return snap_to_grid(super().execute_time(mix), self.time_quantum)
