"""The :class:`Machine` abstraction: one simulated cluster system."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro import units
from repro.core.hmcl.model import CpuCostModel, HardwareModel, MpiCostModel
from repro.simnet.link import LinkModel, QuantizedLink
from repro.simnet.topology import ClusterTopology
from repro.simproc.processor import ProcessorModel, QuantizedProcessor
from repro.sweep3d.input import Sweep3DInput

if TYPE_CHECKING:
    from repro.profiling.papi import FlopProfile
    from repro.simnet.noise import NoiseModel
    from repro.sweep3d.driver import SimulationPlan, Sweep3DRunResult
    from repro.sweep3d.parallel import SweepCostTable


@dataclass
class Machine:
    """A complete simulated cluster: processors + interconnect + noise.

    Parameters
    ----------
    name:
        Registry name (e.g. ``"pentium3-myrinet"``).
    description:
        Human readable description used in reports.
    processor:
        Single-processor performance model.
    topology:
        Node/interconnect layout.
    paper_flop_rate_mflops:
        The achieved rate the paper reports for this machine (for
        side-by-side comparison in EXPERIMENTS.md); not used in computations.
    fixed_flop_rate_mflops:
        When set, the HMCL cpu section uses this rate instead of the
        profiled one.  The speculative study uses 340 MFLOPS, following the
        paper.
    noise_seed:
        Base seed for the measurement noise; each simulated run offsets it
        so different configurations see independent noise.
    """

    name: str
    description: str
    processor: ProcessorModel
    topology: ClusterTopology
    paper_flop_rate_mflops: float | None = None
    fixed_flop_rate_mflops: float | None = None
    noise_seed: int = 2006
    compute_jitter: float = 0.008
    network_jitter: float = 0.02
    #: Mean interval between background-daemon interruptions (seconds of
    #: virtual time) and their mean duration; together they impose the
    #: ~1-3 % background-load overhead the paper attributes its residual
    #: errors to.
    daemon_interval: float = 0.06
    daemon_duration: float = 1.2e-3

    _benchmark_cache: dict[bool, MpiCostModel] = field(default_factory=dict, repr=False)
    _profile_cache: dict[tuple[int, int, int], FlopProfile] = field(default_factory=dict,
                                                                    repr=False)
    #: Plans memoised by :meth:`simulate`, so repeated calls for one
    #: configuration reuse the plan (and, on the replay tiers, its
    #: compiled trace) instead of rebuilding it per call.
    _plan_cache: dict[tuple, SimulationPlan] = field(default_factory=dict, repr=False)

    def __getstate__(self):
        # Machines travel to multiprocessing workers inside a pickled
        # SimulationBackend; memoised plans (and their compiled traces)
        # are cheap to rebuild and would only bloat that payload.
        state = dict(self.__dict__)
        state["_plan_cache"] = {}
        return state

    # ------------------------------------------------------------------
    # Hardware-layer measurement campaigns
    # ------------------------------------------------------------------

    def profile_flop_rate(self, deck: Sweep3DInput, px: int, py: int) -> FlopProfile:
        """Profile the achieved flop rate for the per-processor sub-domain."""
        from repro.profiling.papi import FlopProfiler

        nx, ny = -(-deck.it // px), -(-deck.jt // py)
        key = (nx, ny, deck.kt)
        if key not in self._profile_cache:
            self._profile_cache[key] = FlopProfiler(self.processor).profile(
                deck, nx=nx, ny=ny)
        return self._profile_cache[key]

    def mpi_cost_model(self, inter_node: bool = True) -> MpiCostModel:
        """Fit the A-E communication parameters from simulated micro-benchmarks."""
        if inter_node not in self._benchmark_cache:
            from repro.profiling.mpibench import MpiBenchmark
            from repro.simnet.noise import NoiseModel

            benchmark = MpiBenchmark(self.topology, noise=NoiseModel.disabled())
            data = benchmark.run(inter_node=inter_node)
            fits = data.fit()
            self._benchmark_cache[inter_node] = MpiCostModel(
                send=fits["send"], recv=fits["recv"], pingpong=fits["pingpong"])
        return self._benchmark_cache[inter_node]

    def hardware_model(self, deck: Sweep3DInput, px: int, py: int,
                       legacy_cpu: bool = False,
                       flop_rate_override: float | None = None) -> HardwareModel:
        """Build the HMCL hardware object for a given workload.

        Parameters
        ----------
        deck, px, py:
            Workload whose per-processor problem size determines the
            profiled achieved rate (the paper re-profiles per problem size).
        legacy_cpu:
            Use the legacy per-opcode benchmark cpu section instead of the
            coarse achieved-rate section (the ablation of Section 4).
        flop_rate_override:
            Use an explicit achieved rate in flop/s (the speculative study's
            340 MFLOPS and its +25 %/+50 % variants).
        """
        if legacy_cpu:
            cpu = CpuCostModel.from_opcode_benchmark(self.processor.opcode_benchmark())
        elif flop_rate_override is not None:
            cpu = CpuCostModel.from_achieved_rate(flop_rate_override)
        elif self.fixed_flop_rate_mflops is not None:
            cpu = CpuCostModel.from_achieved_rate(
                self.fixed_flop_rate_mflops * units.MFLOPS)
        else:
            profile = self.profile_flop_rate(deck, px, py)
            cpu = CpuCostModel.from_achieved_rate(profile.achieved_flop_rate)
        return HardwareModel(
            name=self.name,
            cpu=cpu,
            mpi=self.mpi_cost_model(inter_node=True),
            processors_per_node=self.topology.processors_per_node,
            description=self.description,
        )

    # ------------------------------------------------------------------
    # Simulated measurement
    # ------------------------------------------------------------------

    def noise_model(self, seed_offset: int = 0) -> NoiseModel:
        """Noise model for one simulated run (seeded, reproducible)."""
        from repro.simnet.noise import NoiseModel

        return NoiseModel(seed=self.noise_seed + seed_offset,
                          compute_jitter=self.compute_jitter,
                          network_jitter=self.network_jitter,
                          daemon_interval=self.daemon_interval,
                          daemon_duration=self.daemon_duration)

    def simulate(self, deck: Sweep3DInput, px: int, py: int,
                 numeric: bool = False, seed_offset: int = 0,
                 with_noise: bool = True,
                 execution: str = "engine",
                 samples: int | None = None) -> Sweep3DRunResult:
        """Execute the parallel sweep on the discrete-event simulator.

        This produces the "Measurement" column of the validation tables.
        The configuration is lowered once into a memoised
        :class:`~repro.sweep3d.driver.SimulationPlan` and run on the tier
        ``execution`` names (see :meth:`SimulationPlan.run
        <repro.sweep3d.driver.SimulationPlan.run>`): ``"engine"``
        (default) is the reference engine, ``"replay"``/``"auto"``
        resolve the run from the plan's compiled trace
        (:mod:`repro.simmpi.trace`), bit-identically.  ``samples`` (with a
        replay-capable ``execution``) draws that many noise seeds in one
        batched replay and returns a
        :class:`~repro.sweep3d.driver.Sweep3DSampleSet` instead; sample 0
        uses ``seed_offset``'s own noise stream, so its run is
        bit-identical to the single-run path.  ``samples`` of 0 or
        ``None`` is one run.
        """
        from repro.simnet.noise import NoiseModel

        noise = self.noise_model(seed_offset) if with_noise else NoiseModel.disabled()
        key = (deck, px, py, numeric)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self._plan_cache[key] = self.simulation_plan(
                deck, px, py, numeric=numeric)
        return plan.run(noise=noise, mode=execution, samples=samples or None)

    def simulation_plan(self, deck: Sweep3DInput, px: int, py: int,
                        numeric: bool = False,
                        cost_table: SweepCostTable | None = None,
                        trace_cache=None) -> SimulationPlan:
        """Lower one configuration into a reusable :class:`SimulationPlan`.

        The plan re-executes across noise seeds without rebuilding the
        engine, decomposition or compute cost table;
        ``plan.run(noise=self.noise_model(offset))`` is bit-identical to
        :meth:`simulate` with the same ``seed_offset``.  ``trace_cache``
        (a :class:`~repro.simmpi.tracecache.TraceDiskCache`) lets the
        plan serve/persist its compiled trace across processes.
        """
        from repro.sweep3d.driver import SimulationPlan

        return SimulationPlan(deck, px, py, topology=self.topology,
                              processor=self.processor, numeric=numeric,
                              cost_table=cost_table, trace_cache=trace_cache)

    def quantized(self, time_quantum: float = 2.0 ** -30,
                  name: str | None = None,
                  description: str | None = None) -> "Machine":
        """A copy of this machine on a dyadic time grid of ``time_quantum``.

        Every component that prices a duration is wrapped in its quantized
        variant (:class:`~repro.simproc.processor.QuantizedProcessor` for
        compute charges, :class:`~repro.simnet.link.QuantizedLink` for
        wire times, CPU overheads and collective costs), so every modelled
        event duration becomes an exact binary multiple of the quantum.
        That is the exactness precondition of the steady-state execution
        tier (:mod:`repro.simmpi.steady`): on a quantized machine the
        max-plus replay is exact integer arithmetic and periodic traces
        can be extrapolated bit-identically in O(period).

        The default quantum ``2**-30`` s (≈ 0.93 ns) is orders of
        magnitude below every modelled latency and compute charge, so
        results differ from the continuous parent only below the physical
        fidelity of the model.  The returned machine has fresh caches and
        a distinct name/fingerprint, so disk-cache entries never cross
        between the continuous and quantized variants.
        """

        def quantize_link(link: LinkModel | None) -> LinkModel | None:
            if link is None:
                return None
            if isinstance(link, QuantizedLink):
                return replace(link, time_quantum=time_quantum)
            values = {f.name: getattr(link, f.name) for f in fields(LinkModel)}
            return QuantizedLink(time_quantum=time_quantum, **values)

        processor = self.processor
        if isinstance(processor, QuantizedProcessor):
            processor = replace(processor, time_quantum=time_quantum)
        else:
            values = {f.name: getattr(processor, f.name)
                      for f in fields(ProcessorModel)}
            processor = QuantizedProcessor(time_quantum=time_quantum, **values)
        topology = replace(
            self.topology,
            inter_node=quantize_link(self.topology.inter_node),
            intra_node=quantize_link(self.topology.intra_node))
        return replace(
            self,
            name=name or f"{self.name}-quantized",
            description=description or (f"{self.description} "
                                        f"[tick-quantized, {time_quantum:g}s grid]"),
            processor=processor,
            topology=topology,
            _benchmark_cache={}, _profile_cache={}, _plan_cache={})

    def describe(self) -> str:
        return (f"{self.name}: {self.description}\n"
                f"  processor: {self.processor.describe()}\n"
                f"  network:   {self.topology.describe()}")
