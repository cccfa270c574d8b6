"""One-call drivers for serial and simulated-parallel SWEEP3D runs.

Two parallel entry points live here:

* :func:`run_parallel_sweep` — the original per-point path: one fresh
  :class:`~repro.simmpi.engine.ClusterEngine`, decomposition, quadrature and
  per-block operation-mix pricing per call.  It is the bit-for-bit reference
  the batched path is verified against.
* :class:`SimulationPlan` — the reusable lowering of one (deck, px, py,
  machine) configuration: topology validation, Cart2D decomposition,
  shared per-deck data and the memoised compute cost table are built once,
  and :meth:`SimulationPlan.run` re-executes the plan with per-run seeded
  noise.  This is what the scenario-sweep
  :class:`~repro.experiments.backends.SimulationBackend` evaluates grids
  through.

A plan additionally supports **trace replay** for modelled (timing-only)
runs: :meth:`SimulationPlan.compile_trace` records the plan's event
stream once (:mod:`repro.simmpi.trace`) and ``run(mode="replay")``
resolves each run as a vectorised max-plus recurrence over that trace —
bit-identical to the engine at matched noise seeds, an order of
magnitude faster per run.  ``mode="steady"`` goes one tier further for
periodic noise-free traces on a dyadic timebase: the steady-state tier
(:mod:`repro.simmpi.steady`) extrapolates the repeating regime in
O(period) instead of O(events), bit-identical or loudly falling back to
the full replay.  ``mode="auto"`` picks the fastest applicable tier:
steady for noise-free modelled runs (when it accepts), replay for other
modelled runs, the engine for numeric ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.errors import DecompositionError, TraceError
from repro.profiling.phases import PhaseTimer
from repro.simmpi.capture import (
    CaptureInfo,
    collectives_per_period,
    tile_trace,
    verify_extension,
)
from repro.simmpi.engine import ClusterEngine, SimulationResult
from repro.simmpi.steady import MIN_REPEATS, SteadyStateError, detect_period, steady_replay
from repro.simmpi.trace import (
    EV_COLLECTIVE,
    BatchReplayResult,
    CompiledTrace,
    TraceRecorder,
)
from repro.simnet.noise import NoiseModel
from repro.simnet.topology import ClusterTopology
from repro.simproc.processor import ProcessorModel
from repro.sweep3d.input import Sweep3DInput
from repro.sweep3d.parallel import (
    ParallelSweepConfig,
    SweepCostTable,
    SweepPlanData,
    make_decomposition,
    modelled_rank_summaries,
    sweep_rank_program,
)
from repro.sweep3d.serial import SerialSolveResult, SerialSweepSolver


@dataclass
class Sweep3DRunResult:
    """Outcome of a simulated parallel SWEEP3D run."""

    deck: Sweep3DInput
    px: int
    py: int
    simulation: SimulationResult
    rank_summaries: list[dict[str, Any]] = field(default_factory=list)

    @property
    def elapsed_time(self) -> float:
        """Simulated wall-clock time of the run (the paper's "Measurement" column)."""
        return self.simulation.elapsed_time

    @property
    def nranks(self) -> int:
        return self.px * self.py

    @property
    def iterations(self) -> int:
        return self.rank_summaries[0]["iterations"] if self.rank_summaries else 0

    @property
    def error_history(self) -> list[float]:
        return self.rank_summaries[0]["error_history"] if self.rank_summaries else []

    @property
    def total_messages(self) -> int:
        return self.simulation.traffic.messages

    def global_flux(self) -> np.ndarray | None:
        """Assemble the global scalar flux from numeric-mode rank outputs."""
        if not self.rank_summaries or self.rank_summaries[0]["phi_local"] is None:
            return None
        phi = np.zeros((self.deck.it, self.deck.jt, self.deck.kt))
        for summary in self.rank_summaries:
            local = summary["local_grid"]
            phi[local.i0:local.i0 + local.nx,
                local.j0:local.j0 + local.ny, :] = summary["phi_local"]
        return phi

    def compute_fraction(self) -> float:
        """Average fraction of rank time spent computing (vs communicating/waiting)."""
        ranks = self.simulation.ranks
        if not ranks:
            return 0.0
        return float(np.mean([r.compute_time / r.finish_time if r.finish_time > 0 else 0.0
                              for r in ranks]))


@dataclass
class Sweep3DSampleSet:
    """``S`` noisy samples of one plan, produced by a single batched replay.

    Sample ``s`` is bit-identical to ``plan.run(noise=noise, seed=seeds[s],
    mode="replay")`` (and therefore to the reference engine at the same
    seed); :meth:`sample` materialises it as a full
    :class:`Sweep3DRunResult` on demand.  Summary statistics delegate to
    the underlying :class:`~repro.simmpi.trace.BatchReplayResult`.
    """

    deck: Sweep3DInput
    px: int
    py: int
    batch: BatchReplayResult

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def n_samples(self) -> int:
        return len(self.batch)

    @property
    def seeds(self) -> list[int]:
        return self.batch.seeds

    @property
    def elapsed_times(self) -> np.ndarray:
        """``(S,)`` elapsed time of every sample."""
        return self.batch.elapsed

    @property
    def elapsed_mean(self) -> float:
        return self.batch.elapsed_mean

    @property
    def elapsed_std(self) -> float:
        return self.batch.elapsed_std

    @property
    def elapsed_ci95(self) -> float:
        return self.batch.elapsed_ci95

    def sample(self, index: int) -> Sweep3DRunResult:
        """Materialise sample ``index`` as a full run result."""
        simulation = self.batch.sample(index)
        summaries = [value for value in simulation.return_values]
        return Sweep3DRunResult(deck=self.deck, px=self.px, py=self.py,
                                simulation=simulation,
                                rank_summaries=summaries)

    def summary(self) -> dict[str, float]:
        return self.batch.summary()


def run_serial_sweep(deck: Sweep3DInput, max_iterations: int | None = None,
                     require_convergence: bool = False) -> SerialSolveResult:
    """Solve ``deck`` with the single-process reference solver."""
    return SerialSweepSolver(deck).solve(max_iterations=max_iterations,
                                         require_convergence=require_convergence)


def run_parallel_sweep(deck: Sweep3DInput,
                       px: int,
                       py: int,
                       topology: ClusterTopology,
                       processor: ProcessorModel | None = None,
                       noise: NoiseModel | None = None,
                       numeric: bool = False,
                       charge_compute: bool = True,
                       convergence_collectives: bool = True) -> Sweep3DRunResult:
    """Run the pipelined parallel sweep on a simulated cluster.

    Parameters
    ----------
    deck:
        Problem definition.
    px, py:
        Logical processor array dimensions (``px * py`` ranks are simulated).
    topology:
        Simulated cluster interconnect/node layout.
    processor:
        Processor model used to charge per-block compute time.  Required
        unless ``charge_compute`` is false.
    noise:
        OS/network noise model (defaults to none — deterministic run).
    numeric:
        Whether to perform real flux arithmetic (small grids only).
    charge_compute:
        Whether to charge modelled compute time per block.
    convergence_collectives:
        Whether to perform the per-iteration global reductions.
    """
    if charge_compute and processor is None:
        raise DecompositionError(
            "run_parallel_sweep needs a processor model when charge_compute=True")
    decomp = make_decomposition(deck, px, py)
    config = ParallelSweepConfig(numeric=numeric, charge_compute=charge_compute,
                                 convergence_collectives=convergence_collectives)
    engine = ClusterEngine(topology, processor=processor, noise=noise)
    simulation = engine.run(sweep_rank_program, nranks=decomp.nranks,
                            program_args=(deck, decomp, config))
    summaries = [value for value in simulation.return_values]
    return Sweep3DRunResult(deck=deck, px=px, py=py, simulation=simulation,
                            rank_summaries=summaries)


def _summaries_match(expected: list[dict[str, Any]],
                     recorded: list[Any]) -> bool:
    """Field-exact equality of synthesized vs recorded rank summaries.

    Used by periodic capture to validate the analytic return-value
    synthesis (:func:`~repro.sweep3d.parallel.modelled_rank_summaries`)
    against what the short probe capture actually recorded — every float
    compared exactly, since the contract is bit-identity.
    """
    if len(expected) != len(recorded):
        return False
    for want, got in zip(expected, recorded):
        if not isinstance(got, dict) or set(want) != set(got):
            return False
        if (want["rank"] != got["rank"]
                or got["phi_local"] is not None
                or want["local_grid"] != got["local_grid"]
                or want["error_history"] != got["error_history"]
                or want["leakage_history"] != got["leakage_history"]
                or want["blocks_swept"] != got["blocks_swept"]
                or want["iterations"] != got["iterations"]):
            return False
    return True


#: The execution tiers :meth:`SimulationPlan.run` accepts as ``mode``.
EXECUTION_MODES = ("auto", "engine", "replay", "steady")


class SimulationPlan:
    """A reusable lowering of one simulated SWEEP3D configuration.

    Building a plan performs every piece of work that does not depend on
    the individual run: the rank-count validation, the 2-D decomposition,
    the shared quadrature/blocking data and (for modelled runs) the
    memoised compute cost table.  One :class:`ClusterEngine` is kept for
    the plan's lifetime and re-executed per run — the engine resets its
    per-run state, so repeated runs are bit-identical to fresh engines.

    Parameters mirror :func:`run_parallel_sweep`; ``cost_table`` may be
    shared between plans bound to the same processor model so that grid
    points pricing the same block shapes reuse each other's work.
    """

    def __init__(self, deck: Sweep3DInput, px: int, py: int,
                 topology: ClusterTopology,
                 processor: ProcessorModel | None = None,
                 numeric: bool = False,
                 charge_compute: bool = True,
                 convergence_collectives: bool = True,
                 cost_table: SweepCostTable | None = None,
                 trace_cache: "Any | None" = None):
        if charge_compute and processor is None:
            raise DecompositionError(
                "SimulationPlan needs a processor model when charge_compute=True")
        if cost_table is not None and cost_table.processor is not processor:
            raise DecompositionError(
                "the shared cost table was priced for a different processor model")
        self.deck = deck
        self.px = px
        self.py = py
        self.topology = topology
        self.processor = processor
        self.decomp = make_decomposition(deck, px, py)
        topology.validate_rank_count(self.decomp.nranks)
        self.config = ParallelSweepConfig(
            numeric=numeric, charge_compute=charge_compute,
            convergence_collectives=convergence_collectives)
        self.shared = SweepPlanData.for_deck(deck)
        if charge_compute and processor is not None:
            self.costs = cost_table if cost_table is not None else SweepCostTable(processor)
        else:
            self.costs = None
        self.engine = ClusterEngine(topology, processor=processor)
        #: Number of times this plan has been executed.
        self.runs = 0
        #: Number of runs served by trace replay (vs the reference engine).
        self.replays = 0
        #: Number of runs served by the steady-state tier.
        self.steadies = 0
        #: Execution tier of the most recent run: "engine", "replay" or
        #: "steady" (None before the first run).
        self.last_execution: str | None = None
        #: Why the steady tier refused the most recent run, if it did.
        self.last_steady_refusal: str | None = None
        #: Optional :class:`~repro.simmpi.tracecache.TraceDiskCache`
        #: consulted (and filled) by :meth:`compile_trace`.
        self.trace_cache = trace_cache
        #: How the most recent :meth:`compile_trace` produced its trace
        #: (None until a trace has been compiled).
        self.last_capture: CaptureInfo | None = None
        #: Host wall-clock accounting per execution phase ("capture",
        #: "replay", "steady", "engine"), accumulated across runs.
        self.phases = PhaseTimer()
        self._trace: CompiledTrace | None = None

    @property
    def nranks(self) -> int:
        return self.decomp.nranks

    #: Shortest candidate capture: enough iterations for the detector to
    #: see ``MIN_REPEATS`` whole periods (the sweep's period is one
    #: iteration and its warm-up a fraction of one, so one extra
    #: iteration of slack suffices; if not, the probe doubles).
    _MIN_SHORT_ITERATIONS = MIN_REPEATS + 1

    def trace_fingerprint(self) -> tuple:
        """A value identity of this plan's *pattern*, keying the trace cache.

        Two plans with equal fingerprints record byte-identical traces:
        the fingerprint covers everything the recorded pattern is a
        function of — the deck parameters, the processor array shape, the
        processor and link models (frozen dataclasses, so their reprs are
        stable value representations) and the capture-relevant config
        flags.  It deliberately **excludes** the machine/topology names
        and every noise parameter: a trace is a pattern, shared by all
        noise seeds and by presets that alias the same models.
        """
        deck = self.deck
        topo = self.topology
        return (
            "sweep3d-trace", 1,
            (deck.it, deck.jt, deck.kt, deck.mk, deck.mmi, deck.sn,
             deck.epsi, deck.max_iterations, deck.dx, deck.dy, deck.dz,
             deck.sigma_t, deck.sigma_s, deck.fixed_source,
             deck.flux_fixup),
            self.px, self.py,
            repr(self.processor),
            topo.processors_per_node,
            repr(topo.inter_node),
            repr(topo.intra_node),
            self.config.charge_compute,
            self.config.convergence_collectives,
        )

    def compile_trace(self) -> CompiledTrace:
        """Obtain this plan's event stream once for max-plus replay.

        The trace is captured lazily and cached for the plan's lifetime
        (the pattern is a pure function of the plan's deck/decomposition).
        Capture itself is tiered, cheapest first, each tier bit-identical
        to the O(events) recorder or skipped with the reason recorded in
        :attr:`last_capture`:

        1. the persistent :attr:`trace_cache` (if one is attached), keyed
           by :meth:`trace_fingerprint`;
        2. **periodic capture** — record only warm-up plus a few whole
           periods, then tile the period
           (:func:`~repro.simmpi.capture.tile_trace`), refusing loudly on
           any structural doubt;
        3. the full :class:`~repro.simmpi.trace.TraceRecorder` pass.

        Numeric runs carry real payloads whose values feed back into the
        pattern, so they cannot be trace-compiled and raise
        :class:`~repro.errors.TraceError`.
        """
        if self.config.numeric:
            raise TraceError(
                "trace replay supports modelled (timing-only) runs; numeric "
                "runs must use the reference engine")
        if self._trace is None:
            with self.phases.phase("capture"):
                self._trace = self._capture_trace()
        return self._trace

    def _record_trace(self, deck: Sweep3DInput) -> CompiledTrace:
        """One recorder pass over ``deck``, reusing the plan's shared data.

        Valid for any ``max_iterations`` variant of the plan's deck: the
        decomposition, quadrature/blocking data and cost table do not
        depend on the iteration count.
        """
        recorder = TraceRecorder(self.topology, processor=self.processor)
        return recorder.record(
            sweep_rank_program, nranks=self.decomp.nranks,
            program_args=(deck, self.decomp, self.config),
            program_kwargs={"costs": self.costs, "shared": self.shared})

    def _capture_trace(self) -> CompiledTrace:
        """The tiered capture chain behind :meth:`compile_trace`."""
        start = time.perf_counter()
        key = None
        if self.trace_cache is not None:
            key = self.trace_fingerprint()
            cached = self.trace_cache.get(key)
            if cached is not None:
                self.last_capture = CaptureInfo(
                    mode="cache",
                    total_iterations=self.deck.max_iterations,
                    capture_s=time.perf_counter() - start)
                return cached
        try:
            trace, info = self._periodic_capture()
        except TraceError as exc:
            trace = self._record_trace(self.deck)
            info = CaptureInfo(mode="full",
                               total_iterations=self.deck.max_iterations,
                               reason=str(exc))
        info.capture_s = time.perf_counter() - start
        self.last_capture = info
        if key is not None:
            self.trace_cache.put(key, trace)
        return trace

    def _periodic_capture(self) -> tuple[CompiledTrace, CaptureInfo]:
        """Record a short prefix, prove its period, tile the remainder.

        Soundness rests on the recorder being timing-free: the trace of
        ``m`` iterations is exactly the first ``n_m`` events of the trace
        of ``T > m`` iterations, so extending the short capture by whole
        periods *is* the longer capture — provided the period structure
        genuinely extends.  That proviso is enforced, not assumed: raises
        :class:`~repro.errors.TraceError` (and the caller falls back to
        the full recorder) unless every check below passes, so the result
        is bit-identical to full capture or refused loudly.
        """
        total = self.deck.max_iterations
        m = self._MIN_SHORT_ITERATIONS
        if total < 2 * m:
            raise TraceError(
                f"periodic capture refused: too few iterations ({total}) "
                f"to amortise a {m}-iteration probe capture")
        if not self.config.convergence_collectives:
            raise TraceError(
                "periodic capture refused: without convergence collectives "
                "there is no per-iteration anchor to count tiled iterations")
        # Grow the probe until the detector accepts (the sweep's period is
        # one iteration, so the first probe almost always suffices).
        while True:
            short_deck = replace(self.deck, max_iterations=m)
            short = self._record_trace(short_deck)
            info = detect_period(short)
            if info.periodic:
                break
            m *= 2
            if 2 * m > total:
                raise TraceError(
                    "periodic capture refused: no period detected within "
                    f"half the run ({info.reason})")
        # Anchor the iteration count on the per-period collective count:
        # modelled sweeps perform exactly two reductions per iteration.
        per_period = collectives_per_period(short, info)
        if per_period <= 0 or per_period % 2:
            raise TraceError(
                "periodic capture refused: the detected period holds "
                f"{per_period} collective(s), not the two per iteration "
                "the sweep's convergence reductions contribute")
        iters_per_period = per_period // 2
        remaining = total - m
        if remaining % iters_per_period:
            raise TraceError(
                f"periodic capture refused: remaining iterations "
                f"({remaining}) are not a whole number of "
                f"{iters_per_period}-iteration periods")
        tiles = remaining // iters_per_period
        # The rank programs' return values are synthesized analytically;
        # cross-check the synthesis against the recorded prefix first.
        expected_short = modelled_rank_summaries(
            short_deck, self.decomp, self.config, self.shared)
        if not _summaries_match(expected_short, short._return_values):
            raise TraceError(
                "periodic capture refused: synthesized rank summaries do "
                "not match the recorded prefix's return values")
        full_values = modelled_rank_summaries(
            self.deck, self.decomp, self.config, self.shared)
        full = tile_trace(short, info, tiles, return_values=full_values,
                          topology=self.topology)
        # Re-verify on the synthesized trace: the same structure must
        # extend by exactly `tiles` repeats.
        failure = verify_extension(full, info, info.repeats + tiles)
        if failure:
            raise TraceError(f"periodic capture refused: {failure}")
        collectives = int(np.count_nonzero(full.event_kind == EV_COLLECTIVE))
        if collectives != 2 * total:
            raise TraceError(
                f"periodic capture refused: tiled collective count "
                f"({collectives}) does not anchor {total} iterations")
        return full, CaptureInfo(
            mode="periodic", total_iterations=total, short_iterations=m,
            tiles=tiles, warmup=info.warmup, period=info.period,
            drain=info.drain, sends_per_period=info.sends_per_period,
            iterations_per_period=iters_per_period)

    def run(self, noise: NoiseModel | None = None,
            seed: int | None = None,
            mode: str = "engine",
            samples: int | None = None
            ) -> Sweep3DRunResult | Sweep3DSampleSet:
        """Execute the plan once — or ``samples`` times in one batch.

        ``noise`` defaults to a disabled (deterministic) model; passing
        ``seed`` instead reseeds a copy of ``noise`` so that every scenario
        of a sweep owns an independent, reproducible stream.  The noise is
        passed to the engine per run — a shared plan carries no cross-run
        mutable state.

        ``mode`` selects the execution tier: ``"engine"`` (default) runs
        the reference :class:`~repro.simmpi.engine.ClusterEngine`;
        ``"replay"`` resolves the run from the compiled trace
        (:meth:`compile_trace`), bit-identically; ``"steady"`` asks the
        steady-state tier (:mod:`repro.simmpi.steady`) to resolve the
        periodic regime in O(period) — bit-identical when it accepts,
        falling back to the full replay (with the reason recorded in
        :attr:`last_steady_refusal`) when it refuses; ``"auto"`` picks
        the fastest applicable tier — steady for noise-free modelled
        runs, replay for noisy modelled runs, the engine for numeric
        ones.  :attr:`last_execution` records which tier produced the
        most recent result.

        With ``samples=S`` the plan resolves ``S`` independently seeded
        noisy runs in **one** batched max-plus pass
        (:meth:`~repro.simmpi.trace.CompiledTrace.replay_batch`) and
        returns a :class:`Sweep3DSampleSet`.  Sample ``s`` uses seed
        ``base + s`` — ``base`` being ``seed`` if given, else
        ``noise.seed`` — and is bit-identical to the single run at that
        seed.  Multi-sample runs are replay-only: ``mode`` must be
        ``"replay"`` or ``"auto"``, and numeric plans raise
        :class:`~repro.errors.TraceError`.
        """
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown simulation mode {mode!r}; expected 'engine', "
                "'replay', 'steady' or 'auto'")
        if noise is None:
            noise = NoiseModel.disabled()
        if seed is not None:
            noise = noise.reseeded(seed)
        self.last_steady_refusal = None
        if samples is not None:
            if samples < 1:
                raise ValueError("samples must be >= 1")
            if mode in ("engine", "steady"):
                raise ValueError(
                    "multi-sample runs are resolved by batched trace "
                    "replay; use mode='replay' or 'auto'")
            seeds = [noise.seed + offset for offset in range(samples)]
            trace = self.compile_trace()
            with self.phases.phase("replay"):
                batch = trace.replay_batch(seeds, noise)
            self.replays += samples
            self.runs += samples
            self.last_execution = "replay"
            return Sweep3DSampleSet(deck=self.deck, px=self.px, py=self.py,
                                    batch=batch)
        if mode in ("replay", "steady") or (mode == "auto"
                                            and not self.config.numeric):
            trace = self.compile_trace()
            simulation = None
            # "auto" only *attempts* steady when noise is off — a noisy
            # run has no repeating period, so the attempt would always
            # refuse and the O(events) scan would be wasted.
            if mode == "steady" or (mode == "auto" and noise.is_disabled()):
                try:
                    with self.phases.phase("steady"):
                        simulation = steady_replay(trace, noise)
                    self.steadies += 1
                    self.last_execution = "steady"
                except SteadyStateError as exc:
                    self.last_steady_refusal = str(exc)
            if simulation is None:
                with self.phases.phase("replay"):
                    simulation = trace.replay(noise)
                self.replays += 1
                self.last_execution = "replay"
        else:
            with self.phases.phase("engine"):
                simulation = self.engine.run(
                    sweep_rank_program, nranks=self.decomp.nranks,
                    program_args=(self.deck, self.decomp, self.config),
                    program_kwargs={"costs": self.costs, "shared": self.shared},
                    noise=noise)
            self.last_execution = "engine"
        self.runs += 1
        summaries = [value for value in simulation.return_values]
        return Sweep3DRunResult(deck=self.deck, px=self.px, py=self.py,
                                simulation=simulation, rank_summaries=summaries)
