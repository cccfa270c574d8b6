"""Drivers for serial and simulated-parallel SWEEP3D runs.

Every simulated parallel run goes through a :class:`SimulationPlan`, the
reusable lowering of one (deck, px, py, machine) configuration: topology
validation, Cart2D decomposition, shared per-deck data and the memoised
compute cost table are built once, and :meth:`SimulationPlan.run`
re-executes the plan with per-run seeded noise.  The scenario-sweep
:class:`~repro.experiments.backends.SimulationBackend` evaluates grids
through plans, and :meth:`Machine.simulate
<repro.machines.machine.Machine.simulate>` memoises one plan per
configuration.

A plan additionally supports **trace replay** for modelled (timing-only)
runs: :meth:`SimulationPlan.compile_trace` records the plan's event
stream once (:mod:`repro.simmpi.trace`), from one harvested iteration
per rank (and for a periodic capture, two recorded iterations; see
:mod:`repro.simmpi.capture`), and ``run(mode="replay")``
resolves each run as a vectorised max-plus recurrence over that trace —
bit-identical to the engine at matched noise seeds, an order of
magnitude faster per run.  ``mode="steady"`` goes one tier further for
periodic noise-free runs on a dyadic timebase: the steady-state tier
(:mod:`repro.simmpi.steady`) replays the two recorded iterations and
extrapolates the rest, bit-identical or loudly falling back to the full
replay.  ``mode="auto"`` picks the fastest applicable tier: steady for
noise-free modelled runs (when it accepts), replay for other modelled
runs, the engine for numeric ones.

A plan holds its capture for its lifetime.  A periodic capture
(:class:`~repro.simmpi.capture.PeriodicCapture`: two recorded
iterations standing for the whole run) is what the steady tier resolves
and what a trace-cache entry stores.  The full table is tiled from it,
never recorded again, the first time a scalar or batched replay or
:meth:`compile_trace` needs it; the plan keeps the table too, and the
capture's recording then reads the table's first rows.
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
    PeriodicCapture,
    extend_recording,
    second_iteration,
    share_columns,
    tile_trace,
)
from repro.simmpi.engine import ClusterEngine, SimulationResult
from repro.simmpi.steady import (
    SteadyStateError,
    describe_steady,
    steady_replay,
)
from repro.simmpi.trace import BatchReplayResult, CompiledTrace, TraceRecorder
from repro.simnet.noise import NoiseModel
from repro.simnet.topology import ClusterTopology
from repro.simproc.processor import ProcessorModel
from repro.sweep3d.execution import EXECUTION_MODES
from repro.sweep3d.input import Sweep3DInput
from repro.sweep3d.parallel import (
    SweepCostTable,
    SweepPlanData,
    body_rank_program,
    harvest_iteration_bodies,
    make_decomposition,
    modelled_rank_summaries,
    sweep_rank_program,
)
from repro.sweep3d.serial import SerialSolveResult, SerialSweepSolver

#: Largest sample count :meth:`SimulationPlan.run` resolves by one scalar
#: replay per seed; more samples share one batched replay, whose wave
#: schedule costs more than a few scalar replays.  On fresh traces with
#: daemon noise (2-vCPU VM), per-seed replays won at S=4 on every trace
#: measured, from 974 to 278,808 events (402 against 505 ms on the
#: 64-rank 12-iteration trace), and the batch won on that trace from S=8
#: (562 against 770 ms).  ``benchmarks/bench_multiseed.py`` pins both
#: sides.
PER_SEED_SAMPLES = 4


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
    """``S`` noisy samples of one plan, as one batch result.

    Produced by one batched replay, or for up to :data:`PER_SEED_SAMPLES`
    samples by one scalar replay per seed; either way sample ``s`` is
    bit-identical to ``plan.run(noise.reseeded(seeds[s]),
    mode="replay")`` (and therefore to the reference engine at the same
    seed).  :meth:`sample` materialises it as a full
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


def run_serial_sweep(deck: Sweep3DInput) -> SerialSolveResult:
    """Solve ``deck`` with the single-process reference solver."""
    return SerialSweepSolver(deck).solve()


def _summaries_match(expected: list[dict[str, Any]],
                     recorded: list[Any]) -> bool:
    """Field-exact equality of synthesized vs recorded rank summaries.

    Used by periodic capture to validate the analytic return-value
    synthesis (:func:`~repro.sweep3d.parallel.modelled_rank_summaries`)
    against what the two recorded iterations returned — every float
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


class SimulationPlan:
    """A reusable lowering of one simulated SWEEP3D configuration.

    Building a plan performs every piece of work that does not depend on
    the individual run: the rank-count validation, the 2-D decomposition,
    the shared quadrature/blocking data and the memoised compute cost
    table.  One :class:`ClusterEngine` is kept for the plan's lifetime and
    re-executed per run — the engine keeps no per-run state, so repeated
    runs are bit-identical to fresh engines.

    Parameters
    ----------
    deck:
        Problem definition.
    px, py:
        Logical processor array dimensions (``px * py`` ranks are simulated).
    topology:
        Simulated cluster interconnect/node layout.
    processor:
        Processor model that prices every compute charge.
    numeric:
        Whether to perform real flux arithmetic (small grids only).
    cost_table:
        A :class:`SweepCostTable` of ``processor`` to price through; shared
        between plans so that grid points pricing the same block shapes
        reuse each other's work.
    trace_cache:
        Optional :class:`~repro.simmpi.tracecache.TraceDiskCache` consulted
        (and filled) by :meth:`compile_trace`.
    """

    def __init__(self, deck: Sweep3DInput, px: int, py: int,
                 topology: ClusterTopology,
                 processor: ProcessorModel,
                 numeric: bool = False,
                 cost_table: SweepCostTable | None = None,
                 trace_cache: "Any | None" = None):
        if processor is None:
            raise DecompositionError(
                "SimulationPlan needs a processor model to charge compute")
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
        self.numeric = numeric
        self.shared = SweepPlanData.for_deck(deck)
        self.costs = cost_table if cost_table is not None else SweepCostTable(processor)
        self.engine = ClusterEngine(topology)
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
        self.trace_cache = trace_cache
        #: How the most recent :meth:`compile_trace` produced its trace
        #: (None until a trace has been compiled).
        self.last_capture: CaptureInfo | None = None
        #: Host wall-clock accounting per execution phase ("capture",
        #: "replay", "steady", "engine"), accumulated across runs.
        self.phases = PhaseTimer()
        #: The capture: a periodic capture or a full recording.
        self._capture: CompiledTrace | PeriodicCapture | None = None
        #: The run's table (:meth:`compile_trace`), once built.
        self._trace: CompiledTrace | None = None

    @property
    def nranks(self) -> int:
        return self.decomp.nranks

    def trace_fingerprint(self) -> tuple:
        """A value identity of this plan's *pattern*, keying the trace cache.

        Two plans with equal fingerprints record byte-identical traces:
        the fingerprint covers everything the recorded pattern is a
        function of — the deck parameters, the processor array shape, the
        processor and link models (frozen dataclasses, so their reprs are
        stable value representations).  It deliberately **excludes** the
        machine/topology names and every noise parameter: a trace is a
        pattern, shared by all noise seeds and by presets that alias the
        same models.
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
            # Every plan charges compute and runs the convergence
            # collectives; the two former config flags keep their places
            # so the keys of existing trace-cache entries stay valid.
            True, True,
        )

    def compile_trace(self) -> CompiledTrace:
        """Obtain this plan's event stream once for max-plus replay.

        The trace is captured lazily and cached for the plan's lifetime
        (the pattern is a pure function of the plan's deck/decomposition).
        Capture is one rule with one fallback, each path bit-identical to
        the O(events) recorder:

        1. the persistent :attr:`trace_cache` (if one is attached), keyed
           by :meth:`trace_fingerprint`, whose entry is a full recording
           or a periodic capture, stored as path 2 or 3 made it;
        2. **periodic capture** of any run of three or more iterations:
           the recorder runs two iterations, and
           :func:`~repro.simmpi.capture.extend_recording` proves the rest.
           Every iteration of the modelled sweep yields the same ops per
           rank and ends in the ``globalmax`` and ``globalsum``
           reductions; when an allreduce completes, every other rank is
           blocked in it, no rank waits in a receive or a rendez-vous
           send and the ready queue is empty, and
           :func:`~repro.simmpi.engine.run_ranks` queues the other ranks
           in rank order and continues the completing rank (the start of
           a run is that state with rank 0).  With no message in flight,
           the next iteration's events depend on the completing rank
           alone, so if iterations 1 and 2 end with their last reduction
           completed by the same rank, iteration 3 repeats iteration 2
           with its send slots advanced, and so on by induction.  The
           capture is the recording plus ``T - 2`` tiles, each a copy of
           its second iteration
           (:class:`~repro.simmpi.capture.PeriodicCapture`), tiled into
           the table here (:func:`~repro.simmpi.capture.tile_trace`,
           which checks that the table's send slots are sequential and
           that every match comes after its send);
        3. the full :class:`~repro.simmpi.trace.TraceRecorder` pass, for
           runs of one or two iterations and whenever a check of path 2
           refuses, the tiling's included, with the reason kept in
           :attr:`last_capture`.

        Every recording runs :func:`~repro.sweep3d.parallel.
        body_rank_program` over op bodies harvested once per capture from
        one iteration of :func:`~repro.sweep3d.parallel.sweep_rank_program`
        (:func:`~repro.sweep3d.parallel.harvest_iteration_bodies`), so the
        generator runs one iteration per rank instead of the whole run.
        The bodies are dropped when the capture ends; the engine tier
        keeps running the generator.  A periodic capture the plan
        already holds (the steady tier's, or a trace-cache hit) is tiled
        here, without recording again, and kept beside the table.

        Numeric runs carry real payloads whose values feed back into the
        pattern, so they cannot be trace-compiled and raise
        :class:`~repro.errors.TraceError`.
        """
        if self._trace is None:
            capture = self._held_capture()
            if isinstance(capture, PeriodicCapture):
                with self.phases.phase("capture"):
                    capture = self._table(capture)
            self._trace = capture
        return self._trace

    def describe_capture(self) -> list[str]:
        """How the plan captured its run, then the steady tier's
        noise-free verdict on that capture; captures but never tiles."""
        capture = self._held_capture()
        return [self.last_capture.describe(), describe_steady(capture)]

    def _held_capture(self) -> CompiledTrace | PeriodicCapture:
        """The plan's capture, made on first use; a periodic one untiled."""
        if self.numeric:
            raise TraceError(
                "trace replay supports modelled (timing-only) runs; numeric "
                "runs must use the reference engine")
        if self._capture is None:
            with self.phases.phase("capture"):
                self._capture = self._capture_trace()
        return self._capture

    def _table(self, capture: PeriodicCapture) -> CompiledTrace:
        """Tile ``capture`` into the full trace, whose first rows the
        capture's recording then reads.

        If the tiled table fails its checks the run is recorded in full,
        and that recording replaces the capture.
        """
        start = time.perf_counter()
        try:
            trace = tile_trace(capture)
        except TraceError as exc:
            trace = self._capture = self._record_trace()
            self.last_capture = CaptureInfo(
                mode="full", total_iterations=self.deck.max_iterations,
                reason=str(exc), capture_s=self.last_capture.capture_s)
        else:
            share_columns(capture, trace)
        self.last_capture.capture_s += time.perf_counter() - start
        return trace

    def _record_trace(self, bodies: list[list] | None = None
                      ) -> CompiledTrace:
        """One recorder pass over the whole run, reusing the plan's shared
        data.

        Records :func:`~repro.sweep3d.parallel.body_rank_program` over
        ``bodies``, harvested here when not given.
        """
        if bodies is None:
            bodies = harvest_iteration_bodies(self.deck, self.decomp,
                                              self.costs, self.shared)
        return TraceRecorder(self.topology).record(
            body_rank_program, nranks=self.decomp.nranks,
            program_args=(self.deck, self.decomp, self.shared, bodies))

    def _capture_trace(self) -> CompiledTrace | PeriodicCapture:
        """The capture behind :meth:`compile_trace`: the trace cache, then
        periodic capture, then the full recorder.

        Returns a periodic capture untiled, and stores it untiled in the
        trace cache; a cache hit is whichever kind the entry holds.
        """
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
        # Shared by the two-iteration recording and the full fallback;
        # dropped with this frame, never kept on the plan.
        bodies = harvest_iteration_bodies(self.deck, self.decomp, self.costs,
                                          self.shared)
        try:
            capture, info = self._periodic_capture(bodies)
        except TraceError as exc:
            capture = self._record_trace(bodies)
            info = CaptureInfo(mode="full",
                               total_iterations=self.deck.max_iterations,
                               reason=str(exc))
        info.capture_s = time.perf_counter() - start
        self.last_capture = info
        if key is not None:
            self.trace_cache.put(key, capture)
        return capture

    def _periodic_capture(self, bodies: list[list]
                          ) -> tuple[PeriodicCapture, CaptureInfo]:
        """Record two iterations and prove the rest of the run.

        Every iteration of the modelled sweep yields the same ops per
        rank and ends in the ``globalmax`` and ``globalsum`` reductions,
        and when the last one completes every other rank is blocked in
        it, so the scheduler's state comes down to the rank that
        completed it.  Two iterations ending in the same state, with no
        message in flight, repeat forever
        (:func:`~repro.simmpi.capture.extend_recording`): the capture is
        the recording plus ``T - 2`` tiles of one iteration, a
        :class:`~repro.simmpi.capture.PeriodicCapture`.

        Raises :class:`~repro.errors.TraceError`, and the caller records
        the run in full, for a run of one or two iterations, when the two
        recorded iterations' return values differ from the synthesized
        ones (:func:`~repro.sweep3d.parallel.modelled_rank_summaries`), or
        when any check of the extension or the capture refuses.
        """
        total = self.deck.max_iterations
        if total <= 2:
            raise TraceError(
                f"periodic capture refused: the run has {total} "
                "iteration(s), none past the two it would record")
        two_deck = replace(self.deck, max_iterations=2)
        recorder = TraceRecorder(self.topology)
        recording = recorder.record(
            body_rank_program, nranks=self.decomp.nranks,
            program_args=(two_deck, self.decomp, self.shared, bodies))
        if not _summaries_match(
                modelled_rank_summaries(two_deck, self.decomp, self.shared),
                recording._return_values):
            raise TraceError(
                "periodic capture refused: synthesized rank summaries do "
                "not match the two-iteration recording's return values")
        capture = extend_recording(
            recording, recorder.collective_ranks, total,
            modelled_rank_summaries(self.deck, self.decomp, self.shared),
            self.topology)
        period, sends = second_iteration(recording)
        return capture, CaptureInfo(
            mode="periodic", total_iterations=total, tiles=capture.tiles,
            period=period, sends_per_period=sends)

    def run(self, noise: NoiseModel | None = None,
            mode: str = "engine",
            samples: int | None = None
            ) -> Sweep3DRunResult | Sweep3DSampleSet:
        """Execute the plan once — or ``samples`` times in one batch.

        ``noise`` defaults to a disabled (deterministic) model; callers
        give each scenario its own stream with
        :meth:`~repro.simnet.noise.NoiseModel.reseeded`.  The noise is
        passed to the engine per run — a shared plan carries no cross-run
        mutable state.

        ``mode`` selects the execution tier: ``"engine"`` (default) runs
        the reference :class:`~repro.simmpi.engine.ClusterEngine`;
        ``"replay"`` resolves the run from the compiled trace
        (:meth:`compile_trace`), bit-identically; ``"steady"`` asks the
        steady-state tier (:mod:`repro.simmpi.steady`) to resolve the
        run from its two recorded iterations — bit-identical when it accepts,
        falling back to the full replay (with the reason recorded in
        :attr:`last_steady_refusal`) when it refuses; ``"auto"`` picks
        the fastest applicable tier — steady for noise-free modelled
        runs, replay for noisy modelled runs, the engine for numeric
        ones.  :attr:`last_execution` records which tier produced the
        most recent result.

        With ``samples=S`` the plan resolves ``S`` independently seeded
        noisy runs and returns a :class:`Sweep3DSampleSet`: one scalar
        replay per seed up to :data:`PER_SEED_SAMPLES`
        (:meth:`~repro.simmpi.trace.CompiledTrace.replay_seeds`), above it
        **one** batched max-plus pass
        (:meth:`~repro.simmpi.trace.CompiledTrace.replay_batch`), whose
        wave schedule costs more than a few scalar replays.  Sample ``s``
        uses seed ``noise.seed + s`` and is bit-identical to the single
        run at that seed.  Multi-sample runs are replay-only: ``mode`` must be
        ``"replay"`` or ``"auto"``, and numeric plans raise
        :class:`~repro.errors.TraceError`.
        """
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown simulation mode {mode!r}; expected 'engine', "
                "'replay', 'steady' or 'auto'")
        if noise is None:
            noise = NoiseModel.disabled()
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
                if samples <= PER_SEED_SAMPLES:
                    batch = trace.replay_seeds(seeds, noise)
                else:
                    batch = trace.replay_batch(seeds, noise)
            self.replays += samples
            self.runs += samples
            self.last_execution = "replay"
            return Sweep3DSampleSet(deck=self.deck, px=self.px, py=self.py,
                                    batch=batch)
        if mode in ("replay", "steady") or (mode == "auto"
                                            and not self.numeric):
            simulation = None
            # "auto" only *attempts* steady when noise is off — a noisy
            # run has no repeating period, so the attempt would always
            # refuse.
            if mode == "steady" or (mode == "auto" and noise.is_disabled()):
                simulation = self._steady(noise)
            if simulation is None:
                trace = self.compile_trace()
                with self.phases.phase("replay"):
                    simulation = trace.replay(noise)
                self.replays += 1
                self.last_execution = "replay"
        else:
            with self.phases.phase("engine"):
                simulation = self.engine.run(
                    sweep_rank_program, nranks=self.decomp.nranks,
                    program_args=(self.deck, self.decomp, self.numeric,
                                  self.costs, self.shared),
                    noise=noise)
            self.last_execution = "engine"
        self.runs += 1
        summaries = [value for value in simulation.return_values]
        return Sweep3DRunResult(deck=self.deck, px=self.px, py=self.py,
                                simulation=simulation, rank_summaries=summaries)

    def _steady(self, noise: NoiseModel) -> SimulationResult | None:
        """The steady tier's result for the held capture, or ``None``
        with the reason in :attr:`last_steady_refusal`."""
        source = self._held_capture()
        try:
            with self.phases.phase("steady"):
                simulation = steady_replay(source, noise)
        except SteadyStateError as exc:
            self.last_steady_refusal = str(exc)
            return None
        self.steadies += 1
        self.last_execution = "steady"
        return simulation
