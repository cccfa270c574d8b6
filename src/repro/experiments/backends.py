"""Scenario-evaluation backends: one sweep layer, many ways to price a point.

A *backend* turns the declarative scenario grid of
:mod:`repro.experiments.sweep` into results.  The contract is two-phase,
mirroring the compiled prediction pipeline:

* ``backend.compile(scenario_space)`` performs every piece of work that is
  shared across the grid (model lowering, simulation-plan construction,
  cost tables) and returns an **executor**;
* ``executor.evaluate(scenario)`` prices one grid point.

There are two backends:

``"predict"``
    The compiled analytic PACE pipeline (PR 1): one
    :class:`~repro.core.evaluation.compiler.CompiledModel`, one
    :class:`~repro.core.evaluation.compiler.CompiledExecutor` per hardware
    fingerprint.

``"simulate"``
    The discrete-event SWEEP3D simulator.  Each (deck, px, py) point is
    lowered once into a :class:`~repro.sweep3d.driver.SimulationPlan`
    (topology validation, Cart2D decomposition, shared quadrature/blocking
    data, seeded noise) and re-executed across grid points; the
    block-pricing :class:`~repro.sweep3d.parallel.SweepCostTable` is shared
    across every plan of the sweep.  Modelled (timing-only) scenarios are
    executed by default as **trace replays**: the plan's event stream is
    recorded once (:mod:`repro.simmpi.trace`) and each run resolves as a
    vectorised max-plus recurrence instead of re-driving the rank
    generators (``execution="engine"`` forces the per-event reference
    engine); noise-free periodic traces go one tier further through the
    steady-state extrapolation (:mod:`repro.simmpi.steady`), O(period)
    instead of O(events).  Results are bit-identical in every mode to
    the seed's per-point run (a fresh engine, decomposition and
    operation-mix pricing per point, kept as the tests' oracle), and to
    themselves under any ``workers=N`` fan-out (each scenario derives
    its own noise seed from its identity, never from the worker that
    evaluates it).

The study executors and ``repro-sweep3d simulate --backend`` construct
the two classes directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.core.evaluation.result import PredictionResult
from repro.core.evaluation.compiler import (
    CacheStats,
    CompiledModel,
    hardware_fingerprint,
)
from repro.core.hmcl.model import HardwareModel
from repro.core.ir import ModelSet
from repro.errors import ExperimentError
from repro.sweep3d.execution import EXECUTION_MODES
from repro.sweep3d.input import Sweep3DInput, standard_deck


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


@runtime_checkable
class BackendExecutor(Protocol):
    """Executes individual scenarios after a backend compiled the space."""

    def evaluate(self, scenario) -> Any:
        """Price one scenario; the result must expose ``total_time``."""
        ...

    def collect_stats(self) -> CacheStats:
        """Cumulative cache accounting since the executor was created."""
        ...


@runtime_checkable
class Backend(Protocol):
    """A named way of evaluating scenario grids."""

    name: str

    def compile(self, scenario_space=None) -> BackendExecutor:
        """Lower the shared work of a scenario space into an executor."""
        ...

    def fingerprint(self, scenario) -> tuple:
        """A value-identity for (backend config, scenario): the disk-cache key."""
        ...


# ---------------------------------------------------------------------------
# The compiled-prediction backend
# ---------------------------------------------------------------------------


def model_fingerprint(model: ModelSet) -> str:
    """A content digest of a PSL model set, used in disk-cache keys.

    Hashes the full structure of every object (variables, links, procs,
    cflows — dataclass ASTs with deterministic reprs), so editing the PSL
    source changes the key and misses the persistent cache instead of
    serving predictions from the old model.  Names alone are not enough:
    an equation edit keeps every object and procedure name intact.
    """
    payload = repr(sorted((name, repr(obj.__dict__))
                          for name, obj in model.objects.items()))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PredictionBackend:
    """Evaluates scenarios through the compiled analytic PACE pipeline."""

    name = "predict"

    def __init__(self, model: ModelSet | None = None,
                 hardware: HardwareModel | None = None,
                 compiled: CompiledModel | None = None):
        if compiled is not None:
            model = compiled.model
        elif model is None:
            from repro.core.workload import load_sweep3d_model
            model = load_sweep3d_model()
        self.model = model
        self.hardware = hardware
        self._compiled: CompiledModel | None = compiled
        self._model_token: str | None = None

    def compile(self, scenario_space=None) -> "PredictionExecutor":
        if self._compiled is None:
            self._compiled = CompiledModel(self.model)
        return PredictionExecutor(self._compiled, self.hardware)

    def fingerprint(self, scenario) -> tuple:
        hardware = scenario.hardware or self.hardware
        if hardware is None:
            raise ExperimentError(
                f"scenario {scenario.label!r} has no hardware model and the "
                "prediction backend was constructed without a default")
        if self._model_token is None:
            self._model_token = model_fingerprint(self.model)
        return (
            self.name,
            self._model_token,
            "init",  # the evaluated entry procedure, kept so keys stay stable
            hardware_fingerprint(hardware),
            tuple(sorted(scenario.variables.items())),
        )

    def __getstate__(self):
        # The compiled model is closure-heavy and cheap to rebuild; workers
        # recompile rather than ship it across the process boundary.
        state = dict(self.__dict__)
        state["_compiled"] = None
        return state


class PredictionExecutor:
    """One compiled model bound to per-hardware-fingerprint executors."""

    def __init__(self, compiled: CompiledModel,
                 default_hardware: HardwareModel | None):
        self.compiled = compiled
        self.default_hardware = default_hardware
        self._executors: dict[tuple, Any] = {}

    def evaluate(self, scenario) -> PredictionResult:
        hardware = scenario.hardware or self.default_hardware
        if hardware is None:
            raise ExperimentError(
                f"scenario {scenario.label!r} has no hardware model and the "
                "sweep runner was constructed without a default")
        token = hardware_fingerprint(hardware)
        executor = self._executors.get(token)
        if executor is None:
            executor = self._executors[token] = self.compiled.executor(hardware)
        return executor.predict(scenario.variables)

    def collect_stats(self) -> CacheStats:
        stats = CacheStats()
        for executor in self._executors.values():
            stats = stats.merge(executor.stats)
        return stats


# ---------------------------------------------------------------------------
# The discrete-event simulation backend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimMeasurement:
    """Compact, picklable outcome of one simulated scenario.

    This is what the sweep layer and the disk cache carry instead of the
    full :class:`~repro.sweep3d.driver.Sweep3DRunResult` (whose rank
    summaries hold numpy arrays in numeric mode).  ``total_time`` mirrors
    :class:`~repro.core.evaluation.result.PredictionResult` so
    ``SweepOutcome.total_time`` works for both backends.
    """

    label: str
    machine_name: str
    px: int
    py: int
    elapsed_time: float
    seed_offset: int
    iterations: int = 0
    total_messages: int = 0
    total_bytes: float = 0.0
    compute_fraction: float = 0.0
    rank_finish_times: tuple = ()
    error_history: tuple = ()
    #: Multi-sample uncertainty block, filled only when the backend runs
    #: with ``samples > 0`` (class-level defaults keep old cached pickles
    #: readable).  ``elapsed_time`` stays the sample-0 value, bit-identical
    #: to the single-run path at the same seed.
    elapsed_samples: tuple = ()
    elapsed_mean: float | None = None
    elapsed_std: float | None = None
    elapsed_ci95: float | None = None
    #: Execution tier that produced ``elapsed_time``: ``"engine"``,
    #: ``"replay"`` or ``"steady"`` (empty for pre-tier cached pickles).
    execution_tier: str = ""
    #: Host wall-clock this evaluation spent per phase (zero for phases
    #: that did not run, and for pre-phase cached pickles).  ``capture_s``
    #: includes trace-cache lookups and periodic capture.
    capture_s: float = 0.0
    replay_s: float = 0.0
    steady_s: float = 0.0
    engine_s: float = 0.0

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Non-zero per-phase host seconds, keyed by phase name."""
        pairs = (("capture", self.capture_s), ("replay", self.replay_s),
                 ("steady", self.steady_s), ("engine", self.engine_s))
        return {name: value for name, value in pairs if value}

    @property
    def n_samples(self) -> int:
        return len(self.elapsed_samples)

    @property
    def total_time(self) -> float:
        """Simulated wall-clock seconds (the paper's "Measurement" column)."""
        return self.elapsed_time

    @property
    def nranks(self) -> int:
        return self.px * self.py

    def describe(self) -> str:
        return (f"{self.label}: {self.elapsed_time:.6f} s simulated on "
                f"{self.machine_name} ({self.px}x{self.py}, "
                f"{self.total_messages} messages, "
                f"{self.compute_fraction * 100:.1f}% compute)")


def machine_fingerprint(machine) -> tuple:
    """A value-based identity for a simulated machine, used in cache keys.

    Covers everything that determines a simulated run time: the processor
    model, the topology/link models and the noise configuration.  The
    component models are frozen dataclasses, so their ``repr`` is a stable
    value representation; any change to the machine misses the disk cache
    instead of returning stale measurements.
    """
    return (
        machine.name,
        repr(machine.processor),
        machine.topology.describe(),
        repr(machine.topology.inter_node),
        repr(machine.topology.intra_node),
        machine.noise_seed,
        machine.compute_jitter,
        machine.network_jitter,
        machine.daemon_interval,
        machine.daemon_duration,
    )


#: Deck parameters a simulation scenario may override (integers).
_DECK_INT_KEYS = ("it", "jt", "kt", "mk", "mmi", "sn", "max_iterations")


class SimulationBackend:
    """Evaluates scenarios on the discrete-event SWEEP3D simulator.

    Scenario variables must contain ``px`` and ``py`` (the processor
    array); they may override the deck's ``it/jt/kt/mk/mmi/sn/
    max_iterations`` and may pin an explicit noise ``seed`` (otherwise one
    is derived from the scenario's identity, so results are independent of
    evaluation order and worker count).

    Parameters
    ----------
    machine:
        The simulated cluster (:class:`~repro.machines.machine.Machine`).
    deck:
        Standard deck name (``"validation"``, ``"asci-20m"``, ...) the
        scenarios are instantiated from.
    max_iterations:
        Default source-iteration count (overridable per scenario).
    numeric:
        Whether to perform the real flux arithmetic (small grids only).
    with_noise:
        Whether runs see the machine's OS/network noise model (the paper's
        "measurement"); ``False`` gives deterministic noise-free runs.
    execution:
        How each plan is executed: ``"auto"`` (default) picks the fastest
        bit-identical tier — the steady-state tier
        (:mod:`repro.simmpi.steady`) for noise-free modelled scenarios
        whose trace it accepts, trace replay (:mod:`repro.simmpi.trace`)
        for other modelled scenarios, and the reference engine for
        numeric ones; ``"engine"`` forces the per-event
        :class:`~repro.simmpi.engine.ClusterEngine` (the bit-for-bit
        reference); ``"replay"`` forces trace replay (numeric scenarios
        then raise :class:`~repro.errors.TraceError`); ``"steady"``
        attempts the steady-state tier, falling back loudly to replay
        when it refuses.  All modes produce bit-identical results, so
        the disk-cache fingerprint does not depend on it; the tier that
        actually ran is recorded per measurement
        (:attr:`SimMeasurement.execution_tier`).
    samples:
        When ``> 0``, every scenario is resolved ``samples`` times in one
        batched replay (:meth:`~repro.sweep3d.driver.SimulationPlan.run`
        with ``samples=``) and the measurement carries per-sample elapsed
        times plus mean/std/CI95 summary statistics.  Sample 0 uses the
        scenario's own seed, so ``elapsed_time`` is bit-identical to the
        ``samples=0`` run and the fingerprint only gains a component when
        sampling is on (old cache keys stay valid).  Requires a
        replay-capable execution mode (not ``"engine"``) and modelled
        (non-numeric) scenarios.
    trace_cache:
        Optional persistent trace cache
        (:class:`~repro.simmpi.tracecache.TraceDiskCache`, or a directory
        path coerced into one) shared by every simulation plan the
        backend builds, so compiled traces survive across processes.
    """

    name = "simulate"

    def __init__(self, machine, deck: str = "validation",
                 max_iterations: int = 12,
                 numeric: bool = False,
                 with_noise: bool = True,
                 execution: str = "auto",
                 samples: int = 0,
                 trace_cache=None):
        if execution not in EXECUTION_MODES:
            raise ExperimentError(
                f"unknown simulation execution mode {execution!r}; expected "
                f"one of {list(EXECUTION_MODES)}")
        samples = int(samples)
        if samples < 0:
            raise ExperimentError("samples must be >= 0")
        if samples and execution in ("engine", "steady"):
            raise ExperimentError(
                "multi-sample evaluation is resolved by batched trace "
                f"replay and cannot use execution={execution!r}")
        if samples and numeric:
            raise ExperimentError(
                "multi-sample evaluation needs modelled (non-numeric) "
                "scenarios: numeric runs cannot be trace-compiled")
        self.machine = machine
        self.deck_name = deck
        self.max_iterations = max_iterations
        self.numeric = numeric
        self.with_noise = with_noise
        self.execution = execution
        self.samples = samples
        if trace_cache is not None and not hasattr(trace_cache, "get"):
            from repro.simmpi.tracecache import trace_cache_for

            trace_cache = trace_cache_for(trace_cache)
        #: Optional persistent :class:`~repro.simmpi.tracecache.
        #: TraceDiskCache` (or a path coerced into one) shared by every
        #: plan this backend builds — bit-identical results either way,
        #: so it is not part of the scenario fingerprint.
        self.trace_cache = trace_cache

    # -- scenario lowering ---------------------------------------------------

    def deck_for(self, scenario) -> tuple[Sweep3DInput, int, int]:
        """Instantiate the input deck (and processor array) of a scenario.

        A scenario may name its own standard deck via a ``deck`` variable;
        otherwise the backend's default applies.
        """
        variables = scenario.variables
        try:
            px = int(variables["px"])
            py = int(variables["py"])
        except KeyError as exc:
            raise ExperimentError(
                f"simulation scenario {scenario.label!r} must define 'px' and "
                "'py' variables") from exc
        deck_name = str(variables.get("deck", self.deck_name))
        overrides = {key: int(variables[key]) for key in _DECK_INT_KEYS
                     if key in variables}
        overrides.setdefault("max_iterations", self.max_iterations)
        deck = standard_deck(deck_name, px=px, py=py, **overrides)
        return deck, px, py

    def seed_offset_for(self, scenario, deck: Sweep3DInput,
                        px: int, py: int) -> int:
        """The noise-seed offset of one scenario (stable across workers)."""
        explicit = scenario.variables.get("seed")
        if explicit is not None:
            return int(explicit)
        from repro.simnet.noise import derive_seed

        return derive_seed("sweep3d-simulate", self.machine.name,
                           deck.it, deck.jt, deck.kt, deck.mk, deck.mmi,
                           deck.sn, deck.max_iterations, px, py)

    # -- Backend protocol ----------------------------------------------------

    def compile(self, scenario_space=None) -> "SimulationExecutor":
        return SimulationExecutor(self)

    def fingerprint(self, scenario) -> tuple:
        deck, px, py = self.deck_for(scenario)
        key = (
            self.name,
            machine_fingerprint(self.machine),
            (deck.it, deck.jt, deck.kt, deck.mk, deck.mmi, deck.sn,
             deck.epsi, deck.max_iterations, deck.sigma_t, deck.sigma_s,
             deck.fixed_source, deck.flux_fixup),
            px, py,
            self.seed_offset_for(scenario, deck, px, py),
            # The two ``True`` stand where the charge-compute and
            # convergence-collective flags were: every run now does both,
            # and keeping the places keeps existing cache keys valid.
            self.numeric, True, True,
            self.with_noise,
        )
        if self.with_noise:
            from repro.simnet.noise import NOISE_SCHEME

            # Only noisy runs extend the key: noise-free entries stay
            # addressable across changes to how noise is drawn.
            key = key + (("noise", NOISE_SCHEME),)
        if self.samples:
            # Only sampled runs extend the key: samples=0 keeps every
            # pre-existing disk-cache entry addressable.
            key = key + (("samples", self.samples),)
        return key


class SimulationExecutor:
    """Reusable simulation plans plus a sweep-wide compute cost table."""

    def __init__(self, backend: SimulationBackend):
        from repro.sweep3d.parallel import SweepCostTable

        self.backend = backend
        self.cost_table = SweepCostTable(backend.machine.processor)
        self._plans: dict[tuple, Any] = {}
        self._evaluations = 0
        self._plan_builds = 0
        self._plan_reuses = 0

    def evaluate(self, scenario) -> SimMeasurement:
        backend = self.backend
        deck, px, py = backend.deck_for(scenario)
        key = (deck, px, py)
        plan = self._plans.get(key)
        if plan is None:
            self._plan_builds += 1
            plan = self._plans[key] = backend.machine.simulation_plan(
                deck, px, py,
                numeric=backend.numeric,
                cost_table=self.cost_table,
                trace_cache=getattr(backend, "trace_cache", None))
        else:
            self._plan_reuses += 1

        offset = backend.seed_offset_for(scenario, deck, px, py)
        noise = backend.machine.noise_model(offset) if backend.with_noise else None
        phases_before = plan.phases.snapshot()
        stats: dict[str, Any] = {}
        if backend.samples:
            sample_set = plan.run(noise=noise, mode=backend.execution,
                                  samples=backend.samples)
            # Sample 0 runs at the scenario's own seed: the headline
            # measurement is bit-identical to the samples=0 path.
            run = sample_set.sample(0)
            stats = {
                "elapsed_samples": tuple(float(value) for value
                                         in sample_set.elapsed_times),
                "elapsed_mean": sample_set.elapsed_mean,
                "elapsed_std": sample_set.elapsed_std,
                "elapsed_ci95": sample_set.elapsed_ci95,
            }
        else:
            run = plan.run(noise=noise, mode=backend.execution)
        stats["execution_tier"] = getattr(plan, "last_execution", "") or ""
        for name, value in plan.phases.since(phases_before).items():
            stats[f"{name}_s"] = value
        self._evaluations += 1
        return SimMeasurement(
            label=scenario.label,
            machine_name=backend.machine.name,
            px=px, py=py,
            elapsed_time=run.elapsed_time,
            seed_offset=offset,
            iterations=run.iterations,
            total_messages=run.total_messages,
            total_bytes=run.simulation.traffic.bytes,
            compute_fraction=run.compute_fraction(),
            rank_finish_times=tuple(r.finish_time for r in run.simulation.ranks),
            error_history=tuple(run.error_history),
            **stats,
        )

    def collect_stats(self) -> CacheStats:
        """Cache accounting mapped onto :class:`CacheStats`.

        ``subtask`` hits/misses count the compute cost table (each hit is a
        block/source/convergence charge priced from the memo instead of a
        freshly built operation mix; under trace replay the table is only
        consulted while a capture harvests one iteration's op bodies, so
        a capture counts one iteration's lookups per rank whatever the
        iteration count); ``flow`` hits/misses count simulation plan
        reuse vs construction.
        """
        return CacheStats(predictions=self._evaluations,
                          flow_hits=self._plan_reuses,
                          flow_misses=self._plan_builds,
                          subtask_hits=self.cost_table.hits,
                          subtask_misses=self.cost_table.misses)


def simulation_grid(arrays, deck: str | None = None,
                    max_iterations: int | None = None,
                    seed: int | None = None):
    """Declare a (px, py) processor-array grid as simulation scenarios.

    ``arrays`` is an iterable of ``(px, py)`` pairs.  ``deck``,
    ``max_iterations`` and ``seed``, when given, become scenario variables
    the simulation backend honours per point (``deck`` selects the
    standard deck, overriding the backend default; a fixed ``seed`` makes
    every point share one noise stream offset — useful for controlled
    comparisons; by default each point derives its own).
    """
    from repro.experiments.sweep import Scenario, ScenarioSweep

    sweep = ScenarioSweep()
    for px, py in arrays:
        variables: dict[str, float | str] = {"px": px, "py": py}
        if deck is not None:
            variables["deck"] = deck
        if max_iterations is not None:
            variables["max_iterations"] = max_iterations
        if seed is not None:
            variables["seed"] = seed
        tags = {"px": px, "py": py, "pes": px * py}
        if deck is not None:
            tags["deck"] = deck
        sweep.add(Scenario(label=f"{px}x{py}", variables=variables, tags=tags))
    return sweep
