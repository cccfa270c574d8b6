"""The stable public facade of the reproduction.

Everything a user (or a fleet of machines) needs sits behind this module:

* the **Study API** — :class:`StudySpec` / :class:`StudyRunner` /
  :class:`StudyResult`, :func:`build_spec`, :func:`run_study`,
  :func:`run_studies`, :func:`load_spec`, :func:`study_names` and
  :func:`write_study_artifacts` (see :mod:`repro.experiments.study`);
* the machine presets (:func:`get_machine`, :func:`available_machines`)
  and standard input decks (:func:`standard_deck`);
* one-shot conveniences for a single configuration: :func:`predict`
  (the analytic PACE model) and :func:`simulate` (the discrete-event
  cluster), mirroring the two scenario backends.  Both reuse a
  process-wide memoised :class:`StudyContext` (:func:`default_context`),
  so the PSL model is parsed and compiled once per process instead of
  once per call — drop it with :func:`clear_cached_context`;
* the **prediction service** (:mod:`repro.service`, loaded lazily):
  :class:`PredictionService` / :func:`run_server` run an always-on
  asyncio server over the same warm state, and :class:`ServiceClient`
  talks to it;
* the persistent sweep cache (:class:`SweepDiskCache`);
* **sharded execution** — :func:`plan_shards` splits one spec's grid
  into deterministic, cost-balanced shard specs any machine can run
  independently, and :func:`merge_study_results` /
  :func:`merge_manifests` recombine the shard results/artifact
  directories bit-identically to an unsharded run
  (:mod:`repro.experiments.sharding`);
* the **elastic fleet** (:mod:`repro.experiments.fleet`):
  :class:`FleetCoordinator` leases one-unit shards to
  :class:`FleetWorker` processes with heartbeat-renewed, crash-tolerant
  leases and end-of-run work stealing, results and warm cache entries
  flowing through an :class:`ArtifactStore`
  (:mod:`repro.experiments.remotestore`); :func:`run_local_fleet` runs
  the whole protocol in-process.

The service, fleet, store, shard and calibration names load their
modules on first access.  ``import repro.api`` loads neither numpy nor
the simulator: a simulation, a hardware campaign or a curve fit loads
them when it starts.

Static fleet example::

    import repro.api as api

    spec = api.build_spec("table1", cache_dir="/shared/sweep-cache")
    plan = api.plan_shards(spec, shards=4)       # same plan on every host
    result = api.run_study(plan.shards[2].spec)  # this host's slice
    # ... collect all shards' results, then:
    merged = api.merge_study_results(shard_results)

Elastic fleet example (one process; the CLI ``fleet serve`` / ``fleet
work`` commands run the identical protocol across machines)::

    outcome = api.run_local_fleet(["table1", "table2"], n_workers=4)
    merged = outcome.results     # bit-identical to unsharded runs

Example::

    import repro.api as api

    spec = api.build_spec("table2", max_pes=16,
                          cache_dir="~/.cache/repro-sweep3d")
    result = api.run_study(spec)
    api.write_study_artifacts([result], "artifacts/")

    # or, for every registered study:
    results = api.StudyRunner().run_all()
"""

from __future__ import annotations

from repro.experiments.artifacts import (
    compare_artifact_dirs,
    load_study_results,
    merge_manifests,
    read_manifest,
    write_study_artifacts,
)
from repro.experiments.diskcache import DiskCacheStats, SweepDiskCache
from repro.experiments.study import (
    StudyContext,
    StudyResult,
    StudyRunner,
    StudySpec,
    analysis_names,
    build_spec,
    load_spec,
    register_analysis,
    register_study,
    run_studies,
    run_study,
    study_names,
)
from repro.machines.machine import Machine
from repro.machines.presets import MACHINE_PRESETS, get_machine
from repro.sweep3d.input import Sweep3DInput, standard_deck

__all__ = [
    "StudyContext",
    "StudyResult",
    "StudyRunner",
    "StudySpec",
    "analysis_names",
    "build_spec",
    "load_spec",
    "register_analysis",
    "register_study",
    "run_studies",
    "run_study",
    "study_names",
    "read_manifest",
    "write_study_artifacts",
    "load_study_results",
    "ShardPlan",
    "ShardPlanner",
    "plan_shards",
    "plan_unit_shards",
    "make_shard_spec",
    "parent_spec",
    "merge_study_results",
    "merge_manifests",
    "compare_artifact_dirs",
    "FleetCoordinator",
    "FleetOutcome",
    "FleetWorker",
    "fleet_status",
    "run_local_fleet",
    "ArtifactStore",
    "LocalDirStore",
    "MemoryStore",
    "store_from_url",
    "push_cache_entries",
    "pull_cache_entries",
    "DiskCacheStats",
    "SweepDiskCache",
    "Machine",
    "get_machine",
    "available_machines",
    "Sweep3DInput",
    "standard_deck",
    "predict",
    "simulate",
    "default_context",
    "clear_cached_context",
    "NoiseCalibration",
    "calibrate_noise",
    "PredictionService",
    "ServiceClient",
    "run_server",
]

#: Names looked up in their defining module on each access (PEP 562):
#: the service imports this module, and the fleet, store, shard and
#: calibration modules serve only some commands.
_LAZY_EXPORTS = {
    **dict.fromkeys(["FleetCoordinator", "FleetOutcome", "FleetWorker",
                     "fleet_status", "run_local_fleet"],
                    "repro.experiments.fleet"),
    **dict.fromkeys(["ArtifactStore", "LocalDirStore", "MemoryStore",
                     "pull_cache_entries", "push_cache_entries",
                     "store_from_url"], "repro.experiments.remotestore"),
    **dict.fromkeys(["ShardPlan", "ShardPlanner", "make_shard_spec",
                     "merge_study_results", "parent_spec", "plan_shards",
                     "plan_unit_shards"], "repro.experiments.sharding"),
    "NoiseCalibration": "repro.experiments.uncertainty",
    "calibrate_noise": "repro.experiments.uncertainty",
    "PredictionService": "repro.service.core",
    "ServiceClient": "repro.service.client",
    "run_server": "repro.service.core",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(module_name), name)


def available_machines() -> list[str]:
    """Names of every machine preset."""
    return sorted(MACHINE_PRESETS)


#: The process-wide memoised context behind the one-shot conveniences.
_DEFAULT_CONTEXT: StudyContext | None = None


def default_context() -> StudyContext:
    """The process-wide shared :class:`StudyContext` (created on first use).

    :func:`predict` and :func:`simulate` evaluate through this context, so
    repeated one-shots share one parsed+compiled PSL model and one
    :class:`Machine` instance (whose simulation-plan cache makes repeated
    ``simulate`` calls of the same configuration trace-replay warm) — the
    same mechanism the always-on prediction service (:mod:`repro.service`)
    amortises across network callers.  Results are bit-identical to a
    fresh context: memoisation shares the compile step, never the inputs.
    """
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = StudyContext()
    return _DEFAULT_CONTEXT


def clear_cached_context() -> None:
    """Drop the memoised default context.

    The next one-shot rebuilds everything from scratch — useful in tests
    and for bounding memory in very long-lived processes.
    """
    global _DEFAULT_CONTEXT
    _DEFAULT_CONTEXT = None


def _resolve(machine: Machine | str) -> Machine:
    if isinstance(machine, str):
        # Memoised per preset name: repeated one-shots reuse the machine's
        # internal plan/trace caches instead of rebuilding them per call.
        return default_context().machine(machine)
    return machine


def _resolve_deck(deck: Sweep3DInput | str, px: int, py: int,
                  iterations: int) -> Sweep3DInput:
    if isinstance(deck, Sweep3DInput):
        return deck
    return standard_deck(deck, px=px, py=py, max_iterations=iterations)


def predict(machine: Machine | str, px: int, py: int,
            deck: Sweep3DInput | str = "validation",
            iterations: int = 12):
    """Predict one configuration with the analytic PACE model.

    Returns a :class:`~repro.core.evaluation.result.PredictionResult`.
    The machine's HMCL hardware object is built from its profiling and
    micro-benchmark campaigns, exactly as each validation-table row does.
    The PSL model is compiled once per process (:func:`default_context`)
    and shared across calls; the result is bit-identical to a cold
    evaluation.
    """
    from repro.core.workload import SweepWorkload

    machine = _resolve(machine)
    deck = _resolve_deck(deck, px, py, iterations)
    hardware = machine.hardware_model(deck, px, py)
    executor = default_context().compiled_model().executor(hardware)
    return executor.predict(SweepWorkload(deck, px, py).model_variables())


def simulate(machine: Machine | str, px: int, py: int,
             deck: Sweep3DInput | str = "validation",
             iterations: int = 12,
             numeric: bool = False,
             with_noise: bool = True,
             seed_offset: int = 0,
             execution: str = "engine",
             samples: int = 0):
    """Run one configuration on the discrete-event simulated cluster.

    Returns the full :class:`~repro.sweep3d.driver.Sweep3DRunResult`
    (elapsed time, message traffic, and — in ``numeric`` mode — the flux
    field), i.e. the paper's "measurement" side.

    ``execution`` selects the tier: ``"engine"`` (default) runs the
    per-event reference :class:`~repro.simmpi.engine.ClusterEngine`;
    ``"replay"`` records the configuration's event stream once and
    resolves the run as a max-plus trace replay
    (:mod:`repro.simmpi.trace`) — bit-identical, and much faster when
    the same configuration is simulated repeatedly; ``"steady"`` attempts
    the steady-state tier (:mod:`repro.simmpi.steady`), which replays
    only the two recorded iterations of a periodic capture and
    extrapolates the rest — bit-identical or it refuses, falling back to
    replay; ``"auto"`` picks the fastest applicable tier.

    ``samples > 0`` replays that many noise seeds (one batched replay, or
    one replay per seed for a few) and returns a :class:`~repro.sweep3d.driver.Sweep3DSampleSet`
    (per-sample elapsed times plus mean/std/CI95).  Sampled runs are
    replay-resolved, so the default ``execution="engine"`` is upgraded to
    ``"auto"`` (bit-identical per sample); sample 0 uses ``seed_offset``'s
    own noise stream, so its run matches the single-run path exactly.
    """
    machine = _resolve(machine)
    deck = _resolve_deck(deck, px, py, iterations)
    if samples and execution == "engine":
        execution = "auto"
    return machine.simulate(deck, px, py, numeric=numeric,
                            with_noise=with_noise, seed_offset=seed_offset,
                            execution=execution, samples=samples)
