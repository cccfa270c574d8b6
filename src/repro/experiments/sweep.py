"""The unified batch scenario runner.

Every experiment in this repository is ultimately a *scenario sweep*: a
grid of (problem size, blocking factor, processor array, hardware) points,
each evaluated by some backend.  The seed code hand-rolled that loop in
every experiment module; this module centralises it.

* :class:`Scenario` — one evaluation point: a label, the application
  object's externally modifiable variables, an optional per-scenario
  hardware model (for rate-factor/ablation sweeps) and free-form ``tags``
  carried through to the outcome.
* :class:`ScenarioSweep` — a declarative collection of scenarios, with a
  :meth:`ScenarioSweep.grid` constructor for cartesian parameter grids.
* :class:`SweepRunner` — executes an iterable of scenarios through a
  scenario **backend** instance (:mod:`repro.experiments.backends`).  The
  backend is compiled **once** per runner — for the prediction backend
  that means one :class:`~repro.core.evaluation.compiler.CompiledModel`
  shared by every point, with one executor per distinct hardware
  fingerprint; for the simulation backend one reusable simulation plan
  per (deck, px, py) plus a sweep-wide compute cost table.  With
  ``workers > 1`` the scenario list fans out over ``multiprocessing``
  (results are returned in input order and are identical to a serial
  run, for both backends).
* Optional **disk cache** (:mod:`repro.experiments.diskcache`): pass
  ``cache=`` a directory (or :class:`SweepDiskCache`) and every evaluated
  scenario is persisted keyed on the backend fingerprint; warm runs and
  worker processes are served from the shared store instead of rebuilding
  per-process caches.

Cache-hit accounting is aggregated into :attr:`SweepRunner.stats` (and
:attr:`SweepRunner.disk_stats`) after every run.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.core.evaluation.compiler import CacheStats
from repro.core.hmcl.model import HardwareModel
from repro.errors import ExperimentError
from repro.experiments.backends import Backend
from repro.experiments.diskcache import DiskCacheStats, SweepDiskCache
from repro.profiling.phases import merge_phases


@dataclass(frozen=True)
class Scenario:
    """One point of a scenario sweep.

    ``variables`` are interpreted by the backend: the prediction backend
    passes them to ``predict()`` verbatim; the simulation backend reads the
    processor array (``px``/``py``), optional deck overrides and an
    optional noise ``seed`` from them.  ``hardware`` overrides the runner's
    default hardware for this point (prediction backend only, e.g. one
    hardware object per rate factor in the speculative study); ``tags`` are
    opaque experiment bookkeeping (the paper row, the (mk, mmi)
    combination, ...) echoed on the outcome.
    """

    label: str
    variables: Mapping[str, float | str]
    hardware: HardwareModel | None = None
    tags: Mapping[str, object] = field(default_factory=dict)


@dataclass
class SweepOutcome:
    """The result produced for one scenario.

    ``result`` is backend-specific — a
    :class:`~repro.core.evaluation.result.PredictionResult` from the
    prediction backend, a
    :class:`~repro.experiments.backends.SimMeasurement` from the simulation
    backend — but always exposes ``total_time``.
    """

    scenario: Scenario
    result: Any

    @property
    def total_time(self) -> float:
        return self.result.total_time

    @property
    def tags(self) -> Mapping[str, object]:
        return self.scenario.tags


@dataclass
class ScenarioSweep:
    """A declarative collection of scenario points."""

    scenarios: list[Scenario] = field(default_factory=list)

    def __iter__(self):
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def add(self, scenario: Scenario) -> None:
        self.scenarios.append(scenario)

    @classmethod
    def grid(cls, axes: Mapping[str, Sequence[float]],
             base: Mapping[str, float | str] | None = None,
             hardware: HardwareModel | None = None) -> "ScenarioSweep":
        """Build the cartesian product of ``axes`` over ``base`` variables.

        >>> sweep = ScenarioSweep.grid({"mk": [1, 10], "mmi": [1, 3]},
        ...                            base={"kt": 100.0})
        >>> [s.label for s in sweep]
        ['mk=1 mmi=1', 'mk=1 mmi=3', 'mk=10 mmi=1', 'mk=10 mmi=3']
        """
        names = list(axes)
        sweep = cls()
        for values in itertools.product(*(axes[name] for name in names)):
            variables = dict(base or {})
            variables.update(zip(names, values))
            label = " ".join(f"{name}={value:g}" if isinstance(value, (int, float))
                             else f"{name}={value}"
                             for name, value in zip(names, values))
            sweep.add(Scenario(label=label, variables=variables,
                               hardware=hardware,
                               tags=dict(zip(names, values))))
        return sweep


def _cached_evaluate(backend: Backend, executor, cache: SweepDiskCache | None,
                     scenario: Scenario):
    """Evaluate one scenario, serving/warming the disk cache when present."""
    if cache is None:
        return executor.evaluate(scenario)
    key = backend.fingerprint(scenario)
    cached = cache.get(key)
    if cached is not None:
        return cached
    result = executor.evaluate(scenario)
    cache.put(key, result)
    return result


def _run_chunk(payload) -> list:
    """Worker entry point: evaluate one contiguous chunk of scenarios.

    Each worker compiles the (pickled) backend into its own executor and —
    when a cache directory is configured — warms from and writes to the
    shared disk store, so the serial and parallel paths share one
    evaluation/caching implementation.
    """
    backend, cache_path, chunk = payload
    cache = SweepDiskCache(cache_path) if cache_path is not None else None
    executor = backend.compile()
    results = [(index, _cached_evaluate(backend, executor, cache, scenario))
               for index, scenario in chunk]
    disk_stats = cache.stats if cache is not None else DiskCacheStats()
    return [results, executor.collect_stats(), disk_stats]


class SweepRunner:
    """Evaluates scenario sweeps through a scenario backend.

    Parameters
    ----------
    backend:
        The scenario backend instance
        (:class:`~repro.experiments.backends.PredictionBackend`,
        :class:`~repro.experiments.backends.SimulationBackend`, or one
        built by name with :func:`~repro.experiments.backends.create_backend`).
    workers:
        Number of ``multiprocessing`` workers.  ``1`` (default) runs
        in-process; results are independent of the worker count.
    cache:
        Optional disk-backed sweep cache: a directory path or a
        :class:`~repro.experiments.diskcache.SweepDiskCache`.  Scenario
        results are persisted keyed on the backend fingerprint and shared
        across workers, runs and processes.
    pool:
        Optional externally owned :class:`~concurrent.futures.
        ProcessPoolExecutor` reused for the parallel fan-out (the study
        layer shares one pool across many sweeps).  The runner never shuts
        a supplied pool down; without one it creates a pool per run.
    """

    def __init__(self, backend: Backend,
                 workers: int = 1,
                 cache: SweepDiskCache | str | None = None,
                 pool: ProcessPoolExecutor | None = None):
        if workers < 1:
            raise ExperimentError("SweepRunner needs at least one worker")
        self.backend: Backend = backend
        self.workers = workers
        if cache is not None and not isinstance(cache, SweepDiskCache):
            cache = SweepDiskCache(cache)
        self.cache: SweepDiskCache | None = cache
        if (cache is not None and getattr(backend, "trace_cache", "") is None):
            # A cached simulation sweep gets the persistent trace cache
            # for free, under the sweep cache's own directory: compiled
            # traces then survive across workers, runs and processes just
            # like scenario results do (the backend — and its attached
            # cache — is pickled to every worker).
            from repro.simmpi.tracecache import TraceDiskCache

            backend.trace_cache = TraceDiskCache(cache.path / "traces")
        self.pool = pool
        self._executor = None
        #: Cache accounting of the most recent :meth:`run` call.  Results
        #: are identical whatever the worker count; the hit/miss split is
        #: not (parallel workers keep private in-memory caches, so fewer
        #: cross-point hits are observed — the disk cache closes exactly
        #: that gap).
        self.stats = CacheStats()
        #: Disk-cache accounting of the most recent run (zeros without a cache).
        self.disk_stats = DiskCacheStats()
        #: Cumulative count of scenario results per execution tier
        #: (``"engine"``/``"replay"``/``"steady"``), tallied from each
        #: result's ``execution_tier`` attribute.  Only the simulation
        #: backend stamps one; prediction results contribute nothing.
        #: Disk-cache hits keep the tier recorded when the entry was
        #: first computed, so the counts audit how every row was produced.
        self.execution_counts: dict[str, int] = {}
        #: Cumulative host seconds per execution phase (``"capture"``/
        #: ``"replay"``/``"steady"``/``"engine"``), tallied from each
        #: result's ``phase_seconds``.  Like the tier counts, disk-cache
        #: hits contribute the phases recorded when the entry was first
        #: computed.
        self.phase_seconds: dict[str, float] = {}

    # ------------------------------------------------------------------

    def run(self, scenarios: Iterable[Scenario] | ScenarioSweep) -> list[SweepOutcome]:
        """Evaluate every scenario, returning outcomes in input order."""
        points = list(scenarios)
        if not points:
            self.stats = CacheStats()
            self.disk_stats = DiskCacheStats()
            return []
        if self.workers > 1 and len(points) > 1:
            results, self.stats, self.disk_stats = self._run_parallel(points)
        else:
            results, self.stats, self.disk_stats = self._run_serial(points)
        self._tally_execution(results)
        return [SweepOutcome(scenario=scenario, result=result)
                for scenario, result in zip(points, results)]

    def _tally_execution(self, results: Iterable[Any]) -> None:
        for result in results:
            tier = getattr(result, "execution_tier", "")
            if tier:
                self.execution_counts[tier] = (
                    self.execution_counts.get(tier, 0) + 1)
            merge_phases(self.phase_seconds,
                         getattr(result, "phase_seconds", {}))

    # ------------------------------------------------------------------

    def _ensure_executor(self):
        if self._executor is None:
            self._executor = self.backend.compile()
        return self._executor

    def _run_serial(self, points: list[Scenario]):
        executor = self._ensure_executor()
        stats_before = executor.collect_stats()
        if self.cache is not None:
            disk_before = self.cache.stats_snapshot()
        else:
            disk_before = DiskCacheStats()
        results = [_cached_evaluate(self.backend, executor, self.cache, scenario)
                   for scenario in points]
        stats = executor.collect_stats().since(stats_before)
        if self.cache is not None:
            after = self.cache.stats_snapshot()
            disk_stats = DiskCacheStats(hits=after.hits - disk_before.hits,
                                        misses=after.misses - disk_before.misses,
                                        stores=after.stores - disk_before.stores)
        else:
            disk_stats = DiskCacheStats()
        return results, stats, disk_stats

    def _run_parallel(self, points: list[Scenario]):
        workers = min(self.workers, len(points))
        chunk_size = -(-len(points) // workers)
        indexed = list(enumerate(points))
        chunks = [indexed[start:start + chunk_size]
                  for start in range(0, len(indexed), chunk_size)]
        cache_path = str(self.cache.path) if self.cache is not None else None
        payloads = [(self.backend, cache_path, chunk)
                    for chunk in chunks if chunk]
        results: dict[int, Any] = {}
        stats = CacheStats()
        disk_stats = DiskCacheStats()

        def consume(pool: ProcessPoolExecutor) -> None:
            nonlocal stats, disk_stats
            for chunk_results, chunk_stats, chunk_disk in pool.map(_run_chunk, payloads):
                stats = stats.merge(chunk_stats)
                disk_stats = disk_stats.merge(chunk_disk)
                for index, result in chunk_results:
                    results[index] = result

        if self.pool is not None:
            consume(self.pool)
        else:
            with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
                consume(pool)
        return [results[index] for index in range(len(points))], stats, disk_stats
