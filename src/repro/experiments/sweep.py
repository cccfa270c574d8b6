"""The unified batch scenario runner.

Every experiment in this repository is ultimately a *scenario sweep*: a
grid of (problem size, blocking factor, processor array, hardware) points,
each evaluated by some backend.  The seed code hand-rolled that loop in
every experiment module; this module centralises it.

* :class:`Scenario` — one evaluation point: a label, the application
  object's externally modifiable variables, an optional per-scenario
  hardware model (for rate-factor/ablation sweeps) and free-form ``tags``
  carried through to the outcome.
* :class:`ScenarioSweep` — a declarative collection of scenarios.
* :class:`SweepRunner` — executes an iterable of scenarios through a
  scenario **backend** instance (:mod:`repro.experiments.backends`).  The
  backend is compiled **once** per runner, when the first scenario
  misses the disk cache (a fully warm run compiles nothing) — for the
  prediction backend that means one
  :class:`~repro.core.evaluation.compiler.CompiledModel`
  shared by every point, with one executor per distinct hardware
  fingerprint; for the simulation backend one reusable simulation plan
  per (deck, px, py) plus a sweep-wide compute cost table.  Scenarios
  are evaluated in input order, in this process; a grid spreads over
  machines or processes as shards or fleet units
  (:mod:`repro.experiments.sharding`, :mod:`repro.experiments.fleet`).
* Optional **disk cache** (:mod:`repro.experiments.diskcache`): pass
  ``cache=`` a directory (or :class:`SweepDiskCache`) and every evaluated
  scenario is persisted keyed on the backend fingerprint; warm runs and
  other processes are served from the shared store instead of
  recomputing.

Cache-hit accounting is aggregated into :attr:`SweepRunner.stats` (and
:attr:`SweepRunner.disk_stats`) after every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.evaluation.compiler import CacheStats
from repro.core.hmcl.model import HardwareModel
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


class SweepRunner:
    """Evaluates scenario sweeps through a scenario backend.

    Parameters
    ----------
    backend:
        The scenario backend instance
        (:class:`~repro.experiments.backends.PredictionBackend` or
        :class:`~repro.experiments.backends.SimulationBackend`).
    cache:
        Optional disk-backed sweep cache: a directory path or a
        :class:`~repro.experiments.diskcache.SweepDiskCache`.  Scenario
        results are persisted keyed on the backend fingerprint and shared
        across runs and processes.
    """

    def __init__(self, backend: Backend,
                 cache: SweepDiskCache | str | None = None):
        self.backend: Backend = backend
        if cache is not None and not isinstance(cache, SweepDiskCache):
            cache = SweepDiskCache(cache)
        self.cache: SweepDiskCache | None = cache
        #: The compiled backend, built by the first scenario the disk cache
        #: cannot serve: a fully warm run compiles nothing.
        self._executor = None
        #: Cache accounting of the most recent :meth:`run` call.
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
        #: ``"replay"``/``"steady"``/``"engine"``), tallied from the
        #: ``phase_seconds`` of each result this runner computed.  Unlike
        #: the tier counts, disk-cache hits add nothing: their seconds
        #: were spent by the run that first computed them.
        self.phase_seconds: dict[str, float] = {}

    # ------------------------------------------------------------------

    def run(self, scenarios: Iterable[Scenario] | ScenarioSweep) -> list[SweepOutcome]:
        """Evaluate every scenario, returning outcomes in input order."""
        points = list(scenarios)
        if not points:
            self.stats = CacheStats()
            self.disk_stats = DiskCacheStats()
            return []
        stats_before = (self._executor.collect_stats()
                        if self._executor is not None else CacheStats())
        disk_before = (self.cache.stats_snapshot() if self.cache is not None
                       else DiskCacheStats())
        evaluated = [self._cached_evaluate(scenario) for scenario in points]
        self.stats = (self._executor.collect_stats().since(stats_before)
                      if self._executor is not None else CacheStats())
        if self.cache is not None:
            after = self.cache.stats_snapshot()
            self.disk_stats = DiskCacheStats(
                hits=after.hits - disk_before.hits,
                misses=after.misses - disk_before.misses,
                stores=after.stores - disk_before.stores)
        else:
            self.disk_stats = DiskCacheStats()
        self._tally_execution(evaluated)
        return [SweepOutcome(scenario=scenario, result=result)
                for scenario, (result, _) in zip(points, evaluated)]

    def _cached_evaluate(self, scenario: Scenario) -> tuple[Any, bool]:
        """Evaluate one scenario, serving/warming the disk cache when present.

        Returns ``(result, computed)``; ``computed`` is False for a disk hit.
        """
        cache = self.cache
        if cache is None:
            return self._compiled().evaluate(scenario), True
        key = self.backend.fingerprint(scenario)
        cached = cache.get(key)
        if cached is not None:
            return cached, False
        result = self._compiled().evaluate(scenario)
        cache.put(key, result)
        return result, True

    def _compiled(self):
        """The backend's executor, compiled on first use."""
        if self._executor is None:
            backend = self.backend
            if (self.cache is not None
                    and getattr(backend, "trace_cache", "") is None):
                # A cached simulation sweep gets the persistent trace
                # cache for free, under the sweep cache's own directory:
                # compiled traces then survive across runs and processes
                # just like scenario results do.
                from repro.simmpi.tracecache import TraceDiskCache

                backend.trace_cache = TraceDiskCache(self.cache.path / "traces")
            self._executor = backend.compile()
        return self._executor

    def _tally_execution(self, evaluated: Iterable[tuple[Any, bool]]) -> None:
        for result, computed in evaluated:
            tier = getattr(result, "execution_tier", "")
            if tier:
                self.execution_counts[tier] = (
                    self.execution_counts.get(tier, 0) + 1)
            if computed:
                merge_phases(self.phase_seconds,
                             getattr(result, "phase_seconds", {}))
