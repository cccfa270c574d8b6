"""The declarative Study API: one spec-driven entrypoint for every experiment.

Every experiment in this repository — the validation tables, the
speculative figures, the blocking/scaling studies, the Section-4 ablation
and the Section-6 model-agreement check — reduces to *evaluate a scenario
grid on a machine with a backend*.  This module gives that reduction a
first-class, serializable form:

* :class:`StudySpec` — a frozen, hashable description of one workload:
  the registered study family, the machine preset, the grid
  parameters, cache directory and analysis hooks.  Specs
  round-trip through JSON and TOML (:meth:`StudySpec.to_toml` /
  :func:`load_spec`) and have a stable content hash
  (:meth:`StudySpec.spec_hash`) — a spec file plus a shared cache
  directory is the unit of work a fleet of machines can split.
* :func:`register_study` — the registry under which every experiment is
  expressed as "defaults + an executor"; :func:`build_spec` canonicalises
  user overrides against those defaults (unknown studies and unknown
  parameters fail loudly).
* :class:`StudyContext` — shared execution state: the PSL model is parsed
  and compiled **once**, and one disk-backed sweep cache per directory
  serves every study of a run.
* :class:`StudyRunner` — executes one or many specs in a single
  invocation and emits typed :class:`StudyResult` artifacts: the
  per-experiment payload object, uniform tabular rows for JSON/CSV
  export, the spec hash, the machine fingerprint and cache statistics
  (:mod:`repro.experiments.artifacts` writes them to disk plus a run
  manifest).

A spec is the only way to run a study: ``run_study(build_spec("table2",
max_pes=6))`` in Python, ``repro-sweep3d run table2 --set max_pes=6`` on
the command line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.evaluation.compiler import CacheStats, CompiledModel
from repro.core.hmcl.model import HardwareModel
from repro.errors import ExperimentError
from repro.experiments.backends import (
    Backend,
    PredictionBackend,
    machine_fingerprint,
)
from repro.experiments.diskcache import (
    DiskCacheStats,
    HardwareStore,
    SweepDiskCache,
    fingerprint_digest,
)
from repro.experiments.paper_data import (
    FIGURE8_STUDY,
    FIGURE9_STUDY,
    PAPER_TABLES,
    SpeculativeStudy,
)
from repro.profiling.phases import merge_phases

#: Named speculative studies a spec can reference by string.
SPECULATIVE_STUDIES: dict[str, SpeculativeStudy] = {
    "figure8": FIGURE8_STUDY,
    "figure9": FIGURE9_STUDY,
}

#: Universal sharding parameters injected into every registered study's
#: defaults: ``shard_index``/``shard_count`` mark a spec as one slice of a
#: larger grid (so ``spec_hash()`` distinguishes shards) and
#: ``shard_parent`` records the content hash of the parent spec that was
#: split (so a merge can tie the shards back together and refuse strays).
#: The defaults describe an unsharded spec, and values equal to the
#: defaults are dropped by :func:`build_spec`, so existing specs and their
#: hashes are unchanged.  Shard specs are built by
#: :class:`repro.experiments.sharding.ShardPlanner`, never by hand.
SHARD_PARAM_DEFAULTS: dict[str, Any] = {
    "shard_index": 0,
    "shard_count": 1,
    "shard_parent": "",
}


def is_shard_spec(spec: StudySpec) -> bool:
    """Whether a spec is one slice of a larger grid."""
    params = spec.params_dict
    return bool(params.get("shard_parent")) or params.get("shard_count", 1) > 1


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------


def _normalize(value: Any) -> Any:
    """Canonicalise a parameter value for a frozen, hashable spec.

    Lists become tuples (recursively) so equal specs compare and hash
    equal whether they were built in memory or parsed from JSON/TOML.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(item) for item in value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    raise ExperimentError(
        f"study parameter value {value!r} is not JSON/TOML-serializable; "
        "specs may only carry numbers, strings, booleans and lists thereof")


def _same_type(value: Any, default: Any) -> bool:
    """Whether a normalised ``value`` has the type of the ``default``.

    An int may stand for a float and a list (normalised to a tuple) for a
    tuple, whose items must then match the default's first item; a
    ``None`` default (an optional parameter) admits anything.
    """
    if default is None:
        return True
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, (int, float)):
        number = (int,) if isinstance(default, int) else (int, float)
        return isinstance(value, number) and not isinstance(value, bool)
    if isinstance(default, tuple):
        return isinstance(value, tuple) and (
            not default or all(_same_type(item, default[0]) for item in value))
    return isinstance(value, type(default))


def _listify(value: Any) -> Any:
    """The JSON/TOML-facing form of a normalised value (tuples -> lists)."""
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    return value


@dataclass(frozen=True)
class StudySpec:
    """A frozen, serializable description of one experiment workload.

    Build specs with :func:`build_spec`, which validates the study name and
    parameters against the registry and canonicalises defaults so that
    equal workloads hash equal.
    """

    #: Registered study family (``"table1"``, ``"figure8"``, ``"blocking"``, ...).
    study: str
    #: Machine preset name; ``None`` means the study's default machine.
    machine: str | None = None
    #: Canonicalised grid/study parameters as sorted ``(name, value)`` pairs.
    params: tuple[tuple[str, Any], ...] = ()
    #: Disk-backed sweep cache directory shared across studies/processes.
    cache_dir: str | None = None
    #: Registered analysis hooks applied to the result.
    analysis: tuple[str, ...] = ()

    # -- parameter access ----------------------------------------------------

    @property
    def params_dict(self) -> dict[str, Any]:
        """The spec's explicit (non-default) parameters as a dict."""
        return dict(self.params)

    def resolved_params(self) -> dict[str, Any]:
        """Study defaults overlaid with this spec's explicit parameters."""
        definition = get_study(self.study)
        resolved = dict(definition.defaults)
        resolved.update(self.params)
        return resolved

    def with_overrides(self, cache_dir: str | None = None) -> "StudySpec":
        """A copy with a runner-level cache directory (None keeps the field)."""
        if cache_dir is None:
            return self
        return dataclasses.replace(self, cache_dir=str(cache_dir))

    def smoke(self) -> "StudySpec":
        """The reduced-grid variant of this spec (CI smoke runs).

        The study's smoke parameters fill in only what the spec leaves at
        its defaults: an explicit parameter keeps its value.
        """
        params = {**get_study(self.study).smoke_params, **self.params_dict}
        return build_spec(self.study, machine=self.machine,
                          cache_dir=self.cache_dir,
                          analysis=self.analysis, **params)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain-data form of the spec (stable key order, lists not tuples)."""
        data: dict[str, Any] = {"study": self.study}
        if self.machine is not None:
            data["machine"] = self.machine
        if self.cache_dir is not None:
            data["cache_dir"] = self.cache_dir
        if self.analysis:
            data["analysis"] = list(self.analysis)
        if self.params:
            data["params"] = {name: _listify(value) for name, value in self.params}
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        """Rebuild (and re-canonicalise) a spec from :meth:`to_dict` data."""
        data = dict(data)
        try:
            study = data.pop("study")
        except KeyError:
            raise ExperimentError("study spec has no 'study' field") from None
        params = data.pop("params", {})
        if not isinstance(params, Mapping):
            raise ExperimentError("study spec 'params' must be a table/object")
        unknown = set(data) - {"machine", "cache_dir", "analysis"}
        if unknown:
            raise ExperimentError(
                f"study spec has unknown fields {sorted(unknown)}; expected "
                "study/machine/cache_dir/analysis/params")
        return build_spec(study,
                          machine=data.get("machine"),
                          cache_dir=data.get("cache_dir"),
                          analysis=data.get("analysis", ()),
                          **dict(params))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StudySpec":
        return cls.from_dict(json.loads(text))

    def to_toml(self) -> str:
        """Render the spec as a TOML document (the spec-file format)."""
        data = self.to_dict()
        params = data.pop("params", None)
        lines = [f"{name} = {_toml_value(value)}" for name, value in data.items()]
        if params:
            lines.append("")
            lines.append("[params]")
            lines.extend(f"{name} = {_toml_value(value)}"
                         for name, value in params.items())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str) -> "StudySpec":
        import tomllib
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ExperimentError(f"invalid study spec TOML: {exc}") from exc
        return cls.from_dict(data)

    def spec_hash(self) -> str:
        """A stable content digest of the spec (identical across processes).

        ``cache_dir`` is left out: where a host keeps its cache is a
        deployment setting, and caches never change a row, so one
        workload run against two cache directories is one spec.
        """
        data = self.to_dict()
        data.pop("cache_dir", None)
        payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise ExperimentError(f"cannot render {value!r} as a TOML value")


def load_spec(path: str | Path) -> StudySpec:
    """Load a :class:`StudySpec` from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ExperimentError(f"cannot read study spec {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        return StudySpec.from_json(text)
    return StudySpec.from_toml(text)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyDefinition:
    """One registered study family: defaults plus an executor."""

    name: str
    title: str
    #: Default machine preset (None: the executor chooses / not applicable).
    default_machine: str | None
    #: Parameter names and default values the spec may override.
    defaults: Mapping[str, Any]
    #: Parameter overrides for reduced-grid smoke runs.
    smoke_params: Mapping[str, Any]
    #: ``execute(spec, context) -> payload`` (the per-experiment result object).
    execute: Callable[["StudySpec", "StudyContext"], Any]
    #: ``tabulate(payload) -> (columns, rows)`` for uniform JSON/CSV export.
    tabulate: Callable[[Any], tuple[list[str], list[dict[str, Any]]]]
    #: Optional plain-text renderer used by the CLI.
    render: Callable[[Any], str] | None = None


_STUDIES: dict[str, StudyDefinition] = {}


def register_study(name: str, *, title: str,
                   machine: str | None = None,
                   defaults: Mapping[str, Any] | None = None,
                   smoke: Mapping[str, Any] | None = None,
                   tabulate: Callable[[Any], tuple[list[str], list[dict[str, Any]]]] | None = None,
                   render: Callable[[Any], str] | None = None):
    """Class/function decorator registering a study executor under ``name``.

    ``defaults`` declares every parameter a spec may set (unknown
    parameters are rejected by :func:`build_spec`); ``smoke`` lists the
    reduced-grid overrides used by ``--smoke`` runs.
    """
    def decorator(execute):
        declared = dict(defaults or {})
        reserved = set(declared) & set(SHARD_PARAM_DEFAULTS)
        if reserved:
            raise ExperimentError(
                f"study {name!r} declares reserved parameter(s) "
                f"{sorted(reserved)}; the shard_* names are injected into "
                "every study")
        declared = {**SHARD_PARAM_DEFAULTS, **declared}
        _STUDIES[name] = StudyDefinition(
            name=name,
            title=title,
            default_machine=machine,
            defaults={key: _normalize(value)
                      for key, value in declared.items()},
            smoke_params={key: _normalize(value)
                          for key, value in dict(smoke or {}).items()},
            execute=execute,
            tabulate=tabulate or _tabulate_generic,
            render=render,
        )
        return execute
    return decorator


def _validate_shard_params(params: Mapping[str, Any]) -> None:
    """Reject inconsistent shard bookkeeping on a spec under construction."""
    index = params.get("shard_index", 0)
    count = params.get("shard_count", 1)
    parent = params.get("shard_parent", "")
    if not isinstance(index, int) or not isinstance(count, int) \
            or isinstance(index, bool) or isinstance(count, bool):
        raise ExperimentError("shard_index/shard_count must be integers")
    if count < 1:
        raise ExperimentError("shard_count must be >= 1")
    if not 0 <= index < count:
        raise ExperimentError(
            f"shard_index {index} out of range for shard_count {count}")
    if not isinstance(parent, str):
        raise ExperimentError("shard_parent must be a spec-hash string")
    if count > 1 and not parent:
        raise ExperimentError(
            "a shard spec needs shard_parent (the parent spec's hash); "
            "build shard specs with repro.experiments.sharding.ShardPlanner "
            "or 'repro-sweep3d shard plan'")


def get_study(name: str) -> StudyDefinition:
    """Look a registered study up by name."""
    try:
        return _STUDIES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown study {name!r}; registered: {study_names()}") from None


def study_names() -> list[str]:
    """Names of every registered study, in registration order."""
    return list(_STUDIES)


def build_spec(study: str, machine: str | None = None,
               cache_dir: str | None = None,
               analysis: Sequence[str] = (), **params) -> StudySpec:
    """Build a canonical :class:`StudySpec`, validating against the registry.

    Parameters equal to the study's defaults are dropped, so a spec's hash
    does not depend on whether defaults were spelled out; unknown studies
    and unknown parameter names raise :class:`ExperimentError`.
    """
    definition = get_study(study)
    unknown = set(params) - set(definition.defaults)
    if unknown:
        raise ExperimentError(
            f"study {study!r} does not accept parameter(s) {sorted(unknown)}; "
            f"accepted: {sorted(definition.defaults)}")
    _validate_shard_params(params)
    canonical = []
    for name in sorted(params):
        value = _normalize(params[name])
        default = definition.defaults[name]
        if not _same_type(value, default):
            raise ExperimentError(
                f"study {study!r} parameter {name!r} got {value!r}; expected "
                f"a value of the default's type (default: {default!r})")
        if value != default:
            canonical.append((name, value))
    if machine is not None and machine == definition.default_machine:
        machine = None
    return StudySpec(study=study, machine=machine,
                     params=tuple(canonical),
                     cache_dir=str(cache_dir) if cache_dir is not None else None,
                     analysis=tuple(analysis))


# ---------------------------------------------------------------------------
# Analysis hooks
# ---------------------------------------------------------------------------


_ANALYSES: dict[str, Callable[["StudyResult"], Any]] = {}


def register_analysis(name: str):
    """Register an analysis hook: ``hook(result) -> JSON-friendly value``."""
    def decorator(fn):
        _ANALYSES[name] = fn
        return fn
    return decorator


def analysis_names() -> list[str]:
    return sorted(_ANALYSES)


# ---------------------------------------------------------------------------
# Shared execution state
# ---------------------------------------------------------------------------


_UNSET: Any = object()


class StudyContext:
    """Execution state shared across studies (and across sweeps of one study).

    * the PSL model is parsed once and compiled once
      (:meth:`model` / :meth:`compiled_model`);
    * machine presets are instantiated once (:meth:`machine`);
    * one :class:`~repro.experiments.diskcache.SweepDiskCache` per
      directory serves every sweep (:meth:`cache_for`, :attr:`cache`);
    * the machines' benchmark campaigns are read from the
      :class:`~repro.experiments.diskcache.HardwareStore` beside that
      cache before any of them runs (:meth:`hardware_model`).

    It holds no OS resource.  It is not safe under concurrent studies:
    :class:`StudyRunner` binds :attr:`cache` for the duration of each one.
    """

    def __init__(self):
        #: The sweep cache of the spec being run (set by the runner).
        self.cache: SweepDiskCache | None = None
        self._model = None
        self._compiled: CompiledModel | None = None
        self._machines: dict[str, Any] = {}
        self._caches: dict[str, SweepDiskCache] = {}
        #: Sweep runners created through this context by the study being
        #: run; :class:`StudyRunner` aggregates and then drops them.
        self._runners: list[Any] = []

    # -- shared resources ----------------------------------------------------

    def model(self):
        if self._model is None:
            from repro.core.workload import load_sweep3d_model
            self._model = load_sweep3d_model()
        return self._model

    def compiled_model(self) -> CompiledModel:
        if self._compiled is None:
            self._compiled = CompiledModel(self.model())
        return self._compiled

    def machine(self, name: str):
        from repro.machines.presets import get_machine
        key = name.lower()
        if key not in self._machines:
            self._machines[key] = get_machine(name)
        return self._machines[key]

    def cache_for(self, cache_dir: str | os.PathLike) -> SweepDiskCache:
        """The shared :class:`SweepDiskCache` for a directory (memoised)."""
        key = str(Path(cache_dir))
        if key not in self._caches:
            self._caches[key] = SweepDiskCache(key)
        return self._caches[key]

    def hardware_model(self, machine, deck, px: int, py: int,
                       **options) -> HardwareModel:
        """``machine.hardware_model(deck, px, py, **options)``, its
        campaign results served from and kept in the hardware store
        beside the current sweep cache (``<cache_dir>/hardware``).

        Every study executor builds its hardware objects here, so a warm
        run reads each machine's campaigns instead of refitting them.
        Without a sweep cache the machine runs its campaigns as before.
        """
        store = (HardwareStore(self.cache.path / "hardware")
                 if self.cache is not None else None)
        return machine.hardware_model(deck, px, py, store=store, **options)

    # -- runner factories ----------------------------------------------------

    def prediction_runner(self, hardware: HardwareModel | None = None):
        """A :class:`SweepRunner` on the shared compiled prediction backend."""
        backend = PredictionBackend(hardware=hardware,
                                    compiled=self.compiled_model())
        return self.backend_runner(backend)

    def backend_runner(self, backend: Backend,
                       cache: SweepDiskCache | str | None = _UNSET):
        """A :class:`SweepRunner` on an explicit backend instance.

        ``cache`` defaults to the context's shared cache; pass ``None`` to
        disable caching for one sweep.
        """
        from repro.experiments.sweep import SweepRunner
        runner = SweepRunner(backend=backend,
                             cache=self.cache if cache is _UNSET else cache)
        self._runners.append(runner)
        return runner


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def _json_safe(value: Any) -> Any:
    """Replace NaN/inf with None so artifacts are strict JSON."""
    if isinstance(value, float) and (value != value or value in (float("inf"),
                                                                 float("-inf"))):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


@dataclass
class StudyResult:
    """The typed artifact of one executed study."""

    spec: StudySpec
    #: The per-experiment result object (ValidationTableResult, ...).
    payload: Any
    #: Uniform tabular form of the payload (one dict per row).
    columns: list[str] = field(default_factory=list)
    rows: list[dict[str, Any]] = field(default_factory=list)
    machine_name: str | None = None
    #: Digest of the resolved machine's value fingerprint.
    machine_fingerprint: str | None = None
    elapsed_s: float = 0.0
    #: In-memory evaluation-cache accounting for this study's sweeps.
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Disk-cache accounting for this study's sweeps (zeros without a cache).
    disk_stats: DiskCacheStats = field(default_factory=DiskCacheStats)
    #: Scenario counts per simulation execution tier
    #: (``{"steady": 12, "replay": 3, ...}``) — how many of this study's
    #: measurements each tier produced, so ``sim_execution="auto"``
    #: decisions are auditable from the artifact.  Empty for prediction
    #: studies.
    execution: dict[str, int] = field(default_factory=dict)
    #: Host seconds per simulation execution phase (``{"capture": 1.9,
    #: "steady": 0.2, ...}``) summed over the scenarios this study's
    #: sweeps computed — where this run's wall-clock went, complementing
    #: the tier counts.  Disk-cache hits add nothing, so a fully warm run
    #: reports ``{}``.  Empty for prediction studies.
    phases: dict[str, float] = field(default_factory=dict)
    #: Outputs of the spec's analysis hooks, keyed by hook name.
    analysis: dict[str, Any] = field(default_factory=dict)
    #: Shard bookkeeping for sharded runs (parent spec/hash, assigned
    #: units); ``None`` for unsharded and merged results, so their
    #: artifacts keep the unsharded schema.
    sharding: dict[str, Any] | None = None

    @property
    def study(self) -> str:
        return self.spec.study

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash()

    def describe(self) -> str:
        """Plain-text rendering (the study's renderer, or a row count)."""
        definition = get_study(self.spec.study)
        # Merged results carry rows but no payload object, and a shard's
        # payload renderer may assume the full grid (e.g. the blocking
        # study's best-point summary); both fall through to the generic
        # row-count line.
        if self.payload is not None and self.sharding is None:
            if definition.render is not None:
                return definition.render(self.payload)
            described = getattr(self.payload, "describe", None)
            if callable(described):
                return described()
        return (f"{self.spec.study}: {len(self.rows)} row(s) "
                f"in {self.elapsed_s:.2f} s")

    def to_dict(self) -> dict[str, Any]:
        """The JSON artifact form (strict JSON: NaN/inf become null)."""
        data = {
            "study": self.spec.study,
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec_hash,
            "machine": self.machine_name,
            "machine_fingerprint": self.machine_fingerprint,
            "elapsed_s": self.elapsed_s,
            "cache": {
                "predictions": self.cache_stats.predictions,
                "subtask_hits": self.cache_stats.subtask_hits,
                "subtask_misses": self.cache_stats.subtask_misses,
                "disk_hits": self.disk_stats.hits,
                "disk_misses": self.disk_stats.misses,
                "disk_stores": self.disk_stats.stores,
            },
            "execution": self.execution,
            "phases": self.phases,
            "columns": self.columns,
            "rows": self.rows,
            "analysis": self.analysis,
        }
        if self.sharding is not None:
            data["sharding"] = self.sharding
        return _json_safe(data)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


class StudyRunner:
    """Executes one or many :class:`StudySpec` in a single invocation.

    Parameters
    ----------
    cache_dir:
        Shared disk-cache directory override (CLI ``--cache-dir``).
    context:
        A :class:`StudyContext` to share with other runners; without one
        the runner creates a fresh context per :meth:`run` or
        :meth:`run_many` call.
    """

    def __init__(self, cache_dir: str | None = None,
                 context: StudyContext | None = None):
        self.cache_dir = cache_dir
        self._context = context

    # -- single study --------------------------------------------------------

    def run(self, spec: StudySpec | str,
            context: StudyContext | None = None) -> StudyResult:
        """Execute one spec (or a registered study's default spec)."""
        spec = self._resolve(spec)
        return self._run_one(spec, context or self._context or StudyContext())

    # -- many studies --------------------------------------------------------

    def run_many(self, specs: Iterable[StudySpec | str],
                 smoke: bool = False) -> list[StudyResult]:
        """Execute several specs sharing one context (model, caches).

        Each spec's own ``cache_dir`` governs its run (specs naming the
        same directory share one store); the runner-level ``cache_dir``
        override, when set, applies to every spec.
        """
        resolved = [self._resolve(spec) for spec in specs]
        if smoke:
            resolved = [spec.smoke() for spec in resolved]
        ctx = self._context or StudyContext()
        return [self._run_one(spec, ctx) for spec in resolved]

    def run_all(self, smoke: bool = False) -> list[StudyResult]:
        """Execute every registered study's (default or smoke) spec."""
        return self.run_many(study_names(), smoke=smoke)

    # -- internals -----------------------------------------------------------

    def _resolve(self, spec: StudySpec | str) -> StudySpec:
        if isinstance(spec, str):
            spec = build_spec(spec)
        return spec.with_overrides(cache_dir=self.cache_dir)

    def _machine_identity(self, spec: StudySpec, payload: Any,
                          ctx: StudyContext) -> tuple[str | None, str | None]:
        """The machine the study actually ran on (payload first, spec second)."""
        definition = get_study(spec.study)
        name = (getattr(payload, "machine_name", None)
                or spec.machine or definition.default_machine)
        if name is None:
            return None, None
        machine = ctx.machine(name)
        return machine.name, fingerprint_digest(machine_fingerprint(machine))

    def _run_one(self, spec: StudySpec, ctx: StudyContext) -> StudyResult:
        definition = get_study(spec.study)
        # A shard spec carries the parent's full grid plus shard_* markers;
        # the deterministic planner is recomputed here and the study
        # executes only its assigned slice (same context, same caches).
        exec_spec = spec
        shard_meta = None
        if is_shard_spec(spec):
            from repro.experiments.sharding import resolve_shard
            resolution = resolve_shard(spec)
            exec_spec = resolution.sliced
            shard_meta = resolution.metadata()
        # The spec's cache directory governs this study; the context's own
        # cache (if any) is the default for specs that declare none.
        previous_cache = ctx.cache
        if spec.cache_dir is not None:
            ctx.cache = ctx.cache_for(spec.cache_dir)
        runners_before = len(ctx._runners)
        try:
            started = time.perf_counter()
            payload = definition.execute(exec_spec, ctx)
            elapsed = time.perf_counter() - started
            runners = ctx._runners[runners_before:]
        finally:
            ctx.cache = previous_cache
            # The runners hold plans and compiled traces; a long-lived
            # context (the service's, a fleet worker's) must not keep them.
            del ctx._runners[runners_before:]
        # Aggregate accounting from the sweep runners this study created;
        # each runner's stats cover its one run() call.
        cache_stats = CacheStats()
        disk_stats = DiskCacheStats()
        execution: dict[str, int] = {}
        phases: dict[str, float] = {}
        for runner in runners:
            cache_stats = cache_stats.merge(runner.stats)
            disk_stats = disk_stats.merge(runner.disk_stats)
            for tier, count in getattr(runner, "execution_counts", {}).items():
                execution[tier] = execution.get(tier, 0) + count
            merge_phases(phases, getattr(runner, "phase_seconds", {}))
        columns, rows = definition.tabulate(payload)
        machine_name, machine_token = self._machine_identity(spec, payload, ctx)
        result = StudyResult(
            spec=spec,
            payload=payload,
            columns=columns,
            rows=rows,
            machine_name=machine_name,
            machine_fingerprint=machine_token,
            elapsed_s=elapsed,
            cache_stats=cache_stats,
            disk_stats=disk_stats,
            execution=execution,
            phases=phases,
            sharding=shard_meta,
        )
        for hook_name in spec.analysis:
            hook = _ANALYSES.get(hook_name)
            if hook is None:
                raise ExperimentError(
                    f"unknown analysis hook {hook_name!r}; "
                    f"registered: {analysis_names()}")
            result.analysis[hook_name] = hook(result)
        return result


def run_study(spec: StudySpec | str,
              context: StudyContext | None = None) -> StudyResult:
    """Execute one spec (module-level convenience)."""
    return StudyRunner(context=context).run(spec)


def run_studies(specs: Iterable[StudySpec | str],
                cache_dir: str | None = None,
                smoke: bool = False) -> list[StudyResult]:
    """Execute several specs in one invocation with shared state."""
    return StudyRunner(cache_dir=cache_dir).run_many(specs, smoke=smoke)


# ---------------------------------------------------------------------------
# Tabulators (uniform CSV/JSON rows per payload type)
# ---------------------------------------------------------------------------


def _tabulate_generic(payload) -> tuple[list[str], list[dict[str, Any]]]:
    return [], []


def _tabulate_table(payload) -> tuple[list[str], list[dict[str, Any]]]:
    columns = ["data_size", "pes", "px", "py", "predicted_s", "measured_s",
               "error_pct", "paper_measured_s", "paper_predicted_s",
               "paper_error_pct"]
    rows = [{
        "data_size": row.data_size,
        "pes": row.pes,
        "px": row.px,
        "py": row.py,
        "predicted_s": row.predicted,
        "measured_s": row.measured,
        "error_pct": row.error_pct,
        "paper_measured_s": row.paper_measured,
        "paper_predicted_s": row.paper_predicted,
        "paper_error_pct": row.paper_error_pct,
    } for row in payload.rows]
    # Multi-seed runs (the ``samples`` parameter) extend the schema with
    # the uncertainty block; unsampled runs keep the historical columns.
    if any(row.n_samples for row in payload.rows):
        columns += ["samples", "measured_mean_s", "measured_std_s",
                    "measured_ci95_s"]
        for tabulated, row in zip(rows, payload.rows):
            tabulated["samples"] = row.n_samples
            tabulated["measured_mean_s"] = row.measured_mean
            tabulated["measured_std_s"] = row.measured_std
            tabulated["measured_ci95_s"] = row.measured_ci95
    return columns, rows


def _tabulate_figure(payload) -> tuple[list[str], list[dict[str, Any]]]:
    columns = ["rate_factor", "flop_rate_mflops", "processors", "time_s"]
    rows = [{
        "rate_factor": series.rate_factor,
        "flop_rate_mflops": series.flop_rate_mflops,
        "processors": processors,
        "time_s": time_s,
    } for series in payload.series
        for processors, time_s in series.as_rows()]
    return columns, rows


def _tabulate_blocking(payload) -> tuple[list[str], list[dict[str, Any]]]:
    columns = ["mk", "mmi", "blocks_per_iteration", "messages_per_processor",
               "predicted_s"]
    rows = [{
        "mk": point.mk,
        "mmi": point.mmi,
        "blocks_per_iteration": point.blocks_per_iteration,
        "messages_per_processor": point.messages_per_processor,
        "predicted_s": point.predicted_time,
    } for point in payload.points]
    return columns, rows


def _tabulate_scaling(payload) -> tuple[list[str], list[dict[str, Any]]]:
    columns = ["processors", "time_s", "efficiency", "overhead_fraction"]
    rows = [{
        "processors": point.processors,
        "time_s": point.time,
        "efficiency": point.efficiency,
        "overhead_fraction": point.overhead_fraction,
    } for point in payload.points]
    return columns, rows


def _tabulate_ablation(payload) -> tuple[list[str], list[dict[str, Any]]]:
    columns = ["machine", "data_size", "pes", "measured_s",
               "coarse_prediction_s", "legacy_prediction_s",
               "coarse_error_pct", "legacy_error_pct"]
    rows = [{
        "machine": payload.machine_name,
        "data_size": payload.data_size,
        "pes": payload.pes,
        "measured_s": payload.measured,
        "coarse_prediction_s": payload.coarse_prediction,
        "legacy_prediction_s": payload.legacy_prediction,
        "coarse_error_pct": payload.coarse_error_pct,
        "legacy_error_pct": payload.legacy_error_pct,
    }]
    return columns, rows


def _tabulate_agreement(payload) -> tuple[list[str], list[dict[str, Any]]]:
    columns = ["pes", "pace_s", "loggp_s", "hoisie_s", "spread"]
    rows = [{
        "pes": comparison.workload.px * comparison.workload.py,
        "pace_s": comparison.pace,
        "loggp_s": comparison.loggp,
        "hoisie_s": comparison.hoisie,
        "spread": comparison.spread,
    } for comparison in payload.comparisons]
    return columns, rows


def _tabulate_noise(payload) -> tuple[list[str], list[dict[str, Any]]]:
    columns = ["study", "machine", "label", "px", "py", "pes", "samples",
               "elapsed_s", "elapsed_mean_s", "elapsed_std_s",
               "elapsed_ci95_s"]
    rows = [{
        "study": block.study,
        "machine": block.machine_name,
        "label": entry.label,
        "px": entry.px,
        "py": entry.py,
        "pes": entry.pes,
        "samples": entry.samples,
        "elapsed_s": entry.elapsed,
        "elapsed_mean_s": entry.mean,
        "elapsed_std_s": entry.std,
        "elapsed_ci95_s": entry.ci95,
    } for block in payload.studies for entry in block.scenarios]
    return columns, rows


def _tabulate_steady(payload) -> tuple[list[str], list[dict[str, Any]]]:
    columns = ["pes", "px", "py", "it", "jt", "kt", "cells", "iterations",
               "elapsed_s", "per_iteration_s", "messages", "bytes",
               "compute_fraction"]
    rows = [{
        "pes": row.pes,
        "px": row.px,
        "py": row.py,
        "it": row.it,
        "jt": row.jt,
        "kt": row.kt,
        "cells": row.cells,
        "iterations": row.iterations,
        "elapsed_s": row.elapsed_s,
        "per_iteration_s": row.per_iteration_s,
        "messages": row.total_messages,
        "bytes": row.total_bytes,
        "compute_fraction": row.compute_fraction,
    } for row in payload.rows]
    return columns, rows


# ---------------------------------------------------------------------------
# Renderers (CLI plain text; lazy report import keeps import costs down)
# ---------------------------------------------------------------------------


def _render_table(payload) -> str:
    from repro.experiments.report import format_validation_table
    return format_validation_table(payload)


def _render_figure(payload) -> str:
    from repro.experiments.report import format_figure
    return format_figure(payload)


def _render_ablation(payload) -> str:
    from repro.experiments.report import format_ablation
    return format_ablation(payload)


# ---------------------------------------------------------------------------
# The registered studies
# ---------------------------------------------------------------------------


def _table_executor(table_name: str, spec: StudySpec, context: StudyContext):
    from repro.experiments.tables import _run_table_impl, rows_for_indices
    params = spec.resolved_params()
    max_pes = params["max_pes"]
    if max_pes is not None and not (isinstance(max_pes, int)
                                    and not isinstance(max_pes, bool)
                                    and max_pes >= 1):
        raise ExperimentError(
            f"{table_name} parameter 'max_pes' must be an integer >= 1, "
            f"got {max_pes!r}")
    indices = params["rows"]
    if indices is not None and not isinstance(indices, tuple):
        raise ExperimentError(
            f"{table_name} parameter 'rows' must be a list of row indices, "
            f"got {indices!r}")
    rows = rows_for_indices(table_name, indices) if indices is not None else None
    machine_name = spec.machine or get_study(spec.study).default_machine
    return _run_table_impl(
        table_name,
        machine=context.machine(machine_name),
        rows=rows,
        simulate_measurement=params["simulate_measurement"],
        max_iterations=params["max_iterations"],
        max_pes=max_pes,
        context=context,
        sim_execution=params["sim_execution"],
        samples=params["samples"],
    )


#: ``rows`` selects a subset of the published table by row index (the
#: shard axis of the table studies); ``None`` runs every published row.
#: ``sim_execution`` selects the simulation tier of the measurement grid
#: ("auto": trace replay for modelled runs; "engine": the per-event
#: reference; "replay": force replay) — all tiers are bit-identical, so
#: the choice never changes a result, only its cost.  ``samples > 0``
#: replays every measurement under that many noise seeds and adds
#: uncertainty columns; the default 0 keeps the
#: historical schema (and existing spec hashes, since default-equal
#: parameters are dropped by :func:`build_spec`).
_TABLE_DEFAULTS = {"simulate_measurement": True, "max_iterations": 12,
                   "max_pes": None, "rows": None, "sim_execution": "auto",
                   "samples": 0}
_TABLE_SMOKE = {"max_pes": 6, "max_iterations": 1}


@register_study("table1",
                title="Table 1 — validation on the Pentium-3/Myrinet cluster",
                machine="pentium3-myrinet",
                defaults=_TABLE_DEFAULTS, smoke=_TABLE_SMOKE,
                tabulate=_tabulate_table, render=_render_table)
def _study_table1(spec: StudySpec, context: StudyContext):
    return _table_executor("table1", spec, context)


@register_study("table2",
                title="Table 2 — validation on the Opteron/GigE cluster",
                machine="opteron-gige",
                defaults=_TABLE_DEFAULTS, smoke=_TABLE_SMOKE,
                tabulate=_tabulate_table, render=_render_table)
def _study_table2(spec: StudySpec, context: StudyContext):
    return _table_executor("table2", spec, context)


@register_study("table3",
                title="Table 3 — validation on the SGI Altix Itanium-2 SMP",
                machine="altix-itanium2",
                defaults=_TABLE_DEFAULTS, smoke=_TABLE_SMOKE,
                tabulate=_tabulate_table, render=_render_table)
def _study_table3(spec: StudySpec, context: StudyContext):
    return _table_executor("table3", spec, context)


def _figure_executor(study: SpeculativeStudy, spec: StudySpec,
                     context: StudyContext):
    from repro.experiments.figures import _run_speculative_figure_impl
    params = spec.resolved_params()
    machine_name = spec.machine or get_study(spec.study).default_machine
    counts = params["processor_counts"]
    factors = params["rate_factors"]
    return _run_speculative_figure_impl(
        study,
        machine=context.machine(machine_name),
        processor_counts=list(counts) if counts is not None else None,
        rate_factors=list(factors) if factors is not None else None,
        context=context,
    )


_FIGURE_DEFAULTS = {"processor_counts": None, "rate_factors": None}
_FIGURE_SMOKE = {"processor_counts": (1, 4, 16), "rate_factors": (1.0,)}


@register_study("figure8",
                title="Figure 8 — speculative scaling, twenty-million-cell problem",
                machine="hypothetical-opteron-myrinet",
                defaults=_FIGURE_DEFAULTS, smoke=_FIGURE_SMOKE,
                tabulate=_tabulate_figure, render=_render_figure)
def _study_figure8(spec: StudySpec, context: StudyContext):
    return _figure_executor(FIGURE8_STUDY, spec, context)


@register_study("figure9",
                title="Figure 9 — speculative scaling, one-billion-cell problem",
                machine="hypothetical-opteron-myrinet",
                defaults=_FIGURE_DEFAULTS, smoke=_FIGURE_SMOKE,
                tabulate=_tabulate_figure, render=_render_figure)
def _study_figure9(spec: StudySpec, context: StudyContext):
    return _figure_executor(FIGURE9_STUDY, spec, context)


@register_study("blocking",
                title="Blocking-factor study — (mk, mmi) sensitivity sweep",
                machine="hypothetical-opteron-myrinet",
                defaults={"px": 20, "py": 20,
                          "cells_per_processor": (5, 5, 100),
                          "mk_values": (1, 2, 5, 10, 20, 50, 100),
                          "mmi_values": (1, 2, 3, 6),
                          "max_iterations": 12},
                smoke={"px": 4, "py": 4, "mk_values": (1, 10),
                       "mmi_values": (1, 3), "max_iterations": 1},
                tabulate=_tabulate_blocking)
def _study_blocking(spec: StudySpec, context: StudyContext):
    from repro.experiments.blocking import _run_blocking_impl
    params = spec.resolved_params()
    machine_name = spec.machine or get_study(spec.study).default_machine
    return _run_blocking_impl(
        machine=context.machine(machine_name),
        px=params["px"], py=params["py"],
        cells_per_processor=tuple(params["cells_per_processor"]),
        mk_values=tuple(params["mk_values"]),
        mmi_values=tuple(params["mmi_values"]),
        max_iterations=params["max_iterations"],
        context=context,
    )


@register_study("scaling",
                title="Weak-scaling analysis of a speculative study",
                machine="hypothetical-opteron-myrinet",
                defaults={"figure": "figure8",
                          "processor_counts": (1, 16, 256, 1024, 8000),
                          "rate_factor": 1.0},
                smoke={"processor_counts": (1, 16)},
                tabulate=_tabulate_scaling)
def _study_scaling(spec: StudySpec, context: StudyContext):
    from repro.experiments.scaling import _run_scaling_impl
    params = spec.resolved_params()
    figure = params["figure"]
    if figure not in SPECULATIVE_STUDIES:
        raise ExperimentError(
            f"unknown speculative study {figure!r}; "
            f"known: {sorted(SPECULATIVE_STUDIES)}")
    machine_name = spec.machine or get_study(spec.study).default_machine
    return _run_scaling_impl(
        machine=context.machine(machine_name),
        study=SPECULATIVE_STUDIES[figure],
        processor_counts=tuple(params["processor_counts"]),
        rate_factor=params["rate_factor"],
        context=context,
    )


@register_study("ablation",
                title="Section-4 ablation — legacy opcode vs coarse benchmarking",
                machine="opteron-gige",
                defaults={"table": "table2", "row_index": 0,
                          "max_iterations": 12, "simulate_measurement": True},
                smoke={"max_iterations": 1},
                tabulate=_tabulate_ablation, render=_render_ablation)
def _study_ablation(spec: StudySpec, context: StudyContext):
    from repro.experiments.ablation import _run_opcode_ablation_impl
    params = spec.resolved_params()
    table_name = params["table"]
    if table_name not in PAPER_TABLES:
        raise ExperimentError(
            f"unknown table {table_name!r}; expected one of {sorted(PAPER_TABLES)}")
    machine = context.machine(spec.machine or PAPER_TABLES[table_name]["machine"])
    return _run_opcode_ablation_impl(
        machine=machine,
        table_name=table_name,
        row_index=params["row_index"],
        max_iterations=params["max_iterations"],
        simulate_measurement=params["simulate_measurement"],
        context=context,
    )


@register_study("agreement",
                title="Section-6 agreement — PACE vs LogGP vs the Los Alamos model",
                machine="hypothetical-opteron-myrinet",
                defaults={"figure": "figure8",
                          "processor_counts": (16, 256, 1024, 8000)},
                smoke={"processor_counts": (16,)},
                tabulate=_tabulate_agreement)
def _study_agreement(spec: StudySpec, context: StudyContext):
    from repro.experiments.agreement import _run_model_agreement_impl
    params = spec.resolved_params()
    figure = params["figure"]
    if figure not in SPECULATIVE_STUDIES:
        raise ExperimentError(
            f"unknown speculative study {figure!r}; "
            f"known: {sorted(SPECULATIVE_STUDIES)}")
    machine_name = spec.machine or get_study(spec.study).default_machine
    return _run_model_agreement_impl(
        study=SPECULATIVE_STUDIES[figure],
        machine=context.machine(machine_name),
        processor_counts=list(params["processor_counts"]),
        context=context,
    )


@register_study("noise-sensitivity",
                title="Noise sensitivity — multi-seed uncertainty of every study",
                machine=None,
                defaults={"target": "all", "samples": 16, "max_processors": 512,
                          "target_smoke": False, "iteration_cap": None,
                          "max_scenarios": None},
                smoke={"target_smoke": True, "samples": 2, "max_processors": 16,
                       "iteration_cap": 1, "max_scenarios": 2},
                tabulate=_tabulate_noise)
def _study_noise_sensitivity(spec: StudySpec, context: StudyContext):
    from repro.experiments.uncertainty import _run_noise_sensitivity
    return _run_noise_sensitivity(spec, context)


@register_study("steady-scaling",
                title="Steady-state scaling — periodic-trace tier beyond the paper",
                machine="hypothetical-opteron-myrinet-1ns",
                defaults={"processor_counts": (1, 4, 16, 64, 256),
                          "iteration_counts": (12, 100),
                          "cells_per_processor": (200, 200, 100),
                          "mk": 10, "mmi": 3,
                          "sim_execution": "auto"},
                smoke={"processor_counts": (1, 4), "iteration_counts": (10,),
                       "cells_per_processor": (5, 5, 50)},
                tabulate=_tabulate_steady)
def _study_steady_scaling(spec: StudySpec, context: StudyContext):
    from repro.experiments.steadyscale import _run_steady_scaling_impl
    machine_name = spec.machine or get_study(spec.study).default_machine
    return _run_steady_scaling_impl(
        machine=context.machine(machine_name),
        params=spec.resolved_params(),
        context=context,
    )


# ---------------------------------------------------------------------------
# Built-in analysis hooks
# ---------------------------------------------------------------------------


@register_analysis("weak-scaling")
def _analyze_weak_scaling(result: StudyResult):
    """Weak-scaling efficiency per series of a figure (or scaling) payload."""
    from repro.experiments.scaling import analyze_figure
    payload = result.payload
    if hasattr(payload, "series"):
        return {f"x{factor:g}": {
                    "final_efficiency": analysis.final_efficiency(),
                    "base_time_s": analysis.base_time,
                }
                for factor, analysis in analyze_figure(payload).items()}
    if hasattr(payload, "points") and payload.points and \
            hasattr(payload.points[0], "efficiency"):
        return {"final_efficiency": payload.final_efficiency()}
    raise ExperimentError(
        "the 'weak-scaling' analysis hook needs a figure or scaling payload")


@register_analysis("error-stats")
def _analyze_error_stats(result: StudyResult):
    """Error statistics of a validation-table payload."""
    payload = result.payload
    if not hasattr(payload, "max_abs_error"):
        raise ExperimentError(
            "the 'error-stats' analysis hook needs a validation-table payload")
    return {
        "max_abs_error_pct": payload.max_abs_error,
        "average_abs_error_pct": payload.average_abs_error,
        "error_variance": payload.error_variance,
    }
