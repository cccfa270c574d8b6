"""Layer spans recorded from outside the program.

:func:`install` wraps the public callables that mark each layer boundary
(see METRICS.md) at runtime and returns a function that undoes the
patching; nothing under ``src/`` is modified.  A wrapped synchronous call
records its inclusive time and its *self* time (inclusive minus the wrapped
calls nested inside it on the same thread), so the per-layer self times of
one thread add up to that thread's covered wall time.  Coroutines (the
service's ``dispatch``) interleave on one thread, so they record inclusive
wall time only.  Spans are accumulated in memory and read out at the end.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path

#: Layer name -> per-layer timing metric (self time unless noted).
TIMED_LAYERS = {
    "study.context_model": "study.context_model_s",
    "study.context_compile": "study.context_compile_s",
    "study.run": "study.run_s",
    "machines.hardware_model": "machines.hardware_model_s",
    "evaluation.predict": "evaluation.predict_s",
    "engine": "engine.s",
    "plan.build": "plan.build_s",
    "capture": "capture.s",
    "capture.record": "capture.record_s",
    "capture.tile": "capture.tile_s",
    "schedule.build": "schedule.build_s",
    "noise.draw": "noise.draw_s",
    "replay.scalar": "replay.scalar_s",
    "replay.batch": "replay.batch_s",
    "steady": "steady.s",
    "sweep_cache.get": "sweep_cache.get_s",
    "sweep_cache.put": "sweep_cache.put_s",
    "trace_cache.get": "trace_cache.get_s",
    "trace_cache.put": "trace_cache.put_s",
    "artifacts.write": "artifacts.write_s",
    "fleet.store": "fleet.store_s",
    "fleet.merge": "fleet.merge_s",
}

#: Exact work counts: a rerun of the same code and seed reproduces them.
EXACT_COUNTS = (
    "study.runs", "machines.hardware_model_calls", "evaluation.predict_calls",
    "engine.runs", "plan.builds", "capture.record_events", "capture.periodic",
    "capture.full", "capture.cache", "schedule.builds", "noise.sites",
    "replay.events", "steady.accepted", "steady.refused",
    "sweep_cache.hits", "sweep_cache.misses", "sweep_cache.bytes_written",
    "trace_cache.hits", "trace_cache.misses", "trace_cache.bytes_written",
)

#: Byte volumes of JSON artifacts: they embed wall-clock fields, so their
#: size varies by a few bytes from run to run.
VOLUMES = ("artifacts.bytes", "fleet.store_bytes")


class Tracer:
    """Thread-safe accumulator of span times and counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: Objects already seen by a "first call" hook (schedule builds).
        self.seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_span(self, layer: str, self_s: float, incl_s: float) -> None:
        with self._lock:
            self.self_s[layer] += self_s
            self.incl_s[layer] += incl_s

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def snapshot(self) -> dict:
        with self._lock:
            return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                    "counts": dict(self.counts)}


def _wrap_sync(tracer: Tracer, fn, layer: str, post=None, pre=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = pre(args) if pre is not None else None
        stack = tracer.stack()
        stack.append(0.0)
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            elapsed = time.perf_counter() - start
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            tracer.add_span(layer, elapsed - nested, elapsed)
            if post is not None:
                post(tracer, args, kwargs, result, error, elapsed, state)
    return wrapper


def _wrap_async(tracer: Tracer, fn, layer: str):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            tracer.add_span(layer, 0.0, time.perf_counter() - start)
    return wrapper


# -- count hooks --------------------------------------------------------------


def _counter(name):
    def post(tracer, args, kwargs, result, error, elapsed, state):
        tracer.count(name)
    return post


def _study_runs(tracer, args, kwargs, result, error, elapsed, state):
    if error is not None:
        return
    tracer.count("study.runs", len(result) if isinstance(result, list) else 1)
    if threading.current_thread().name.startswith("fleet-worker"):
        tracer.count("fleet.unit_s", elapsed)


def _capture_before(args):
    return args[0].last_capture


def _capture_mode(tracer, args, kwargs, result, error, elapsed, before):
    info = args[0].last_capture
    if info is not None and info is not before:
        tracer.count(f"capture.{info.mode}")


def _record_events(tracer, args, kwargs, result, error, elapsed, state):
    if result is not None:
        tracer.count("capture.record_events", result.n_events)


def _schedule_build(tracer, args, kwargs, result, error, elapsed, state):
    trace = args[0]
    if result is not None and tracer.seen.get(trace) is not result:
        tracer.seen[trace] = result
        tracer.count("schedule.builds")


def _noise_sites(tracer, args, kwargs, result, error, elapsed, state):
    if result is not None:
        tracer.count("noise.sites", result.size)


def _batch_events(tracer, args, kwargs, result, error, elapsed, state):
    if result is not None:
        tracer.count("replay.events", args[0].n_events * len(result))


def _scalar_events(tracer, args, kwargs, result, error, elapsed, state):
    if result is not None:
        tracer.count("replay.events", args[0].n_events)


def _steady_outcome(tracer, args, kwargs, result, error, elapsed, state):
    tracer.count("steady.accepted" if error is None else "steady.refused")


def _cache_get(prefix):
    def post(tracer, args, kwargs, result, error, elapsed, state):
        tracer.count(f"{prefix}.hits" if result is not None
                     else f"{prefix}.misses")
    return post


def _cache_put(prefix):
    from repro.diskio import fingerprint_digest

    def post(tracer, args, kwargs, result, error, elapsed, state):
        store, key = args[0], args[1]
        entry = store.path / f"{fingerprint_digest(key)}{store.suffix}"
        try:
            tracer.count(f"{prefix}.bytes_written", entry.stat().st_size)
        except OSError:
            pass
    return post


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in Path(path).rglob("*")
               if entry.is_file())


def _artifact_bytes(tracer, args, kwargs, result, error, elapsed, state):
    if result is not None:
        tracer.count("artifacts.bytes", _dir_bytes(Path(result).parent))


def _store_put(tracer, args, kwargs, result, error, elapsed, state):
    tracer.count("fleet.store_bytes", len(args[2]))


def _store_get(tracer, args, kwargs, result, error, elapsed, state):
    if result is not None:
        tracer.count("fleet.store_bytes", len(result))


# -- installation -------------------------------------------------------------


def _targets(service: bool):
    """``(owner, attribute, layer, post, pre)`` for every wrapped callable."""
    from repro.core.evaluation.compiler import CompiledExecutor
    from repro.experiments.diskcache import SweepDiskCache
    from repro.experiments.remotestore import LocalDirStore
    from repro.experiments.study import StudyContext, StudyRunner
    from repro.machines.machine import Machine
    from repro.simmpi.engine import ClusterEngine
    from repro.simmpi.trace import CompiledTrace, TraceRecorder
    from repro.simmpi.tracecache import TraceDiskCache
    from repro.simnet.noise import NoiseModel
    from repro.sweep3d.driver import SimulationPlan

    targets = [
        (StudyContext, "model", "study.context_model", None, None),
        (StudyContext, "compiled_model", "study.context_compile", None, None),
        (StudyRunner, "run", "study.run", _study_runs, None),
        (StudyRunner, "run_many", "study.run", _study_runs, None),
        (Machine, "hardware_model", "machines.hardware_model",
         _counter("machines.hardware_model_calls"), None),
        # The compiled executor serves EvaluationEngine.predict and the
        # studies' prediction backend alike.
        (CompiledExecutor, "predict", "evaluation.predict",
         _counter("evaluation.predict_calls"), None),
        (ClusterEngine, "run", "engine", _counter("engine.runs"), None),
        (SimulationPlan, "__init__", "plan.build", _counter("plan.builds"),
         None),
        (SimulationPlan, "compile_trace", "capture", _capture_mode,
         _capture_before),
        (TraceRecorder, "record", "capture.record", _record_events, None),
        (CompiledTrace, "batch_schedule", "schedule.build", _schedule_build,
         None),
        (NoiseModel, "perturb_batch", "noise.draw", _noise_sites, None),
        (NoiseModel, "perturb_batch_multi", "noise.draw", _noise_sites, None),
        (CompiledTrace, "replay", "replay.scalar", _scalar_events, None),
        (CompiledTrace, "replay_batch", "replay.batch", _batch_events, None),
        (SweepDiskCache, "get", "sweep_cache.get", _cache_get("sweep_cache"),
         None),
        (SweepDiskCache, "put", "sweep_cache.put", _cache_put("sweep_cache"),
         None),
        (TraceDiskCache, "get", "trace_cache.get", _cache_get("trace_cache"),
         None),
        (TraceDiskCache, "put", "trace_cache.put", _cache_put("trace_cache"),
         None),
        (LocalDirStore, "put_bytes", "fleet.store", _store_put, None),
        (LocalDirStore, "get_bytes", "fleet.store", _store_get, None),
    ]
    if service:
        from repro.experiments.sweep import SweepRunner
        from repro.service.core import PredictionService
        targets += [
            (SweepRunner, "run", "service.compute", None, None),
            (PredictionService, "dispatch", "service.dispatch", None, None),
        ]
    return targets


def _function_targets():
    """Module-level functions, patched wherever a module holds a reference."""
    from repro.experiments.artifacts import write_study_artifacts
    from repro.experiments.sharding import merge_study_results
    from repro.simmpi.capture import tile_trace
    from repro.simmpi.steady import steady_replay

    return [
        (tile_trace, "capture.tile", None),
        (steady_replay, "steady", _steady_outcome),
        (write_study_artifacts, "artifacts.write", _artifact_bytes),
        (merge_study_results, "fleet.merge", None),
    ]


def install(tracer: Tracer, service: bool = False):
    """Wrap every layer boundary; returns a function restoring the originals.

    ``service`` also wraps the prediction service's dispatch and its sweep
    runner (only meaningful inside a server process: elsewhere the sweep
    runner's time belongs to the study layer).
    """
    import repro.api  # noqa: F401 — load every module that holds a reference
    import repro.cli  # noqa: F401
    import repro.experiments.fleet  # noqa: F401
    import repro.service.core  # noqa: F401

    undo = []
    for owner, attr, layer, post, pre in _targets(service):
        had_own = attr in owner.__dict__
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):
            wrapped = _wrap_async(tracer, original, layer)
        else:
            wrapped = _wrap_sync(tracer, original, layer, post, pre)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original if had_own else None))
    for original, layer, post in _function_targets():
        wrapped = _wrap_sync(tracer, original, layer, post)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore


def layer_values(snapshot: dict) -> dict[str, float]:
    """Per-layer metric values (seconds and counts) from one snapshot."""
    values = {metric: snapshot["self_s"].get(layer, 0.0)
              for layer, metric in TIMED_LAYERS.items()}
    values.update(snapshot["counts"])
    values["service.dispatch_s"] = snapshot["incl_s"].get("service.dispatch",
                                                          0.0)
    values["service.compute_s"] = snapshot["incl_s"].get("service.compute",
                                                         0.0)
    return values


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_root() -> Path:
    """The checkout root (the directory holding ``src/repro``)."""
    return Path(__file__).resolve().parent.parent


def add_source_path() -> None:
    src = str(source_root() / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
