"""The prediction service: warm shared state, tiered caching, routing.

:class:`PredictionService` owns one :class:`~repro.experiments.study.
StudyContext` — the PSL model is parsed and compiled once for the life
of the process, machine presets (with their simulation-plan and trace
caches) are instantiated once, and an optional
:class:`~repro.experiments.diskcache.SweepDiskCache` persists scenario
results across restarts.  On top of that sit

* an in-memory **result LRU** (:class:`ResultLRU`) keyed on the full
  scenario identity, making the serving tiers *memory-LRU → disk cache
  → compute*;
* the **request coalescer** (:mod:`repro.service.batching`): concurrent
  predict/simulate requests are deduplicated and micro-batched into one
  :class:`~repro.experiments.sweep.SweepRunner` call per backend group;
* the **job manager** (:mod:`repro.service.jobs`) for background study
  runs.

Every served number is bit-identical to the direct ``api.predict`` /
``api.simulate`` / ``StudyRunner.run`` call: caches are keyed on the
complete value identity (the same fingerprints the disk cache uses), and
the compute path *is* the library path — the service only amortises the
compile/plan steps, which are value-preserving by construction.

Blocking compute runs on a small thread pool; batches of the same
backend group are serialised (sweep runners keep per-run state), batches
of different groups run concurrently — the disk cache's accounting is
lock-guarded for exactly this access pattern.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Hashable, Mapping

from repro._version import __version__
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.service import protocol
from repro.service.batching import RequestCoalescer
from repro.service.http import (
    HttpError,
    HttpRequest,
    format_response,
    read_request,
)
from repro.service.jobs import JobManager, JobRecord
from repro.service.protocol import (
    ErrorResponse,
    HealthRequest,
    HealthResponse,
    JobArtifactsRequest,
    JobArtifactsResponse,
    JobCancelRequest,
    JobCancelResponse,
    JobListRequest,
    JobListResponse,
    JobResultRequest,
    JobResultResponse,
    JobStatusRequest,
    JobStatusResponse,
    PredictRequest,
    PredictResponse,
    SimulateRequest,
    SimulateResponse,
    StatsRequest,
    StatsResponse,
    StudySubmitRequest,
)
from repro.sweep3d.execution import EXECUTION_MODES


class ResultLRU:
    """A bounded least-recently-used map over scenario results.

    Keys are full scenario identities (the same information the disk
    cache fingerprints), values are the immutable result objects
    (``PredictionResult`` / ``SimMeasurement``).  Thread-safe;
    ``maxsize=0`` disables the tier entirely.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 0:
            raise ServiceError("LRU maxsize must be >= 0")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            if key not in self._entries:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {"size": len(self._entries), "maxsize": self.maxsize,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}


class PredictionService:
    """One warm service instance: state, caches, coalescer, jobs, routes.

    Parameters
    ----------
    context:
        An externally owned :class:`StudyContext`; by default the
        process-wide ``api.default_context()`` is used, so in-process
        callers and the service share one compiled model.
    cache_dir:
        Disk-backed sweep cache directory (the persistent tier); also
        becomes the context's default cache, so background study jobs
        inherit it.  ``None`` leaves the disk tier off.
    workers:
        Threads evaluating coalesced batches (distinct backend groups
        in parallel; one group is always serialised).
    lru_size:
        Entries held by the in-memory result tier (0 disables it).
    window_s:
        Coalescing window — how long the first request of a batch waits
        for mergeable company.
    artifact_dir:
        Where finished study jobs write the standard artifact layout
        (one sub-directory per job); ``None`` keeps results in memory
        only.
    """

    def __init__(self, context=None, cache_dir: str | Path | None = None,
                 workers: int = 2, lru_size: int = 256,
                 window_s: float = 0.002,
                 artifact_dir: str | Path | None = None):
        if context is None:
            from repro.api import default_context
            context = default_context()
        self.context = context
        self.cache = None
        if cache_dir is not None:
            self.cache = context.cache_for(cache_dir)
            context.cache = self.cache
        self.lru = ResultLRU(lru_size)
        self.pool = ThreadPoolExecutor(max_workers=max(1, workers),
                                       thread_name_prefix="repro-svc")
        self.coalescer = RequestCoalescer(self._execute_batch,
                                          window_s=window_s)
        self.jobs = JobManager(context=context, artifact_root=artifact_dir)
        #: One sweep runner and one asyncio lock per backend group; the
        #: lock serialises batches of a group, so each runner is only
        #: ever driven by one thread at a time.
        self._runners: dict[tuple, Any] = {}
        self._group_locks: dict[tuple, asyncio.Lock] = {}
        #: Hardware models memoised by value identity — ``Machine.
        #: hardware_model`` re-profiles per call, which predict batches
        #: would otherwise repeat for every request.
        self._hardware: dict[tuple, Any] = {}
        self._hardware_lock = threading.Lock()
        self._requests: dict[str, int] = {}
        self._started = time.monotonic()

    # -- request handlers ----------------------------------------------------

    async def predict(self, request: PredictRequest) -> PredictResponse:
        machine = self._machine(request.machine)
        self._check_geometry(request.px, request.py, request.iterations)
        self._check_deck(request.deck, request.px, request.py,
                         request.iterations)
        group = ("predict", machine.name, request.deck, request.iterations)
        key = group + (request.px, request.py)
        cached = self.lru.get(key)
        if cached is not None:
            return self._predict_response(cached, source="memory")
        result = await self.coalescer.submit(group, key, request)
        return self._predict_response(result, source="computed")

    async def simulate(self, request: SimulateRequest) -> SimulateResponse:
        machine = self._machine(request.machine)
        self._check_geometry(request.px, request.py, request.iterations)
        self._check_deck(request.deck, request.px, request.py,
                         request.iterations)
        self._check_noise(request.with_noise, request.seed, request.samples)
        execution = request.execution
        if execution not in EXECUTION_MODES:
            raise ServiceError(
                f"unknown execution mode {execution!r}; expected one of "
                f"{list(EXECUTION_MODES)}")
        if request.samples and execution == "engine":
            # Mirrors api.simulate: sampled runs are replay-resolved.
            execution = "auto"
        group = ("simulate", machine.name, request.deck, request.iterations,
                 request.with_noise, execution, request.samples)
        key = group + (request.px, request.py, request.seed)
        cached = self.lru.get(key)
        if cached is not None:
            return self._simulate_response(cached, request.seed,
                                           source="memory")
        result = await self.coalescer.submit(group, key, request)
        return self._simulate_response(result, request.seed,
                                       source="computed")

    async def submit_study(self, request: StudySubmitRequest) -> JobStatusResponse:
        spec = self._resolve_spec(request.spec)
        record = await self.jobs.submit(spec, smoke=request.smoke)
        return self._job_status(record)

    async def job_status(self, request: JobStatusRequest) -> JobStatusResponse:
        return self._job_status(self.jobs.get(request.job_id))

    async def job_list(self, request: JobListRequest) -> JobListResponse:
        return JobListResponse(jobs=tuple((record.job_id, record.state)
                                          for record in self.jobs.records()))

    async def job_result(self, request: JobResultRequest) -> JobResultResponse:
        record = self.jobs.get(request.job_id)
        result = record.result.to_dict() if record.result is not None else None
        return JobResultResponse(job_id=record.job_id, state=record.state,
                                 result=result, error=record.error)

    async def job_artifacts(self, request: JobArtifactsRequest) -> JobArtifactsResponse:
        record = self.jobs.get(request.job_id)
        path, files, manifest = self.jobs.artifacts(record)
        return JobArtifactsResponse(job_id=record.job_id, path=path,
                                    files=tuple(files), manifest=manifest)

    async def job_cancel(self, request: JobCancelRequest) -> JobCancelResponse:
        record, honoured = await self.jobs.cancel(request.job_id)
        return JobCancelResponse(job_id=record.job_id, state=record.state,
                                 cancelled=honoured)

    async def health(self, request: HealthRequest) -> HealthResponse:
        from repro.experiments.study import study_names
        from repro.machines.presets import MACHINE_PRESETS
        return HealthResponse(status="ok", version=__version__,
                              studies=tuple(study_names()),
                              machines=tuple(sorted(MACHINE_PRESETS)))

    async def stats(self, request: StatsRequest) -> StatsResponse:
        disk = (self.cache.stats_snapshot() if self.cache is not None
                else None)
        return StatsResponse(
            uptime_s=time.monotonic() - self._started,
            requests=dict(self._requests),
            coalescer=self.coalescer.stats.as_dict(),
            lru=self.lru.as_dict(),
            disk=({"hits": disk.hits, "misses": disk.misses,
                   "stores": disk.stores} if disk is not None else {}),
            jobs=self.jobs.counts(),
        )

    # -- validation / shared lookups -----------------------------------------

    def _machine(self, name: Any):
        if not isinstance(name, str) or not name:
            raise ServiceError("'machine' must be a machine preset name")
        return self.context.machine(name)

    @staticmethod
    def _check_geometry(px: Any, py: Any, iterations: Any) -> None:
        for label, value in (("px", px), ("py", py),
                             ("iterations", iterations)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ServiceError(f"'{label}' must be a positive integer")

    @staticmethod
    def _check_noise(with_noise: Any, seed: Any, samples: Any) -> None:
        if not isinstance(with_noise, bool):
            raise ServiceError("'with_noise' must be a boolean")
        for label, value in (("seed", seed), ("samples", samples)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ServiceError(f"'{label}' must be an integer")
        if samples < 0:
            raise ServiceError("'samples' must be >= 0")

    @staticmethod
    def _check_deck(deck: Any, px: int, py: int, iterations: int) -> None:
        if not isinstance(deck, str):
            raise ServiceError("'deck' must be a standard deck name")
        from repro.sweep3d.input import standard_deck
        # Builds (and discards) the deck so an unknown name or an invalid
        # geometry fails this request alone, never a shared batch.
        standard_deck(deck, px=px, py=py, max_iterations=iterations)

    def _resolve_spec(self, spec: Any):
        from repro.experiments.study import StudySpec, build_spec
        if isinstance(spec, str):
            return build_spec(spec)
        if isinstance(spec, Mapping):
            return StudySpec.from_dict(spec)
        raise ServiceError(
            "'spec' must be a registered study name or a spec object")

    def _hardware_for(self, machine, deck, px: int, py: int):
        key = (machine.name, deck.it, deck.jt, deck.kt, deck.mk, deck.mmi,
               deck.sn, deck.max_iterations, px, py)
        with self._hardware_lock:
            hardware = self._hardware.get(key)
        if hardware is None:
            hardware = machine.hardware_model(deck, px, py)
            with self._hardware_lock:
                hardware = self._hardware.setdefault(key, hardware)
        return hardware

    # -- the compute path ----------------------------------------------------

    async def _execute_batch(self, group: tuple, keys: list,
                             items: list) -> list:
        lock = self._group_locks.setdefault(group, asyncio.Lock())
        async with lock:
            loop = asyncio.get_running_loop()
            results = await loop.run_in_executor(
                self.pool, self._compute_batch, group, items)
        for key, result in zip(keys, results):
            self.lru.put(key, result)
        return results

    def _compute_batch(self, group: tuple, items: list) -> list:
        """Evaluate one batch on a worker thread (one thread per group)."""
        from repro.experiments.sweep import Scenario
        kind = group[0]
        runner = self._runner_for(group)
        if kind == "predict":
            from repro.core.workload import SweepWorkload
            from repro.sweep3d.input import standard_deck
            machine = self.context.machine(group[1])
            scenarios = []
            for request in items:
                deck = standard_deck(request.deck, px=request.px,
                                     py=request.py,
                                     max_iterations=request.iterations)
                scenarios.append(Scenario(
                    label=f"{request.px}x{request.py}",
                    variables=SweepWorkload(deck, request.px,
                                            request.py).model_variables(),
                    hardware=self._hardware_for(machine, deck,
                                                request.px, request.py)))
        else:
            scenarios = [Scenario(label=f"{request.px}x{request.py}",
                                  variables={"px": request.px,
                                             "py": request.py,
                                             "seed": request.seed})
                         for request in items]
        return [outcome.result for outcome in runner.run(scenarios)]

    def _runner_for(self, group: tuple):
        """The group's memoised sweep runner (built under the group lock)."""
        runner = self._runners.get(group)
        if runner is not None:
            return runner
        from repro.experiments.backends import (
            PredictionBackend,
            SimulationBackend,
        )
        from repro.experiments.sweep import SweepRunner
        if group[0] == "predict":
            backend = PredictionBackend(compiled=self.context.compiled_model())
        else:
            _, machine_name, deck, iterations, with_noise, execution, \
                samples = group
            backend = SimulationBackend(
                machine=self.context.machine(machine_name), deck=deck,
                max_iterations=iterations, with_noise=with_noise,
                execution=execution, samples=samples)
        runner = SweepRunner(backend=backend, cache=self.cache)
        self._runners[group] = runner
        return runner

    # -- response shaping ----------------------------------------------------

    @staticmethod
    def _predict_response(result, source: str) -> PredictResponse:
        return PredictResponse(
            total_time=result.total_time,
            compute_time=result.compute_time,
            communication_time=result.communication_time,
            hardware_name=result.hardware_name or "",
            application_name=result.application_name or "",
            source=source)

    @staticmethod
    def _simulate_response(measurement, seed: int,
                           source: str) -> SimulateResponse:
        return SimulateResponse(
            machine=measurement.machine_name,
            px=measurement.px, py=measurement.py,
            elapsed_time=measurement.elapsed_time,
            seed=seed,
            iterations=measurement.iterations,
            total_messages=measurement.total_messages,
            total_bytes=measurement.total_bytes,
            compute_fraction=measurement.compute_fraction,
            execution_tier=measurement.execution_tier,
            elapsed_samples=tuple(measurement.elapsed_samples),
            elapsed_mean=measurement.elapsed_mean,
            elapsed_std=measurement.elapsed_std,
            elapsed_ci95=measurement.elapsed_ci95,
            source=source)

    def _job_status(self, record: JobRecord) -> JobStatusResponse:
        rows = len(record.result.rows) if record.result is not None else None
        return JobStatusResponse(job_id=record.job_id, state=record.state,
                                 study=record.spec.study,
                                 spec_hash=record.spec.spec_hash(),
                                 error=record.error, rows=rows,
                                 elapsed_s=record.elapsed_s)

    # -- HTTP routing --------------------------------------------------------

    async def dispatch(self, request: HttpRequest) -> tuple[int, dict]:
        """Route one HTTP request to (status, wire response)."""
        try:
            response = await self._route(request)
        except HttpError as exc:
            return self._error(exc.status, str(exc))
        except ProtocolError as exc:
            return self._error(400, str(exc))
        except ServiceError as exc:
            return self._error(exc.status, str(exc))
        except ReproError as exc:
            # Invalid machine/deck/spec/parameters from the library layers.
            return self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 — never kill the connection
            return self._error(500, f"{type(exc).__name__}: {exc}")
        status = 202 if isinstance(response, JobStatusResponse) \
            and response.state in ("queued", "running") else 200
        return status, protocol.encode(response)

    def _error(self, status: int, message: str) -> tuple[int, dict]:
        self._requests["errors"] = self._requests.get("errors", 0) + 1
        return status, protocol.encode(ErrorResponse(error=message,
                                                     status=status))

    async def _route(self, request: HttpRequest):
        method, path = request.method, request.path.rstrip("/")
        parts = [part for part in path.split("/") if part]
        if not parts or parts[0] != "v1":
            raise HttpError(f"unknown path {request.path!r}; the API lives "
                            "under /v1", status=404)
        parts = parts[1:]
        self._count(parts[0] if parts else "")

        if method == "GET":
            if parts == ["health"]:
                return await self.health(HealthRequest())
            if parts == ["stats"]:
                return await self.stats(StatsRequest())
            if parts == ["jobs"]:
                return await self.job_list(JobListRequest())
            if len(parts) == 2 and parts[0] == "jobs":
                return await self.job_status(JobStatusRequest(job_id=parts[1]))
            if len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "result":
                return await self.job_result(JobResultRequest(job_id=parts[1]))
            if len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "artifacts":
                return await self.job_artifacts(
                    JobArtifactsRequest(job_id=parts[1]))
            raise HttpError(f"no GET route {request.path!r}", status=404)

        if method == "POST":
            if len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "cancel":
                return await self.job_cancel(JobCancelRequest(job_id=parts[1]))
            handlers = {("predict",): (PredictRequest, self.predict),
                        ("simulate",): (SimulateRequest, self.simulate),
                        ("studies",): (StudySubmitRequest, self.submit_study)}
            handler = handlers.get(tuple(parts))
            if handler is None:
                raise HttpError(f"no POST route {request.path!r}", status=404)
            expected, fn = handler
            message = protocol.decode_request(request.json())
            if not isinstance(message, expected):
                raise HttpError(
                    f"endpoint {request.path!r} expects a "
                    f"{expected.type!r} request, got {message.type!r}",
                    status=400)
            return await fn(message)

        raise HttpError(f"method {method} not supported", status=405)

    def _count(self, endpoint: str) -> None:
        if endpoint:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    # -- connection handling / lifecycle -------------------------------------

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(format_response(
                        exc.status,
                        protocol.encode(ErrorResponse(error=str(exc),
                                                      status=exc.status)),
                        close=True))
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload = await self.dispatch(request)
                close = not request.keep_alive
                writer.write(format_response(status, payload, close=close))
                await writer.drain()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown cancels live connection handlers; ending
            # normally here keeps shutdown quiet (nothing awaits this task).
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def start(self, host: str = "127.0.0.1",
                    port: int = 8642) -> asyncio.base_events.Server:
        """Bind and return the listening ``asyncio.Server``."""
        return await asyncio.start_server(self.handle_connection, host, port)

    def close(self) -> None:
        self.jobs.close()
        self.pool.shutdown(wait=False)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_server(host: str = "127.0.0.1", port: int = 8642,
               cache_dir: str | None = None, workers: int = 2,
               lru_size: int = 256, window_s: float = 0.002,
               artifact_dir: str | None = None) -> int:
    """Run the service in the foreground until interrupted (CLI `serve`)."""

    async def _serve() -> None:
        service = PredictionService(cache_dir=cache_dir, workers=workers,
                                    lru_size=lru_size, window_s=window_s,
                                    artifact_dir=artifact_dir)
        server = await service.start(host, port)
        address = server.sockets[0].getsockname()
        print(f"repro-sweep3d service listening on "
              f"http://{address[0]}:{address[1]}")
        try:
            async with server:
                await server.serve_forever()
        finally:
            service.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("service stopped")
    return 0


class BackgroundServer:
    """A real-socket service in a daemon thread (tests, bench, smoke).

    Context manager: entering starts the event loop, binds an ephemeral
    port (``port=0``) and waits for readiness; ``host``/``port`` then
    address the live server.  Exiting stops the loop and joins the
    thread.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 **service_kwargs):
        self.host = host
        self.port = port
        self.service: PredictionService | None = None
        self._kwargs = service_kwargs
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service")

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise ServiceError("service failed to start within 60 s",
                               status=503)
        if self._error is not None:
            raise ServiceError(f"service failed to start: {self._error}",
                               status=503)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced in __enter__
            self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self.service = PredictionService(**self._kwargs)
        server = await self.service.start(self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            self.service.close()
