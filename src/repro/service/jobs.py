"""Background study jobs: submit, poll, cancel, fetch artifacts.

A study submission becomes a :class:`JobRecord` driven by an asyncio
task: the task waits its turn on a lock (studies swap the shared
context's cache binding, so they run one at a time), executes
``StudyRunner.run`` on a dedicated worker thread — results bit-identical
to a direct call, it *is* a direct call — and writes the standard
artifact layout (:mod:`repro.experiments.artifacts`) under the job's
directory.

States: ``queued → running → done | failed``, plus ``cancelled``.  A
queued job cancels immediately; a running job cannot be interrupted
(its compute is a thread) — cancellation is recorded and reported as
not honoured.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ServiceError
from repro.experiments.artifacts import read_manifest, write_study_artifacts
from repro.experiments.study import (
    StudyContext,
    StudyResult,
    StudyRunner,
    StudySpec,
)

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass
class JobRecord:
    """One submitted study and its lifecycle state."""

    job_id: str
    spec: StudySpec
    state: str = "queued"
    error: str | None = None
    result: StudyResult | None = None
    artifact_dir: Path | None = None
    elapsed_s: float = 0.0
    cancel_requested: bool = False
    task: asyncio.Task | None = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES


class JobManager:
    """Owns every job of one service instance.

    Parameters
    ----------
    context:
        The service's shared :class:`StudyContext` (compiled model,
        machines, caches) every job executes against.
    artifact_root:
        Directory receiving one artifact sub-directory per finished job.
        ``None`` disables artifact writing (the result stays retrievable
        in memory).

    Jobs run one at a time: ``StudyRunner._run_one`` rebinds the shared
    context's cache for the duration of a study, which two concurrent
    studies would race.
    """

    def __init__(self, context: StudyContext,
                 artifact_root: str | Path | None = None):
        self._context = context
        self._artifact_root = (Path(artifact_root)
                               if artifact_root is not None else None)
        self._lock = asyncio.Lock()
        #: One thread: job compute must never starve the predict/simulate
        #: pool, and jobs run one at a time anyway.
        self._executor = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="repro-job")
        self._jobs: dict[str, JobRecord] = {}
        self._sequence = 0

    # ------------------------------------------------------------------

    async def submit(self, spec: StudySpec, smoke: bool = False) -> JobRecord:
        """Queue one study; returns its record immediately."""
        if smoke:
            spec = spec.smoke()
        self._sequence += 1
        job_id = f"job-{self._sequence:04d}-{spec.spec_hash()[:8]}"
        record = JobRecord(job_id=job_id, spec=spec)
        self._jobs[job_id] = record
        record.task = asyncio.get_running_loop().create_task(self._run(record))
        return record

    def get(self, job_id: str) -> JobRecord:
        record = self._jobs.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return record

    def records(self) -> list[JobRecord]:
        """Every job in submission order."""
        return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        """How many jobs sit in each state (zero states omitted)."""
        counts: dict[str, int] = {}
        for record in self._jobs.values():
            counts[record.state] = counts.get(record.state, 0) + 1
        return counts

    async def cancel(self, job_id: str) -> tuple[JobRecord, bool]:
        """Request cancellation; returns (record, honoured).

        Only a still-queued job can be stopped; the check-and-cancel is
        atomic because this coroutine does not yield before ``cancel()``.
        """
        record = self.get(job_id)
        record.cancel_requested = True
        if record.state == "queued" and record.task is not None:
            record.task.cancel()
            try:
                await record.task
            except asyncio.CancelledError:
                pass
            record.state = "cancelled"
            return record, True
        return record, record.state == "cancelled"

    def close(self) -> None:
        for record in self._jobs.values():
            if record.task is not None and not record.task.done():
                record.task.cancel()
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------

    async def _run(self, record: JobRecord) -> None:
        try:
            async with self._lock:
                if record.cancel_requested:
                    record.state = "cancelled"
                    return
                record.state = "running"
                started = time.perf_counter()
                loop = asyncio.get_running_loop()
                try:
                    result, artifact_dir = await loop.run_in_executor(
                        self._executor, self._execute, record)
                except Exception as exc:  # noqa: BLE001 — reported to pollers
                    record.state = "failed"
                    record.error = f"{type(exc).__name__}: {exc}"
                else:
                    record.result = result
                    record.artifact_dir = artifact_dir
                    record.state = "done"
                record.elapsed_s = time.perf_counter() - started
        except asyncio.CancelledError:
            if not record.done:
                record.state = "cancelled"
            raise

    def _execute(self, record: JobRecord) -> tuple[StudyResult, Path | None]:
        result = StudyRunner(context=self._context).run(record.spec)
        artifact_dir = None
        if self._artifact_root is not None:
            artifact_dir = self._artifact_root / record.job_id
            write_study_artifacts([result], artifact_dir)
        return result, artifact_dir

    # ------------------------------------------------------------------

    @staticmethod
    def artifacts(record: JobRecord) -> tuple[str, list[str], Any]:
        """(directory, file names, manifest) of a finished job's artifacts."""
        if record.state != "done":
            raise ServiceError(
                f"job {record.job_id} is {record.state}; artifacts exist "
                "only for done jobs", status=409)
        if record.artifact_dir is None:
            raise ServiceError(
                "the service was started without an artifact directory",
                status=409)
        directory = record.artifact_dir
        files = sorted(item.name for item in directory.iterdir()
                       if item.is_file())
        try:
            manifest = read_manifest(directory)
        except Exception:  # noqa: BLE001 — manifest is best-effort here
            manifest = None
        return str(directory), files, manifest
