"""Elastic shard fleet: a work-stealing coordinator with fault-tolerant leases.

The static :class:`~repro.experiments.sharding.ShardPlanner` splits a
study's grid at plan time and trusts every machine to finish its slice;
a dead shard is re-run by hand and the merge assumes one filesystem.
This module turns the same deterministic decomposition into an **elastic
fleet**: a :class:`FleetCoordinator` enumerates a spec's grid into
one-unit shard specs (:func:`~repro.experiments.sharding.plan_unit_shards`
— each unit is the finest lease the planner can justify), and
:class:`FleetWorker` processes claim, execute and publish units over a
small shared-directory work queue, with results and warm cache entries
flowing through an :class:`~repro.experiments.remotestore.ArtifactStore`
instead of a shared filesystem.

The fault-tolerance contract, enforced by generation-numbered leases:

* **claim** — a worker claims unit ``k`` at generation ``g`` by
  exclusively creating ``leases/unit-k.g<g>.json`` (``O_CREAT|O_EXCL``),
  so two workers racing for the same unit — including for a freshly
  expired lease — resolve to exactly one winner at the filesystem.
* **heartbeat** — a background thread refreshes every held lease's
  deadline; a worker that crashes or hangs simply stops refreshing.
* **expiry / reassignment** — the coordinator's controller loop bumps
  the unit's generation when a lease deadline passes and returns the
  unit to the pool; the late worker's lease file and any result it
  still publishes carry the stale generation and are discarded (results
  are deterministic, so a discarded zombie result is byte-identical to
  the accepted one — the tests prove it, the protocol never relies on it).
* **work stealing** — near the end of a run, when the open pool is dry
  but idle workers exist, the coordinator revokes leases a straggler
  holds beyond its actively-executing unit, so prefetched units never
  strand behind one slow machine.

The hard invariant is **bit-identity**: whatever the dynamic placement,
lease churn or kill schedule, the merged rows equal the static plan's
merge and the unsharded reference —
:func:`~repro.experiments.sharding.merge_study_results` consumes the
coordinator's unit results unchanged and enforces disjoint, complete
coverage. CI proves the invariant on every commit with a chaos job that
SIGKILLs a worker mid-run.

Shared-directory layout (the work queue)::

    <fleet_dir>/
        fleet.json                  # run descriptor (written last: ready)
        units/unit-0003.json        # spec + generation + state (coordinator-owned)
        leases/unit-0003.g0.json    # live lease (worker-owned, O_EXCL-created)
        results/unit-0003.g0.json   # publication marker per generation
        workers/<id>.json           # registration + heartbeat deadline
        events.jsonl                # append-only event log (post-mortems)
        done.json                   # terminal marker (workers exit on it)

A unit's result travels as **one store object**,
``runs/<parent16>/unit-0003.g0.json``: the unit's
:meth:`~repro.experiments.study.StudyResult.to_dict` document, written
with one ``put_bytes`` before the result marker.  The coordinator reads
it back with one ``get_bytes`` and rebuilds the result through the typed
checks :func:`~repro.experiments.artifacts.load_study_results` applies to
an artifact directory; ``serve(out_dir=...)`` writes the standard
artifact layout once, from the merged results.

In-process fleets (tests, benchmarks) run the same protocol with worker
threads and a :class:`~repro.experiments.remotestore.MemoryStore` via
:func:`run_local_fleet`.  There each worker calls the coordinator's
:meth:`FleetCoordinator.wake` after writing a result marker and whenever
it finds nothing to claim, so a finished unit is collected at once; the
controller's timed wait shrinks to a fallback at the heartbeat cadence
that keeps lease expiry and stealing running.  Cross-process fleets
(``fleet serve`` / ``fleet work``) share only the directory and poll.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.diskio import write_atomic
from repro.errors import FleetError, StoreError
from repro.experiments.artifacts import result_from_dict, write_study_artifacts
from repro.experiments.diskcache import SweepDiskCache
from repro.experiments.remotestore import (
    ArtifactStore,
    CacheSync,
    store_from_url,
)
from repro.experiments.sharding import merge_result_families, plan_unit_shards
from repro.experiments.study import (
    StudyContext,
    StudyResult,
    StudyRunner,
    StudySpec,
    build_spec,
)

#: Protocol version stamped into ``fleet.json``; workers refuse any other.
#: Version 2 publishes each unit result as one store object.
FLEET_VERSION = 2

_LEASE_NAME = re.compile(r"^unit-(\d+)\.g(\d+)\.json$")


# ---------------------------------------------------------------------------
# Small shared-file primitives
# ---------------------------------------------------------------------------


def _write_json_atomic(path: Path, obj: Any) -> None:
    """Write ``obj`` as JSON via temp file + ``os.replace`` (atomic)."""
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True)
                        + "\n").encode("utf-8"))


def _read_json(path: Path) -> dict | None:
    """Read a protocol file; ``None`` when absent or mid-replace.

    Raw ``os`` calls, like :func:`~repro.diskio.write_atomic`: a Python
    file object adds ``fstat``, ``isatty`` and ``lseek`` calls, and in an
    in-process fleet each syscall lets a busy thread take the GIL.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
        return json.loads(b"".join(chunks))
    except (OSError, ValueError):
        return None


class FleetEventLog:
    """Append-only JSON-lines event log shared by coordinator and workers.

    Writes are single ``O_APPEND`` syscalls well under ``PIPE_BUF``, so
    concurrent writers from several processes never interleave a line.
    """

    def __init__(self, path: str | Path, clock: Callable[[], float] = time.time):
        self.path = Path(path)
        self._clock = clock

    def append(self, event: str, **fields: Any) -> None:
        record = {"ts": round(self._clock(), 3), "event": event, **fields}
        line = json.dumps(record, sort_keys=True) + "\n"
        flags = os.O_CREAT | os.O_WRONLY | os.O_APPEND
        try:
            try:
                fd = os.open(self.path, flags, 0o644)
            except FileNotFoundError:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path, flags, 0o644)
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            pass  # the log is diagnostic; losing a line never fails a run

    def events(self) -> list[dict]:
        """Every decodable event in append order."""
        try:
            text = self.path.read_text()
        except OSError:
            return []
        events = []
        for line in text.splitlines():
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
        return events


# ---------------------------------------------------------------------------
# Directory paths (one place, both sides of the protocol)
# ---------------------------------------------------------------------------


class _FleetPaths:
    def __init__(self, fleet_dir: str | Path):
        self.root = Path(fleet_dir)
        self.descriptor = self.root / "fleet.json"
        self.done = self.root / "done.json"
        self.units = self.root / "units"
        self.leases = self.root / "leases"
        self.results = self.root / "results"
        self.workers = self.root / "workers"
        self.events = self.root / "events.jsonl"

    def unit(self, index: int) -> Path:
        return self.units / f"unit-{index:04d}.json"

    def lease(self, index: int, generation: int) -> Path:
        return self.leases / f"unit-{index:04d}.g{generation}.json"

    def result(self, index: int, generation: int) -> Path:
        return self.results / f"unit-{index:04d}.g{generation}.json"

    def worker(self, worker_id: str) -> Path:
        return self.workers / f"{worker_id}.json"


def _unit_key(parent_hash: str, index: int, generation: int) -> str:
    return f"runs/{parent_hash[:16]}/unit-{index:04d}.g{generation}.json"


def _check_version(descriptor: dict, root: Path) -> None:
    version = descriptor.get("version")
    if version != FLEET_VERSION:
        raise FleetError(
            f"the fleet at {root} speaks protocol version {version!r}; this "
            f"code speaks version {FLEET_VERSION}")


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


@dataclass
class FleetOutcome:
    """What one coordinated run produced."""

    status: str  # "done" | "failed"
    reason: str = ""
    results: list[StudyResult] = field(default_factory=list)
    out_dir: Path | None = None
    unit_count: int = 0
    reassignments: int = 0
    steals: int = 0
    zombies: int = 0

    def describe(self) -> str:
        extra = ""
        if self.reassignments or self.steals or self.zombies:
            extra = (f" ({self.reassignments} reassignment(s), "
                     f"{self.steals} steal(s), "
                     f"{self.zombies} zombie result(s) discarded)")
        return (f"fleet {self.status}: {len(self.results)} merged stud(y/ies) "
                f"from {self.unit_count} unit(s){extra}")


class FleetCoordinator:
    """Decomposes study specs into leased units and supervises the run.

    Parameters
    ----------
    fleet_dir:
        The shared work-queue directory (created; must not already hold
        a fleet).  Workers on other machines reach it via any shared
        medium — it is tiny control state, the heavy artifacts flow
        through ``store``.
    store:
        The :class:`~repro.experiments.remotestore.ArtifactStore` unit
        results (and warm cache entries) travel through.  Defaults to a
        ``LocalDirStore`` under ``<fleet_dir>/store``.
    lease_ttl_s:
        How long a lease survives without a heartbeat before the unit is
        reassigned.
    poll_s:
        Controller-loop cadence: the longest :meth:`serve` waits between
        passes when no :meth:`wake` cuts the wait short.
    clock:
        Injectable wall-clock (tests).
    """

    def __init__(self, fleet_dir: str | Path,
                 store: ArtifactStore | None = None,
                 lease_ttl_s: float = 30.0,
                 poll_s: float = 0.2,
                 clock: Callable[[], float] = time.time):
        if lease_ttl_s <= 0:
            raise FleetError("lease_ttl_s must be > 0")
        self.paths = _FleetPaths(fleet_dir)
        if store is None:
            from repro.experiments.remotestore import LocalDirStore
            store = LocalDirStore(self.paths.root / "store")
        self.store = store
        self.lease_ttl_s = float(lease_ttl_s)
        self.poll_s = float(poll_s)
        self._clock = clock
        self.log = FleetEventLog(self.paths.events, clock=clock)
        #: index -> mutable unit record (the files mirror this table).
        self._units: dict[int, dict] = {}
        self._reassignments = 0
        self._steals = 0
        self._zombies = 0
        self._wake = threading.Event()
        #: A failure reported through :meth:`wake`; fails the run.
        self._error: str | None = None

    def wake(self, error: str | None = None) -> None:
        """End the controller's current wait, so it runs a pass at once.

        In-process workers call it after writing a result marker and when
        they find nothing to claim.  ``error`` reports a failed worker
        thread: the run then fails at the next pass with that reason.
        """
        if error is not None and self._error is None:
            self._error = error
        self._wake.set()

    # -- enqueue -------------------------------------------------------------

    def enqueue(self, specs: Sequence[StudySpec | str],
                smoke: bool = False) -> int:
        """Decompose ``specs`` into one-unit leases and open the queue.

        The descriptor (``fleet.json``) is written **after** every unit
        file, so a worker that sees the descriptor sees the whole queue.
        Returns the number of units enqueued.
        """
        if self.paths.descriptor.exists():
            raise FleetError(
                f"fleet directory {self.paths.root} already holds a fleet; "
                "start each run in a fresh directory")
        resolved: list[StudySpec] = []
        for spec in specs:
            spec = build_spec(spec) if isinstance(spec, str) else spec
            resolved.append(spec.smoke() if smoke else spec)
        if not resolved:
            raise FleetError("nothing to enqueue: no study specs given")
        hashes = [spec.spec_hash() for spec in resolved]
        if len(set(hashes)) != len(hashes):
            raise FleetError("cannot enqueue the same spec twice in one fleet")

        for directory in (self.paths.units, self.paths.leases,
                          self.paths.results, self.paths.workers):
            directory.mkdir(parents=True, exist_ok=True)
        index = 0
        studies = []
        for spec in resolved:
            plan = plan_unit_shards(spec)
            unit_indices = []
            for assignment in plan.shards:
                record = {
                    "index": index,
                    "study": spec.study,
                    "parent": plan.parent_hash,
                    "spec": assignment.spec.to_dict(),
                    "unit": _json_unit(assignment.units[0]),
                    "cost": assignment.estimated_cost,
                    "generation": 0,
                    "state": "pending",
                }
                _write_json_atomic(self.paths.unit(index), record)
                self._units[index] = record
                unit_indices.append(index)
                index += 1
            studies.append({"study": spec.study, "parent": plan.parent_hash,
                            "units": unit_indices})
            self.log.append("enqueued", study=spec.study,
                            parent=plan.parent_hash[:12],
                            units=len(unit_indices))
        descriptor = {
            "version": FLEET_VERSION,
            "lease_ttl_s": self.lease_ttl_s,
            "unit_count": index,
            "studies": studies,
            "store_url": _store_url(self.store),
            "created": self._clock(),
        }
        _write_json_atomic(self.paths.descriptor, descriptor)
        self.log.append("fleet-ready", units=index, studies=len(studies))
        return index

    # -- controller loop -----------------------------------------------------

    def serve(self, timeout_s: float | None = None,
              out_dir: str | Path | None = None) -> FleetOutcome:
        """Supervise the run to completion (or timeout) and merge.

        Loops :meth:`poll_once` until every unit is done, waiting up to
        ``poll_s`` between passes (less when :meth:`wake` is called, and
        never past ``timeout_s``).  Then reads each unit's result object
        from the store, merges each study family bit-identically
        (:func:`~repro.experiments.sharding.merge_result_families`) and —
        when ``out_dir`` is given — writes the standard artifact layout
        there.  Writes the ``done.json`` terminal marker either way, so
        background workers exit.
        """
        if not self._units:
            self._load_state()
        started = self._clock()
        while True:
            self._wake.clear()
            self.poll_once()
            if self._error is not None:
                return self._fail(self._error)
            if all(unit["state"] == "done" for unit in self._units.values()):
                break
            elapsed = self._clock() - started
            if timeout_s is not None and elapsed > timeout_s:
                return self._fail(f"timed out after {timeout_s:g} s with "
                                  f"{self._open_count()} unit(s) unfinished")
            self._wake.wait(self.poll_s if timeout_s is None
                            else min(self.poll_s, timeout_s - elapsed))
        try:
            results = self._merge()
        except Exception as exc:
            self._fail(f"merge failed: {exc}")
            raise
        outcome = self._outcome("done", results=results)
        if out_dir is not None:
            outcome.out_dir = Path(out_dir)
            write_study_artifacts(results, outcome.out_dir)
        self._finish(outcome)
        return outcome

    def poll_once(self) -> None:
        """One controller pass: expire, steal, collect."""
        now = self._clock()
        leases = self._live_leases(now)
        self._collect_results(leases)
        leases = {key: value for key, value in leases.items()
                  if self._units[key[0]]["state"] != "done"}
        self._steal_from_stragglers(leases, now)

    # -- controller internals --------------------------------------------

    def _live_leases(self, now: float) -> dict[tuple[int, int], dict]:
        """Scan lease files; expire the stale, drop the zombie.

        Returns the surviving ``(unit, generation) -> lease`` map, every
        one at its unit's current generation with an unexpired deadline.
        """
        live: dict[tuple[int, int], dict] = {}
        try:
            names = os.listdir(self.paths.leases)
        except OSError:
            return live
        for name in sorted(names):
            match = _LEASE_NAME.match(name)
            if not match:
                continue
            index, generation = int(match.group(1)), int(match.group(2))
            path = self.paths.leases / name
            unit = self._units.get(index)
            if unit is None:
                continue
            if unit["state"] == "done" or generation != unit["generation"]:
                # A finished unit's leftover, or a zombie heartbeat's
                # recreation of a lease the fleet already moved past.
                _unlink_quiet(path)
                continue
            lease = _read_json(path)
            if lease is None:
                continue  # mid-write; next poll sees it
            if lease.get("deadline", 0) < now:
                self.log.append("lease-expired", unit=index,
                                generation=generation,
                                worker=lease.get("worker"))
                self._bump_generation(unit)
                _unlink_quiet(path)
                continue
            live[(index, generation)] = lease
        return live

    def _bump_generation(self, unit: dict) -> None:
        unit["generation"] += 1
        _write_json_atomic(self.paths.unit(unit["index"]), unit)
        self._reassignments += 1
        self.log.append("reassigned", unit=unit["index"],
                        generation=unit["generation"])

    def _collect_results(self, leases: dict[tuple[int, int], dict]) -> None:
        try:
            names = os.listdir(self.paths.results)
        except OSError:
            return
        for name in sorted(names):
            match = _LEASE_NAME.match(name)
            if not match:
                continue
            index, generation = int(match.group(1)), int(match.group(2))
            path = self.paths.results / name
            unit = self._units.get(index)
            if unit is None:
                continue
            marker = _read_json(path)
            if marker is None:
                continue
            if unit["state"] == "done" or generation != unit["generation"]:
                # Deterministic execution makes the discarded bytes
                # identical to the accepted ones; discarding is still the
                # rule — exactly one generation owns each unit's result.
                self._zombies += 1
                self.log.append("zombie-result-discarded", unit=index,
                                generation=generation,
                                worker=marker.get("worker"))
                _unlink_quiet(path)
                continue
            unit["state"] = "done"
            unit["result"] = {"worker": marker.get("worker"),
                              "generation": generation,
                              "key": marker.get("key"),
                              "elapsed_s": marker.get("elapsed_s")}
            _write_json_atomic(self.paths.unit(index), unit)
            _unlink_quiet(path)
            _unlink_quiet(self.paths.lease(index, generation))
            leases.pop((index, generation), None)
            self.log.append("result-accepted", unit=index,
                            generation=generation,
                            worker=marker.get("worker"))

    def _steal_from_stragglers(self, leases: dict[tuple[int, int], dict],
                               now: float) -> None:
        """Revoke prefetched (not actively executing) units once the open
        pool is dry and registered workers sit idle."""
        open_units = [unit for unit in self._units.values()
                      if unit["state"] == "pending"
                      and (unit["index"], unit["generation"]) not in leases]
        if open_units or not leases:
            return
        registrations = self._registrations(now)
        busy = {lease.get("worker") for lease in leases.values()}
        idle = [worker for worker in registrations if worker not in busy]
        if not idle:
            return
        grace = self.lease_ttl_s / 4.0
        stealable: list[tuple[int, tuple[int, int], dict]] = []
        held: dict[str, int] = {}
        for key, lease in leases.items():
            held[lease.get("worker", "")] = held.get(lease.get("worker", ""), 0) + 1
        for key, lease in leases.items():
            worker = lease.get("worker", "")
            active = registrations.get(worker, {}).get("active_unit")
            if key[0] == active:
                continue  # never steal the unit a worker is executing
            if now - lease.get("acquired", now) < grace:
                continue  # too fresh: the worker may be about to start it
            if self.paths.result(*key).exists():
                continue  # already published; collection accepts it next pass
            stealable.append((held[worker], key, lease))
        stealable.sort(key=lambda item: (-item[0], item[1]))
        for _, (index, generation), lease in stealable[:len(idle)]:
            self._steals += 1
            self.log.append("steal", unit=index, generation=generation,
                            worker=lease.get("worker"))
            self._bump_generation(self._units[index])
            _unlink_quiet(self.paths.lease(index, generation))
            leases.pop((index, generation), None)

    def _registrations(self, now: float) -> dict[str, dict]:
        alive: dict[str, dict] = {}
        try:
            names = os.listdir(self.paths.workers)
        except OSError:
            return alive
        for name in names:
            if not name.endswith(".json"):
                continue
            record = _read_json(self.paths.workers / name)
            if record and record.get("deadline", 0) >= now:
                alive[record.get("worker", name[:-5])] = record
        return alive

    # -- completion ----------------------------------------------------------

    def _merge(self) -> list[StudyResult]:
        """Read every unit's result object and merge each family
        bit-identically."""
        merged = merge_result_families(
            self._unit_result(index) for index in sorted(self._units))
        for result in merged:
            self.log.append("merged", study=result.spec.study,
                            rows=len(result.rows))
        return merged

    def _unit_result(self, index: int) -> StudyResult:
        """One unit's result, rebuilt from its store object."""
        key = (self._units[index].get("result") or {}).get("key")
        if not isinstance(key, str) or not key:
            raise FleetError(
                f"unit {index} is marked done but names no result object; "
                "the queue state was tampered with")
        where = f"fleet unit {index} object {key!r}"
        try:
            data = json.loads(self.store.get_bytes(key))
        except StoreError as exc:
            raise FleetError(f"{where} cannot be read: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise FleetError(f"{where} is not valid JSON: {exc}") from exc
        result = result_from_dict(data, where)
        if not result.rows:
            raise FleetError(f"{where} field 'rows' is empty; every unit "
                             "produces the rows of its grid unit")
        return result

    def _outcome(self, status: str, reason: str = "",
                 results: list[StudyResult] | None = None) -> FleetOutcome:
        return FleetOutcome(status=status, reason=reason,
                            results=results or [],
                            unit_count=len(self._units),
                            reassignments=self._reassignments,
                            steals=self._steals, zombies=self._zombies)

    def _fail(self, reason: str) -> FleetOutcome:
        outcome = self._outcome("failed", reason)
        self._finish(outcome)
        return outcome

    def _finish(self, outcome: FleetOutcome) -> None:
        _write_json_atomic(self.paths.done, {
            "status": outcome.status,
            "reason": outcome.reason,
            "units": outcome.unit_count,
            "reassignments": outcome.reassignments,
            "steals": outcome.steals,
            "zombies": outcome.zombies,
        })
        self.log.append(outcome.status, reason=outcome.reason)

    # -- state helpers ---------------------------------------------------

    def _open_count(self) -> int:
        return sum(1 for unit in self._units.values()
                   if unit["state"] != "done")

    def _load_state(self) -> None:
        descriptor = _read_json(self.paths.descriptor)
        if descriptor is None:
            raise FleetError(
                f"no fleet at {self.paths.root}; enqueue() first")
        _check_version(descriptor, self.paths.root)
        for index in range(descriptor.get("unit_count", 0)):
            record = _read_json(self.paths.unit(index))
            if record is None:
                raise FleetError(f"fleet unit file {index} is missing")
            self._units[index] = record


def _json_unit(value: Any) -> Any:
    """A unit axis value as JSON-safe data (tuples -> lists)."""
    if isinstance(value, tuple):
        return [_json_unit(item) for item in value]
    return value


def _store_url(store: ArtifactStore) -> str | None:
    from repro.experiments.remotestore import LocalDirStore
    if isinstance(store, LocalDirStore):
        return f"file://{store.root}"
    return None  # in-memory stores are reachable in-process only


def _unlink_quiet(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# The worker
# ---------------------------------------------------------------------------


class _SimulatedDeath(Exception):
    """Raised by a chaos hook: the worker vanishes without cleanup."""


#: Sentinel distinguishing "no cache rebinding" from "previous cache None".
_UNSET = object()


@dataclass(frozen=True)
class _ClaimedUnit:
    index: int
    generation: int
    record: dict

    @property
    def spec(self) -> StudySpec:
        return StudySpec.from_dict(self.record["spec"])


class _Heartbeat(threading.Thread):
    """Refreshes held leases and the worker registration periodically."""

    def __init__(self, worker: "FleetWorker", interval_s: float):
        super().__init__(name=f"fleet-heartbeat-{worker.worker_id}",
                         daemon=True)
        self._worker = worker
        self._interval = interval_s
        self._stop = threading.Event()
        self._dead = False

    def run(self) -> None:
        while not self._stop.wait(self._interval):
            if self._dead:
                continue
            self._worker._refresh_leases()
            self._worker._register()

    def halt(self, *, dead: bool = False) -> None:
        """Stop refreshing; ``dead`` simulates a crash (no final beat)."""
        self._dead = self._dead or dead
        self._stop.set()


class FleetWorker:
    """Claims, executes and publishes fleet units until the run ends.

    Parameters
    ----------
    fleet_dir:
        The coordinator's shared queue directory.
    store:
        Artifact store override; defaults to the queue descriptor's
        ``store_url`` (required for cross-process fleets).
    worker_id:
        Stable identity in leases/registrations (default: host + pid).
    cache_dir:
        Local :class:`SweepDiskCache` directory.  With a store attached
        the worker pulls warm entries before its first unit and, after
        each, pushes the entries it has not pulled or pushed yet, so
        machines warm-start from each other.
    poll_s:
        How long an idle worker waits before scanning the queue again
        (also the cadence while it waits for the descriptor).
    prefetch:
        Units claimed per scan (>1 amortises claim latency; the
        coordinator steals unstarted prefetched units back from
        stragglers).
    throttle_s:
        Pause before executing each unit while heartbeats continue —
        a chaos/benchmark aid to simulate a slow machine.
    failure_hook:
        Optional chaos hook called before each unit's execution; return
        ``True`` to simulate sudden worker death (heartbeats stop, held
        leases are abandoned un-released).
    context:
        A shared :class:`StudyContext`; by default the worker builds its
        own when the loop starts.
    clock:
        Injectable wall-clock for lease deadlines (tests).
    wake:
        Called after each result marker is written and whenever the
        worker finds nothing to claim — an in-process coordinator's
        :meth:`FleetCoordinator.wake` (:func:`run_local_fleet` wires it).
    """

    def __init__(self, fleet_dir: str | Path,
                 store: ArtifactStore | None = None,
                 worker_id: str | None = None,
                 cache_dir: str | None = None,
                 poll_s: float = 0.2,
                 prefetch: int = 1,
                 throttle_s: float = 0.0,
                 failure_hook: Callable[[int], bool] | None = None,
                 context: StudyContext | None = None,
                 clock: Callable[[], float] = time.time,
                 wake: Callable[[], None] | None = None):
        if prefetch < 1:
            raise FleetError("prefetch must be >= 1")
        self.paths = _FleetPaths(fleet_dir)
        self.worker_id = worker_id or f"{os.uname().nodename}-{os.getpid()}"
        self.cache_dir = cache_dir
        self.poll_s = float(poll_s)
        self.prefetch = int(prefetch)
        self.throttle_s = float(throttle_s)
        self._failure_hook = failure_hook
        self._clock = clock
        self.wake = wake
        self._store = store
        self._context = context
        self.log = FleetEventLog(self.paths.events, clock=clock)
        self.lease_ttl_s = 30.0
        #: (index, generation) -> lease path, guarded for the heartbeat.
        self._held: dict[tuple[int, int], Path] = {}
        #: Published-but-uncollected leases: the coordinator, not the
        #: worker, removes these on acceptance (closes the window where a
        #: released lease lets a peer re-claim the same generation).
        self._published: set[tuple[int, int]] = set()
        self._held_lock = threading.Lock()
        self._active_unit: int | None = None
        self._heartbeat: _Heartbeat | None = None
        self._stop = threading.Event()
        #: Units known finished (never re-read) and cached unit specs.
        self._done_units: set[int] = set()
        self._unit_cache: dict[int, dict] = {}
        self._cache_sync: CacheSync | None = None
        self.completed = 0
        self.died = False

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Ask the run loop to exit after the current unit."""
        self._stop.set()

    def run(self, max_units: int | None = None,
            wait_timeout_s: float = 120.0) -> int:
        """Work the queue until the fleet finishes; returns units completed.

        Waits up to ``wait_timeout_s`` for the queue descriptor to
        appear (workers may start before ``fleet serve``), then claims
        and executes units until the coordinator writes the terminal
        marker, ``max_units`` is reached, or :meth:`stop` is called.
        """
        descriptor = self._await_descriptor(wait_timeout_s)
        if descriptor is None:
            return 0
        _check_version(descriptor, self.paths.root)
        self.lease_ttl_s = float(descriptor.get("lease_ttl_s", 30.0))
        if self._store is None:
            url = descriptor.get("store_url")
            if not url:
                raise FleetError(
                    "the fleet descriptor names no store URL; pass a store "
                    "to this worker explicitly")
            self._store = store_from_url(url)
        unit_count = int(descriptor.get("unit_count", 0))
        if self._context is None:
            self._context = StudyContext()
        restore_cache = _UNSET
        if self.cache_dir is not None:
            restore_cache = self._context.cache
            self._context.cache = self._context.cache_for(self.cache_dir)
        self._register()
        self.log.append("worker-registered", worker=self.worker_id)
        if self.cache_dir is not None:
            self._cache_sync = CacheSync(SweepDiskCache(self.cache_dir),
                                         self._store)
            pulled = self._cache_sync.pull()
            if pulled:
                self.log.append("cache-pulled", worker=self.worker_id,
                                entries=pulled)
        self._heartbeat = _Heartbeat(self, max(self.lease_ttl_s / 4.0, 0.05))
        self._heartbeat.start()
        try:
            self._work_loop(unit_count, max_units)
        except _SimulatedDeath:
            self.died = True
            self._heartbeat.halt(dead=True)
            return self.completed
        finally:
            self._heartbeat.halt()
            if not self.died:
                self._release_all()
                _unlink_quiet(self.paths.worker(self.worker_id))
                self.log.append("worker-exit", worker=self.worker_id,
                                completed=self.completed)
            if restore_cache is not _UNSET:
                self._context.cache = restore_cache
        return self.completed

    # -- the loop ------------------------------------------------------------

    def _work_loop(self, unit_count: int, max_units: int | None) -> None:
        while not self._stop.is_set():
            if self.paths.done.exists():
                return
            if max_units is not None and self.completed >= max_units:
                return
            batch = self._claim_units(unit_count)
            if not batch:
                self._register()
                if self.wake is not None:
                    self.wake()
                self._stop.wait(self.poll_s)
                continue
            for claimed in batch:
                if self._stop.is_set():
                    return
                if max_units is not None and self.completed >= max_units:
                    return
                # The first unit's claim checked it a moment ago.
                if claimed is not batch[0] and not self._still_current(claimed):
                    self._release(claimed)
                    continue
                self._execute(claimed)

    def _await_descriptor(self, wait_timeout_s: float) -> dict | None:
        deadline = self._clock() + wait_timeout_s
        while True:
            descriptor = _read_json(self.paths.descriptor)
            if descriptor is not None:
                return descriptor
            if self.paths.done.exists() or self._stop.is_set():
                return None
            if self._clock() > deadline:
                raise FleetError(
                    f"no fleet appeared at {self.paths.root} within "
                    f"{wait_timeout_s:g} s")
            self._stop.wait(min(self.poll_s, 0.2))

    # -- claiming ------------------------------------------------------------

    def _claim_units(self, unit_count: int) -> list[_ClaimedUnit]:
        claimed: list[_ClaimedUnit] = []
        for index in range(unit_count):
            if len(claimed) >= self.prefetch:
                break
            if index in self._done_units:
                continue
            record = self._unit_cache.get(index)
            if record is None or record["state"] == "pending":
                record = _read_json(self.paths.unit(index))
                if record is None:
                    continue
                self._unit_cache[index] = record
            if record["state"] == "done":
                self._done_units.add(index)
                continue
            generation = record["generation"]
            unit = self._try_claim(index, generation, record)
            if unit is not None:
                claimed.append(unit)
        return claimed

    def _try_claim(self, index: int, generation: int,
                   record: dict) -> _ClaimedUnit | None:
        """Atomically claim one unit; exactly one racer ever wins."""
        path = self.paths.lease(index, generation)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return None
        except OSError:
            return None
        now = self._clock()
        lease = {"unit": index, "generation": generation,
                 "worker": self.worker_id, "acquired": now,
                 "deadline": now + self.lease_ttl_s}
        with os.fdopen(fd, "w") as handle:
            json.dump(lease, handle)
        with self._held_lock:
            self._held[(index, generation)] = path
        # Freshness check: the generation may have been bumped between
        # the scan and the claim; a stale claim is released immediately.
        fresh = _read_json(self.paths.unit(index))
        if fresh is None or fresh["generation"] != generation \
                or fresh["state"] == "done":
            self._unit_cache.pop(index, None)
            claimed = _ClaimedUnit(index, generation, record)
            self._release(claimed)
            return None
        self._unit_cache[index] = fresh
        self.log.append("claimed", unit=index, generation=generation,
                        worker=self.worker_id)
        return _ClaimedUnit(index, generation, fresh)

    def _still_current(self, claimed: _ClaimedUnit) -> bool:
        record = _read_json(self.paths.unit(claimed.index))
        if record is None:
            return False
        self._unit_cache[claimed.index] = record
        return (record["state"] == "pending"
                and record["generation"] == claimed.generation
                and self.paths.lease(claimed.index, claimed.generation).exists())

    # -- execution -----------------------------------------------------------

    def _execute(self, claimed: _ClaimedUnit) -> None:
        self._active_unit = claimed.index
        self._register()
        try:
            if self.throttle_s:
                # Heartbeats keep the lease alive: a slow machine is not
                # a dead one.  (Chaos jobs use this to widen kill windows.)
                self._stop.wait(self.throttle_s)
            if self._failure_hook is not None \
                    and self._failure_hook(claimed.index):
                raise _SimulatedDeath(claimed.index)
            started = time.perf_counter()
            # The cache binds at context level, never as a spec override:
            # each worker's cache is local, so its path does not belong in
            # the published result's spec (only the rows, which caches
            # cannot alter, travel).
            runner = StudyRunner(context=self._context)
            result = runner.run(claimed.spec)
            elapsed = time.perf_counter() - started
            self._publish(claimed, result, elapsed)
        finally:
            if not self.died:
                self._active_unit = None

    def _publish(self, claimed: _ClaimedUnit, result: StudyResult,
                 elapsed: float) -> None:
        key = _unit_key(claimed.record["parent"], claimed.index,
                        claimed.generation)
        self._store.put_bytes(key, json.dumps(
            result.to_dict(), sort_keys=True, allow_nan=False,
            separators=(",", ":")).encode("utf-8"))
        _write_json_atomic(self.paths.result(claimed.index, claimed.generation),
                           {"unit": claimed.index,
                            "generation": claimed.generation,
                            "worker": self.worker_id,
                            "key": key,
                            "elapsed_s": elapsed})
        if self.wake is not None:
            self.wake()
        # The lease outlives publication: the coordinator deletes it on
        # acceptance.  Releasing here would let a peer re-claim this very
        # generation in the collect gap and re-execute the unit for nothing.
        with self._held_lock:
            self._published.add((claimed.index, claimed.generation))
        self._done_units.add(claimed.index)
        self.completed += 1
        self.log.append("completed", unit=claimed.index,
                        generation=claimed.generation,
                        worker=self.worker_id,
                        elapsed_s=round(elapsed, 4))
        if self._cache_sync is not None:
            pushed = self._cache_sync.push()
            if pushed:
                self.log.append("cache-pushed", worker=self.worker_id,
                                entries=pushed)

    # -- lease bookkeeping -----------------------------------------------

    def _release(self, claimed: _ClaimedUnit) -> None:
        with self._held_lock:
            path = self._held.pop((claimed.index, claimed.generation), None)
        if path is not None:
            _unlink_quiet(path)

    def _release_all(self) -> None:
        with self._held_lock:
            held = [path for key, path in self._held.items()
                    if key not in self._published]
            self._held.clear()
            self._published.clear()
        for path in held:
            _unlink_quiet(path)

    def _refresh_leases(self) -> None:
        """Extend every held lease's deadline (heartbeat thread).

        A lease file the coordinator removed is **not** recreated with a
        live deadline blindly: the rewrite is harmless even when it races
        a reassignment, because the coordinator discards any lease whose
        generation trails the unit's — the generation, not the file, is
        the authority.
        """
        now = self._clock()
        with self._held_lock:
            held = dict(self._held)
        for (index, generation), path in held.items():
            if not path.exists():
                # Expired-and-reassigned, or published-and-accepted: the
                # coordinator removed it, so stop tracking it either way.
                with self._held_lock:
                    self._held.pop((index, generation), None)
                    self._published.discard((index, generation))
                continue
            _write_json_atomic(path, {"unit": index, "generation": generation,
                                      "worker": self.worker_id,
                                      "acquired": now - self.lease_ttl_s / 4.0,
                                      "deadline": now + self.lease_ttl_s})

    def _register(self) -> None:
        _write_json_atomic(self.paths.worker(self.worker_id), {
            "worker": self.worker_id,
            "deadline": self._clock() + self.lease_ttl_s,
            "active_unit": self._active_unit,
        })



# ---------------------------------------------------------------------------
# Status (CLI `fleet status`, no coordinator instance required)
# ---------------------------------------------------------------------------


def fleet_status(fleet_dir: str | Path) -> dict:
    """A snapshot of a fleet directory's queue state (for humans/CLI)."""
    paths = _FleetPaths(fleet_dir)
    descriptor = _read_json(paths.descriptor)
    if descriptor is None:
        raise FleetError(f"no fleet at {paths.root}")
    now = time.time()
    units = {"pending": 0, "done": 0}
    leased = 0
    for index in range(descriptor.get("unit_count", 0)):
        record = _read_json(paths.unit(index)) or {}
        state = record.get("state", "pending")
        units[state] = units.get(state, 0) + 1
        if state == "pending" \
                and paths.lease(index, record.get("generation", 0)).exists():
            leased += 1
    workers = []
    try:
        names = sorted(os.listdir(paths.workers))
    except OSError:
        names = []
    for name in names:
        record = _read_json(paths.workers / name)
        if record is None:
            continue
        workers.append({"worker": record.get("worker"),
                        "alive": record.get("deadline", 0) >= now,
                        "active_unit": record.get("active_unit")})
    done = _read_json(paths.done)
    return {
        "fleet_dir": str(paths.root),
        "unit_count": descriptor.get("unit_count", 0),
        "done": units.get("done", 0),
        "leased": leased,
        "open": units.get("pending", 0) - leased,
        "workers": workers,
        "status": (done or {}).get("status", "running"),
        "reason": (done or {}).get("reason", ""),
        "events": len(FleetEventLog(paths.events).events()),
    }


# ---------------------------------------------------------------------------
# In-process fleets (tests, benchmarks): worker threads wake the coordinator
# ---------------------------------------------------------------------------


def run_local_fleet(specs: Iterable[StudySpec | str],
                    n_workers: int = 2,
                    smoke: bool = False,
                    fleet_dir: str | Path | None = None,
                    store: ArtifactStore | None = None,
                    lease_ttl_s: float = 30.0,
                    poll_s: float = 0.02,
                    timeout_s: float = 600.0,
                    out_dir: str | Path | None = None,
                    cache_dir: str | None = None,
                    context: StudyContext | None = None,
                    worker_factory: Callable[
                        [int, Path, ArtifactStore], FleetWorker]
                    | None = None) -> FleetOutcome:
    """Run a whole fleet in one process: coordinator + worker threads.

    The protocol is byte-identical to the cross-process CLI fleet — the
    same queue files, leases and store flow — only the workers are
    threads and the default store is in-memory.  Every worker, factory
    built or not, is wired to :meth:`FleetCoordinator.wake`, so the
    coordinator collects each result as soon as it is published; its
    timed wait falls back to the heartbeat cadence (``lease_ttl_s / 4``),
    which keeps lease expiry and stealing running.  ``poll_s`` is the
    workers' idle cadence.  ``context`` is shared with the (single)
    worker when ``n_workers == 1``; with more workers each owns a private
    context, because a :class:`StudyContext` is not safe under concurrent
    studies.  ``worker_factory`` lets tests inject chaos-instrumented
    workers.  Raises :class:`FleetError` unless the run completes — at
    once, naming the worker, when a worker thread raises.
    """
    if n_workers < 1:
        raise FleetError("a local fleet needs at least one worker")
    from repro.experiments.remotestore import MemoryStore
    store = store if store is not None else MemoryStore()
    scratch = None
    if fleet_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="fleet-")
        fleet_dir = scratch.name
    try:
        coordinator = FleetCoordinator(fleet_dir, store=store,
                                       lease_ttl_s=lease_ttl_s,
                                       poll_s=lease_ttl_s / 4.0)
        coordinator.enqueue(list(specs), smoke=smoke)
        workers: list[FleetWorker] = []
        for number in range(n_workers):
            if worker_factory is not None:
                worker = worker_factory(number, Path(fleet_dir), store)
                worker.wake = coordinator.wake
            else:
                worker = FleetWorker(
                    fleet_dir, store=store, worker_id=f"local-{number}",
                    cache_dir=cache_dir, poll_s=poll_s,
                    context=context if n_workers == 1 else None,
                    wake=coordinator.wake)
            workers.append(worker)
        failures: list[Exception] = []

        def work(worker: FleetWorker) -> None:
            # A chaos death returns quietly (lease expiry recovers it);
            # anything raised is a crash that fails the run at once.
            try:
                worker.run()
            except Exception as exc:
                failures.append(exc)
                coordinator.wake(f"worker {worker.worker_id} raised "
                                 f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=work, args=(worker,), daemon=True,
                                    name=f"fleet-worker-{worker.worker_id}")
                   for worker in workers]
        for thread in threads:
            thread.start()
        try:
            outcome = coordinator.serve(timeout_s=timeout_s, out_dir=out_dir)
        finally:
            for worker in workers:
                worker.stop()
            for thread in threads:
                thread.join(timeout=30.0)
        if outcome.status != "done":
            raise FleetError(f"local fleet failed: {outcome.reason}") \
                from next(iter(failures), None)
        return outcome
    finally:
        if scratch is not None:
            scratch.cleanup()
