"""Tests for the elastic shard fleet: leases, chaos, bit-identity."""

import json
import random
import threading
import time
from pathlib import Path

import pytest
from test_artifacts import mutate_field

from repro.cli import main
from repro.errors import ExperimentError, FleetError
from repro.experiments.fleet import (
    FleetCoordinator,
    FleetEventLog,
    FleetWorker,
    fleet_status,
    run_local_fleet,
)
from repro.experiments.remotestore import MemoryStore
from repro.experiments.sharding import plan_shards, plan_unit_shards
from repro.experiments.study import (
    StudyContext,
    StudyRunner,
    StudySpec,
    build_spec,
)

SPECS = ("table2", "figure8")


@pytest.fixture(scope="module")
def shared_context():
    with StudyContext() as ctx:
        yield ctx


@pytest.fixture(scope="module")
def runner(shared_context):
    return StudyRunner(context=shared_context)


@pytest.fixture(scope="module")
def references(runner):
    """Unsharded smoke runs of the fleet test specs, keyed by study."""
    return {name: runner.run(build_spec(name).smoke()) for name in SPECS}


@pytest.fixture(scope="module")
def static_merge(runner):
    """The static 4-way plan's merged rows: the other bit-identity anchor."""
    from repro.experiments.sharding import group_by_parent, merge_study_results
    shard_specs = []
    for name in SPECS:
        plan = plan_shards(build_spec(name).smoke(), 4)
        shard_specs.extend(shard.spec for shard in plan.shards)
    results = [runner.run(spec) for spec in shard_specs]
    families, plain = group_by_parent(results)
    assert not plain
    merged = {}
    for family in families.values():
        result = merge_study_results(family)
        merged[result.spec.study] = result
    return merged


def assert_bit_identical(outcome, references):
    """Fleet rows/columns equal the reference run's, study by study."""
    by_study = {result.spec.study: result for result in outcome.results}
    assert set(by_study) == set(references)
    for study, reference in references.items():
        result = by_study[study]
        assert result.spec == reference.spec
        assert result.columns == reference.columns
        assert result.rows == reference.rows


class TestEnqueue:
    def test_refuses_duplicate_specs(self, tmp_path):
        coordinator = FleetCoordinator(tmp_path / "q", store=MemoryStore())
        with pytest.raises(FleetError, match="twice"):
            coordinator.enqueue([build_spec("table2"), "table2"])

    def test_refuses_reused_directory(self, tmp_path):
        FleetCoordinator(tmp_path / "q",
                         store=MemoryStore()).enqueue(["table2"], smoke=True)
        with pytest.raises(FleetError, match="already holds a fleet"):
            FleetCoordinator(tmp_path / "q",
                             store=MemoryStore()).enqueue(["table2"])

    def test_refuses_empty(self, tmp_path):
        coordinator = FleetCoordinator(tmp_path / "q", store=MemoryStore())
        with pytest.raises(FleetError, match="nothing to enqueue"):
            coordinator.enqueue([])

    def test_unit_count_matches_unit_plan(self, tmp_path):
        expected = sum(plan_unit_shards(build_spec(name).smoke()).shard_count
                       for name in SPECS)
        coordinator = FleetCoordinator(tmp_path / "q", store=MemoryStore())
        specs = [build_spec(name).smoke() for name in SPECS]
        assert coordinator.enqueue(specs) == expected

    def test_descriptor_written_after_units(self, tmp_path):
        coordinator = FleetCoordinator(tmp_path / "q", store=MemoryStore())
        units = coordinator.enqueue([build_spec("table2").smoke()])
        descriptor = json.loads((tmp_path / "q" / "fleet.json").read_text())
        assert descriptor["unit_count"] == units
        for index in range(units):
            assert (tmp_path / "q" / "units" / f"unit-{index:04d}.json").exists()


class TestLocalFleet:
    def test_single_worker_bit_identity(self, references, shared_context):
        outcome = run_local_fleet([build_spec(n).smoke() for n in SPECS],
                                  n_workers=1, context=shared_context)
        assert outcome.status == "done"
        assert_bit_identical(outcome, references)

    def test_multi_worker_bit_identity(self, references):
        outcome = run_local_fleet([build_spec(n).smoke() for n in SPECS],
                                  n_workers=3)
        assert outcome.status == "done"
        assert outcome.zombies == 0
        assert_bit_identical(outcome, references)

    def test_matches_static_four_way_merge(self, references, static_merge):
        """Fleet == static 4-way plan == unsharded, the hard invariant."""
        outcome = run_local_fleet([build_spec(n).smoke() for n in SPECS],
                                  n_workers=2)
        assert_bit_identical(outcome, references)
        assert_bit_identical(outcome, static_merge)

    def test_smoke_flag_matches_presmoked_specs(self, references):
        outcome = run_local_fleet(list(SPECS), n_workers=2, smoke=True)
        assert_bit_identical(outcome, references)

    def test_writes_standard_artifacts(self, tmp_path, references):
        from repro.experiments.artifacts import load_study_results
        out = tmp_path / "merged"
        outcome = run_local_fleet([build_spec("table2").smoke()],
                                  n_workers=2, out_dir=out)
        assert outcome.out_dir == out
        loaded = load_study_results(out)
        assert len(loaded) == 1
        assert loaded[0].rows == references["table2"].rows

    def test_timeout_fails_without_workers(self, tmp_path):
        coordinator = FleetCoordinator(tmp_path / "q", store=MemoryStore(),
                                       poll_s=0.01)
        coordinator.enqueue([build_spec("table2").smoke()])
        outcome = coordinator.serve(timeout_s=0.2)
        assert outcome.status == "failed"
        assert "timed out" in outcome.reason
        done = json.loads((tmp_path / "q" / "done.json").read_text())
        assert done["status"] == "failed"

    def test_worker_cache_sync_through_store(self, tmp_path, references):
        """Worker B warm-starts from worker A's pushed cache entries."""
        store = MemoryStore()
        run_local_fleet([build_spec("table2").smoke()], n_workers=1,
                        store=store, fleet_dir=tmp_path / "q1",
                        cache_dir=str(tmp_path / "cache-a"))
        assert store.list_keys("cache")
        outcome = run_local_fleet([build_spec("table2").smoke()],
                                  n_workers=1, store=store,
                                  fleet_dir=tmp_path / "q2",
                                  cache_dir=str(tmp_path / "cache-b"))
        assert_bit_identical(outcome, {"table2": references["table2"]})
        events = FleetEventLog(tmp_path / "q2" / "events.jsonl").events()
        pulled = [e for e in events if e["event"] == "cache-pulled"]
        assert pulled and pulled[0]["entries"] > 0

    def test_published_result_wakes_the_coordinator(self, runner,
                                                     shared_context):
        """The hand-off does not wait out a poll: with a 5 s idle cadence
        the run still returns as soon as its one unit is published."""
        spec = build_spec("table2", max_pes=4, max_iterations=1)
        reference = runner.run(spec)
        started = time.perf_counter()
        outcome = run_local_fleet([spec], n_workers=1, poll_s=5.0,
                                  context=shared_context)
        assert time.perf_counter() - started < 2.5
        assert outcome.results[0].rows == reference.rows

    def test_worker_error_fails_at_once(self, tmp_path):
        """A worker thread that raises fails the run now, not at timeout."""
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        started = time.perf_counter()
        with pytest.raises(FleetError,
                           match="cannot create cache directory") as info:
            run_local_fleet(["table2"], n_workers=2, smoke=True,
                            cache_dir=str(blocker / "cache"), timeout_s=60)
        assert time.perf_counter() - started < 10
        assert "worker local-" in str(info.value)
        assert isinstance(info.value.__cause__, ExperimentError)


class TestChaos:
    """The issue's hard invariant: placement and death never change rows."""

    def test_random_worker_death_keeps_bit_identity(self, references):
        """Property-style: random kill schedules, every run bit-identical.

        Each round starts three workers; each has an independent chance
        of dying (heartbeats stop, leases stranded) before executing any
        given unit.  At least one immortal worker guarantees progress.
        Short TTL makes the coordinator reassign within the round.
        """
        rng = random.Random(0xF1EE7)
        specs = [build_spec(n).smoke() for n in SPECS]
        for round_number in range(3):
            doom = [rng.random() < 0.5, rng.random() < 0.5, False]

            def factory(number, fleet_dir, store, _doom=doom):
                hook = None
                if _doom[number]:
                    def hook(unit, _fired=[]):
                        if not _fired:
                            _fired.append(unit)
                            return True
                        return False
                return FleetWorker(fleet_dir, store=store,
                                   worker_id=f"chaos-{number}",
                                   poll_s=0.01, prefetch=2,
                                   failure_hook=hook)

            outcome = run_local_fleet(specs, n_workers=3, poll_s=0.01,
                                      lease_ttl_s=0.3, timeout_s=120.0,
                                      worker_factory=factory)
            assert outcome.status == "done", f"round {round_number}"
            if any(doom):
                assert outcome.reassignments >= 1
            assert_bit_identical(outcome, references)

    def test_worker_dies_holding_last_unit(self, references):
        """Edge case: the dying worker holds the only remaining unit."""
        spec = build_spec("table2", max_pes=4, max_iterations=1)
        assert plan_unit_shards(spec).shard_count == 1  # single-unit grid

        # One one-shot hook shared by both workers: whichever claims the
        # unit first dies, so the run always needs a reassignment.
        doom = threading.Lock()

        def hook(unit):
            return doom.acquire(blocking=False)

        def factory(number, fleet_dir, store):
            return FleetWorker(fleet_dir, store=store,
                               worker_id=f"last-{number}", poll_s=0.01,
                               failure_hook=hook)

        outcome = run_local_fleet([spec], n_workers=2, poll_s=0.01,
                                  lease_ttl_s=0.3, timeout_s=120.0,
                                  worker_factory=factory)
        assert outcome.status == "done"
        assert outcome.reassignments >= 1
        result = outcome.results[0]
        reference = StudyRunner().run(spec)
        assert result.rows == reference.rows


class TestProtocolVersion:
    def _fleet_at_version(self, tmp_path, version):
        coordinator = FleetCoordinator(tmp_path / "q", store=MemoryStore())
        coordinator.enqueue([build_spec("table2", max_pes=4,
                                        max_iterations=1)])
        descriptor_path = tmp_path / "q" / "fleet.json"
        descriptor = json.loads(descriptor_path.read_text())
        descriptor["version"] = version
        descriptor_path.write_text(json.dumps(descriptor))
        return coordinator

    def test_worker_refuses_another_version(self, tmp_path):
        coordinator = self._fleet_at_version(tmp_path, 1)
        worker = FleetWorker(tmp_path / "q", store=coordinator.store,
                             worker_id="v2")
        with pytest.raises(FleetError, match=r"version 1\b.*version 2"):
            worker.run(max_units=1, wait_timeout_s=1.0)
        assert worker.completed == 0

    def test_fleet_work_reports_the_mismatch(self, capsys, tmp_path):
        self._fleet_at_version(tmp_path, 1)
        assert main(["fleet", "work", "--fleet-dir", str(tmp_path / "q"),
                     "--max-units", "1", "--wait-timeout", "1"]) == 2
        out = capsys.readouterr().out
        assert "fleet failed:" in out
        assert "protocol version 1" in out


class TestUnitObjectMutations:
    """A corrupt unit result object fails ``serve`` cleanly: an
    :class:`ExperimentError` (or :class:`FleetError`) naming the unit and
    the field, never another exception."""

    #: Mutated objects tried.
    MUTATIONS = 80
    SPEC = build_spec("table2", max_pes=4, max_iterations=1)  # one unit

    @pytest.fixture(scope="class")
    def unit_result(self, tmp_path_factory, runner):
        """The single unit's honest result (what a worker would publish)."""
        queue = tmp_path_factory.mktemp("plan") / "q"
        FleetCoordinator(queue, store=MemoryStore()).enqueue([self.SPEC])
        record = json.loads((queue / "units" / "unit-0000.json").read_text())
        return runner.run(StudySpec.from_dict(record["spec"]))

    def _serve_published(self, queue, unit_result, store):
        """Enqueue, let a worker publish the unit into ``store``, serve."""
        coordinator = FleetCoordinator(queue, store=store)
        coordinator.enqueue([self.SPEC])
        worker = FleetWorker(queue, store=store, worker_id="w")
        record = json.loads((queue / "units" / "unit-0000.json").read_text())
        claimed = worker._try_claim(0, 0, record)
        worker._publish(claimed, unit_result, elapsed=0.0)
        return coordinator.serve(timeout_s=5.0)

    @pytest.fixture(scope="class")
    def published(self, tmp_path_factory, unit_result):
        """The honest unit object's bytes."""
        store = MemoryStore()
        self._serve_published(tmp_path_factory.mktemp("honest") / "q",
                              unit_result, store)
        (key,) = store.list_keys("runs")
        return store.get_bytes(key)

    def test_honest_object_merges(self, tmp_path, unit_result, runner):
        outcome = self._serve_published(tmp_path / "q", unit_result,
                                        MemoryStore())
        assert outcome.results[0].rows == runner.run(self.SPEC).rows

    def test_mutated_objects_merge_or_fail_cleanly(self, tmp_path,
                                                   unit_result, published):
        rng = random.Random(20061017)
        refused = 0
        for trial in range(self.MUTATIONS):
            document = json.loads(published)
            choice = rng.randrange(5)
            field = None
            if choice == 0:
                mutated = published[:rng.randrange(len(published))]
            elif choice == 1:
                mutated = rng.choice(NOT_JSON_OBJECTS)
            else:
                if choice == 2:
                    field = rng.choice(UNIT_FIELDS)
                    mutate_field(document, (field,), rng)
                elif choice == 3:
                    field = "spec_hash"
                    document[field] = "0" * 64
                else:
                    field = "rows"
                    rng.choice(document[field])["not_a_column"] = 1
                mutated = json.dumps(document).encode()
            try:
                self._serve_published(tmp_path / f"q{trial}", unit_result,
                                      ReplacingStore(mutated))
            except ExperimentError as exc:
                refused += 1
                message = str(exc)
                assert message.startswith("fleet unit 0 object"), message
                if field is not None:
                    assert f"'{field}" in message, message
        assert 0 < refused < self.MUTATIONS


#: Top-level fields of a unit object (``StudyResult.to_dict()``).
UNIT_FIELDS = ("study", "spec", "spec_hash", "machine", "machine_fingerprint",
               "elapsed_s", "cache", "execution", "phases", "columns",
               "rows", "analysis", "sharding")

#: Unit objects that are not JSON, or not a JSON object.
NOT_JSON_OBJECTS = (b"", b"{not json", b"\xff\xfe\x80", b"[" * 100_000,
                    b"[1, 2]", b"null")


class ReplacingStore(MemoryStore):
    """A MemoryStore that stores ``payload`` in place of every object."""

    def __init__(self, payload: bytes):
        super().__init__()
        self._payload = payload

    def put_bytes(self, key: str, data: bytes) -> None:
        super().put_bytes(key, self._payload)


class TestLeaseProtocol:
    """Lease-expiry edge cases at the file level, with a frozen clock."""

    def _fleet(self, tmp_path, ttl=10.0):
        clock = FrozenClock()
        coordinator = FleetCoordinator(tmp_path / "q", store=MemoryStore(),
                                       lease_ttl_s=ttl, clock=clock)
        coordinator.enqueue([build_spec("table2", max_pes=4,
                                        max_iterations=1)])
        return coordinator, clock

    def test_two_workers_race_one_expired_lease(self, tmp_path):
        """Exactly one racer wins the O_EXCL create of the new lease."""
        coordinator, clock = self._fleet(tmp_path)
        store = coordinator.store
        workers = [FleetWorker(tmp_path / "q", store=store,
                               worker_id=f"racer-{i}", clock=clock)
                   for i in range(2)]
        for worker in workers:
            worker.lease_ttl_s = coordinator.lease_ttl_s
        # A third party held the lease and died: plant the stale lease.
        dead = FleetWorker(tmp_path / "q", store=store, worker_id="dead",
                           clock=clock)
        dead.lease_ttl_s = coordinator.lease_ttl_s
        record = json.loads(
            (tmp_path / "q" / "units" / "unit-0000.json").read_text())
        assert dead._try_claim(0, 0, record) is not None
        clock.advance(11.0)  # beyond TTL
        coordinator.poll_once()  # expires g0, bumps to g1
        fresh = json.loads(
            (tmp_path / "q" / "units" / "unit-0000.json").read_text())
        assert fresh["generation"] == 1
        wins = []
        barrier = threading.Barrier(2)

        def race(worker):
            barrier.wait()
            wins.append(worker._try_claim(0, 1, fresh))

        threads = [threading.Thread(target=race, args=(w,)) for w in workers]
        [t.start() for t in threads]
        [t.join() for t in threads]
        assert sum(claim is not None for claim in wins) == 1

    def test_zombie_heartbeat_after_reassignment_is_ignored(self, tmp_path):
        """A heartbeat landing after reassignment must not resurrect g0.

        The zombie's refresh can recreate the old lease file; the
        coordinator must drop it by generation, and the zombie's late
        result must be discarded (deterministic, so provably identical —
        but never double-merged).
        """
        coordinator, clock = self._fleet(tmp_path)
        store = coordinator.store
        zombie = FleetWorker(tmp_path / "q", store=store, worker_id="zombie",
                             clock=clock)
        zombie.lease_ttl_s = coordinator.lease_ttl_s
        record = json.loads(
            (tmp_path / "q" / "units" / "unit-0000.json").read_text())
        claimed = zombie._try_claim(0, 0, record)
        assert claimed is not None
        clock.advance(11.0)
        coordinator.poll_once()  # lease expired; generation bumped to 1
        # The zombie's heartbeat raced the deletion and lost: its atomic
        # rewrite recreated the g0 lease file with a fresh deadline.
        lease_path = tmp_path / "q" / "leases" / "unit-0000.g0.json"
        lease_path.write_text(json.dumps(
            {"unit": 0, "generation": 0, "worker": "zombie",
             "acquired": clock(), "deadline": clock() + 10.0}))
        coordinator.poll_once()
        assert not lease_path.exists()  # dropped by generation, not TTL
        # A later heartbeat sees the file gone and prunes its lease table
        # instead of resurrecting it.
        zombie._refresh_leases()
        assert not lease_path.exists()
        # The zombie then finishes the unit and publishes at g0.
        with StudyContext() as ctx:
            runner = StudyRunner(context=ctx)
            result = runner.run(claimed.spec)
        zombie._publish(claimed, result, elapsed=0.0)
        coordinator.poll_once()
        assert coordinator._zombies == 1
        unit = json.loads(
            (tmp_path / "q" / "units" / "unit-0000.json").read_text())
        assert unit["state"] == "pending"  # g1 still open for a live worker
        events = [e["event"] for e in coordinator.log.events()]
        assert "zombie-result-discarded" in events

    def test_expiry_emits_events_and_returns_unit(self, tmp_path):
        coordinator, clock = self._fleet(tmp_path)
        worker = FleetWorker(tmp_path / "q", store=coordinator.store,
                             worker_id="mortal", clock=clock)
        worker.lease_ttl_s = coordinator.lease_ttl_s
        record = json.loads(
            (tmp_path / "q" / "units" / "unit-0000.json").read_text())
        assert worker._try_claim(0, 0, record) is not None
        coordinator.poll_once()
        assert coordinator._reassignments == 0  # within TTL: untouched
        clock.advance(10.5)
        coordinator.poll_once()
        events = [e["event"] for e in coordinator.log.events()]
        assert events.count("lease-expired") == 1
        assert events.count("reassigned") == 1


class TestStatus:
    def test_status_snapshot(self, tmp_path):
        coordinator = FleetCoordinator(tmp_path / "q", store=MemoryStore())
        units = coordinator.enqueue([build_spec("table2").smoke()])
        status = fleet_status(tmp_path / "q")
        assert status["unit_count"] == units
        assert status["open"] == units
        assert status["done"] == 0
        assert status["status"] == "running"

    def test_status_without_fleet_raises(self, tmp_path):
        with pytest.raises(FleetError, match="no fleet"):
            fleet_status(tmp_path / "empty")


class TestEventLog:
    def test_append_and_read_back(self, tmp_path):
        log = FleetEventLog(tmp_path / "events.jsonl")
        log.append("alpha", unit=1)
        log.append("beta", worker="w0")
        events = log.events()
        assert [e["event"] for e in events] == ["alpha", "beta"]
        assert events[0]["unit"] == 1

    def test_concurrent_appends_never_interleave(self, tmp_path):
        log = FleetEventLog(tmp_path / "events.jsonl")

        def spam(tag):
            for i in range(50):
                log.append("tick", tag=tag, i=i)

        threads = [threading.Thread(target=spam, args=(t,)) for t in range(4)]
        [t.start() for t in threads]
        [t.join() for t in threads]
        events = log.events()
        assert len(events) == 200
        assert all(e["event"] == "tick" for e in events)


class FrozenClock:
    """A manually advanced clock for deterministic lease-expiry tests."""

    def __init__(self, start: float = 1_000_000.0):
        self._now = start

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        self._now += seconds
