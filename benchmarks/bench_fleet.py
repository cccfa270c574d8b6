"""Benchmark: elastic fleet execution vs the static 4-way shard plan.

``test_fleet_overhead_vs_static_sharding`` is the acceptance gate of
the work-stealing coordinator: running the full smoke study set through
:func:`~repro.experiments.fleet.run_local_fleet` (file-based leases,
heartbeats, one MemoryStore object per unit and a coordinator merge) must
cost at most 10% more wall-clock than the pre-fleet CI recipe — the
static ``plan_shards(spec, 4)`` plan executed shard by shard, each
shard's artifacts written to its own directory, then loaded back and
merged, exactly what the ``study-exec`` static matrix leg does.

Bit-identity comes first: both execution paths are asserted equal to an
unsharded reference row-for-row before any timing is compared — a fast
coordinator that changes numbers is worthless.

Each side runs on its own fresh :class:`StudyContext`, so both pay
identical model-compile and sweep costs and the measured difference is
pure orchestration overhead (lease files, wake-ups, store round trips).
On a 2-vCPU Xeon VM (ext4 disk) each side takes 0.9-1.3 s and the gate
read 0.93-1.10x over 10 runs; the fleet's own overhead (wall time minus
``StudyRunner.run`` time) was ~0.10-0.12 s per pass against the static
recipe's 0.05-0.08 s.  The 10% allowance absorbs slow CI filesystems,
and the best-of-3 retry loop absorbs noisy neighbours.  The gate prints
both sides' orchestration time next to the ratio and writes them into
its ``BENCH_JSON`` entry, so a failure reads as overhead or as noise in
the study runs both sides share.
"""

from __future__ import annotations

import time

from gate_report import record_gate

from repro.experiments.artifacts import (
    load_study_results,
    write_study_artifacts,
)
from repro.experiments.fleet import run_local_fleet
from repro.experiments.remotestore import MemoryStore
from repro.experiments.sharding import (
    group_by_parent,
    merge_study_results,
    plan_shards,
)
from repro.experiments.study import (
    StudyContext,
    StudyRunner,
    build_spec,
    study_names,
)

#: Fleet wall-clock must stay within 10% of the static plan's.
THRESHOLD = 1.0 / 1.10


def _rows(results):
    return {r.spec_hash: r.to_dict()["rows"] for r in results}


def _run_static(specs, scratch):
    """The pre-fleet CI recipe: 4 static shards per study, merged."""
    with StudyContext() as ctx:
        runner = StudyRunner(context=ctx)
        shard_dirs = []
        for spec in specs:
            for shard in plan_shards(spec, 4).shards:
                out_dir = scratch / f"shard-{len(shard_dirs):03d}"
                write_study_artifacts([runner.run(shard.spec)], out_dir)
                shard_dirs.append(out_dir)
        loaded = []
        for out_dir in shard_dirs:
            loaded.extend(load_study_results(out_dir))
        families, plain = group_by_parent(loaded)
        assert not plain
        return [merge_study_results(family)
                for family in families.values()]


def _run_fleet(specs):
    with StudyContext() as ctx:
        outcome = run_local_fleet(specs, n_workers=1, store=MemoryStore(),
                                  lease_ttl_s=60.0, poll_s=0.01,
                                  timeout_s=600.0, context=ctx)
        assert outcome.status == "done", outcome.reason
        return outcome.results


def test_fleet_overhead_vs_static_sharding(tmp_path, monkeypatch):
    """Coordinator-run smoke grids cost <=1.10x the static 4-way plan."""
    specs = [build_spec(name).smoke() for name in study_names()]

    with StudyContext() as ctx:
        reference = _rows(StudyRunner(context=ctx).run(spec)
                          for spec in specs)

    # Each side's orchestration time is its wall-clock minus the time
    # spent in StudyRunner.run, the work both sides share.
    study_runs = []
    run = StudyRunner.run

    def timed_run(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return run(self, *args, **kwargs)
        finally:
            study_runs.append(time.perf_counter() - start)

    monkeypatch.setattr(StudyRunner, "run", timed_run)
    best_ratio = 0.0
    for attempt in range(3):            # retries guard against CI noise
        study_runs.clear()
        start = time.perf_counter()
        static_results = _run_static(specs, tmp_path / f"static-{attempt}")
        static_elapsed = time.perf_counter() - start
        static_overhead = static_elapsed - sum(study_runs)

        study_runs.clear()
        start = time.perf_counter()
        fleet_results = _run_fleet(specs)
        fleet_elapsed = time.perf_counter() - start
        fleet_overhead = fleet_elapsed - sum(study_runs)

        # Bit-identity before speed: both paths must equal the reference.
        assert _rows(static_results) == reference
        assert _rows(fleet_results) == reference

        best_ratio = max(best_ratio, static_elapsed / fleet_elapsed)
        if best_ratio >= THRESHOLD:
            break

    report = (f"fleet vs static: best ratio {best_ratio:.3f}; last pass "
              f"static {static_elapsed:.3f} s (orchestration "
              f"{static_overhead * 1e3:.0f} ms), fleet {fleet_elapsed:.3f} s "
              f"(orchestration {fleet_overhead * 1e3:.0f} ms)")
    print(f"\n{report}")
    record_gate("fleet_overhead_vs_static", best_ratio, round(THRESHOLD, 3),
                unit="x static/fleet wall-clock",
                details={"static_orchestration_ms": static_overhead * 1e3,
                         "fleet_orchestration_ms": fleet_overhead * 1e3})
    assert best_ratio >= THRESHOLD, (
        f"fleet pass ran at {best_ratio:.2f}x the static plan's speed; "
        f"gate requires >={THRESHOLD:.3f} (fleet no more than 10% slower); "
        f"{report}")
