"""End-to-end wiring of periodic capture, the trace cache and phase timings.

Covers the layers above :mod:`repro.simmpi.capture`: the simulation
backend/executor stamping per-phase host seconds onto measurements, the
sweep runner auto-attaching a trace cache beneath its sweep cache (and
serving captures from it across "processes"), study results carrying the
aggregated phases into ``manifest.json``, the remote-store trace sync
and the CLI cache commands.
"""

import json

from repro.cli import main
from repro.experiments.backends import SimMeasurement, SimulationBackend
from repro.experiments.remotestore import (
    pull_cache_entries,
    push_cache_entries,
    store_from_url,
)
from repro.experiments.sweep import SweepRunner
from repro.machines.presets import get_machine
from repro.simmpi.tracecache import TraceDiskCache


def simulation_points(runner, arrays=((1, 1), (2, 2))):
    from repro.experiments.backends import simulation_grid

    return runner.run(simulation_grid(arrays))


def make_backend(**kwargs):
    kwargs.setdefault("machine", get_machine("steady"))
    kwargs.setdefault("deck", "validation")
    kwargs.setdefault("max_iterations", 20)
    kwargs.setdefault("with_noise", False)
    return SimulationBackend(**kwargs)


class TestMeasurementPhases:
    def test_measurement_carries_phase_seconds(self):
        runner = SweepRunner(backend=make_backend())
        outcomes = simulation_points(runner)
        for outcome in outcomes:
            result = outcome.result
            assert result.execution_tier in ("steady", "replay")
            assert result.capture_s > 0.0
            assert set(result.phase_seconds) <= {"capture", "replay",
                                                 "steady", "engine"}
        assert runner.phase_seconds.get("capture", 0.0) > 0.0

    def test_phase_fields_default_for_old_pickles(self):
        measurement = SimMeasurement(label="x", machine_name="m", px=1, py=1,
                                     elapsed_time=1.0, seed_offset=0)
        assert measurement.capture_s == 0.0
        assert measurement.phase_seconds == {}


class TestTraceCacheWiring:
    def test_sweep_cache_auto_attaches_trace_cache(self, tmp_path):
        runner = SweepRunner(backend=make_backend(), cache=str(tmp_path))
        # Attached by the first sweep-cache miss, so a warm run never
        # loads the trace cache.
        assert runner.backend.trace_cache is None
        simulation_points(runner)
        cache = runner.backend.trace_cache
        assert isinstance(cache, TraceDiskCache)
        assert cache.path == tmp_path / "traces"
        assert len(cache) > 0

    def test_recapture_served_from_cache_across_processes(self, tmp_path):
        cold = SweepRunner(backend=make_backend(), cache=str(tmp_path))
        cold_outcomes = simulation_points(cold)
        # A fresh runner over fresh objects but the same directory —
        # i.e. a new process — must not re-capture, and the results must
        # be identical.  An empty sweep cache isolates the trace tier.
        cold.cache.clear()
        warm = SweepRunner(backend=make_backend(), cache=str(tmp_path))
        warm_outcomes = simulation_points(warm)
        snapshot = warm.backend.trace_cache.stats_snapshot()
        assert snapshot.hits > 0
        assert snapshot.stores == 0
        for got, want in zip(warm_outcomes, cold_outcomes):
            assert got.result.elapsed_time == want.result.elapsed_time

    def test_backend_accepts_path_like_trace_cache(self, tmp_path):
        backend = make_backend(trace_cache=str(tmp_path / "tc"))
        assert isinstance(backend.trace_cache, TraceDiskCache)


class TestRemoteTraceSync:
    def test_push_and_pull_trace_entries(self, tmp_path):
        source = SweepRunner(backend=make_backend(),
                             cache=str(tmp_path / "a"))
        simulation_points(source)
        store = store_from_url(f"file://{tmp_path}/bucket")
        trace_cache = source.backend.trace_cache
        pushed = push_cache_entries(trace_cache, store, prefix="traces")
        assert pushed == len(trace_cache)
        # Second push is a no-op; pull warms an empty cache byte-for-byte.
        assert push_cache_entries(trace_cache, store, prefix="traces") == 0
        target = TraceDiskCache(tmp_path / "b")
        assert pull_cache_entries(store, target, prefix="traces") == pushed
        names = {entry.name for entry in target.entries()}
        assert names == {entry.name for entry
                         in source.backend.trace_cache.entries()}
        for entry in target.entries():
            assert entry.read_bytes() \
                == (source.backend.trace_cache.path / entry.name).read_bytes()


class TestStudyPhases:
    def test_study_result_and_manifest_carry_phases(self, tmp_path):
        from repro.experiments.artifacts import write_study_artifacts
        from repro.experiments.study import build_spec, run_study

        spec = build_spec("steady-scaling",
                          cache_dir=str(tmp_path / "cache")).smoke()
        result = run_study(spec)
        assert result.phases.get("capture", 0.0) > 0.0
        assert "phases" in result.to_dict()
        manifest_path = write_study_artifacts([result], tmp_path / "artifacts")
        manifest = json.loads(manifest_path.read_text())
        entry = manifest["studies"][0]
        assert entry["phases"] == result.phases

    def test_warm_run_reports_no_phases(self, tmp_path):
        # A disk-cache hit carries the seconds of the run that computed
        # it; the warm run spent none of them.
        from repro.experiments.study import build_spec, run_study

        spec = build_spec("steady-scaling",
                          cache_dir=str(tmp_path / "cache")).smoke()
        cold = run_study(spec)
        warm = run_study(spec)
        assert cold.phases.get("capture", 0.0) > 0.0
        assert warm.disk_stats.hits == 2
        assert warm.phases == {}
        assert warm.execution == cold.execution


class TestCacheCli:
    def test_cache_stats_include_trace_tier(self, tmp_path, capsys):
        runner = SweepRunner(backend=make_backend(), cache=str(tmp_path))
        simulation_points(runner, arrays=((1, 1),))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trace entries: 1" in out
        assert "trace total bytes:" in out

    def test_cache_prune_covers_trace_tier(self, tmp_path, capsys):
        runner = SweepRunner(backend=make_backend(), cache=str(tmp_path))
        simulation_points(runner)
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-entries", "0"]) == 0
        out = capsys.readouterr().out
        assert "traces:" in out
        assert len(TraceDiskCache(tmp_path / "traces")) == 0
