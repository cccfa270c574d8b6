"""Tests for the disk-backed sweep cache."""

import multiprocessing
import pickle

import oracles
import pytest

from repro.experiments.backends import (
    PredictionBackend,
    SimulationBackend,
    simulation_grid,
)
from repro.experiments.diskcache import (
    DiskCacheStats,
    SweepDiskCache,
    fingerprint_digest,
)
from repro.experiments.sweep import SweepRunner
from repro.machines.presets import get_machine


@pytest.fixture(scope="module")
def p3_machine():
    return get_machine("pentium3-myrinet")


def sim_backend(machine, **kwargs):
    kwargs.setdefault("max_iterations", 2)
    return SimulationBackend(machine, **kwargs)


class TestCacheBasics:
    def test_hit_miss_store_accounting(self, tmp_path):
        cache = SweepDiskCache(tmp_path / "cache")
        key = ("backend", ("fingerprint",), 1)
        assert cache.get(key) is None
        cache.put(key, {"elapsed": 1.5})
        assert cache.get(key) == {"elapsed": 1.5}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert 0.0 < cache.stats.hit_rate < 1.0
        assert "hit" in cache.stats.describe()
        assert len(cache) == 1

    def test_distinct_keys_distinct_entries(self, tmp_path):
        cache = SweepDiskCache(tmp_path)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1
        assert cache.get(("b",)) == 2
        assert len(cache) == 2
        assert fingerprint_digest(("a",)) != fingerprint_digest(("b",))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SweepDiskCache(tmp_path)
        key = ("will", "be", "corrupted")
        cache.put(key, 42)
        entry = cache._entry_path(key)
        entry.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        # ... and can be healed by a subsequent store.
        cache.put(key, 43)
        assert cache.get(key) == 43

    def test_clear(self, tmp_path):
        cache = SweepDiskCache(tmp_path)
        cache.put(("x",), 1)
        cache.put(("y",), 2)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(("x",)) is None

    def test_stats_merge(self):
        merged = DiskCacheStats(hits=1, misses=2, stores=3).merge(
            DiskCacheStats(hits=10, misses=20, stores=30))
        assert (merged.hits, merged.misses, merged.stores) == (11, 22, 33)


class TestSweepIntegration:
    def test_warm_second_run_hits(self, tmp_path, p3_machine):
        grid = simulation_grid([(1, 1), (2, 2), (1, 3)])
        cold = SweepRunner(backend=sim_backend(p3_machine), cache=tmp_path)
        cold_outcomes = cold.run(grid)
        assert cold.disk_stats.misses == len(grid)
        assert cold.disk_stats.stores == len(grid)
        assert cold.disk_stats.hits == 0

        warm = SweepRunner(backend=sim_backend(p3_machine), cache=tmp_path)
        warm_outcomes = warm.run(grid)
        assert warm.disk_stats.hits == len(grid)
        assert warm.disk_stats.misses == 0
        assert warm.stats.predictions == 0          # nothing re-simulated
        assert ([o.total_time for o in warm_outcomes]
                == [o.total_time for o in cold_outcomes])

    def test_workers_warm_from_shared_store(self, tmp_path, p3_machine):
        grid = simulation_grid([(1, 1), (2, 2), (1, 3), (3, 1)])
        SweepRunner(backend=sim_backend(p3_machine), cache=tmp_path).run(grid)
        fanned = SweepRunner(backend=sim_backend(p3_machine), cache=tmp_path,
                             workers=2)
        fanned.run(grid)
        assert fanned.disk_stats.hits == len(grid)
        assert fanned.stats.predictions == 0

    def test_invalidation_on_machine_change(self, tmp_path, p3_machine):
        """A different hardware fingerprint must miss, not serve stale times."""
        grid = simulation_grid([(2, 2)])
        SweepRunner(backend=sim_backend(p3_machine), cache=tmp_path).run(grid)

        other = get_machine("opteron-gige")
        runner = SweepRunner(backend=sim_backend(other), cache=tmp_path)
        runner.run(grid)
        assert runner.disk_stats.hits == 0
        assert runner.disk_stats.misses == 1
        assert runner.stats.predictions == 1        # really re-simulated

    def test_noisy_entries_of_an_earlier_noise_scheme_miss(self, tmp_path,
                                                           p3_machine):
        """Stale noisy results miss; noise-free keys are unchanged."""
        from repro.simnet.noise import NOISE_SCHEME

        grid = simulation_grid([(2, 2)])
        tag = ("noise", NOISE_SCHEME)
        cache = SweepDiskCache(tmp_path)
        for with_noise in (True, False):
            backend = sim_backend(p3_machine, with_noise=with_noise)
            key = backend.fingerprint(grid.scenarios[0])
            assert (tag in key) == with_noise
            # The entry as written before noisy keys named the scheme.
            cache.put(tuple(part for part in key if part != tag),
                      f"cached with_noise={with_noise}")

        noisy = SweepRunner(backend=sim_backend(p3_machine), cache=tmp_path)
        assert noisy.run(grid)[0].result != "cached with_noise=True"
        assert (noisy.disk_stats.hits, noisy.disk_stats.misses) == (0, 1)
        quiet = SweepRunner(backend=sim_backend(p3_machine, with_noise=False),
                            cache=tmp_path)
        assert quiet.run(grid)[0].result == "cached with_noise=False"
        assert (quiet.disk_stats.hits, quiet.disk_stats.misses) == (1, 0)

    def test_prediction_backend_invalidation_on_hardware_change(
            self, tmp_path, sweep3d_model, synthetic_hardware):
        from repro.core.workload import SweepWorkload
        from repro.experiments.sweep import Scenario
        from repro.sweep3d.input import standard_deck

        deck = standard_deck("validation", px=2, py=2, max_iterations=2)
        scenario = Scenario(label="2x2",
                            variables=SweepWorkload(deck, 2, 2).model_variables())
        def runner(hardware):
            return SweepRunner(backend=PredictionBackend(model=sweep3d_model,
                                                         hardware=hardware),
                               cache=tmp_path)

        first = runner(synthetic_hardware)
        first.run([scenario])
        assert first.disk_stats.stores == 1

        warm = runner(synthetic_hardware)
        warm.run([scenario])
        assert warm.disk_stats.hits == 1

        changed = runner(oracles.scaled_flop_rate(synthetic_hardware, 2.0))
        outcomes = changed.run([scenario])
        assert changed.disk_stats.hits == 0
        assert outcomes[0].total_time != warm.run([scenario])[0].total_time


def _hammer_cache(args):
    """Worker: interleaved writes/reads of shared and private keys."""
    path, worker, rounds = args
    cache = SweepDiskCache(path)
    clean = True
    for round_no in range(rounds):
        shared_key = ("shared", round_no)
        payload = {"round": round_no, "blob": list(range(200))}
        cache.put(shared_key, payload)          # every worker writes the same key
        cache.put(("private", worker, round_no), payload)
        seen = cache.get(shared_key)
        # Atomic replace: a reader sees a complete entry or a miss, never a
        # torn/partial file (which would raise or return garbage).
        if seen is not None and seen != payload:
            clean = False
    return clean


class TestConcurrentWriters:
    def test_multiprocess_writers_never_tear_entries(self, tmp_path):
        rounds = 20
        workers = 4
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_hammer_cache,
                               [(str(tmp_path), w, rounds) for w in range(workers)])
        assert all(results)
        cache = SweepDiskCache(tmp_path)
        # Every entry on disk is complete: its checksum and key verify.
        keys = [("shared", round_no) for round_no in range(rounds)] + [
            ("private", worker, round_no)
            for worker in range(workers) for round_no in range(rounds)]
        for key in keys:
            assert cache.get(key)["blob"] == list(range(200))
        # No leftover temp files from interrupted writes.
        assert list(cache.path.glob("*.tmp")) == []
        assert len(cache) == rounds * (workers + 1)


class TestThreadSafeStats:
    def test_threaded_readers_count_exactly(self, tmp_path):
        """Regression: unguarded ``stats.hits += 1`` dropped counts."""
        import threading

        cache = SweepDiskCache(tmp_path)
        cache.put(("hot",), {"elapsed": 1.0})
        cache.stats = DiskCacheStats()
        threads, rounds = 8, 200

        def reader():
            for _ in range(rounds):
                assert cache.get(("hot",)) is not None
                cache.get(("cold",))

        pool = [threading.Thread(target=reader) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        snapshot = cache.stats_snapshot()
        assert snapshot.hits == threads * rounds
        assert snapshot.misses == threads * rounds
        assert snapshot.stores == 0

    def test_snapshot_is_a_copy(self, tmp_path):
        cache = SweepDiskCache(tmp_path)
        before = cache.stats_snapshot()
        cache.put(("k",), 1)
        cache.get(("k",))
        assert before.hits == 0 and before.stores == 0
        after = cache.stats_snapshot()
        assert (after.hits, after.misses, after.stores) == (1, 0, 1)

    def test_pickle_round_trip_recreates_the_lock(self, tmp_path):
        cache = SweepDiskCache(tmp_path)
        cache.put(("k",), 1)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get(("k",)) == 1
        assert clone.stats_snapshot().hits == 1
        # The rebuilt lock is functional, not shared with the original.
        assert clone._stats_lock is not cache._stats_lock


class TestPrune:
    def _seed(self, tmp_path, count, mtime_base=None):
        import os
        cache = SweepDiskCache(tmp_path)
        for index in range(count):
            cache.put(("entry", index), {"payload": index})
        if mtime_base is not None:
            # Deterministic store times, oldest first.
            for offset, entry in enumerate(cache.entries()):
                os.utime(entry, (mtime_base + offset, mtime_base + offset))
        return cache

    def test_prune_max_entries_keeps_newest(self, tmp_path):
        cache = self._seed(tmp_path, 5, mtime_base=1000.0)
        survivors_expected = cache.entries()[2:]
        result = cache.prune(max_entries=3)
        assert result.removed == 2
        assert result.kept == 3
        assert result.reclaimed_bytes > 0
        assert cache.entries() == survivors_expected
        assert "pruned 2 entries" in result.describe()

    def test_prune_max_age(self, tmp_path):
        cache = self._seed(tmp_path, 4, mtime_base=1000.0)
        # Entries at t=1000..1003; at t=1003.5 a 2 s horizon (cutoff 1001.5)
        # evicts the two oldest.
        result = cache.prune(max_age_s=2.0, now=1003.5)
        assert result.removed == 2
        assert len(cache) == 2

    def test_prune_combined_limits(self, tmp_path):
        cache = self._seed(tmp_path, 6, mtime_base=1000.0)
        result = cache.prune(max_entries=2, max_age_s=10.0, now=1003.5)
        # The age cutoff (993.5) evicts nothing; the count limit keeps the
        # 2 newest of the 6 entries.
        assert result.removed == 4
        assert len(cache) == 2

    def test_prune_noop_and_validation(self, tmp_path):
        cache = self._seed(tmp_path, 2)
        result = cache.prune(max_entries=10, max_age_s=3600.0)
        assert result.removed == 0 and result.kept == 2
        import pytest as _pytest
        from repro.errors import ExperimentError
        with _pytest.raises(ExperimentError):
            cache.prune(max_entries=-1)
        with _pytest.raises(ExperimentError):
            cache.prune(max_age_s=-0.1)

    def test_pruned_entries_are_misses_survivors_hit(self, tmp_path):
        cache = self._seed(tmp_path, 3, mtime_base=1000.0)
        cache.prune(max_entries=1)
        cache.stats = DiskCacheStats()
        # Exactly one entry survives; pruned keys read as clean misses.
        values = [cache.get(("entry", index)) for index in range(3)]
        assert values.count(None) == 2
        assert cache.stats.hits == 1 and cache.stats.misses == 2

    def test_total_bytes(self, tmp_path):
        cache = self._seed(tmp_path, 3)
        total = cache.total_bytes()
        assert total == sum(entry.stat().st_size for entry in cache.entries())
        assert total > 0
