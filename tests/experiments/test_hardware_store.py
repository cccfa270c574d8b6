"""Tests for the hardware campaign store and the warm run it makes possible."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.evaluation.compiler import hardware_fingerprint
from repro.experiments.artifacts import compare_artifact_dirs
from repro.experiments.diskcache import HardwareStore
from repro.experiments.paper_data import PAPER_TABLES
from repro.experiments.runner import deck_for_row
from repro.experiments.study import StudyContext, build_spec, run_study
from repro.machines.presets import MACHINE_PRESETS, get_machine
from repro.sweep3d.input import standard_deck

#: What a warm run must not load: numpy, the MPI simulator's engine and
#: trace tiers, the trace cache and the simulation driver.
WARM_RUN_FORBIDDEN = ["numpy", "repro.simmpi.engine", "repro.simmpi.trace",
                      "repro.simmpi.tracecache", "repro.sweep3d.driver"]


def campaign_deck():
    return standard_deck("validation", px=2, py=2)


def served(store, name):
    """A fresh machine's hardware model, its campaigns served by ``store``."""
    return get_machine(name).hardware_model(campaign_deck(), 2, 2, store=store)


class TestStoredCampaigns:
    @pytest.mark.parametrize("name", sorted(MACHINE_PRESETS))
    def test_stored_results_equal_fresh_fits(self, tmp_path, name):
        store = HardwareStore(tmp_path)
        served(store, name)  # runs the campaigns and stores them
        entries = len(store)
        assert entries >= 1
        warm = HardwareStore(tmp_path)
        hardware = served(warm, name)
        assert warm.stats_snapshot().misses == 0
        assert warm.stats_snapshot().hits == entries
        assert warm.stats_snapshot().stores == 0

        fresh = get_machine(name)
        assert hardware.mpi == fresh.mpi_cost_model()
        assert hardware == fresh.hardware_model(campaign_deck(), 2, 2)
        assert hardware_fingerprint(hardware) == hardware_fingerprint(
            fresh.hardware_model(campaign_deck(), 2, 2))
        if fresh.fixed_flop_rate_mflops is None:
            profile = get_machine(name).profile_flop_rate(campaign_deck(), 2, 2,
                                                          store=warm)
            assert profile == fresh.profile_flop_rate(campaign_deck(), 2, 2)

    def test_entries_key_on_the_quadrature(self, tmp_path):
        store = HardwareStore(tmp_path)
        machine = get_machine("pentium3-myrinet")
        for sn in (4, 8):
            deck = standard_deck("validation", px=2, py=2, sn=sn)
            machine.profile_flop_rate(deck, 2, 2, store=store)
        assert store.stats_snapshot().stores == 2
        deck = standard_deck("validation", px=2, py=2, sn=8)
        stored = get_machine("pentium3-myrinet").profile_flop_rate(
            deck, 2, 2, store=HardwareStore(tmp_path))
        assert stored == get_machine("pentium3-myrinet").profile_flop_rate(
            deck, 2, 2)

    def test_truncated_entry_is_a_miss_and_refitted(self, tmp_path):
        served(HardwareStore(tmp_path), "opteron-gige")
        for entry in HardwareStore(tmp_path).entries():
            data = entry.read_bytes()
            entry.write_bytes(data[:len(data) // 2])
        store = HardwareStore(tmp_path)
        hardware = served(store, "opteron-gige")
        snapshot = store.stats_snapshot()
        assert (snapshot.hits, snapshot.misses, snapshot.stores) == (0, 2, 2)
        fresh = get_machine("opteron-gige")
        assert hardware == fresh.hardware_model(campaign_deck(), 2, 2)
        # The refitted entries are whole again.
        again = HardwareStore(tmp_path)
        assert served(again, "opteron-gige") == hardware
        assert again.stats_snapshot().hits == 2

    def test_foreign_entry_is_a_miss_and_refitted(self, tmp_path):
        # A whole, checksummed entry of another machine under this
        # machine's file name: its stored key differs, so it is a miss.
        served(HardwareStore(tmp_path / "p3"), "pentium3-myrinet")
        served(HardwareStore(tmp_path / "opteron"), "opteron-gige")
        foreign = sorted(HardwareStore(tmp_path / "p3").entries())
        own = sorted(HardwareStore(tmp_path / "opteron").entries())
        for source, target in zip(foreign, own):
            target.write_bytes(source.read_bytes())
        store = HardwareStore(tmp_path / "opteron")
        hardware = served(store, "opteron-gige")
        assert store.stats_snapshot().misses == 2
        assert store.stats_snapshot().hits == 0
        assert hardware == get_machine("opteron-gige").hardware_model(
            campaign_deck(), 2, 2)

    def test_a_context_keeps_the_store_beside_the_sweep_cache(self, tmp_path):
        spec = build_spec("table2", cache_dir=str(tmp_path)).smoke()
        run_study(spec)
        store = HardwareStore(tmp_path / "hardware")
        assert len(store) == 2  # the MPI fit and the 50^3 flop profile
        context = StudyContext()
        context.cache = context.cache_for(tmp_path)
        machine = context.machine("opteron-gige")
        deck = standard_deck("validation", px=2, py=2)
        hardware = context.hardware_model(machine, deck, 2, 2)
        assert hardware == get_machine("opteron-gige").hardware_model(deck, 2, 2)
        # Read from the store, not refitted: nothing new was written.
        assert len(store) == 2

    def test_a_context_without_a_cache_stores_nothing(self, tmp_path):
        context = StudyContext()
        machine = context.machine("opteron-gige")
        hardware = context.hardware_model(machine, campaign_deck(), 2, 2)
        assert hardware == get_machine("opteron-gige").hardware_model(
            campaign_deck(), 2, 2)
        assert list(tmp_path.iterdir()) == []


class TestAblationMeasurement:
    def test_value_equals_the_engine_run(self):
        result = run_study(build_spec("ablation").smoke())
        row = PAPER_TABLES["table2"]["rows"][0]
        deck = deck_for_row(row, max_iterations=1)
        engine = get_machine("opteron-gige").simulate(
            deck, row.px, row.py, seed_offset=row.pes).elapsed_time
        assert result.payload.measured == engine

    def test_warm_ablation_has_no_cache_misses(self, tmp_path):
        spec = build_spec("ablation", cache_dir=str(tmp_path)).smoke()
        cold = run_study(spec)
        warm = run_study(spec)
        # The coarse and legacy predictions and the measurement, each
        # through the sweep cache.
        assert cold.disk_stats.misses == cold.disk_stats.stores == 3
        assert (warm.disk_stats.hits, warm.disk_stats.misses) == (3, 0)
        assert sum(warm.execution.values()) == 1
        assert warm.payload.measured == cold.payload.measured
        assert warm.phases == {}


def test_warm_studies_load_no_numpy_or_simulator(tmp_path):
    """Every smoke study, then ``run --all --smoke``, warm in a fresh
    interpreter: none loads numpy, the engine, trace replay, the trace
    cache or the simulation driver."""
    from repro.cli import main

    cache, cold, warm = tmp_path / "cache", tmp_path / "cold", tmp_path / "warm"
    assert main(["run", "--all", "--smoke", "--cache-dir", str(cache),
                 "--out", str(cold)]) == 0
    program = f"""
import json, sys
from repro.experiments.study import StudyContext, StudyRunner, study_names

forbidden = {WARM_RUN_FORBIDDEN!r}
def check(step):
    loaded = [name for name in forbidden if name in sys.modules]
    if loaded:
        print(json.dumps([step, loaded]))
        sys.exit(0)

runner = StudyRunner(cache_dir={str(cache)!r}, context=StudyContext())
for name in study_names():
    runner.run_many([name], smoke=True)
    check(name)
from repro.cli import main
if main(["run", "--all", "--smoke", "--cache-dir", {str(cache)!r},
         "--out", {str(warm)!r}]) != 0:
    sys.exit("the warm run --all --smoke failed")
check("run --all --smoke")
print(json.dumps(None))
"""
    src_dir = Path(repro.__file__).resolve().parents[1]
    output = subprocess.run([sys.executable, "-c", program],
                            env=dict(os.environ, PYTHONPATH=str(src_dir)),
                            capture_output=True, text=True)
    assert output.returncode == 0, output.stderr
    first = json.loads(output.stdout.splitlines()[-1])
    assert first is None, f"warm {first[0]} loaded {first[1]}"
    assert compare_artifact_dirs(warm, cold) == []
