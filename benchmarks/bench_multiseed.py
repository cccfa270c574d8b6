"""Benchmark: batched multi-seed trace replay vs sequential replays.

``test_batched_replay_32_samples_vs_sequential`` is the acceptance gate
of the multi-seed vectorisation: on a 256-rank modelled validation
scenario, ``CompiledTrace.replay_batch`` resolving S=32 jitter-noise
samples in one max-plus pass must be at least 5x faster than 32
sequential single-seed ``replay`` calls — with every sample bit-identical
to its sequential counterpart (elapsed time and per-rank
finish/compute/comm times).

``test_batched_replay_cold_vs_sequential`` repeats the S=32 comparison
on fresh traces from a warm trace cache, so the batched pass includes
building the wave schedule (``batch_schedule()``) and the sequential
replays read the trace's numpy columns as a first replay does.  It
records the ratio with a threshold of 1.0: the batch must still win
cold.

``test_per_seed_crossover`` pins where ``SimulationPlan.run(samples=S)``
switches from one scalar replay per seed to one batched pass
(``PER_SEED_SAMPLES``), at two points whose measured margins are wide:
per-seed replays must win at S=2 on a 4-rank trace, and the batch, wave
schedule included, at S=16 on the 64-rank 12-iteration trace.

``test_batched_daemon_noise_bit_identical`` asserts the same per-sample
identity under daemon noise and checks one sample against the reference
engine at the matched seed; its speedup is recorded for the trajectory
only.

Crossover, same VM, fresh traces with daemon noise: at S=2 on 2x2
ranks (974 events) per-seed 1.4 ms vs batch 8.1 ms; at S=16 on 8x8 ranks
x 12 iterations (278,808 events) per-seed 1.57 s vs batch 0.75 s.

Baseline on the reference container (256 ranks, 1 iteration, ~100k
events): 32 sequential jitter replays ~3.3 s vs one batched pass
~0.56 s (~5.9x); 8 daemon-noise samples: sequential ~0.4-0.5 s vs
batched ~0.12-0.15 s (~3.1-3.4x, 2-vCPU Xeon VM).  Cold variant, same
VM: 32 sequential replays ~1.3 s vs one batched pass including the
schedule build ~0.2-0.3 s (4.6-6.7x; 2.4x with the earlier per-event
schedule builder).
"""

from __future__ import annotations

import time

from gate_report import record_gate

from repro.machines.presets import get_machine
from repro.simmpi.tracecache import TraceDiskCache
from repro.simnet.noise import NoiseModel
from repro.sweep3d.driver import PER_SEED_SAMPLES
from repro.sweep3d.input import standard_deck

#: Noise seeds resolved per batched pass.
SAMPLES = 32

#: Ranks of the benchmark scenario (the sweep grid the speculative
#: studies actually sample; big enough that per-event Python overhead,
#: not numpy dispatch, dominates the sequential path).
PX, PY = 16, 16


def _plan_256_ranks(machine, trace_cache=None):
    deck = standard_deck("validation", px=PX, py=PY, max_iterations=1)
    return machine.simulation_plan(deck, PX, PY, trace_cache=trace_cache)


def _jitter_noise(machine, seed=0):
    """The machine's jitter amplitudes without daemon noise (the
    vectorised draw path, and the dominant spread in practice)."""
    return NoiseModel(seed=seed,
                      compute_jitter=machine.compute_jitter,
                      network_jitter=machine.network_jitter,
                      daemon_interval=0.0)


def _sample_key(sim):
    return (sim.elapsed_time,
            tuple((r.finish_time, r.compute_time, r.comm_time)
                  for r in sim.ranks))


def test_batched_replay_32_samples_vs_sequential():
    """One replay_batch pass at S=32 is >=5x 32 sequential replays."""
    machine = get_machine("hypothetical-opteron-myrinet")
    plan = _plan_256_ranks(machine)
    trace = plan.compile_trace()
    noise = _jitter_noise(machine)
    seeds = [noise.seed + offset for offset in range(SAMPLES)]

    batch = trace.replay_batch(seeds, noise)
    singles = [trace.replay(noise.reseeded(seed)) for seed in seeds]
    for index, single in enumerate(singles):
        assert batch.elapsed[index] == single.elapsed_time
        assert _sample_key(batch.sample(index)) == _sample_key(single)

    best_speedup = 0.0
    for _ in range(2):                          # one retry guards against noise
        start = time.perf_counter()
        for seed in seeds:
            trace.replay(noise.reseeded(seed))
        sequential_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        trace.replay_batch(seeds, noise)
        batched_elapsed = time.perf_counter() - start
        best_speedup = max(best_speedup, sequential_elapsed / batched_elapsed)
        if best_speedup >= 5.0:
            break
    print(f"\n{PX}x{PY} ranks, S={SAMPLES} jitter samples: sequential "
          f"{sequential_elapsed:.2f} s, batched {batched_elapsed:.2f} s, "
          f"speedup {best_speedup:.1f}x ({trace.describe()})")
    record_gate("multiseed_batch_vs_sequential_256rank", best_speedup, 5.0)
    assert best_speedup >= 5.0


def test_batched_replay_cold_vs_sequential(tmp_path):
    """S=32 batched pass, schedule build included, beats 32 replays."""
    machine = get_machine("hypothetical-opteron-myrinet")
    cache = TraceDiskCache(tmp_path)
    _plan_256_ranks(machine, trace_cache=cache).compile_trace()
    noise = _jitter_noise(machine)
    seeds = [noise.seed + offset for offset in range(SAMPLES)]

    best_speedup = 0.0
    for _ in range(2):                          # one retry guards against noise
        trace = _plan_256_ranks(machine, trace_cache=cache).compile_trace()
        start = time.perf_counter()
        singles = [trace.replay(noise.reseeded(seed)) for seed in seeds]
        sequential_elapsed = time.perf_counter() - start
        trace = _plan_256_ranks(machine, trace_cache=cache).compile_trace()
        start = time.perf_counter()
        batch = trace.replay_batch(seeds, noise)
        batched_elapsed = time.perf_counter() - start
        for index, single in enumerate(singles):
            assert _sample_key(batch.sample(index)) == _sample_key(single)
        best_speedup = max(best_speedup, sequential_elapsed / batched_elapsed)
        if best_speedup >= 1.0:
            break
    print(f"\n{PX}x{PY} ranks, S={SAMPLES} on fresh traces: sequential "
          f"{sequential_elapsed:.2f} s, batched incl. schedule build "
          f"{batched_elapsed:.2f} s, speedup {best_speedup:.1f}x")
    record_gate("multiseed_batch_cold_vs_sequential_256rank", best_speedup,
                1.0)
    assert best_speedup >= 1.0


def test_per_seed_crossover(tmp_path):
    """Per-seed replays win below the crossover, the batch above it."""
    machine = get_machine("pentium3-myrinet")
    cache = TraceDiskCache(tmp_path)
    noise = machine.noise_model(0)              # daemon noise on
    cases = {"per_seed": (2, 2, 1), "batch": (16, 8, 12)}
    assert cases["per_seed"][0] <= PER_SEED_SAMPLES < cases["batch"][0]

    def fresh_trace(ranks, iterations):
        deck = standard_deck("validation", px=ranks, py=ranks,
                             max_iterations=iterations)
        return machine.simulation_plan(
            deck, ranks, ranks, trace_cache=cache).compile_trace()

    times = {}
    margins = {}
    for _ in range(2):                          # one retry guards against noise
        for winner, (samples, ranks, iterations) in cases.items():
            seeds = [noise.seed + offset for offset in range(samples)]
            trace = fresh_trace(ranks, iterations)
            start = time.perf_counter()
            per_seed = trace.replay_seeds(seeds, noise)
            per_seed_elapsed = time.perf_counter() - start
            trace = fresh_trace(ranks, iterations)
            start = time.perf_counter()
            batch = trace.replay_batch(seeds, noise)
            batch_elapsed = time.perf_counter() - start
            assert per_seed.elapsed.tolist() == batch.elapsed.tolist()
            assert per_seed.comm.tolist() == batch.comm.tolist()
            times[winner] = (per_seed_elapsed, batch_elapsed)
            margin = (batch_elapsed / per_seed_elapsed if winner == "per_seed"
                      else per_seed_elapsed / batch_elapsed)
            margins[winner] = max(margins.get(winner, 0.0), margin)
        if min(margins.values()) >= 1.0:
            break
    report = ", ".join(
        f"S={cases[winner][0]} on {cases[winner][1]}x{cases[winner][1]} "
        f"ranks x{cases[winner][2]}: per-seed {times[winner][0] * 1e3:.1f} "
        f"ms, batch {times[winner][1] * 1e3:.1f} ms"
        for winner in cases)
    print(f"\ncrossover at PER_SEED_SAMPLES={PER_SEED_SAMPLES}: {report}")
    record_gate("multiseed_per_seed_crossover", min(margins.values()), 1.0,
                unit="x margin of the faster loop at each side",
                details={"per_seed_margin_s2": margins["per_seed"],
                         "batch_margin_s16": margins["batch"]})
    assert margins["per_seed"] >= 1.0, report
    assert margins["batch"] >= 1.0, report


def test_batched_daemon_noise_bit_identical():
    """Daemon-noise samples equal sequential replays and the engine."""
    machine = get_machine("hypothetical-opteron-myrinet")
    plan = _plan_256_ranks(machine)
    trace = plan.compile_trace()
    noise = machine.noise_model(0)              # daemon noise on
    seeds = [noise.seed + offset for offset in range(8)]

    batch = trace.replay_batch(seeds, noise)
    for index, seed in enumerate(seeds):
        single = trace.replay(noise.reseeded(seed))
        assert batch.elapsed[index] == single.elapsed_time
        assert _sample_key(batch.sample(index)) == _sample_key(single)

    # One engine run closes the chain: batch sample == replay == engine.
    engine_run = plan.run(noise=machine.noise_model(0), mode="engine")
    assert batch.elapsed[0] == engine_run.elapsed_time
    assert _sample_key(batch.sample(0)) == _sample_key(engine_run.simulation)

    speedup = 0.0
    for _ in range(2):                          # one retry guards against noise
        start = time.perf_counter()
        for seed in seeds:
            trace.replay(noise.reseeded(seed))
        sequential_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        trace.replay_batch(seeds, noise)
        batched_elapsed = time.perf_counter() - start
        speedup = max(speedup, sequential_elapsed / batched_elapsed)
        if speedup >= 1.0:
            break
    print(f"\n{PX}x{PY} ranks, 8 daemon-noise samples: sequential "
          f"{sequential_elapsed:.2f} s, batched {batched_elapsed:.2f} s, "
          f"speedup {speedup:.1f}x")
    # The identity is the gate here; the speedup is recorded for the
    # trajectory only and must merely stay close to parity (no
    # regression vs sequential).
    record_gate("multiseed_batch_daemon_256rank", speedup, 0.8)
    assert speedup >= 0.8


def test_batched_replay_speed():
    """One S=32 batched pass over a 256-rank trace."""
    machine = get_machine("hypothetical-opteron-myrinet")
    plan = _plan_256_ranks(machine)
    trace = plan.compile_trace()
    noise = _jitter_noise(machine)
    seeds = [noise.seed + offset for offset in range(SAMPLES)]

    batch = trace.replay_batch(seeds, noise)
    assert batch.elapsed_mean > 0
