"""Benchmark: steady-state cycle-mean tier vs full trace replay.

``test_steady_vs_replay_4x4_long_run`` is the acceptance gate of the
periodic-trace steady-state tier: on a 16-rank modelled validation
scenario iterated long enough that the periodic bulk dominates
(~320 source iterations, ~1.65M events), ``SimulationPlan.run
(mode="steady")`` — which replays the two recorded iterations and
extrapolates the other 318 by the second one's clock advance — must
resolve the run at least 20x faster than the full O(events) trace
replay, bit-identical down to the last rank counter: same elapsed time,
per-rank finish/compute/comm times, message and traffic statistics.

``test_steady_vs_replay_cold_from_trace_cache`` times the same run on
fresh plans served from a warm trace cache, so each side also pays for
what it builds on a capture it has not seen before: the replay walks
the cached recording and then its second iteration once per tile from
the numpy columns, the steady tier replays the two recorded iterations.
Steady must stay at least 3x faster.

``test_steady_refuses_loudly_and_falls_back`` locks the other half of
the contract: on a machine whose cost table is not quantised (sums of
its durations are not exactly representable), the steady tier must
*refuse* — recording the reason on ``plan.last_steady_refusal`` — and
fall back to a replay that still matches the engine bit for bit.
Silent wrong-but-fast extrapolation is the failure mode this guards.

``test_steady_from_probe_64rank`` is the steady tier's memory gate: on
the capture gate's 64-rank x 100-iteration deck a fresh plan's
``run(mode="steady")`` must resolve the run from the periodic capture's
two recorded iterations alone (``tile_trace`` patched to raise),
bit-identical to ``compile_trace().replay()`` on a second plan, the run's
reference, and that reference's tracemalloc peak must be at least 4x the
steady path's (2-vCPU VM: 31.7 vs 1.7 MiB, 18.3x).

``test_steady_scaling_smoke_uses_steady_tier`` is the end-to-end gate:
the ``steady-scaling`` study's smoke grid, run with the default
``sim_execution="auto"``, must actually land every scenario on the
steady tier (per-scenario execution counts in ``StudyResult.execution``)
and produce rows identical to the forced-engine path modulo the tier
column itself.

On a 2-vCPU Xeon VM (16 ranks, 320 iterations, ~1.65M events) the full
replay takes ~0.5 s/run and the steady tier, replaying two recorded
iterations, ~4 ms/run (139x in one run); the one-off capture is shared
by both paths.  Cold, from cache entries holding the capture, steady
resolves a fresh plan in ~5 ms against ~0.5 s for the replay (109x).
"""

from __future__ import annotations

import time
import tracemalloc

from gate_report import record_gate

import repro.sweep3d.driver as driver
from repro.experiments.study import build_spec, run_study
from repro.machines.presets import get_machine
from repro.simmpi.tracecache import TraceDiskCache
from repro.sweep3d.driver import SimulationPlan
from repro.sweep3d.input import Sweep3DInput, standard_deck

#: Source iterations per simulated run.  Long enough that the periodic
#: bulk dwarfs the two recorded iterations the steady tier replays.
ITERATIONS = 320

#: Runs per timing sample (the steady pass is fast; average timer noise).
RUNS = 3


def _result_key(run):
    """Everything the gate compares, down to the last bit."""
    sim = run.simulation
    return (
        sim.elapsed_time,
        tuple((r.finish_time, r.compute_time, r.comm_time, r.messages_sent,
               r.bytes_sent, r.messages_received, r.bytes_received)
              for r in sim.ranks),
        sim.traffic.messages,
        sim.traffic.bytes,
        sim.traffic.intra_node_messages,
        sim.traffic.inter_node_messages,
        tuple(sorted(sim.traffic.by_tag.items())),
        tuple(run.error_history),
    )


def _long_plan(machine, iterations=ITERATIONS, trace_cache=None):
    deck = standard_deck("validation", px=4, py=4, max_iterations=iterations)
    return machine.simulation_plan(deck, 4, 4, trace_cache=trace_cache)


def test_steady_vs_replay_4x4_long_run():
    """Steady tier is >=20x a full replay on a long 16-rank run."""
    machine = get_machine("steady")              # quantised cost table
    plan = _long_plan(machine)
    trace = plan.compile_trace()

    replayed = plan.run(mode="replay")
    steadied = plan.run(mode="steady")
    assert plan.last_execution == "steady", plan.last_steady_refusal
    assert plan.steadies >= 1
    assert _result_key(steadied) == _result_key(replayed)

    # A short engine run closes the chain on the same machine: the tiers
    # agree with the per-event reference, not merely with each other.
    short = _long_plan(machine, iterations=12)
    assert _result_key(short.run(mode="steady")) == \
        _result_key(short.run(mode="engine"))

    best_speedup = 0.0
    for _ in range(2):                          # one retry guards against noise
        start = time.perf_counter()
        for _ in range(RUNS):
            plan.run(mode="replay")
        replay_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(RUNS):
            plan.run(mode="steady")
        steady_elapsed = time.perf_counter() - start
        best_speedup = max(best_speedup, replay_elapsed / steady_elapsed)
        if best_speedup >= 20.0:
            break
    print(f"\n16-rank x{ITERATIONS}-iteration run: replay "
          f"{replay_elapsed / RUNS * 1e3:.0f} ms, steady "
          f"{steady_elapsed / RUNS * 1e3:.1f} ms, "
          f"speedup {best_speedup:.1f}x ({trace.describe()})")
    record_gate("steady_vs_replay_16rank_long", best_speedup, 20.0)
    assert best_speedup >= 20.0


def test_steady_vs_replay_cold_from_trace_cache(tmp_path):
    """On fresh plans from a warm trace cache, steady is >=3x replay."""
    machine = get_machine("steady")
    cache = TraceDiskCache(tmp_path)
    _long_plan(machine, trace_cache=cache).compile_trace()

    def timed_run(mode):
        plan = _long_plan(machine, trace_cache=cache)
        start = time.perf_counter()
        run = plan.run(mode=mode)
        elapsed = time.perf_counter() - start
        assert plan.last_capture.mode == "cache"
        assert plan.last_execution == mode, plan.last_steady_refusal
        return _result_key(run), elapsed

    best_speedup = 0.0
    for _ in range(2):                          # one retry guards against noise
        replay_elapsed = steady_elapsed = 0.0
        for _ in range(RUNS):
            replayed, elapsed = timed_run("replay")
            replay_elapsed += elapsed
            steadied, elapsed = timed_run("steady")
            steady_elapsed += elapsed
            assert steadied == replayed
        best_speedup = max(best_speedup, replay_elapsed / steady_elapsed)
        if best_speedup >= 3.0:
            break
    print(f"\n16-rank x{ITERATIONS}-iteration run on a fresh plan: replay "
          f"{replay_elapsed / RUNS * 1e3:.0f} ms, steady "
          f"{steady_elapsed / RUNS * 1e3:.0f} ms, speedup "
          f"{best_speedup:.1f}x")
    record_gate("steady_vs_replay_16rank_cold", best_speedup, 3.0)
    assert best_speedup >= 3.0


def test_steady_refuses_loudly_and_falls_back():
    """Non-dyadic costs refuse with a reason; the fallback stays exact."""
    machine = get_machine("hypothetical-opteron-myrinet")   # continuous
    plan = _long_plan(machine, iterations=12)

    run = plan.run(mode="steady")
    assert plan.last_execution == "replay"
    assert plan.steadies == 0
    assert "dyadic" in plan.last_steady_refusal
    assert _result_key(run) == _result_key(plan.run(mode="engine"))

    # Noise refuses too — extrapolation would erase the drawn stream.
    quantised = _long_plan(get_machine("steady"), iterations=12)
    noisy = quantised.run(noise=machine.noise_model(3), mode="steady")
    assert quantised.last_execution == "replay"
    assert "noise" in quantised.last_steady_refusal
    assert _result_key(noisy) == \
        _result_key(quantised.run(noise=machine.noise_model(3), mode="engine"))
    record_gate("steady_loud_fallback_identical", 1.0, 1.0, unit="identical")


def test_steady_from_probe_64rank(monkeypatch):
    """A periodic run resolves from its capture: no table, >=4x less
    memory than the table's replay."""
    machine = get_machine("steady")
    deck = Sweep3DInput(it=16, jt=16, kt=10, mk=10, mmi=3, sn=6,
                        max_iterations=100)     # the capture gate's deck

    def fresh_plan():
        return SimulationPlan(deck, 8, 8, machine.topology,
                              processor=machine.processor)

    def peak_mib(resolve):
        tracemalloc.start()
        try:
            result = resolve()
            return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def no_table(*args, **kwargs):
        raise AssertionError("the steady tier tiled the trace")

    probe_plan = fresh_plan()
    with monkeypatch.context() as patch:
        patch.setattr(driver, "tile_trace", no_table)
        run, probe_peak = peak_mib(lambda: probe_plan.run(mode="steady"))
    assert probe_plan.last_capture.mode == "periodic"
    assert probe_plan.last_execution == "steady", \
        probe_plan.last_steady_refusal
    tiled_plan = fresh_plan()
    tiled, tiled_peak = peak_mib(
        lambda: tiled_plan.compile_trace().replay())
    assert repr(run.simulation) == repr(tiled)

    ratio = tiled_peak / probe_peak
    print(f"\n64-rank x100-iteration steady run: tracemalloc peak "
          f"{probe_peak:.1f} MiB from the capture vs {tiled_peak:.1f} MiB "
          f"replaying the tiled trace ({ratio:.1f}x)")
    record_gate("steady_probe_vs_tiled_memory_64rank", ratio, 4.0,
                unit="x less peak memory",
                details={"probe_mib": probe_peak, "tiled_mib": tiled_peak})
    assert ratio >= 4.0


def test_steady_scaling_smoke_uses_steady_tier():
    """steady-scaling smoke lands on the steady tier, rows == engine."""
    auto = run_study(build_spec("steady-scaling").smoke())
    engine = run_study(build_spec("steady-scaling",
                                  sim_execution="engine").smoke())

    assert sum(auto.execution.values()) == len(auto.rows)
    assert auto.execution == {"steady": len(auto.rows)}
    assert engine.execution == {"engine": len(engine.rows)}
    assert auto.rows == engine.rows
    record_gate("steady_scaling_smoke_identical", 1.0, 1.0, unit="identical")


def test_steady_replay_speed():
    """One steady-tier resolution after the table was tiled."""
    machine = get_machine("steady")
    plan = _long_plan(machine)
    plan.compile_trace()

    result = plan.run(mode="steady")
    assert result.elapsed_time > 0
