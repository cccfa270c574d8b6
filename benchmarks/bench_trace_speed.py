"""Benchmark: trace-compiled replay of modelled simulated runs.

``test_trace_replay_16_rank_vs_engine`` is the acceptance gate of the
trace-replay optimisation: on a 16-rank modelled validation scenario the
compiled trace (``SimulationPlan.compile_trace()`` — the event stream
recorded once, each run resolved as a vectorised max-plus recurrence)
must replay at least 10x faster than a ``ClusterEngine`` run of the same
plan, with bit-identical results — same elapsed time, same per-rank
finish/compute/comm times, same message and traffic statistics.

``test_trace_replay_noisy_bit_identical`` asserts the same identity for
noisy runs at matched seeds (the noise streams are drawn at the recorded
draw sites in exactly the engine's order) and records the noisy-replay
speedup.

``test_trace_smoke_studies_bit_identical`` is the end-to-end gate: a
``run --all --smoke`` pass with trace replay enabled (the default,
``sim_execution="auto"``) produces row/CSV artifacts bit-identical to the
forced engine path for all nine registered studies.

Baseline on the reference container (16 ranks, 2 iterations, ~10k
events): engine ~40 ms/run vs replay ~1.7 ms/run (~24x); trace capture
~27 ms (less than one engine run, so even a single-shot scenario grid is
not slower); noisy replay with daemon noise ~5.5 ms vs ~120 ms for the
noisy engine run (~22x, 2-vCPU Xeon VM).
"""

from __future__ import annotations

import time

from gate_report import record_gate

from repro.experiments.artifacts import write_study_artifacts
from repro.experiments.study import build_spec, get_study, run_studies, study_names
from repro.machines.presets import get_machine
from repro.sweep3d.input import standard_deck

#: Source iterations per simulated run (kept small; scales both paths).
ITERATIONS = 2

#: Runs per timing sample (replay is fast; average out timer noise).
RUNS = 5


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


def _plan_16_ranks(machine):
    deck = standard_deck("validation", px=4, py=4, max_iterations=ITERATIONS)
    return machine.simulation_plan(deck, 4, 4)


def test_trace_replay_16_rank_vs_engine():
    """Replay is >=10x the engine on a 16-rank modelled scenario, bit-identical."""
    machine = get_machine("pentium3-myrinet")
    plan = _plan_16_ranks(machine)

    reference = plan.run(mode="engine")         # warms the cost table
    trace = plan.compile_trace()
    replayed = plan.run(mode="replay")
    assert _result_key(replayed) == _result_key(reference)
    assert trace.n_messages == reference.total_messages

    best_speedup = 0.0
    for _ in range(2):                          # one retry guards against noise
        start = time.perf_counter()
        for _ in range(RUNS):
            plan.run(mode="engine")
        engine_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(RUNS):
            plan.run(mode="replay")
        replay_elapsed = time.perf_counter() - start
        best_speedup = max(best_speedup, engine_elapsed / replay_elapsed)
        if best_speedup >= 10.0:
            break
    print(f"\n16-rank modelled run: engine {engine_elapsed / RUNS * 1e3:.1f} ms, "
          f"replay {replay_elapsed / RUNS * 1e3:.2f} ms, "
          f"speedup {best_speedup:.1f}x ({trace.describe()})")
    record_gate("trace_replay_vs_engine_16rank", best_speedup, 10.0)
    assert best_speedup >= 10.0


def test_trace_replay_noisy_bit_identical():
    """Noisy replays at matched seeds equal the engine bit for bit."""
    machine = get_machine("pentium3-myrinet")
    plan = _plan_16_ranks(machine)

    for seed in (1, 17, 4242):
        engine_run = plan.run(noise=machine.noise_model(seed), mode="engine")
        replay_run = plan.run(noise=machine.noise_model(seed), mode="replay")
        assert _result_key(replay_run) == _result_key(engine_run)

    start = time.perf_counter()
    for _ in range(RUNS):
        plan.run(noise=machine.noise_model(7), mode="engine")
    engine_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(RUNS):
        plan.run(noise=machine.noise_model(7), mode="replay")
    replay_elapsed = time.perf_counter() - start
    speedup = engine_elapsed / replay_elapsed
    print(f"\nnoisy 16-rank run: engine {engine_elapsed / RUNS * 1e3:.1f} ms, "
          f"replay {replay_elapsed / RUNS * 1e3:.2f} ms, speedup {speedup:.1f}x")
    # The identity is the gate here; the speedup is recorded for the
    # trajectory only.
    record_gate("trace_replay_noisy_16rank", speedup, 1.0)
    assert speedup >= 1.0


def test_trace_capture_amortises_within_one_run():
    """Capture + replay does not cost more than ~2 engine runs.

    The backend trace-replays every modelled scenario by default, so a
    grid whose every point is evaluated once must not regress: the
    capture pass (generators driven once through the engine's own loop)
    plus one replay has to stay in the same ballpark as a single engine
    run (1.3-1.7x on a 2-vCPU VM; the bound leaves headroom for loaded
    CI runners, and a best-of-2 retry absorbs one-off hiccups).
    """
    machine = get_machine("pentium3-myrinet")

    plan = _plan_16_ranks(machine)
    plan.run(mode="engine")                     # warm the cost table
    start = time.perf_counter()
    for _ in range(3):
        plan.run(mode="engine")
    engine_elapsed = (time.perf_counter() - start) / 3

    best_ratio = float("inf")
    for _ in range(2):                          # one retry guards against noise
        fresh = _plan_16_ranks(machine)
        start = time.perf_counter()
        fresh.compile_trace()
        fresh.run(noise=machine.noise_model(3), mode="replay")
        cold_elapsed = time.perf_counter() - start
        best_ratio = min(best_ratio, cold_elapsed / engine_elapsed)
        if best_ratio <= 2.0:
            break
    print(f"\ncold capture+replay {cold_elapsed * 1e3:.1f} ms vs engine "
          f"{engine_elapsed * 1e3:.1f} ms (best ratio {best_ratio:.2f})")
    # record_gate treats higher as better; record engine-runs-per-cold-start.
    record_gate("trace_cold_capture_vs_engine", 1.0 / best_ratio, 0.5,
                unit="engine runs per cold capture+replay (inverse ratio)")
    assert best_ratio <= 2.0


def test_trace_smoke_studies_bit_identical(tmp_path):
    """run --all --smoke with replay == the engine path, all nine studies.

    ``sim_execution`` is a spec parameter, so the two runs have different
    spec hashes by construction; the identity that matters — and is
    asserted — is the produced data: per-study columns, rows and CSV
    bytes.
    """
    auto_specs, engine_specs = [], []
    for name in study_names():
        auto_specs.append(build_spec(name).smoke())
        params = {}
        if "sim_execution" in get_study(name).defaults:
            params["sim_execution"] = "engine"
        engine_specs.append(build_spec(name, **params).smoke())

    auto_results = run_studies(auto_specs)
    engine_results = run_studies(engine_specs)
    write_study_artifacts(auto_results, tmp_path / "auto")
    write_study_artifacts(engine_results, tmp_path / "engine")

    assert len(auto_results) == len(engine_results) == len(study_names())
    for auto, engine in zip(auto_results, engine_results):
        assert auto.spec.study == engine.spec.study
        assert auto.columns == engine.columns
        assert auto.rows == engine.rows, f"{auto.spec.study} rows differ"
        name = auto.spec.study
        auto_csv = (tmp_path / "auto" / f"{name}.csv").read_bytes()
        engine_csv = (tmp_path / "engine" / f"{name}.csv").read_bytes()
        assert auto_csv == engine_csv, f"{name} CSV differs"
    record_gate("trace_smoke_studies_identical", 1.0, 1.0, unit="identical")


def test_trace_replay_speed():
    """One 16-rank noisy replay of a compiled trace."""
    machine = get_machine("pentium3-myrinet")
    plan = _plan_16_ranks(machine)
    plan.compile_trace()

    result = plan.run(noise=machine.noise_model(4), mode="replay")
    assert result.elapsed_time > 0
