"""Tests for the steady-state execution tier (repro.simmpi.steady).

The tier's contract is *bit-identical or refuse*: every accepted trace
resolves to exactly the replay/engine result, and every precondition
failure raises :class:`~repro.simmpi.steady.SteadyStateError` with a
reason.  The synthetic programs below use dyadic durations (powers of
two and their small integer multiples) so the exactness precondition
holds by construction; the non-dyadic and noisy variants check the loud
refusals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simmpi.steady as steady
import repro.sweep3d.driver as driver
from repro.machines.presets import get_machine
from repro.simmpi.capture import (
    PeriodicCapture,
    periodic_capture,
    tile_trace,
)
from repro.simmpi.engine import ClusterEngine
from repro.simmpi.steady import (
    MIN_REPEATS,
    SteadyNeedsTrace,
    SteadyStateError,
    _signatures,
    describe_steady,
    detect_period,
    steady_replay,
)
from repro.simmpi.trace import EV_COLLECTIVE, CompiledTrace, TraceRecorder
from repro.simmpi.tracecache import TraceDiskCache
from repro.simnet.link import LinkModel
from repro.simnet.noise import NoiseModel
from repro.simnet.topology import ClusterTopology
from repro.sweep3d.input import Sweep3DInput, standard_deck


def result_key(sim):
    """Every observable of a simulation result (bitwise comparison)."""
    return (sim.elapsed_time,
            tuple((r.finish_time, r.compute_time, r.comm_time,
                   r.messages_sent, r.bytes_sent, r.messages_received,
                   r.bytes_received, r.return_value) for r in sim.ranks),
            sim.traffic.messages, sim.traffic.bytes,
            sim.traffic.intra_node_messages, sim.traffic.inter_node_messages,
            tuple(sorted(sim.traffic.by_tag.items())))


@pytest.fixture(scope="module")
def topology():
    # Every timing parameter is dyadic, so modelled durations are exact
    # integer multiples of a power-of-two quantum (steady-eligible).
    link = LinkModel(name="dyadic", latency=2.0**-17, bandwidth=2.0**27,
                     eager_threshold=1024, send_overhead=2.0**-19,
                     recv_overhead=2.0**-19, per_byte_cpu=2.0**-32)
    return ClusterTopology(name="dyadic-cluster", processors_per_node=2,
                           inter_node=link)


def ping_pong_loop(iterations, compute=2.0**-10, nbytes=256,
                   reply_nbytes=512):
    """A two-rank loop whose body repeats bit-identically."""
    def program(comm):
        peer = 1 - comm.rank
        for _ in range(iterations):
            yield comm.compute(compute * (comm.rank + 1))
            if comm.rank == 0:
                yield comm.send(None, dest=peer, tag=1, nbytes=nbytes)
                yield comm.recv(source=peer, tag=2)
            else:
                yield comm.recv(source=peer, tag=1)
                yield comm.send(None, dest=peer, tag=2, nbytes=reply_nbytes)
    return program


def record(topology, program, nranks=2):
    return TraceRecorder(topology).record(program, nranks)


def rendezvous_deck(px, py, iterations):
    """200x200x100 cells per rank: every face message is rendez-vous."""
    return Sweep3DInput(it=200 * px, jt=200 * py, kt=100, mk=10, mmi=3,
                        sn=6, max_iterations=iterations)


class TestPeriodDetector:
    def test_detects_the_loop_body(self, topology):
        trace = record(topology, ping_pong_loop(12))
        info = detect_period(trace)
        assert info.periodic
        # One loop iteration: 2 computes + 2 sends + 2 matches.
        assert info.period == 6
        assert info.sends_per_period == 2
        assert info.warmup + info.repeats * info.period + info.drain \
            == trace.n_events
        assert info.repeats >= MIN_REPEATS
        assert "periodic" in info.describe()
        assert "2 send(s)/period" in info.describe()

    def test_aperiodic_durations_refuse(self, topology):
        def program(comm):
            for index in range(12):
                # The duration changes every iteration: no repeating
                # suffix exists at any candidate period.
                yield comm.compute(2.0**-10 * (index + 1))

        info = detect_period(record(topology, program, nranks=1))
        assert not info.periodic
        assert "aperiodic" in info.describe()

    def test_too_few_repetitions_refuse(self, topology):
        trace = record(topology, ping_pong_loop(MIN_REPEATS - 2))
        info = detect_period(trace)
        assert not info.periodic
        assert f">= {MIN_REPEATS} repetitions" in info.reason

    def test_changed_message_size_breaks_the_period(self, topology):
        def program(comm):
            peer = 1 - comm.rank
            for index in range(12):
                # The payload grows each iteration: the event signature
                # (which hashes nbytes) never repeats.
                nbytes = 64 * (index + 1)
                if comm.rank == 0:
                    yield comm.send(None, dest=peer, tag=1, nbytes=nbytes)
                else:
                    yield comm.recv(source=peer, tag=1)
                yield comm.compute(2.0**-10)

        assert not detect_period(record(topology, program)).periodic

    def test_rendezvous_warm_up_moves_past_slot_failures(self):
        # 200x200x100 cells per rank: every face message is rendez-vous
        # sized, and a few early receives match warm-up sends numbered in
        # another order than later periods' while signatures repeat.
        machine = get_machine("steady")
        deck = rendezvous_deck(2, 2, 12)
        trace = machine.simulation_plan(deck, 2, 2)._record_trace()
        info = detect_period(trace)
        assert info.periodic and info.repeats >= MIN_REPEATS
        sig = _signatures(trace)
        mismatch = np.flatnonzero(sig[info.period:] != sig[:-info.period])
        assert mismatch[-1] + 1 < info.warmup
        assert info.warmup + info.repeats * info.period + info.drain \
            == trace.n_events

    def test_describe_steady_reports_eligibility(self, topology):
        trace = record(topology, ping_pong_loop(12))
        assert "steady-eligible" in describe_steady(trace)
        assert "steady-eligible" in trace.describe()

    def test_describe_steady_reports_continuous_timebase(self, topology):
        trace = record(topology, ping_pong_loop(12, compute=1e-3))
        assert "steady refuses" in describe_steady(trace)


class TestBitIdentity:
    def assert_steady_matches(self, topology, program, nranks=2):
        trace = record(topology, program, nranks)
        steady = steady_replay(trace)
        assert result_key(steady) == result_key(trace.replay())
        reference = ClusterEngine(topology).run(program, nranks)
        assert result_key(steady) == result_key(reference)
        assert trace.steady_replays == 1

    def test_eager_ping_pong(self, topology):
        self.assert_steady_matches(topology, ping_pong_loop(12))

    def test_rendezvous_messages(self, topology):
        # 1 MiB >> the 1 KiB eager threshold: rendez-vous protocol.
        self.assert_steady_matches(
            topology, ping_pong_loop(10, nbytes=2**20, reply_nbytes=2**20))

    def test_mixed_protocols_and_collectives(self, topology):
        def program(comm):
            peer = 1 - comm.rank
            for _ in range(14):
                yield comm.compute(2.0**-11 * (comm.rank + 1))
                if comm.rank == 0:
                    yield comm.send(None, dest=peer, tag=1, nbytes=256)
                    yield comm.recv(source=peer, tag=2)
                    yield comm.send(None, dest=peer, tag=3, nbytes=2**20)
                else:
                    yield comm.recv(source=peer, tag=1)
                    yield comm.send(None, dest=peer, tag=2, nbytes=512)
                    yield comm.recv(source=peer, tag=3)
                yield comm.allreduce(float(comm.rank), op="max")

        self.assert_steady_matches(topology, program)

    def test_ring_with_collectives(self, topology):
        def program(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            for _ in range(15):
                yield comm.compute(2.0**-11 * (comm.rank + 1))
                yield comm.send(None, dest=nxt, tag=1, nbytes=64)   # eager
                yield comm.recv(source=prv, tag=1)
                yield comm.allreduce(float(comm.rank), op="max")

        self.assert_steady_matches(topology, program, nranks=3)

    def test_single_rank_compute_loop(self, topology):
        def program(comm):
            for _ in range(8):
                yield comm.compute(2.0**-9)
                yield comm.allreduce(1.0, op="sum")

        self.assert_steady_matches(topology, program, nranks=1)

    def test_warmup_and_drain_are_replayed(self, topology):
        def program(comm):
            peer = 1 - comm.rank
            yield comm.compute(2.0**-8)            # warm-up, never repeats
            for _ in range(10):
                yield comm.compute(2.0**-10 * (comm.rank + 1))
                if comm.rank == 0:
                    yield comm.send(None, dest=peer, tag=1, nbytes=256)
                    yield comm.recv(source=peer, tag=2)
                else:
                    yield comm.recv(source=peer, tag=1)
                    yield comm.send(None, dest=peer, tag=2, nbytes=512)
            # A partial repetition of the loop body: the detector is
            # suffix-periodic, so the drain must look like the body's
            # prefix (a unique epilogue would make the trace aperiodic).
            yield comm.compute(2.0**-10 * (comm.rank + 1))

        trace = record(topology, program)
        info = detect_period(trace)
        assert info.periodic
        assert info.warmup > 0
        assert info.drain > 0
        self.assert_steady_matches(topology, program)

    @settings(max_examples=12, deadline=None)
    @given(iterations=st.integers(min_value=15, max_value=24),
           compute_exp=st.integers(min_value=-14, max_value=-8),
           log_nbytes=st.integers(min_value=6, max_value=21),
           nranks=st.integers(min_value=1, max_value=3))
    def test_property_steady_equals_replay_and_engine(
            self, topology, iterations, compute_exp, log_nbytes, nranks):
        if nranks == 3 and 2**log_nbytes > 1024:
            # An odd-count ring of rendez-vous exchanges never settles
            # into a periodic capture order: the tier refuses it (covered
            # by the refusal tests), so the bit-identity property keeps
            # to the accepted shapes.
            log_nbytes = 9

        def program(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            for _ in range(iterations):
                yield comm.compute(2.0**compute_exp * (comm.rank + 1))
                if comm.size > 1:
                    # Even/odd ordering: a ring of blocking rendez-vous
                    # sends would deadlock.
                    if comm.rank % 2 == 0:
                        yield comm.send(None, dest=nxt, tag=1,
                                        nbytes=2**log_nbytes)
                        yield comm.recv(source=prv, tag=1)
                    else:
                        yield comm.recv(source=prv, tag=1)
                        yield comm.send(None, dest=nxt, tag=1,
                                        nbytes=2**log_nbytes)
                yield comm.allreduce(float(comm.rank), op="sum")

        trace = record(topology, program, nranks)
        steady = steady_replay(trace)
        assert result_key(steady) == result_key(trace.replay())
        assert result_key(steady) == \
            result_key(ClusterEngine(topology).run(program, nranks))


class TestRefusals:
    def test_noise_refused(self, topology):
        trace = record(topology, ping_pong_loop(12))
        with pytest.raises(SteadyStateError, match="noise"):
            steady_replay(trace, NoiseModel(seed=1))

    def test_disabled_noise_accepted(self, topology):
        trace = record(topology, ping_pong_loop(12))
        steady = steady_replay(trace, NoiseModel.disabled())
        assert result_key(steady) == result_key(trace.replay())

    def test_aperiodic_trace_refused(self, topology):
        def program(comm):
            for index in range(12):
                yield comm.compute(2.0**-10 * (index + 1))

        with pytest.raises(SteadyStateError, match="not periodic"):
            steady_replay(record(topology, program, nranks=1))

    def test_non_dyadic_durations_refused(self, topology):
        # 1e-3 is not an integer multiple of the trace's dyadic quantum.
        trace = record(topology, ping_pong_loop(12, compute=1e-3))
        with pytest.raises(SteadyStateError, match="dyadic"):
            steady_replay(trace)


class TestPlanIntegration:
    @pytest.fixture(scope="class")
    def quantized_machine(self):
        return get_machine("steady")       # hypothetical-opteron-myrinet-1ns

    @pytest.fixture(scope="class")
    def plan(self, quantized_machine):
        deck = standard_deck("validation", px=2, py=2, max_iterations=12)
        return quantized_machine.simulation_plan(deck, 2, 2)

    def test_steady_matches_replay_and_engine(self, plan):
        steady = plan.run(mode="steady")
        replay = plan.run(mode="replay")
        engine = plan.run(mode="engine")
        assert result_key(steady.simulation) == result_key(replay.simulation)
        assert result_key(steady.simulation) == result_key(engine.simulation)
        assert steady.iterations == engine.iterations

    def test_counters_and_last_execution(self, plan):
        before = plan.steadies
        plan.run(mode="steady")
        assert plan.steadies == before + 1
        assert plan.last_execution == "steady"
        assert plan.last_steady_refusal is None

    def test_auto_picks_steady_when_noise_free(self, plan):
        before = plan.steadies
        plan.run(mode="auto")
        assert plan.steadies == before + 1
        assert plan.last_execution == "steady"

    def test_auto_with_noise_skips_steady(self, quantized_machine, plan):
        before = plan.steadies
        run = plan.run(mode="auto", noise=quantized_machine.noise_model(3))
        assert plan.steadies == before
        assert plan.last_execution == "replay"
        assert run.elapsed_time > 0.0

    def test_steady_mode_with_noise_falls_back_loudly(self, quantized_machine,
                                                      plan):
        plan.run(mode="steady", noise=quantized_machine.noise_model(3))
        assert plan.last_execution == "replay"
        assert "noise" in plan.last_steady_refusal

    def test_continuous_machine_falls_back_loudly(self):
        machine = get_machine("hypothetical-opteron-myrinet")
        deck = standard_deck("validation", px=2, py=2, max_iterations=12)
        plan = machine.simulation_plan(deck, 2, 2)
        run = plan.run(mode="steady")
        assert plan.last_execution == "replay"
        assert "dyadic" in plan.last_steady_refusal
        assert run.elapsed_time > 0.0

    def test_steady_rejects_multi_sample_runs(self, plan):
        with pytest.raises(ValueError, match="batched trace replay"):
            plan.run(mode="steady", samples=4)

    def test_quantized_machine_stays_close_to_continuous(self):
        continuous = get_machine("hypothetical-opteron-myrinet")
        quantized = get_machine("steady")
        deck = standard_deck("validation", px=2, py=2, max_iterations=4)
        base = continuous.simulation_plan(deck, 2, 2).run(mode="replay")
        snapped = quantized.simulation_plan(deck, 2, 2).run(mode="steady")
        assert snapped.elapsed_time == pytest.approx(base.elapsed_time,
                                                     rel=1e-4)


# ---------------------------------------------------------------------------
# Resolving a run from its periodic-capture probe
# ---------------------------------------------------------------------------


def late_receiver(iterations, lag):
    """Rank 1 receives each of rank 0's messages ``lag`` iterations late."""
    def program(comm):
        for index in range(iterations):
            yield comm.compute(2.0**-10 * (comm.rank + 1))
            if comm.rank == 0:
                yield comm.send(None, dest=1, tag=1, nbytes=64)
            elif index >= lag:
                yield comm.recv(source=0, tag=1)
            yield comm.allreduce(1.0, op="sum")
        return comm.rank
    return program


def verdict(source):
    """The steady tier's outcome for ``source``, comparable by ``==``."""
    try:
        return result_key(steady_replay(source))
    except SteadyNeedsTrace:
        return "needs the tiled trace"
    except SteadyStateError as exc:
        return f"refused: {exc}"


class TestProbeResolution:
    @pytest.mark.parametrize("lag", [1, 2, 3, 4])
    def test_unmatched_sends_bound_the_probe(self, topology, lag):
        # The probe's last `lag` sends are unmatched but the run matches
        # them: no boundary after the first of them is the probe's to
        # read, so a lock-in that needs one defers to the tiled trace.
        probe = record(topology, late_receiver(14, lag))
        info = detect_period(probe)
        tiles = 10
        capture = periodic_capture(probe, info, tiles, [0, 1], topology)
        # One allreduce per iteration.
        period = probe.event_kind[info.warmup:info.warmup + info.period]
        iterations = 14 + tiles * int(np.count_nonzero(
            period == EV_COLLECTIVE))
        want = verdict(record(topology, late_receiver(iterations, lag)))
        assert verdict(tile_trace(capture)) == want
        got = verdict(capture)
        if lag >= 3:
            assert got == "needs the tiled trace"
        else:
            assert got == want

    def test_a_complete_trace_is_the_zero_tile_case(self, topology):
        probe = record(topology, ping_pong_loop(20))
        info = detect_period(probe)
        capture = periodic_capture(probe, info, 3, probe._return_values,
                                   topology)
        assert verdict(capture) == verdict(record(topology,
                                                  ping_pong_loop(23)))
        assert probe.steady_replays == 1

    def test_the_timebase_is_judged_on_the_whole_run(self, topology):
        # Exact on the probe's own grid, but the run's total needs a grid
        # coarser than the duration's 2**-40 bit.
        probe = record(topology, ping_pong_loop(20, compute=1.0 + 2.0**-40))
        assert verdict(probe) == result_key(probe.replay())
        capture = periodic_capture(probe, detect_period(probe), 2000,
                                   probe._return_values, topology)
        want = verdict(tile_trace(capture))
        assert want.startswith("refused: durations are not integer multiples")
        assert verdict(capture) == want

    def test_columns_that_do_not_repeat_defer(self, topology):
        probe = record(topology, ping_pong_loop(20))
        info = detect_period(probe)
        capture = periodic_capture(probe, info, 3, probe._return_values,
                                   topology)
        probe._base[info.warmup] += 2.0**-20     # a warm-up change only
        assert verdict(capture) == "needs the tiled trace"


class TestPlanProbePath:
    """``plan.run(mode="steady")`` on a periodic capture (> 6 iterations)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"steady_replay": 0, "tile_trace": 0}

        def counting(name):
            original = getattr(driver, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(driver, name, wrapper)

        counting("steady_replay")
        counting("tile_trace")
        return counts

    def test_resolves_without_tiling(self, calls):
        machine = get_machine("steady")
        deck = standard_deck("validation", px=2, py=2, max_iterations=24)
        plan = machine.simulation_plan(deck, 2, 2)
        run = plan.run(mode="steady")
        assert plan.last_capture.mode == "periodic"
        assert plan.last_execution == "steady"
        assert isinstance(plan._capture, PeriodicCapture)
        assert calls == {"steady_replay": 1, "tile_trace": 0}
        reference = steady_replay(
            machine.simulation_plan(deck, 2, 2).compile_trace())
        assert repr(run.simulation) == repr(reference)

    def test_continuous_timebase_refuses_and_replays(self, calls):
        machine = get_machine("hypothetical-opteron-myrinet")
        deck = standard_deck("validation", px=2, py=2, max_iterations=24)
        plan = machine.simulation_plan(deck, 2, 2)
        run = plan.run(mode="steady")
        assert plan.last_capture.mode == "periodic"
        assert plan.last_execution == "replay"
        assert "dyadic" in plan.last_steady_refusal
        # The probe refused by itself; the table was tiled for the replay.
        assert calls == {"steady_replay": 1, "tile_trace": 1}
        engine = machine.simulation_plan(deck, 2, 2).run(mode="engine")
        assert repr(run.simulation) == repr(engine.simulation)

    def test_noise_refuses_and_replays(self, calls):
        machine = get_machine("steady")
        deck = standard_deck("validation", px=2, py=2, max_iterations=24)
        plan = machine.simulation_plan(deck, 2, 2)
        run = plan.run(mode="steady", noise=machine.noise_model(3))
        assert plan.last_execution == "replay"
        assert "noise" in plan.last_steady_refusal
        assert calls == {"steady_replay": 1, "tile_trace": 1}
        engine = machine.simulation_plan(deck, 2, 2).run(
            mode="engine", noise=machine.noise_model(3))
        assert repr(run.simulation) == repr(engine.simulation)

    def test_short_decks_resolve_from_the_probe(self, calls):
        machine = get_machine("steady")
        deck = standard_deck("validation", px=2, py=2, max_iterations=11)
        plan = machine.simulation_plan(deck, 2, 2)
        run = plan.run(mode="steady")
        assert plan.last_capture.mode == "periodic"
        assert plan.last_capture.tiles == 5
        assert isinstance(plan._capture, PeriodicCapture)
        assert plan.last_execution == "steady"
        assert calls == {"steady_replay": 1, "tile_trace": 0}
        engine = machine.simulation_plan(deck, 2, 2).run(mode="engine")
        assert repr(run.simulation) == repr(engine.simulation)

    def test_lockin_beyond_the_probe_falls_back_to_tiling(self, calls,
                                                          monkeypatch):
        machine = get_machine("steady")
        deck = standard_deck("validation", px=2, py=2, max_iterations=24)
        reference = machine.simulation_plan(deck, 2, 2)
        # The 6-iteration probe holds 5 boundaries; a lock-in run of 6
        # transitions needs more.
        monkeypatch.setattr(steady, "_LOCKIN_RUN", 6)
        plan = machine.simulation_plan(deck, 2, 2)
        run = plan.run(mode="steady")
        assert plan.last_execution == "steady"
        assert calls == {"steady_replay": 2, "tile_trace": 1}
        assert isinstance(plan._capture, CompiledTrace)
        assert repr(run.simulation) == repr(
            steady_replay(reference.compile_trace()))
        assert repr(run.simulation) == repr(
            reference.compile_trace().replay())


def _matrix_deck(kind, px, py, iterations):
    if kind == "validation":
        return standard_deck("validation", px=px, py=py,
                             max_iterations=iterations)
    return rendezvous_deck(px, py, iterations)


def _matrix():
    """Presets x grids x iterations x decks, without the large corners
    (each would cost tier-1 seconds to repeat what smaller cases check)."""
    cases = []
    for preset in ("steady", "pentium3-myrinet"):
        for grid in ((1, 1), (2, 3), (4, 4), (8, 8)):
            for iterations in (12, 30, 100):
                for deck in ("validation", "rendezvous"):
                    pes = grid[0] * grid[1]
                    if pes == 64 and (preset, iterations, deck) \
                            != ("steady", 12, "validation"):
                        continue
                    if preset == "pentium3-myrinet" and pes > 1 \
                            and iterations > 12:
                        continue
                    if (pes, iterations, deck) == (16, 100, "rendezvous"):
                        continue
                    cases.append((preset, grid, iterations, deck))
    return cases


@pytest.mark.parametrize(
    "preset, grid, iterations, deck_kind", _matrix(),
    ids=lambda value: (f"{value[0]}x{value[1]}" if isinstance(value, tuple)
                       else str(value)))
def test_probe_resolution_matches_the_tiled_trace(preset, grid, iterations,
                                                  deck_kind):
    """A fresh plan's steady run has the tier and bits of
    ``steady_replay(compile_trace())`` on a second plan (and of the
    engine, up to 4x4 ranks and 30 iterations)."""
    machine = get_machine(preset)
    px, py = grid
    deck = _matrix_deck(deck_kind, px, py, iterations)
    plan = machine.simulation_plan(deck, px, py)
    run = plan.run(mode="steady")
    trace = machine.simulation_plan(deck, px, py).compile_trace()
    try:
        tier, reference = "steady", steady_replay(trace)
    except SteadyStateError:
        tier, reference = "replay", trace.replay()
    assert plan.last_execution == tier
    assert repr(run.simulation) == repr(reference)
    if px * py <= 16 and iterations <= 30:
        engine = machine.simulation_plan(deck, px, py).run(mode="engine")
        assert repr(run.simulation) == repr(engine.simulation)


@pytest.mark.parametrize(
    "preset, grid, iterations, deck_kind", _matrix(),
    ids=lambda value: (f"{value[0]}x{value[1]}" if isinstance(value, tuple)
                       else str(value)))
def test_tier_matrix_with_a_trace_cache(preset, grid, iterations, deck_kind,
                                        tmp_path):
    """With a trace cache attached, a cold and a warm plan resolve the run
    on the uncached plan's tier with its bits, noise-free and noisy."""
    machine = get_machine(preset)
    px, py = grid
    deck = _matrix_deck(deck_kind, px, py, iterations)
    noise = machine.noise_model(2)
    uncached = machine.simulation_plan(deck, px, py)
    want = (repr(uncached.run(mode="steady").simulation),
            uncached.last_execution,
            repr(uncached.run(mode="replay", noise=noise).simulation))
    mode = uncached.last_capture.mode
    for cold in (True, False):
        plan = machine.simulation_plan(deck, px, py,
                                       trace_cache=TraceDiskCache(tmp_path))
        steady_run = plan.run(mode="steady")
        got = (repr(steady_run.simulation), plan.last_execution,
               repr(plan.run(mode="replay", noise=noise).simulation))
        assert got == want
        assert plan.last_capture.mode == (mode if cold else "cache")
