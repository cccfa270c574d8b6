"""Tests for the steady-state execution tier (repro.simmpi.steady).

The tier's contract is *bit-identical or refuse*: every accepted capture
resolves to exactly the full recording's replay and the engine's result,
and every precondition failure raises
:class:`~repro.simmpi.steady.SteadyStateError` with a reason.  The
synthetic programs below end every iteration in two allreduces, like the
modelled sweep, and use dyadic durations (powers of two and their small
integer multiples) so the exactness rule holds by construction; their
captures are two recorded iterations extended by
:func:`~repro.simmpi.capture.extend_recording`.  The non-dyadic, noisy
and hand-built variants check the loud refusals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simmpi.steady as steady
import repro.sweep3d.driver as driver
from repro.errors import TraceError
from repro.machines.presets import get_machine
from repro.simmpi.capture import extend_recording, tile_trace
from repro.simmpi.engine import ClusterEngine
from repro.simmpi.steady import SteadyStateError, describe_steady, steady_replay
from repro.simmpi.trace import CompiledTrace, TraceRecorder
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


def iterated(body, iterations):
    """A rank program: ``body`` closed by two allreduces, ``iterations``
    times, as each iteration of the modelled sweep is."""
    def program(comm):
        for _ in range(iterations):
            yield from body(comm)
            yield comm.allreduce(1.0, op="max")
            yield comm.allreduce(0.0, op="sum")
        return comm.rank
    return program


def ping_pong(compute=2.0**-10, nbytes=256, reply_nbytes=512):
    def body(comm):
        peer = 1 - comm.rank
        yield comm.compute(compute * (comm.rank + 1))
        if comm.rank == 0:
            yield comm.send(None, dest=peer, tag=1, nbytes=nbytes)
            yield comm.recv(source=peer, tag=2)
        else:
            yield comm.recv(source=peer, tag=1)
            yield comm.send(None, dest=peer, tag=2, nbytes=reply_nbytes)
    return body


def mixed_protocols(comm):
    peer = 1 - comm.rank
    yield comm.compute(2.0**-11 * (comm.rank + 1))
    if comm.rank == 0:
        yield comm.send(None, dest=peer, tag=1, nbytes=256)
        yield comm.recv(source=peer, tag=2)
        yield comm.send(None, dest=peer, tag=3, nbytes=2**20)
    else:
        yield comm.recv(source=peer, tag=1)
        yield comm.send(None, dest=peer, tag=2, nbytes=512)
        yield comm.recv(source=peer, tag=3)


def ring(nbytes=64):
    def body(comm):
        nxt = (comm.rank + 1) % comm.size
        prv = (comm.rank - 1) % comm.size
        yield comm.compute(2.0**-11 * (comm.rank + 1))
        # Even/odd ordering: a ring of blocking rendez-vous sends would
        # deadlock.
        if comm.rank % 2 == 0:
            yield comm.send(None, dest=nxt, tag=1, nbytes=nbytes)
            yield comm.recv(source=prv, tag=1)
        else:
            yield comm.recv(source=prv, tag=1)
            yield comm.send(None, dest=nxt, tag=1, nbytes=nbytes)
    return body


def compute_only(comm):
    yield comm.compute(2.0**-9)


def capture_of(topology, body, nranks, iterations):
    """The periodic capture of ``iterations`` iterations of ``body``: two
    recorded, the rest proved."""
    recorder = TraceRecorder(topology)
    recording = recorder.record(iterated(body, 2), nranks)
    return extend_recording(recording, recorder.collective_ranks,
                            iterations, list(range(nranks)), topology)


def full_recording(topology, body, nranks, iterations):
    return TraceRecorder(topology).record(iterated(body, iterations), nranks)


def hand_made(recording, tiles):
    """A capture of ``recording`` and ``tiles`` tiles that no extension
    checked, with the recording's own totals."""
    return CompiledTrace(
        nranks=recording.nranks, **recording.columns(),
        messages_sent=recording._messages_sent,
        bytes_sent=recording._bytes_sent,
        messages_received=recording._messages_received,
        bytes_received=recording._bytes_received,
        traffic=recording._traffic, return_values=recording._return_values,
        tiles=tiles)


def assert_steady_matches(topology, body, nranks=2, iterations=12):
    capture = capture_of(topology, body, nranks, iterations)
    result = steady_replay(capture)
    assert capture.steady_replays == 1
    want = result_key(full_recording(topology, body, nranks,
                                     iterations).replay())
    assert result_key(result) == want
    assert result_key(tile_trace(capture).replay()) == want
    engine = ClusterEngine(topology).run(iterated(body, iterations), nranks)
    assert result_key(result) == result_key(engine)


class TestBitIdentity:
    def test_eager_ping_pong(self, topology):
        assert_steady_matches(topology, ping_pong())

    def test_rendezvous_messages(self, topology):
        # 1 MiB >> the 1 KiB eager threshold: rendez-vous protocol.
        assert_steady_matches(topology,
                              ping_pong(nbytes=2**20, reply_nbytes=2**20))

    def test_mixed_protocols_and_collectives(self, topology):
        assert_steady_matches(topology, mixed_protocols, iterations=14)

    @pytest.mark.parametrize("nbytes", [64, 2**20])
    def test_ring_with_collectives(self, topology, nbytes):
        assert_steady_matches(topology, ring(nbytes), nranks=4,
                              iterations=15)

    def test_single_rank_compute_loop(self, topology):
        assert_steady_matches(topology, compute_only, nranks=1, iterations=8)

    @pytest.mark.parametrize("iterations", [3, 4, 7, 40])
    def test_iteration_counts(self, topology, iterations):
        assert_steady_matches(topology, ping_pong(), iterations=iterations)

    @settings(max_examples=12, deadline=None)
    @given(iterations=st.integers(min_value=3, max_value=40),
           compute_exp=st.integers(min_value=-14, max_value=-8),
           log_nbytes=st.integers(min_value=6, max_value=21),
           # An odd ring's eager exchanges end the two recorded iterations
           # on different completing ranks: extend_recording refuses it,
           # and the plan records such a run in full.
           nranks=st.sampled_from([1, 2, 4]))
    def test_property_steady_equals_replay_and_engine(
            self, topology, iterations, compute_exp, log_nbytes, nranks):
        def body(comm):
            yield comm.compute(2.0**compute_exp * (comm.rank + 1))
            if comm.size > 1:
                yield from ring(2**log_nbytes)(comm)

        assert_steady_matches(topology, body, nranks, iterations)


class TestRefusals:
    @pytest.fixture
    def capture(self, topology):
        return capture_of(topology, ping_pong(), 2, 12)

    def test_noise_refused(self, capture):
        with pytest.raises(SteadyStateError, match="noise"):
            steady_replay(capture, NoiseModel(seed=1))

    def test_disabled_noise_accepted(self, topology, capture):
        assert result_key(steady_replay(capture, NoiseModel.disabled())) \
            == result_key(full_recording(topology, ping_pong(), 2,
                                         12).replay())

    def test_non_dyadic_durations_refused(self, topology):
        # 1e-3 is not an integer multiple of the run's dyadic quantum.
        capture = capture_of(topology, ping_pong(compute=1e-3), 2, 12)
        with pytest.raises(SteadyStateError, match="dyadic"):
            steady_replay(capture)
        assert "steady refuses" in describe_steady(capture)

    def test_a_run_recorded_in_full_refused(self, topology):
        trace = full_recording(topology, ping_pong(), 2, 12)
        with pytest.raises(SteadyStateError, match="recorded in full"):
            steady_replay(trace)
        assert "recorded in full" in describe_steady(trace)

    def test_a_negative_duration_refused(self, capture):
        capture._base[0] = -2.0**-10
        with pytest.raises(SteadyStateError, match="negative"):
            steady_replay(capture)

    def test_halves_that_do_not_end_in_a_collective_refused(self, topology):
        # Three recorded iterations: the first half ends mid-iteration.
        capture = hand_made(full_recording(topology, ping_pong(), 2, 3), 3)
        with pytest.raises(SteadyStateError, match="two recorded iterations"):
            steady_replay(capture)

    def test_a_recording_without_collectives_refused(self, topology):
        # A periodic recording, but its iterations end in no collective.
        def program(comm):
            for _ in range(2):
                yield from ping_pong()(comm)

        capture = hand_made(TraceRecorder(topology).record(program, 2), 3)
        with pytest.raises(SteadyStateError, match="each ending in a"):
            steady_replay(capture)

    def test_non_uniform_clocks_refused(self, capture, monkeypatch):
        replay = steady._replay_events

        def skewed(events, nranks, clock, *state):
            replay(events, nranks, clock, *state)
            clock[-1] += 2.0**-20

        monkeypatch.setattr(steady, "_replay_events", skewed)
        with pytest.raises(SteadyStateError, match="clocks differ"):
            steady_replay(capture)

    def test_describe_an_eligible_capture(self, capture):
        assert describe_steady(capture) \
            == "dyadic-exact timebase (steady-eligible)"


class TestProbeResolution:
    """Resolving a run from its capture's two recorded iterations."""

    def test_the_timebase_is_judged_on_the_whole_run(self, topology):
        # Exact on the recording's own grid, but the run's total needs a
        # grid coarser than the duration's 2**-40 bit.
        body = ping_pong(compute=1.0 + 2.0**-40)
        assert result_key(steady_replay(capture_of(topology, body, 2, 3))) \
            == result_key(full_recording(topology, body, 2, 3).replay())
        capture = capture_of(topology, body, 2, 2000)
        with pytest.raises(SteadyStateError,
                           match="not integer multiples of the dyadic "
                                 "quantum 2\\*\\*-39"):
            steady_replay(capture)


class TestPlanIntegration:
    @pytest.fixture(scope="class")
    def quantized_machine(self):
        return get_machine("steady")       # hypothetical-opteron-myrinet-1ns

    @pytest.fixture(scope="class")
    def plan(self, quantized_machine):
        deck = standard_deck("validation", px=2, py=2, max_iterations=12)
        return quantized_machine.simulation_plan(deck, 2, 2)

    def test_steady_matches_replay_and_engine(self, plan):
        steady_run = plan.run(mode="steady")
        replay = plan.run(mode="replay")
        engine = plan.run(mode="engine")
        assert result_key(steady_run.simulation) \
            == result_key(replay.simulation)
        assert result_key(steady_run.simulation) \
            == result_key(engine.simulation)
        assert steady_run.iterations == engine.iterations

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


class TestPlanProbePath:
    """``plan.run(mode="steady")`` resolves the plan's periodic capture,
    its two recorded iterations, and a refusal replays that capture."""

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
        assert plan._capture.tiles == 22
        assert calls == {"steady_replay": 1, "tile_trace": 0}
        reference = machine.simulation_plan(deck, 2, 2).compile_trace()
        assert repr(run.simulation) == repr(reference.replay())

    def test_continuous_timebase_refuses_and_replays(self, calls):
        machine = get_machine("hypothetical-opteron-myrinet")
        deck = standard_deck("validation", px=2, py=2, max_iterations=24)
        plan = machine.simulation_plan(deck, 2, 2)
        run = plan.run(mode="steady")
        assert plan.last_capture.mode == "periodic"
        assert plan.last_execution == "replay"
        assert "dyadic" in plan.last_steady_refusal
        # The capture refused by itself and was replayed untiled.
        assert calls == {"steady_replay": 1, "tile_trace": 0}
        engine = machine.simulation_plan(deck, 2, 2).run(mode="engine")
        assert repr(run.simulation) == repr(engine.simulation)

    def test_noise_refuses_and_replays(self, calls):
        machine = get_machine("steady")
        deck = standard_deck("validation", px=2, py=2, max_iterations=24)
        plan = machine.simulation_plan(deck, 2, 2)
        run = plan.run(mode="steady", noise=machine.noise_model(3))
        assert plan.last_execution == "replay"
        assert "noise" in plan.last_steady_refusal
        assert calls == {"steady_replay": 1, "tile_trace": 0}
        engine = machine.simulation_plan(deck, 2, 2).run(
            mode="engine", noise=machine.noise_model(3))
        assert repr(run.simulation) == repr(engine.simulation)

    @pytest.mark.parametrize("iterations", [3, 5, 11])
    def test_short_decks_resolve_from_the_probe(self, calls, iterations):
        machine = get_machine("steady")
        deck = standard_deck("validation", px=2, py=2,
                             max_iterations=iterations)
        plan = machine.simulation_plan(deck, 2, 2)
        run = plan.run(mode="steady")
        assert plan.last_capture.mode == "periodic"
        assert plan.last_capture.tiles == iterations - 2
        assert plan._capture.tiles == iterations - 2
        assert plan.last_execution == "steady"
        assert calls == {"steady_replay": 1, "tile_trace": 0}
        engine = machine.simulation_plan(deck, 2, 2).run(mode="engine")
        assert repr(run.simulation) == repr(engine.simulation)

    def test_steady_after_a_replay_resolves_from_the_capture(self, calls):
        machine = get_machine("steady")
        deck = standard_deck("validation", px=2, py=2, max_iterations=24)
        plan = machine.simulation_plan(deck, 2, 2)
        replayed = plan.run(mode="replay")
        table = plan.compile_trace()
        capture = plan._held_capture()
        assert capture.tiles == 22
        # The recording now reads the table's first rows.
        for name in ("event_kind", "event_slot", "_base", "_send_rank_arr"):
            assert np.shares_memory(getattr(capture, name),
                                    getattr(table, name))
        steady_run = plan.run(mode="steady")
        assert plan.last_execution == "steady"
        assert calls == {"steady_replay": 1, "tile_trace": 1}
        assert repr(steady_run.simulation) == repr(replayed.simulation)

    def test_a_refused_tiling_leaves_a_full_recording(self, monkeypatch):
        def refuse(capture):
            raise TraceError("periodic capture refused: forced")

        monkeypatch.setattr(driver, "tile_trace", refuse)
        machine = get_machine("steady")
        deck = standard_deck("validation", px=2, py=2, max_iterations=24)
        plan = machine.simulation_plan(deck, 2, 2)
        replayed = plan.run(mode="replay")      # from the capture, untiled
        assert plan.last_capture.mode == "periodic"
        plan.compile_trace()
        assert plan.last_capture.mode == "full"
        assert plan._capture.tiles == 0
        steady_run = plan.run(mode="steady")
        assert plan.last_execution == "replay"
        assert "recorded in full" in plan.last_steady_refusal
        assert repr(steady_run.simulation) == repr(replayed.simulation)


def rendezvous_deck(px, py, iterations):
    """200x200x100 cells per rank: every face message is rendez-vous."""
    return Sweep3DInput(it=200 * px, jt=200 * py, kt=100, mk=10, mmi=3,
                        sn=6, max_iterations=iterations)


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
            for iterations in (3, 4, 5, 12, 30, 100):
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


def expected_tier(preset, iterations):
    """Noise-free, the steady tier takes every run of three or more
    iterations on the dyadic preset; the continuous one replays."""
    return "steady" if preset == "steady" and iterations >= 3 else "replay"


@pytest.mark.parametrize(
    "preset, grid, iterations, deck_kind", _matrix(),
    ids=lambda value: (f"{value[0]}x{value[1]}" if isinstance(value, tuple)
                       else str(value)))
def test_probe_resolution_matches_the_tiled_trace(preset, grid, iterations,
                                                  deck_kind):
    """A fresh plan's steady run lands on the expected tier with the bits
    of a second plan's ``compile_trace().replay()`` (and of the engine, up
    to 4x4 ranks and 30 iterations)."""
    machine = get_machine(preset)
    px, py = grid
    deck = _matrix_deck(deck_kind, px, py, iterations)
    plan = machine.simulation_plan(deck, px, py)
    run = plan.run(mode="steady")
    assert plan.last_execution == expected_tier(preset, iterations)
    reference = machine.simulation_plan(deck, px, py).compile_trace().replay()
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
    on the expected tier with the bits of an uncached plan's replay,
    noise-free and noisy."""
    machine = get_machine(preset)
    px, py = grid
    deck = _matrix_deck(deck_kind, px, py, iterations)
    noise = machine.noise_model(2)
    uncached = machine.simulation_plan(deck, px, py)
    want = (repr(uncached.run(mode="replay").simulation),
            expected_tier(preset, iterations),
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
