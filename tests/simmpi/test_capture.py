"""Tests for periodic trace capture (repro.simmpi.capture).

The capture tier inherits the steady tier's contract: the synthesized
trace is **bit-identical** to what the full O(events) recorder would
have produced, or the tier refuses loudly (``TraceError``) and the
caller falls back to the full recorder.  The property test below checks
exact equality of every trace observable — event tables, send tables,
per-rank statistics, traffic, return values — and of the replay results
on both the noise-free and noisy paths, across randomly drawn decks,
processor arrays and iteration counts.

Capture records from per-rank op bodies harvested from one iteration of
``sweep_rank_program``; the reference for every trace here is the
recorder driving the generator itself over the whole run
(:func:`generator_recording`).
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sweep3d.driver as driver
from repro.errors import TraceError
from repro.machines.presets import get_machine
from repro.simmpi.capture import CaptureInfo, extend_recording, tile_trace
from repro.simmpi.trace import EV_SEND, TraceRecorder
from repro.simmpi.tracecache import TraceDiskCache
from repro.simnet.noise import NoiseModel
from repro.sweep3d.driver import SimulationPlan
from repro.sweep3d.input import Sweep3DInput, standard_deck
from repro.sweep3d.parallel import modelled_rank_summaries, sweep_rank_program


@pytest.fixture(scope="module")
def machine():
    # Dyadic timebase: the steady tier accepts, so the tiled trace can be
    # exercised end to end through every execution tier.
    return get_machine("steady")


def make_plan(machine, deck, px, py, **kwargs):
    return SimulationPlan(deck, px, py, machine.topology,
                          processor=machine.processor, **kwargs)


ARRAY_COLUMNS = ("event_kind", "event_rank", "event_slot", "event_aux",
                 "event_peer", "event_tag", "event_nbytes",
                 "_base", "_noise_kind", "_send_eager_arr", "_send_rank_arr")


def assert_columns_identical(got, want):
    """Bitwise equality of the recorded columns of two compiled traces."""
    assert got.nranks == want.nranks
    for column in ARRAY_COLUMNS:
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column


def assert_traces_identical(got, want):
    """Bitwise equality of every observable of two compiled traces."""
    assert_columns_identical(got, want)
    assert got.tiles == want.tiles
    assert got._messages_sent == want._messages_sent
    assert got._bytes_sent == want._bytes_sent
    assert got._messages_received == want._messages_received
    assert got._bytes_received == want._bytes_received
    assert got._traffic == want._traffic
    assert got._return_values == want._return_values


def generator_recording(plan, deck):
    """The recorder driving ``sweep_rank_program`` over all of ``deck``."""
    return TraceRecorder(plan.topology).record(
        sweep_rank_program, nranks=plan.nranks,
        program_args=(deck, plan.decomp, False, plan.costs, plan.shared))


def result_key(sim):
    return (sim.elapsed_time,
            tuple((r.finish_time, r.compute_time, r.comm_time,
                   r.messages_sent, r.bytes_sent, r.messages_received,
                   r.bytes_received) for r in sim.ranks),
            sim.traffic.messages, sim.traffic.bytes)


# ---------------------------------------------------------------------------
# Bit-identity of periodic capture vs the full recorder
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
# 200x200x100 cells per rank: every face message is rendez-vous sized.
@example(it=400, jt=400, kt=100, mk=10, px=2, py=2, iterations=12, seed=1)
@example(it=800, jt=800, kt=100, mk=10, px=4, py=4, iterations=12, seed=2)
@given(
    it=st.integers(min_value=6, max_value=14),
    jt=st.integers(min_value=6, max_value=14),
    kt=st.sampled_from([6, 10, 12]),
    mk=st.sampled_from([2, 5]),
    px=st.integers(min_value=1, max_value=2),
    py=st.integers(min_value=1, max_value=3),
    iterations=st.integers(min_value=14, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_periodic_capture_bit_identity(machine, it, jt, kt, mk, px, py,
                                       iterations, seed):
    deck = Sweep3DInput(it=max(it, px), jt=max(jt, py), kt=kt, mk=mk,
                        mmi=3, sn=6, max_iterations=iterations)
    plan = make_plan(machine, deck, px, py)
    recorded = []
    record = TraceRecorder.record

    def counting_record(self, *args, **kwargs):
        trace = record(self, *args, **kwargs)
        recorded.append(trace.n_events)
        return trace

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TraceRecorder, "record", counting_record)
        tiled = plan.compile_trace()
    full = generator_recording(plan, deck)
    assert_traces_identical(tiled, full)
    if plan.last_capture.mode == "periodic":
        assert plan.last_capture.tiles == iterations - 2
        # The recorder ran two iterations; the others were proved.
        two = replace(deck, max_iterations=2)
        assert recorded == [generator_recording(plan, two).n_events]
    else:
        # Only a genuinely non-amortisable structure may fall back.
        assert plan.last_capture.mode == "full"
        assert plan.last_capture.reason
    # Replay observables, noise-free and noisy, at a shared seed, from the
    # table and from the capture the replay tier resolves.
    capture = plan._held_capture()
    for noise in (NoiseModel.disabled(), NoiseModel(seed=seed)):
        want = result_key(full.replay(noise))
        assert result_key(tiled.replay(noise)) == want
        assert result_key(capture.replay(noise)) == want


def test_periodic_capture_is_the_default_at_scale(machine):
    deck = Sweep3DInput(it=16, jt=16, kt=12, mk=4, mmi=3, sn=6,
                        max_iterations=30)
    plan = make_plan(machine, deck, 2, 2)
    plan.compile_trace()
    info = plan.last_capture
    assert info.mode == "periodic"
    assert info.total_iterations == 30
    assert info.tiles >= 1
    assert info.capture_s >= 0.0
    assert "periodic" in info.describe()


def test_steady_tier_accepts_tiled_trace(machine):
    deck = Sweep3DInput(it=12, jt=12, kt=10, mk=5, mmi=3, sn=6,
                        max_iterations=24)
    plan = make_plan(machine, deck, 2, 2)
    result = plan.run(mode="steady")
    assert plan.last_capture.mode == "periodic"
    assert plan.last_execution == "steady"
    reference = make_plan(machine, deck, 2, 2)
    ref = reference._record_trace().replay(NoiseModel.disabled())
    assert result.elapsed_time == ref.elapsed_time


def test_engine_cross_check_at_matched_seed(machine):
    deck = Sweep3DInput(it=10, jt=10, kt=10, mk=5, mmi=3, sn=6,
                        max_iterations=16)
    plan = make_plan(machine, deck, 1, 2)
    assert plan.compile_trace() is plan.compile_trace()  # cached on plan
    assert plan.last_capture.mode == "periodic"
    replayed = plan.run(noise=NoiseModel(seed=11), mode="replay")
    engine = make_plan(machine, deck, 1, 2).run(noise=NoiseModel(seed=11),
                                                mode="engine")
    assert replayed.elapsed_time == engine.elapsed_time
    assert replayed.rank_summaries == engine.rank_summaries


def test_steady_replay_steady_records_once(machine, monkeypatch):
    recorded = []
    record = TraceRecorder.record

    def counting_record(self, *args, **kwargs):
        recorded.append(1)
        return record(self, *args, **kwargs)

    monkeypatch.setattr(TraceRecorder, "record", counting_record)
    deck = Sweep3DInput(it=12, jt=12, kt=10, mk=5, mmi=3, sn=6,
                        max_iterations=24)
    plan = make_plan(machine, deck, 2, 2)
    first = plan.run(mode="steady")
    assert plan._capture.tiles == 22
    replayed = plan.run(mode="replay")
    assert plan._trace is None              # replayed from the capture
    second = plan.run(mode="steady")
    assert plan.last_execution == "steady"
    assert len(recorded) == 1
    assert result_key(first.simulation) == result_key(replayed.simulation) \
        == result_key(second.simulation)


def test_a_tiling_refusal_falls_back_to_the_full_recorder(machine,
                                                          monkeypatch):
    def refuse(capture):
        raise TraceError("periodic capture refused: forced")

    monkeypatch.setattr(driver, "tile_trace", refuse)
    deck = Sweep3DInput(it=12, jt=12, kt=10, mk=5, mmi=3, sn=6,
                        max_iterations=24)
    plan = make_plan(machine, deck, 2, 2)
    steady = plan.run(mode="steady")        # from the capture: no tiling
    assert plan.last_execution == "steady"
    trace = plan.compile_trace()
    assert plan.last_capture.mode == "full"
    assert "forced" in plan.last_capture.reason
    assert plan._capture is trace           # the recording replaced it
    assert_traces_identical(trace, generator_recording(plan, deck))
    assert result_key(steady.simulation) == result_key(trace.replay())


def test_trace_cache_entry_holds_the_probe(machine, tmp_path):
    deck = Sweep3DInput(it=12, jt=12, kt=10, mk=5, mmi=3, sn=6,
                        max_iterations=24)
    plan = make_plan(machine, deck, 2, 2, trace_cache=TraceDiskCache(tmp_path))
    plan.run(mode="steady")
    assert plan.last_capture.mode == "periodic"
    assert plan.last_execution == "steady"
    stored = TraceDiskCache(tmp_path).get(plan.trace_fingerprint())
    # The entry is the two recorded iterations and their tiles.
    assert stored.tiles == 22
    assert_columns_identical(stored, generator_recording(
        plan, replace(deck, max_iterations=2)))
    assert_traces_identical(stored, plan._capture)
    assert_traces_identical(tile_trace(stored),
                            generator_recording(plan, deck))


def refuse_tiling(capture):
    raise AssertionError("the run tiled its capture")


def test_cached_periodic_steady_run_never_tiles(machine, tmp_path,
                                                monkeypatch):
    deck = Sweep3DInput(it=12, jt=12, kt=10, mk=5, mmi=3, sn=6,
                        max_iterations=24)
    reference = make_plan(machine, deck, 2, 2).run(mode="steady")
    monkeypatch.setattr(driver, "tile_trace", refuse_tiling)
    runs = []
    for _ in range(2):                      # cold, then from the entry
        plan = make_plan(machine, deck, 2, 2,
                         trace_cache=TraceDiskCache(tmp_path))
        runs.append(plan.run(mode="steady"))
        assert plan.last_execution == "steady"
        assert plan._capture.tiles == 22
    assert plan.last_capture.mode == "cache"
    assert [repr(run.simulation) for run in runs] \
        == [repr(reference.simulation)] * 2


# ---------------------------------------------------------------------------
# Replaying the capture without its table
# ---------------------------------------------------------------------------

REPLAY_DECKS = {
    "eager": lambda iterations: standard_deck(
        "validation", px=2, py=2, max_iterations=iterations),
    # 200x200x100 cells per rank: every face message is rendez-vous sized.
    "rendezvous": lambda iterations: Sweep3DInput(
        it=400, jt=400, kt=100, mk=10, mmi=3, sn=6,
        max_iterations=iterations),
}


@pytest.mark.parametrize("iterations", [3, 7, 12])
@pytest.mark.parametrize("deck_name", sorted(REPLAY_DECKS))
def test_scalar_replays_resolve_the_capture_untiled(deck_name, iterations):
    # A continuous machine: the steady tier refuses and the plan replays.
    machine = get_machine("pentium3-myrinet")
    deck = REPLAY_DECKS[deck_name](iterations)
    noise = machine.noise_model(5)
    plan = machine.simulation_plan(deck, 2, 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "tile_trace", refuse_tiling)
        got = {"replay": plan.run(mode="replay"),
               "noisy replay": plan.run(noise=noise, mode="replay"),
               "noisy auto": plan.run(noise=noise, mode="auto"),
               "steady refusal": plan.run(mode="steady")}
        assert "dyadic" in plan.last_steady_refusal
        got["auto"] = plan.run(mode="auto")
        sample_set = plan.run(noise=noise, mode="auto", samples=2)
    assert plan._capture.tiles == iterations - 2
    with pytest.raises(TraceError, match="no wave schedule"):
        plan._capture.replay_batch(sample_set.seeds, noise)
    if deck_name == "rendezvous":
        assert not plan._capture._send_eager_arr.any()
    table = machine.simulation_plan(deck, 2, 2).compile_trace()
    engine = machine.simulation_plan(deck, 2, 2)
    for label, run in got.items():
        run_noise = noise if label.startswith("noisy") else None
        assert repr(run.simulation) == repr(table.replay(run_noise)) \
            == repr(engine.run(noise=run_noise, mode="engine").simulation), \
            label
    reference = table.replay_seeds(sample_set.seeds, noise)
    for index, seed in enumerate(sample_set.seeds):
        assert repr(sample_set.sample(index).simulation) \
            == repr(reference.sample(index)) \
            == repr(engine.run(noise=noise.reseeded(seed),
                               mode="engine").simulation)


@pytest.mark.parametrize("iterations", [1, 2])
def test_short_runs_replay_their_full_recording(iterations):
    machine = get_machine("pentium3-myrinet")
    deck = REPLAY_DECKS["eager"](iterations)
    noise = machine.noise_model(5)
    plan = machine.simulation_plan(deck, 2, 2)
    runs = [plan.run(mode="replay"), plan.run(noise=noise, mode="replay")]
    assert plan.last_capture.mode == "full"
    assert plan._capture.tiles == 0
    assert plan.compile_trace() is plan._capture    # the table itself
    engine = machine.simulation_plan(deck, 2, 2)
    assert [repr(run.simulation) for run in runs] \
        == [repr(engine.run(noise=run_noise, mode="engine").simulation)
            for run_noise in (None, noise)]


def test_a_replay_from_the_capture_holds_no_table(machine):
    # The capture gate's 64-rank x 100-iteration deck; both captures are
    # made before tracing starts, so each peak is the replay's own.
    deck = Sweep3DInput(it=16, jt=16, kt=10, mk=10, mmi=3, sn=6,
                        max_iterations=100)

    def peak_mib(resolve):
        tracemalloc.start()
        try:
            return resolve(), tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    plans = [make_plan(machine, deck, 8, 8) for _ in range(2)]
    for plan in plans:
        plan._held_capture()
    run, capture_peak = peak_mib(lambda: plans[0].run(mode="replay"))
    assert plans[0]._trace is None
    tiled, table_peak = peak_mib(lambda: plans[1].compile_trace().replay())
    assert repr(run.simulation) == repr(tiled)
    assert table_peak >= 10 * capture_peak, (capture_peak, table_peak)


# ---------------------------------------------------------------------------
# Recording from harvested op bodies vs driving the generator
# ---------------------------------------------------------------------------

LOCKSTEP_DECKS = {
    "validation": lambda px, py: standard_deck("validation", px=px, py=py,
                                               max_iterations=3),
    "validation-once": lambda px, py: standard_deck(
        "validation", px=px, py=py, max_iterations=1),
    "even": lambda px, py: Sweep3DInput(it=16, jt=16, kt=10, mk=10, mmi=3,
                                        sn=6, max_iterations=2),
    # Uneven k blocks (3, 3, 1 planes) and angle blocks.
    "uneven": lambda px, py: Sweep3DInput(it=12, jt=9, kt=7, mk=3, mmi=2,
                                          sn=4, max_iterations=2),
}


@pytest.mark.parametrize("deck_name", sorted(LOCKSTEP_DECKS))
@pytest.mark.parametrize("px,py", [(1, 1), (1, 3), (3, 1), (2, 3), (4, 4)])
@pytest.mark.parametrize("preset", ["pentium3-myrinet", "opteron-gige",
                                    "altix-itanium2", "steady"])
def test_body_recording_equals_generator_recording(preset, px, py,
                                                   deck_name):
    machine = get_machine(preset)
    deck = LOCKSTEP_DECKS[deck_name](px, py)
    plan = make_plan(machine, deck, px, py)
    assert_traces_identical(plan._record_trace(),
                            generator_recording(plan, deck))


def test_plan_holds_no_op_body_after_capture(machine, monkeypatch):
    harvested = []

    def harvest(*args):
        bodies = harvest_bodies(*args)
        harvested.extend(weakref.ref(op) for body in bodies for op in body)
        return bodies

    harvest_bodies = driver.harvest_iteration_bodies
    monkeypatch.setattr(driver, "harvest_iteration_bodies", harvest)
    for iterations, mode in ((14, "periodic"), (10, "periodic"), (1, "full")):
        deck = Sweep3DInput(it=8, jt=8, kt=8, mk=4, mmi=3, sn=6,
                            max_iterations=iterations)
        plan = make_plan(machine, deck, 2, 2)
        plan.compile_trace()
        assert plan.last_capture.mode == mode
        gc.collect()
        assert harvested and all(ref() is None for ref in harvested)
        harvested.clear()


@pytest.mark.parametrize("iterations", [1, 2, 7, 100])
@pytest.mark.parametrize("px,py", [(1, 1), (2, 3), (8, 8)])
def test_modelled_rank_summaries_equal_the_oracle(px, py, iterations):
    deck = standard_deck("validation", px=px, py=py,
                         max_iterations=iterations)
    plan = make_plan(get_machine("steady"), deck, px, py)
    assert modelled_rank_summaries(deck, plan.decomp, plan.shared) \
        == oracles.modelled_rank_summaries(deck, plan.decomp, plan.shared)


# ---------------------------------------------------------------------------
# Loud refusals and the full-recorder fallback
# ---------------------------------------------------------------------------


def _aperiodic(comm):
    # Every compute duration is distinct: no period ever forms.
    for step in range(1, 40):
        yield comm.compute(2.0 ** -10 * step)
    return comm.rank


def test_few_iterations_fall_back_to_full_capture(machine):
    for iterations, mode in ((1, "full"), (2, "full"), (10, "periodic")):
        deck = Sweep3DInput(it=8, jt=8, kt=8, mk=4, mmi=3, sn=6,
                            max_iterations=iterations)
        plan = make_plan(machine, deck, 2, 2)
        trace = plan.compile_trace()
        assert plan.last_capture.mode == mode
        if mode == "full":
            assert plan.last_capture.reason == (
                f"periodic capture refused: the run has {iterations} "
                "iteration(s), none past the two it would record")
        assert_traces_identical(trace, generator_recording(plan, deck))


def test_aperiodic_program_refuses_extension(machine):
    # No iteration ends in the two collectives the extension needs.
    recorder = TraceRecorder(machine.topology)
    trace = recorder.record(_aperiodic, nranks=2)
    with pytest.raises(TraceError, match="holds 0 collective"):
        extend_recording(trace, recorder.collective_ranks, 6, [0, 1],
                         machine.topology)


def test_extension_needs_at_least_one_tile(machine):
    deck = Sweep3DInput(it=8, jt=8, kt=8, mk=4, mmi=3, sn=6,
                        max_iterations=20)
    capture = make_plan(machine, deck, 1, 1)._held_capture()
    with pytest.raises(TraceError, match="at least one tile"):
        extend_recording(capture, [0] * 4, 2, capture._return_values,
                         machine.topology)


def test_tiles_are_slot_advanced_copies_of_the_second_iteration(machine):
    # Rendez-vous sized messages: a few receives of the first iteration
    # match sends numbered in another order than the second iteration's,
    # so only the second iteration repeats.
    deck = Sweep3DInput(it=400, jt=400, kt=100, mk=10, mmi=3, sn=6,
                        max_iterations=12)
    plan = make_plan(machine, deck, 2, 2)
    recording = plan._held_capture()
    period = recording.n_events // 2
    sends = int(np.count_nonzero(recording.event_kind[period:] == EV_SEND))
    first, second = np.split(recording.event_slot, 2)
    assert not np.array_equal(np.where(first >= 0, first + sends, first),
                              second)
    table = tile_trace(recording)
    assert_traces_identical(table, generator_recording(plan, deck))
    # The recording, then ten copies of its second iteration, the k-th
    # with its send and match slots advanced by k sends.
    for name in ARRAY_COLUMNS:
        column = getattr(recording, name)
        if name == "event_slot":
            copies = [np.where(second >= 0, second + k * sends, second)
                      for k in range(1, 11)]
        elif name in ("_send_eager_arr", "_send_rank_arr"):
            copies = [column[-sends:]] * 10
        else:
            copies = [column[period:]] * 10
        assert np.array_equal(getattr(table, name),
                              np.concatenate([column] + copies)), name


def test_capture_info_describe_modes():
    assert "trace-cache hit" in CaptureInfo(mode="cache",
                                            total_iterations=7).describe()
    full = CaptureInfo(mode="full", total_iterations=7, reason="because")
    assert "full recorder" in full.describe()
    assert "because" in full.describe()


def test_numeric_plans_still_raise(machine):
    deck = Sweep3DInput(it=6, jt=6, kt=6, mk=3, mmi=3, sn=6,
                        max_iterations=20)
    plan = make_plan(machine, deck, 1, 1, numeric=True)
    with pytest.raises(TraceError):
        plan.compile_trace()
    assert plan.last_capture is None
