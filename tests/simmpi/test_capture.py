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
import weakref

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sweep3d.driver as driver
from repro.errors import TraceError
from repro.machines.presets import get_machine
from repro.simmpi.capture import (
    CaptureInfo,
    PeriodicCapture,
    collectives_per_period,
    periodic_capture,
    tile_trace,
    verify_extension,
)
from repro.simmpi.steady import _signatures, column_warmup, detect_period
from repro.simmpi.trace import TraceRecorder
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


def assert_traces_identical(got, want):
    """Bitwise equality of every observable of two compiled traces."""
    assert got.nranks == want.nranks
    for column in ARRAY_COLUMNS:
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column
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
    tiled = plan.compile_trace()
    full = generator_recording(plan, deck)
    assert_traces_identical(tiled, full)
    if plan.last_capture.mode == "periodic":
        assert plan.last_capture.short_iterations < iterations
    else:
        # Only a genuinely non-amortisable structure may fall back.
        assert plan.last_capture.mode == "full"
        assert plan.last_capture.reason
    # Replay observables, noise-free and noisy, at a shared seed.
    assert result_key(tiled.replay(NoiseModel.disabled())) \
        == result_key(full.replay(NoiseModel.disabled()))
    assert result_key(tiled.replay(NoiseModel(seed=seed))) \
        == result_key(full.replay(NoiseModel(seed=seed)))


def test_periodic_capture_is_the_default_at_scale(machine):
    deck = Sweep3DInput(it=16, jt=16, kt=12, mk=4, mmi=3, sn=6,
                        max_iterations=30)
    plan = make_plan(machine, deck, 2, 2)
    plan.compile_trace()
    info = plan.last_capture
    assert info.mode == "periodic"
    assert info.total_iterations == 30
    assert info.tiles >= 1
    assert info.iterations_per_period >= 1
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
    ref = reference._record_trace(deck).replay(NoiseModel.disabled())
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
    assert isinstance(plan._capture, PeriodicCapture)
    replayed = plan.run(mode="replay")
    assert plan._capture is plan.compile_trace()   # the table replaced it
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
    steady = plan.run(mode="steady")        # from the probe: no tiling
    assert plan.last_execution == "steady"
    trace = plan.compile_trace()
    assert plan.last_capture.mode == "full"
    assert "forced" in plan.last_capture.reason
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
    assert isinstance(stored, PeriodicCapture)
    held = plan._capture
    assert_traces_identical(stored.probe, held.probe)
    assert (stored.info, stored.tiles) == (held.info, held.tiles)
    assert (stored.messages_sent, stored.bytes_sent, stored.messages_received,
            stored.bytes_received, stored.traffic, stored.return_values) \
        == (held.messages_sent, held.bytes_sent, held.messages_received,
            held.bytes_received, held.traffic, held.return_values)
    assert_traces_identical(tile_trace(stored),
                            generator_recording(plan, deck))


def refuse_tiling(capture):
    raise AssertionError("the steady tier tiled the trace")


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
        assert isinstance(plan._capture, PeriodicCapture)
    assert plan.last_capture.mode == "cache"
    assert [repr(run.simulation) for run in runs] \
        == [repr(reference.simulation)] * 2


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
    assert_traces_identical(plan._record_trace(deck),
                            generator_recording(plan, deck))


def test_plan_holds_no_op_body_after_capture(machine, monkeypatch):
    harvested = []

    def harvest(*args):
        bodies = harvest_bodies(*args)
        harvested.extend(weakref.ref(op) for body in bodies for op in body)
        return bodies

    harvest_bodies = driver.harvest_iteration_bodies
    monkeypatch.setattr(driver, "harvest_iteration_bodies", harvest)
    for iterations, mode in ((14, "periodic"), (10, "full"), (1, "full")):
        deck = Sweep3DInput(it=8, jt=8, kt=8, mk=4, mmi=3, sn=6,
                            max_iterations=iterations)
        plan = make_plan(machine, deck, 2, 2)
        plan.compile_trace()
        assert plan.last_capture.mode == mode
        gc.collect()
        assert harvested and all(ref() is None for ref in harvested)
        harvested.clear()


def test_signatures_equal_the_oracle(machine):
    deck = Sweep3DInput(it=12, jt=9, kt=7, mk=3, mmi=2, sn=4,
                        max_iterations=14)
    plan = make_plan(machine, deck, 2, 3)
    tiled = plan.compile_trace()
    assert plan.last_capture.mode == "periodic"
    for trace in (tiled, plan._record_trace(deck), TraceRecorder(
            machine.topology).record(_aperiodic, nranks=2)):
        assert np.array_equal(_signatures(trace),
                              oracles.trace_signatures(trace))


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
    deck = Sweep3DInput(it=8, jt=8, kt=8, mk=4, mmi=3, sn=6,
                        max_iterations=10)
    plan = make_plan(machine, deck, 2, 2)
    plan.compile_trace()
    assert plan.last_capture.mode == "full"
    assert "too few iterations" in plan.last_capture.reason


def test_aperiodic_program_refuses_tiling(machine):
    # The detector refuses, so periodic capture must too.
    trace = TraceRecorder(machine.topology).record(_aperiodic, nranks=2)
    info = detect_period(trace)
    assert not info.periodic
    with pytest.raises(TraceError, match="periodic capture refused"):
        periodic_capture(trace, info, 3, return_values=[0, 1],
                         topology=machine.topology)


def test_tile_trace_needs_at_least_one_tile(machine):
    deck = Sweep3DInput(it=8, jt=8, kt=8, mk=4, mmi=3, sn=6,
                        max_iterations=20)
    plan = make_plan(machine, deck, 1, 1)
    short = plan._record_trace(deck)
    info = detect_period(short)
    assert info.periodic
    with pytest.raises(TraceError, match="at least one tile"):
        periodic_capture(short, info, 0,
                         return_values=list(short._return_values),
                         topology=machine.topology)


def test_collectives_per_period_counts_two_per_iteration(machine):
    deck = Sweep3DInput(it=8, jt=8, kt=8, mk=4, mmi=3, sn=6,
                        max_iterations=20)
    plan = make_plan(machine, deck, 2, 1)
    short = plan._record_trace(deck)
    info = detect_period(short)
    assert info.periodic
    per_period = collectives_per_period(short, info)
    assert per_period >= 2 and per_period % 2 == 0


def test_verify_extension_names_what_moved(machine):
    deck = Sweep3DInput(it=8, jt=8, kt=8, mk=4, mmi=3, sn=6,
                        max_iterations=20)
    plan = make_plan(machine, deck, 2, 1)
    trace = plan._record_trace(deck)
    info = detect_period(trace)
    assert verify_extension(trace, info, info.repeats) == ""
    assert verify_extension(trace, info, info.repeats + 1) == (
        f"period repeats {info.repeats} time(s), expected {info.repeats + 1}")
    trace._base[-1] += 1.0                  # the drain's last event differs
    assert verify_extension(trace, info, info.repeats).startswith(
        "warm-up moved")


def test_verify_extension_applies_the_detectors_slot_rule(machine):
    # Rendez-vous sized messages: a few early receives break the slot
    # advance while signatures already repeat, so the detector's warm-up
    # lies past them; the column check must put it in the same place.
    deck = Sweep3DInput(it=400, jt=400, kt=100, mk=10, mmi=3, sn=6,
                        max_iterations=12)
    trace = make_plan(machine, deck, 2, 2)._record_trace(deck)
    info = detect_period(trace)
    assert verify_extension(trace, info, info.repeats) == ""
    assert column_warmup(trace, info.period, info.sends_per_period) \
        == info.warmup
    sig = _signatures(trace)
    mismatch = np.flatnonzero(sig[info.period:] != sig[:-info.period])
    assert mismatch[-1] + 1 < info.warmup     # columns alone repeat sooner


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
