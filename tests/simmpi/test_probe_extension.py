"""Tests for two recorded iterations, extended (repro.simmpi.capture.extend_recording).

Periodic capture records two iterations of the modelled sweep and proves
the rest of the run from the scheduler's state at the iteration
boundary: the rank that completed the last reduction.  The capture is
those two iterations and the ``T - 2`` tiles the run adds, and its
tiled table must be **bit-identical** to recording the run in full, or a
check refuses and the run is recorded in full.  The scalar replay
resolves the capture without the table, with the table's bits.

The identity matrix below runs in tier 1 on a subset; run the module as a
script for the full matrix (every preset x four decks x seven geometries,
where the machine has the processors, x 1, 2, 3, 6, 7 and 12
iterations), which exits 1 on any difference::

    PYTHONPATH=src python tests/simmpi/test_probe_extension.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import repro.sweep3d.driver as driver
from repro.errors import TraceError
from repro.machines.presets import MACHINE_PRESETS, get_machine
from repro.simmpi.capture import CaptureInfo, extend_recording, tile_trace
from repro.simmpi.communicator import SimComm
from repro.simmpi.engine import MAX_OPERATIONS, _TimingSink, run_ranks
from repro.simmpi.trace import TraceRecorder
from repro.simnet.noise import NoiseModel
from repro.sweep3d.driver import SimulationPlan
from repro.sweep3d.input import Sweep3DInput, standard_deck
from repro.sweep3d.parallel import (
    SweepCostTable,
    body_rank_program,
    harvest_iteration_bodies,
    modelled_rank_summaries,
    sweep_rank_program,
)

PRESETS = sorted(MACHINE_PRESETS)

DECKS = {
    "validation": lambda px, py: standard_deck("validation", px=px, py=py),
    # 200x200x100 cells per rank: every face message is rendez-vous sized.
    "rendezvous": lambda px, py: Sweep3DInput(
        it=200 * px, jt=200 * py, kt=100, mk=10, mmi=3, sn=6,
        max_iterations=12),
    # Uneven k blocks (3, 3, 1 planes) and angle blocks.
    "odd": lambda px, py: Sweep3DInput(it=12, jt=9, kt=7, mk=3, mmi=2, sn=4,
                                       max_iterations=12),
    # The capture gate's deck (benchmarks/bench_capture.py).
    "capture-gate": lambda px, py: Sweep3DInput(it=16, jt=16, kt=10, mk=10,
                                                mmi=3, sn=6,
                                                max_iterations=12),
}

GEOMETRIES = [(1, 1), (1, 4), (4, 1), (2, 3), (4, 4)]
FULL_GEOMETRIES = GEOMETRIES + [(2, 2), (8, 8)]
ITERATIONS = (1, 2, 3, 6, 7, 12)

ARRAY_COLUMNS = ("event_kind", "event_rank", "event_slot", "event_aux",
                 "event_peer", "event_tag", "event_nbytes",
                 "_base", "_noise_kind", "_send_eager_arr", "_send_rank_arr")

STATISTICS = ("nranks", "_messages_sent", "_bytes_sent", "_messages_received",
              "_bytes_received", "_traffic", "_return_values")


def column_differences(got, want) -> list[str]:
    """The recorded columns in which two compiled traces differ."""
    return [name for name in ARRAY_COLUMNS
            if getattr(got, name).dtype != getattr(want, name).dtype
            or not np.array_equal(getattr(got, name), getattr(want, name))]


def statistic_differences(got, want) -> list[str]:
    """The run statistics in which two compiled traces differ."""
    return [name for name in STATISTICS
            if getattr(got, name) != getattr(want, name)]


def differences(got, want) -> list[str]:
    """The observables in which two compiled traces differ."""
    return column_differences(got, want) + statistic_differences(got, want)


def make_plan(machine, deck, px, py, **kwargs):
    return SimulationPlan(deck, px, py, machine.topology,
                          processor=machine.processor, **kwargs)


def check_configuration(preset: str, deck_name: str, px: int,
                        py: int) -> list[str]:
    """Every failure of the whole capture on one configuration, at each of
    :data:`ITERATIONS`: the table must equal the full recording, and from
    three iterations up the capture must be periodic and hold the two
    recorded iterations (also once its table is tiled, when the recording
    reads the table's first rows) plus ``T - 2`` tiles and the run's
    totals.  There a fresh plan's ``run(mode="replay")``, noise-free and
    at one noisy seed, must also resolve the run without tiling it, with
    the bits of the table's replays."""
    machine = get_machine(preset)
    costs = SweepCostTable(machine.processor)
    noise = machine.noise_model(1)
    failures = []
    for iterations in ITERATIONS:
        where = f"{preset} {deck_name} {px}x{py} x{iterations}"
        deck = replace(DECKS[deck_name](px, py), max_iterations=iterations)
        plan = make_plan(machine, deck, px, py, cost_table=costs)
        replays = []
        if iterations >= 3:
            replays = [(label, run_noise, plan.run(noise=run_noise,
                                                   mode="replay").simulation)
                       for label, run_noise in (("noise-free", None),
                                                ("noisy", noise))]
            if plan._trace is not None:
                failures.append(f"{where}: the replay tiled the capture")
        held = plan._held_capture()
        info = plan.last_capture
        if iterations >= 3 and info.mode != "periodic":
            failures.append(f"{where}: periodic capture refused "
                            f"({info.reason})")
        table, full = plan.compile_trace(), plan._record_trace()
        differ = differences(table, full)
        if differ:
            failures.append(f"{where}: differs in {', '.join(differ)}")
        for label, run_noise, simulation in replays:
            if repr(simulation) != repr(table.replay(run_noise)):
                failures.append(f"{where}: the {label} replay of the "
                                "capture differs from the table's")
        if held.tiles:
            two = make_plan(machine, replace(deck, max_iterations=2), px, py,
                            cost_table=costs)._record_trace()
            differ = (column_differences(held, two)
                      + statistic_differences(held, full))
            if differ or held.tiles != iterations - 2:
                failures.append(f"{where}: the capture is not the two "
                                f"recorded iterations and {iterations - 2} "
                                f"tiles ({', '.join(differ)})")
    return failures


TIER1_MATRIX = (
    [(preset, deck, px, py) for preset in PRESETS
     for deck in ("validation", "rendezvous", "odd")
     for px, py in GEOMETRIES]
    + [("hypothetical-opteron-myrinet-1ns", deck, 8, 8)
       for deck in ("validation", "rendezvous", "odd")])


def _fits(preset: str, px: int, py: int) -> bool:
    limit = get_machine(preset).topology.rank_limit
    return limit is None or px * py <= limit


FULL_MATRIX = [(preset, deck, px, py) for preset in PRESETS
               for deck in DECKS for px, py in FULL_GEOMETRIES
               if _fits(preset, px, py)]


@pytest.mark.parametrize("preset,deck_name,px,py", TIER1_MATRIX)
def test_two_iteration_probe_equals_the_recording(preset, deck_name, px, py):
    assert check_configuration(preset, deck_name, px, py) == []


# ---------------------------------------------------------------------------
# The scheduler state the proof rests on
# ---------------------------------------------------------------------------


class _RankSink(_TimingSink):
    """The engine's timing sink, keeping each collective's completing rank."""

    def __init__(self):
        super().__init__(NoiseModel.disabled())
        self.ranks = []

    def collective(self, rank, base, nbytes):
        self.ranks.append(rank)
        return super().collective(rank, base, nbytes)


@pytest.mark.parametrize("px,py", [(1, 1), (1, 4), (2, 3), (4, 4)])
def test_completing_ranks_equal_the_engines(px, py):
    machine = get_machine("opteron-gige")
    deck = standard_deck("validation", px=px, py=py, max_iterations=3)
    plan = make_plan(machine, deck, px, py)
    bodies = harvest_iteration_bodies(deck, plan.decomp, plan.costs,
                                      plan.shared)
    recorder = TraceRecorder(machine.topology)
    recorder.record(body_rank_program, nranks=plan.nranks,
                    program_args=(deck, plan.decomp, plan.shared, bodies))
    sink = _RankSink()
    run_ranks(sink, machine.topology, MAX_OPERATIONS, sweep_rank_program,
              plan.nranks, (deck, plan.decomp, False, plan.costs,
                            plan.shared))
    n = plan.nranks
    # globalmax completes with the last rank; it posts globalsum at once,
    # and the queued ranks 0..n-2 follow in rank order.
    want = [0, 0] if n == 1 else [n - 1, n - 2]
    assert recorder.collective_ranks == sink.ranks == want * 3


# ---------------------------------------------------------------------------
# Refusals
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def machine():
    return get_machine("steady")


def _two_iterations(machine, program, nranks, args=()):
    recorder = TraceRecorder(machine.topology)
    trace = recorder.record(program, nranks=nranks, program_args=args)
    return trace, recorder.collective_ranks


def _iterations(comm, sends, receives, reductions=2, iterations=2):
    # Rank 0 sends `sends` eager messages to rank 1 per iteration, which
    # receives `receives` of them; each iteration ends in `reductions`.
    for _ in range(iterations):
        yield comm.compute(2.0 ** -10)
        if comm.rank == 0:
            for _ in range(sends):
                yield comm.send(None, dest=1, tag=7, nbytes=8.0)
        else:
            for _ in range(receives):
                yield comm.recv(source=0, tag=7)
        for _ in range(reductions):
            yield comm.allreduce(0.0, op="sum")


def _validation_recording(machine, px=2, py=2):
    deck = standard_deck("validation", px=px, py=py, max_iterations=2)
    plan = make_plan(machine, deck, px, py)
    bodies = harvest_iteration_bodies(deck, plan.decomp, plan.costs,
                                      plan.shared)
    trace, ranks = _two_iterations(
        machine, body_rank_program, plan.nranks,
        (deck, plan.decomp, plan.shared, bodies))
    summaries = modelled_rank_summaries(replace(deck, max_iterations=6),
                                        plan.decomp, plan.shared)
    return trace, ranks, summaries


def test_different_completing_ranks_refuse(machine):
    trace, ranks, summaries = _validation_recording(machine)
    assert ranks == [3, 2, 3, 2]
    capture = extend_recording(trace, ranks, 6, summaries, machine.topology)
    assert capture.tiles == 4
    assert column_differences(capture, trace) == []
    assert tile_trace(capture).n_events == 3 * trace.n_events
    with pytest.raises(TraceError, match="completed by ranks 2 and 1"):
        extend_recording(trace, [3, 2, 3, 1], 6, summaries,
                         machine.topology)


@pytest.mark.parametrize("sends,receives,reductions,message", [
    (2, 1, 2, "a message is in flight"),
    (1, 1, 3, "holds 6 collective"),
    (1, 1, 1, "holds 2 collective"),
])
def test_broken_conditions_refuse(machine, sends, receives, reductions,
                                  message):
    trace, ranks = _two_iterations(
        machine, _iterations, 2, (sends, receives, reductions))
    with pytest.raises(TraceError, match=message):
        extend_recording(trace, ranks, 6, [None, None], machine.topology)


def test_uneven_iterations_refuse(machine):
    def prologue(comm):
        if comm.rank == 0:
            yield comm.send(None, dest=1, tag=8, nbytes=8.0)
        else:
            yield comm.recv(source=0, tag=8)
        return (yield from _iterations(comm, 1, 1))

    trace, ranks = _two_iterations(machine, prologue, 2)
    with pytest.raises(TraceError, match="half the events"):
        extend_recording(trace, ranks, 6, [None, None], machine.topology)


def _recording(plan, program, args):
    """The recorder driving ``program`` over the whole of ``plan.deck``."""
    return TraceRecorder(plan.topology).record(
        program, nranks=plan.nranks, program_args=(plan.deck, plan.decomp,
                                                   *args))


def _assert_full_recording(plan, reason, reference):
    trace = plan.compile_trace()
    info = plan.last_capture
    assert info.mode == "full"
    assert reason in info.reason
    assert info.describe().endswith(f"({info.reason})")
    assert differences(trace, reference) == []


def test_a_refused_extension_records_the_run_in_full(machine, monkeypatch):
    deck = standard_deck("validation", px=2, py=2, max_iterations=24)
    extend = driver.extend_recording

    def other_rank(recording, ranks, *args):
        return extend(recording, ranks[:3] + [ranks[3] - 1], *args)

    monkeypatch.setattr(driver, "extend_recording", other_rank)
    plan = make_plan(machine, deck, 2, 2)
    reference = _recording(plan, sweep_rank_program,
                           (False, plan.costs, plan.shared))
    _assert_full_recording(plan, "completed by ranks 2 and 1", reference)


def test_a_message_received_an_iteration_later_records_the_run_in_full(
        machine, monkeypatch):
    # Rank 0 sends one more eager message before the first iteration; each
    # iteration rank 1 receives the one rank 0 sent the iteration before.
    deck = standard_deck("validation", px=2, py=2, max_iterations=24)
    comm0, comm1 = SimComm(0, 4), SimComm(1, 4)
    late = comm0.send(None, dest=1, tag=7, nbytes=8.0)
    harvest = driver.harvest_iteration_bodies

    def late_bodies(*args):
        bodies = harvest(*args)
        bodies[0] = bodies[0] + [late]
        bodies[1] = [comm1.recv(source=0, tag=7)] + bodies[1]
        return bodies

    def late_program(comm, *args):
        if comm.rank == 0:
            yield late
        return (yield from body_rank_program(comm, *args))

    monkeypatch.setattr(driver, "harvest_iteration_bodies", late_bodies)
    monkeypatch.setattr(driver, "body_rank_program", late_program)
    plan = make_plan(machine, deck, 2, 2)
    reference = _recording(plan, late_program, (plan.shared, late_bodies(
        deck, plan.decomp, plan.costs, plan.shared)))
    _assert_full_recording(plan, "half the events", reference)


# ---------------------------------------------------------------------------
# What the capture reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("iterations", [100, 5, 3])
def test_describe_names_the_recorded_iterations(machine, iterations):
    deck = standard_deck("validation", px=2, py=2, max_iterations=iterations)
    plan = make_plan(machine, deck, 2, 2)
    plan._held_capture()
    info = plan.last_capture
    assert (info.tiles, info.reason) == (iterations - 2, "")
    assert info.describe() == (
        f"capture: periodic, recorded 2 of {iterations} iteration(s) and "
        f"proved {iterations - 2} more (974 event(s) and 320 send(s) per "
        "iteration)")
    assert plan.describe_capture() == [
        info.describe(), "dyadic-exact timebase (steady-eligible)"]


def test_describe_a_refused_extension():
    info = CaptureInfo(mode="full", total_iterations=100,
                       reason="a message is in flight at the end of a "
                              "recorded iteration")
    assert info.describe() == (
        "capture: full recorder, 100 iteration(s) (a message is in flight "
        "at the end of a recorded iteration)")


def main() -> int:
    """Run :data:`FULL_MATRIX`; print every failure and return 1 on any."""
    start = time.perf_counter()
    failures = []
    for configuration in FULL_MATRIX:
        failures += check_configuration(*configuration)
    for failure in failures:
        print(failure)
    print(f"{len(FULL_MATRIX) * len(ITERATIONS)} configuration(s), "
          f"{len(failures)} failure(s), {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
