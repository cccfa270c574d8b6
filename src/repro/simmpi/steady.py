"""Steady-state tier: a periodic run resolved from two recorded iterations.

Every source iteration of the modelled sweep is the same KBA sweep,
closed by the ``globalmax`` and ``globalsum`` reductions.  Periodic
capture (:mod:`repro.simmpi.capture`) records two iterations and proves
that every later one repeats the second with its send slots advanced
(:func:`~repro.simmpi.capture.extend_recording`); the resulting
:class:`~repro.simmpi.capture.PeriodicCapture` is that recording plus
the ``T - 2`` tiles the run adds to it, each a copy of the second
iteration.

A reduction sets every rank's clock to its completion time, so every
iteration after the first starts from uniform clocks with no message in
flight, and the per-rank compute and communication times only
accumulate: they never feed back into a clock.  When the replay's
arithmetic is exact, iteration ``k + 1`` is therefore iteration ``k``
shifted by one clock advance λ, and :func:`steady_replay` resolves the
whole run in four steps:

1. replay the two recorded iterations with the scalar loop
   (:func:`~repro.simmpi.trace._replay_events`);
2. check that the rank clocks are uniform at both iteration ends;
3. advance every clock by ``tiles · λ``, where λ is the second
   iteration's clock advance;
4. advance each rank's compute and communication time by ``tiles``
   times its second-iteration increment.

**Bit-identical or refuse.**  Floating-point addition is not
translation-invariant, so the shift above is unsound for arbitrary
float durations.  It is *exact* when every duration is a non-negative
integer multiple of one dyadic quantum ``q = 2**e`` and the run's
duration total is at most ``2**52 · q``: every value the scalar replay
holds is then a sum of a subset of durations, every add, subtract, max
and comparison it performs is exact integer arithmetic, and exact
arithmetic commutes with a uniform shift.  One rule picks the exponent:
``e = ceil(log2 total) - 52``, where ``total`` is the recording's
duration sum plus ``tiles`` times its second iteration's.  Machines
built with :meth:`~repro.machines.machine.Machine.quantized` satisfy it;
continuous presets legitimately refuse.

Each failed check raises :class:`SteadyStateError` with the reason, and
callers fall back to the full replay: a noisy run, a run recorded in
full (a :class:`~repro.simmpi.trace.CompiledTrace`), a capture that is
not two halves each ending in a collective, a timebase that fails the
exactness rule, and clocks that are not uniform at a recorded iteration
end.  An accepted run is bit-identical to the full replay of its tiled
trace: elapsed time, per-rank finish/compute/comm, message and traffic
statistics.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import TraceError
from repro.simmpi.engine import RankResult, SimulationResult
from repro.simmpi.trace import (
    EV_COLLECTIVE,
    CompiledTrace,
    _copy_traffic,
    _replay_events,
)
from repro.simnet.noise import NoiseModel

if TYPE_CHECKING:
    from repro.simmpi.capture import PeriodicCapture


class SteadyStateError(TraceError):
    """The steady tier refused a run (callers fall back to full replay)."""


def _check_resolvable(source: "CompiledTrace | PeriodicCapture") -> None:
    """Raise :class:`SteadyStateError` unless ``source`` is a capture of
    two recorded iterations on a timebase that passes the exactness rule
    (see the module docstring)."""
    if isinstance(source, CompiledTrace):
        raise SteadyStateError(
            "the run was recorded in full: the steady tier resolves a "
            "periodic capture of two recorded iterations")
    recording = source.probe
    period = recording.n_events // 2
    kind = recording.event_kind
    if (period < 1 or recording.n_events != 2 * period
            or kind[period - 1] != EV_COLLECTIVE
            or kind[-1] != EV_COLLECTIVE):
        raise SteadyStateError(
            "the capture is not two recorded iterations, each ending in a "
            "collective")
    base, aux = recording._base, recording.event_aux
    total = float(base.sum()) + float(aux.sum()) + source.tiles * (
        float(base[period:].sum()) + float(aux[period:].sum()))
    if not (base.min() >= 0.0 and aux.min() >= 0.0
            and math.isfinite(total)):
        raise SteadyStateError("a duration is negative or not finite")
    if total == 0.0:
        return
    exponent = math.ceil(math.log2(total)) - 52
    for durations in (base, aux):
        scaled = np.ldexp(durations, -exponent)
        if not np.all(np.floor(scaled) == scaled):
            raise SteadyStateError(
                "durations are not integer multiples of the dyadic quantum "
                f"2**{exponent} (continuous timebase; use a quantized "
                "machine)")


def describe_steady(source: "CompiledTrace | PeriodicCapture") -> str:
    """The steady tier's noise-free verdict on ``source``, from its shape
    and the exactness rule, without resolving the run."""
    try:
        _check_resolvable(source)
    except SteadyStateError as exc:
        return f"steady refuses: {exc}"
    return "dyadic-exact timebase (steady-eligible)"


def steady_replay(source: "CompiledTrace | PeriodicCapture",
                  noise: NoiseModel | None = None) -> SimulationResult:
    """Resolve a periodic capture's run — bit-identical or refuse.

    On success the returned :class:`~repro.simmpi.engine.SimulationResult`
    is bit-identical to the full replay of the run's tiled trace (and
    hence to the reference engine).  A complete trace, noise, or any
    failed check (see the module docstring) raises
    :class:`SteadyStateError` with the reason; callers fall back to the
    full replay, so correctness is never traded for speed.
    """
    if noise is not None and not noise.is_disabled():
        raise SteadyStateError(
            "noise model is enabled: noise draws are per-event, so a noisy "
            "run has no repeating period (use the replay tier)")
    _check_resolvable(source)
    recording, tiles = source.probe, source.tiles
    period = recording.n_events // 2
    nranks = recording.nranks
    clock = [0.0] * nranks
    comm = [0.0] * nranks
    comp = [0.0] * nranks
    ready_t = [0.0] * recording.n_messages
    arrive = [0.0] * recording.n_messages
    rows = recording._column_rows(recording._base)
    srank = memoryview(recording._send_rank_arr)

    def replay_iteration() -> None:
        _replay_events(islice(rows, period), nranks, clock, comm, comp,
                       ready_t, arrive, srank)
        if min(clock) != max(clock):
            raise SteadyStateError(
                "rank clocks differ at the end of a recorded iteration")

    replay_iteration()
    start, comm1, comp1 = clock[0], list(comm), list(comp)
    replay_iteration()

    # Every term below is an integer multiple of the dyadic quantum and
    # bounded by the run's duration total, so each product and sum is exact.
    shift = tiles * (clock[0] - start)
    for rank in range(nranks):
        clock[rank] += shift
        comm[rank] += tiles * (comm[rank] - comm1[rank])
        comp[rank] += tiles * (comp[rank] - comp1[rank])

    ranks = [RankResult(
        rank=rank,
        finish_time=clock[rank],
        return_value=source.return_values[rank],
        compute_time=comp[rank],
        comm_time=comm[rank],
        messages_sent=source.messages_sent[rank],
        bytes_sent=source.bytes_sent[rank],
        messages_received=source.messages_received[rank],
        bytes_received=source.bytes_received[rank],
    ) for rank in range(nranks)]
    elapsed = max((r.finish_time for r in ranks), default=0.0)
    recording.steady_replays += 1
    return SimulationResult(nranks=nranks, ranks=ranks,
                            elapsed_time=elapsed,
                            traffic=_copy_traffic(source.traffic))
