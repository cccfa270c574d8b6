"""Periodic trace capture: record two iterations, prove the rest, tile.

Recording a modelled run's event stream (:class:`~repro.simmpi.trace.
TraceRecorder`) is O(events) pure Python: at 64 ranks x 100 iterations a
full recording takes ~0.7-1 s on a 2-vCPU VM, even from harvested op
bodies, while replay and the steady tier are fast.  But the recorder is
*timing-free*: the event order is a pure function of the rank programs'
op streams and the FIFO/matching discipline, so a run of ``m``
iterations records exactly the first ``n_m`` events of a run of ``T >
m`` iterations (the programs yield identical op sequences through
iteration ``m``; afterwards the short program simply stops).  And the
sweep's stream is eventually periodic — the steady detector
(:func:`repro.simmpi.steady.detect_period`) proves after the fact the
repetition a full capture spells out event by event.

This module exploits that structure *during* capture.  Every source
iteration of the modelled sweep is the same op sequence per rank, closed
by two reductions, and at each iteration boundary the scheduler's state
comes down to the rank that completed the last reduction
(:func:`~repro.simmpi.engine.run_ranks`).  So two recorded iterations
decide every later one: :func:`extend_recording` checks that they end in
that state with no message in flight and extends them by whole
iterations, the very events a longer recording holds.

The caller (:meth:`~repro.sweep3d.driver.SimulationPlan.compile_trace`)
has one rule.  A run of one or two iterations is recorded in full.  Any
longer run records two iterations and extends them: to the whole run if
it has at most six iterations, otherwise to a six-iteration probe, which
becomes a :class:`PeriodicCapture`: the probe, its period, the number of
periods the run adds (its *tiles*) and the run's per-rank/traffic
statistics, scaled from one period's deltas by exact integer arithmetic
(:func:`periodic_capture`).  That value stands for the whole run: the
steady tier resolves it directly
(:func:`~repro.simmpi.steady.steady_replay`), and :func:`tile_trace`
builds the full :class:`~repro.simmpi.trace.CompiledTrace` from it — each
column written once, with send-slot indices advanced by the per-period
send count on each tile — only when a replay or a trace description
needs the table.  A trace-cache entry (:mod:`repro.simmpi.tracecache`)
stores the capture itself, untiled.  The extension is built by the same
two functions, with one iteration as the period.

The contract is the steady tier's: **bit-identical to full capture or
refuse loudly**.  Every structural precondition is checked: integer
byte sizes within the float53 exact range and traffic tags the probe saw
when the capture is made; slot sequentiality, matches referencing
earlier sends and the period structure, re-verified column by column by
:func:`verify_extension`, on the tiled table.  The caller cross-checks
the synthesized return values against the two recorded iterations.  Any
failure raises :class:`~repro.errors.TraceError`, and the caller records
the whole run in full, keeping the reason.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.errors import TraceError
from repro.simmpi.steady import PeriodInfo, column_warmup
from repro.simmpi.trace import (
    EV_COLLECTIVE,
    EV_MATCH,
    EV_SEND,
    CompiledTrace,
)
from repro.simnet.topology import ClusterTopology, LinkUsageStats

#: The per-event columns of a trace, each tiled by :func:`tile_trace`.
_TILED_COLUMNS = ("event_kind", "event_rank", "event_slot", "event_aux",
                  "_base", "_noise_kind", "event_peer", "event_tag",
                  "event_nbytes")

#: Largest float64 value that is still exactly an integer grid point;
#: byte totals at or above this bound would round and break bit-identity.
_MAX_EXACT_BYTES = float(2 ** 53)


@dataclass
class CaptureInfo:
    """How one :meth:`SimulationPlan.compile_trace` produced its trace.

    ``mode`` is ``"periodic"`` (two recorded iterations, extended and
    tiled), ``"full"`` (the O(events) recorder; ``reason`` says why
    periodic capture was not used), or ``"cache"`` (served from a
    :class:`~repro.simmpi.tracecache.TraceDiskCache`).  A periodic
    capture's probe holds ``short_iterations`` iterations, proved from
    the two recorded ones, and the run adds ``tiles`` periods of one
    iteration each to it.  Event counts describe the probe's structure;
    ``capture_s`` is the wall-clock the capture cost.
    """

    mode: str
    total_iterations: int = 0
    short_iterations: int = 0
    tiles: int = 0
    warmup: int = 0
    period: int = 0
    drain: int = 0
    sends_per_period: int = 0
    reason: str = ""
    capture_s: float = 0.0

    def describe(self) -> str:
        if self.mode == "cache":
            return (f"capture: trace-cache hit "
                    f"({self.total_iterations} iteration(s))")
        if self.mode == "full":
            suffix = f" ({self.reason})" if self.reason else ""
            return (f"capture: full recorder, "
                    f"{self.total_iterations} iteration(s){suffix}")
        return (f"capture: periodic, recorded 2 of {self.total_iterations} "
                f"iteration(s), proved a {self.short_iterations}-iteration "
                f"probe and tiled {self.tiles} period(s) (warm-up "
                f"{self.warmup} + period {self.period} + drain {self.drain} "
                f"event(s), {self.sends_per_period} send(s)/period)")


def verify_extension(trace: CompiledTrace, info: PeriodInfo,
                     expected_repeats: int) -> str:
    """Check that ``trace`` repeats ``info``'s period ``expected_repeats`` times.

    The targeted equivalent of re-running the period detector over a
    tiled trace: with the period already known there is no candidate
    search.  The detector's warm-up rule, applied to the exact columns an
    event signature covers (:func:`~repro.simmpi.steady.column_warmup`:
    every column repeats at ``info.period`` and every send/match slot
    advances by the per-period send count), must put the warm-up at
    exactly ``info.warmup``, leaving ``info.drain`` trailing events.
    Comparing the columns themselves is at least as strict as comparing
    their signatures.  Returns ``""`` when the structure holds, else the
    failure reason.
    """
    n = trace.n_events
    period = info.period
    if period < 1 or n <= period:
        return "tiled trace holds less than one period"
    warmup = column_warmup(trace, period, info.sends_per_period)
    if warmup != info.warmup:
        return f"warm-up moved ({info.warmup} -> {warmup} event(s))"
    repeats = (n - warmup) // period
    if repeats != expected_repeats:
        return f"period repeats {repeats} time(s), expected {expected_repeats}"
    if (n - warmup) - repeats * period != info.drain:
        return (f"drain moved ({info.drain} -> "
                f"{(n - warmup) - repeats * period} event(s))")
    return ""


def _check_exact_bytes(trace: CompiledTrace, tiles: int,
                       d_bytes_sent: np.ndarray, d_bytes_recv: np.ndarray,
                       d_traffic_bytes: float) -> None:
    """Refuse unless every tiled byte total is exact float64 arithmetic.

    The full recorder accumulates byte counters one message at a time;
    the tiled trace reconstructs them as ``short + tiles * delta``.  The
    two agree bit for bit iff every addition is exact — guaranteed when
    all message sizes are non-negative integers and every total stays
    below 2**53 (integer-grid float64 arithmetic is exact and
    associative there).  The sweep's sizes are products of cell counts
    times 8 bytes, so real decks always pass; the guard keeps the
    bit-identity contract honest for arbitrary programs.
    """
    nbytes = trace.event_nbytes
    if len(nbytes) and (np.any(nbytes < 0.0)
                        or np.any(np.floor(nbytes) != nbytes)):
        raise TraceError(
            "periodic capture refused: message sizes are not non-negative "
            "integers, so tiled byte totals could round")
    projected = [trace._traffic.bytes + tiles * d_traffic_bytes]
    for short_totals, deltas in ((trace._bytes_sent, d_bytes_sent),
                                 (trace._bytes_received, d_bytes_recv)):
        for rank, total in enumerate(short_totals):
            projected.append(total + tiles * float(deltas[rank]))
    if projected and max(projected) >= _MAX_EXACT_BYTES:
        raise TraceError(
            "periodic capture refused: tiled byte totals exceed the exact "
            "float64 integer range (2**53)")


@dataclass
class PeriodicCapture:
    """A probe recording standing for a run ``tiles`` periods longer.

    Built by :func:`periodic_capture`.  The run's trace is the probe with
    ``tiles`` copies of its last whole period inserted before its drain
    (:func:`tile_trace`); the per-rank and traffic totals and the return
    values are those of the run, not of the probe.
    """

    probe: CompiledTrace
    info: PeriodInfo
    tiles: int
    messages_sent: list[int]
    bytes_sent: list[float]
    messages_received: list[int]
    bytes_received: list[float]
    traffic: LinkUsageStats
    return_values: list[Any]
    #: Steady-tier analysis memo, owned by :mod:`repro.simmpi.steady`.
    steady_analysis: Any = None


def periodic_capture(short: CompiledTrace, info: PeriodInfo, tiles: int,
                     return_values: list[Any],
                     topology: ClusterTopology) -> PeriodicCapture:
    """The run ``tiles`` periods longer than ``short``, as a capture.

    ``short`` must be periodic per ``info`` (its
    :func:`~repro.simmpi.steady.detect_period` outcome, or the one
    :func:`extend_recording` returned with it).  Scales the
    probe's statistics by one period's deltas in exact arithmetic and
    attaches ``return_values`` (the caller synthesizes and cross-checks
    them).  Raises :class:`~repro.errors.TraceError` when any
    precondition fails: an aperiodic probe, no tile, a period sending on
    a tag the probe never saw, byte totals past the exact float range or
    slots past the int32 range.
    """
    if not info.periodic:
        raise TraceError(f"periodic capture refused: {info.reason}")
    if tiles < 1:
        raise TraceError("periodic capture needs at least one tile")
    nranks = short.nranks
    boundary = info.warmup + info.repeats * info.period
    seg = slice(boundary - info.period, boundary)
    seg_kind = short.event_kind[seg]
    seg_rank = short.event_rank[seg]
    seg_nbytes = short.event_nbytes[seg]
    send_mask = seg_kind == EV_SEND
    match_mask = seg_kind == EV_MATCH

    # Per-rank statistics deltas of one period (exact integer arithmetic).
    d_msgs_sent = np.bincount(seg_rank[send_mask], minlength=nranks)
    d_bytes_sent = np.bincount(seg_rank[send_mask],
                               weights=seg_nbytes[send_mask],
                               minlength=nranks)
    d_msgs_recv = np.bincount(seg_rank[match_mask], minlength=nranks)
    d_bytes_recv = np.bincount(seg_rank[match_mask],
                               weights=seg_nbytes[match_mask],
                               minlength=nranks)

    # Traffic delta: re-record one period's sends through the same
    # LinkUsageStats.record the recorder uses (O(period), cheap).
    delta_traffic = LinkUsageStats()
    for source, dest, nbytes, tag in zip(
            seg_rank[send_mask].tolist(),
            short.event_peer[seg][send_mask].tolist(),
            seg_nbytes[send_mask].tolist(),
            short.event_tag[seg][send_mask].tolist()):
        delta_traffic.record(topology, source, dest, nbytes, tag)
    if any(tag not in short._traffic.by_tag for tag in delta_traffic.by_tag):
        raise TraceError(
            "periodic capture refused: period traffic uses a tag the "
            "recorded prefix never saw")
    _check_exact_bytes(short, tiles, d_bytes_sent, d_bytes_recv,
                       delta_traffic.bytes)
    if short.n_messages + tiles * info.sends_per_period >= 2 ** 31:
        raise TraceError(
            "periodic capture refused: tiled trace exceeds the int32 "
            "send-slot range")

    traffic = short._traffic
    return PeriodicCapture(
        probe=short, info=info, tiles=tiles,
        messages_sent=[int(count + tiles * d_msgs_sent[rank])
                       for rank, count in enumerate(short._messages_sent)],
        bytes_sent=[float(total + tiles * d_bytes_sent[rank])
                    for rank, total in enumerate(short._bytes_sent)],
        messages_received=[int(count + tiles * d_msgs_recv[rank])
                           for rank, count in
                           enumerate(short._messages_received)],
        bytes_received=[float(total + tiles * d_bytes_recv[rank])
                        for rank, total in enumerate(short._bytes_received)],
        traffic=LinkUsageStats(
            messages=traffic.messages + tiles * delta_traffic.messages,
            bytes=traffic.bytes + tiles * delta_traffic.bytes,
            intra_node_messages=(traffic.intra_node_messages
                                 + tiles * delta_traffic.intra_node_messages),
            inter_node_messages=(traffic.inter_node_messages
                                 + tiles * delta_traffic.inter_node_messages),
            by_tag={tag: count + tiles * delta_traffic.by_tag.get(tag, 0)
                    for tag, count in traffic.by_tag.items()},
        ),
        return_values=return_values,
    )


def tile_trace(capture: PeriodicCapture) -> CompiledTrace:
    """Synthesize the run's full trace from a periodic capture.

    The result has ``info.repeats + tiles`` whole periods between the
    probe's warm-up and drain, with send-slot indices advanced by
    ``info.sends_per_period`` per tile and the capture's statistics and
    return values attached.  Raises :class:`~repro.errors.TraceError` —
    never returns a wrong trace — when any structural check on the
    synthesized table fails, including :func:`verify_extension`.
    """
    short, info, tiles = capture.probe, capture.info, capture.tiles
    warmup, period, sends = info.warmup, info.period, info.sends_per_period
    boundary = warmup + info.repeats * period
    seg = slice(boundary - period, boundary)

    kind = short.event_kind
    seg_kind = kind[seg]
    n_messages = short.n_messages + tiles * sends
    end = boundary + tiles * period             # the drain's new start
    n_events = short.n_events + tiles * period

    # Every column is written once: prefix, the period broadcast over
    # the tiles, drain.
    tiled = {}
    for name in _TILED_COLUMNS:
        column = getattr(short, name)
        out = tiled[name] = np.empty(n_events, dtype=column.dtype)
        out[:boundary] = column[:boundary]
        out[boundary:end].reshape(tiles, period)[:] = column[seg]
        out[end:] = column[boundary:]
    new_kind = tiled["event_kind"]

    # Slot column: send/match rows advance by `sends` per tile; the drain
    # (already verified by the detector's slot-advance check to repeat
    # the period's slot pattern) shifts by the full `tiles * sends`.  The
    # capture's range check keeps this int32 arithmetic exact.
    slot = short.event_slot
    new_slot = tiled["event_slot"]
    tile_slots = new_slot[boundary:end].reshape(tiles, period)
    np.multiply(np.arange(1, tiles + 1, dtype=np.int32)[:, None] * sends,
                (seg_kind == EV_SEND) | (seg_kind == EV_MATCH),
                out=tile_slots)
    tile_slots += slot[seg]
    drain_kind = kind[boundary:]
    new_slot[end:] += np.int32(tiles * sends) * ((drain_kind == EV_SEND)
                                                 | (drain_kind == EV_MATCH))

    # Structural re-checks on the synthesized table: send slots must be
    # sequential in event order (the recorder's allocation invariant) and
    # every match must reference an earlier send.
    new_send_rows = np.flatnonzero(new_kind == EV_SEND)
    if not np.array_equal(new_slot[new_send_rows],
                          np.arange(n_messages, dtype=np.int32)):
        raise TraceError(
            "periodic capture refused: tiled send slots are not sequential "
            "(slot-advance structure does not extend)")
    new_match_rows = np.flatnonzero(new_kind == EV_MATCH)
    if len(new_match_rows) and not np.all(
            new_send_rows[new_slot[new_match_rows]] < new_match_rows):
        raise TraceError(
            "periodic capture refused: a tiled match precedes its send")

    # Send tables in slot order.  Slots are sequential in event order (in
    # the tiled trace, checked above, hence in the short one), so the
    # tiled table repeats the period's slot range: the protocol and the
    # sender depend only on the message's route, which repeats.
    slots_before = short.n_messages - int(np.count_nonzero(drain_kind == EV_SEND))

    def tiled_sends(table: np.ndarray) -> np.ndarray:
        return np.concatenate([table[:slots_before],
                               np.tile(table[slots_before - sends:
                                             slots_before], tiles),
                               table[slots_before:]])

    full = CompiledTrace(
        nranks=short.nranks,
        event_kind=new_kind,
        event_rank=tiled["event_rank"],
        event_slot=new_slot,
        event_aux=tiled["event_aux"],
        base=tiled["_base"],
        noise_kind=tiled["_noise_kind"],
        send_eager=tiled_sends(short._send_eager_arr),
        send_rank=tiled_sends(short._send_rank_arr),
        event_peer=tiled["event_peer"],
        event_tag=tiled["event_tag"],
        event_nbytes=tiled["event_nbytes"],
        messages_sent=capture.messages_sent,
        bytes_sent=capture.bytes_sent,
        messages_received=capture.messages_received,
        bytes_received=capture.bytes_received,
        traffic=capture.traffic,
        return_values=capture.return_values,
    )
    # Re-verify on the synthesized trace: the same structure must extend
    # by exactly `tiles` repeats.
    failure = verify_extension(full, info, info.repeats + tiles)
    if failure:
        raise TraceError(f"periodic capture refused: {failure}")
    return full


def extend_recording(recording: CompiledTrace, collective_ranks: list[int],
                     iterations: int, return_values: list[Any],
                     topology: ClusterTopology
                     ) -> tuple[CompiledTrace, PeriodInfo]:
    """The ``iterations``-iteration recording, proved from a two-iteration
    one, and its period structure.

    ``recording`` holds two iterations of rank programs that yield the
    same op sequence in every iteration and close it with two
    collectives (the modelled sweep's ``globalmax`` and ``globalsum``),
    whatever the reductions return.  ``collective_ranks`` names the rank
    that completed each collective
    (:attr:`~repro.simmpi.trace.TraceRecorder.collective_ranks`) and
    ``return_values`` are the longer run's.

    The argument:

    * when an allreduce completes, every other rank is blocked in it: no
      rank waits in a receive or a rendez-vous send, and the ready queue
      is empty;
    * :func:`~repro.simmpi.engine.run_ranks` then queues the other ranks
      in rank order and continues the completing rank; the start of a
      run is the same state with rank 0;
    * if no message is in flight at that moment, the next iteration's
      events depend on the completing rank alone;
    * so if iterations 1 and 2 end with their last reduction completed by
      the same rank, iteration 3 starts in iteration 2's state.  It
      repeats iteration 2's events with send slots advanced by the
      iteration's send count, and it ends the same way; by induction, so
      does every later iteration.

    This checks the argument's conditions on the recording: it holds
    exactly four collectives; each iteration holds half the events and
    ends in its two collectives; every send is matched within its own
    iteration; the same rank completed both iterations' last reduction.
    The result is built as a :class:`PeriodicCapture` whose period is one
    iteration's events and whose warm-up is
    :func:`~repro.simmpi.steady.column_warmup`'s on the recording, tiled
    by :func:`tile_trace`, so every check :func:`periodic_capture` and
    :func:`tile_trace` make holds on it too.  The returned
    :class:`~repro.simmpi.steady.PeriodInfo` is the recording's with the
    tiles added to its repeats, which :func:`verify_extension` checked on
    the result.  Raises :class:`~repro.errors.TraceError` naming the
    first check that fails.
    """
    n = recording.n_events
    period = n // 2
    kind = recording.event_kind
    collectives = np.flatnonzero(kind == EV_COLLECTIVE).tolist()
    if len(collectives) != 4:
        raise TraceError(
            f"the two-iteration recording holds {len(collectives)} "
            "collective(s), not four")
    if n % 2 or collectives != [period - 2, period - 1, n - 2, n - 1]:
        raise TraceError(
            "the two recorded iterations do not hold half the events each, "
            "each ending in its two collectives")
    # Slots are numbered in send order, so send rows are in slot order.
    match_rows = np.full(recording.n_messages, n)
    matches = np.flatnonzero(kind == EV_MATCH)
    match_rows[recording.event_slot[matches]] = matches
    if np.any(match_rows // period
              != np.flatnonzero(kind == EV_SEND) // period):
        raise TraceError(
            "a message is in flight at the end of a recorded iteration")
    if collective_ranks[1] != collective_ranks[3]:
        raise TraceError(
            f"the last reductions of iterations 1 and 2 were completed by "
            f"ranks {collective_ranks[1]} and {collective_ranks[3]}")
    sends = int(np.count_nonzero(kind[period:] == EV_SEND))
    warmup = column_warmup(recording, period, sends)
    repeats = (n - warmup) // period
    info = PeriodInfo(periodic=True, warmup=warmup, period=period,
                      repeats=repeats, drain=n - warmup - repeats * period,
                      sends_per_period=sends)
    tiles = iterations - 2
    extended = tile_trace(periodic_capture(recording, info, tiles,
                                           return_values, topology))
    return extended, replace(info, repeats=repeats + tiles)
