"""Periodic trace capture: record two iterations, prove the rest, tile.

Recording a modelled run's event stream (:class:`~repro.simmpi.trace.
TraceRecorder`) is O(events) pure Python: at 64 ranks x 100 iterations a
full recording takes ~0.7-1 s on a 2-vCPU VM, even from harvested op
bodies, while replay and the steady tier are fast.  But the recorder is
*timing-free*: the event order is a pure function of the rank programs'
op streams and the FIFO/matching discipline, so a run of ``m``
iterations records exactly the first ``n_m`` events of a run of ``T >
m`` iterations (the programs yield identical op sequences through
iteration ``m``; afterwards the short program simply stops).

This module exploits that structure *during* capture.  Every source
iteration of the modelled sweep is the same op sequence per rank, closed
by two reductions, and at each iteration boundary the scheduler's state
comes down to the rank that completed the last reduction
(:func:`~repro.simmpi.engine.run_ranks`).  So two recorded iterations
decide every later one: :func:`extend_recording` checks that they end in
that state with no message in flight and returns a
:class:`PeriodicCapture`: the two-iteration recording, its period
structure (:class:`PeriodInfo`, one iteration per period), the ``T - 2``
periods the run adds to it (its *tiles*) and the run's per-rank/traffic
statistics, scaled from one period's deltas by exact integer arithmetic
(:func:`periodic_capture`).

The caller (:meth:`~repro.sweep3d.driver.SimulationPlan.compile_trace`)
has one rule.  A run of one or two iterations is recorded in full; any
longer run is captured periodically.  The capture stands for the whole
run: the steady tier resolves it directly
(:func:`~repro.simmpi.steady.steady_replay`), a trace-cache entry
(:mod:`repro.simmpi.tracecache`) stores it as it is, and
:func:`tile_trace` builds the full :class:`~repro.simmpi.trace.
CompiledTrace` from it — each column written once, with send-slot
indices advanced by the per-period send count on each tile — only when a
replay needs the table.

The contract is the steady tier's: **bit-identical to full capture or
refuse loudly**.  Every structural precondition is checked: integer
byte sizes within the float53 exact range and traffic tags the
recording saw when the capture is made; slot sequentiality, matches
referencing earlier sends and the period structure, re-verified column
by column by :func:`verify_extension`, on the tiled table.  The caller
cross-checks the synthesized return values against the two recorded
iterations.  Any failure raises :class:`~repro.errors.TraceError`, and
the caller records the whole run in full, keeping the reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import TraceError
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


@dataclass(frozen=True)
class PeriodInfo:
    """The period structure of a recording.

    The recording splits as ``warmup + repeats × period + drain`` (event
    counts); ``sends_per_period`` is the constant by which send slot
    indices advance between consecutive periods.
    """

    warmup: int
    period: int
    repeats: int
    drain: int
    sends_per_period: int


@dataclass
class CaptureInfo:
    """How one :meth:`SimulationPlan.compile_trace` produced its trace.

    ``mode`` is ``"periodic"`` (two recorded iterations, extended by
    ``tiles`` periods of one iteration each), ``"full"`` (the O(events)
    recorder; ``reason`` says why periodic capture was not used), or
    ``"cache"`` (served from a
    :class:`~repro.simmpi.tracecache.TraceDiskCache`).  Event counts
    describe the recording's structure; ``capture_s`` is the wall-clock
    the capture cost.
    """

    mode: str
    total_iterations: int = 0
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
                f"iteration(s) and proved {self.tiles} more (warm-up "
                f"{self.warmup} + period {self.period} + drain {self.drain} "
                f"event(s), {self.sends_per_period} send(s)/period)")


def _signature_columns(trace: CompiledTrace) -> tuple:
    """The per-event columns that must repeat one period later, as
    integers.

    Float columns enter as their bit patterns.  The last column is the
    eager flag: 0 off send/match events, else 1 plus the event's
    send-slot eager bit (the other events' slot -1 reads the table's
    trailing 0).
    """
    kind = trace.event_kind
    flag_of_slot = np.zeros(len(trace._send_eager_arr) + 1, dtype=np.uint8)
    np.add(trace._send_eager_arr, 1, out=flag_of_slot[:-1], casting="unsafe")
    eager_flag = flag_of_slot.take(trace.event_slot)
    return (kind, trace.event_rank, trace.event_peer, trace.event_tag,
            np.ascontiguousarray(trace.event_nbytes).view(np.int64),
            np.ascontiguousarray(trace._base).view(np.int64),
            np.ascontiguousarray(trace.event_aux).view(np.int64),
            trace._noise_kind, eager_flag)


def _past_slot_failures(trace: CompiledTrace, warmup: int, period: int,
                        sends: int) -> int:
    """``warmup``, moved past the last send/match event from ``warmup`` on
    whose slot does not advance by ``sends`` one period later.

    Only send and match events carry a slot; every other event's is -1.
    """
    n = trace.n_events
    slot = trace.event_slot[warmup:n - period]
    fails = trace.event_slot[warmup + period:] - slot != sends
    fails &= slot >= 0
    failures = np.flatnonzero(fails)
    return warmup + int(failures[-1]) + 1 if len(failures) else warmup


def column_warmup(trace: CompiledTrace, period: int, sends: int) -> int:
    """The first event from which ``trace`` repeats at ``period``.

    From that event on, every column :func:`_signature_columns` covers
    repeats one period later and every send/match slot advances by
    ``sends``.  (With rendez-vous messages a few early receives match
    sends numbered in another order than later periods', while their
    other columns already repeat: those receives belong to the warm-up.)
    Requires ``period < trace.n_events``.
    """
    n = trace.n_events
    differs = np.zeros(n - period, dtype=bool)
    column_differs = np.empty_like(differs)
    for column in _signature_columns(trace):
        np.not_equal(column[period:], column[:-period], out=column_differs)
        differs |= column_differs
    mismatch = np.flatnonzero(differs)
    warmup = int(mismatch[-1]) + 1 if len(mismatch) else 0
    return _past_slot_failures(trace, warmup, period, sends)


def verify_extension(trace: CompiledTrace, info: PeriodInfo,
                     expected_repeats: int) -> str:
    """Check that ``trace`` repeats ``info``'s period ``expected_repeats`` times.

    :func:`column_warmup` (every column repeats at ``info.period`` and
    every send/match slot advances by the per-period send count) must
    put the warm-up at exactly ``info.warmup``, leaving ``info.drain``
    trailing events.  Returns ``""`` when the structure holds, else the
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
    """A recording standing for a run ``tiles`` periods longer.

    Built by :func:`periodic_capture`.  The run's trace is the recording
    (``probe``) with ``tiles`` copies of its last whole period inserted
    before its drain (:func:`tile_trace`); the per-rank and traffic
    totals and the return values are those of the run, not of the
    recording.
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


def periodic_capture(short: CompiledTrace, info: PeriodInfo, tiles: int,
                     return_values: list[Any],
                     topology: ClusterTopology) -> PeriodicCapture:
    """The run ``tiles`` periods longer than ``short``, as a capture.

    ``short`` must repeat per ``info`` (:func:`extend_recording` makes
    both).  Scales the recording's statistics by one period's deltas in
    exact arithmetic and attaches ``return_values`` (the caller
    synthesizes and cross-checks them).  Raises
    :class:`~repro.errors.TraceError` when any precondition fails: no
    tile, a period sending on a tag the recording never saw, byte totals
    past the exact float range or slots past the int32 range.
    """
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
    recording's warm-up and drain, with send-slot indices advanced by
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
    # (already checked by column_warmup's slot-advance rule to repeat
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


def share_columns(capture: PeriodicCapture, table: CompiledTrace) -> None:
    """Point ``capture``'s recording at the first rows of ``table``, the
    trace :func:`tile_trace` built from it, so the plan holding both
    keeps one copy of the recorded columns.

    Those rows are the recording, column for column: :func:`tile_trace`
    copies it up to its last whole period, continues with the first tile,
    and :func:`verify_extension` checked that every column repeats from
    the warm-up with its slots advanced.
    """
    recording = capture.probe
    n, messages = recording.n_events, recording.n_messages
    for name in _TILED_COLUMNS:
        setattr(recording, name, getattr(table, name)[:n])
    for name in ("_send_eager_arr", "_send_rank_arr"):
        setattr(recording, name, getattr(table, name)[:messages])


def extend_recording(recording: CompiledTrace, collective_ranks: list[int],
                     iterations: int, return_values: list[Any],
                     topology: ClusterTopology) -> PeriodicCapture:
    """The ``iterations``-iteration run, proved from a two-iteration
    recording, as a :class:`PeriodicCapture`.

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
    The capture's period is one iteration's events, its warm-up is
    :func:`column_warmup`'s on the recording and its tiles are the
    ``iterations - 2`` iterations the recording leaves out; every check
    of :func:`periodic_capture` holds on it.  Raises
    :class:`~repro.errors.TraceError` naming the first check that fails.
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
    info = PeriodInfo(warmup=warmup, period=period, repeats=repeats,
                      drain=n - warmup - repeats * period,
                      sends_per_period=sends)
    return periodic_capture(recording, info, iterations - 2, return_values,
                            topology)
