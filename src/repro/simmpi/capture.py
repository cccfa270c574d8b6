"""Periodic trace capture: record two iterations, prove the rest, tile.

Recording a modelled run's event stream (:class:`~repro.simmpi.trace.
TraceRecorder`) is O(events) pure Python, even from harvested op
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
:class:`PeriodicCapture`: the two-iteration recording, the ``T - 2``
iterations the run adds to it (its *tiles*, each a copy of the
recording's second half) and the run's per-rank/traffic statistics,
scaled from the second iteration's deltas by exact integer arithmetic.

The caller (:meth:`~repro.sweep3d.driver.SimulationPlan.compile_trace`)
has one rule.  A run of one or two iterations is recorded in full; any
longer run is captured periodically.  The capture stands for the whole
run: the steady tier resolves it directly
(:func:`~repro.simmpi.steady.steady_replay`), a trace-cache entry
(:mod:`repro.simmpi.tracecache`) stores it as it is, and
:func:`tile_trace` builds the full :class:`~repro.simmpi.trace.
CompiledTrace` from it — the recording, then each tile with its send-slot
indices advanced by the second iteration's send count — only when a
replay needs the table.

The contract is the steady tier's: **bit-identical to full capture or
refuse loudly**.  Every structural precondition is checked: integer
byte sizes within the float53 exact range and traffic tags the
recording saw when the capture is made; on the tiled table, that send
slots are sequential and that every match comes after its send.  The
caller cross-checks the synthesized return values against the two
recorded iterations.  Any failure raises
:class:`~repro.errors.TraceError`, and the caller records the whole run
in full, keeping the reason.
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


@dataclass
class CaptureInfo:
    """How one :meth:`SimulationPlan.compile_trace` produced its trace.

    ``mode`` is ``"periodic"`` (two recorded iterations, extended by
    ``tiles`` copies of the second), ``"full"`` (the O(events) recorder;
    ``reason`` says why periodic capture was not used), or ``"cache"``
    (served from a :class:`~repro.simmpi.tracecache.TraceDiskCache`).
    ``period`` and ``sends_per_period`` count one iteration's events and
    sends; ``capture_s`` is the wall-clock the capture cost.
    """

    mode: str
    total_iterations: int = 0
    tiles: int = 0
    period: int = 0
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
                f"iteration(s) and proved {self.tiles} more ({self.period} "
                f"event(s) and {self.sends_per_period} send(s) per iteration)")


def second_iteration(recording: CompiledTrace) -> tuple[int, int]:
    """The events and sends of one iteration: the second half of a
    two-iteration recording."""
    period = recording.n_events // 2
    return period, int(np.count_nonzero(
        recording.event_kind[period:] == EV_SEND))


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
    """Two recorded iterations standing for a run ``tiles`` iterations
    longer.

    Built by :func:`extend_recording`.  The run's trace is the recording
    (``probe``) followed by ``tiles`` copies of its second half, the
    second iteration (:func:`tile_trace`); the per-rank and traffic
    totals and the return values are those of the run, not of the
    recording.
    """

    probe: CompiledTrace
    tiles: int
    messages_sent: list[int]
    bytes_sent: list[float]
    messages_received: list[int]
    bytes_received: list[float]
    traffic: LinkUsageStats
    return_values: list[Any]


def tile_trace(capture: PeriodicCapture) -> CompiledTrace:
    """Synthesize the run's full trace from a periodic capture.

    The result is the recording followed by ``tiles`` copies of its
    second iteration, the ``k``-th with its send slots advanced by ``k``
    times that iteration's send count, and carries the capture's
    statistics and return values.  Raises
    :class:`~repro.errors.TraceError` — never returns a wrong trace —
    when the synthesized send slots are not sequential or a match
    precedes its send.
    """
    short, tiles = capture.probe, capture.tiles
    n = short.n_events
    period, sends = second_iteration(short)
    seg_kind = short.event_kind[period:]
    n_messages = short.n_messages + tiles * sends
    n_events = n + tiles * period

    # Every column is written once: the recording, then its second
    # iteration broadcast over the tiles.
    tiled = {}
    for name in _TILED_COLUMNS:
        column = getattr(short, name)
        out = tiled[name] = np.empty(n_events, dtype=column.dtype)
        out[:n] = column
        out[n:].reshape(tiles, period)[:] = column[period:]
    new_kind = tiled["event_kind"]

    # Slot column: send/match rows of tile k advance by k * `sends`.  The
    # capture's range check keeps this int32 arithmetic exact.
    new_slot = tiled["event_slot"]
    tile_slots = new_slot[n:].reshape(tiles, period)
    np.multiply(np.arange(1, tiles + 1, dtype=np.int32)[:, None] * sends,
                (seg_kind == EV_SEND) | (seg_kind == EV_MATCH),
                out=tile_slots)
    tile_slots += short.event_slot[period:]

    # Structural checks on the synthesized table: send slots must be
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

    # Send tables in slot order: the second iteration's sends hold the
    # recording's last slots, and each tile repeats them (the protocol
    # and the sender depend only on the message's route, which repeats).
    def tiled_sends(table: np.ndarray) -> np.ndarray:
        return np.concatenate([table, np.tile(table[len(table) - sends:],
                                              tiles)])

    return CompiledTrace(
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


def share_columns(capture: PeriodicCapture, table: CompiledTrace) -> None:
    """Point ``capture``'s recording at the first rows of ``table``, the
    trace :func:`tile_trace` built from it, so the plan holding both
    keeps one copy of the recorded columns.

    Those rows are the recording, column for column: :func:`tile_trace`
    writes it first and appends the tiles after it.
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
    ``return_values`` are the longer run's (the caller synthesizes and
    cross-checks them).

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
    The capture's tiles are the ``iterations - 2`` iterations the
    recording leaves out, and its statistics add ``tiles`` times the
    second iteration's to the recording's, in exact arithmetic.  Raises
    :class:`~repro.errors.TraceError` naming the first check that fails,
    also when there is no tile, when the second iteration sends on a tag
    the recording never saw, or when the run's byte totals or send slots
    leave the exact float or int32 range.
    """
    tiles = iterations - 2
    if tiles < 1:
        raise TraceError("periodic capture needs at least one tile")
    n = recording.n_events
    period, sends = second_iteration(recording)
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

    # Per-rank statistics deltas of the second iteration (exact integer
    # arithmetic).
    nranks = recording.nranks
    seg_kind = kind[period:]
    seg_rank = recording.event_rank[period:]
    seg_nbytes = recording.event_nbytes[period:]
    send_mask = seg_kind == EV_SEND
    match_mask = seg_kind == EV_MATCH
    d_msgs_sent = np.bincount(seg_rank[send_mask], minlength=nranks)
    d_bytes_sent = np.bincount(seg_rank[send_mask],
                               weights=seg_nbytes[send_mask],
                               minlength=nranks)
    d_msgs_recv = np.bincount(seg_rank[match_mask], minlength=nranks)
    d_bytes_recv = np.bincount(seg_rank[match_mask],
                               weights=seg_nbytes[match_mask],
                               minlength=nranks)

    # Traffic delta: re-record the second iteration's sends through the
    # same LinkUsageStats.record the recorder uses (O(period), cheap).
    delta_traffic = LinkUsageStats()
    for source, dest, nbytes, tag in zip(
            seg_rank[send_mask].tolist(),
            recording.event_peer[period:][send_mask].tolist(),
            seg_nbytes[send_mask].tolist(),
            recording.event_tag[period:][send_mask].tolist()):
        delta_traffic.record(topology, source, dest, nbytes, tag)
    if any(tag not in recording._traffic.by_tag
           for tag in delta_traffic.by_tag):
        raise TraceError(
            "periodic capture refused: period traffic uses a tag the "
            "recorded prefix never saw")
    _check_exact_bytes(recording, tiles, d_bytes_sent, d_bytes_recv,
                       delta_traffic.bytes)
    if recording.n_messages + tiles * sends >= 2 ** 31:
        raise TraceError(
            "periodic capture refused: tiled trace exceeds the int32 "
            "send-slot range")

    traffic = recording._traffic
    return PeriodicCapture(
        probe=recording, tiles=tiles,
        messages_sent=[int(count + tiles * d_msgs_sent[rank])
                       for rank, count in
                       enumerate(recording._messages_sent)],
        bytes_sent=[float(total + tiles * d_bytes_sent[rank])
                    for rank, total in enumerate(recording._bytes_sent)],
        messages_received=[int(count + tiles * d_msgs_recv[rank])
                           for rank, count in
                           enumerate(recording._messages_received)],
        bytes_received=[float(total + tiles * d_bytes_recv[rank])
                        for rank, total in
                        enumerate(recording._bytes_received)],
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
