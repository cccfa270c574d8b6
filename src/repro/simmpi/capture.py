"""Periodic trace capture: record one period, tile the rest.

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

This module exploits that structure *during* capture.  A short probe
capture that already exhibits warm-up + a few whole periods + drain
becomes a :class:`PeriodicCapture`: the probe, its period, the number of
periods the run adds (its *tiles*) and the run's per-rank/traffic
statistics, scaled from one period's deltas by exact integer arithmetic
(:func:`periodic_capture`).  That value stands for the whole run: the
steady tier resolves it directly (:func:`~repro.simmpi.steady.
steady_replay`), and :func:`tile_trace` builds the full
:class:`~repro.simmpi.trace.CompiledTrace` from it — each column written
once, with send-slot indices advanced by the per-period send count on
each tile (the advance the detector verified) — only when a replay or
a trace description needs the table.  A trace-cache entry
(:mod:`repro.simmpi.tracecache`) stores the capture itself, untiled.

The contract is the steady tier's: **bit-identical to full capture or
refuse loudly**.  Every structural precondition is checked: integer
byte sizes within the float53 exact range and traffic tags the probe saw
when the capture is made; slot sequentiality, matches referencing
earlier sends and the period structure, re-verified column by column by
:func:`verify_extension`, on the tiled table.  Callers
(:meth:`~repro.sweep3d.driver.SimulationPlan.compile_trace`) anchor the
iteration count on the per-period collective count and cross-check the
synthesized return values against the recorded prefix — any failure
raises :class:`~repro.errors.TraceError` and the caller falls back to
the full recorder.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    ``mode`` is ``"periodic"`` (short capture + tiling), ``"full"`` (the
    O(events) recorder; ``reason`` says why periodic capture was not
    used), or ``"cache"`` (served from a :class:`~repro.simmpi.tracecache.
    TraceDiskCache`).  Event counts describe the *short* capture's
    structure; ``capture_s`` is the wall-clock the capture cost.
    """

    mode: str
    total_iterations: int = 0
    short_iterations: int = 0
    tiles: int = 0
    warmup: int = 0
    period: int = 0
    drain: int = 0
    sends_per_period: int = 0
    iterations_per_period: int = 0
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
        return (f"capture: periodic, recorded {self.short_iterations} of "
                f"{self.total_iterations} iteration(s) and tiled "
                f"{self.tiles} period(s) "
                f"(warm-up {self.warmup} + period {self.period} x "
                f"{self.iterations_per_period} iteration(s)/period + drain "
                f"{self.drain}, {self.sends_per_period} send(s)/period)")


def collectives_per_period(trace: CompiledTrace, info: PeriodInfo) -> int:
    """Number of collective events inside one detected period."""
    end = info.warmup + info.repeats * info.period
    segment = trace.event_kind[end - info.period:end]
    return int(np.count_nonzero(segment == EV_COLLECTIVE))


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

    ``short`` must be periodic per ``info`` (its own
    :func:`~repro.simmpi.steady.detect_period` outcome).  Scales the
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
