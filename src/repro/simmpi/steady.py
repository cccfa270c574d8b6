"""Steady-state tier: O(period) resolution of periodic modelled traces.

Long pipelined sweeps settle into a *periodic regime*: after a warm-up
prefix, every rank repeats the same recv→compute→send pattern once per
block/angle batch, and the whole event stream is a warm-up + ``k``
verbatim repetitions of one period + a drain tail.  Replaying such a
trace (:meth:`~repro.simmpi.trace.CompiledTrace.replay`) is O(n_events)
even though the answer is determined by one period: in steady state the
max-plus recurrence grows by a constant per-period vector λ, so

    ``state(warmup + k·P) = state(warmup + j·P) + (k - j) · λ``

for any locked boundary ``j``.  This module detects the period, verifies
the growth vector has *locked*, extrapolates, and replays only the drain
— O(warmup + a few periods + drain) instead of O(n_events).

**Bit-identical or refuse.**  Floating-point addition is not
translation-invariant, so the extrapolation above is unsound for
arbitrary float durations.  It becomes *exact* when every event duration
is an integer multiple of one dyadic quantum ``q = 2**e`` and every
partial sum stays below ``2**52 · q``: then every add/subtract/max the
scalar replay performs is exact integer arithmetic, exact arithmetic is
associative and translation-invariant, and a locked per-period delta
provably repeats forever.  The tier therefore refuses (raising
:class:`SteadyStateError`, callers fall back to full replay) unless

* the noise model is disabled (noise draws break periodicity),
* the event stream is pattern-periodic with at least :data:`MIN_REPEATS`
  repetitions (kind/rank/peer/tag/nbytes/duration signature, send-slot
  indices advancing by a constant per period),
* the timebase is dyadic-exact (machines built with
  :meth:`~repro.machines.machine.Machine.quantized` guarantee this;
  continuous presets legitimately refuse), and
* a scan of consecutive period boundaries finds :data:`_LOCKIN_RUN`
  transitions whose full state delta — a *uniform* clock/slot-timestamp
  advance λ plus constant per-rank compute/comm increments — is bitwise
  identical (non-uniform growth means ranks have not coupled yet, and
  extrapolating would be unsound).

Every replayed segment (warm-up, lock-in scan, drain) goes through the
same scalar loop as :meth:`CompiledTrace.replay`
(:func:`~repro.simmpi.trace._replay_events`), so on acceptance the result
is bit-identical to the full replay — elapsed time, per-rank
finish/compute/comm, message and traffic statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import TraceError
from repro.simmpi.engine import RankResult, SimulationResult
from repro.simmpi.trace import (
    EV_MATCH,
    EV_SEND,
    _copy_traffic,
    _replay_events,
)
from repro.simnet.noise import NoiseModel

if TYPE_CHECKING:
    from repro.simmpi.trace import CompiledTrace

#: Minimum number of period repetitions before steady is attempted.
MIN_REPEATS = 5

#: Distinct anchor-recurrence distances tried as candidate periods.
_MAX_CANDIDATES = 12

#: Period boundaries scanned for a locked growth vector before refusing.
_LOCKIN_BUDGET = 16

#: Consecutive bitwise-identical boundary transitions required to lock.
_LOCKIN_RUN = 3


class SteadyStateError(TraceError):
    """The steady tier refused a trace (callers fall back to full replay)."""


@dataclass(frozen=True)
class PeriodInfo:
    """Outcome of the period detection over one compiled trace.

    A periodic trace splits as ``warmup + repeats × period + drain``
    (event counts); ``sends_per_period`` is the constant by which send
    slot indices advance between consecutive periods.  For an aperiodic
    trace only ``reason`` is meaningful.
    """

    periodic: bool
    warmup: int = 0
    period: int = 0
    repeats: int = 0
    drain: int = 0
    sends_per_period: int = 0
    reason: str = ""

    def describe(self) -> str:
        if not self.periodic:
            return f"aperiodic ({self.reason})"
        return (f"periodic: warm-up {self.warmup} + {self.repeats} x "
                f"{self.period} event(s) + drain {self.drain}, "
                f"{self.sends_per_period} send(s)/period")


@dataclass
class _SteadyAnalysis:
    """Pattern-level (noise-independent) analysis memo of one trace."""

    info: PeriodInfo
    #: Dyadic quantum exponent ``e`` (``q = 2**e``), or ``None`` when the
    #: timebase is not exactly representable on any single dyadic grid.
    exponent: int | None
    exact_reason: str
    #: Per-slot send/match event indices (match == n_events: never matched).
    send_ev: np.ndarray
    match_ev: np.ndarray
    #: Message slots that are in flight across at least one period
    #: boundary, with the (inclusive) range of boundary indices ``j``
    #: (boundary ``j`` sits before event ``warmup + j*period``) each one
    #: spans.  Lets :func:`steady_replay` fetch a boundary's live set in
    #: O(candidates) instead of O(n_messages) per call.
    live_candidates: np.ndarray = None  # type: ignore[assignment]
    live_lo: np.ndarray = None          # type: ignore[assignment]
    live_hi: np.ndarray = None          # type: ignore[assignment]

    def live_at(self, j: int) -> np.ndarray:
        """Slots live at boundary ``j`` (sorted ascending)."""
        mask = (self.live_lo <= j) & (j <= self.live_hi)
        return self.live_candidates[mask]


def _signature_columns(trace: "CompiledTrace") -> tuple:
    """The per-event columns an event's signature covers, as integers.

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


def _signatures(trace: "CompiledTrace") -> np.ndarray:
    """Int64 content signature per event (pattern + exact durations).

    Folds :func:`_signature_columns` into ``h`` in place, ``h = h *
    1000003 ^ column`` in wrapping int64 arithmetic, widening each
    column on the fly.
    """
    first, *rest = _signature_columns(trace)
    h = first.astype(np.int64)
    mult = np.int64(1000003)
    for col in rest:
        h *= mult
        h ^= col
    return h


def _detect_period(trace: "CompiledTrace") -> PeriodInfo:
    """Find the repeating suffix of the event stream, if any.

    Candidate periods are the recurrence distances of the *last* event's
    signature; the smallest candidate whose periodicity check passes
    wins.  A candidate must satisfy (a) ``sig[i + P] == sig[i]`` for
    every ``i`` in the periodic region, (b) send-slot indices advancing
    by exactly the per-period send count ``M``, and (c) at least
    :data:`MIN_REPEATS` whole repetitions.
    """
    n = trace.n_events
    if n == 0:
        return PeriodInfo(periodic=False, reason="empty trace")
    sig = _signatures(trace)
    occ = np.flatnonzero(sig == sig[-1])
    if len(occ) < 2:
        return PeriodInfo(periodic=False,
                          reason="final event's signature never recurs")
    diffs = occ[-1] - occ[-1 - np.arange(1, min(_MAX_CANDIDATES + 1, len(occ)))]
    kind_col = trace.event_kind
    b_col = trace.event_slot.astype(np.int64)
    slot_mask = (kind_col == EV_SEND) | (kind_col == EV_MATCH)
    for period in sorted(set(int(d) for d in diffs)):
        if period < 1 or period >= n:
            continue
        mismatch = np.flatnonzero(sig[period:] != sig[:-period])
        warmup = int(mismatch[-1]) + 1 if len(mismatch) else 0
        repeats = (n - warmup) // period
        if repeats < MIN_REPEATS:
            continue
        sends = int(np.count_nonzero(
            kind_col[warmup:warmup + period] == EV_SEND))
        region = slot_mask[warmup:n - period]
        if not np.array_equal(b_col[warmup + period:n][region],
                              b_col[warmup:n - period][region] + sends):
            continue
        return PeriodInfo(periodic=True, warmup=warmup, period=period,
                          repeats=repeats, drain=(n - warmup) - repeats * period,
                          sends_per_period=sends)
    return PeriodInfo(
        periodic=False,
        reason=f"no candidate period with >= {MIN_REPEATS} repetitions")


def _dyadic_exponent(trace: "CompiledTrace") -> tuple[int | None, str]:
    """The shared dyadic grid exponent, or ``None`` with a reason.

    ``B`` (the sum of every base and auxiliary duration) bounds every
    value the scalar replay can hold, since each clock/accumulator is a
    sum of a subset of durations.  With ``e = ceil(log2 B) - 52`` the
    bound is ``B <= 2**52 · 2**e``, so if every duration is an integer
    multiple of ``q = 2**e`` the whole replay is exact integer
    arithmetic — the property the extrapolation relies on.
    """
    durations = np.concatenate([trace._base, trace.event_aux])
    total = float(durations.sum())
    if total == 0.0:
        return 0, ""
    exponent = math.ceil(math.log2(total)) - 52
    scaled = np.ldexp(durations, -exponent)
    if not np.all(np.floor(scaled) == scaled):
        return None, ("durations are not integer multiples of the dyadic "
                      f"quantum 2**{exponent} (continuous timebase; use a "
                      "quantized machine)")
    return exponent, ""


def analyze(trace: "CompiledTrace") -> _SteadyAnalysis:
    """Period + exactness analysis of a trace, cached on the trace."""
    cached = trace._steady_cache
    if cached is not None:
        return cached
    n = trace.n_events
    nmsg = trace.n_messages
    if n:
        info = _detect_period(trace)
        exponent, exact_reason = _dyadic_exponent(trace)
        kind_col = trace.event_kind
        b_col = trace.event_slot.astype(np.int64)
        send_ev = np.full(nmsg, -1, dtype=np.int64)
        send_mask = kind_col == EV_SEND
        send_ev[b_col[send_mask]] = np.flatnonzero(send_mask)
        match_ev = np.full(nmsg, n, dtype=np.int64)
        match_mask = kind_col == EV_MATCH
        match_ev[b_col[match_mask]] = np.flatnonzero(match_mask)
    else:
        info = PeriodInfo(periodic=False, reason="empty trace")
        exponent, exact_reason = 0, ""
        send_ev = np.empty(0, dtype=np.int64)
        match_ev = np.empty(0, dtype=np.int64)
    if info.periodic:
        # Boundary j sits before event warmup + j*period; slot s is live
        # there iff send_ev[s] < boundary <= match_ev[s] (and the slot is
        # matched at all), i.e. for j in [live_lo[s], live_hi[s]].
        live_lo = (send_ev - info.warmup) // info.period + 1
        live_hi = np.where(match_ev < n,
                           (match_ev - info.warmup) // info.period,
                           np.int64(-1))
        candidates = np.flatnonzero(live_lo <= live_hi)
        live_lo = live_lo[candidates]
        live_hi = live_hi[candidates]
    else:
        candidates = np.empty(0, dtype=np.int64)
        live_lo = np.empty(0, dtype=np.int64)
        live_hi = np.empty(0, dtype=np.int64)
    analysis = _SteadyAnalysis(info=info, exponent=exponent,
                               exact_reason=exact_reason,
                               send_ev=send_ev, match_ev=match_ev,
                               live_candidates=candidates,
                               live_lo=live_lo, live_hi=live_hi)
    trace._steady_cache = analysis
    return analysis


def detect_period(trace: "CompiledTrace") -> PeriodInfo:
    """Public period-detection entry point (cached with the analysis)."""
    return analyze(trace).info


def describe_steady(trace: "CompiledTrace") -> str:
    """Human-readable period + steady-eligibility diagnostics."""
    analysis = analyze(trace)
    timebase = ("dyadic-exact timebase (steady-eligible)"
                if analysis.exponent is not None
                else "continuous timebase (steady refuses)")
    return f"{analysis.info.describe()}, {timebase}"


def _snapshot(analysis: _SteadyAnalysis, j: int,
              clock: list[float], comm: list[float], comp: list[float],
              ready_t: list[float], arrive: list[float],
              eager: list[bool]) -> tuple:
    """Full replay state at period boundary ``j``.

    The state comprises the per-rank clock/comm/comp values plus the
    timestamps of every *live* message slot — sent before the boundary,
    matched at or after it (slots that are never matched are excluded:
    their timestamps are never read again).  ``arrive`` entries are kept
    only for eager slots (rendez-vous matches read ``ready_t``).
    """
    live = analysis.live_at(j)
    return (list(clock), list(comm), list(comp), live,
            [ready_t[s] for s in live],
            [arrive[s] for s in live if eager[s]])


def _transition(prev: tuple, cur: tuple, sends_per_period: int,
                eager: list[bool]) -> tuple | None:
    """The per-period growth key between two boundary snapshots.

    Returns ``(λ, Δcomm, Δcomp)`` when the transition is structurally
    extrapolable — live slots shifted by exactly the per-period send
    count with matching protocols, and every timestamp (rank clocks and
    live slot times) advanced by one bitwise-uniform λ.  Uniformity is
    what makes the extrapolation provably exact: exact integer max-plus
    arithmetic commutes with a uniform translation, so a locked
    transition repeats verbatim forever.  Returns ``None`` otherwise.
    """
    clk0, com0, cmp0, liv0, rt0, ar0 = prev
    clk1, com1, cmp1, liv1, rt1, ar1 = cur
    if len(liv0) != len(liv1):
        return None
    if not np.array_equal(liv1, liv0 + sends_per_period):
        return None
    for s in liv0:
        if eager[s] != eager[s + sends_per_period]:
            return None
    lam = clk1[0] - clk0[0]
    for before, after in zip(clk0, clk1):
        if after - before != lam:
            return None
    for before, after in zip(rt0, rt1):
        if after - before != lam:
            return None
    for before, after in zip(ar0, ar1):
        if after - before != lam:
            return None
    dcomm = tuple(after - before for before, after in zip(com0, com1))
    dcomp = tuple(after - before for before, after in zip(cmp0, cmp1))
    return (lam, dcomm, dcomp)


def _segment(trace: "CompiledTrace", lo: int, hi: int):
    """``((kind, rank, slot, aux), duration)`` pairs of events ``lo:hi``.

    Converted from the numpy columns for just this range: the tier never
    builds the full-trace Python mirror the scalar replay uses.
    """
    program = zip(trace.event_kind[lo:hi].tolist(),
                  trace.event_rank[lo:hi].tolist(),
                  trace.event_slot[lo:hi].tolist(),
                  trace.event_aux[lo:hi].tolist())
    return zip(program, trace._base[lo:hi].tolist())


def steady_replay(trace: "CompiledTrace",
                  noise: NoiseModel | None = None) -> SimulationResult:
    """Resolve a periodic trace in O(period) — bit-identical or refuse.

    On success the returned :class:`~repro.simmpi.engine.SimulationResult`
    is bit-identical to ``trace.replay(noise)`` (and hence to the
    reference engine).  Any precondition failure raises
    :class:`SteadyStateError` with the reason; callers fall back to the
    full replay, so correctness is never traded for speed.
    """
    if noise is not None and not noise.is_disabled():
        raise SteadyStateError(
            "noise model is enabled: noise draws are per-event, so a noisy "
            "run has no repeating period (use the replay tier)")
    analysis = analyze(trace)
    info = analysis.info
    if not info.periodic:
        raise SteadyStateError(f"trace is not periodic: {info.reason}")
    if analysis.exponent is None:
        raise SteadyStateError(analysis.exact_reason)

    n = trace.n_events
    nranks = trace.nranks
    warmup, period, repeats = info.warmup, info.period, info.repeats
    sends = info.sends_per_period
    eager = trace._send_eager
    srank = trace._send_rank

    clock = [0.0] * nranks
    comm = [0.0] * nranks
    comp = [0.0] * nranks
    ready_t = [0.0] * trace.n_messages
    arrive = [0.0] * trace.n_messages
    position = 0

    def replay_until(target: int) -> None:
        nonlocal position
        _replay_events(_segment(trace, position, target), nranks,
                       clock, comm, comp, ready_t, arrive, eager, srank)
        position = target

    # Lock-in scan: replay whole periods until _LOCKIN_RUN consecutive
    # boundary transitions carry the same uniform growth vector.
    replay_until(warmup)
    snap = _snapshot(analysis, 0, clock, comm, comp,
                     ready_t, arrive, eager)
    keys: list[tuple | None] = []
    locked_at = None
    last_boundary = min(repeats, _LOCKIN_BUDGET)
    for j in range(1, last_boundary + 1):
        replay_until(warmup + j * period)
        nxt = _snapshot(analysis, j,
                        clock, comm, comp, ready_t, arrive, eager)
        keys.append(_transition(snap, nxt, sends, eager))
        snap = nxt
        if (len(keys) >= _LOCKIN_RUN and keys[-1] is not None
                and all(key == keys[-1] for key in keys[-_LOCKIN_RUN:])):
            locked_at = j
            break
    if locked_at is None:
        raise SteadyStateError(
            f"no locked growth vector within {last_boundary} period(s): the "
            "per-period state delta never became a bitwise-constant uniform "
            "advance")

    lam, dcomm, dcomp = keys[-1]
    skipped = repeats - locked_at
    if skipped > 0:
        live = snap[3]
        live_target = analysis.live_at(repeats)
        if not np.array_equal(live_target, live + skipped * sends):
            raise SteadyStateError(
                "live message-slot structure does not repeat up to the "
                "drain boundary")
        # All sums below are exact: every term is an integer multiple of
        # the dyadic quantum and bounded by the total duration sum.
        shift = skipped * lam
        for rank in range(nranks):
            clock[rank] += shift
            comm[rank] += skipped * dcomm[rank]
            comp[rank] += skipped * dcomp[rank]
        offset = skipped * sends
        for s in live:
            ready_t[s + offset] = ready_t[s] + shift
            if eager[s + offset]:
                arrive[s + offset] = arrive[s] + shift
        position = warmup + repeats * period
    replay_until(n)                     # the drain (or the rest, unskipped)

    ranks = [RankResult(
        rank=rank,
        finish_time=clock[rank],
        return_value=trace._return_values[rank],
        compute_time=comp[rank],
        comm_time=comm[rank],
        messages_sent=trace._messages_sent[rank],
        bytes_sent=trace._bytes_sent[rank],
        messages_received=trace._messages_received[rank],
        bytes_received=trace._bytes_received[rank],
    ) for rank in range(nranks)]
    elapsed = max((r.finish_time for r in ranks), default=0.0)
    trace.steady_replays += 1
    return SimulationResult(nranks=nranks, ranks=ranks,
                            elapsed_time=elapsed,
                            traffic=_copy_traffic(trace._traffic))
