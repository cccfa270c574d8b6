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

**Resolving from the probe.**  A periodic capture
(:class:`~repro.simmpi.capture.PeriodicCapture`) is a short probe
recording, its :class:`PeriodInfo` and the number of whole periods the
run adds to it.  :func:`steady_replay` resolves the whole run from it
without building the run's event table: it replays the probe's own
warm-up, lock-in periods and drain in the probe's slot numbering, and
multiplies only λ and the per-rank increments by the run's repeat count.
A complete trace is the zero-tile case of the same scan and
extrapolation.  The probe accepts only what the tiled trace would accept,
with the same bits: its lock-in reads only boundaries whose live slots
the probe fully determines, its timebase is judged against the whole
run's duration total, and its columns must repeat from the detected
warm-up.  Where it cannot decide, :class:`SteadyNeedsTrace` sends the
caller to the tiled trace.
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
    CompiledTrace,
    _copy_traffic,
    _replay_events,
)
from repro.simnet.noise import NoiseModel

if TYPE_CHECKING:
    from repro.simmpi.capture import PeriodicCapture

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


class SteadyNeedsTrace(TraceError):
    """A probe cannot decide its run: resolve the tiled trace instead.

    Not a refusal: :func:`steady_replay` of the tiled trace gives the
    verdict, and the result, that the run is owed.
    """


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
    #: Message slots that are in flight across at least one period
    #: boundary, with the (inclusive) range of boundary indices ``j``
    #: (boundary ``j`` sits before event ``warmup + j*period``) each one
    #: spans.  Lets :func:`steady_replay` fetch a boundary's live set in
    #: O(candidates) instead of O(n_messages) per call.
    live_candidates: np.ndarray
    live_lo: np.ndarray
    live_hi: np.ndarray
    #: Last boundary whose live slots the recorded events fully determine:
    #: every boundary of a complete trace; in a probe, none after its
    #: first send it never matches (the whole run may match it later).
    determined: int
    #: Why a probe cannot decide its run ("" when it can).
    undecided: str = ""

    def live_at(self, j: int) -> np.ndarray:
        """Slots live at boundary ``j`` (sorted ascending)."""
        mask = (self.live_lo <= j) & (j <= self.live_hi)
        return self.live_candidates[mask]


def _signature_columns(trace: CompiledTrace) -> tuple:
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


def _signatures(trace: CompiledTrace) -> np.ndarray:
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


def _detect_period(trace: CompiledTrace) -> PeriodInfo:
    """Find the repeating suffix of the event stream, if any.

    Candidate periods are the recurrence distances of the *last* event's
    signature; the smallest candidate whose periodicity check passes
    wins.  A candidate's warm-up ends after the last event whose
    signature differs one period later, or whose send-slot index does
    not advance by the per-period send count ``M`` one period later; it
    needs at least :data:`MIN_REPEATS` whole repetitions after that.
    (With rendez-vous messages a few early receives match warm-up sends
    numbered in another order than later periods', while their
    signatures already repeat: those receives belong to the warm-up.)
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
    for period in sorted(set(int(d) for d in diffs)):
        if period < 1 or period >= n:
            continue
        mismatch = np.flatnonzero(sig[period:] != sig[:-period])
        warmup = int(mismatch[-1]) + 1 if len(mismatch) else 0
        if (n - warmup) // period < MIN_REPEATS:
            continue
        # Kinds repeat from here on, so every period window holds as
        # many sends.
        sends = int(np.count_nonzero(
            trace.event_kind[warmup:warmup + period] == EV_SEND))
        warmup = _past_slot_failures(trace, warmup, period, sends)
        repeats = (n - warmup) // period
        if repeats < MIN_REPEATS:
            continue
        return PeriodInfo(periodic=True, warmup=warmup, period=period,
                          repeats=repeats, drain=(n - warmup) - repeats * period,
                          sends_per_period=sends)
    return PeriodInfo(
        periodic=False,
        reason=f"no candidate period with >= {MIN_REPEATS} repetitions")


def column_warmup(trace: CompiledTrace, period: int, sends: int) -> int:
    """The warm-up :func:`_detect_period`'s rule gives at ``period``,
    judged on exact columns instead of hashed signatures.

    The first event from which every column an event signature covers
    (:func:`_signature_columns`) repeats one period later and every
    send/match slot advances by ``sends``.  Requires ``period <
    trace.n_events``.
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


def _dyadic_exponent(durations: np.ndarray,
                     total: float) -> tuple[int | None, str]:
    """The shared dyadic grid exponent, or ``None`` with a reason.

    ``total``, the sum of every base and auxiliary duration of the run,
    bounds every value the scalar replay can hold, since each
    clock/accumulator is a sum of a subset of durations.  With ``e =
    ceil(log2 total) - 52`` the bound is ``total <= 2**52 · 2**e``, so if
    every duration is an integer multiple of ``q = 2**e`` the whole
    replay is exact integer arithmetic — the property the extrapolation
    relies on.
    """
    if total == 0.0:
        return 0, ""
    exponent = math.ceil(math.log2(total)) - 52
    scaled = np.ldexp(durations, -exponent)
    if not np.all(np.floor(scaled) == scaled):
        return None, ("durations are not integer multiples of the dyadic "
                      f"quantum 2**{exponent} (continuous timebase; use a "
                      "quantized machine)")
    return exponent, ""


def _trace_durations(trace: CompiledTrace) -> np.ndarray:
    return np.concatenate([trace._base, trace.event_aux])


def _analysis(trace: CompiledTrace, info: PeriodInfo,
              exponent: int | None, exact_reason: str,
              whole: bool, undecided: str = "") -> _SteadyAnalysis:
    """Live-slot analysis of ``trace`` under ``info``.

    ``whole`` says the trace is the complete run; otherwise it is a probe
    whose unmatched sends the run may match after the probe ends.
    """
    n = trace.n_events
    kind_col = trace.event_kind
    b_col = trace.event_slot.astype(np.int64)
    send_ev = np.full(trace.n_messages, -1, dtype=np.int64)
    send_mask = kind_col == EV_SEND
    send_ev[b_col[send_mask]] = np.flatnonzero(send_mask)
    match_ev = np.full(trace.n_messages, n, dtype=np.int64)
    match_mask = kind_col == EV_MATCH
    match_ev[b_col[match_mask]] = np.flatnonzero(match_mask)
    determined = info.repeats
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
        unmatched = np.flatnonzero(match_ev == n)
        if not whole and len(unmatched):
            # Slots are numbered in send order: the first unmatched slot
            # is the earliest unmatched send.
            determined = min(determined, int(
                send_ev[unmatched[0]] - info.warmup) // info.period)
    else:
        candidates = live_lo = live_hi = np.empty(0, dtype=np.int64)
    return _SteadyAnalysis(info=info, exponent=exponent,
                           exact_reason=exact_reason,
                           live_candidates=candidates,
                           live_lo=live_lo, live_hi=live_hi,
                           determined=determined, undecided=undecided)


def analyze(trace: CompiledTrace) -> _SteadyAnalysis:
    """Period + exactness analysis of a complete trace, cached on it."""
    cached = trace._steady_cache
    if cached is None:
        durations = _trace_durations(trace)
        cached = trace._steady_cache = _analysis(
            trace, _detect_period(trace),
            *_dyadic_exponent(durations, float(durations.sum())), whole=True)
    return cached


#: Relative margin within which a probe's estimate of the whole run's
#: duration total brackets the total a complete trace sums (pairwise
#: sums of non-negative terms err by under 2**-44).
_TOTAL_MARGIN = 2.0 ** -30


def _capture_analysis(capture: "PeriodicCapture") -> _SteadyAnalysis:
    """Analysis of the run a periodic capture stands for, cached on it."""
    cached = capture.steady_analysis
    if cached is not None:
        return cached
    probe, info = capture.probe, capture.info
    undecided = exact_reason = ""
    exponent = None
    if column_warmup(probe, info.period, info.sends_per_period) \
            != info.warmup:
        undecided = "the probe's columns do not repeat from its warm-up"
    durations = _trace_durations(probe)
    end = info.warmup + info.repeats * info.period
    estimate = float(durations.sum()) + capture.tiles * float(
        probe._base[end - info.period:end].sum()
        + probe.event_aux[end - info.period:end].sum())
    low = estimate * (1.0 - _TOTAL_MARGIN)
    high = estimate * (1.0 + _TOTAL_MARGIN)
    if durations.min() < 0.0 or (estimate > 0.0 and math.ceil(
            math.log2(low)) != math.ceil(math.log2(high))):
        undecided = undecided or (
            "the run's duration total is too close to a power of two to "
            "fix its dyadic grid from the probe")
    else:
        # The tiled trace holds exactly the probe's durations, more often.
        exponent, exact_reason = _dyadic_exponent(durations, high)
    cached = capture.steady_analysis = _analysis(
        probe, info, exponent, exact_reason, whole=False,
        undecided=undecided)
    return cached


def detect_period(trace: CompiledTrace) -> PeriodInfo:
    """Public period-detection entry point (cached with the analysis)."""
    return analyze(trace).info


def describe_steady(trace: CompiledTrace) -> str:
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


def _segment(trace: CompiledTrace, lo: int, hi: int):
    """``((kind, rank, slot, aux), duration)`` pairs of events ``lo:hi``.

    Converted from the numpy columns for just this range: the tier never
    builds the full-trace Python mirror the scalar replay uses.
    """
    program = zip(trace.event_kind[lo:hi].tolist(),
                  trace.event_rank[lo:hi].tolist(),
                  trace.event_slot[lo:hi].tolist(),
                  trace.event_aux[lo:hi].tolist())
    return zip(program, trace._base[lo:hi].tolist())


def steady_replay(source: "CompiledTrace | PeriodicCapture",
                  noise: NoiseModel | None = None) -> SimulationResult:
    """Resolve a periodic run in O(period) — bit-identical or refuse.

    ``source`` is a complete trace or a periodic capture (a probe plus
    the periods the run adds, resolved without tiling; see the module
    docstring).  On success the returned
    :class:`~repro.simmpi.engine.SimulationResult` is bit-identical to
    the full replay of the run's trace (and hence to the reference
    engine).  Any precondition failure raises :class:`SteadyStateError`
    with the reason; callers fall back to the full replay, so correctness
    is never traded for speed.  A capture whose probe cannot decide the
    run raises :class:`SteadyNeedsTrace`.
    """
    if noise is not None and not noise.is_disabled():
        raise SteadyStateError(
            "noise model is enabled: noise draws are per-event, so a noisy "
            "run has no repeating period (use the replay tier)")
    if isinstance(source, CompiledTrace):
        trace, tiles, analysis = source, 0, analyze(source)
        totals = (trace._messages_sent, trace._bytes_sent,
                  trace._messages_received, trace._bytes_received,
                  trace._traffic, trace._return_values)
    else:
        trace, tiles, analysis = (source.probe, source.tiles,
                                  _capture_analysis(source))
        totals = (source.messages_sent, source.bytes_sent,
                  source.messages_received, source.bytes_received,
                  source.traffic, source.return_values)
    info = analysis.info
    if not info.periodic:
        raise SteadyStateError(f"trace is not periodic: {info.reason}")
    if analysis.undecided:
        raise SteadyNeedsTrace(analysis.undecided)
    if analysis.exponent is None:
        raise SteadyStateError(analysis.exact_reason)

    n = trace.n_events
    nranks = trace.nranks
    warmup, period = info.warmup, info.period
    recorded = info.repeats                 # whole periods in ``trace``
    repeats = recorded + tiles              # whole periods in the run
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
    budget = min(repeats, _LOCKIN_BUDGET)
    last_boundary = min(budget, analysis.determined)
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
        if last_boundary < budget:
            raise SteadyNeedsTrace(
                f"the probe determines {max(last_boundary, 0)} of the "
                f"{budget} period boundaries the lock-in scan may use")
        raise SteadyStateError(
            f"no locked growth vector within {budget} period(s): the "
            "per-period state delta never became a bitwise-constant uniform "
            "advance")

    lam, dcomm, dcomp = keys[-1]
    skipped = repeats - locked_at
    if skipped > 0:
        live = snap[3]
        # The drain boundary, in ``trace``'s own slot numbering.
        offset = (recorded - locked_at) * sends
        if not np.array_equal(analysis.live_at(recorded), live + offset):
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
        for s in live:
            ready_t[s + offset] = ready_t[s] + shift
            if eager[s + offset]:
                arrive[s + offset] = arrive[s] + shift
        position = warmup + recorded * period
    replay_until(n)                     # the drain (or the rest, unskipped)

    (messages_sent, bytes_sent, messages_received, bytes_received,
     traffic, return_values) = totals
    ranks = [RankResult(
        rank=rank,
        finish_time=clock[rank],
        return_value=return_values[rank],
        compute_time=comp[rank],
        comm_time=comm[rank],
        messages_sent=messages_sent[rank],
        bytes_sent=bytes_sent[rank],
        messages_received=messages_received[rank],
        bytes_received=bytes_received[rank],
    ) for rank in range(nranks)]
    elapsed = max((r.finish_time for r in ranks), default=0.0)
    trace.steady_replays += 1
    return SimulationResult(nranks=nranks, ranks=ranks,
                            elapsed_time=elapsed,
                            traffic=_copy_traffic(traffic))
