"""Trace-compiled modelled runs: record the event stream once, replay fast.

A *modelled* (timing-only) run of a well-behaved rank program has an event
pattern — which rank computes, sends, receives or joins a collective, in
what order, with what sizes — that is a pure function of the program and
its arguments, independent of the link timings and of the noise model.
Only the *durations* change between runs.  The
:class:`~repro.simmpi.engine.ClusterEngine` nevertheless re-executes the
Python generators and re-dispatches every operation through its scheduler
on every run.

This module splits that work in two:

* :class:`TraceRecorder` runs the rank programs it is given **once** in
  a pattern-capture pass.  It runs the engine's scheduling loop
  (:func:`~repro.simmpi.engine.run_ranks`) with a column sink in place of
  the engine's timing sink: the sink draws no noise and appends one row
  per event, so the recorded order is the engine's order by
  construction.  The rows make a flat event table (kind, rank, peer,
  tag, nbytes) plus the pre-resolved base durations (compute charges
  from the cost table, wire times and CPU overheads from the link
  models, collective costs) and the send/recv pair matching, all as
  flat arrays.  A modelled sweep is recorded from op bodies harvested
  from one iteration of its rank generator
  (:meth:`~repro.sweep3d.driver.SimulationPlan.compile_trace`), which
  yield the op sequence the generator yields over the whole run.

* :class:`CompiledTrace.replay` resolves every completion time with the
  max-plus recurrence ``t[e] = max(t[deps(e)]) + dur[e]`` over the
  pre-matched pairs and collectives — no generators, no scheduler, no
  per-event object allocation.  Noise is applied up front by a single
  vectorised :meth:`~repro.simnet.noise.NoiseModel.perturb_batch` call
  over the recorded draw sites (which are laid out in exactly the order
  the engine reaches them), so a replay at a given seed is
  **bit-identical** to a ``ClusterEngine`` run at the same seed: same
  elapsed time, same per-rank finish/compute/comm times, same message
  statistics.

* :meth:`CompiledTrace.replay_batch` broadcasts that recurrence over an
  ``(n_events, S)`` duration matrix so ``S`` independently seeded noisy
  samples advance through **one** pass over the event table.  The trace
  is first compiled (once, lazily) into a :class:`_BatchSchedule`: a
  levelised wave schedule in which every wave is a set of same-kind
  events whose ranks are disjoint and whose dependencies all lie in
  earlier waves, so each wave is a handful of vectorised gather/compute/
  scatter operations over an ``(k, S)`` block.  The schedule is built
  from the numpy columns by array operations around one sequential
  integer pass (the ASAP levels).  Per sample, the result is
  bit-identical to :meth:`CompiledTrace.replay` at the same seed.

The scalar replay reads the numpy columns through memoryviews, one flat
``(wave kind, rank, slot, aux, duration)`` row per event, so a trace
holds no Python object per event.  Only a trace replayed noise-free more
than once keeps Python lists of those five columns, built on its second
noise-free replay, since a list is faster to iterate than a memoryview
once the build is paid.  The batch schedule and the steady-state tier
(:mod:`repro.simmpi.steady`) build no lists either.

A trace may also be a *periodic capture*
(:func:`~repro.simmpi.capture.extend_recording`): two recorded
iterations whose run is :attr:`CompiledTrace.tiles` iterations longer,
with the run's totals.  Its scalar replay walks the recording, then the
second iteration's rows once per tile, reusing that iteration's send
slots, and draws the run's noise in one call; only the batched replay
needs the run's full table (:func:`~repro.simmpi.capture.tile_trace`).

Only timing-independent patterns can be captured: numeric-payload runs
and clock reads (``now``) raise :class:`~repro.errors.TraceError`
(callers fall back to the engine).
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.errors import TraceError
from repro.simmpi.engine import (
    MAX_OPERATIONS,
    RankResult,
    SimulationResult,
    run_ranks,
)
from repro.simnet.noise import NoiseModel
from repro.simnet.topology import ClusterTopology, LinkUsageStats

#: Event kinds of the recorded instruction stream.
EV_COMPUTE = 0
EV_SEND = 1
EV_MATCH = 2
EV_COLLECTIVE = 3

#: Wave kinds of the batched schedule (one vectorised kernel each).
_N_WAVE_KINDS = 6
(_K_COMPUTE, _K_SEND_EAGER, _K_SEND_RDV, _K_MATCH_EAGER, _K_MATCH_RDV,
 _K_COLLECTIVE) = range(_N_WAVE_KINDS)


#: Wave kind of an event, indexed by ``2 * event_kind + eager``.
_WAVE_KEY = np.array([_K_COMPUTE, _K_COMPUTE, _K_SEND_RDV, _K_SEND_EAGER,
                      _K_MATCH_RDV, _K_MATCH_EAGER, _K_COLLECTIVE,
                      _K_COLLECTIVE], dtype=np.int8)


def _wave_keys(kind: np.ndarray, slot: np.ndarray,
               send_eager: np.ndarray) -> np.ndarray:
    """The wave kind of every event of the ``kind``/``slot`` columns
    (int8): a send or match carries its message's protocol."""
    linked = (kind == EV_SEND) | (kind == EV_MATCH)
    eager = np.zeros(len(kind), dtype=np.intp)
    eager[linked] = send_eager[slot[linked]]
    return _WAVE_KEY[2 * kind.astype(np.intp) + eager]


def _asap_levels(keys: list[int], ranks: list[int], slots: list[int],
                 senders: list[int], nranks: int,
                 n_messages: int) -> list[int]:
    """ASAP level of every event: one more than the highest level it
    depends on.

    The dependencies are the rank's previous event, the matching send of
    a receive, the sender's previous event for a rendez-vous match (the
    match also becomes the sender's latest event) and every rank for a
    collective.  This is the only sequential pass of the schedule build.
    """
    last = [0] * nranks                 # level of each rank's latest event
    slot_level = [0] * n_messages       # level of each send
    levels: list[int] = []
    append = levels.append
    for key, a, b, sender in zip(keys, ranks, slots, senders):
        if key <= _K_SEND_RDV:          # compute or send
            level = last[a] + 1
            if key != _K_COMPUTE:
                slot_level[b] = level
        elif key == _K_MATCH_EAGER:
            level = last[a]
            if slot_level[b] > level:
                level = slot_level[b]
            level += 1
        elif key == _K_MATCH_RDV:
            level = last[a]
            if slot_level[b] > level:
                level = slot_level[b]
            if last[sender] > level:
                level = last[sender]
            level += 1
            last[sender] = level
        else:                           # _K_COLLECTIVE
            level = max(last) + 1
            last = [level] * nranks
            append(level)
            continue
        last[a] = level
        append(level)
    return levels


class _BatchSchedule:
    """Wave-compiled form of a trace, built once per :class:`CompiledTrace`.

    Events are assigned ASAP levels (:func:`_asap_levels`) and grouped
    into *waves* keyed by (level, kind).  Within a wave all ranks are
    distinct, so a wave's clock updates are one gather / elementwise op /
    scatter over a ``(k, S)`` block with no intra-wave ordering.

    Apart from the level pass the build is array operations over the
    trace's numpy columns: the wave order is a stable sort of the events
    by (level, kind), and every wave holds slices and views of a few
    arrays laid out in that order.  Three layout tricks keep the
    per-wave numpy call count low:

    * ``pack_of_ev`` permutes the event table into (kind, level, event)
      order, so each wave's durations are one contiguous slice of the
      packed duration matrix (views, no fancy-index gathers).
    * eager-message arrival times live in a buffer permuted by (match
      wave, position), so every eager-match wave *reads* a contiguous
      slice; the send wave scatters into it.  Eager sends that are never
      matched (legal: the receiver simply never posts) take trailing
      positions of their own, so their scatter cannot clobber a live
      arrival row.
    * per-event comm-time increments are accumulated into a rank-major
      matrix ``C`` in per-rank program order.  Send increments are
      compile-time constants (the CPU overhead ``aux``) pre-filled from
      ``c_template``; match/collective waves overwrite their rows.  The
      final per-rank comm time is a sequential cumulative sum over the
      rank's run of rows — the same left-to-right addition order as the
      scalar replay, hence bit-identical.
    """

    def __init__(self, trace: "CompiledTrace"):
        n = trace.n_events
        nranks = trace.nranks
        kind = trace.event_kind
        rank = trace.event_rank.astype(np.intp)
        slot = trace.event_slot.astype(np.intp)
        aux = trace.event_aux
        eager = trace._send_eager_arr

        linked = (kind == EV_SEND) | (kind == EV_MATCH)
        key = trace._wave_key.astype(np.intp)
        rdv = np.flatnonzero(key == _K_MATCH_RDV)
        sender = np.full(n, -1, dtype=np.intp)
        sender[rdv] = trace._send_rank_arr[slot[rdv]]
        level = np.array(_asap_levels(
            key.tolist(), rank.tolist(), slot.tolist(), sender.tolist(),
            nranks, trace.n_messages), dtype=np.intp)

        # Wave order (level, kind, event) and packed order (kind, level,
        # event); both sorts are stable, so ties keep program order.
        wave_id = level * _N_WAVE_KINDS + key
        order = np.argsort(wave_id, kind="stable")
        top = int(level.max()) + 1 if n else 1
        pack_of_ev = np.empty(n, dtype=np.intp)
        pack_of_ev[np.argsort(key * top + level, kind="stable")] = \
            np.arange(n)
        wave_id = wave_id[order]
        starts = np.flatnonzero(np.diff(wave_id, prepend=-1))
        sizes = np.diff(np.append(starts, n))

        # Comm-increment rows: every send/match charges its own rank, a
        # rendez-vous match also its sender, a collective every rank.
        # An entry's row is its rank-major position in (rank, event,
        # sub-order) order.
        own = np.flatnonzero(linked)
        coll = np.flatnonzero(kind == EV_COLLECTIVE)
        ent_rank = np.concatenate((rank[own], sender[rdv],
                                   np.tile(np.arange(nranks), len(coll))))
        ent_order = np.concatenate((2 * own, 2 * rdv + 1,
                                    np.repeat(2 * coll, nranks)))
        total_comm = len(ent_rank)
        row = np.empty(total_comm, dtype=np.intp)
        row[np.lexsort((ent_order, ent_rank))] = np.arange(total_comm)
        crow_ev = np.full(n, -1, dtype=np.intp)
        crow_ev[own] = row[:len(own)]
        csrow_ev = np.full(n, -1, dtype=np.intp)
        csrow_ev[rdv] = row[len(own):len(own) + len(rdv)]
        coll_rows = row[len(own) + len(rdv):].reshape(len(coll), nranks)
        n_comm = np.bincount(ent_rank, minlength=nranks)

        # Arrival buffer permutation: matched eager messages in wave
        # order, then the unmatched eager sends in slot order.
        key_w = key[order]
        spos_w = slot[order]
        arrive_pos = np.full(trace.n_messages, -1, dtype=np.intp)
        matched = spos_w[key_w == _K_MATCH_EAGER]
        arrive_pos[matched] = np.arange(len(matched))
        unmatched = np.flatnonzero(eager & (arrive_pos < 0))
        arrive_pos[unmatched] = len(matched) + np.arange(len(unmatched))
        self.n_arrive = len(matched) + len(unmatched)

        # Per-wave index arrays are views of these, laid out in wave
        # order; eager waves address the arrival buffer, the others slots.
        on_arrive = (key_w == _K_SEND_EAGER) | (key_w == _K_MATCH_EAGER)
        spos_w[on_arrive] = arrive_pos[spos_w[on_arrive]]
        ra_w = rank[order]
        snd_w = sender[order]
        aux_w = aux[order][:, None]
        crow_w = crow_ev[order]
        csrow_w = csrow_ev[order]

        # Collectives raise every rank's level, so their waves come in
        # program order, one event each.
        coll_crow = iter(coll_rows)
        waves = []
        for wkey, lo, k, first in zip(key_w[starts].tolist(),
                                      starts.tolist(), sizes.tolist(),
                                      pack_of_ev[order[starts]].tolist()):
            hi = lo + k
            dsl = slice(first, first + k)
            if wkey == _K_COMPUTE:
                waves.append((wkey, dsl, None, ra_w[lo:hi],
                              None, None, None, None))
            elif wkey == _K_COLLECTIVE:
                waves.append((wkey, dsl, None, None, None, None,
                              next(coll_crow), None))
            elif wkey == _K_MATCH_EAGER:
                pos = int(spos_w[lo])
                waves.append((wkey, dsl, slice(pos, pos + k), ra_w[lo:hi],
                              None, aux_w[lo:hi], crow_w[lo:hi], None))
            elif wkey == _K_MATCH_RDV:
                waves.append((wkey, dsl, spos_w[lo:hi], ra_w[lo:hi],
                              snd_w[lo:hi], aux_w[lo:hi], crow_w[lo:hi],
                              csrow_w[lo:hi]))
            else:                               # eager or rendez-vous send
                waves.append((wkey, dsl, spos_w[lo:hi], ra_w[lo:hi],
                              None, aux_w[lo:hi], crow_w[lo:hi], None))
        self.waves = waves

        sends = np.flatnonzero(kind == EV_SEND)
        c_template = np.zeros((total_comm, 1))
        c_template[crow_ev[sends], 0] = aux[sends]
        self.c_template = c_template
        self.total_comm = total_comm
        self.n_comm = n_comm.tolist()
        self.base_row = np.concatenate(
            ([0], np.cumsum(n_comm)))[:nranks].astype(np.intp)
        self.max_comm_run = max(self.n_comm)

        self.pack_of_ev = pack_of_ev
        base_pack = np.zeros(n)
        base_pack[pack_of_ev] = trace._base
        self.base_pack = base_pack
        self.draw_pack = pack_of_ev[trace._draws[0]]
        comp = np.flatnonzero(kind == EV_COMPUTE)
        comp_counts = np.bincount(rank[comp], minlength=nranks)
        by_rank = comp[np.argsort(rank[comp], kind="stable")]
        self.comp_pack = np.split(pack_of_ev[by_rank],
                                  np.cumsum(comp_counts)[:-1])
        self.max_comp_run = int(comp_counts.max())
        self.max_wave_k = int(sizes.max()) if len(sizes) else 0


class BatchReplayResult:
    """Per-sample outcomes of one :meth:`CompiledTrace.replay_batch` call.

    Column ``s`` of the per-rank arrays (and entry ``s`` of ``elapsed``)
    is bit-identical to the single-seed replay at ``seeds[s]``;
    :meth:`sample` materialises that column as a full
    :class:`~repro.simmpi.engine.SimulationResult`.  Summary statistics
    use the sample standard deviation (``ddof=1``) and a normal 95 %
    confidence interval for the mean.
    """

    __slots__ = ("seeds", "elapsed", "finish", "compute", "comm", "_trace")

    def __init__(self, trace: "CompiledTrace", seeds: list[int],
                 elapsed: np.ndarray, finish: np.ndarray,
                 compute: np.ndarray, comm: np.ndarray):
        self._trace = trace
        #: Per-sample noise seeds, in column order.
        self.seeds = seeds
        #: ``(S,)`` elapsed time of each sample.
        self.elapsed = elapsed
        #: ``(nranks, S)`` per-rank finish / compute / comm times.
        self.finish = finish
        self.compute = compute
        self.comm = comm

    def __len__(self) -> int:
        return len(self.seeds)

    @property
    def n_samples(self) -> int:
        return len(self.seeds)

    @property
    def elapsed_mean(self) -> float:
        return float(self.elapsed.mean())

    @property
    def elapsed_std(self) -> float:
        if len(self.seeds) < 2:
            return 0.0
        return float(self.elapsed.std(ddof=1))

    @property
    def elapsed_ci95(self) -> float:
        """Half-width of the normal 95 % confidence interval of the mean."""
        if len(self.seeds) < 2:
            return 0.0
        return 1.96 * self.elapsed_std / len(self.seeds) ** 0.5

    def sample(self, index: int) -> SimulationResult:
        """Materialise sample ``index`` as a full simulation result."""
        trace = self._trace
        ranks = [RankResult(
            rank=rank,
            finish_time=float(self.finish[rank, index]),
            return_value=trace._return_values[rank],
            compute_time=float(self.compute[rank, index]),
            comm_time=float(self.comm[rank, index]),
            messages_sent=trace._messages_sent[rank],
            bytes_sent=trace._bytes_sent[rank],
            messages_received=trace._messages_received[rank],
            bytes_received=trace._bytes_received[rank],
        ) for rank in range(trace.nranks)]
        return SimulationResult(nranks=trace.nranks, ranks=ranks,
                                elapsed_time=float(self.elapsed[index]),
                                traffic=_copy_traffic(trace._traffic))

    def summary(self) -> dict[str, float]:
        """Mean / std / CI of the elapsed time over all samples."""
        return {
            "samples": float(len(self.seeds)),
            "elapsed_mean": self.elapsed_mean,
            "elapsed_std": self.elapsed_std,
            "elapsed_ci95": self.elapsed_ci95,
            "elapsed_min": float(self.elapsed.min()),
            "elapsed_max": float(self.elapsed.max()),
        }


def _replay_events(events: Iterable, nranks: int,
                   clock: list[float], comm: list[float], comp: list[float],
                   ready_t: list[float], arrive: list[float],
                   srank: Sequence[int]) -> None:
    """Advance the scalar max-plus state over ``events`` in place.

    ``events`` yields flat ``(key, rank, slot, aux, duration)`` rows, where
    ``key`` is the event's wave kind (:func:`_wave_keys`), so a message's
    protocol needs no lookup.  The state lists are mutated in the
    engine's floating-point order.  This is the only scalar loop: it
    serves :meth:`CompiledTrace.replay` and the steady-state tier's two
    recorded iterations (:mod:`repro.simmpi.steady`), so both replay with
    bit-identical arithmetic.
    """
    for key, a, b, aux, d in events:
        if key == _K_SEND_EAGER:
            c = clock[a] + aux          # aux: sender CPU overhead
            clock[a] = c
            comm[a] += aux
            ready_t[b] = c
            arrive[b] = c + d           # d: eager wire time
        elif key == _K_MATCH_EAGER:
            pc = clock[a]               # a: receiver rank (blocked => post time)
            done = arrive[b]
            if pc > done:
                done = pc
            done += aux                 # aux: receiver CPU overhead
            if done > pc:
                comm[a] += done - pc
                clock[a] = done
        elif key == _K_COMPUTE:
            clock[a] += d
            comp[a] += d
        elif key == _K_SEND_RDV:
            c = clock[a] + aux
            clock[a] = c
            comm[a] += aux
            ready_t[b] = c
        elif key == _K_MATCH_RDV:
            pc = clock[a]
            start = ready_t[b]
            if pc > start:
                start = pc
            arrival = start + d         # d: rendez-vous wire time
            sender = srank[b]
            sc = clock[sender]
            if arrival > sc:
                comm[sender] += arrival - sc
                clock[sender] = arrival
            done = arrival + aux
            if done > pc:
                comm[a] += done - pc
                clock[a] = done
        else:                           # _K_COLLECTIVE
            base = max(clock)
            completion = base + d       # d: collective cost (0 for 1 rank)
            for rank in range(nranks):
                c = clock[rank]
                delta = completion - c
                if delta > 0.0:
                    comm[rank] += delta
                    clock[rank] = completion


def _copy_traffic(traffic: LinkUsageStats) -> LinkUsageStats:
    return LinkUsageStats(
        messages=traffic.messages,
        bytes=traffic.bytes,
        intra_node_messages=traffic.intra_node_messages,
        inter_node_messages=traffic.inter_node_messages,
        by_tag=dict(traffic.by_tag),
    )


class CompiledTrace:
    """One captured event stream, replayable under any noise model.

    Build instances with :meth:`TraceRecorder.record` (or
    :meth:`~repro.sweep3d.driver.SimulationPlan.compile_trace`).  The
    public arrays describe the recorded pattern; :meth:`replay` resolves
    the virtual times for one noise stream.
    """

    def __init__(self, nranks: int,
                 event_kind: np.ndarray, event_rank: np.ndarray,
                 event_slot: np.ndarray, event_aux: np.ndarray,
                 base: np.ndarray, noise_kind: np.ndarray,
                 send_eager: np.ndarray, send_rank: np.ndarray,
                 event_peer: np.ndarray, event_tag: np.ndarray,
                 event_nbytes: np.ndarray,
                 messages_sent: list[int], bytes_sent: list[float],
                 messages_received: list[int], bytes_received: list[float],
                 traffic: LinkUsageStats, return_values: list[Any],
                 tiles: int = 0):
        self.nranks = nranks
        #: Copies of the recorded second iteration the run adds to the
        #: recording: 0 for a run recorded in full.  A periodic capture's
        #: columns hold two recorded iterations, and its per-rank and
        #: traffic totals and return values are the whole run's.
        self.tiles = tiles
        #: Flat per-event pattern table (compact numpy columns, engine
        #: order): int8 kind, int32 rank/slot/peer/tag, float64 aux
        #: (CPU overhead) / base duration / nbytes, int8 noise kind,
        #: bool/int32 send-slot tables.
        self.event_kind = event_kind
        self.event_rank = event_rank
        self.event_slot = event_slot
        self.event_aux = event_aux
        self.event_peer = event_peer
        self.event_tag = event_tag
        self.event_nbytes = event_nbytes
        #: Number of times :meth:`replay` has run.
        self.replays = 0
        #: Number of runs resolved by the steady-state tier from this
        #: trace as a periodic capture's recording
        #: (:func:`repro.simmpi.steady.steady_replay`).
        self.steady_replays = 0
        self._base = base
        self._noise_kind = noise_kind
        self._send_eager_arr = send_eager
        self._send_rank_arr = send_rank
        self._messages_sent = messages_sent
        self._bytes_sent = bytes_sent
        self._messages_received = messages_received
        self._bytes_received = bytes_received
        self._traffic = traffic
        self._return_values = return_values
        self._schedule: _BatchSchedule | None = None
        # Wave kind of every event (int8), built on first use.
        self._wave_key_cache: np.ndarray | None = None
        # Python lists of the scalar replay's five columns, kept only for
        # a trace replayed noise-free more than once (see _replay_rows).
        self._replay_lists: tuple[list, ...] | None = None
        self._replayed_noise_free = False
        # Noise draw sites (event index, noise kind, base), built lazily:
        # only noisy replays read them.
        self._draws_cache: tuple[np.ndarray, np.ndarray,
                                 np.ndarray] | None = None

    # ------------------------------------------------------------------

    @property
    def _draws(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cached = self._draws_cache
        if cached is None:
            index = np.flatnonzero(self._noise_kind)
            cached = self._draws_cache = (index, self._noise_kind[index],
                                          self._base[index])
        return cached

    @property
    def _wave_key(self) -> np.ndarray:
        cached = self._wave_key_cache
        if cached is None:
            cached = self._wave_key_cache = _wave_keys(
                self.event_kind, self.event_slot, self._send_eager_arr)
        return cached

    @property
    def n_events(self) -> int:
        return len(self.event_kind)

    @property
    def n_messages(self) -> int:
        return len(self._send_rank_arr)

    def columns(self) -> dict[str, np.ndarray]:
        """The recorded numpy columns, by constructor argument name."""
        return {"event_kind": self.event_kind, "event_rank": self.event_rank,
                "event_slot": self.event_slot, "event_aux": self.event_aux,
                "base": self._base, "noise_kind": self._noise_kind,
                "send_eager": self._send_eager_arr,
                "send_rank": self._send_rank_arr,
                "event_peer": self.event_peer, "event_tag": self.event_tag,
                "event_nbytes": self.event_nbytes}

    @property
    def nbytes(self) -> int:
        """On-heap size of the recorded pattern columns (bytes).

        Counts the recorded numpy columns only — the columns derived on
        first use (wave kinds, noise draw sites), the Python lists of a
        trace replayed noise-free more than once and the per-rank
        statistics lists (O(nranks), not O(events)) are excluded.
        """
        return int(sum(column.nbytes for column in self.columns().values()))

    def describe(self) -> str:
        """One-line summary of the recorded table."""
        return (f"compiled trace: {self.nranks} rank(s), {self.n_events} "
                f"event(s), {self.n_messages} message(s), "
                f"{len(self._draws[0])} noise draw site(s), "
                f"{self.nbytes} pattern byte(s)")

    # ------------------------------------------------------------------

    def _replay_rows(self, noise: NoiseModel | None) -> Iterable:
        """The flat ``(key, rank, slot, aux, duration)`` rows of one scalar
        replay under ``noise``, durations perturbed in engine draw order.

        A noisy replay, or the first noise-free one, reads memoryviews of
        the numpy columns.  The second noise-free replay converts the five
        columns to Python lists and keeps them for every later one: a
        list is faster to iterate, but it costs several times the
        columns' memory, which a trace replayed once never needs.
        """
        if noise is not None and not noise.is_disabled():
            return self._rows(self._views(self._noisy_durations(noise)))
        if self._replay_lists is None:
            if not self._replayed_noise_free:
                self._replayed_noise_free = True
                return self._rows(self._views(self._base))
            self._replay_lists = tuple(column.tolist() for column in (
                self._wave_key, self.event_rank, self.event_slot,
                self.event_aux, self._base))
        return self._rows(self._replay_lists)

    def _views(self, durations: np.ndarray) -> tuple:
        """Memoryviews of the scalar replay's columns: wave kind, rank,
        slot, aux and ``durations``."""
        return tuple(map(memoryview, (self._wave_key, self.event_rank,
                                      self.event_slot, self.event_aux,
                                      durations)))

    def _rows(self, columns: Sequence) -> Iterable:
        """The run's rows from the five scalar-replay ``columns``.

        They are the recorded rows, then for a periodic capture the second
        iteration's rows once per tile.  A tile reuses that iteration's
        send slots, since every send is matched within its own iteration.
        The duration column holds either the recording's durations, which
        every tile repeats, or the whole run's.
        """
        rows = zip(*columns)
        if not self.tiles:
            return rows
        period = self.n_events // 2
        *second, durations = (column[period:] for column in columns)
        if len(durations) == period:        # the recording's durations
            spans = repeat(durations, self.tiles)
        else:                               # the run's, tile by tile
            spans = (durations[start:start + period]
                     for start in range(period, len(durations), period))
        return chain(rows, chain.from_iterable(
            zip(*second, span) for span in spans))

    def _noisy_durations(self, noise: NoiseModel) -> np.ndarray:
        """The run's durations under ``noise``, drawn by one
        :meth:`~repro.simnet.noise.NoiseModel.perturb_batch` call over the
        run's draw sites in engine order: the recording's, then for a
        periodic capture the second iteration's once per tile."""
        index, kinds, bases = self._draws
        if not self.tiles:
            durations = self._base.copy()
            if len(index):
                durations[index] = noise.perturb_batch(bases, kinds)
            return durations
        n, tiles = self.n_events, self.tiles
        period = n // 2
        second = index >= period
        sites = index[second] - period
        drawn = noise.perturb_batch(
            np.concatenate((bases, np.tile(bases[second], tiles))),
            np.concatenate((kinds, np.tile(kinds[second], tiles))))
        # Allocated after the draw, whose temporaries peak higher.
        durations = np.empty(n + tiles * period)
        durations[:n] = self._base
        tiled = durations[n:].reshape(tiles, period)
        tiled[:] = self._base[period:]
        durations[index] = drawn[:len(index)]
        tiled[:, sites] = drawn[len(index):].reshape(tiles, len(sites))
        return durations

    def replay(self, noise: NoiseModel | None = None) -> SimulationResult:
        """Resolve all completion times under ``noise`` (max-plus pass).

        Bit-identical to :meth:`ClusterEngine.run
        <repro.simmpi.engine.ClusterEngine.run>` of the recorded program
        with the same noise model: the per-rank clock/statistics updates
        are replayed in the engine's exact floating-point order, and the
        noise streams are drawn at the same sites in the same sequence.

        The returned per-rank ``return_value`` objects are the ones
        captured during recording and are shared across replays — treat
        them as read-only.
        """
        nranks = self.nranks
        clock = [0.0] * nranks
        comm = [0.0] * nranks
        comp = [0.0] * nranks
        ready_t = [0.0] * self.n_messages
        arrive = [0.0] * self.n_messages

        _replay_events(self._replay_rows(noise), nranks,
                       clock, comm, comp, ready_t, arrive,
                       memoryview(self._send_rank_arr))
        self.replays += 1
        return self._result(clock, comm, comp)

    def _result(self, clock: list[float], comm: list[float],
                comp: list[float]) -> SimulationResult:
        """The run's result from a scalar replay's final per-rank clocks
        and communication and compute times."""
        ranks = [RankResult(
            rank=rank,
            finish_time=clock[rank],
            return_value=self._return_values[rank],
            compute_time=comp[rank],
            comm_time=comm[rank],
            messages_sent=self._messages_sent[rank],
            bytes_sent=self._bytes_sent[rank],
            messages_received=self._messages_received[rank],
            bytes_received=self._bytes_received[rank],
        ) for rank in range(self.nranks)]
        elapsed = max((r.finish_time for r in ranks), default=0.0)
        return SimulationResult(nranks=self.nranks, ranks=ranks,
                                elapsed_time=elapsed,
                                traffic=_copy_traffic(self._traffic))

    # ------------------------------------------------------------------

    def batch_schedule(self) -> _BatchSchedule:
        """The wave-compiled schedule, built on first use and cached.

        A periodic capture has none: the batched replay reads the run's
        full table (:func:`~repro.simmpi.capture.tile_trace`).
        """
        if self.tiles:
            raise TraceError("a periodic capture has no wave schedule; "
                             "batched replay needs its tiled table")
        if self._schedule is None:
            self._schedule = _BatchSchedule(self)
        return self._schedule

    def _durations_matrix(self, noise: NoiseModel | None,
                          seeds: list[int]) -> np.ndarray:
        """Packed ``(n_events, S)`` duration matrix, one column per seed.

        Column ``s`` holds (in packed event order) exactly the durations
        :meth:`_durations` would produce for ``noise.reseeded(seeds[s])``.
        """
        schedule = self.batch_schedule()
        durs = np.empty((self.n_events, len(seeds)))
        durs[:] = schedule.base_pack[:, None]
        _, kinds, bases = self._draws
        if noise is not None and not noise.is_disabled() and len(kinds):
            rows = noise.perturb_batch_multi(bases, kinds, seeds)
            durs[schedule.draw_pack] = rows.T
        return durs

    def replay_batch(self, seeds, noise: NoiseModel | None = None
                     ) -> BatchReplayResult:
        """Resolve ``len(seeds)`` noisy samples in one max-plus pass.

        Sample ``s`` is **bit-identical** to
        ``self.replay(noise.reseeded(seeds[s]))`` — same elapsed time and
        per-rank finish/compute/comm times down to the last bit — but all
        samples advance together through the wave schedule, so the cost
        of walking the event table is paid once instead of ``S`` times.
        With ``noise`` ``None`` (or disabled) every sample equals the
        modelled (noise-free) replay.

        The per-event comm/compute accumulations are re-ordered relative
        to the scalar loop (rank-major cumulative sums), but every
        floating-point addition happens in the same left-to-right order
        per rank, and all clamps the scalar path applies conditionally
        are provably no-ops or applied identically here — that is what
        the bit-identity rests on (and what the property-based tests and
        the ``bench_multiseed`` gate check).
        """
        seeds = [int(seed) for seed in seeds]
        if not seeds:
            raise ValueError("replay_batch needs at least one seed")
        schedule = self.batch_schedule()
        n_samples = len(seeds)
        durations = self._durations_matrix(noise, seeds)

        nranks = self.nranks
        clock = np.zeros((nranks, n_samples))
        arrive = np.empty((schedule.n_arrive, n_samples))
        ready = np.zeros((self.n_messages, n_samples))
        comm_inc = np.empty((schedule.total_comm, n_samples))
        comm_inc[:] = schedule.c_template
        buf1 = np.empty((schedule.max_wave_k, n_samples))
        buf2 = np.empty((schedule.max_wave_k, n_samples))
        maximum = np.maximum
        add = np.add
        subtract = np.subtract
        take = np.take

        for key, dsl, spos, ra, snd, aux, crow, csrow in schedule.waves:
            k = dsl.stop - dsl.start
            if key == _K_COMPUTE:
                block = buf1[:k]
                take(clock, ra, 0, out=block)
                add(block, durations[dsl], out=block)
                clock[ra] = block
            elif key == _K_SEND_EAGER:
                block = buf1[:k]
                take(clock, ra, 0, out=block)
                add(block, aux, out=block)
                clock[ra] = block
                wire = buf2[:k]
                add(block, durations[dsl], out=wire)
                arrive[spos] = wire
            elif key == _K_MATCH_EAGER:
                pc = buf1[:k]
                take(clock, ra, 0, out=pc)
                done = buf2[:k]
                maximum(arrive[spos], pc, out=done)
                add(done, aux, out=done)
                subtract(done, pc, out=pc)     # comm delta (>= 0 always)
                comm_inc[crow] = pc
                clock[ra] = done
            elif key == _K_SEND_RDV:
                block = buf1[:k]
                take(clock, ra, 0, out=block)
                add(block, aux, out=block)
                clock[ra] = block
                ready[spos] = block
            elif key == _K_MATCH_RDV:
                pc = buf1[:k]
                take(clock, ra, 0, out=pc)
                start = maximum(ready[spos], pc)
                arrival = start + durations[dsl]
                sender_clock = clock[snd]
                comm_inc[csrow] = maximum(arrival - sender_clock, 0.0)
                clock[snd] = maximum(sender_clock, arrival)
                done = arrival + aux
                subtract(done, pc, out=pc)
                comm_inc[crow] = pc
                clock[ra] = done
            else:                               # _K_COLLECTIVE
                cost = durations[dsl][0]
                completion = clock.max(axis=0) + cost
                comm_inc[crow] = completion[None, :] - clock
                maximum(clock, completion[None, :], out=clock)

        compute = np.empty((nranks, n_samples))
        comp_buf = np.empty((schedule.max_comp_run, n_samples))
        for rank in range(nranks):
            run = schedule.comp_pack[rank]
            if len(run):
                np.cumsum(durations[run], axis=0, out=comp_buf[:len(run)])
                compute[rank] = comp_buf[len(run) - 1]
            else:
                compute[rank] = 0.0
        comm = np.empty((nranks, n_samples))
        comm_buf = np.empty((schedule.max_comm_run, n_samples))
        for rank in range(nranks):
            count = schedule.n_comm[rank]
            if count:
                start = schedule.base_row[rank]
                np.cumsum(comm_inc[start:start + count], axis=0,
                          out=comm_buf[:count])
                comm[rank] = comm_buf[count - 1]
            else:
                comm[rank] = 0.0
        elapsed = clock.max(axis=0)
        self.replays += n_samples
        return BatchReplayResult(self, seeds, elapsed, clock, compute, comm)

    def replay_seeds(self, seeds, noise: NoiseModel) -> BatchReplayResult:
        """:meth:`replay_batch`'s result, from one scalar replay per seed.

        Sample ``s`` is ``self.replay(noise.reseeded(seeds[s]))``, the run
        every batch sample is bit-identical to, so the two results are
        equal; this path builds no wave schedule, which costs more than a
        few scalar replays.
        """
        seeds = [int(seed) for seed in seeds]
        if not seeds:
            raise ValueError("replay_seeds needs at least one seed")
        runs = [self.replay(noise.reseeded(seed)) for seed in seeds]

        def per_rank(field: str) -> np.ndarray:
            return np.array([[getattr(rank, field) for rank in run.ranks]
                             for run in runs]).T

        return BatchReplayResult(
            self, seeds, np.array([run.elapsed_time for run in runs]),
            per_rank("finish_time"), per_rank("compute_time"),
            per_rank("comm_time"))


class _ColumnSink:
    """The recorder's per-event work: one trace row per event, no noise.

    A row is (kind, rank, slot, base) and every hook returns the base
    duration unperturbed.  The other columns of a trace — CPU overheads,
    peers, tags, sizes, noise kinds — follow from each send's route and
    are gathered per send slot when the trace is built.  A collective's
    row has rank -1; the rank that completed it is kept apart, in
    :attr:`collective_ranks`.  ``now``, whose
    result depends on virtual time, raises
    :class:`~repro.errors.TraceError`.
    """

    error = TraceError

    def __init__(self):
        self._kinds: list[int] = []
        self._ranks: list[int] = []
        self._slots: list[int] = []
        self._bases: list[float] = []
        self._routes: list[tuple] = []           # by route index
        self._send_routes: list[int] = []        # route index per send slot
        self._collective_nbytes: list[float] = []
        #: The completing rank of each collective, in event order.
        self.collective_ranks: list[int] = []
        self._kind = self._kinds.append
        self._rank = self._ranks.append
        self._slot = self._slots.append
        self._base = self._bases.append
        self._send_route = self._send_routes.append

    def compute(self, rank: int, base: float) -> float:
        self._kind(EV_COMPUTE)
        self._rank(rank)
        self._slot(-1)
        self._base(base)
        return base

    def send(self, rank: int, slot: int, base: float, route: tuple) -> float:
        self._kind(EV_SEND)
        self._rank(rank)
        self._slot(slot)
        self._base(base)
        index = route[5]
        if index == len(self._routes):
            self._routes.append(route)
        self._send_route(index)
        return base

    def match(self, rank: int, slot: int, base: float) -> float:
        self._kind(EV_MATCH)
        self._rank(rank)
        self._slot(slot)
        self._base(base)
        return base

    def collective(self, rank: int, base: float, nbytes: float) -> float:
        self._kind(EV_COLLECTIVE)
        self._rank(-1)
        self._slot(-1)
        self._base(base)
        self._collective_nbytes.append(nbytes)
        self.collective_ranks.append(rank)
        return base

    def timing_dependent(self, what: str) -> None:
        raise TraceError(
            f"{what} is timing-dependent and cannot be trace-compiled "
            "(supported: compute, send, recv, allreduce)")

    def trace(self, result: SimulationResult) -> CompiledTrace:
        """The recorded run as a :class:`CompiledTrace`."""
        kind = np.array(self._kinds, dtype=np.int8)
        rank = np.array(self._ranks, dtype=np.int32)
        slot = np.array(self._slots, dtype=np.int32)
        n = len(kind)
        # Route columns (see repro.simmpi.engine._route), then each send
        # slot's route.
        routes = self._routes
        cpu = np.array([route[0] for route in routes], dtype=float)
        rcpu = np.array([route[1] for route in routes], dtype=float)
        eager = np.array([route[3] for route in routes], dtype=bool)
        source, dest, tag = (
            np.array([route[6][field] for route in routes], dtype=np.int32)
            for field in range(3))
        size = np.array([route[6][3] for route in routes], dtype=float)
        route_of = np.array(self._send_routes, dtype=np.intp)

        sends = np.flatnonzero(kind == EV_SEND)
        matches = np.flatnonzero(kind == EV_MATCH)
        linked = np.flatnonzero((kind == EV_SEND) | (kind == EV_MATCH))
        send_route = route_of[slot[sends]]
        match_route = route_of[slot[matches]]
        linked_route = route_of[slot[linked]]
        aux = np.zeros(n)
        aux[sends] = cpu[send_route]
        aux[matches] = rcpu[match_route]
        peer = np.full(n, -1, dtype=np.int32)
        peer[sends] = dest[send_route]
        peer[matches] = source[match_route]
        event_tag = np.full(n, -1, dtype=np.int32)
        event_tag[linked] = tag[linked_route]
        nbytes = np.zeros(n)
        nbytes[linked] = size[linked_route]
        collectives = kind == EV_COLLECTIVE
        nbytes[collectives] = self._collective_nbytes
        noise_kind = np.zeros(n, dtype=np.int8)
        noise_kind[kind == EV_COMPUTE] = NoiseModel.COMPUTE
        noise_kind[sends[eager[send_route]]] = NoiseModel.NETWORK
        noise_kind[matches[~eager[match_route]]] = NoiseModel.NETWORK
        if result.nranks > 1:
            noise_kind[collectives] = NoiseModel.NETWORK

        ranks = result.ranks
        return CompiledTrace(
            nranks=result.nranks,
            event_kind=kind,
            event_rank=rank,
            event_slot=slot,
            event_aux=aux,
            base=np.array(self._bases, dtype=float),
            noise_kind=noise_kind,
            send_eager=eager[route_of],
            send_rank=source[route_of],
            event_peer=peer,
            event_tag=event_tag,
            event_nbytes=nbytes,
            messages_sent=[r.messages_sent for r in ranks],
            bytes_sent=[r.bytes_sent for r in ranks],
            messages_received=[r.messages_received for r in ranks],
            bytes_received=[r.bytes_received for r in ranks],
            traffic=result.traffic,
            return_values=result.return_values,
        )


class TraceRecorder:
    """Captures the event pattern of a modelled rank program.

    Runs the engine's scheduling loop
    (:func:`~repro.simmpi.engine.run_ranks`) once with a column sink, so
    the recorded event order is exactly the order in which
    :class:`~repro.simmpi.engine.ClusterEngine` reaches its noise draw
    sites.  It records ``compute``, ``send``, ``recv`` and ``allreduce``;
    ``now``, whose result depends on virtual time, raises
    :class:`~repro.errors.TraceError`.
    """

    def __init__(self, topology: ClusterTopology):
        self.topology = topology
        #: The rank that completed each collective of the latest
        #: recording, in event order.  Periodic capture reads it to prove
        #: a recording's iterations repeat
        #: (:func:`~repro.simmpi.capture.extend_recording`); it is not
        #: part of the trace.
        self.collective_ranks: list[int] = []

    def record(self, program: Callable[..., Any], nranks: int,
               program_args: Iterable[Any] = ()) -> CompiledTrace:
        """Run ``program`` once on ``nranks`` ranks, recording the pattern."""
        sink = _ColumnSink()
        result = run_ranks(sink, self.topology, MAX_OPERATIONS,
                           program, nranks, program_args)
        self.collective_ranks = sink.collective_ranks
        return sink.trace(result)
