"""The discrete-event scheduling engine of the simulated cluster.

The engine advances every rank program (a generator) until it blocks on a
communication operation, computes virtual completion times from the
:mod:`repro.simnet` cost models and wakes blocked ranks when their
operations complete.  Because every completion time is a pure function of
the *posting* times of the participating ranks (``max`` of post times plus
link costs), the wall-clock order in which the engine happens to advance
ranks does not affect the virtual-time result — the simulation is
deterministic for deterministic programs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import (
    CommunicatorError,
    DeadlockError,
    RankFailureError,
    SimulationError,
)
from repro.simnet.message import ANY_SOURCE, ANY_TAG, Message
from repro.simnet.noise import NoiseModel
from repro.simnet.topology import ClusterTopology, LinkUsageStats
from repro.simmpi.communicator import SimComm
from repro.simmpi.operations import (
    AllReduce,
    Barrier,
    Bcast,
    Compute,
    ExecuteMix,
    Irecv,
    Isend,
    Now,
    Recv,
    Send,
    Wait,
    WaitAll,
)
from repro.simmpi.request import Request
from repro.units import snap_to_grid

_READY = "ready"
_BLOCKED = "blocked"
_DONE = "done"
_FAILED = "failed"


def collective_cost(kind: str, nbytes: float, nranks: int, link) -> float:
    """Base (noise-free) cost of one collective over ``nranks`` ranks.

    ``kind`` is the operation class name (``"AllReduce"``, ``"Bcast"``,
    ``"Barrier"``); ``link`` is the inter-node
    :class:`~repro.simnet.link.LinkModel`.  Shared by the engine's
    completion-time computation and the trace recorder
    (:mod:`repro.simmpi.trace`), so both price collectives identically.

    Collective costs are computed from the link's fitted parameters, not
    through its per-message methods, so a tick-quantized link
    (:class:`~repro.simnet.link.QuantizedLink`) exposes its
    ``time_quantum`` here and the aggregate cost snaps to the same dyadic
    grid as every point-to-point duration.
    """
    if nranks <= 1:
        return 0.0
    rounds = math.ceil(math.log2(nranks))
    per_hop = (link.latency + link.send_overhead + link.recv_overhead
               + nbytes / link.bandwidth)
    if kind == "AllReduce":
        cost = 2.0 * rounds * per_hop
    elif kind == "Bcast":
        cost = rounds * per_hop
    else:  # Barrier
        cost = 2.0 * rounds * (link.latency + link.send_overhead
                               + link.recv_overhead)
    quantum = getattr(link, "time_quantum", 0.0)
    if quantum:
        cost = snap_to_grid(cost, quantum)
    return cost


@dataclass
class RankResult:
    """Per-rank outcome of a simulated run."""

    rank: int
    finish_time: float
    return_value: Any = None
    compute_time: float = 0.0
    comm_time: float = 0.0
    messages_sent: int = 0
    bytes_sent: float = 0.0
    messages_received: int = 0
    bytes_received: float = 0.0

    @property
    def comm_fraction(self) -> float:
        """Fraction of the rank's finish time spent in communication."""
        if self.finish_time <= 0:
            return 0.0
        return self.comm_time / self.finish_time


@dataclass
class SimulationResult:
    """Outcome of one simulated parallel run."""

    nranks: int
    ranks: list[RankResult]
    elapsed_time: float
    traffic: LinkUsageStats

    @property
    def return_values(self) -> list[Any]:
        """Per-rank return values in rank order."""
        return [r.return_value for r in self.ranks]

    @property
    def total_compute_time(self) -> float:
        return sum(r.compute_time for r in self.ranks)

    @property
    def total_comm_time(self) -> float:
        return sum(r.comm_time for r in self.ranks)

    @property
    def max_comm_fraction(self) -> float:
        return max((r.comm_fraction for r in self.ranks), default=0.0)

    def rank_result(self, rank: int) -> RankResult:
        return self.ranks[rank]


# ---------------------------------------------------------------------------
# Internal bookkeeping records
# ---------------------------------------------------------------------------


@dataclass
class _PendingSend:
    """A send whose message has not yet been matched by a receive."""

    message: Message
    eager: bool
    sender_ready_time: float   # sender post + sender cpu overhead
    request: Request


@dataclass
class _PostedRecv:
    """A receive posted before its matching message was available."""

    rank: int
    source: int
    tag: int
    post_time: float
    request: Request


@dataclass
class _CollectiveSlot:
    """Per-index collective rendez-vous point across the communicator."""

    kind: str = ""
    posts: dict[int, tuple[float, Any]] = field(default_factory=dict)
    nbytes: float = 0.0
    op: Any = None
    root: int = 0


@dataclass
class _RankState:
    rank: int
    gen: Any
    clock: float = 0.0
    status: str = _READY
    resume_value: Any = None
    blocked_since: float = 0.0
    waiting_requests: list[Request] = field(default_factory=list)
    waiting_collective: int | None = None
    collective_counter: int = 0
    result: RankResult | None = None
    # statistics
    compute_time: float = 0.0
    comm_time: float = 0.0
    messages_sent: int = 0
    bytes_sent: float = 0.0
    messages_received: int = 0
    bytes_received: float = 0.0
    return_value: Any = None


class ClusterEngine:
    """Runs rank programs on a simulated cluster.

    Parameters
    ----------
    topology:
        Node layout and link cost models.
    processor:
        Optional :class:`~repro.simproc.ProcessorModel`; required only when
        rank programs charge compute time through
        :meth:`SimComm.execute` (an operation mix) rather than explicit
        seconds.
    noise:
        OS/network noise model; defaults to no noise (deterministic runs).
    max_operations:
        Safety valve: abort with :class:`SimulationError` if a single run
        executes more than this many operations (guards against unbounded
        loops in rank programs).

    .. note::
       Trace replay (:mod:`repro.simmpi.trace`) reproduces this engine's
       scheduling discipline, matching rules, noise-draw sites and
       floating-point accounting **by construction, in a separate lean
       pass** — any change to those semantics here must be mirrored in
       :class:`~repro.simmpi.trace.TraceRecorder`/
       :class:`~repro.simmpi.trace.CompiledTrace`.  The property-based
       replay==engine test (``tests/test_property_based.py``) and the
       ``bench_trace_speed`` gates exist to catch a desynchronisation.
    """

    def __init__(self, topology: ClusterTopology,
                 processor: Any = None,
                 noise: NoiseModel | None = None,
                 max_operations: int = 200_000_000):
        self.topology = topology
        self.processor = processor
        self.noise = noise if noise is not None else NoiseModel.disabled()
        self.max_operations = max_operations
        self._running = False
        self._reset([])

    # ------------------------------------------------------------------

    def _reset(self, states: list[_RankState]) -> None:
        """Install fresh per-run state.

        The engine is reusable across :meth:`run` invocations (a simulation
        plan keeps one engine alive for a whole scenario grid), so every
        piece of per-run bookkeeping — pending sends, posted receives,
        collective slots, traffic counters — is rebuilt here rather than
        carried over from the previous grid point.
        """
        nranks = len(states)
        self._states = states
        self._nranks = nranks
        self._draws = None
        #: Unmatched sends per destination rank, indexed by (source, tag).
        #: Each deque is in send (seq) order, so the FIFO head is always the
        #: MPI non-overtaking match for a specific-source receive.
        self._unexpected: list[dict[tuple[int, int], deque[_PendingSend]]] = [
            {} for _ in range(nranks)]
        self._posted_recvs: list[list[_PostedRecv]] = [[] for _ in range(nranks)]
        self._collectives: dict[int, _CollectiveSlot] = {}
        self._request_waiters: dict[int, int] = {}
        self._ready: deque[int] = deque(range(nranks))
        self._traffic = LinkUsageStats()
        self._operations = 0

    def run(self, program: Callable[..., Any], nranks: int,
            program_args: Iterable[Any] = (),
            program_kwargs: dict[str, Any] | None = None,
            noise: NoiseModel | None = None) -> SimulationResult:
        """Execute ``program`` on ``nranks`` simulated ranks.

        ``program`` is called as ``program(comm, *program_args,
        **program_kwargs)`` for each rank and must return a generator
        (i.e. contain at least one ``yield``).

        ``noise`` overrides the engine's default noise model for this run
        only; ``None`` uses the model the engine was constructed with.
        Every run draws from a fresh cursor over that model's streams
        (:meth:`~repro.simnet.noise.NoiseModel.draws`), so equal inputs
        give equal results however often the engine or the model is
        reused.

        The engine may be reused: every invocation starts from a clean
        slate (no ``_PendingSend``/``_PostedRecv``/collective state leaks
        between runs, even when a previous run failed), and a re-entrant
        call from inside a rank program is rejected.
        """
        if self._running:
            raise SimulationError(
                "ClusterEngine.run() is not re-entrant; use a separate engine "
                "for nested simulations")
        if nranks < 1:
            raise SimulationError("nranks must be >= 1")
        self.topology.validate_rank_count(nranks)
        program_kwargs = dict(program_kwargs or {})

        states: list[_RankState] = []
        for rank in range(nranks):
            comm = SimComm(rank, nranks)
            gen = program(comm, *program_args, **program_kwargs)
            if not hasattr(gen, "send"):
                raise SimulationError(
                    "rank program must be a generator function (use 'yield')")
            states.append(_RankState(rank=rank, gen=gen))

        self._running = True
        self._reset(states)
        self._draws = (noise if noise is not None else self.noise).draws()
        try:
            return self._execute(nranks)
        finally:
            self._running = False
            # Drop every reference to the finished (or failed) run so a
            # long-lived engine held by a simulation plan cannot pin rank
            # generators, pending messages or posted receives.
            self._reset([])

    def _execute(self, nranks: int) -> SimulationResult:
        while self._ready:
            rank = self._ready.popleft()
            state = self._states[rank]
            if state.status != _READY:
                continue
            self._advance(state)
            if not self._ready and not all(s.status == _DONE for s in self._states):
                blocked = [s.rank for s in self._states if s.status == _BLOCKED]
                if blocked:
                    raise DeadlockError(
                        f"deadlock: ranks {blocked} are blocked with no pending events",
                        blocked_ranks=blocked)

        unfinished = [s.rank for s in self._states if s.status != _DONE]
        if unfinished:
            raise DeadlockError(
                f"deadlock: ranks {unfinished} never completed", blocked_ranks=unfinished)

        results = []
        for state in self._states:
            results.append(RankResult(
                rank=state.rank,
                finish_time=state.clock,
                return_value=state.return_value,
                compute_time=state.compute_time,
                comm_time=state.comm_time,
                messages_sent=state.messages_sent,
                bytes_sent=state.bytes_sent,
                messages_received=state.messages_received,
                bytes_received=state.bytes_received,
            ))
        elapsed = max((r.finish_time for r in results), default=0.0)
        return SimulationResult(nranks=nranks, ranks=results, elapsed_time=elapsed,
                                traffic=self._traffic)

    # ------------------------------------------------------------------
    # Rank advancement
    # ------------------------------------------------------------------

    def _advance(self, state: _RankState) -> None:
        """Advance one rank until it blocks, finishes or fails."""
        while True:
            self._operations += 1
            if self._operations > self.max_operations:
                raise SimulationError(
                    f"operation budget exceeded ({self.max_operations}); "
                    "possible unbounded loop in a rank program")
            value, state.resume_value = state.resume_value, None
            try:
                op = state.gen.send(value)
            except StopIteration as stop:
                state.status = _DONE
                state.return_value = stop.value
                return
            except Exception as exc:  # noqa: BLE001 - converted to RankFailureError
                state.status = _FAILED
                raise RankFailureError(state.rank, exc) from exc

            if isinstance(op, Now):
                state.resume_value = state.clock
                continue
            if isinstance(op, Compute):
                duration = self._draws.compute(op.seconds)
                state.clock += duration
                state.compute_time += duration
                continue
            if isinstance(op, ExecuteMix):
                if self.processor is None:
                    raise SimulationError(
                        "SimComm.execute(mix) requires the engine to be built "
                        "with a processor model")
                duration = self._draws.compute(
                    self.processor.execute_time(op.mix))
                state.clock += duration
                state.compute_time += duration
                continue
            if isinstance(op, (Send, Isend)):
                request = self._do_send(state, op)
                if isinstance(op, Isend):
                    state.resume_value = request
                    continue
                if request.complete:
                    self._settle_wait(state, request, charge_comm=True)
                    state.resume_value = None
                    continue
                self._block_on_requests(state, [request])
                return
            if isinstance(op, (Recv, Irecv)):
                request = self._do_recv(state, op.source, op.tag)
                if isinstance(op, Irecv):
                    state.resume_value = request
                    continue
                if request.complete:
                    self._settle_wait(state, request, charge_comm=True)
                    state.resume_value = request.payload
                    continue
                self._block_on_requests(state, [request])
                return
            if isinstance(op, Wait):
                request = op.request
                if not isinstance(request, Request):
                    raise CommunicatorError("wait() expects a Request object")
                if request.complete:
                    self._settle_wait(state, request, charge_comm=True)
                    state.resume_value = request.payload
                    continue
                self._block_on_requests(state, [request])
                return
            if isinstance(op, WaitAll):
                requests = list(op.requests)
                if any(not isinstance(r, Request) for r in requests):
                    raise CommunicatorError("waitall() expects Request objects")
                if all(r.complete for r in requests):
                    for request in requests:
                        self._settle_wait(state, request, charge_comm=True)
                    state.resume_value = [r.payload for r in requests]
                    continue
                self._block_on_requests(state, requests)
                return
            if isinstance(op, (AllReduce, Barrier, Bcast)):
                completed = self._do_collective(state, op)
                if completed:
                    continue
                return
            raise CommunicatorError(
                f"rank {state.rank} yielded an unknown operation: {op!r}")

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------

    def _do_send(self, state: _RankState, op: Send | Isend) -> Request:
        link = self.topology.link_for(state.rank, op.dest)
        sender_cpu = link.sender_cpu_time(op.nbytes)
        post_time = state.clock
        message = Message(source=state.rank, dest=op.dest, tag=op.tag,
                          nbytes=op.nbytes, payload=op.payload,
                          send_post_time=post_time)
        request = Request(kind="send", rank=state.rank)
        state.clock += sender_cpu
        state.comm_time += sender_cpu
        state.messages_sent += 1
        state.bytes_sent += op.nbytes
        self._traffic.record(self.topology, state.rank, op.dest, op.nbytes, op.tag)

        eager = link.is_eager(op.nbytes)
        if eager:
            wire = self._draws.network(link.wire_time(op.nbytes))
            message.arrival_time = post_time + sender_cpu + wire
            request.mark_complete(post_time + sender_cpu)
        pending = _PendingSend(message=message, eager=eager,
                               sender_ready_time=post_time + sender_cpu,
                               request=request)

        matched = self._match_posted_recv(pending)
        if not matched:
            queue = self._unexpected[op.dest].setdefault(
                (state.rank, op.tag), deque())
            queue.append(pending)
        return request

    def _do_recv(self, state: _RankState, source: int, tag: int) -> Request:
        request = Request(kind="recv", rank=state.rank)
        posted = _PostedRecv(rank=state.rank, source=source, tag=tag,
                             post_time=state.clock, request=request)
        pending = self._match_unexpected(posted)
        if pending is None:
            self._posted_recvs[state.rank].append(posted)
        else:
            self._complete_pair(pending, posted)
        return request

    def _match_posted_recv(self, pending: _PendingSend) -> bool:
        """Try to match a new send against already-posted receives at its target."""
        queue = self._posted_recvs[pending.message.dest]
        for index, posted in enumerate(queue):
            if pending.message.matches(posted.source, posted.tag):
                del queue[index]
                self._complete_pair(pending, posted)
                return True
        return False

    def _match_unexpected(self, posted: _PostedRecv) -> _PendingSend | None:
        """Try to match a new receive against the unexpected-message queues.

        The common case — a receive naming both source and tag — is a O(1)
        FIFO pop from the matching (source, tag) deque, which is in send
        order per the MPI non-overtaking rule.  Wildcard receives fall back
        to scanning every matching queue entry with exactly the selection
        key the flat-list implementation used, so results are unchanged.
        """
        queues = self._unexpected[posted.rank]
        if posted.source != ANY_SOURCE and posted.tag != ANY_TAG:
            queue = queues.get((posted.source, posted.tag))
            if not queue:
                return None
            pending = queue.popleft()
            if not queue:
                del queues[(posted.source, posted.tag)]
            return pending

        best: tuple[tuple[float, int], tuple[int, int], int] | None = None
        for source_tag, queue in queues.items():
            for index, pending in enumerate(queue):
                if not pending.message.matches(posted.source, posted.tag):
                    continue
                if posted.source == ANY_SOURCE:
                    key = (pending.message.arrival_time if pending.eager
                           else pending.sender_ready_time, pending.message.seq)
                else:
                    # MPI non-overtaking rule: match in send order per source.
                    key = (float(pending.message.seq), pending.message.seq)
                if best is None or key < best[0]:
                    best = (key, source_tag, index)
        if best is None:
            return None
        _, source_tag, index = best
        queue = queues[source_tag]
        pending = queue[index]
        del queue[index]
        if not queue:
            del queues[source_tag]
        return pending

    def _complete_pair(self, pending: _PendingSend, posted: _PostedRecv) -> None:
        """Compute completion times for a matched send/receive pair."""
        message = pending.message
        link = self.topology.link_for(message.source, message.dest)
        receiver_cpu = link.receiver_cpu_time(message.nbytes)
        if pending.eager:
            recv_done = max(posted.post_time, message.arrival_time) + receiver_cpu
        else:
            start = max(pending.sender_ready_time, posted.post_time)
            wire = self._draws.network(link.wire_time(message.nbytes))
            arrival = start + wire
            message.arrival_time = arrival
            pending.request.mark_complete(arrival)
            self._notify_request(pending.request)
            recv_done = arrival + receiver_cpu

        receiver = self._states[posted.rank]
        receiver.messages_received += 1
        receiver.bytes_received += message.nbytes
        posted.request.mark_complete(recv_done, payload=message.payload)
        self._notify_request(posted.request)

    # ------------------------------------------------------------------
    # Blocking / wake-up machinery
    # ------------------------------------------------------------------

    def _block_on_requests(self, state: _RankState, requests: list[Request]) -> None:
        state.status = _BLOCKED
        state.blocked_since = state.clock
        state.waiting_requests = requests
        for request in requests:
            if not request.complete:
                self._request_waiters[request.request_id] = state.rank

    def _notify_request(self, request: Request) -> None:
        """Wake the rank (if any) blocked on ``request`` once all its waits are done."""
        rank = self._request_waiters.pop(request.request_id, None)
        if rank is None:
            return
        state = self._states[rank]
        if state.status != _BLOCKED or not state.waiting_requests:
            return
        if not all(r.complete for r in state.waiting_requests):
            return
        requests = state.waiting_requests
        state.waiting_requests = []
        for req in requests:
            self._settle_wait(state, req, charge_comm=True)
        if len(requests) == 1:
            state.resume_value = requests[0].payload
        else:
            state.resume_value = [r.payload for r in requests]
        state.status = _READY
        self._ready.append(rank)

    def _settle_wait(self, state: _RankState, request: Request,
                     charge_comm: bool) -> None:
        """Advance a rank's clock to a completed request's completion time."""
        if request.completion_time > state.clock:
            if charge_comm:
                state.comm_time += request.completion_time - state.clock
            state.clock = request.completion_time

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------

    def _do_collective(self, state: _RankState, op: AllReduce | Barrier | Bcast) -> bool:
        """Register a collective call; returns True if the caller may continue."""
        index = state.collective_counter
        state.collective_counter += 1
        slot = self._collectives.setdefault(index, _CollectiveSlot())
        kind = type(op).__name__
        if slot.posts and slot.kind != kind:
            raise CommunicatorError(
                f"collective mismatch at index {index}: rank {state.rank} called "
                f"{kind} but other ranks called {slot.kind}")
        slot.kind = kind
        if isinstance(op, AllReduce):
            slot.nbytes = max(slot.nbytes, op.nbytes)
            slot.op = op.op
            slot.posts[state.rank] = (state.clock, op.value)
        elif isinstance(op, Bcast):
            slot.nbytes = max(slot.nbytes, op.nbytes)
            slot.root = op.root
            slot.posts[state.rank] = (state.clock, op.value)
        else:
            slot.posts[state.rank] = (state.clock, None)

        if len(slot.posts) < self._nranks:
            state.status = _BLOCKED
            state.blocked_since = state.clock
            state.waiting_collective = index
            return False

        # Everyone has arrived: compute the completion time and the result.
        completion = self._collective_completion_time(slot)
        result = self._collective_result(slot)
        del self._collectives[index]

        for other in self._states:
            if other.rank == state.rank:
                continue
            if other.waiting_collective == index:
                other.waiting_collective = None
                post_time, _ = slot.posts[other.rank]
                other.comm_time += max(0.0, completion - post_time)
                other.clock = max(other.clock, completion)
                other.resume_value = result
                other.status = _READY
                self._ready.append(other.rank)

        post_time, _ = slot.posts[state.rank]
        state.comm_time += max(0.0, completion - post_time)
        state.clock = max(state.clock, completion)
        state.resume_value = result
        return True

    def _collective_completion_time(self, slot: _CollectiveSlot) -> float:
        base = max(post for post, _ in slot.posts.values())
        if self._nranks == 1:
            return base
        cost = collective_cost(slot.kind, slot.nbytes, self._nranks,
                               self.topology.inter_node)
        return base + self._draws.network(cost)

    def _collective_result(self, slot: _CollectiveSlot) -> Any:
        if slot.kind == "AllReduce":
            values = [value for _, value in
                      (slot.posts[rank] for rank in sorted(slot.posts))]
            return slot.op.combine(values)
        if slot.kind == "Bcast":
            return slot.posts[slot.root][1]
        return None
