"""The scheduling loop of the simulated cluster.

:func:`run_ranks` advances every rank program (a generator) until it
blocks on a communication operation and wakes blocked ranks when their
operations complete.  It is the only place the simulator's MPI semantics
live: the FIFO ready queue, (source, tag) matching of blocking sends and
receives, eager vs rendez-vous blocking, allreduce and its result,
message and traffic counts, and the deadlock, operation-budget,
collective-mismatch and unknown-operation checks.  The operations are
the ones the repo's rank programs yield: compute, blocking send/recv,
allreduce (sum or max) and ``now``.  The loop keeps every rank's virtual
clock and hands each event to a *sink*, the object that does the
per-event work:

* :class:`ClusterEngine` runs the loop with a timing sink, which draws
  the run's noise at every draw site;
* :class:`~repro.simmpi.trace.TraceRecorder` runs it with a column sink,
  which appends one trace row per event and refuses ``now``, whose
  result depends on virtual time.

Because every completion time is a pure function of the *posting* times
of the participating ranks (``max`` of post times plus link costs), the
wall-clock order in which the loop happens to advance ranks does not
affect the virtual-time result — the simulation is deterministic for
deterministic programs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import (
    CommunicatorError,
    DeadlockError,
    RankFailureError,
    SimulationError,
)
from repro.simnet.noise import NoiseModel
from repro.simnet.topology import ClusterTopology, LinkUsageStats
from repro.simmpi.communicator import SimComm
from repro.simmpi.operations import (
    OP_ALLREDUCE,
    OP_COMPUTE,
    OP_NOW,
    OP_RECV,
    OP_SEND,
)
from repro.units import snap_to_grid

_READY = 0
_BLOCKED = 1
_DONE = 2

#: Operations one run may execute before it is stopped as a runaway
#: program (the engine's default; the recorder's fixed budget).
MAX_OPERATIONS = 200_000_000


def collective_cost(nbytes: float, nranks: int, link) -> float:
    """Base (noise-free) cost of one allreduce over ``nranks`` ranks.

    ``link`` is the inter-node :class:`~repro.simnet.link.LinkModel`.

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
    cost = 2.0 * rounds * per_hop
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


def _route(topology: ClusterTopology, key: tuple, index: int) -> tuple:
    """Price one message shape ``key = (source, dest, tag, nbytes)``.

    A route is ``(sender cpu, receiver cpu, wire time, eager, intra-node,
    index, key)``; the loop builds each one once per run and numbers them
    in order of first use.
    """
    source, dest, _, nbytes = key
    link = topology.link_for(source, dest)
    intra = int(topology.intra_node is not None
                and topology.same_node(source, dest))
    return (link.sender_cpu_time(nbytes), link.receiver_cpu_time(nbytes),
            link.wire_time(nbytes), link.is_eager(nbytes), intra, index, key)


def run_ranks(sink: Any, topology: ClusterTopology,
              max_operations: int, program: Callable[..., Any],
              nranks: int, program_args: Iterable[Any] = ()
              ) -> SimulationResult:
    """Run ``program`` on ``nranks`` ranks, handing every event to ``sink``.

    ``program`` is called as ``program(comm, *program_args)`` for each
    rank and must return a generator.  The sink provides:

    * ``error`` — the exception class raised for misuse (bad rank count,
      non-generator program, exhausted operation budget);
    * ``compute(rank, base)``, ``send(rank, slot, base, route)``,
      ``match(rank, slot, base)`` and ``collective(rank, base, nbytes)``
      — one call per event, each returning the event's duration.
      ``rank`` is the rank whose step made the event: for a collective,
      the last rank to join it, which completes it.  ``base`` is the
      noise-free duration of the event's draw site (0.0 where the event
      draws nothing: a rendez-vous send, an eager match); ``slot``
      numbers the run's sends in send order;
    * ``timing_dependent(what)`` — called before ``now``.

    When an allreduce completes, every other rank is blocked in it: no
    rank waits in a receive or a rendez-vous send and the ready queue is
    empty.  The loop then queues the other ranks in rank order and
    continues the completing rank; the start of a run is that state with
    rank 0.  So when no message is in flight at that moment, the events
    that follow depend on the rank programs and the completing rank
    alone, which periodic capture (:mod:`repro.simmpi.capture`) uses.

    All per-run state lives in this call's frame, so nothing of a run —
    generators, payloads, queues — outlives it, failed runs included.
    """
    error = sink.error
    if nranks < 1:
        raise error("nranks must be >= 1")
    topology.validate_rank_count(nranks)
    advance = []
    for rank in range(nranks):
        gen = program(SimComm(rank, nranks), *program_args)
        if not hasattr(gen, "send"):
            raise error("rank program must be a generator function (use 'yield')")
        advance.append(gen.send)

    clock = [0.0] * nranks
    compute_time = [0.0] * nranks
    comm_time = [0.0] * nranks
    sent = [0] * nranks
    sent_bytes = [0.0] * nranks
    received = [0] * nranks
    received_bytes = [0.0] * nranks
    status = [_READY] * nranks
    resume: list[Any] = [None] * nranks
    returns: list[Any] = [None] * nranks
    collective_index = [0] * nranks
    # Per destination, the unmatched sends keyed by (source, tag), each
    # deque in send order (the MPI non-overtaking rule).  A send is
    # (slot, source, nbytes, payload, route, ready time, eager arrival).
    unexpected: list[dict[tuple[int, int], deque]] = [
        {} for _ in range(nranks)]
    # Per rank, the receive it is blocked in: (source, tag, post time).
    posted: list[tuple[int, int, float] | None] = [None] * nranks
    # Open collectives: call index -> {rank: (post time, op)}.
    collectives: dict[int, dict[int, tuple[float, Any]]] = {}
    routes: dict[tuple, tuple] = {}
    by_tag: dict[int, int] = {}
    messages = 0
    traffic_bytes = 0.0
    intra_messages = 0
    operations = 0
    ready = deque(range(nranks))
    popleft = ready.popleft
    push = ready.append
    on_compute = sink.compute
    on_send = sink.send
    on_match = sink.match

    def settle(rank: int, time: float) -> None:
        """Advance ``rank``'s clock to ``time``, charging the wait as comm."""
        if time > clock[rank]:
            comm_time[rank] += time - clock[rank]
            clock[rank] = time

    def deliver(send: tuple, receiver: int, post: float) -> float:
        """Match ``send`` with ``receiver``'s receive posted at ``post``.

        Completes the send side — a blocked sender wakes — counts the
        message received and returns the receive's completion time.
        """
        slot, sender, nbytes, _, route, ready_time, arrival = send
        if route[3]:
            on_match(receiver, slot, 0.0)
            done = (post if post > arrival else arrival) + route[1]
        else:
            arrival = ((ready_time if ready_time > post else post)
                       + on_match(receiver, slot, route[2]))
            settle(sender, arrival)
            if status[sender] == _BLOCKED:
                status[sender] = _READY
                push(sender)
            done = arrival + route[1]
        received[receiver] += 1
        received_bytes[receiver] += nbytes
        return done

    while ready:
        rank = popleft()
        send_to = advance[rank]
        value = resume[rank]
        resume[rank] = None
        while True:
            operations += 1
            if operations > max_operations:
                raise error(
                    f"operation budget exceeded ({max_operations}); "
                    "possible unbounded loop in a rank program")
            try:
                op = send_to(value)
            except StopIteration as stop:
                status[rank] = _DONE
                returns[rank] = stop.value
                break
            except Exception as exc:  # noqa: BLE001 - converted to RankFailureError
                raise RankFailureError(rank, exc) from exc
            value = None
            try:
                code = op.code
            except AttributeError:
                code = None

            if code == OP_RECV:
                key = (op.source, op.tag)
                queues = unexpected[rank]
                queue = queues.get(key)
                if not queue:
                    posted[rank] = (op.source, op.tag, clock[rank])
                    status[rank] = _BLOCKED
                    break
                send = queue.popleft()
                if not queue:
                    del queues[key]
                settle(rank, deliver(send, rank, clock[rank]))
                value = send[3]
                continue

            if code == OP_COMPUTE:
                duration = on_compute(rank, op.seconds)
                clock[rank] += duration
                compute_time[rank] += duration
                continue

            if code == OP_SEND:
                dest = op.dest
                tag = op.tag
                nbytes = op.nbytes
                key = (rank, dest, tag, nbytes)
                route = routes.get(key)
                if route is None:
                    route = routes[key] = _route(topology, key, len(routes))
                cpu, _, wire, eager, intra, _, _ = route
                ready_time = clock[rank] + cpu
                clock[rank] = ready_time
                comm_time[rank] += cpu
                sent[rank] += 1
                sent_bytes[rank] += nbytes
                slot = messages
                messages += 1
                traffic_bytes += nbytes
                intra_messages += intra
                by_tag[tag] = by_tag.get(tag, 0) + 1
                if eager:
                    arrival = ready_time + on_send(rank, slot, wire, route)
                else:
                    on_send(rank, slot, 0.0, route)
                    arrival = 0.0
                send = (slot, rank, nbytes, op.payload, route, ready_time,
                        arrival)
                recv = posted[dest]
                if recv is None or recv[0] != rank or recv[1] != tag:
                    unexpected[dest].setdefault((rank, tag), deque()).append(
                        send)
                    if not eager:
                        status[rank] = _BLOCKED
                        break
                    continue
                posted[dest] = None
                settle(dest, deliver(send, dest, recv[2]))
                resume[dest] = op.payload
                status[dest] = _READY
                push(dest)
                continue

            if code == OP_ALLREDUCE:
                index = collective_index[rank]
                collective_index[rank] = index + 1
                posts = collectives.setdefault(index, {})
                if posts:
                    first = next(iter(posts.values()))[1]
                    if first.op is not op.op:
                        raise CommunicatorError(
                            f"collective mismatch at index {index}: rank "
                            f"{rank} reduced with {op.op.value!r} but other "
                            f"ranks with {first.op.value!r}")
                posts[rank] = (clock[rank], op)
                if len(posts) < nranks:
                    status[rank] = _BLOCKED
                    break
                # Last arrival: the completion time and result for all.
                del collectives[index]
                nbytes = 0.0
                for _, arrived in posts.values():
                    nbytes = max(nbytes, arrived.nbytes)
                cost = collective_cost(nbytes, nranks, topology.inter_node)
                completion = (max(post for post, _ in posts.values())
                              + sink.collective(rank, cost, nbytes))
                result = op.op.combine(
                    [posts[r][1].value for r in sorted(posts)])
                for other in range(nranks):
                    settle(other, completion)
                    if other != rank:
                        resume[other] = result
                        status[other] = _READY
                        push(other)
                value = result
                continue

            if code == OP_NOW:
                sink.timing_dependent("now")
                value = clock[rank]
                continue

            raise CommunicatorError(
                f"rank {rank} yielded an unknown operation: {op!r}")

    blocked = [rank for rank in range(nranks) if status[rank] != _DONE]
    if blocked:
        raise DeadlockError(
            f"deadlock: ranks {blocked} are blocked with no pending events",
            blocked_ranks=blocked)
    ranks = [RankResult(
        rank=rank, finish_time=clock[rank], return_value=returns[rank],
        compute_time=compute_time[rank], comm_time=comm_time[rank],
        messages_sent=sent[rank], bytes_sent=sent_bytes[rank],
        messages_received=received[rank],
        bytes_received=received_bytes[rank]) for rank in range(nranks)]
    traffic = LinkUsageStats(
        messages=messages, bytes=traffic_bytes,
        intra_node_messages=intra_messages,
        inter_node_messages=messages - intra_messages, by_tag=by_tag)
    return SimulationResult(nranks=nranks, ranks=ranks,
                            elapsed_time=max(clock), traffic=traffic)


class _TimingSink:
    """The engine's per-event work: the run's noise at every draw site.

    Draws happen in the order the loop reaches the sites, the order trace
    replay perturbs them in (:meth:`NoiseModel.perturb_batch`); a site
    with a zero base draws nothing.
    """

    error = SimulationError

    def __init__(self, noise: NoiseModel):
        draws = noise.draws()
        self._compute = draws.compute
        self._network = draws.network

    def compute(self, rank: int, base: float) -> float:
        return self._compute(base)

    def send(self, rank: int, slot: int, base: float, route: tuple) -> float:
        return self._network(base)

    def match(self, rank: int, slot: int, base: float) -> float:
        return self._network(base)

    def collective(self, rank: int, base: float, nbytes: float) -> float:
        return self._network(base)

    def timing_dependent(self, what: str) -> None:
        pass


class ClusterEngine:
    """Runs rank programs on a simulated cluster.

    The scheduling loop (:func:`run_ranks`) with a timing sink: every
    compute block and message transfer draws its noise as the loop
    reaches it, so the loop's clocks are the simulated times.  Rank
    programs charge compute as explicit seconds (``comm.compute``); the
    engine prices only messages and collectives.

    Parameters
    ----------
    topology:
        Node layout and link cost models.
    max_operations:
        Safety valve: abort with :class:`SimulationError` if a single run
        executes more than this many operations (guards against unbounded
        loops in rank programs).
    """

    def __init__(self, topology: ClusterTopology,
                 max_operations: int = MAX_OPERATIONS):
        self.topology = topology
        self.max_operations = max_operations
        self._running = False

    def run(self, program: Callable[..., Any], nranks: int,
            program_args: Iterable[Any] = (),
            noise: NoiseModel | None = None) -> SimulationResult:
        """Execute ``program`` on ``nranks`` simulated ranks.

        ``program`` is called as ``program(comm, *program_args)`` for each
        rank and must return a generator (i.e. contain at least one
        ``yield``).

        ``noise`` is this run's OS/network noise model; ``None`` runs
        noise-free.  Every run draws from a fresh cursor over the model's
        streams (:meth:`~repro.simnet.noise.NoiseModel.draws`), so equal
        inputs give equal results however often the engine or the model
        is reused.

        The engine may be reused: it keeps no per-run state, so no run —
        even a failed one — leaks into the next, and a re-entrant call
        from inside a rank program is rejected.
        """
        if self._running:
            raise SimulationError(
                "ClusterEngine.run() is not re-entrant; use a separate engine "
                "for nested simulations")
        self._running = True
        try:
            return run_ranks(
                _TimingSink(noise if noise is not None
                            else NoiseModel.disabled()),
                self.topology, self.max_operations,
                program, nranks, program_args)
        finally:
            self._running = False
