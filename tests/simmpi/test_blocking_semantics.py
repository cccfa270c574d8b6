"""MPI semantics of the blocking operations, case by case, on both tiers.

The simulated MPI runs what the repo's rank programs yield: compute,
blocking ``send``/``recv`` with an explicit source and tag, and
``allreduce``.  Each case is a small program with the outcome MPI
prescribes for it: every rank's return value, or the ranks a deadlock
leaves blocked.  The engine must produce that outcome, and a trace of the
program must replay to the engine's run bit for bit, noise included, or
be refused at capture with the same deadlock.
"""

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.errors import DeadlockError
from repro.simmpi.engine import ClusterEngine
from repro.simmpi.trace import TraceRecorder
from repro.simnet.link import LinkModel
from repro.simnet.noise import NoiseModel
from repro.simnet.topology import ClusterTopology

EAGER = 256       # bytes: below the threshold, the send completes locally
RENDEZVOUS = 4096  # bytes: above it, the send waits for its receive


@pytest.fixture(scope="module")
def topology():
    link = LinkModel(name="test", latency=10e-6, bandwidth=100e6,
                     eager_threshold=1024, send_overhead=2e-6,
                     recv_overhead=3e-6, per_byte_cpu=1e-9)
    return ClusterTopology(name="test-cluster", processors_per_node=2,
                           inter_node=link)


@dataclass(frozen=True)
class Case:
    program: Callable[..., Any]
    nranks: int
    returns: tuple = ()
    blocked: tuple = ()


def out_of_tag_order(nbytes):
    def program(comm):
        if comm.rank == 0:
            yield comm.send("a", dest=1, tag=1, nbytes=nbytes)
            yield comm.send("b", dest=1, tag=2, nbytes=nbytes)
            return None
        second = yield comm.recv(source=0, tag=2)
        first = yield comm.recv(source=0, tag=1)
        return (second, first)
    return program


def head_to_head(nbytes):
    def program(comm):
        peer = 1 - comm.rank
        yield comm.send(comm.rank, dest=peer, nbytes=nbytes)
        value = yield comm.recv(source=peer)
        return value
    return program


def ordered_exchange(comm):
    peer = 1 - comm.rank
    if comm.rank == 0:
        yield comm.send(comm.rank, dest=peer, nbytes=RENDEZVOUS)
        value = yield comm.recv(source=peer)
    else:
        value = yield comm.recv(source=peer)
        yield comm.send(comm.rank, dest=peer, nbytes=RENDEZVOUS)
    return value


def receives_by_source_not_arrival(comm):
    if comm.rank == 0:
        first = yield comm.recv(source=1, tag=3)
        second = yield comm.recv(source=2, tag=3)
        return [first, second]
    if comm.rank == 1:
        yield comm.compute(1e-3)   # rank 2's message arrives first
    yield comm.send(comm.rank, dest=0, tag=3, nbytes=EAGER)
    return None


def posted_receive_waits_for_its_tag(comm):
    """Rank 0 runs first, so its receive is posted before either send."""
    if comm.rank == 0:
        second = yield comm.recv(source=1, tag=2)
        first = yield comm.recv(source=1, tag=1)
        return (second, first)
    yield comm.send("a", dest=0, tag=1, nbytes=EAGER)
    yield comm.send("b", dest=0, tag=2, nbytes=EAGER)
    return None


def tag_mismatch(comm):
    if comm.rank == 0:
        value = yield comm.recv(source=1, tag=2)
        return value
    yield comm.send("x", dest=0, tag=1, nbytes=EAGER)
    return None


def recv_from_finished_rank(comm):
    if comm.rank == 0:
        yield comm.compute(1e-4)
        return None
    value = yield comm.recv(source=0)
    return value


def allreduce_skipped_by_one_rank(comm):
    if comm.rank == 0:
        yield comm.compute(1e-4)
        return None
    total = yield comm.allreduce(1.0, op="sum")
    return total


def pipeline_chain(comm):
    """A one-dimensional wavefront: receive upstream, work, pass it on."""
    visited = []
    if comm.rank > 0:
        visited = yield comm.recv(source=comm.rank - 1, tag=4)
    yield comm.compute(1e-4 * (comm.rank + 1))
    visited = visited + [comm.rank]
    if comm.rank < comm.size - 1:
        yield comm.send(visited, dest=comm.rank + 1, tag=4, nbytes=RENDEZVOUS)
        return None
    return visited


def ring_shift_then_allreduce(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    if comm.rank % 2 == 0:
        yield comm.send(comm.rank, dest=right, tag=5, nbytes=RENDEZVOUS)
        value = yield comm.recv(source=left, tag=5)
    else:
        value = yield comm.recv(source=left, tag=5)
        yield comm.send(comm.rank, dest=right, tag=5, nbytes=RENDEZVOUS)
    total = yield comm.allreduce(float(value), op="sum")
    largest = yield comm.allreduce(float(value), op="max")
    return (value, total, largest)


def self_send_then_recv(comm):
    yield comm.send(comm.rank * 10, dest=comm.rank, tag=6, nbytes=EAGER)
    value = yield comm.recv(source=comm.rank, tag=6)
    return value


def rendezvous_self_send(comm):
    yield comm.send(None, dest=comm.rank, nbytes=RENDEZVOUS)
    value = yield comm.recv(source=comm.rank)
    return value


def pipelined_iterations(comm):
    """SWEEP3D's shape: each iteration pipelines a wavefront down the
    ranks and ends with a global max (the error) and a global sum."""
    history = []
    for iteration in range(3):
        if comm.rank > 0:
            yield comm.recv(source=comm.rank - 1, tag=iteration)
        yield comm.compute(1e-4)
        if comm.rank < comm.size - 1:
            yield comm.send(None, dest=comm.rank + 1, tag=iteration,
                            nbytes=RENDEZVOUS if iteration % 2 else EAGER)
        error = yield comm.allreduce(float(comm.rank * iteration), op="max")
        total = yield comm.allreduce(1.0, op="sum")
        history.append((error, total))
    return history


def same_tag_from_both_neighbours(comm):
    """Both neighbours use one tag; the source alone tells them apart."""
    if comm.rank == 1:
        from_right = yield comm.recv(source=2, tag=0)
        from_left = yield comm.recv(source=0, tag=0)
        return (from_left, from_right)
    yield comm.compute(1e-4 * comm.rank)
    yield comm.send(f"from {comm.rank}", dest=1, nbytes=EAGER)
    return None


CASES = {
    "eager-out-of-tag-order": Case(out_of_tag_order(EAGER), 2,
                                   returns=(None, ("b", "a"))),
    "rendezvous-out-of-tag-order-deadlocks": Case(
        out_of_tag_order(RENDEZVOUS), 2, blocked=(0, 1)),
    "eager-head-to-head": Case(head_to_head(EAGER), 2, returns=(1, 0)),
    "rendezvous-head-to-head-deadlocks": Case(head_to_head(RENDEZVOUS), 2,
                                              blocked=(0, 1)),
    "rendezvous-ordered-exchange": Case(ordered_exchange, 2, returns=(1, 0)),
    "receives-by-source-not-arrival": Case(
        receives_by_source_not_arrival, 3, returns=([1, 2], None, None)),
    "same-tag-from-both-neighbours": Case(
        same_tag_from_both_neighbours, 3,
        returns=(None, ("from 0", "from 2"), None)),
    "posted-receive-waits-for-its-tag": Case(
        posted_receive_waits_for_its_tag, 2, returns=(("b", "a"), None)),
    "tag-mismatch-deadlocks": Case(tag_mismatch, 2, blocked=(0,)),
    "recv-from-finished-rank-deadlocks": Case(recv_from_finished_rank, 2,
                                              blocked=(1,)),
    "allreduce-skipped-by-one-rank-deadlocks": Case(
        allreduce_skipped_by_one_rank, 3, blocked=(1, 2)),
    "pipeline-chain": Case(pipeline_chain, 4,
                           returns=(None, None, None, [0, 1, 2, 3])),
    "ring-shift-then-allreduce": Case(
        ring_shift_then_allreduce, 4,
        returns=((3, 6.0, 3.0), (0, 6.0, 3.0), (1, 6.0, 3.0), (2, 6.0, 3.0))),
    "self-send-then-recv": Case(self_send_then_recv, 3, returns=(0, 10, 20)),
    "rendezvous-self-send-deadlocks": Case(rendezvous_self_send, 2,
                                           blocked=(0, 1)),
    "pipelined-iterations": Case(
        pipelined_iterations, 3,
        returns=([(0.0, 3.0), (2.0, 3.0), (4.0, 3.0)],) * 3),
}

NOISES = (None,
          NoiseModel(seed=3),                        # daemon on
          NoiseModel(seed=5, daemon_interval=0.0))   # jitter only


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_outcome(topology, name):
    case = CASES[name]
    engine = ClusterEngine(topology)
    if case.blocked:
        with pytest.raises(DeadlockError) as excinfo:
            engine.run(case.program, case.nranks)
        assert excinfo.value.blocked_ranks == list(case.blocked)
    else:
        result = engine.run(case.program, case.nranks)
        assert result.return_values == list(case.returns)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_replays_the_engine(topology, name):
    case = CASES[name]
    recorder = TraceRecorder(topology)
    if case.blocked:
        with pytest.raises(DeadlockError) as excinfo:
            recorder.record(case.program, case.nranks)
        assert excinfo.value.blocked_ranks == list(case.blocked)
        return
    trace = recorder.record(case.program, case.nranks)
    engine = ClusterEngine(topology)
    for noise in NOISES:
        assert repr(trace.replay(noise)) == repr(
            engine.run(case.program, case.nranks, noise=noise))
