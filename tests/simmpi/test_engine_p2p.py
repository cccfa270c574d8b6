"""Point-to-point semantics of the discrete-event MPI engine."""

import numpy as np
import pytest

from repro import units
from repro.errors import (
    CommunicatorError,
    DeadlockError,
    RankFailureError,
    SimulationError,
)
from repro.simmpi.engine import ClusterEngine
from repro.simnet.link import LinkModel
from repro.simnet.topology import ClusterTopology


def make_topology(eager_threshold: float = 16 * 1024,
                  latency: float = 10e-6,
                  bandwidth: float = 100e6) -> ClusterTopology:
    link = LinkModel(name="test", latency=latency, bandwidth=bandwidth,
                     eager_threshold=eager_threshold,
                     send_overhead=1e-6, recv_overhead=2e-6)
    return ClusterTopology(name="test-cluster", processors_per_node=1, inter_node=link)


@pytest.fixture
def engine() -> ClusterEngine:
    return ClusterEngine(make_topology())


class TestBasicSendRecv:
    def test_payload_is_delivered(self, engine):
        def program(comm):
            if comm.rank == 0:
                yield comm.send({"value": 41}, dest=1, tag=5)
                return None
            data = yield comm.recv(source=0, tag=5)
            return data["value"] + 1

        result = engine.run(program, nranks=2)
        assert result.return_values[1] == 42

    def test_numpy_payload_roundtrip(self, engine):
        def program(comm):
            if comm.rank == 0:
                yield comm.send(np.arange(10.0), dest=1)
                return None
            data = yield comm.recv(source=0)
            return float(data.sum())

        result = engine.run(program, nranks=2)
        assert result.return_values[1] == pytest.approx(45.0)

    def test_receive_time_includes_wire_latency(self, engine):
        def program(comm):
            if comm.rank == 0:
                yield comm.send(None, dest=1, nbytes=8)
            else:
                yield comm.recv(source=0)
            return None

        result = engine.run(program, nranks=2)
        receiver = result.ranks[1]
        link = engine.topology.inter_node
        expected_min = link.latency
        assert receiver.finish_time >= expected_min

    def test_compute_advances_clock(self, engine):
        def program(comm):
            yield comm.compute(1.5e-3)
            return None

        result = engine.run(program, nranks=1)
        assert result.elapsed_time == pytest.approx(1.5e-3)
        assert result.ranks[0].compute_time == pytest.approx(1.5e-3)

    def test_now_reports_virtual_time(self, engine):
        def program(comm):
            before = yield comm.now()
            yield comm.compute(2e-3)
            after = yield comm.now()
            return after - before

        result = engine.run(program, nranks=1)
        assert result.return_values[0] == pytest.approx(2e-3)

    def test_fifo_ordering_same_tag(self, engine):
        """Messages between a pair with the same tag are non-overtaking."""
        def program(comm):
            if comm.rank == 0:
                for value in range(5):
                    yield comm.send(value, dest=1, tag=1)
                return None
            received = []
            for _ in range(5):
                received.append((yield comm.recv(source=0, tag=1)))
            return received

        result = engine.run(program, nranks=2)
        assert result.return_values[1] == [0, 1, 2, 3, 4]

    def test_tag_selective_matching(self, engine):
        def program(comm):
            if comm.rank == 0:
                yield comm.send("a", dest=1, tag=10)
                yield comm.send("b", dest=1, tag=20)
                return None
            second = yield comm.recv(source=0, tag=20)
            first = yield comm.recv(source=0, tag=10)
            return (first, second)

        result = engine.run(program, nranks=2)
        assert result.return_values[1] == ("a", "b")

    def test_exchange_pattern_times_are_symmetric(self, engine):
        def program(comm):
            peer = 1 - comm.rank
            if comm.rank == 0:
                yield comm.send(b"x" * 100, dest=peer)
                yield comm.recv(source=peer)
            else:
                yield comm.recv(source=peer)
                yield comm.send(b"x" * 100, dest=peer)
            return None

        result = engine.run(program, nranks=2)
        assert result.ranks[0].messages_sent == 1
        assert result.ranks[0].messages_received == 1
        assert result.elapsed_time > 0


class TestRendezvousProtocol:
    def test_large_send_blocks_until_recv_posted(self):
        engine = ClusterEngine(make_topology(eager_threshold=1024))
        nbytes = 1 << 20
        recv_delay = 5e-3

        def program(comm):
            if comm.rank == 0:
                yield comm.send(None, dest=1, nbytes=nbytes)
                finish = yield comm.now()
                return finish
            yield comm.compute(recv_delay)
            yield comm.recv(source=0)
            return None

        result = engine.run(program, nranks=2)
        # The sender cannot complete before the receiver posts at t=5ms.
        assert result.return_values[0] >= recv_delay

    def test_eager_send_completes_before_recv_posted(self):
        engine = ClusterEngine(make_topology(eager_threshold=1 << 22))
        recv_delay = 5e-3

        def program(comm):
            if comm.rank == 0:
                yield comm.send(None, dest=1, nbytes=4096)
                finish = yield comm.now()
                return finish
            yield comm.compute(recv_delay)
            yield comm.recv(source=0)
            return None

        result = engine.run(program, nranks=2)
        assert result.return_values[0] < recv_delay


class TestErrorsAndAccounting:
    def test_unmatched_recv_deadlocks(self, engine):
        def program(comm):
            if comm.rank == 1:
                yield comm.recv(source=0, tag=9)
            else:
                yield comm.compute(1e-6)
            return None

        with pytest.raises(DeadlockError) as excinfo:
            engine.run(program, nranks=2)
        assert 1 in excinfo.value.blocked_ranks

    def test_rank_exception_is_wrapped(self, engine):
        def program(comm):
            yield comm.compute(1e-6)
            raise ValueError("numerical blow-up")

        with pytest.raises(RankFailureError) as excinfo:
            engine.run(program, nranks=1)
        assert isinstance(excinfo.value.original, ValueError)

    def test_unknown_operation_rejected(self, engine):
        def program(comm):
            yield comm.compute(1e-6)
            yield "barrier"

        with pytest.raises(CommunicatorError, match="unknown operation"):
            engine.run(program, nranks=2)

    def test_non_generator_program_rejected(self, engine):
        def program(comm):
            return 42

        with pytest.raises(SimulationError):
            engine.run(program, nranks=1)

    def test_invalid_rank_count(self, engine):
        def program(comm):
            yield comm.compute(0.0)

        with pytest.raises(SimulationError):
            engine.run(program, nranks=0)

    def test_traffic_statistics(self, engine):
        def program(comm):
            if comm.rank == 0:
                yield comm.send(None, dest=1, nbytes=1000, tag=4)
            else:
                yield comm.recv(source=0, tag=4)
            return None

        result = engine.run(program, nranks=2)
        assert result.traffic.messages == 1
        assert result.traffic.bytes == 1000
        assert result.ranks[0].bytes_sent == 1000
        assert result.ranks[1].bytes_received == 1000

    def test_comm_time_accounted_for_waiting_receiver(self, engine):
        def program(comm):
            if comm.rank == 0:
                yield comm.compute(10e-3)
                yield comm.send(None, dest=1, nbytes=8)
            else:
                yield comm.recv(source=0)
            return None

        result = engine.run(program, nranks=2)
        receiver = result.ranks[1]
        assert receiver.comm_time >= 10e-3

    def test_determinism_without_noise(self):
        def program(comm):
            peer = (comm.rank + 1) % comm.size
            yield comm.send(comm.rank, dest=peer, tag=0)
            value = yield comm.recv(source=(comm.rank - 1) % comm.size, tag=0)
            yield comm.compute(units.usec(10) * (value + 1))
            return None

        times = set()
        for _ in range(3):
            engine = ClusterEngine(make_topology())
            result = engine.run(program, nranks=4)
            times.add(round(result.elapsed_time, 15))
        assert len(times) == 1
