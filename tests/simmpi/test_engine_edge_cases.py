"""Edge-case behaviour of the discrete-event MPI engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simmpi.engine import ClusterEngine
from repro.simnet.link import LinkModel
from repro.simnet.noise import NoiseModel
from repro.simnet.topology import ClusterTopology


def make_engine(eager_threshold: float = 16 * 1024, **engine_kwargs) -> ClusterEngine:
    link = LinkModel(name="edge", latency=5e-6, bandwidth=100e6,
                     eager_threshold=eager_threshold,
                     send_overhead=1e-6, recv_overhead=1e-6)
    topology = ClusterTopology(name="edge-cluster", processors_per_node=2,
                               inter_node=link,
                               intra_node=LinkModel(name="shm", latency=5e-7,
                                                    bandwidth=1e9))
    return ClusterEngine(topology, **engine_kwargs)


class TestSelfAndZeroMessages:
    def test_eager_self_send(self):
        """An eager send to self followed by a receive must not deadlock."""
        def program(comm):
            yield comm.send({"x": 1}, dest=comm.rank, tag=0)
            data = yield comm.recv(source=comm.rank, tag=0)
            return data["x"]

        result = make_engine().run(program, nranks=1)
        assert result.return_values == [1]

    def test_rendezvous_self_send_deadlocks(self):
        """A rendezvous send to self can never be matched — a programming
        error that must surface as a deadlock, not hang."""
        def program(comm):
            yield comm.send(None, dest=comm.rank, tag=0, nbytes=1 << 20)
            yield comm.recv(source=comm.rank, tag=0)

        with pytest.raises(DeadlockError):
            make_engine(eager_threshold=1024).run(program, nranks=1)

    def test_zero_byte_message(self):
        def program(comm):
            if comm.rank == 0:
                yield comm.send(None, dest=1, nbytes=0, tag=3)
                return None
            yield comm.recv(source=0, tag=3)
            finish = yield comm.now()
            return finish

        result = make_engine().run(program, nranks=2)
        # Even an empty message pays the latency and overheads.
        assert result.return_values[1] > 0


class TestIntraNodeVsInterNode:
    def test_intra_node_message_is_faster(self):
        def program(comm, peer):
            if comm.rank == 0:
                yield comm.send(None, dest=peer, nbytes=8192, tag=1)
                return None
            if comm.rank == peer:
                yield comm.recv(source=0, tag=1)
                finish = yield comm.now()
                return finish
            yield comm.compute(0.0)
            return None

        engine = make_engine()
        intra = engine.run(program, nranks=4, program_args=(1,)).return_values[1]
        inter = engine.run(program, nranks=4, program_args=(2,)).return_values[2]
        assert intra < inter


class TestOperationBudget:
    def test_runaway_program_is_stopped(self):
        def program(comm):
            while True:
                yield comm.compute(1e-9)

        engine = make_engine(max_operations=500)
        with pytest.raises(SimulationError):
            engine.run(program, nranks=1)


class TestNoiseIntegration:
    def test_noisy_runs_differ_per_seed_but_not_per_repeat(self):
        def program(comm):
            peer = 1 - comm.rank
            for _ in range(10):
                if comm.rank == 0:
                    yield comm.compute(1e-4)
                    yield comm.send(None, dest=peer, nbytes=4096, tag=0)
                else:
                    yield comm.recv(source=peer, tag=0)
            return None

        def elapsed(seed):
            engine = make_engine()
            return engine.run(program, nranks=2,
                              noise=NoiseModel(seed=seed)).elapsed_time

        assert elapsed(1) == elapsed(1)
        assert elapsed(1) != elapsed(2)

    def test_noise_does_not_change_results(self):
        def program(comm):
            total = yield comm.allreduce(float(comm.rank), op="sum")
            return total

        result = make_engine().run(program, nranks=4,
                                   noise=NoiseModel(seed=9))
        assert result.return_values == [6.0, 6.0, 6.0, 6.0]


class TestManyRanks:
    def test_ring_exchange_scales_to_many_ranks(self):
        """A 64-rank ring exchange completes and preserves data."""
        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            yield comm.send(comm.rank, dest=right, tag=1)
            value = yield comm.recv(source=left, tag=1)
            return value

        result = make_engine().run(program, nranks=64)
        assert result.return_values == [(r - 1) % 64 for r in range(64)]

    def test_reduction_over_many_ranks(self):
        def program(comm):
            total = yield comm.allreduce(1.0, op="sum")
            return total

        result = make_engine().run(program, nranks=100)
        assert all(value == pytest.approx(100.0) for value in result.return_values)
