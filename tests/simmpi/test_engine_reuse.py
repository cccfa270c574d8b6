"""Engine reuse across runs: the contract simulation plans depend on."""

import weakref

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simmpi.engine import ClusterEngine
from repro.simnet.link import LinkModel
from repro.simnet.noise import NoiseModel
from repro.simnet.topology import ClusterTopology


def make_engine(**engine_kwargs) -> ClusterEngine:
    link = LinkModel(name="reuse", latency=5e-6, bandwidth=100e6,
                     eager_threshold=16 * 1024,
                     send_overhead=1e-6, recv_overhead=1e-6)
    topology = ClusterTopology(name="reuse-cluster", processors_per_node=2,
                               inter_node=link)
    return ClusterEngine(topology, **engine_kwargs)


def ring_program(comm, nbytes=1024.0, rounds=3):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    total = 0.0
    for _ in range(rounds):
        yield comm.compute(1e-4)
        if comm.rank % 2 == 0:
            yield comm.send(None, dest=right, tag=7, nbytes=nbytes)
            yield comm.recv(source=left, tag=7)
        else:
            yield comm.recv(source=left, tag=7)
            yield comm.send(None, dest=right, tag=7, nbytes=nbytes)
        total = yield comm.allreduce(1.0, op="sum")
    return total


def unmatched_send_program(comm):
    # Rank 0 posts a send nobody ever receives: the run deadlocks with a
    # _PendingSend left in the engine's unexpected queues.
    if comm.rank == 0:
        yield comm.send(None, dest=1, tag=99, nbytes=1e6)
        yield comm.recv(source=1, tag=1)
    else:
        yield comm.recv(source=0, tag=1)


class TestEngineReuse:
    def test_repeated_runs_identical(self):
        engine = make_engine()
        first = engine.run(ring_program, nranks=4)
        second = engine.run(ring_program, nranks=4)
        fresh = make_engine().run(ring_program, nranks=4)
        assert first.elapsed_time == second.elapsed_time == fresh.elapsed_time
        assert ([r.finish_time for r in first.ranks]
                == [r.finish_time for r in second.ranks])
        assert first.traffic.messages == second.traffic.messages

    def test_rank_count_may_change_between_runs(self):
        engine = make_engine()
        small = engine.run(ring_program, nranks=2)
        large = engine.run(ring_program, nranks=6)
        assert small.nranks == 2 and large.nranks == 6
        assert large.elapsed_time >= small.elapsed_time

    def test_failed_run_does_not_poison_the_next(self):
        engine = make_engine()
        with pytest.raises(DeadlockError):
            engine.run(unmatched_send_program, nranks=2)
        # The stale _PendingSend of the failed run must not be matchable by
        # (or corrupt) a subsequent run on the same engine.
        result = engine.run(ring_program, nranks=2)
        reference = make_engine().run(ring_program, nranks=2)
        assert result.elapsed_time == reference.elapsed_time
        assert result.traffic.messages == reference.traffic.messages

    def test_run_state_released_after_run(self):
        """Nothing of a run outlives it: not its rank generators, not the
        payloads in flight — whether the run finished or deadlocked."""

        class Payload:
            pass

        def tracked(program, refs):
            def wrapper(comm):
                gen = program(comm)
                refs.append(weakref.ref(gen))
                return gen
            return wrapper

        def sending(comm):
            if comm.rank == 0:
                payload = Payload()
                refs.append(weakref.ref(payload))
                yield comm.send(payload, dest=1, tag=1, nbytes=1e6)
                yield comm.recv(source=1, tag=2)
            else:
                yield comm.recv(source=0, tag=1)
                yield comm.send(None, dest=0, tag=2, nbytes=8)

        def stuck(comm):
            # Rank 0's payload stays unmatched when the run deadlocks.
            if comm.rank == 0:
                payload = Payload()
                refs.append(weakref.ref(payload))
                yield comm.send(payload, dest=1, tag=99, nbytes=8)
            yield comm.recv(source=1 - comm.rank, tag=1)

        engine = make_engine()
        refs = []
        engine.run(tracked(sending, refs), nranks=2)
        assert len(refs) == 3
        assert all(ref() is None for ref in refs)

        refs = []
        try:
            engine.run(tracked(stuck, refs), nranks=2)
        except DeadlockError:
            pass
        else:
            pytest.fail("the run should have deadlocked")
        assert len(refs) == 3
        assert all(ref() is None for ref in refs)

    def test_reentrant_run_rejected(self):
        engine = make_engine()

        def nested(comm):
            if comm.rank == 0:
                engine.run(ring_program, nranks=2)
            yield comm.compute(1e-6)

        with pytest.raises((SimulationError, Exception)) as excinfo:
            engine.run(nested, nranks=2)
        assert "re-entrant" in str(excinfo.value)

    def test_noise_swap_between_runs(self):
        """One noise model gives the same result on every run."""
        engine = make_engine()
        noise = NoiseModel(seed=42)
        noisy_a = engine.run(ring_program, nranks=4, noise=noise)
        noisy_b = engine.run(ring_program, nranks=4, noise=noise)
        other = engine.run(ring_program, nranks=4, noise=NoiseModel(seed=43))
        assert noisy_a.elapsed_time == noisy_b.elapsed_time
        assert other.elapsed_time != noisy_a.elapsed_time
