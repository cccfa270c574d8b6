"""Tests for trace capture and max-plus replay (repro.simmpi.trace)."""

import pytest

from repro.errors import CommunicatorError, DeadlockError, TraceError
from repro.machines.presets import get_machine
from repro.simmpi import trace as trace_module
from repro.simmpi.engine import ClusterEngine
from repro.simmpi.steady import steady_replay
from repro.simmpi.trace import (
    EV_COLLECTIVE,
    EV_COMPUTE,
    EV_MATCH,
    EV_SEND,
    TraceRecorder,
)
from repro.simnet.link import LinkModel
from repro.simnet.noise import NoiseModel
from repro.simnet.topology import ClusterTopology
from repro.sweep3d.input import Sweep3DInput


@pytest.fixture(scope="module")
def topology():
    # Small eager threshold so both protocols are exercised.
    link = LinkModel(name="test", latency=10e-6, bandwidth=100e6,
                     eager_threshold=1024, send_overhead=2e-6,
                     recv_overhead=3e-6, per_byte_cpu=1e-9)
    return ClusterTopology(name="test-cluster", processors_per_node=2,
                           inter_node=link)


def result_key(sim):
    return (sim.elapsed_time,
            tuple((r.finish_time, r.compute_time, r.comm_time,
                   r.messages_sent, r.bytes_sent, r.messages_received,
                   r.bytes_received, r.return_value) for r in sim.ranks),
            sim.traffic.messages, sim.traffic.bytes,
            sim.traffic.intra_node_messages, sim.traffic.inter_node_messages,
            tuple(sorted(sim.traffic.by_tag.items())))


def assert_replay_matches_engine(topology, program, nranks, noises=(None,),
                                 program_args=()):
    trace = TraceRecorder(topology).record(program, nranks,
                                           program_args=program_args)
    engine = ClusterEngine(topology)
    for noise in noises:
        reference = engine.run(program, nranks, program_args=program_args,
                               noise=noise)
        replayed = trace.replay(noise)
        assert result_key(replayed) == result_key(reference)
    return trace


NOISES = (None,
          NoiseModel(seed=3),                                    # daemon on
          NoiseModel(seed=5, daemon_interval=0.0))               # jitter only


class TestPointToPoint:
    def test_eager_ping_pong(self, topology):
        def program(comm):
            if comm.rank == 0:
                yield comm.send(None, dest=1, tag=7, nbytes=256)
                reply = yield comm.recv(source=1, tag=8)
                return reply
            yield comm.recv(source=0, tag=7)
            yield comm.compute(1e-4)
            yield comm.send("pong", dest=0, tag=8, nbytes=256)
            return "done"

        trace = assert_replay_matches_engine(topology, program, 2,
                                             noises=NOISES)
        assert trace.n_messages == 2
        assert list(trace.event_kind).count(EV_SEND) == 2
        assert list(trace.event_kind).count(EV_MATCH) == 2

    def test_rendezvous_blocks_the_sender(self, topology):
        def program(comm):
            if comm.rank == 0:
                # 1 MB >> the 1 KB eager threshold: rendez-vous protocol.
                yield comm.send(None, dest=1, tag=1, nbytes=1e6)
            else:
                yield comm.compute(5e-3)       # receiver posts late
                yield comm.recv(source=0, tag=1)

        assert_replay_matches_engine(topology, program, 2, noises=NOISES)

    def test_rendezvous_recv_posted_first(self, topology):
        def program(comm):
            if comm.rank == 0:
                yield comm.compute(5e-3)       # sender posts late
                yield comm.send(None, dest=1, tag=1, nbytes=1e6)
            else:
                yield comm.recv(source=0, tag=1)

        assert_replay_matches_engine(topology, program, 2, noises=NOISES)

    def test_unexpected_messages_match_in_send_order(self, topology):
        def program(comm):
            if comm.rank == 0:
                for index in range(4):
                    yield comm.send(index, dest=1, tag=2, nbytes=64)
            else:
                yield comm.compute(1e-3)
                values = []
                for _ in range(4):
                    values.append((yield comm.recv(source=0, tag=2)))
                return values

        trace = assert_replay_matches_engine(topology, program, 2,
                                             noises=NOISES)
        assert trace.replay().ranks[1].return_value == [0, 1, 2, 3]


class TestCollectives:
    def test_allreduce_sum_and_max(self, topology):
        def program(comm):
            total = yield comm.allreduce(float(comm.rank + 1), op="sum")
            yield comm.compute(1e-4 * (comm.rank + 1))
            biggest = yield comm.allreduce(float(comm.rank), op="max")
            return (total, biggest)

        trace = assert_replay_matches_engine(topology, program, 4,
                                             noises=NOISES)
        assert trace.replay().ranks[0].return_value == (10.0, 3.0)
        assert list(trace.event_kind).count(EV_COLLECTIVE) == 2

    def test_single_rank_collective(self, topology):
        def program(comm):
            yield comm.compute(1e-3)
            value = yield comm.allreduce(2.5, op="sum")
            return value

        trace = assert_replay_matches_engine(topology, program, 1,
                                             noises=NOISES)
        assert trace.replay().ranks[0].return_value == 2.5


def _now(comm):
    start = yield comm.now()
    yield comm.compute(start + 1e-3)


class TestUnsupportedPatterns:
    @pytest.mark.parametrize("name", ["now"])
    def test_timing_dependent_op_rejected(self, topology, name):
        """Refused by the recorder, run by the engine."""
        program = _now
        with pytest.raises(TraceError, match="timing-dependent"):
            TraceRecorder(topology).record(program, 2)
        ClusterEngine(topology).run(program, 2)

    def test_unknown_operation_rejected_at_capture(self, topology):
        def program(comm):
            yield comm.compute(1e-6)
            yield "barrier"

        with pytest.raises(CommunicatorError, match="unknown operation"):
            TraceRecorder(topology).record(program, 2)

    def test_runaway_program_is_stopped_at_capture(self, topology,
                                                   monkeypatch):
        """The recorder spends the engine's operation budget."""
        def program(comm, operations):
            for _ in range(operations):
                yield comm.compute(1e-9)

        monkeypatch.setattr(trace_module, "MAX_OPERATIONS", 500)
        TraceRecorder(topology).record(program, 1, program_args=(400,))
        with pytest.raises(TraceError, match="operation budget exceeded"):
            TraceRecorder(topology).record(program, 1, program_args=(600,))

    def test_collective_mismatch_rejected_at_capture(self, topology):
        def program(comm):
            yield comm.allreduce(1.0, op="max" if comm.rank == 0 else "sum")

        with pytest.raises(CommunicatorError, match="collective mismatch"):
            TraceRecorder(topology).record(program, 2)

    def test_deadlock_detected_at_capture(self, topology):
        def program(comm):
            yield comm.recv(source=(comm.rank + 1) % 2, tag=0)

        with pytest.raises(DeadlockError):
            TraceRecorder(topology).record(program, 2)


class TestReplaySemantics:
    def test_repeated_replays_are_stable(self, topology):
        def program(comm):
            peer = 1 - comm.rank
            if comm.rank == 0:
                yield comm.send(None, dest=peer, tag=0, nbytes=128)
            else:
                yield comm.recv(source=peer, tag=0)
            yield comm.compute(1e-3)

        trace = TraceRecorder(topology).record(program, 2)
        noise = NoiseModel(seed=11)
        first = trace.replay(noise.reseeded(11))
        second = trace.replay(noise.reseeded(11))
        third = trace.replay(noise.reseeded(12))
        assert result_key(first) == result_key(second)
        assert result_key(first) != result_key(third)
        assert trace.replays == 3

    def test_event_table_shape(self, topology):
        def program(comm):
            yield comm.compute(1e-3)
            if comm.rank == 0:
                yield comm.send(None, dest=1, tag=9, nbytes=512)
            else:
                yield comm.recv(source=0, tag=9)
            yield comm.allreduce(1.0, op="sum")

        trace = TraceRecorder(topology).record(program, 2)
        kinds = list(trace.event_kind)
        assert kinds.count(EV_COMPUTE) == 2
        assert kinds.count(EV_SEND) == 1
        assert kinds.count(EV_MATCH) == 1
        assert kinds.count(EV_COLLECTIVE) == 1
        send_index = kinds.index(EV_SEND)
        assert trace.event_peer[send_index] == 1
        assert trace.event_tag[send_index] == 9
        assert trace.event_nbytes[send_index] == 512


class TestBatchReplay:
    """replay_batch sample s == replay at seeds[s], bit for bit."""

    @staticmethod
    def _wavefront_program(comm):
        # Mixed pattern: eager + rendez-vous point-to-point, compute,
        # and a collective — every wave kind the batch kernel handles.
        peer = (comm.rank + 1) % comm.size
        yield comm.compute(1e-3 * (comm.rank + 1))
        if comm.rank == 0:
            yield comm.send(None, dest=1, tag=1, nbytes=256)       # eager
            yield comm.send(None, dest=1, tag=2, nbytes=1e6)       # rdv
        elif comm.rank == 1:
            yield comm.recv(source=0, tag=1)
            yield comm.compute(2e-3)
            yield comm.recv(source=0, tag=2)
        yield comm.allreduce(float(peer), op="sum")

    def record(self, topology, nranks=3):
        return TraceRecorder(topology).record(self._wavefront_program, nranks)

    def assert_batch_matches_sequential(self, trace, noise, seeds):
        batch = trace.replay_batch(seeds, noise)
        assert batch.n_samples == len(seeds)
        for index, seed in enumerate(seeds):
            single = trace.replay(None if noise is None
                                  else noise.reseeded(seed))
            assert result_key(batch.sample(index)) == result_key(single)
            assert batch.elapsed[index] == single.elapsed_time

    def test_jitter_noise_matches_sequential_replays(self, topology):
        trace = self.record(topology)
        noise = NoiseModel(seed=0, daemon_interval=0.0)
        self.assert_batch_matches_sequential(trace, noise, [3, 99, 7, 3])

    def test_daemon_noise_matches_sequential_replays(self, topology):
        trace = self.record(topology)
        noise = NoiseModel(seed=0, daemon_interval=0.01,
                           daemon_duration=1e-3)
        self.assert_batch_matches_sequential(trace, noise, [0, 5, 12345])

    def test_no_noise_every_sample_is_the_modelled_run(self, topology):
        trace = self.record(topology)
        modelled = trace.replay()
        batch = trace.replay_batch([1, 2, 3])
        for index in range(3):
            assert result_key(batch.sample(index)) == result_key(modelled)
        assert batch.elapsed_std == 0.0
        assert batch.elapsed_ci95 == 0.0

    def test_summary_statistics(self, topology):
        trace = self.record(topology)
        noise = NoiseModel(seed=0, daemon_interval=0.0)
        batch = trace.replay_batch(list(range(16)), noise)
        summary = batch.summary()
        assert summary["samples"] == 16.0
        assert summary["elapsed_min"] <= summary["elapsed_mean"] \
            <= summary["elapsed_max"]
        assert summary["elapsed_std"] > 0.0
        assert summary["elapsed_ci95"] == pytest.approx(
            1.96 * summary["elapsed_std"] / 4.0)

    def test_single_sample_has_zero_spread(self, topology):
        trace = self.record(topology)
        batch = trace.replay_batch([7], NoiseModel(seed=7))
        assert batch.elapsed_std == 0.0
        assert batch.elapsed_ci95 == 0.0
        assert batch.elapsed_mean == batch.elapsed[0]

    def test_replays_counter_counts_samples(self, topology):
        trace = self.record(topology)
        before = trace.replays
        trace.replay_batch([1, 2, 3, 4, 5])
        assert trace.replays == before + 5

    def test_empty_seed_list_rejected(self, topology):
        with pytest.raises(ValueError, match="at least one seed"):
            self.record(topology).replay_batch([])


class TestFastPathsBuildNoMirror:
    """Only a trace replayed noise-free more than once holds Python lists
    of its columns: the batch and steady paths, noisy replays and a first
    noise-free replay read the numpy columns."""

    @pytest.fixture
    def plan(self):
        machine = get_machine("steady")
        deck = Sweep3DInput(it=10, jt=10, kt=8, mk=4, mmi=3, sn=6,
                            max_iterations=20)
        return machine.simulation_plan(deck, 2, 2)

    @pytest.fixture
    def trace(self, plan):
        return plan.compile_trace()

    @staticmethod
    def assert_no_mirror(trace):
        assert trace._replay_lists is None

    def test_batch_schedule_and_replay_batch(self, trace):
        self.assert_no_mirror(trace)
        trace.batch_schedule()
        self.assert_no_mirror(trace)
        trace.replay_batch([1, 2], NoiseModel(seed=1))
        self.assert_no_mirror(trace)

    def test_steady_replay(self, plan, trace):
        capture = plan._held_capture()
        steady_replay(capture)
        assert capture.steady_replays == 1
        self.assert_no_mirror(capture)
        self.assert_no_mirror(trace)

    def test_noisy_and_first_noise_free_replays(self, trace):
        noise = NoiseModel(seed=5)
        noisy = repr(trace.replay(noise))
        assert repr(trace.replay(noise)) == noisy
        self.assert_no_mirror(trace)
        modelled = repr(trace.replay())
        self.assert_no_mirror(trace)
        # The second noise-free replay keeps the lists; repeated replays,
        # from lists or memoryviews, equal the first bit for bit.
        assert repr(trace.replay()) == modelled
        assert trace._replay_lists is not None
        assert repr(trace.replay(NoiseModel.disabled())) == modelled
        assert repr(trace.replay(noise)) == noisy


class TestPlanIntegration:
    @pytest.fixture(scope="class")
    def machine(self):
        return get_machine("pentium3-myrinet")

    @pytest.fixture(scope="class")
    def plan(self, machine):
        from repro.sweep3d.input import standard_deck
        deck = standard_deck("validation", px=2, py=2, max_iterations=2)
        return machine.simulation_plan(deck, 2, 2)

    def test_plan_replay_matches_engine(self, machine, plan):
        for seed in (None, 3, 99):
            # A NoiseModel carries generator state, so each run gets its
            # own freshly seeded instance (exactly how the backend seeds
            # per-scenario runs).
            def noise():
                return None if seed is None else machine.noise_model(seed)
            engine_run = plan.run(noise=noise(), mode="engine")
            replay_run = plan.run(noise=noise(), mode="replay")
            assert result_key(replay_run.simulation) == \
                result_key(engine_run.simulation)
            assert replay_run.error_history == engine_run.error_history
            assert replay_run.iterations == engine_run.iterations

    def test_auto_mode_replays_modelled_plans(self, plan):
        before = plan.replays
        plan.run(mode="auto")
        assert plan.replays == before + 1

    def test_numeric_plan_refuses_replay(self, machine):
        from repro.sweep3d.input import standard_deck
        deck = standard_deck("mini", px=1, py=2, max_iterations=1)
        plan = machine.simulation_plan(deck, 1, 2, numeric=True)
        with pytest.raises(TraceError, match="numeric"):
            plan.compile_trace()
        with pytest.raises(TraceError):
            plan.run(mode="replay")
        before = plan.replays
        auto = plan.run(mode="auto")           # falls back to the engine
        assert plan.replays == before
        assert auto.global_flux() is not None

    def test_unknown_mode_rejected(self, plan):
        with pytest.raises(ValueError, match="unknown simulation mode"):
            plan.run(mode="turbo")

    def test_plan_run_does_not_mutate_engine_noise(self, machine, plan):
        """Regression: per-run noise must not leak into the shared engine."""
        quiet = plan.run(mode="engine")
        plan.run(noise=machine.noise_model(5), mode="engine")
        assert not hasattr(plan.engine, "noise")   # noise is per run only
        assert plan.run(mode="engine").elapsed_time == quiet.elapsed_time
