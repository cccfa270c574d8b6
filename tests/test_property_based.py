"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.clc import ALL_MNEMONICS, ClcVector
from repro.core.hmcl.model import CpuCostModel
from repro.core.hmcl.parser import format_hmcl, parse_hmcl
from repro.core.templates import PipelineStrategy
from repro.core.templates.base import StageSpec, StageStep
from repro.profiling.curvefit import fit_piecewise_linear
from repro.simmpi.cart import Cart2D
from repro.simproc.opcodes import OpCategory, OperationMix
from repro.sweep3d.input import Sweep3DInput
from repro.sweep3d.quadrature import LevelSymmetricQuadrature

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

counts = st.dictionaries(
    st.sampled_from(list(OpCategory)),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    max_size=len(list(OpCategory)),
)

clc_counts = st.dictionaries(
    st.sampled_from(list(ALL_MNEMONICS)),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    max_size=len(ALL_MNEMONICS),
)

scales = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# OperationMix / ClcVector algebra
# ---------------------------------------------------------------------------


class TestOperationMixProperties:
    @given(counts, counts)
    def test_addition_is_commutative(self, a, b):
        left = OperationMix(dict(a)) + OperationMix(dict(b))
        right = OperationMix(dict(b)) + OperationMix(dict(a))
        assert left.counts == pytest.approx(right.counts)

    @given(counts, scales)
    def test_scaling_scales_flops(self, a, factor):
        mix = OperationMix(dict(a))
        assert (mix * factor).flops == pytest.approx(mix.flops * factor, rel=1e-9, abs=1e-9)

    @given(counts)
    def test_flops_never_exceed_total(self, a):
        mix = OperationMix(dict(a))
        assert mix.flops <= mix.total_operations + 1e-9

    @given(counts, counts)
    def test_addition_adds_totals(self, a, b):
        total = OperationMix(dict(a)) + OperationMix(dict(b))
        assert total.total_operations == pytest.approx(
            OperationMix(dict(a)).total_operations + OperationMix(dict(b)).total_operations)


class TestClcVectorProperties:
    @given(clc_counts, clc_counts)
    def test_addition_matches_manual_sum(self, a, b):
        combined = ClcVector(dict(a)) + ClcVector(dict(b))
        for mnemonic in ALL_MNEMONICS:
            expected = a.get(mnemonic, 0.0) + b.get(mnemonic, 0.0)
            assert combined.count(mnemonic) == pytest.approx(expected)

    @given(clc_counts, scales)
    def test_scaling_distributes(self, a, factor):
        clc = ClcVector(dict(a))
        assert (clc * factor).total == pytest.approx(clc.total * factor, rel=1e-9, abs=1e-6)

    @given(clc_counts, st.floats(min_value=1e3, max_value=1e12))
    def test_cpu_cost_model_linear_in_counts(self, a, rate):
        cpu = CpuCostModel.from_achieved_rate(rate)
        clc = ClcVector(dict(a))
        assert cpu.evaluate(clc * 2) == pytest.approx(2 * cpu.evaluate(clc), rel=1e-9)
        assert cpu.evaluate(clc) == pytest.approx(clc.flops / rate, rel=1e-9)


# ---------------------------------------------------------------------------
# Cart2D
# ---------------------------------------------------------------------------


class TestCartProperties:
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    def test_rank_coordinate_bijection(self, px, py):
        cart = Cart2D(px, py)
        seen = set()
        for rank in range(cart.size):
            coords = cart.coords(rank)
            assert cart.rank(*coords) == rank
            seen.add(coords)
        assert len(seen) == cart.size

    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=2, max_value=20),
           st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
    def test_sweep_depth_bounds(self, px, py, idir, jdir):
        depths = oracles.sweep_depths(Cart2D(px, py), idir, jdir)
        assert min(depths) == 0
        assert max(depths) == px + py - 2

    @given(st.integers(min_value=1, max_value=2000))
    def test_for_size_preserves_total(self, nranks):
        cart = Cart2D.for_size(nranks)
        assert cart.size == nranks
        assert cart.px <= cart.py


# ---------------------------------------------------------------------------
# Quadrature and input decks
# ---------------------------------------------------------------------------


class TestQuadratureProperties:
    @given(st.sampled_from([2, 4, 6, 8]), st.integers(min_value=1, max_value=12))
    def test_angle_blocks_partition(self, sn, mmi):
        quad = LevelSymmetricQuadrature(sn)
        blocks = quad.angle_blocks(mmi)
        assert sum(b.n_angles for b in blocks) == quad.angles_per_octant
        assert len(blocks) == quad.n_angle_blocks(mmi)
        assert all(b.n_angles <= mmi for b in blocks)

    @given(st.sampled_from([2, 4, 6, 8]))
    def test_first_moment(self, sn):
        """Level-symmetric sets integrate the half-range current consistently."""
        quad = LevelSymmetricQuadrature(sn)
        octant = quad.angle_blocks(quad.angles_per_octant)[0]
        half_range_current = 8 * float(np.sum(octant.weight * octant.mu)) / 2.0
        assert 0.2 < half_range_current < 0.35


class TestInputDeckProperties:
    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=50))
    def test_k_block_count(self, kt, mk):
        deck = Sweep3DInput(it=4, jt=4, kt=kt, mk=mk)
        assert deck.n_k_blocks == math.ceil(kt / mk)
        assert deck.n_k_blocks * mk >= kt

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20))
    def test_weak_scaling_total_cells(self, px, py):
        deck = oracles.weak_scaled_deck((5, 5, 10), px, py)
        assert deck.total_cells == 5 * 5 * 10 * px * py


# ---------------------------------------------------------------------------
# Piece-wise linear fitting
# ---------------------------------------------------------------------------


class TestCurveFitProperties:
    @given(st.floats(min_value=1e-7, max_value=1e-4),
           st.floats(min_value=1e-10, max_value=1e-8),
           st.floats(min_value=1e-6, max_value=1e-3),
           st.floats(min_value=1e-10, max_value=1e-8))
    @settings(max_examples=25, deadline=None)
    def test_fit_reproduces_piecewise_data(self, b, c, d, e):
        breakpoint_bytes = 8192.0
        d = max(d, b + c * breakpoint_bytes)   # keep the curve non-decreasing
        sizes = np.array([64, 256, 1024, 4096, 8192, 16384, 65536, 262144], dtype=float)
        times = np.where(sizes <= breakpoint_bytes, b + c * sizes, d + e * sizes)
        model = fit_piecewise_linear(sizes, times)
        predictions = np.array([model.evaluate(size) for size in sizes])
        assert np.max(np.abs(predictions - times) / times) < 0.05


# ---------------------------------------------------------------------------
# HMCL round trip
# ---------------------------------------------------------------------------


class TestHmclRoundTripProperties:
    @given(mflops=st.floats(min_value=1.0, max_value=2000.0))
    @settings(max_examples=25, deadline=None)
    def test_cpu_rate_roundtrip(self, synthetic_hardware, mflops):
        hardware = replace(synthetic_hardware, cpu=CpuCostModel.from_achieved_rate(
            mflops * units.MFLOPS))
        parsed = parse_hmcl(format_hmcl(hardware))
        assert parsed.cpu.achieved_mflops == pytest.approx(mflops, rel=1e-4)


# ---------------------------------------------------------------------------
# Pipeline template invariants
# ---------------------------------------------------------------------------


def _stage(work: float, nbytes: float) -> StageSpec:
    return StageSpec(steps=[
        StageStep("mpirecv", {"direction": "ew", "bytes": nbytes}),
        StageStep("mpirecv", {"direction": "ns", "bytes": nbytes}),
        StageStep("cpu", {"time": work}),
        StageStep("mpisend", {"direction": "ew", "bytes": nbytes}),
        StageStep("mpisend", {"direction": "ns", "bytes": nbytes}),
    ])


class TestPipelineProperties:
    @given(npe_i=st.integers(min_value=1, max_value=6),
           npe_j=st.integers(min_value=1, max_value=6),
           kb=st.integers(min_value=1, max_value=4),
           ab=st.integers(min_value=1, max_value=3),
           work=st.floats(min_value=1e-6, max_value=1e-2))
    @settings(max_examples=30, deadline=None)
    def test_time_at_least_compute_and_at_most_serialised(self, synthetic_hardware,
                                                          npe_i, npe_j, kb, ab, work):
        """The wavefront time is bounded below by one rank's work and above by
        a fully serialised execution over the longest pipeline path."""
        variables = {"npe_i": npe_i, "npe_j": npe_j, "n_k_blocks": kb,
                     "n_angle_blocks": ab, "ew_bytes": 4000.0, "ns_bytes": 4000.0,
                     "work": work}
        stage = _stage(work, 4000.0)
        result = PipelineStrategy().evaluate(variables, stage, synthetic_hardware)
        blocks = 8 * kb * ab
        per_stage_overhead = (
            synthetic_hardware.mpi.recv_cost(4000.0) + synthetic_hardware.mpi.send_cost(4000.0)
            + synthetic_hardware.mpi.delivery_cost(4000.0)) * 2
        lower = blocks * work * (1.0 - 1e-9)
        upper = (blocks + 2 * (npe_i + npe_j)) * (work + per_stage_overhead) * (
            1 + npe_i + npe_j)
        assert lower <= result.time <= upper

    @given(npe_i=st.integers(min_value=1, max_value=5),
           npe_j=st.integers(min_value=1, max_value=5),
           work=st.floats(min_value=1e-6, max_value=1e-3))
    @settings(max_examples=20, deadline=None)
    def test_equals_both_oracles(self, synthetic_hardware, npe_i, npe_j, work):
        variables = {"npe_i": npe_i, "npe_j": npe_j, "n_k_blocks": 2,
                     "n_angle_blocks": 1, "ew_bytes": 2000.0, "ns_bytes": 2000.0,
                     "work": work}
        stage = _stage(work, 2000.0)
        result = PipelineStrategy().evaluate(variables, stage, synthetic_hardware)
        assert result == oracles.numpy_wavefront(variables, stage, synthetic_hardware)
        assert result == oracles.dict_wavefront(variables, stage, synthetic_hardware)

    @given(npe_i=st.integers(min_value=1, max_value=8),
           npe_j=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_array_size(self, synthetic_hardware, npe_i, npe_j):
        """Adding a processor row/column never shortens the wavefront."""
        def evaluate(pi, pj):
            variables = {"npe_i": pi, "npe_j": pj, "n_k_blocks": 2,
                         "n_angle_blocks": 2, "ew_bytes": 2000.0, "ns_bytes": 2000.0,
                         "work": 1e-4}
            return PipelineStrategy().evaluate(variables, _stage(1e-4, 2000.0),
                                               synthetic_hardware).time
        base = evaluate(npe_i, npe_j)
        assert evaluate(npe_i + 1, npe_j) >= base - 1e-15
        assert evaluate(npe_i, npe_j + 1) >= base - 1e-15


# ---------------------------------------------------------------------------
# Trace replay == ClusterEngine, bit for bit
# ---------------------------------------------------------------------------


class TestTraceReplayProperties:
    """For random small decks/grids, max-plus trace replay reproduces the
    discrete-event engine exactly — elapsed time, per-rank timing
    breakdowns and message statistics — including noisy runs at equal
    seeds, with and without daemon noise."""

    @staticmethod
    def _simulation_key(sim):
        return (sim.elapsed_time,
                tuple((r.finish_time, r.compute_time, r.comm_time,
                       r.messages_sent, r.bytes_sent, r.messages_received,
                       r.bytes_received) for r in sim.ranks),
                sim.traffic.messages, sim.traffic.bytes,
                sim.traffic.intra_node_messages,
                sim.traffic.inter_node_messages,
                tuple(sorted(sim.traffic.by_tag.items())))

    @given(px=st.integers(min_value=1, max_value=3),
           py=st.integers(min_value=1, max_value=3),
           nx=st.integers(min_value=1, max_value=4),
           ny=st.integers(min_value=1, max_value=4),
           kt=st.integers(min_value=1, max_value=8),
           mk=st.integers(min_value=1, max_value=4),
           mmi=st.integers(min_value=1, max_value=3),
           iterations=st.integers(min_value=1, max_value=2),
           seed=st.integers(min_value=0, max_value=2**31 - 1),
           daemon=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_replay_is_bit_identical_to_engine(self, px, py, nx, ny, kt, mk,
                                               mmi, iterations, seed, daemon):
        from repro.machines.presets import get_machine
        from repro.simnet.noise import NoiseModel
        from repro.sweep3d.input import Sweep3DInput

        machine = get_machine("pentium3-myrinet")
        deck = oracles.weak_scaled_deck((nx, ny, kt), px, py, mk=mk, mmi=mmi,
                                        max_iterations=iterations)
        plan = machine.simulation_plan(deck, px, py)

        if daemon:
            noise = machine.noise_model(seed)
        else:
            noise = NoiseModel(seed=seed, daemon_interval=0.0)

        deterministic_engine = plan.run(mode="engine")
        deterministic_replay = plan.run(mode="replay")
        assert self._simulation_key(deterministic_replay.simulation) == \
            self._simulation_key(deterministic_engine.simulation)

        noisy_engine = plan.run(noise=noise, mode="engine")
        noisy_replay = plan.run(noise=noise, mode="replay")
        assert self._simulation_key(noisy_replay.simulation) == \
            self._simulation_key(noisy_engine.simulation)
        assert noisy_replay.error_history == noisy_engine.error_history
        assert noisy_replay.iterations == noisy_engine.iterations


# ---------------------------------------------------------------------------
# Batched multi-seed replay == sequential single-seed replays, bit for bit
# ---------------------------------------------------------------------------


class TestBatchReplayProperties:
    """For random small decks/grids and noise parameters, one
    ``replay_batch`` pass over S seeds reproduces S sequential single-seed
    replays exactly — per-sample elapsed time and per-rank timing
    breakdowns — with and without daemon noise (and therefore, through
    :class:`TestTraceReplayProperties`, the reference engine too)."""

    @given(px=st.integers(min_value=1, max_value=3),
           py=st.integers(min_value=1, max_value=3),
           nx=st.integers(min_value=1, max_value=4),
           ny=st.integers(min_value=1, max_value=4),
           kt=st.integers(min_value=1, max_value=8),
           mk=st.integers(min_value=1, max_value=4),
           mmi=st.integers(min_value=1, max_value=3),
           iterations=st.integers(min_value=1, max_value=2),
           seed=st.integers(min_value=0, max_value=2**31 - 8),
           samples=st.integers(min_value=1, max_value=5),
           daemon=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_batch_samples_match_sequential_replays(self, px, py, nx, ny, kt,
                                                    mk, mmi, iterations, seed,
                                                    samples, daemon):
        from repro.machines.presets import get_machine
        from repro.simnet.noise import NoiseModel
        from repro.sweep3d.input import Sweep3DInput

        machine = get_machine("pentium3-myrinet")
        deck = oracles.weak_scaled_deck((nx, ny, kt), px, py, mk=mk, mmi=mmi,
                                        max_iterations=iterations)
        plan = machine.simulation_plan(deck, px, py)
        if daemon:
            noise = machine.noise_model(seed)
        else:
            noise = NoiseModel(seed=seed, daemon_interval=0.0)

        sample_set = plan.run(noise=noise, mode="auto", samples=samples)
        assert sample_set.n_samples == samples
        trace = plan.compile_trace()
        # plan.run replays small sample sets seed by seed, so the wave
        # loop is checked on the same draws directly as well.
        seeds = [noise.seed + index for index in range(samples)]
        direct = trace.replay_batch(seeds, noise)
        for batch in (sample_set.batch, direct):
            for index, seed in enumerate(seeds):
                single = trace.replay(noise.reseeded(seed))
                batched = batch.sample(index)
                assert batched.elapsed_time == single.elapsed_time
                assert batch.elapsed[index] == single.elapsed_time
                for got, want in zip(batched.ranks, single.ranks):
                    assert got.finish_time == want.finish_time
                    assert got.compute_time == want.compute_time
                    assert got.comm_time == want.comm_time


# ---------------------------------------------------------------------------
# Batch schedule invariants
# ---------------------------------------------------------------------------


def _schedule_dependencies(trace):
    """``(event, dependency)`` pairs, derived from the trace columns alone:
    each event depends on the latest event touching its rank, a match
    also on its send, a rendez-vous match also on the sender's latest
    event, and a collective on every rank's latest event."""
    from repro.simmpi.trace import EV_COLLECTIVE, EV_MATCH, EV_SEND

    latest = [-1] * trace.nranks
    send_of = {}
    eager = trace._send_eager_arr.tolist()
    srank = trace._send_rank_arr.tolist()
    pairs = []
    for ev, (kind, a, b) in enumerate(zip(trace.event_kind.tolist(),
                                          trace.event_rank.tolist(),
                                          trace.event_slot.tolist())):
        if kind == EV_COLLECTIVE:
            touched = list(range(trace.nranks))
        elif kind == EV_MATCH and not eager[b]:
            touched = [a, srank[b]]
        else:
            touched = [a]
        deps = [latest[rank] for rank in touched]
        if kind == EV_MATCH:
            deps.append(send_of[b])
        elif kind == EV_SEND:
            send_of[b] = ev
        pairs.extend((ev, dep) for dep in deps if dep >= 0)
        for rank in touched:
            latest[rank] = ev
    return pairs


def _assert_schedule_invariants(trace):
    """Check the wave schedule of ``trace`` against its own contract."""
    from repro.simmpi.trace import (_K_COLLECTIVE, _K_MATCH_EAGER,
                                    _K_MATCH_RDV, _K_SEND_EAGER)

    schedule = trace.batch_schedule()
    n_events = trace.n_events
    wave_of_pack = np.full(n_events, -1)
    sends, matches, rows = [], [], []
    for index, (key, dsl, spos, ra, snd, _aux, crow, csrow) in \
            enumerate(schedule.waves):
        assert (wave_of_pack[dsl] == -1).all()
        wave_of_pack[dsl] = index
        if key == _K_COLLECTIVE:
            assert dsl.stop - dsl.start == 1
            ranks = []
        else:
            ranks = list(ra) + ([] if snd is None else list(snd))
        assert len(set(ranks)) == len(ranks)
        if key == _K_SEND_EAGER:
            sends.extend(spos)
        elif key == _K_MATCH_EAGER:
            matches.extend(range(spos.start, spos.stop))
        if crow is not None:
            rows.extend(crow)
        if key == _K_MATCH_RDV:
            rows.extend(csrow)

    # The dsl slices tile range(n_events) in key-major order.
    stop = 0
    for key in range(6):
        for wave in schedule.waves:
            if wave[0] == key:
                assert wave[1].start == stop
                stop = wave[1].stop
    assert stop == n_events

    wave_of_ev = wave_of_pack[schedule.pack_of_ev]
    for ev, dep in _schedule_dependencies(trace):
        assert wave_of_ev[dep] < wave_of_ev[ev]

    # Each eager message owns one arrival position; matches read
    # distinct positions, each written by a send.
    assert sorted(sends) == list(range(schedule.n_arrive))
    assert len(set(matches)) == len(matches)
    assert set(matches) <= set(sends)
    assert sorted(rows) == list(range(schedule.total_comm))


class TestBatchScheduleProperties:
    """The wave schedule's own invariants, over random decks, grids and
    machines — including single-rank runs, the convergence collectives
    and links that mix the eager and rendez-vous protocols."""

    @given(px=st.integers(min_value=1, max_value=3),
           py=st.integers(min_value=1, max_value=3),
           nx=st.integers(min_value=1, max_value=4),
           ny=st.integers(min_value=1, max_value=4),
           kt=st.integers(min_value=1, max_value=8),
           mk=st.integers(min_value=1, max_value=4),
           mmi=st.integers(min_value=1, max_value=3),
           iterations=st.integers(min_value=1, max_value=2),
           machine_name=st.sampled_from(["pentium3-myrinet", "opteron-gige",
                                         "steady"]),
           per_node=st.integers(min_value=1, max_value=4),
           intra_eager=st.sampled_from([None, 0.0, 1e9]),
           inter_eager=st.sampled_from([None, 0.0, 1e9]))
    @settings(max_examples=25, deadline=None)
    def test_wave_schedule_invariants(self, px, py, nx, ny, kt, mk, mmi,
                                      iterations, machine_name, per_node,
                                      intra_eager, inter_eager):
        from dataclasses import replace

        from repro.machines.presets import get_machine
        from repro.simnet.topology import ClusterTopology
        from repro.sweep3d.driver import SimulationPlan

        machine = get_machine(machine_name)
        inter = machine.topology.inter_node
        intra = machine.topology.intra_node or inter
        if inter_eager is not None:
            inter = replace(inter, eager_threshold=inter_eager)
        if intra_eager is not None:
            intra = replace(intra, eager_threshold=intra_eager)
        topology = ClusterTopology(name="mixed", processors_per_node=per_node,
                                   inter_node=inter, intra_node=intra)
        deck = oracles.weak_scaled_deck((nx, ny, kt), px, py, mk=mk, mmi=mmi,
                                        max_iterations=iterations)
        trace = SimulationPlan(deck, px, py, topology,
                               processor=machine.processor).compile_trace()
        _assert_schedule_invariants(trace)

    def test_unmatched_eager_sends_keep_their_own_arrival_rows(self):
        """Eager sends nobody receives (and a self-send) take arrival
        positions of their own, so the batch equals per-seed replays."""
        from repro.simmpi.trace import TraceRecorder
        from repro.simnet.link import LinkModel
        from repro.simnet.noise import NoiseModel
        from repro.simnet.topology import ClusterTopology

        def program(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            yield comm.send(None, dest=right, tag=5, nbytes=64)   # unmatched
            yield comm.send(None, dest=right, tag=7, nbytes=64)
            yield comm.send(None, dest=comm.rank, tag=6, nbytes=32)
            yield comm.compute(1e-4 * (comm.rank + 1))
            yield comm.recv(source=left, tag=7)
            yield comm.recv(source=comm.rank, tag=6)
            yield comm.allreduce(0.0, op="max")

        link = LinkModel(name="test", latency=10e-6, bandwidth=100e6,
                         eager_threshold=1024, send_overhead=2e-6,
                         recv_overhead=3e-6, per_byte_cpu=1e-9)
        topology = ClusterTopology(name="t", processors_per_node=2,
                                   inter_node=link)
        trace = TraceRecorder(topology).record(program, 4)
        _assert_schedule_invariants(trace)
        noise = NoiseModel(seed=0, daemon_interval=0.0)
        batch = trace.replay_batch([3, 4], noise)
        for index, seed in enumerate([3, 4]):
            single = trace.replay(noise.reseeded(seed))
            assert batch.elapsed[index] == single.elapsed_time
            assert batch.finish[:, index].tolist() == \
                [rank.finish_time for rank in single.ranks]


# ---------------------------------------------------------------------------
# Relative error helper
# ---------------------------------------------------------------------------


class TestErrorProperties:
    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_relative_error_sign(self, measured, predicted):
        error = units.relative_error(measured, predicted)
        if predicted > measured:
            assert error < 0
        elif predicted < measured:
            assert error > 0
        else:
            assert error == 0

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_exact_prediction_has_zero_error(self, value):
        assert units.relative_error(value, value) == 0.0
