"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
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

    @given(clc_counts)
    def test_operation_mix_roundtrip(self, a):
        clc = ClcVector(dict(a))
        assert ClcVector.from_operation_mix(clc.to_operation_mix()) == clc

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

    @given(st.integers(min_value=1, max_value=2000))
    def test_for_size_preserves_total(self, nranks):
        cart = Cart2D.for_size(nranks)
        assert cart.size == nranks
        assert cart.px <= cart.py

    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=2, max_value=20),
           st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
    def test_sweep_depth_bounds(self, px, py, idir, jdir):
        cart = Cart2D(px, py)
        depths = [cart.sweep_depth(rank, idir, jdir) for rank in range(cart.size)]
        assert min(depths) == 0
        assert max(depths) == px + py - 2


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
        octant = LevelSymmetricQuadrature(sn).octant_angles()
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
        deck = Sweep3DInput.weak_scaled((5, 5, 10), px, py)
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
        predictions = model.evaluate_many(sizes)
        assert np.max(np.abs(predictions - times) / times) < 0.05


# ---------------------------------------------------------------------------
# HMCL round trip
# ---------------------------------------------------------------------------


class TestHmclRoundTripProperties:
    @given(mflops=st.floats(min_value=1.0, max_value=2000.0))
    @settings(max_examples=25, deadline=None)
    def test_cpu_rate_roundtrip(self, synthetic_hardware, mflops):
        hardware = synthetic_hardware.with_flop_rate(mflops * units.MFLOPS)
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
    def test_vectorised_equals_reference(self, synthetic_hardware, npe_i, npe_j, work):
        variables = {"npe_i": npe_i, "npe_j": npe_j, "n_k_blocks": 2,
                     "n_angle_blocks": 1, "ew_bytes": 2000.0, "ns_bytes": 2000.0,
                     "work": work}
        stage = _stage(work, 2000.0)
        strategy = PipelineStrategy()
        fast = strategy.evaluate(variables, stage, synthetic_hardware).time
        slow = strategy.reference_evaluate(variables, stage, synthetic_hardware).time
        assert fast == pytest.approx(slow, rel=1e-10)

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
        deck = Sweep3DInput.weak_scaled((nx, ny, kt), px, py, mk=mk, mmi=mmi,
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
        deck = Sweep3DInput.weak_scaled((nx, ny, kt), px, py, mk=mk, mmi=mmi,
                                        max_iterations=iterations)
        plan = machine.simulation_plan(deck, px, py)
        if daemon:
            noise = machine.noise_model(seed)
        else:
            noise = NoiseModel(seed=seed, daemon_interval=0.0)

        sample_set = plan.run(noise=noise, mode="auto", samples=samples)
        assert sample_set.n_samples == samples
        trace = plan.compile_trace()
        for index in range(samples):
            single = trace.replay(noise.reseeded(noise.seed + index))
            batched = sample_set.sample(index).simulation
            assert batched.elapsed_time == single.elapsed_time
            assert sample_set.elapsed_times[index] == single.elapsed_time
            for got, want in zip(batched.ranks, single.ranks):
                assert got.finish_time == want.finish_time
                assert got.compute_time == want.compute_time
                assert got.comm_time == want.comm_time


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
