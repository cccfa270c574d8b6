"""Tests for the OS/network noise model."""

import dataclasses

import numpy as np
import pytest

from repro.simnet.noise import NoiseModel, derive_seed

COMPUTE, NETWORK = NoiseModel.COMPUTE, NoiseModel.NETWORK


def cursor_values(noise, durations, kinds):
    """The engine's view: one fresh cursor fed the sites in order."""
    draws = noise.draws()
    return np.array([draws.compute(d) if k == COMPUTE else draws.network(d)
                     for d, k in zip(durations, kinds)])


class TestNoiseModel:
    def test_disabled_noise_is_identity(self):
        noise = NoiseModel.disabled()
        assert noise.is_disabled()
        draws = noise.draws()
        assert draws.compute(1.0) == 1.0
        assert draws.network(1e-5) == 1e-5
        durations = np.array([1.0, 1e-5])
        np.testing.assert_array_equal(
            noise.perturb_batch(durations, np.array([COMPUTE, NETWORK])),
            durations)

    def test_reproducible_with_same_seed(self):
        durations = np.full(20, 0.01)
        kinds = np.full(20, COMPUTE)
        np.testing.assert_array_equal(
            NoiseModel(seed=42).perturb_batch(durations, kinds),
            NoiseModel(seed=42).perturb_batch(durations, kinds))

    def test_different_seeds_differ(self):
        durations = np.full(5, 0.01)
        kinds = np.full(5, COMPUTE)
        assert not np.array_equal(
            NoiseModel(seed=1).perturb_batch(durations, kinds),
            NoiseModel(seed=2).perturb_batch(durations, kinds))

    def test_zero_duration_untouched(self):
        draws = NoiseModel(seed=3).draws()
        assert draws.compute(0.0) == 0.0
        assert draws.network(0.0) == 0.0

    def test_dead_sites_consume_no_draws(self):
        """Only live (positive-duration) sites advance the streams."""
        noise = NoiseModel(seed=3, daemon_interval=0.01, daemon_duration=1e-3)
        live = np.array([1e-3, 5e-4, 2e-3, 1e-4])
        live_kinds = np.array([COMPUTE, NETWORK, COMPUTE, NETWORK])
        padded = np.array([0.0, 1e-3, 0.0, 5e-4, 2e-3, 0.0, 1e-4])
        padded_kinds = np.array([NETWORK, COMPUTE, COMPUTE, NETWORK, COMPUTE,
                                 COMPUTE, NETWORK])
        out = noise.perturb_batch(padded, padded_kinds)
        np.testing.assert_array_equal(out[padded > 0],
                                      noise.perturb_batch(live, live_kinds))
        assert (out[padded == 0] == 0).all()

    def test_zero_sigma_still_consumes_its_draw(self):
        """Network factors do not depend on whether compute jitter is 0."""
        durations = np.full(8, 1e-3)
        kinds = np.array([COMPUTE, NETWORK] * 4)
        network = kinds == NETWORK
        rigid = NoiseModel(seed=8, compute_jitter=0.0, daemon_interval=0.0)
        jittery = NoiseModel(seed=8, compute_jitter=0.05, daemon_interval=0.0)
        rigid_out = rigid.perturb_batch(durations, kinds)
        np.testing.assert_array_equal(rigid_out[~network], durations[~network])
        np.testing.assert_array_equal(
            rigid_out[network],
            jittery.perturb_batch(durations, kinds)[network])

    def test_daemon_noise_adds_positive_bias(self):
        noise = NoiseModel(seed=11, compute_jitter=0.0,
                           daemon_interval=0.01, daemon_duration=1e-3)
        durations = noise.perturb_batch(np.full(200, 0.1),
                                        np.full(200, COMPUTE))
        # Expected overhead is duration/interval = 10% of the block length.
        assert durations.mean() > 0.1
        assert durations.mean() == pytest.approx(0.11, rel=0.25)

    def test_jitter_is_small_and_centred(self):
        noise = NoiseModel(seed=5, compute_jitter=0.01,
                           daemon_interval=0.0, daemon_duration=0.0)
        values = noise.perturb_batch(np.ones(500), np.full(500, COMPUTE))
        assert values.mean() == pytest.approx(1.0, rel=0.01)
        assert values.std() == pytest.approx(0.01, rel=0.5)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(compute_jitter=-0.1)

    def test_model_is_frozen(self):
        noise = NoiseModel(seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            noise.seed = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            noise.compute_jitter = 0.5


class TestBatchPerturbation:
    """The batch draws equal the engine's cursor and each other."""

    durations = np.array([1e-3, 0.0, 5e-4, 2e-3, 1e-4, 0.0, 3e-3])
    kinds = np.array([COMPUTE, NETWORK, NETWORK, COMPUTE, NETWORK, COMPUTE,
                      NETWORK])

    def assert_rows_match_single_seed(self, noise, seeds):
        batch = noise.perturb_batch_multi(self.durations, self.kinds, seeds)
        assert batch.shape == (len(seeds), len(self.durations))
        for row, seed in zip(batch, seeds):
            single = noise.reseeded(seed).perturb_batch(self.durations,
                                                        self.kinds)
            np.testing.assert_array_equal(row, single)

    def test_jitter_only_rows_match_single_seed(self):
        noise = NoiseModel(seed=0, daemon_interval=0.0)
        self.assert_rows_match_single_seed(noise, [3, 99, 2**31 - 1, 3])

    def test_daemon_rows_match_single_seed(self):
        noise = NoiseModel(seed=0, daemon_interval=0.01,
                           daemon_duration=1e-3)
        self.assert_rows_match_single_seed(noise, [0, 7, 12345])

    @pytest.mark.parametrize("noise", [
        NoiseModel(seed=21, daemon_interval=1e-4, daemon_duration=1e-3),
        NoiseModel(seed=22, daemon_interval=0.0),
        NoiseModel(seed=23, compute_jitter=0.0, network_jitter=0.0,
                   daemon_interval=1e-4),
    ], ids=["daemon", "jitter-only", "daemon-only"])
    def test_batch_equals_engine_cursor_site_by_site(self, noise):
        rng = np.random.default_rng(0)
        durations = rng.exponential(1e-3, 400)
        durations[rng.random(400) < 0.2] = 0.0
        kinds = np.where(rng.random(400) < 0.5, COMPUTE, NETWORK)
        batch = noise.perturb_batch(durations, kinds)
        np.testing.assert_array_equal(batch,
                                      cursor_values(noise, durations, kinds))
        if noise.daemon_interval:
            # The small interval forces daemon hits on the compute sites.
            undisturbed = dataclasses.replace(noise, daemon_interval=0.0)
            extra = batch - undisturbed.perturb_batch(durations, kinds)
            assert (extra[kinds == COMPUTE] > 0).sum() > 50
            assert (extra[kinds == NETWORK] == 0).all()

    def test_disabled_noise_returns_broadcast_base(self):
        batch = NoiseModel.disabled().perturb_batch_multi(
            self.durations, self.kinds, [1, 2, 3])
        assert batch.shape == (3, len(self.durations))
        for row in batch:
            np.testing.assert_array_equal(row, self.durations)

    def test_empty_inputs(self):
        noise = NoiseModel(seed=1)
        empty = noise.perturb_batch_multi(np.empty(0), np.empty(0), [1, 2])
        assert empty.shape == (2, 0)
        none = noise.perturb_batch_multi(self.durations, self.kinds, [])
        assert none.shape == (0, len(self.durations))

    def test_shape_mismatch_rejected(self):
        noise = NoiseModel(seed=1)
        with pytest.raises(ValueError, match="same length"):
            noise.perturb_batch_multi(np.ones(3), np.ones(2), [1])
        with pytest.raises(ValueError, match="same length"):
            noise.perturb_batch(np.ones(3), np.ones(2))


class TestPureFunctionOfSeed:
    """Reusing one model never changes a result (no hidden RNG state)."""

    @pytest.fixture(scope="class")
    def plan(self):
        from repro.machines.presets import get_machine
        from repro.sweep3d.input import standard_deck

        machine = get_machine("pentium3-myrinet")
        deck = standard_deck("validation", px=4, py=4, max_iterations=1)
        return machine, machine.simulation_plan(deck, 4, 4)

    def test_replaying_one_model_twice_is_identical(self, plan):
        machine, plan = plan
        trace = plan.compile_trace()
        noise = machine.noise_model(5)
        first = trace.replay(noise)
        second = trace.replay(noise)
        assert first.elapsed_time == second.elapsed_time
        assert [r.finish_time for r in first.ranks] == \
            [r.finish_time for r in second.ranks]
        assert first.elapsed_time != trace.replay(None).elapsed_time

    def test_engine_runs_with_one_model_are_identical(self, plan):
        machine, plan = plan
        noise = machine.noise_model(5)
        first = plan.run(noise=noise, mode="engine").simulation
        second = plan.run(noise=noise, mode="engine").simulation
        assert first.elapsed_time == second.elapsed_time
        assert first.elapsed_time == \
            plan.compile_trace().replay(noise).elapsed_time

    def test_cursor_restarts_for_every_run(self):
        noise = NoiseModel(seed=7, daemon_interval=0.01, daemon_duration=1e-3)
        a, b = noise.draws(), noise.draws()
        assert [a.compute(0.01) for _ in range(5)] == \
            [b.compute(0.01) for _ in range(5)]


class TestSeedThreading:
    def test_reseeded_copy_keeps_parameters(self):
        noise = NoiseModel(seed=7)
        copy = noise.reseeded(7)
        assert copy == noise
        assert copy.compute_jitter == noise.compute_jitter
        other = noise.reseeded(8)
        assert other.seed == 8
        assert other.daemon_interval == noise.daemon_interval

    def test_derive_seed_stable_and_sensitive(self):
        a = derive_seed("sweep3d-simulate", "pentium3", 100, 100, 50, 10, 3)
        assert a == derive_seed("sweep3d-simulate", "pentium3", 100, 100, 50, 10, 3)
        assert a != derive_seed("sweep3d-simulate", "pentium3", 100, 100, 50, 10, 4)
        assert a != derive_seed("sweep3d-simulate", "opteron", 100, 100, 50, 10, 3)
        assert 0 <= a < 2 ** 31

    def test_derive_seed_usable_as_noise_seed(self):
        seed = derive_seed("x", 1, 2)
        assert NoiseModel(seed=seed).draws().compute(0.01) == \
            NoiseModel(seed=seed).draws().compute(0.01)
