"""Tests for the reusable simulation plan and its compute cost table."""

import oracles
import pytest

from repro.errors import DecompositionError
from repro.machines.presets import get_machine
from repro.simnet.noise import NoiseModel, derive_seed
from repro.sweep3d.driver import PER_SEED_SAMPLES, SimulationPlan
from repro.sweep3d.input import Sweep3DInput, standard_deck
from repro.sweep3d.parallel import SweepCostTable, SweepPlanData
from repro.sweep3d.kernel import SweepKernel


@pytest.fixture(scope="module")
def machine():
    return get_machine("pentium3-myrinet")


class TestSweepCostTable:
    def test_prices_match_the_processor_model(self, machine):
        table = SweepCostTable(machine.processor)
        mix = SweepKernel.block_mix(10, 10, 5, 3, working_set_bytes=1e6)
        assert table.block_seconds(10, 10, 5, 3, 1e6) == machine.processor.execute_time(mix)
        assert table.misses == 1 and table.hits == 0
        table.block_seconds(10, 10, 5, 3, 1e6)
        assert table.hits == 1

    def test_warm_lookups_build_no_mix(self, machine, monkeypatch):
        table = SweepCostTable(machine.processor)
        cold = (table.block_seconds(10, 10, 5, 3, 1e6),
                table.source_seconds(1000, 5e5),
                table.flux_err_seconds(1000, 5e5),
                table.balance_seconds(1000, 5e5))

        def refuse(*args, **kwargs):
            raise AssertionError("a warm lookup built an operation mix")

        for name in ("block_mix", "source_mix", "flux_err_mix",
                     "balance_mix"):
            monkeypatch.setattr(SweepKernel, name, refuse)
        warm = (table.block_seconds(10, 10, 5, 3, 1e6),
                table.source_seconds(1000, 5e5),
                table.flux_err_seconds(1000, 5e5),
                table.balance_seconds(1000, 5e5))
        assert warm == cold
        assert (table.hits, table.misses) == (4, 4)

    def test_distinct_shapes_priced_separately(self, machine):
        table = SweepCostTable(machine.processor)
        a = table.block_seconds(10, 10, 5, 3, 1e6)
        b = table.block_seconds(10, 10, 4, 3, 1e6)
        assert a != b
        assert table.misses == 2

    def test_all_four_charge_kinds(self, machine):
        table = SweepCostTable(machine.processor)
        proc = machine.processor
        cells, ws = 1000, 5e5
        assert table.source_seconds(cells, ws) == proc.execute_time(
            SweepKernel.source_mix(cells, ws))
        assert table.flux_err_seconds(cells, ws) == proc.execute_time(
            SweepKernel.flux_err_mix(cells, ws))
        assert table.balance_seconds(cells, ws) == proc.execute_time(
            SweepKernel.balance_mix(cells, ws))


class TestSweepPlanData:
    def test_matches_per_rank_construction(self):
        deck = standard_deck("validation", px=2, py=2, max_iterations=2)
        shared = SweepPlanData.for_deck(deck)
        kernel = SweepKernel(deck)
        quad = deck.quadrature()
        assert shared.quadrature.total_angles == quad.total_angles
        assert len(shared.angle_blocks) == len(quad.angle_blocks(deck.mmi))
        from repro.sweep3d.geometry import octant_order
        for octant in octant_order():
            expected = kernel.k_blocks_for_octant(octant)
            got = shared.k_blocks(octant)
            assert len(got) == len(expected)
            for mine, theirs in zip(got, expected):
                assert list(mine) == list(theirs)


class TestSimulationPlan:
    def test_bit_identical_to_reference_path(self, machine):
        deck = standard_deck("validation", px=2, py=3, max_iterations=2)
        reference = oracles.per_point_simulate(machine, deck, 2, 3,
                                               machine.noise_model(11))
        plan = machine.simulation_plan(deck, 2, 3)
        run = plan.run(noise=machine.noise_model(11))
        assert run.elapsed_time == reference.elapsed_time
        assert ([r.finish_time for r in run.simulation.ranks]
                == [r.finish_time for r in reference.simulation.ranks])
        assert run.total_messages == reference.total_messages

    def test_plan_reuse_across_seeds(self, machine):
        deck = standard_deck("validation", px=2, py=2, max_iterations=2)
        plan = machine.simulation_plan(deck, 2, 2)
        a = plan.run(noise=machine.noise_model(1))
        b = plan.run(noise=machine.noise_model(2))
        again = plan.run(noise=machine.noise_model(1))
        assert a.elapsed_time != b.elapsed_time
        assert a.elapsed_time == again.elapsed_time
        assert plan.runs == 3

    def test_noise_free_runs_are_deterministic(self, machine):
        deck = standard_deck("validation", px=2, py=2, max_iterations=1)
        plan = machine.simulation_plan(deck, 2, 2)
        assert plan.run().elapsed_time == plan.run(noise=NoiseModel.disabled()).elapsed_time

    def test_shared_cost_table_between_plans(self, machine):
        deck_a = standard_deck("validation", px=1, py=2, max_iterations=1)
        deck_b = standard_deck("validation", px=2, py=2, max_iterations=1)
        table = SweepCostTable(machine.processor)
        plan_a = machine.simulation_plan(deck_a, 1, 2, cost_table=table)
        plan_b = machine.simulation_plan(deck_b, 2, 2, cost_table=table)
        plan_a.run()
        misses_after_first = table.misses
        plan_b.run()
        # Weak scaling: every rank sub-domain has the same shape, so the
        # second plan prices nothing new.
        assert table.misses == misses_after_first
        assert table.hits > 0

    def test_foreign_cost_table_rejected(self, machine):
        other = get_machine("opteron-gige")
        deck = standard_deck("validation", px=1, py=1, max_iterations=1)
        with pytest.raises(DecompositionError, match="different processor"):
            SimulationPlan(deck, 1, 1, topology=machine.topology,
                           processor=machine.processor,
                           cost_table=SweepCostTable(other.processor))

    def test_charge_compute_requires_processor(self, machine):
        deck = standard_deck("validation", px=1, py=1, max_iterations=1)
        with pytest.raises(DecompositionError):
            SimulationPlan(deck, 1, 1, topology=machine.topology, processor=None)


class TestMultiSampleRuns:
    @pytest.fixture(scope="class")
    def plan(self, machine):
        deck = standard_deck("validation", px=2, py=2, max_iterations=1)
        return machine.simulation_plan(deck, 2, 2)

    def test_samples_match_sequential_runs(self, machine, plan):
        sample_set = plan.run(noise=machine.noise_model(11), mode="auto",
                              samples=4)
        assert sample_set.n_samples == len(sample_set) == 4
        assert sample_set.seeds == [machine.noise_seed + 11 + s
                                    for s in range(4)]
        for index, seed in enumerate(sample_set.seeds):
            single = plan.run(noise=machine.noise_model(0).reseeded(seed),
                              mode="replay")
            assert sample_set.elapsed_times[index] == single.elapsed_time
            materialised = sample_set.sample(index)
            assert materialised.elapsed_time == single.elapsed_time
            assert materialised.total_messages == single.total_messages

    def test_sample_zero_matches_single_run_path(self, machine, plan):
        # The uncertainty block is additive: the headline number of a
        # sampled run is the plain run at the same seed offset.
        single = machine.simulate(plan.deck, 2, 2, seed_offset=5,
                                  execution="auto")
        sampled = machine.simulate(plan.deck, 2, 2, seed_offset=5,
                                   execution="auto", samples=3)
        assert sampled.sample(0).elapsed_time == single.elapsed_time

    def test_seed_parameter_offsets_the_sample_seeds(self, machine, plan):
        seed = derive_seed("sample-test", 2, 2)
        sample_set = plan.run(noise=machine.noise_model(0).reseeded(seed),
                              samples=2, mode="auto")
        assert sample_set.seeds == [seed, seed + 1]

    def test_summary_and_stats(self, machine, plan):
        sample_set = plan.run(noise=machine.noise_model(3), mode="auto",
                              samples=8)
        summary = sample_set.summary()
        assert summary["samples"] == 8.0
        assert sample_set.elapsed_std > 0.0
        assert sample_set.elapsed_ci95 == pytest.approx(
            1.96 * sample_set.elapsed_std / 8 ** 0.5)
        assert summary["elapsed_min"] <= sample_set.elapsed_mean \
            <= summary["elapsed_max"]

    def test_run_counters_count_samples(self, machine):
        deck = standard_deck("validation", px=1, py=2, max_iterations=1)
        plan = machine.simulation_plan(deck, 1, 2)
        plan.run(noise=machine.noise_model(0), mode="auto", samples=6)
        assert plan.runs == 6
        assert plan.replays == 6

    def test_engine_mode_rejected(self, machine, plan):
        with pytest.raises(ValueError, match="batched trace"):
            plan.run(noise=machine.noise_model(0), mode="engine", samples=2)

    def test_nonpositive_samples_rejected(self, machine, plan):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            plan.run(noise=machine.noise_model(0), mode="auto", samples=0)


class TestPerSeedRouting:
    """``run(samples=S)`` replays each seed on its own up to
    ``PER_SEED_SAMPLES`` and in one batch above; either way the sample set
    is ``replay_batch``'s result bit for bit."""

    @staticmethod
    def shape(name):
        if name == "validation-daemon":
            machine = get_machine("pentium3-myrinet")
            deck = standard_deck("validation", px=2, py=2, max_iterations=2)
            return machine.simulation_plan(deck, 2, 2), machine.noise_model(4)
        if name == "uneven-jitter":
            machine = get_machine("opteron-gige")
            deck = Sweep3DInput(it=12, jt=9, kt=7, mk=3, mmi=2, sn=4,
                                max_iterations=2)
            return (machine.simulation_plan(deck, 1, 3),
                    NoiseModel(seed=9, daemon_interval=0.0))
        # 200x200x100 cells per rank: every face message is rendez-vous.
        machine = get_machine("pentium3-myrinet")
        deck = Sweep3DInput(it=400, jt=400, kt=100, mk=10, mmi=3, sn=6,
                            max_iterations=1)
        return machine.simulation_plan(deck, 2, 2), machine.noise_model(6)

    @pytest.mark.parametrize("samples", range(1, PER_SEED_SAMPLES + 2))
    @pytest.mark.parametrize("name", ["validation-daemon", "uneven-jitter",
                                      "rendezvous-daemon"])
    def test_equals_replay_batch(self, name, samples):
        plan, noise = self.shape(name)
        sample_set = plan.run(noise=noise, mode="auto", samples=samples)
        trace = plan.compile_trace()
        assert (trace._schedule is None) == (samples <= PER_SEED_SAMPLES)
        if name.startswith("rendezvous"):
            assert not trace._send_eager_arr.any()
        batch = trace.replay_batch(sample_set.seeds, noise)
        for field in ("elapsed", "finish", "compute", "comm"):
            got, want = getattr(sample_set.batch, field), getattr(batch, field)
            assert got.shape == want.shape
            assert got.tolist() == want.tolist(), field
        for index in range(samples):
            assert repr(sample_set.sample(index).simulation) \
                == repr(batch.sample(index))


def observables(run):
    """Everything a simulated run reports, for exact comparison."""
    simulation = run.simulation
    return {
        "elapsed": simulation.elapsed_time,
        "times": [(r.finish_time, r.compute_time, r.comm_time)
                  for r in simulation.ranks],
        "counts": [(r.messages_sent, r.bytes_sent, r.messages_received,
                    r.bytes_received) for r in simulation.ranks],
        "traffic": simulation.traffic,
        "summaries": [(s["error_history"], s["leakage_history"],
                       s["blocks_swept"]) for s in run.rank_summaries],
    }


def oracle_deck(px, py, iterations):
    # Uneven blocking (k blocks of 15, 15, 15, 5 planes; angle blocks of 4
    # and 2 angles), so every component of the cost table's block key
    # tells two shapes apart.
    return standard_deck("validation", px=px, py=py,
                         max_iterations=iterations, mk=15, mmi=4)


class TestPerPointOracle:
    """Every tier of ``Machine.simulate`` equals the per-point oracle."""

    MODES = ("engine", "replay", "auto")

    def check_all_modes(self, machine, deck, px, py, offset):
        noise = (NoiseModel.disabled() if offset is None
                 else machine.noise_model(offset))
        want = observables(oracles.per_point_simulate(machine, deck, px, py, noise))
        for mode in self.MODES:
            got = machine.simulate(deck, px, py, seed_offset=offset or 0,
                                   with_noise=offset is not None,
                                   execution=mode)
            assert observables(got) == want, mode

    @pytest.mark.parametrize("offset", [None, 7], ids=["quiet", "noisy"])
    @pytest.mark.parametrize("px,py", [(1, 1), (2, 3), (4, 4)])
    @pytest.mark.parametrize("preset", ["pentium3-myrinet", "opteron-gige",
                                        "altix", "steady"])
    def test_one_iteration(self, preset, px, py, offset):
        machine = get_machine(preset)
        self.check_all_modes(machine, oracle_deck(px, py, 1), px, py, offset)

    @pytest.mark.parametrize("offset", [None, 7], ids=["quiet", "noisy"])
    def test_periodic_capture_and_steady_tier(self, offset):
        machine = get_machine("steady")
        deck = oracle_deck(2, 2, 12)
        self.check_all_modes(machine, deck, 2, 2, offset)
        plan = machine._plan_cache[(deck, 2, 2, False)]
        assert plan.last_capture.mode == "periodic"
        assert plan.last_execution == ("steady" if offset is None else "replay")
