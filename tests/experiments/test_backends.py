"""Tests for the scenario-evaluation backends (predict vs simulate)."""

import oracles
import pytest

from repro.diskio import fingerprint_digest
from repro.errors import ExperimentError
from repro.experiments.backends import (
    PredictionBackend,
    SimulationBackend,
    machine_fingerprint,
    model_fingerprint,
    simulation_grid,
)
from repro.experiments.sweep import Scenario, SweepRunner
from repro.machines.presets import get_machine
from repro.simnet.noise import derive_seed
from repro.sweep3d.input import standard_deck


@pytest.fixture(scope="module")
def p3_machine():
    return get_machine("pentium3-myrinet")


def sim_backend(machine, **kwargs):
    kwargs.setdefault("max_iterations", 2)
    return SimulationBackend(machine, **kwargs)


def trace_replays(executor) -> int:
    """Evaluations the executor served by trace replay, not the engine."""
    return sum(plan.replays for plan in executor._plans.values())


class TestSimulationBackend:
    def test_bit_identical_to_per_point_engine_runs(self, p3_machine):
        """The acceptance property: plan reuse never changes a result."""
        backend = sim_backend(p3_machine)
        grid = simulation_grid([(1, 1), (2, 2), (2, 3), (3, 3)])
        outcomes = SweepRunner(backend=backend).run(grid)
        for outcome in outcomes:
            result = outcome.result
            deck = standard_deck("validation", px=result.px, py=result.py,
                                 max_iterations=2)
            reference = oracles.per_point_simulate(
                p3_machine, deck, result.px, result.py,
                p3_machine.noise_model(result.seed_offset))
            assert result.elapsed_time == reference.elapsed_time
            assert result.rank_finish_times == tuple(
                r.finish_time for r in reference.simulation.ranks)
            assert result.total_messages == reference.total_messages

    def test_worker_fanout_determinism(self, p3_machine):
        """Same scenarios => bit-identical results on one runner or fanned
        out over three workers, each with its own backend, plans and cost
        table (as shard and fleet workers have)."""
        grid = list(simulation_grid([(px, py) for px in (1, 2, 3)
                                     for py in (1, 2)]))
        serial = SweepRunner(backend=sim_backend(p3_machine)).run(grid)
        fanned = {}
        for worker in range(3):
            share = grid[worker::3]
            outcomes = SweepRunner(backend=sim_backend(p3_machine)).run(share)
            assert [o.scenario.label for o in outcomes] == [s.label for s in share]
            fanned.update((o.scenario.label, o) for o in outcomes)
        assert [o.total_time for o in serial] \
            == [fanned[s.label].total_time for s in grid]
        assert ([o.result.rank_finish_times for o in serial]
                == [fanned[s.label].result.rank_finish_times for s in grid])

    def test_scenario_seed_is_identity_derived(self, p3_machine):
        """Seeds come from scenario identity, not evaluation order."""
        backend = sim_backend(p3_machine)
        grid = list(simulation_grid([(2, 2), (1, 1)]))
        forward = SweepRunner(backend=sim_backend(p3_machine)).run(grid)
        backward = SweepRunner(backend=sim_backend(p3_machine)).run(grid[::-1])
        assert forward[0].total_time == backward[1].total_time
        assert forward[1].total_time == backward[0].total_time
        deck, px, py = backend.deck_for(grid[0])
        assert backend.seed_offset_for(grid[0], deck, px, py) == derive_seed(
            "sweep3d-simulate", p3_machine.name, deck.it, deck.jt, deck.kt,
            deck.mk, deck.mmi, deck.sn, deck.max_iterations, px, py)

    def test_explicit_seed_override(self, p3_machine):
        base = {"px": 2, "py": 2}
        pinned_a = Scenario(label="a", variables={**base, "seed": 5})
        pinned_b = Scenario(label="b", variables={**base, "seed": 5})
        other = Scenario(label="c", variables={**base, "seed": 6})
        outcomes = SweepRunner(backend=sim_backend(p3_machine)).run(
            [pinned_a, pinned_b, other])
        assert outcomes[0].total_time == outcomes[1].total_time
        assert outcomes[2].total_time != outcomes[0].total_time

    def test_plan_and_cost_table_reuse_accounting(self, p3_machine):
        runner = SweepRunner(backend=sim_backend(p3_machine))
        grid = simulation_grid([(2, 2)])
        runner.run(list(grid) + list(grid))        # second point reuses the plan
        stats = runner.stats
        assert stats.predictions == 2
        assert stats.flow_misses == 1              # one plan built
        assert stats.flow_hits == 1                # ... reused once
        assert stats.subtask_hits > stats.subtask_misses > 0   # cost table

    def test_execution_modes_are_bit_identical(self, p3_machine):
        """auto (trace replay) == forced engine == forced replay."""
        grid = simulation_grid([(2, 2), (2, 3)])
        by_mode = {}
        for mode in ("auto", "engine", "replay"):
            outcomes = SweepRunner(
                backend=sim_backend(p3_machine, execution=mode)).run(grid)
            by_mode[mode] = [(o.result.elapsed_time,
                              o.result.rank_finish_times,
                              o.result.total_messages,
                              o.result.total_bytes,
                              o.result.compute_fraction) for o in outcomes]
        assert by_mode["auto"] == by_mode["engine"] == by_mode["replay"]

    def test_auto_mode_serves_modelled_scenarios_from_replay(self, p3_machine):
        backend = sim_backend(p3_machine)          # execution defaults to auto
        executor = backend.compile()
        grid = list(simulation_grid([(2, 2)]))
        for scenario in grid + grid:
            executor.evaluate(scenario)
        assert trace_replays(executor) == 2
        forced = sim_backend(p3_machine, execution="engine").compile()
        forced.evaluate(grid[0])
        assert trace_replays(forced) == 0

    def test_unknown_execution_mode_rejected(self, p3_machine):
        with pytest.raises(ExperimentError, match="execution mode"):
            sim_backend(p3_machine, execution="warp")

    def test_missing_px_py_rejected(self, p3_machine):
        runner = SweepRunner(backend=sim_backend(p3_machine))
        with pytest.raises(ExperimentError, match="px"):
            runner.run([Scenario(label="bad", variables={"mk": 10})])

    def test_deck_overrides(self, p3_machine):
        backend = sim_backend(p3_machine)
        scenario = Scenario(label="mk1", variables={"px": 2, "py": 2, "mk": 1,
                                                    "max_iterations": 1})
        deck, px, py = backend.deck_for(scenario)
        assert (deck.mk, deck.max_iterations, px, py) == (1, 1, 2, 2)

    def test_scenario_deck_variable_selects_the_deck(self, p3_machine):
        """simulation_grid(deck=...) must change what is simulated, not just tags."""
        backend = sim_backend(p3_machine)     # default deck: validation
        grid = simulation_grid([(2, 2)], deck="mini", max_iterations=1)
        deck, _, _ = backend.deck_for(grid.scenarios[0])
        reference = standard_deck("mini", px=2, py=2, max_iterations=1)
        assert (deck.it, deck.jt, deck.kt) == (reference.it, reference.jt,
                                               reference.kt)
        # ... and the fingerprint (hence the disk-cache key) moves with it.
        default_grid = simulation_grid([(2, 2)], max_iterations=1)
        assert (backend.fingerprint(grid.scenarios[0])
                != backend.fingerprint(default_grid.scenarios[0]))

    def test_fingerprint_covers_machine_and_scenario(self, p3_machine):
        backend = sim_backend(p3_machine)
        scenario = simulation_grid([(2, 2)]).scenarios[0]
        token = backend.fingerprint(scenario)
        assert token == backend.fingerprint(scenario)
        other_machine = get_machine("opteron-gige")
        assert machine_fingerprint(other_machine) != machine_fingerprint(p3_machine)
        assert (sim_backend(other_machine).fingerprint(scenario) != token)
        different = Scenario(label="2x2", variables={"px": 2, "py": 2, "seed": 1})
        assert backend.fingerprint(different) != token

    def test_persistent_cache_keys_are_pinned(self, p3_machine):
        """Users' warm sweep and trace caches stay warm across releases.

        A key change silently turns every existing cache entry cold, so a
        deliberate change updates these digests and says so.
        """
        scenario = simulation_grid([(2, 2)]).scenarios[0]
        noisy = SimulationBackend(p3_machine, max_iterations=2)
        quiet = SimulationBackend(p3_machine, max_iterations=2, with_noise=False)
        assert fingerprint_digest(noisy.fingerprint(scenario)) == (
            "801cce0302a908907f8d47c3510f42119fda9fdefbc8e95012a7545b9f063394")
        assert fingerprint_digest(quiet.fingerprint(scenario)) == (
            "1d802ea1a2749d2646ec6c8d244570170a4a39a2df64edf5151098102cd45016")
        deck = standard_deck("validation", px=2, py=2, max_iterations=2)
        plan = p3_machine.simulation_plan(deck, 2, 2)
        assert fingerprint_digest(plan.trace_fingerprint()) == (
            "16f72a7c01e4d37f00341fc6a58de0f99511f500738bdd92579a34a2e55e52c4")


class TestSampledSimulationBackend:
    def test_sampled_measurement_carries_statistics(self, p3_machine):
        backend = sim_backend(p3_machine, max_iterations=1, samples=4)
        outcome = SweepRunner(backend=backend).run(
            simulation_grid([(2, 2)], max_iterations=1))[0]
        result = outcome.result
        assert result.n_samples == 4
        assert len(result.elapsed_samples) == 4
        assert result.elapsed_mean == pytest.approx(
            sum(result.elapsed_samples) / 4)
        assert result.elapsed_std > 0.0
        assert result.elapsed_ci95 > 0.0

    def test_sample_zero_is_the_unsampled_measurement(self, p3_machine):
        """samples=S only adds columns — the headline value never moves."""
        grid = simulation_grid([(2, 2), (1, 2)], max_iterations=1)
        plain = SweepRunner(backend=sim_backend(
            p3_machine, max_iterations=1)).run(grid)
        sampled = SweepRunner(backend=sim_backend(
            p3_machine, max_iterations=1, samples=3)).run(grid)
        for a, b in zip(plain, sampled):
            assert a.result.elapsed_time == b.result.elapsed_time
            assert a.result.elapsed_time == b.result.elapsed_samples[0]
            assert a.result.rank_finish_times == b.result.rank_finish_times

    def test_unsampled_measurement_defaults(self, p3_machine):
        outcome = SweepRunner(backend=sim_backend(
            p3_machine, max_iterations=1)).run(
            simulation_grid([(1, 1)], max_iterations=1))[0]
        result = outcome.result
        assert result.n_samples == 0
        assert result.elapsed_samples == ()
        assert result.elapsed_mean is None
        assert result.elapsed_std is None
        assert result.elapsed_ci95 is None

    def test_fingerprint_stable_for_unsampled_backends(self, p3_machine):
        """samples=0 must not perturb existing disk-cache keys."""
        scenario = simulation_grid([(2, 2)], max_iterations=1).scenarios[0]
        plain = sim_backend(p3_machine, max_iterations=1)
        explicit = sim_backend(p3_machine, max_iterations=1, samples=0)
        sampled = sim_backend(p3_machine, max_iterations=1, samples=4)
        assert plain.fingerprint(scenario) == explicit.fingerprint(scenario)
        assert sampled.fingerprint(scenario) != plain.fingerprint(scenario)
        assert (sim_backend(p3_machine, max_iterations=1, samples=8)
                .fingerprint(scenario) != sampled.fingerprint(scenario))

    def test_invalid_sample_configurations_rejected(self, p3_machine):
        with pytest.raises(ExperimentError, match="samples"):
            sim_backend(p3_machine, samples=-1)
        with pytest.raises(ExperimentError, match="batched trace replay"):
            sim_backend(p3_machine, execution="engine", samples=2)
        with pytest.raises(ExperimentError, match="numeric"):
            sim_backend(p3_machine, numeric=True, samples=2)


class TestPredictionBackendParity:
    def test_fingerprint_tracks_model_content(self, sweep3d_model):
        """An equation edit (same object/proc names) must change the key."""
        from repro.core.workload import load_sweep3d_model

        token = model_fingerprint(sweep3d_model)
        assert token == model_fingerprint(load_sweep3d_model())
        edited = load_sweep3d_model()
        some_object = next(iter(edited.objects.values()))
        first_var = next(iter(some_object.variables), None)
        if first_var is not None:
            del some_object.variables[first_var]
        else:                        # fall back: drop a cflow instead
            some_object.cflows.pop(next(iter(some_object.cflows)))
        assert model_fingerprint(edited) != token

    def test_fingerprint_tracks_hardware(self, sweep3d_model, synthetic_hardware):
        backend = PredictionBackend(model=sweep3d_model,
                                    hardware=synthetic_hardware)
        deck = standard_deck("validation", px=2, py=2, max_iterations=2)
        from repro.core.workload import SweepWorkload
        scenario = Scenario(label="2x2",
                            variables=SweepWorkload(deck, 2, 2).model_variables())
        token = backend.fingerprint(scenario)
        faster = PredictionBackend(model=sweep3d_model,
                                   hardware=oracles.scaled_flop_rate(synthetic_hardware, 2.0))
        assert faster.fingerprint(scenario) != token

    def test_fingerprint_keeps_entry_procedure(self, sweep3d_model,
                                               synthetic_hardware):
        """Keys keep the "init" component, so existing cache entries hit."""
        backend = PredictionBackend(model=sweep3d_model,
                                    hardware=synthetic_hardware)
        scenario = Scenario(label="1x1", variables={"px": 1, "py": 1})
        assert backend.fingerprint(scenario)[:3] == (
            "predict", model_fingerprint(sweep3d_model), "init")


class TestSimulationGrid:
    def test_grid_declaration(self):
        grid = simulation_grid([(1, 1), (2, 4)], max_iterations=3, seed=9)
        assert [s.label for s in grid] == ["1x1", "2x4"]
        assert grid.scenarios[1].variables == {
            "px": 2, "py": 4, "max_iterations": 3, "seed": 9}
        assert grid.scenarios[1].tags["pes"] == 8
