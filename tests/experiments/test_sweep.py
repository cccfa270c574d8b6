"""Tests for the unified batch scenario runner."""

import pytest

from repro.cli import main
from repro.core.evaluation import CompiledModel
from repro.core.workload import SweepWorkload
from repro.errors import ExperimentError
from repro.experiments.backends import PredictionBackend
from repro.experiments.sweep import Scenario, ScenarioSweep, SweepRunner
from repro.sweep3d.input import standard_deck


def scenario_grid(iterations: int = 2) -> list[Scenario]:
    """A small weak-scaling grid over processor arrays."""
    scenarios = []
    for px, py in [(1, 1), (2, 2), (2, 4), (4, 2), (4, 4), (8, 8)]:
        deck = standard_deck("validation", px=px, py=py,
                             max_iterations=iterations)
        workload = SweepWorkload(deck, px, py)
        scenarios.append(Scenario(label=f"{px}x{py}",
                                  variables=workload.model_variables(),
                                  tags={"px": px, "py": py, "pes": px * py}))
    return scenarios


class TestScenarioSweep:
    def test_grid_declaration(self):
        sweep = ScenarioSweep.grid({"mk": [1, 10], "mmi": [1, 3]},
                                   base={"kt": 100.0})
        assert len(sweep) == 4
        assert [s.label for s in sweep] == [
            "mk=1 mmi=1", "mk=1 mmi=3", "mk=10 mmi=1", "mk=10 mmi=3"]
        first = sweep.scenarios[0]
        assert first.variables == {"kt": 100.0, "mk": 1, "mmi": 1}
        assert first.tags == {"mk": 1, "mmi": 1}


class TestSweepRunner:
    def test_worker_fanout_determinism(self, sweep3d_model, synthetic_hardware):
        """Identical results at workers=1 and workers=4, in input order."""
        scenarios = scenario_grid()
        serial_runner = SweepRunner(backend=PredictionBackend(
            model=sweep3d_model, hardware=synthetic_hardware), workers=1)
        parallel_runner = SweepRunner(backend=PredictionBackend(
            model=sweep3d_model, hardware=synthetic_hardware), workers=4)
        serial = serial_runner.run(scenarios)
        parallel = parallel_runner.run(scenarios)
        assert [o.total_time for o in serial] == [o.total_time for o in parallel]
        assert [o.scenario.label for o in parallel] == [s.label for s in scenarios]
        # stats describe the latest run whatever the worker count.
        assert serial_runner.stats.predictions == len(scenarios)
        assert parallel_runner.stats.predictions == len(scenarios)

    def test_matches_single_point_engine(self, sweep3d_model, synthetic_hardware):
        scenarios = scenario_grid()
        outcomes = SweepRunner(backend=PredictionBackend(
            model=sweep3d_model, hardware=synthetic_hardware)).run(scenarios)
        executor = CompiledModel(sweep3d_model).executor(synthetic_hardware)
        for scenario, outcome in zip(scenarios, outcomes):
            assert outcome.total_time == executor.predict(scenario.variables).total_time

    def test_cache_hit_accounting(self, sweep3d_model, synthetic_hardware):
        runner = SweepRunner(backend=PredictionBackend(
            model=sweep3d_model, hardware=synthetic_hardware))
        scenarios = scenario_grid()
        runner.run(scenarios + scenarios)   # the second pass is fully cached
        stats = runner.stats
        assert stats.predictions == 2 * len(scenarios)
        assert stats.subtask_misses > 0
        assert stats.subtask_hits > stats.subtask_misses
        assert 0.0 < stats.subtask_hit_rate < 1.0
        assert "hit" in stats.describe()

    def test_per_scenario_hardware_override(self, sweep3d_model, synthetic_hardware):
        base = scenario_grid(iterations=1)[1]
        faster = Scenario(label="fast", variables=base.variables,
                          hardware=synthetic_hardware.scaled_flop_rate(2.0))
        runner = SweepRunner(backend=PredictionBackend(
            model=sweep3d_model, hardware=synthetic_hardware))
        slow_outcome, fast_outcome = runner.run([base, faster])
        assert fast_outcome.total_time < slow_outcome.total_time

    def test_missing_hardware_rejected(self, sweep3d_model):
        runner = SweepRunner(backend=PredictionBackend(model=sweep3d_model))
        with pytest.raises(ExperimentError):
            runner.run(scenario_grid(iterations=1)[:1])

    def test_invalid_worker_count(self, sweep3d_model):
        with pytest.raises(ExperimentError):
            SweepRunner(backend=PredictionBackend(model=sweep3d_model),
                        workers=0)

    def test_empty_run(self, sweep3d_model, synthetic_hardware):
        runner = SweepRunner(backend=PredictionBackend(
            model=sweep3d_model, hardware=synthetic_hardware))
        assert runner.run([]) == []


class TestSweepCli:
    def test_round_trip(self, capsys):
        assert main(["simulate", "--backend", "predict", "--machine",
                     "opteron", "--deck", "validation", "--arrays", "1x1,2x2",
                     "--iterations", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "opteron-gige" in out
        assert "via the 'predict' backend" in out
        assert "1x1" in out and "2x2" in out
        assert "cache:" in out

    def test_bad_arrays_rejected(self, capsys):
        predict = ["simulate", "--backend", "predict"]
        assert main(predict + ["--arrays", "2by2"]) == 2
        assert main(predict + ["--arrays", ","]) == 2
        assert main(predict + ["--arrays", "0x2"]) == 2
        assert main(predict + ["--arrays", "2x-1"]) == 2

    def test_bad_workers_rejected(self, capsys):
        assert main(["simulate", "--backend", "predict", "--arrays", "1x1",
                     "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().out
