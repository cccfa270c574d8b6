"""Tests for the unified batch scenario runner."""

import oracles
import pytest

from repro.cli import main
from repro.core.evaluation.compiler import CompiledModel
from repro.core.workload import SweepWorkload
from repro.errors import ExperimentError
from repro.experiments.backends import PredictionBackend
from repro.experiments.sweep import Scenario, SweepRunner
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


class TestSweepRunner:
    def test_worker_fanout_determinism(self, sweep3d_model, synthetic_hardware):
        """A grid fanned out over workers equals one runner's, point by point.

        Shard and fleet workers each evaluate a slice of a grid on their
        own runner; neither the compiled model's subtask cache nor the
        order of evaluation may change a point's result.
        """
        scenarios = scenario_grid()
        serial_runner = SweepRunner(backend=PredictionBackend(
            model=sweep3d_model, hardware=synthetic_hardware))
        serial = serial_runner.run(scenarios)
        fanned = {}
        for worker in range(4):
            share = scenarios[worker::4][::-1]
            worker_runner = SweepRunner(backend=PredictionBackend(
                model=sweep3d_model, hardware=synthetic_hardware))
            outcomes = worker_runner.run(share)
            assert [o.scenario.label for o in outcomes] == [s.label for s in share]
            # stats describe the worker's own run.
            assert worker_runner.stats.predictions == len(share)
            fanned.update((o.scenario.label, o.total_time) for o in outcomes)
        assert [o.total_time for o in serial] \
            == [fanned[s.label] for s in scenarios]
        assert serial_runner.stats.predictions == len(scenarios)

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
        assert "hit" in stats.describe()

    def test_per_scenario_hardware_override(self, sweep3d_model, synthetic_hardware):
        base = scenario_grid(iterations=1)[1]
        faster = Scenario(label="fast", variables=base.variables,
                          hardware=oracles.scaled_flop_rate(synthetic_hardware, 2.0))
        runner = SweepRunner(backend=PredictionBackend(
            model=sweep3d_model, hardware=synthetic_hardware))
        slow_outcome, fast_outcome = runner.run([base, faster])
        assert fast_outcome.total_time < slow_outcome.total_time

    def test_missing_hardware_rejected(self, sweep3d_model):
        runner = SweepRunner(backend=PredictionBackend(model=sweep3d_model))
        with pytest.raises(ExperimentError):
            runner.run(scenario_grid(iterations=1)[:1])

    def test_empty_run(self, sweep3d_model, synthetic_hardware):
        runner = SweepRunner(backend=PredictionBackend(
            model=sweep3d_model, hardware=synthetic_hardware))
        assert runner.run([]) == []


class TestSweepCli:
    def test_round_trip(self, capsys):
        assert main(["simulate", "--backend", "predict", "--machine",
                     "opteron", "--deck", "validation", "--arrays", "1x1,2x2",
                     "--iterations", "2"]) == 0
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
        # A sweep runs in one process: any --workers is an unknown option.
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--backend", "predict", "--arrays", "1x1",
                  "--workers", "0"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err
