"""Tests for the parallel template strategies."""

import oracles
import pytest

from repro.core.templates import (
    AsyncStrategy,
    GlobalMaxStrategy,
    GlobalSumStrategy,
    PipelineStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.core.templates.base import StageSpec, StageStep
from repro.errors import EvaluationError


def pipeline_stage(ew_bytes=12000.0, ns_bytes=12000.0, work=1e-3) -> StageSpec:
    return StageSpec(steps=[
        StageStep("mpirecv", {"direction": "ew", "bytes": ew_bytes}),
        StageStep("mpirecv", {"direction": "ns", "bytes": ns_bytes}),
        StageStep("cpu", {"time": work}),
        StageStep("mpisend", {"direction": "ew", "bytes": ew_bytes}),
        StageStep("mpisend", {"direction": "ns", "bytes": ns_bytes}),
    ])


def pipeline_variables(npe_i=2, npe_j=2, kb=5, ab=2, work=1e-3) -> dict:
    return {"npe_i": npe_i, "npe_j": npe_j, "n_k_blocks": kb,
            "n_angle_blocks": ab, "ew_bytes": 12000.0, "ns_bytes": 12000.0,
            "work": work}


class TestRegistry:
    def test_builtin_strategies_registered(self):
        assert {"pipeline", "globalsum", "globalmax", "async"} <= set(available_strategies())

    def test_lookup(self):
        assert isinstance(get_strategy("pipeline"), PipelineStrategy)
        with pytest.raises(KeyError):
            get_strategy("ring")

    def test_custom_registration(self):
        class Custom:
            name = "custom-test"

            def evaluate(self, variables, stage, hardware):
                raise NotImplementedError

        register_strategy(Custom())
        assert "custom-test" in available_strategies()


class TestStageSpec:
    def test_cpu_seconds(self):
        spec = pipeline_stage(work=2e-3)
        assert spec.cpu_seconds == pytest.approx(2e-3)

    def test_step_parameter_validation(self):
        step = StageStep("cpu", {"time": "lots"})
        with pytest.raises(EvaluationError):
            step.number("time")
        with pytest.raises(EvaluationError):
            StageStep("cpu", {}).number("time")

    def test_by_device(self):
        spec = pipeline_stage()
        assert len(spec.recv_steps()) == 2
        assert len(spec.send_steps()) == 2
        assert len(spec.by_device("cpu")) == 1


class TestAsyncStrategy:
    def test_returns_serial_work(self, synthetic_hardware):
        result = AsyncStrategy().evaluate({"work": 0.25}, StageSpec(), synthetic_hardware)
        assert result.time == pytest.approx(0.25)
        assert result.communication_time == 0.0

    def test_stage_cpu_step_takes_precedence(self, synthetic_hardware):
        stage = StageSpec(steps=[StageStep("cpu", {"time": 0.5})])
        result = AsyncStrategy().evaluate({"work": 0.1}, stage, synthetic_hardware)
        assert result.time == pytest.approx(0.5)


class TestReductionStrategies:
    def test_single_rank_has_no_communication(self, synthetic_hardware):
        result = GlobalSumStrategy().evaluate({"npe": 1, "work": 1e-3, "bytes": 8},
                                              StageSpec(), synthetic_hardware)
        assert result.communication_time == 0.0
        assert result.time == pytest.approx(1e-3)

    def test_cost_grows_with_rank_count(self, synthetic_hardware):
        small = GlobalMaxStrategy().evaluate({"npe": 4, "work": 0.0, "bytes": 8},
                                             StageSpec(), synthetic_hardware)
        large = GlobalMaxStrategy().evaluate({"npe": 1024, "work": 0.0, "bytes": 8},
                                             StageSpec(), synthetic_hardware)
        assert large.time > small.time
        # log2(1024)/log2(4) = 5x more tree rounds.
        assert large.time == pytest.approx(5 * small.time, rel=1e-6)

    def test_sum_and_max_agree(self, synthetic_hardware):
        variables = {"npe": 64, "work": 1e-4, "bytes": 8}
        total = GlobalSumStrategy().evaluate(variables, StageSpec(), synthetic_hardware)
        largest = GlobalMaxStrategy().evaluate(variables, StageSpec(), synthetic_hardware)
        assert total.time == pytest.approx(largest.time)


class TestPipelineStrategy:
    def test_single_processor_is_pure_compute(self, synthetic_hardware):
        variables = pipeline_variables(npe_i=1, npe_j=1, work=1e-3)
        result = PipelineStrategy().evaluate(variables, pipeline_stage(work=1e-3),
                                             synthetic_hardware)
        blocks = 8 * 5 * 2
        assert result.time == pytest.approx(blocks * 1e-3)
        assert result.communication_time == pytest.approx(0.0, abs=1e-12)

    def test_time_grows_with_array_size(self, synthetic_hardware):
        strategy = PipelineStrategy()
        times = []
        for npe in [(1, 1), (2, 2), (4, 4), (8, 8)]:
            variables = pipeline_variables(npe_i=npe[0], npe_j=npe[1])
            times.append(strategy.evaluate(variables, pipeline_stage(),
                                           synthetic_hardware).time)
        assert times == sorted(times)
        assert times[-1] > times[0]

    def test_pipeline_fill_scales_with_perimeter(self, synthetic_hardware):
        """Doubling Px+Py roughly doubles the extra (non-compute) time."""
        strategy = PipelineStrategy()
        base = pipeline_variables(npe_i=1, npe_j=1)
        serial = strategy.evaluate(base, pipeline_stage(), synthetic_hardware).time
        small = strategy.evaluate(pipeline_variables(npe_i=4, npe_j=4),
                                  pipeline_stage(), synthetic_hardware).time
        large = strategy.evaluate(pipeline_variables(npe_i=8, npe_j=8),
                                  pipeline_stage(), synthetic_hardware).time
        assert (large - serial) > 1.5 * (small - serial)

    def test_matches_both_oracles(self, synthetic_hardware):
        """The recurrence equals the numpy and the per-rank oracle bit for bit."""
        strategy = PipelineStrategy()
        # 80x100 is the 8000-rank speculative size of Section 6.
        for npe_i, npe_j, kb, ab in [(1, 1, 2, 1), (2, 3, 2, 2), (4, 2, 3, 1), (3, 5, 2, 2),
                                     (80, 100, 1, 1)]:
            variables = pipeline_variables(npe_i=npe_i, npe_j=npe_j, kb=kb, ab=ab,
                                           work=3e-4)
            stage = pipeline_stage(work=3e-4)
            result = strategy.evaluate(variables, stage, synthetic_hardware)
            for oracle in (oracles.numpy_wavefront, oracles.dict_wavefront):
                # TemplateResult equality: time, compute and communication
                # times and details, each compared with ==.
                assert result == oracle(variables, stage, synthetic_hardware)

    def test_rectangular_arrays_differ_from_square(self, synthetic_hardware):
        strategy = PipelineStrategy()
        square = strategy.evaluate(pipeline_variables(npe_i=4, npe_j=4),
                                   pipeline_stage(), synthetic_hardware).time
        row = strategy.evaluate(pipeline_variables(npe_i=1, npe_j=16),
                                pipeline_stage(), synthetic_hardware).time
        # A 1x16 pipeline has a longer fill (15 hops vs 6) for the same work.
        assert row > square

    def test_work_dominates_for_large_blocks(self, synthetic_hardware):
        """With heavy per-block work, time = blocks x work plus a bounded fill.

        On a 2x2 array the far corner waits at most 2 hops each time the
        sweep origin changes corner (4 octant pairs), so the overhead is
        bounded by ~8 extra block times.
        """
        strategy = PipelineStrategy()
        variables = pipeline_variables(npe_i=2, npe_j=2, work=1.0)
        result = strategy.evaluate(variables, pipeline_stage(work=1.0), synthetic_hardware)
        blocks = 8 * 5 * 2
        assert result.time >= blocks * 1.0
        assert result.time <= (blocks + 8) * 1.0 + 1.0

    def test_missing_messages_rejected(self, synthetic_hardware):
        with pytest.raises(EvaluationError):
            PipelineStrategy().evaluate(pipeline_variables(),
                                        StageSpec(steps=[StageStep("cpu", {"time": 1.0})]),
                                        synthetic_hardware)

    def test_missing_variables_rejected(self, synthetic_hardware):
        with pytest.raises(EvaluationError):
            PipelineStrategy().evaluate({"npe_i": 2}, pipeline_stage(), synthetic_hardware)

    def test_details_reported(self, synthetic_hardware):
        result = PipelineStrategy().evaluate(pipeline_variables(), pipeline_stage(),
                                             synthetic_hardware)
        assert result.details["blocks_per_iteration"] == 80
        assert result.details["work_per_block"] == pytest.approx(1e-3)
        assert result.details["npe_i"] == 2
