"""Tests for the LogGP and Los Alamos baseline analytic models."""

import pytest

from repro.analytic.comparison import compare_models
from repro.analytic.hoisie import HoisieWavefrontModel
from repro.analytic.loggp import LogGPParameters, LogGPWavefrontModel
from repro.core.workload import SweepWorkload
from repro.errors import ModelError
from repro.sweep3d.input import standard_deck


@pytest.fixture
def workload_2x2():
    return SweepWorkload(standard_deck("validation", px=2, py=2), 2, 2)


@pytest.fixture
def workload_8x8():
    return SweepWorkload(standard_deck("validation", px=8, py=8), 8, 8)


class TestLogGPParameters:
    def test_from_hardware(self, synthetic_hardware):
        params = LogGPParameters.from_hardware(synthetic_hardware)
        assert params.latency >= 0
        assert params.overhead > 0
        assert params.gap_per_byte >= 0

    def test_one_way_time(self):
        params = LogGPParameters(latency=10e-6, overhead=1e-6, gap=1e-6, gap_per_byte=1e-9)
        assert params.one_way(1000) == pytest.approx(10e-6 + 2e-6 + 1e-6)

    def test_negative_parameter_rejected(self):
        with pytest.raises(ModelError):
            LogGPParameters(latency=-1.0, overhead=0.0, gap=0.0, gap_per_byte=0.0)


class TestLogGPWavefrontModel:
    def test_prediction_positive_and_reasonable(self, synthetic_hardware, workload_2x2):
        model = LogGPWavefrontModel(LogGPParameters.from_hardware(synthetic_hardware))
        seconds_per_flop = synthetic_hardware.cpu.seconds_per_flop
        time = model.predict(workload_2x2, seconds_per_flop)
        compute_only = (36.0 * 48 * 125000 * 12) * seconds_per_flop
        assert time > compute_only
        assert time < 3 * compute_only

    def test_weak_scaling_grows(self, synthetic_hardware, workload_2x2, workload_8x8):
        model = LogGPWavefrontModel(LogGPParameters.from_hardware(synthetic_hardware))
        spf = synthetic_hardware.cpu.seconds_per_flop
        assert model.predict(workload_8x8, spf) > model.predict(workload_2x2, spf)


class TestHoisieModel:
    def test_single_processor_has_no_message_cost(self, synthetic_hardware):
        workload = SweepWorkload(standard_deck("validation", px=1, py=1), 1, 1)
        model = HoisieWavefrontModel(synthetic_hardware)
        assert model.block_message_time(workload) == 0.0

    def test_weak_scaling_grows(self, synthetic_hardware, workload_2x2, workload_8x8):
        model = HoisieWavefrontModel(synthetic_hardware)
        assert model.predict(workload_8x8) > model.predict(workload_2x2)

    def test_block_compute_time(self, synthetic_hardware, workload_2x2):
        model = HoisieWavefrontModel(synthetic_hardware)
        expected = 36.0 * 50 * 50 * 10 * 3 * synthetic_hardware.cpu.seconds_per_flop
        assert model.block_compute_time(
            workload_2x2, synthetic_hardware.cpu.seconds_per_flop) == pytest.approx(expected)


class TestModelAgreement:
    def test_three_models_agree_on_compute_bound_configs(self, synthetic_hardware,
                                                         workload_2x2, synthetic_executor):
        pace = synthetic_executor.predict(workload_2x2.model_variables()).total_time
        comparison = compare_models(workload_2x2, synthetic_hardware, pace)
        assert comparison.pace > 0 and comparison.loggp > 0 and comparison.hoisie > 0
        # Section 6: the predictions of the different analytic models concur.
        assert comparison.spread < 0.5
        assert comparison.max_relative_difference("pace") < 0.5

    def test_describe(self, synthetic_hardware, workload_2x2, synthetic_executor):
        pace = synthetic_executor.predict(workload_2x2.model_variables()).total_time
        comparison = compare_models(workload_2x2, synthetic_hardware, pace)
        text = comparison.describe()
        assert "PACE" in text and "LogGP" in text and "Hoisie" in text
