"""Tests for the processor model and its presets."""

import pytest

from repro.errors import ProcessorConfigError
from repro.simproc.opcodes import OpCategory, OperationMix
from repro.simproc.presets import (
    itanium2_1600,
    opteron_2000,
    pentium3_1400,
)
from repro.simproc.processor import SuperscalarModel
from repro.sweep3d.input import standard_deck
from repro.sweep3d.kernel import SweepKernel


@pytest.fixture(scope="module")
def sweep_mix():
    """The per-iteration mix of the 50^3-cells-per-processor problem."""
    kernel = SweepKernel(standard_deck("validation", 1, 1))
    return kernel.local_sweep_mix(50, 50)


class TestSuperscalarModel:
    def test_effective_parallelism(self):
        model = SuperscalarModel(issue_width=3, fp_pipelines=2, ilp_efficiency=0.5)
        assert model.effective_parallelism == pytest.approx(2.0)

    def test_bounds(self):
        with pytest.raises(ProcessorConfigError):
            SuperscalarModel(issue_width=0, fp_pipelines=1, ilp_efficiency=0.5)
        with pytest.raises(ProcessorConfigError):
            SuperscalarModel(issue_width=2, fp_pipelines=1, ilp_efficiency=1.5)


class TestProcessorModel:
    def test_empty_mix_costs_nothing(self, p3_processor):
        assert p3_processor.execute_time(OperationMix()) == 0.0

    def test_execute_time_scales_linearly(self, p3_processor, sweep_mix):
        one = p3_processor.execute_time(sweep_mix)
        two = p3_processor.execute_time(sweep_mix * 2)
        assert two == pytest.approx(2 * one, rel=1e-9)

    def test_achieved_rate_below_peak(self, p3_processor, sweep_mix):
        assert p3_processor.achieved_flop_rate(sweep_mix) < p3_processor.peak_flop_rate

    def test_seconds_per_flop_inverse_of_rate(self, p3_processor, sweep_mix):
        rate = p3_processor.achieved_flop_rate(sweep_mix)
        assert p3_processor.seconds_per_flop(sweep_mix) == pytest.approx(1.0 / rate)

    def test_legacy_differs_from_achieved(self, opteron_processor, sweep_mix):
        # The core of the paper's argument: the legacy per-opcode estimate is
        # far from the achieved behaviour on a modern superscalar processor.
        legacy = opteron_processor.legacy_opcode_time(sweep_mix)
        achieved = opteron_processor.execute_time(sweep_mix)
        assert abs(legacy - achieved) / achieved > 0.25

    def test_opcode_benchmark_covers_all_mnemonics(self, p3_processor):
        benchmark = p3_processor.opcode_benchmark()
        assert set(benchmark) == {c.value for c in OpCategory}
        assert all(value > 0 for value in benchmark.values())

    def test_working_set_affects_rate(self, opteron_processor):
        kernel = SweepKernel(standard_deck("validation", 1, 1))
        small = kernel.cell_mix().scaled(1000, working_set_bytes=32 * 1024)
        large = kernel.cell_mix().scaled(1000, working_set_bytes=64 * 1024 * 1024)
        # The paper: "This rate changes according to the problem size per
        # processor" — bigger working sets run slower.
        assert (opteron_processor.achieved_flop_rate(small)
                > opteron_processor.achieved_flop_rate(large))


class TestPresets:
    @pytest.mark.parametrize("factory,paper_mflops,tolerance", [
        (pentium3_1400, 110.0, 0.10),
        (opteron_2000, 350.0, 0.10),
        (itanium2_1600, 225.0, 0.10),
    ])
    def test_achieved_rates_match_paper(self, factory, paper_mflops, tolerance, sweep_mix):
        """The calibrated presets achieve the paper's measured MFLOPS within 10%."""
        processor = factory()
        achieved = processor.achieved_flop_rate(sweep_mix) / 1e6
        assert achieved == pytest.approx(paper_mflops, rel=tolerance)

    def test_opteron_legacy_error_is_large(self, sweep_mix):
        """Reproduces the ~50% legacy-benchmark error highlighted for the Opteron."""
        processor = opteron_2000()
        ratio = processor.legacy_opcode_time(sweep_mix) / processor.execute_time(sweep_mix)
        assert 1.3 < ratio < 1.9

    def test_peak_rates_ordered(self):
        assert itanium2_1600().peak_flop_rate > opteron_2000().peak_flop_rate > \
            pentium3_1400().peak_flop_rate

    def test_describe(self):
        assert "GHz" in pentium3_1400().describe()
