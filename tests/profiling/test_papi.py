"""Tests for the PAPI-substitute flop profiler."""

import pytest

from repro.profiling.papi import FlopProfiler
from repro.sweep3d.input import standard_deck
from repro.sweep3d.kernel import SweepKernel


class TestFlopProfiler:
    def test_profile_reports_achieved_rate(self, p3_processor):
        deck = standard_deck("validation", 1, 1)
        profile = FlopProfiler(p3_processor).profile(deck)
        assert profile.flops > 0
        assert profile.achieved_flop_rate == pytest.approx(
            profile.flops / profile.execute_time)
        assert 0 < profile.efficiency < 1
        assert profile.achieved_mflops == pytest.approx(
            profile.achieved_flop_rate / 1e6)

    def test_paper_rate_reproduced_for_pentium3(self, p3_processor):
        deck = standard_deck("validation", 1, 1)
        profile = FlopProfiler(p3_processor).profile(deck)
        assert profile.achieved_mflops == pytest.approx(110.0, rel=0.10)

    def test_cells_per_processor_profile(self, opteron_processor):
        deck = standard_deck("validation", px=4, py=4)
        profile = FlopProfiler(opteron_processor).profile_cells_per_processor(deck, 4, 4)
        assert profile.cells == (50, 50, 50)

    def test_rate_depends_on_subdomain_size(self, opteron_processor):
        """Smaller per-processor problems run out of cache and go faster."""
        profiler = FlopProfiler(opteron_processor)
        small = profiler.profile(standard_deck("asci-20m", 1, 1), nx=5, ny=5)
        large = profiler.profile(standard_deck("validation", 1, 1), nx=50, ny=50)
        assert small.achieved_flop_rate > large.achieved_flop_rate

    def test_seconds_per_flop(self, p3_processor):
        deck = standard_deck("validation", 1, 1)
        profile = FlopProfiler(p3_processor).profile(deck)
        assert profile.seconds_per_flop == pytest.approx(1.0 / profile.achieved_flop_rate)

    def test_legacy_rate_differs(self, opteron_processor):
        deck = standard_deck("validation", 1, 1)
        profile = FlopProfiler(opteron_processor).profile(deck)
        assert profile.legacy_flop_rate != pytest.approx(profile.achieved_flop_rate, rel=0.05)

    def test_verify_static_counts_accepts_capp_tally(self, p3_processor):
        from repro.core.capp.analyzer import analyze_sweep_kernel_resource
        profiler = FlopProfiler(p3_processor)
        capp_mix = analyze_sweep_kernel_resource().tally(
            "sweep_block", dict(nx=10, ny=10, mk=5, mmi=3)).to_operation_mix()
        reference = SweepKernel.cell_mix().scaled(10 * 10 * 5 * 3)
        assert profiler.verify_static_counts(capp_mix, reference, tolerance=0.05)

    def test_verify_static_counts_rejects_wrong_counts(self, p3_processor):
        profiler = FlopProfiler(p3_processor)
        reference = SweepKernel.cell_mix().scaled(100)
        wrong = SweepKernel.cell_mix().scaled(150)
        assert not profiler.verify_static_counts(wrong, reference, tolerance=0.05)

    def test_describe(self, p3_processor):
        deck = standard_deck("validation", 1, 1)
        text = FlopProfiler(p3_processor).profile(deck).describe()
        assert "MFLOPS" in text
