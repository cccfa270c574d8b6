"""Tests for the PAPI-substitute flop profiler."""

import pytest

from repro.profiling.papi import FlopProfiler
from repro.sweep3d.input import standard_deck


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

    def test_rate_depends_on_subdomain_size(self, opteron_processor):
        """Smaller per-processor problems run out of cache and go faster."""
        profiler = FlopProfiler(opteron_processor)
        small = profiler.profile(standard_deck("asci-20m", 1, 1), nx=5, ny=5)
        large = profiler.profile(standard_deck("validation", 1, 1), nx=50, ny=50)
        assert small.achieved_flop_rate > large.achieved_flop_rate

    def test_cells_per_processor_profile(self, opteron_processor):
        """One processor's share of a weak-scaled 4x4 deck is the 1x1
        deck's work."""
        profiler = FlopProfiler(opteron_processor)
        deck = standard_deck("validation", px=4, py=4)
        profile = profiler.profile(deck, nx=deck.it // 4, ny=deck.jt // 4)
        assert profile.cells == (50, 50, 50)
        single = profiler.profile(standard_deck("validation", 1, 1))
        assert profile.flops == single.flops
        assert profile.execute_time == single.execute_time

    def test_legacy_rate_differs(self, opteron_processor):
        """The legacy per-opcode summation misses the achieved time."""
        deck = standard_deck("validation", 1, 1)
        profile = FlopProfiler(opteron_processor).profile(deck)
        assert profile.legacy_time != pytest.approx(profile.execute_time,
                                                    rel=0.05)

    def test_seconds_per_flop(self, p3_processor):
        deck = standard_deck("validation", 1, 1)
        profile = FlopProfiler(p3_processor).profile(deck)
        assert profile.seconds_per_flop == pytest.approx(1.0 / profile.achieved_flop_rate)

    def test_describe(self, p3_processor):
        deck = standard_deck("validation", 1, 1)
        text = FlopProfiler(p3_processor).profile(deck).describe()
        assert "MFLOPS" in text
