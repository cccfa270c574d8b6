"""Tests for the weak-scaling analysis helpers."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.scaling import (
    ScalingAnalysis,
    analyze_figure,
    analyze_figure_series,
    analyze_series,
)
from repro.experiments.study import build_spec, run_study


def monotone_degrading(analysis) -> bool:
    """Whether weak-scaling efficiency never improves with more processors."""
    efficiencies = [p.efficiency for p in analysis.points]
    return all(b <= a + 1e-9 for a, b in zip(efficiencies, efficiencies[1:]))


class TestAnalyzeSeries:
    def test_perfect_scaling(self):
        analysis = analyze_series([1, 4, 16], [2.0, 2.0, 2.0], label="ideal")
        assert analysis.final_efficiency() == pytest.approx(1.0)
        assert all(p.overhead_fraction == 0.0 for p in analysis.points)
        assert monotone_degrading(analysis)

    def test_degrading_scaling(self):
        analysis = analyze_series([1, 4, 16], [2.0, 2.5, 4.0])
        assert [p.efficiency for p in analysis.points] == \
            pytest.approx([1.0, 0.8, 0.5])
        assert analysis.points[-1].overhead_fraction == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            analyze_series([1, 2], [1.0])
        with pytest.raises(ExperimentError):
            analyze_series([], [])
        with pytest.raises(ExperimentError):
            analyze_series([1, 2], [1.0, 0.0])

    def test_empty_base_time(self):
        with pytest.raises(ExperimentError):
            _ = ScalingAnalysis(label="x").base_time

    def test_describe(self):
        text = analyze_series([1, 4], [1.0, 1.25], label="demo").describe()
        assert "demo" in text and "efficiency" in text


class TestFigureScaling:
    @pytest.fixture(scope="class")
    def fig8_result(self):
        return run_study(build_spec("figure8",
                                    processor_counts=[1, 16, 256, 1024],
                                    rate_factors=[1.0, 1.5])).payload

    def test_series_analysis(self, fig8_result):
        analysis = analyze_figure_series(fig8_result.actual)
        # Weak-scaling efficiency degrades monotonically as the pipeline
        # lengthens, but stays useful ("good scaling behaviour").
        assert monotone_degrading(analysis)
        assert 0.3 < analysis.final_efficiency() < 1.0
        assert analysis.points[0].efficiency == pytest.approx(1.0)

    def test_upgraded_processor_has_lower_efficiency(self, fig8_result):
        """A faster processor shrinks compute but not communication, so its
        weak-scaling efficiency at scale is lower — the classic trade-off the
        speculative study exposes."""
        analyses = analyze_figure(fig8_result)
        assert analyses[1.5].final_efficiency() < analyses[1.0].final_efficiency()

    def test_labels(self, fig8_result):
        analyses = analyze_figure(fig8_result)
        assert "figure8" in analyses[1.0].label
