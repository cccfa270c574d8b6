"""Tests for the benchmarking ablation and the model-agreement experiments."""

import pytest

from repro.experiments.study import build_spec, run_study


def payload(study, **params):
    """Run one registered study and return its payload."""
    return run_study(build_spec(study, **params)).payload


class TestOpcodeAblation:
    @pytest.fixture(scope="class")
    def ablation(self):
        return payload("ablation", max_iterations=6)

    def test_coarse_approach_is_accurate(self, ablation):
        assert abs(ablation.coarse_error_pct) < 10.0

    def test_legacy_approach_is_poor(self, ablation):
        """Reproduces the paper's 'error as large as 50%' on the Opteron."""
        assert abs(ablation.legacy_error_pct) > 25.0

    def test_improvement_factor(self, ablation):
        assert ablation.improvement_factor > 3.0

    def test_targets_opteron_by_default(self, ablation):
        assert ablation.machine_name == "opteron-gige"

    def test_describe(self, ablation):
        text = ablation.describe()
        assert "coarse" in text and "legacy" in text

    def test_paper_measurement_mode(self):
        ablation = payload("ablation", simulate_measurement=False,
                           max_iterations=12)
        assert ablation.measured == pytest.approx(8.98, rel=1e-6)
        assert abs(ablation.coarse_error_pct) < 15.0


class TestModelAgreement:
    @pytest.fixture(scope="class")
    def agreement(self):
        return payload("agreement", figure="figure8",
                       processor_counts=[16, 256])

    def test_all_models_evaluated(self, agreement):
        assert len(agreement.comparisons) == 2
        for comparison in agreement.comparisons:
            assert comparison.pace > 0
            assert comparison.loggp > 0
            assert comparison.hoisie > 0

    def test_models_concur(self, agreement):
        """Section 6: the PACE results agree with the related analytic models."""
        assert agreement.worst_spread < 0.6
        assert agreement.worst_deviation_from_pace < 0.6

    def test_describe(self, agreement):
        text = agreement.describe()
        assert "figure8" in text and "worst spread" in text
