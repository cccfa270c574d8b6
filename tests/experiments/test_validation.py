"""Tests for the validation-table experiment harness (Tables 1-3)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.paper_data import TABLE2_ROWS
from repro.experiments.runner import deck_for_row
from repro.experiments.study import build_spec, run_study
from repro.experiments.tables import validation_row_for


def table(name, **params):
    """Run one validation-table study and return its table payload."""
    return run_study(build_spec(name, **params)).payload


class TestRunner:
    def test_deck_for_row(self):
        row = TABLE2_ROWS[3]          # 150x200x50 on 3x4
        deck = deck_for_row(row)
        assert (deck.it, deck.jt, deck.kt) == (150, 200, 50)
        assert deck.mk == 10 and deck.max_iterations == 12

    def test_prediction_only_row(self):
        row = TABLE2_ROWS[0]
        rows = table("table2", rows=[0], simulate_measurement=False).rows
        assert len(rows) == 1
        result = rows[0]
        assert result.pes == row.pes
        assert result.measured is None
        assert result.error_pct is None
        assert result.predicted > 0
        assert result.paper_measured == pytest.approx(8.98)
        # Prediction should land in the same ballpark as the paper's run time.
        assert result.predicted == pytest.approx(row.measured, rel=0.25)

    def test_row_with_measurement_and_error(self):
        result = table("table2", rows=[0], max_iterations=4).rows[0]
        assert result.measured is not None and result.measured > 0
        assert result.error_pct is not None
        assert abs(result.error_pct) < 10.0

    def test_iteration_scaling(self):
        short = table("table2", rows=[0], simulate_measurement=False,
                      max_iterations=3).rows[0]
        full = table("table2", rows=[0], simulate_measurement=False,
                     max_iterations=12).rows[0]
        assert full.predicted == pytest.approx(4 * short.predicted, rel=1e-6)


class TestRunTable:
    def test_prediction_only_table2_all_rows(self):
        result = table("table2", simulate_measurement=False)
        assert result.name == "table2"
        assert len(result.rows) == len(TABLE2_ROWS)
        # Shape check against the paper: predictions within 25% of the
        # published measurements and monotonically increasing with PEs.
        predictions = result.predictions()
        assert predictions == sorted(predictions)
        for row in result.rows:
            assert row.predicted == pytest.approx(row.paper_measured, rel=0.25)

    def test_simulated_measurement_errors_below_ten_percent(self):
        result = table("table2", max_pes=9, max_iterations=12)
        assert result.rows
        assert result.max_abs_error < 10.0
        assert result.average_abs_error < 8.0

    def test_max_pes_filter(self):
        result = table("table2", simulate_measurement=False, max_pes=12)
        assert all(row.pes <= 12 for row in result.rows)

    def test_unknown_table(self):
        with pytest.raises(ExperimentError):
            table("table9")

    def test_empty_selection(self):
        with pytest.raises(ExperimentError):
            table("table2", max_pes=1)

    def test_validation_row_lookup(self):
        row = validation_row_for("table1", 64)
        assert (row.px, row.py) == (8, 8)
        with pytest.raises(ExperimentError):
            validation_row_for("table1", 999)

    def test_table3_prediction_against_paper(self):
        """Altix predictions stay within 25% of the published measurements."""
        result = table("table3", simulate_measurement=False, max_pes=30)
        for row in result.rows:
            assert row.predicted == pytest.approx(row.paper_measured, rel=0.25)


class TestErrorStatistics:
    def test_statistics_computed(self):
        result = table("table2", max_pes=6, max_iterations=6)
        errors = result.errors()
        assert len(errors) == 2
        assert result.max_abs_error >= abs(errors[0])
        assert result.error_variance >= 0.0
        assert len(result.measurements()) == 2
