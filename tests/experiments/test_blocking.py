"""Tests for the blocking-factor (mk/mmi) study."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.blocking import (
    BlockingStudyResult,
    DEFAULT_MK_VALUES,
    DEFAULT_MMI_VALUES,
)
from repro.experiments.study import build_spec, run_study


def blocking(**params):
    """Run the blocking study and return its payload."""
    return run_study(build_spec("blocking", **params)).payload


@pytest.fixture(scope="module")
def study():
    """The speculative-problem blocking sweep on a 16x16 slice of the
    hypothetical machine (prediction-only, so cheap to run)."""
    return blocking(machine="hypothetical", px=16, py=16,
                    cells_per_processor=(5, 5, 100),
                    mk_values=(1, 5, 10, 50, 100), mmi_values=(1, 3, 6),
                    max_iterations=12)


class TestBlockingStudy:
    def test_all_combinations_explored(self, study):
        assert len(study.points) == 5 * 3
        assert {p.mk for p in study.points} == {1, 5, 10, 50, 100}
        assert {p.mmi for p in study.points} == {1, 3, 6}

    def test_block_counts_consistent(self, study):
        point = study.point(10, 3)
        assert point.blocks_per_iteration == 8 * 10 * 2
        point = study.point(100, 6)
        assert point.blocks_per_iteration == 8 * 1 * 1

    def test_extreme_blockings_are_slower(self, study):
        """Both extremes lose: tiny blocks pay latency, huge blocks pay fill."""
        best = study.best()
        finest = study.point(1, 1)
        coarsest = study.point(100, 6)
        assert finest.predicted_time > best.predicted_time * 1.05
        assert coarsest.predicted_time > best.predicted_time * 1.5

    def test_paper_choice_is_reasonable(self, study):
        """mk=10, mmi=3 lands within 50% of the best explored combination."""
        assert 0.0 <= study.paper_choice_penalty() < 0.50

    def test_message_count_tracks_block_count(self, study):
        fine = study.point(1, 1)
        coarse = study.point(100, 6)
        assert fine.messages_per_processor > coarse.messages_per_processor

    def test_validation_problem_prefers_fine_blocking(self):
        """For 50^3 cells/processor the compute per block dwarfs the message
        cost, so finer blocking monotonically reduces the pipeline fill."""
        result = blocking(machine="pentium3-myrinet", px=4, py=4,
                          cells_per_processor=(50, 50, 50),
                          mk_values=(1, 10, 50), mmi_values=(3,),
                          max_iterations=12)
        assert result.machine_name == "pentium3-myrinet"
        times = {p.mk: p.predicted_time for p in result.points}
        assert times[1] < times[10] < times[50]

    def test_mk_out_of_range_skipped(self):
        result = blocking(machine="pentium3-myrinet", px=2, py=2,
                          cells_per_processor=(10, 10, 10),
                          mk_values=(5, 10, 100), mmi_values=(3,),
                          max_iterations=2)
        assert {p.mk for p in result.points} == {5, 10}

    def test_no_valid_combinations_rejected(self):
        with pytest.raises(ExperimentError):
            blocking(machine="pentium3-myrinet", px=2, py=2,
                     cells_per_processor=(10, 10, 10),
                     mk_values=(100,), mmi_values=(3,))

    def test_point_lookup_error(self, study):
        with pytest.raises(ExperimentError):
            study.point(7, 7)

    def test_empty_best_rejected(self):
        with pytest.raises(ExperimentError):
            BlockingStudyResult("m", 2, 2, (10, 10, 10)).best()

    def test_describe(self, study):
        text = study.describe()
        assert "mk" in text and "best:" in text

    def test_default_value_lists(self):
        assert 10 in DEFAULT_MK_VALUES
        assert 3 in DEFAULT_MMI_VALUES
