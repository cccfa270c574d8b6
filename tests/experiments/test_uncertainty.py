"""Tests for multi-seed uncertainty quantification (noise-sensitivity study,
noise calibration)."""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.paper_data import PAPER_TABLES
from repro.experiments.study import build_spec, run_study, study_names
from repro.experiments.uncertainty import NoiseCalibration, calibrate_noise
from repro.machines.presets import get_machine
from repro.simnet.noise import NoiseModel


def study_block(payload, name):
    """The per-study block of a noise-sensitivity payload."""
    return next(block for block in payload.studies if block.study == name)


@pytest.fixture(scope="module")
def smoke_result():
    return run_study(build_spec("noise-sensitivity").smoke())


class TestNoiseSensitivityStudy:
    def test_smoke_covers_every_other_study(self, smoke_result):
        payload = smoke_result.payload
        targets = [block.study for block in payload.studies]
        assert targets == [name for name in study_names()
                           if name != "noise-sensitivity"]
        for block in payload.studies:
            sampled = block.sampled()
            assert sampled, f"{block.study} produced no sampled scenarios"
            for entry in sampled:
                assert entry.samples == payload.samples
                assert len(entry.elapsed_samples) == payload.samples
                assert entry.mean is not None
                assert entry.std is not None
                assert entry.ci95 is not None
                assert entry.elapsed == entry.elapsed_samples[0]

    def test_tabulated_rows_carry_ci_columns(self, smoke_result):
        for column in ("samples", "elapsed_s", "elapsed_mean_s",
                       "elapsed_std_s", "elapsed_ci95_s"):
            assert column in smoke_result.columns
        sampled_rows = [row for row in smoke_result.rows if row["samples"]]
        assert sampled_rows
        for row in sampled_rows:
            assert row["elapsed_mean_s"] is not None
            assert row["elapsed_ci95_s"] is not None
        json.dumps(smoke_result.to_dict(), allow_nan=False)  # strict JSON

    def test_describe_reports_spread_and_caps(self, smoke_result):
        text = smoke_result.payload.describe()
        assert "noise sensitivity at 2 sample(s)" in text
        assert "% of mean" in text
        # The smoke profile caps at 2 scenarios/target, so at least one
        # target must report skipped scenarios — the cap is never silent.
        assert "skipped by the max_processors/max_scenarios caps" in text

    def test_sample_zero_matches_the_target_study(self):
        # The table1 target's headline elapsed is the measurement the
        # table1 study itself attaches at matched parameters.
        target = run_study(build_spec("noise-sensitivity", target="table1",
                                      target_smoke=True, samples=2))
        table = run_study(build_spec("table1").smoke())
        scenarios = study_block(target.payload, "table1").sampled()
        measured = [row.measured for row in table.payload.rows]
        assert [entry.elapsed for entry in scenarios] == measured

    def test_single_target_runs_only_that_study(self):
        result = run_study(build_spec("noise-sensitivity", target="blocking",
                                      target_smoke=True, samples=2,
                                      iteration_cap=1, max_scenarios=2))
        payload = result.payload
        assert [block.study for block in payload.studies] == ["blocking"]
        assert payload.machine_name == "hypothetical-opteron-myrinet"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ExperimentError, match="samples >= 1"):
            run_study(build_spec("noise-sensitivity", samples=0))
        with pytest.raises(ExperimentError, match="max_processors"):
            run_study(build_spec("noise-sensitivity", max_processors=0))
        with pytest.raises(ExperimentError, match="cannot target itself"):
            run_study(build_spec("noise-sensitivity",
                                 target="noise-sensitivity"))
        with pytest.raises(ExperimentError, match="unknown study"):
            run_study(build_spec("noise-sensitivity", target="table9"))

    def test_max_processors_cap_lists_skipped_scenarios(self):
        result = run_study(build_spec("noise-sensitivity", target="figure8",
                                      target_smoke=True, samples=2,
                                      max_processors=4, iteration_cap=1))
        block = study_block(result.payload, "figure8")
        skipped = [entry for entry in block.scenarios if not entry.samples]
        assert skipped
        for entry in skipped:
            assert entry.pes > 4
            assert entry.mean is None


class TestNoiseCalibration:
    def test_calibrates_each_table(self):
        for table_name in sorted(PAPER_TABLES):
            calibration = calibrate_noise(table_name)
            assert isinstance(calibration, NoiseCalibration)
            assert calibration.table == table_name
            assert calibration.machine_name \
                == PAPER_TABLES[table_name]["machine"]
            assert calibration.n_rows >= 2
            assert calibration.residual_rel_std > 0.0
            # Published residuals are a few percent, not orders more.
            assert calibration.residual_rel_std < 0.5

    def test_preserves_the_machine_jitter_ratio(self):
        machine = get_machine("pentium3-myrinet")
        calibration = calibrate_noise("table1", machine=machine)
        assert calibration.compute_jitter == calibration.residual_rel_std
        assert calibration.network_jitter / calibration.compute_jitter \
            == pytest.approx(machine.network_jitter / machine.compute_jitter)

    def test_noise_model_carries_fitted_amplitudes(self):
        calibration = calibrate_noise("table2")
        model = calibration.noise_model(seed=7)
        assert isinstance(model, NoiseModel)
        assert model.seed == 7
        assert model.compute_jitter == calibration.compute_jitter
        assert model.network_jitter == calibration.network_jitter
        base = NoiseModel(seed=0, daemon_interval=0.5, daemon_duration=1e-3)
        derived = calibration.noise_model(seed=3, base=base)
        assert derived.daemon_interval == 0.5
        assert derived.compute_jitter == calibration.compute_jitter
        overrides = calibration.machine_overrides()
        assert overrides == {"compute_jitter": calibration.compute_jitter,
                             "network_jitter": calibration.network_jitter}

    def test_unknown_table_rejected(self):
        with pytest.raises(ExperimentError, match="unknown table"):
            calibrate_noise("table9")


class TestSampledTableStudies:
    def test_table_rows_gain_statistics_and_keep_the_headline(self):
        plain = run_study(build_spec("table1").smoke())
        sampled = run_study(build_spec("table1", samples=3).smoke())
        for before, after in zip(plain.payload.rows, sampled.payload.rows):
            assert after.n_samples == 3
            assert after.measured == before.measured        # headline fixed
            assert after.measured_samples[0] == before.measured
            assert after.measured_mean is not None
            assert after.measured_ci95 is not None
        for column in ("samples", "measured_mean_s", "measured_std_s",
                       "measured_ci95_s"):
            assert column in sampled.columns
            assert column not in plain.columns

    def test_samples_default_keeps_spec_hashes(self):
        assert build_spec("table2", samples=0) == build_spec("table2")
        assert build_spec("table2", samples=0).spec_hash() \
            == build_spec("table2").spec_hash()
