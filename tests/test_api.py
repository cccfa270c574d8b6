"""Tests for the stable public facade (:mod:`repro.api`)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api as api

#: Modules that ``import repro.api`` must not load: test oracles and the
#: evaluation paths they replaced.  Extend it as imports become lazy.
NOT_LOADED_BY_API_IMPORT = [
    "repro.core.psl.interpreter",
    "repro.core.evaluation.engine",
    "oracles",
]


class TestFacadeSurface:
    def test_lazy_attribute_on_package(self):
        assert repro.api is api
        with pytest.raises(AttributeError):
            repro.no_such_attribute

    def test_study_api_exports(self):
        for name in ("StudySpec", "StudyRunner", "StudyResult", "build_spec",
                     "run_study", "run_studies", "load_spec", "study_names",
                     "write_study_artifacts", "SweepDiskCache"):
            assert hasattr(api, name), name

    def test_import_loads_no_oracle(self):
        # A fresh interpreter with the oracle importable: only what
        # ``repro.api`` itself pulls in ends up in ``sys.modules``.
        tests_dir = Path(__file__).resolve().parent
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]))
        script = "import json, sys, repro.api; print(json.dumps(sorted(sys.modules)))"
        output = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        loaded = set(json.loads(output.stdout))
        assert [name for name in NOT_LOADED_BY_API_IMPORT if name in loaded] == []

    def test_available_machines(self):
        machines = api.available_machines()
        assert "pentium3-myrinet" in machines
        assert machines == sorted(machines)


class TestOneShots:
    def test_predict_matches_engine_path(self):
        prediction = api.predict("opteron", 2, 2, iterations=2)
        assert prediction.total_time > 0
        assert prediction.hardware_name

    def test_simulate_accepts_names_and_decks(self):
        run = api.simulate("pentium3", 2, 2, iterations=1)
        assert run.elapsed_time > 0
        deck = api.standard_deck("mini", px=2, py=2, max_iterations=2)
        numeric = api.simulate(api.get_machine("pentium3"), 2, 2, deck=deck,
                               numeric=True, with_noise=False)
        assert numeric.error_history

    def test_default_context_is_memoised_and_clearable(self):
        first = api.default_context()
        assert api.default_context() is first
        api.clear_cached_context()
        try:
            second = api.default_context()
            assert second is not first
            assert api.default_context() is second
        finally:
            # Leave a fresh memoised context for the rest of the suite.
            api.clear_cached_context()

    def test_one_shots_bit_identical_across_context_reset(self):
        before = api.predict("opteron", 2, 2, iterations=2)
        api.clear_cached_context()
        after = api.predict("opteron", 2, 2, iterations=2)
        assert after.total_time == before.total_time
        assert after.compute_time == before.compute_time

    def test_service_exports_resolve_lazily(self):
        from repro.service.client import ServiceClient
        from repro.service.core import PredictionService, run_server
        assert api.PredictionService is PredictionService
        assert api.ServiceClient is ServiceClient
        assert api.run_server is run_server
        with pytest.raises(AttributeError):
            api.no_such_service_symbol

    def test_predict_and_study_rows_agree(self):
        """One-shot predictions equal the registered table study's column."""
        result = api.run_study(api.build_spec(
            "table2", max_pes=4, max_iterations=2,
            simulate_measurement=False))
        one_shot = api.predict("opteron-gige", 2, 2, iterations=2)
        assert result.payload.rows[0].predicted \
            == pytest.approx(one_shot.total_time, rel=1e-12)
