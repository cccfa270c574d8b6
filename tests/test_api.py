"""Tests for the stable public facade (:mod:`repro.api`)."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api as api

#: Modules that ``import repro.api`` must not load: test oracles, the
#: evaluation paths they replaced, and leaves only some commands use
#: (package ``__init__`` files import nothing, and each study executor
#: module is imported when its study runs), and process pools: a study
#: runs in one process.  Extend it as imports become lazy.
NOT_LOADED_BY_API_IMPORT = [
    "multiprocessing",
    "concurrent.futures",
    "repro.core.psl.interpreter",
    "repro.core.evaluation.engine",
    "oracles",
    "repro.analytic",
    "repro.analytic.comparison",
    "repro.analytic.hoisie",
    "repro.analytic.loggp",
    "repro.core.psl.parser",
    "repro.core.psl.lexer",
    "repro.core.hmcl.parser",
    "repro.core.workload",
    "repro.experiments.ablation",
    "repro.experiments.agreement",
    "repro.experiments.blocking",
    "repro.experiments.figures",
    "repro.experiments.scaling",
    "repro.experiments.runner",
    "repro.experiments.sharding",
    "repro.experiments.steadyscale",
    "repro.experiments.tables",
]

#: What only a run, a hardware campaign or a curve fit may load: numpy,
#: the MPI simulator, the solver, noise, the measurement campaigns and
#: the fleet.
HEAVY_MODULES = [
    "numpy",
    "repro.simmpi.engine", "repro.simmpi.trace", "repro.simmpi.capture",
    "repro.simmpi.steady", "repro.simmpi.tracecache",
    "repro.simmpi.communicator", "repro.simmpi.operations",
    "repro.sweep3d.driver", "repro.sweep3d.parallel", "repro.sweep3d.kernel",
    "repro.sweep3d.serial",
    "repro.simnet.noise", "repro.profiling.mpibench", "repro.profiling.papi",
    "repro.experiments.fleet", "repro.experiments.remotestore",
    "repro.experiments.uncertainty",
]

#: Entry points that load none of ``HEAVY_MODULES``, each checked in a
#: fresh interpreter where importing numpy fails.
LIGHT_ENTRY_POINTS = {
    "import-api": "import repro.api",
    "import-cli": "import repro.cli",
    "cli-help": ("from repro.cli import main\n"
                 "try:\n    main(['--help'])\n"
                 "except SystemExit as done:\n    assert done.code == 0"),
    "cli-studies": "from repro.cli import main\nassert main(['studies']) == 0",
    "cli-machines": "from repro.cli import main\nassert main(['machines']) == 0",
    "setup-probe": ("import repro.api as api\n"
                    "context = api.StudyContext()\n"
                    "context.model()\ncontext.compiled_model()"),
    "decks": ("from repro.errors import InputDeckError\n"
              "from repro.sweep3d.input import Sweep3DInput, standard_deck\n"
              "standard_deck('validation', px=2, py=2)\n"
              "try:\n    Sweep3DInput(sn=5)\n"
              "except InputDeckError as exc:\n"
              "    assert str(exc) == ('unsupported S_N order 5; '\n"
              "                        'available: [2, 4, 6, 8]'), exc\n"
              "else:\n    raise AssertionError('S5 accepted')"),
}


def loaded_without_numpy(script: str) -> set[str]:
    """The modules a fresh interpreter holds after ``script``.

    ``sys.modules["numpy"] = None`` comes first, so any numpy import in
    the script's path raises instead of passing unnoticed.
    """
    src_dir = Path(repro.__file__).resolve().parents[1]
    program = ("import sys\nsys.modules['numpy'] = None\n" + script
               + "\nimport json\nprint(json.dumps(sorted(name for name, module"
               " in sys.modules.items() if module is not None)))")
    output = subprocess.run([sys.executable, "-c", program],
                            env=dict(os.environ, PYTHONPATH=str(src_dir)),
                            capture_output=True, text=True)
    assert output.returncode == 0, output.stderr
    return set(json.loads(output.stdout.splitlines()[-1]))


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

    def test_leaf_import_loads_no_simulator(self):
        # Package ``__init__`` files import nothing, so a leaf module loads
        # only what it needs: the hardware model needs neither the solver
        # nor the MPI simulator (a submodule import loads its package),
        # nor numpy.
        loaded = loaded_without_numpy("import repro.core.hmcl.model")
        assert loaded & {"repro.sweep3d", "repro.simmpi"} == set()

    @pytest.mark.parametrize("script", LIGHT_ENTRY_POINTS.values(),
                             ids=list(LIGHT_ENTRY_POINTS))
    def test_light_entry_point_loads_no_numpy_or_simulator(self, script):
        loaded = loaded_without_numpy(script)
        assert sorted(loaded.intersection(HEAVY_MODULES)) == []

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
        # The fleet, store, shard and calibration names resolve the same way.
        for name, module in api._LAZY_EXPORTS.items():
            assert getattr(api, name) is getattr(importlib.import_module(module), name)
        assert [name for name in api.__all__ if not hasattr(api, name)] == []

    def test_predict_and_study_rows_agree(self):
        """One-shot predictions equal the registered table study's column."""
        result = api.run_study(api.build_spec(
            "table2", max_pes=4, max_iterations=2,
            simulate_measurement=False))
        one_shot = api.predict("opteron-gige", 2, 2, iterations=2)
        assert result.payload.rows[0].predicted \
            == pytest.approx(one_shot.total_time, rel=1e-12)
