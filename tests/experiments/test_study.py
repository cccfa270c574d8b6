"""Tests for the declarative Study API (spec -> runner -> result)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments.ablation import _run_opcode_ablation_impl
from repro.experiments.agreement import _run_model_agreement_impl
from repro.experiments.blocking import _run_blocking_impl
from repro.experiments.figures import _run_speculative_figure_impl
from repro.experiments.paper_data import FIGURE9_STUDY
from repro.experiments.scaling import _run_scaling_impl
from repro.experiments.sharding import merge_study_results, plan_shards
from repro.experiments.study import (
    StudyContext,
    StudyRunner,
    StudySpec,
    build_spec,
    get_study,
    load_spec,
    run_study,
    study_names,
)
from repro.experiments.tables import _run_table_impl
from repro.machines.presets import get_machine
from repro.profiling.mpibench import MpiBenchmark

ALL_STUDIES = ("table1", "table2", "table3", "figure8", "figure9",
               "blocking", "scaling", "ablation", "agreement",
               "noise-sensitivity", "steady-scaling")


class TestRegistry:
    def test_every_experiment_is_registered(self):
        assert tuple(study_names()) == ALL_STUDIES

    @pytest.mark.parametrize("first_import", [
        "repro.experiments.study",
        "repro.experiments.uncertainty",
        "repro.experiments.steadyscale",
        "repro.experiments.sharding",
        "repro.api",
    ])
    def test_registry_does_not_depend_on_import_order(self, first_import):
        # One module registers every study, so whichever module a fresh
        # interpreter imports first, the registry and its order are the same.
        script = (
            f"import json, {first_import}\n"
            "from repro.experiments.study import study_names\n"
            "print(json.dumps(study_names()))\n"
        )
        src_dir = Path(__file__).resolve().parents[2] / "src"
        output = subprocess.run([sys.executable, "-c", script],
                                env=dict(os.environ, PYTHONPATH=str(src_dir)),
                                capture_output=True, text=True, check=True)
        assert tuple(json.loads(output.stdout)) == ALL_STUDIES

    def test_definitions_are_complete(self):
        for name in study_names():
            definition = get_study(name)
            assert definition.title
            assert callable(definition.execute)
            assert callable(definition.tabulate)

    def test_unknown_study_rejected(self):
        with pytest.raises(ExperimentError, match="unknown study"):
            build_spec("table9")

    def test_unknown_parameter_rejected_loudly(self):
        with pytest.raises(ExperimentError, match="does not accept"):
            build_spec("table2", max_pies=6)

    @pytest.mark.parametrize("study, params", [
        ("table2", {"max_iterations": "abc"}),
        ("table2", {"simulate_measurement": 1}),
        ("table2", {"samples": 1.5}),
        ("scaling", {"rate_factor": "fast"}),
        ("steady-scaling", {"processor_counts": [1, 2.5]}),
        ("steady-scaling", {"cells_per_processor": 200}),
    ])
    def test_mistyped_parameter_rejected(self, study, params):
        (name, _), = params.items()
        with pytest.raises(ExperimentError,
                           match=f"{study!r} parameter {name!r} got"):
            build_spec(study, **params)

    def test_int_stands_for_float_and_list_for_tuple(self):
        assert build_spec("scaling", rate_factor=1) == build_spec("scaling")
        assert build_spec("scaling", rate_factor=2).params_dict \
            == {"rate_factor": 2}
        assert build_spec("steady-scaling", iteration_counts=[12, 100]) \
            == build_spec("steady-scaling")

    def test_unserializable_parameter_rejected(self):
        with pytest.raises(ExperimentError, match="not JSON/TOML-serializable"):
            build_spec("figure8", processor_counts=[object()])


class TestSpecCanonicalisation:
    def test_defaults_are_dropped(self):
        explicit = build_spec("table2", simulate_measurement=True,
                              max_iterations=12, max_pes=None)
        implicit = build_spec("table2")
        assert explicit == implicit
        assert explicit.spec_hash() == implicit.spec_hash()

    def test_default_machine_is_dropped(self):
        assert build_spec("figure8", machine="hypothetical-opteron-myrinet") \
            == build_spec("figure8")

    def test_lists_and_tuples_hash_equal(self):
        assert build_spec("figure8", processor_counts=[1, 4]) \
            == build_spec("figure8", processor_counts=(1, 4))

    def test_specs_are_hashable(self):
        assert len({build_spec("table1"), build_spec("table1"),
                    build_spec("table2")}) == 2

    def test_smoke_applies_reduced_grid(self):
        smoke = build_spec("table2").smoke()
        params = smoke.resolved_params()
        assert params["max_pes"] == 6
        assert params["max_iterations"] == 1

    def test_explicit_parameters_survive_smoke(self):
        params = build_spec("table2", max_pes=4).smoke().resolved_params()
        assert params["max_pes"] == 4
        assert params["max_iterations"] == 1
        noise = build_spec("noise-sensitivity", samples=5).smoke()
        assert noise.resolved_params()["samples"] == 5
        assert noise.resolved_params()["max_scenarios"] == 2


class TestSpecSerialization:
    @pytest.mark.parametrize("name", ALL_STUDIES)
    def test_default_specs_round_trip(self, name):
        spec = build_spec(name)
        assert StudySpec.from_toml(spec.to_toml()) == spec
        assert StudySpec.from_json(spec.to_json()) == spec

    def test_rich_spec_round_trips(self):
        spec = build_spec("figure8", machine="pentium3-myrinet",
                          processor_counts=[1, 4, 16], rate_factors=[1.0],
                          cache_dir="/tmp/cache",
                          analysis=("weak-scaling",))
        for rebuilt in (StudySpec.from_toml(spec.to_toml()),
                        StudySpec.from_json(spec.to_json())):
            assert rebuilt == spec
            assert rebuilt.spec_hash() == spec.spec_hash()

    def test_load_spec_files(self, tmp_path):
        spec = build_spec("table2", max_pes=6, max_iterations=2)
        toml_file = tmp_path / "spec.toml"
        toml_file.write_text(spec.to_toml())
        json_file = tmp_path / "spec.json"
        json_file.write_text(spec.to_json())
        assert load_spec(toml_file) == spec
        assert load_spec(json_file) == spec

    def test_bad_spec_files(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot read"):
            load_spec(tmp_path / "missing.toml")
        bad = tmp_path / "bad.toml"
        bad.write_text("= not toml at all [")
        with pytest.raises(ExperimentError, match="invalid study spec"):
            load_spec(bad)
        no_study = tmp_path / "nostudy.toml"
        no_study.write_text('machine = "opteron-gige"\n')
        with pytest.raises(ExperimentError, match="no 'study'"):
            load_spec(no_study)
        extra = tmp_path / "extra.toml"
        extra.write_text('study = "table2"\nfrobnicate = 1\n')
        with pytest.raises(ExperimentError, match="unknown fields"):
            load_spec(extra)

    def test_spec_naming_a_backend_is_rejected(self, tmp_path):
        # No executor reads a spec-level backend or worker count, so a spec
        # file that sets one fails loudly instead of changing the hash and
        # nothing else.
        for field, value, toml_value in (("backend", "predict", '"predict"'),
                                         ("workers", 2, "2")):
            data = {"study": "table1", field: value}
            spec_file = tmp_path / f"{field}.toml"
            spec_file.write_text(f'study = "table1"\n{field} = {toml_value}\n')
            for load in (lambda: StudySpec.from_dict(data),
                         lambda: StudySpec.from_toml(spec_file.read_text()),
                         lambda: load_spec(spec_file)):
                with pytest.raises(ExperimentError, match=field):
                    load()

    @pytest.mark.parametrize("path", sorted(
        (Path(__file__).resolve().parents[2] / "examples" / "specs").glob(
            "*.toml")), ids=lambda path: path.name)
    def test_example_spec_files_load_and_round_trip(self, path):
        spec = load_spec(path)
        rebuilt = StudySpec.from_toml(spec.to_toml())
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_spec_hash_stable_across_processes(self):
        spec = build_spec("table2", max_pes=6, max_iterations=2,
                          analysis=("error-stats",))
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.experiments.study import build_spec\n"
            "spec = build_spec('table2', max_pes=6, max_iterations=2,\n"
            "                  analysis=('error-stats',))\n"
            "print(spec.spec_hash())\n"
        )
        output = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, check=True,
                                cwd=str((__import__('pathlib').Path(__file__)
                                         .resolve().parents[2])))
        assert output.stdout.strip() == spec.spec_hash()


#: Every study's default and smoke spec hash.  Artifacts and shard sets
#: record these hashes and merging refuses a shard whose parent hashes
#: differently, so a drift strands every saved run; a deliberate change
#: updates the digests and says so.
PINNED_SPEC_HASHES = {
    ("table1", "default"):
        "475bf3daf29ac9f5f593e784d232a67fd01e252a13baf35100de36c8cf2dede4",
    ("table1", "smoke"):
        "56e1ebb6d0b736f786386367f9e1530b4e75a59961cdfac1eb2d541dd6f4c5a2",
    ("table2", "default"):
        "b1889843ab3ca9efc54b5c9d1c06f6c219d60c6ccfc0c787e19bcf7e2bfe4c58",
    ("table2", "smoke"):
        "4756334caefe9c59f5afe6b5ef4e07ef926475b1472295d2cd14a47dfa99e066",
    ("table3", "default"):
        "beb9479930af4b14953b40a1aff005672f74390c7cd86c83e3c256df73683922",
    ("table3", "smoke"):
        "f25afa0b051598724d5f09846d96f196bc50d2d6e469596a71737430d5835f6f",
    ("figure8", "default"):
        "fdb2cce3e6e5a79d2a13d24b2f4064ad18c998ee301dbee775cf8931aedb710e",
    ("figure8", "smoke"):
        "c4a5132fd1250078a1374d868ed1e9e9789891de64cc6984858df574e2a970c5",
    ("figure9", "default"):
        "b0ccb307679d6b854a4755efd4333e6fe90900d139ab4e9fb17c05e363fc0fcd",
    ("figure9", "smoke"):
        "d89f156c82e2aab257a2cc66fdf2d4c06967a9045dc9574c83b52f76a2377eb1",
    ("blocking", "default"):
        "5c762a4be6a120d09b951d491ca9b3dfabcf01ec038d77b1393878632ed89064",
    ("blocking", "smoke"):
        "cd81221f431665fe9e79eba48c3c421cd8a7902d50adf4d13f92f560a03f34d7",
    ("scaling", "default"):
        "07a1455034c3815eb9603e2a5406abee53b16d779bc638a904e713e4be724f8f",
    ("scaling", "smoke"):
        "a55dc0508e61ce3cc67112a97511b1e17323990d9217a71fc2a4d9ba6e450ded",
    ("ablation", "default"):
        "86c5e1c7d4f965d17b3178aa05edc0b14c95544e4ff9ac8e5a8b7fa4a8c05d83",
    ("ablation", "smoke"):
        "ed8679055e18354316d8a1089d9cc7ba7dfdfd3761382fa98a80e199e16e3cf5",
    ("agreement", "default"):
        "1790210a3c96fe5767270490699ded69fe2d41603b8c9261d7673c7d525d7cbd",
    ("agreement", "smoke"):
        "c374733ec52d9e0d0704ea8269efe205ecfc230e75ce0b778beb6220a4aae8f1",
    ("noise-sensitivity", "default"):
        "2bb38f7331f50fd42428c7b68c8b6768d7de07975fea5a11a1cc94a0ae9aa953",
    ("noise-sensitivity", "smoke"):
        "3686151b1d04f6ede920f2ea1e7c6e775f962c1a05282b0d5c4a52661c340cd4",
    ("steady-scaling", "default"):
        "6a3681e9a6730903851e4bb272ff43186c6cc5fecf11dda40e29ca0ef5819f07",
    ("steady-scaling", "smoke"):
        "f8b4234ed734ca128bc423a15fd42c60157e9c968b5f5438be1821e768527d98",
}


class TestSpecHashesArePinned:
    @pytest.mark.parametrize("name", ALL_STUDIES)
    @pytest.mark.parametrize("variant", ["default", "smoke"])
    def test_spec_hash_is_pinned(self, name, variant):
        spec = build_spec(name)
        if variant == "smoke":
            spec = spec.smoke()
        assert spec.spec_hash() == PINNED_SPEC_HASHES[name, variant]

    def test_every_registered_study_is_pinned(self):
        assert {name for name, _ in PINNED_SPEC_HASHES} == set(study_names())

    def test_cache_dir_is_not_part_of_the_hash(self):
        spec = build_spec("table2")
        for cache_dir in ("/tmp/cache-a", "cache-b"):
            cached = spec.with_overrides(cache_dir=cache_dir)
            assert cached.to_dict()["cache_dir"] == cache_dir
            assert cached.spec_hash() == PINNED_SPEC_HASHES["table2",
                                                            "default"]


class TestRoundTrippedRunsAreBitIdentical:
    def test_table_spec_round_trip_runs_identically(self):
        spec = build_spec("table2", max_pes=6, max_iterations=2)
        direct = run_study(spec)
        rebuilt = run_study(StudySpec.from_toml(spec.to_toml()))
        assert [row.predicted for row in direct.payload.rows] \
            == [row.predicted for row in rebuilt.payload.rows]
        assert [row.measured for row in direct.payload.rows] \
            == [row.measured for row in rebuilt.payload.rows]

    def test_figure_spec_round_trip_runs_identically(self):
        spec = build_spec("figure8", processor_counts=[1, 4],
                          rate_factors=[1.0, 1.5])
        direct = run_study(spec)
        rebuilt = run_study(StudySpec.from_json(spec.to_json()))
        assert [series.times for series in direct.payload.series] \
            == [series.times for series in rebuilt.payload.series]


class TestSpecsMatchDirectExecutors:
    """A spec run is bit-identical to its executor called with the same
    arguments: the registry forwards every parameter, machine and study
    choice unchanged."""

    def test_table_spec_matches_impl(self):
        via_spec = run_study(build_spec("table2", max_pes=6,
                                        max_iterations=2)).payload
        direct = _run_table_impl("table2", StudyContext(),
                                 get_machine("opteron-gige"), max_pes=6,
                                 max_iterations=2)
        assert [row.predicted for row in via_spec.rows] \
            == [row.predicted for row in direct.rows]
        assert [row.measured for row in via_spec.rows] \
            == [row.measured for row in direct.rows]

    def test_figure_spec_matches_impl(self):
        via_spec = run_study(build_spec("figure9", processor_counts=[1, 4],
                                        rate_factors=[1.0, 1.25])).payload
        direct = _run_speculative_figure_impl(
            FIGURE9_STUDY, StudyContext(),
            get_machine("hypothetical-opteron-myrinet"),
            processor_counts=[1, 4], rate_factors=[1.0, 1.25])
        assert [series.times for series in via_spec.series] \
            == [series.times for series in direct.series]

    def test_blocking_spec_matches_impl(self):
        params = dict(px=4, py=4, mk_values=(1, 10), mmi_values=(1, 3),
                      max_iterations=2)
        via_spec = run_study(build_spec("blocking", **params)).payload
        direct = _run_blocking_impl(
            StudyContext(), get_machine("hypothetical-opteron-myrinet"),
            **params)
        assert [p.predicted_time for p in via_spec.points] \
            == [p.predicted_time for p in direct.points]

    def test_blocking_spec_on_another_machine_matches_impl(self):
        params = dict(px=2, py=2, cells_per_processor=(5, 5, 20),
                      mk_values=(1, 10), mmi_values=(1, 3), max_iterations=1)
        via_spec = run_study(build_spec("blocking", machine="pentium3-myrinet",
                                        **params)).payload
        direct = _run_blocking_impl(StudyContext(),
                                    machine=get_machine("pentium3-myrinet"),
                                    **params)
        assert via_spec.machine_name == direct.machine_name == "pentium3-myrinet"
        assert [p.predicted_time for p in via_spec.points] \
            == [p.predicted_time for p in direct.points]

    def test_scaling_spec_matches_impl(self):
        via_spec = run_study(build_spec("scaling", figure="figure9",
                                        processor_counts=(1, 16),
                                        rate_factor=1.5)).payload
        direct = _run_scaling_impl(StudyContext(),
                                   get_machine("hypothetical-opteron-myrinet"),
                                   study=FIGURE9_STUDY,
                                   processor_counts=(1, 16), rate_factor=1.5)
        assert [p.time for p in via_spec.points] == [p.time for p in direct.points]

    def test_ablation_spec_matches_impl(self):
        via_spec = run_study(build_spec("ablation", max_iterations=2)).payload
        direct = _run_opcode_ablation_impl(StudyContext(),
                                           get_machine("opteron-gige"),
                                           max_iterations=2)
        assert via_spec.coarse_prediction == direct.coarse_prediction
        assert via_spec.legacy_prediction == direct.legacy_prediction
        assert via_spec.measured == direct.measured

    def test_agreement_spec_matches_impl(self):
        via_spec = run_study(build_spec("agreement",
                                        processor_counts=[16, 64])).payload
        direct = _run_model_agreement_impl(
            StudyContext(), get_machine("hypothetical-opteron-myrinet"),
            processor_counts=[16, 64])
        assert [c.pace for c in via_spec.comparisons] \
            == [c.pace for c in direct.comparisons]
        assert [c.loggp for c in via_spec.comparisons] \
            == [c.loggp for c in direct.comparisons]

    def test_parameter_of_another_study_fails_loudly(self):
        # ``rate_factor`` belongs to ``scaling``; ``figure8`` takes a list.
        with pytest.raises(ExperimentError, match="does not accept"):
            build_spec("figure8", rate_factor=1.5)


class TestStudyRunner:
    def test_run_by_name_uses_default_spec(self):
        result = StudyRunner().run(build_spec("scaling",
                                              processor_counts=(1, 4)))
        assert result.spec.study == "scaling"
        assert [row["processors"] for row in result.rows] == [1, 4]

    def test_run_many_shares_context(self):
        runner = StudyRunner()
        ctx = StudyContext()
        first = runner.run(build_spec("figure8", processor_counts=[1, 4],
                                      rate_factors=[1.0]), context=ctx)
        compiled = ctx.compiled_model()
        second = runner.run(build_spec("figure9", processor_counts=[1, 4],
                                       rate_factors=[1.0]), context=ctx)
        assert ctx.compiled_model() is compiled
        assert first.machine_name == second.machine_name \
            == "hypothetical-opteron-myrinet"
        assert first.machine_fingerprint == second.machine_fingerprint

    def test_studies_of_one_machine_run_one_mpi_campaign(self, monkeypatch):
        # table2 and the ablation both run on opteron-gige: without a cache
        # directory the context's one machine fits its MPI model once.
        campaigns = []
        run = MpiBenchmark.run

        def counting_run(self, *args, **kwargs):
            campaigns.append(self.topology.name)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(MpiBenchmark, "run", counting_run)
        StudyRunner().run_many(["table2", "ablation"], smoke=True)
        assert len(campaigns) == 1

    def test_shared_cache_spans_studies(self, tmp_path):
        runner = StudyRunner(cache_dir=str(tmp_path / "store"))
        spec = build_spec("table2", max_pes=6, max_iterations=1)
        cold, warm = runner.run_many([spec, spec])
        assert cold.disk_stats.stores > 0
        assert warm.disk_stats.hits > 0
        assert warm.disk_stats.misses == 0
        assert [row.measured for row in cold.payload.rows] \
            == [row.measured for row in warm.payload.rows]

    def test_runner_overrides_apply(self, tmp_path):
        runner = StudyRunner(cache_dir=str(tmp_path))
        result = runner.run(build_spec("table2", max_pes=6, max_iterations=1))
        assert result.spec.cache_dir == str(tmp_path)

    def test_workers_match_serial(self):
        """Shard workers, each on its own context, match one serial run."""
        spec = build_spec("table2", max_pes=6, max_iterations=1)
        serial = run_study(spec)
        fanned = merge_study_results(
            StudyRunner(context=StudyContext()).run(shard.spec)
            for shard in plan_shards(spec, 2).shards)
        assert fanned.spec == serial.spec
        assert fanned.columns == serial.columns
        assert fanned.rows == serial.rows

    def test_repeated_studies_leave_no_runner_on_the_context(self):
        # A long-lived context (the service's, a fleet worker's) runs study
        # after study; the sweep runners hold plans and compiled traces, so
        # each study's runners go once its accounting is aggregated.
        ctx = StudyContext()
        runner = StudyRunner(context=ctx)
        spec = build_spec("table2", max_pes=4, max_iterations=1)
        results = [runner.run(spec) for _ in range(3)]
        assert ctx._runners == []
        assert [result.rows for result in results[1:]] \
            == [results[0].rows] * 2
        assert results[0].cache_stats.predictions > 0
        with pytest.raises(ExperimentError):
            runner.run(build_spec("table2", max_pes=4, max_iterations=1,
                                  rows=[99]))
        assert ctx._runners == []

    def test_run_all_smoke_covers_every_study(self):
        results = StudyRunner().run_all(smoke=True)
        assert [result.spec.study for result in results] == list(ALL_STUDIES)
        for result in results:
            assert result.rows, f"{result.spec.study} produced no rows"
            assert result.columns
            assert result.spec_hash
            assert result.elapsed_s >= 0
            json.dumps(result.to_dict(), allow_nan=False)  # strict JSON

    def test_result_describe_renders(self):
        result = run_study(build_spec("table2", max_pes=6, max_iterations=1,
                                      simulate_measurement=False))
        assert "table2" in result.describe()


class TestAnalysisHooks:
    def test_error_stats_hook(self):
        spec = build_spec("table2", max_pes=6, max_iterations=1,
                          simulate_measurement=False,
                          analysis=("error-stats",))
        result = run_study(spec)
        assert "error-stats" in result.analysis
        assert "max_abs_error_pct" in result.analysis["error-stats"]

    def test_weak_scaling_hook_on_figure(self):
        spec = build_spec("figure8", processor_counts=[1, 4, 16],
                          rate_factors=[1.0], analysis=("weak-scaling",))
        result = run_study(spec)
        assert "x1" in result.analysis["weak-scaling"]
        assert 0 < result.analysis["weak-scaling"]["x1"]["final_efficiency"] <= 1

    def test_unknown_hook_rejected(self):
        spec = build_spec("table2", max_pes=4, max_iterations=1,
                          simulate_measurement=False,
                          analysis=("no-such-hook",))
        with pytest.raises(ExperimentError, match="unknown analysis hook"):
            run_study(spec)


class TestReviewRegressions:
    def test_disk_stats_survive_worker_fanout(self, tmp_path):
        """Shard workers' disk I/O lands in the merged study's accounting."""
        spec = build_spec("table2", max_pes=6, max_iterations=1,
                          cache_dir=str(tmp_path / "store"))
        shard_specs = [shard.spec for shard in plan_shards(spec, 2).shards]
        cold_shards = [run_study(shard_spec) for shard_spec in shard_specs]
        cold = merge_study_results(cold_shards)
        assert cold.disk_stats.stores \
            == sum(shard.disk_stats.stores for shard in cold_shards) > 0
        warm = merge_study_results(run_study(shard_spec)
                                   for shard_spec in shard_specs)
        assert warm.disk_stats.hits > 0
        assert warm.disk_stats.misses == 0

    def test_run_many_honours_each_specs_cache_dir(self, tmp_path):
        from repro.experiments.diskcache import SweepDiskCache
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        specs = [build_spec("table2", max_pes=4, max_iterations=1,
                            cache_dir=str(dir_a)),
                 build_spec("table3", max_pes=4, max_iterations=1,
                            cache_dir=str(dir_b))]
        StudyRunner().run_many(specs)
        assert len(SweepDiskCache(dir_a)) > 0
        assert len(SweepDiskCache(dir_b)) > 0

    def test_spec_without_cache_dir_stays_uncached(self, tmp_path):
        from repro.experiments.diskcache import SweepDiskCache
        cached = build_spec("table2", max_pes=4, max_iterations=1,
                            cache_dir=str(tmp_path / "only"))
        uncached = build_spec("table3", max_pes=4, max_iterations=1)
        StudyRunner().run_many([cached, uncached])
        store = SweepDiskCache(tmp_path / "only")
        # Only table2's prediction + measurement entries, nothing of table3's.
        keys = [pickle_key for pickle_key in store.entries()]
        assert len(keys) > 0
        rerun = run_study(cached)
        assert rerun.disk_stats.misses == 0

    def test_manifest_machine_follows_the_actual_run(self):
        """Overriding the ablation's table moves the recorded machine too."""
        result = run_study(build_spec("ablation", table="table1",
                                      max_iterations=1))
        assert result.payload.machine_name == "pentium3-myrinet"
        assert result.machine_name == "pentium3-myrinet"
        default = run_study(build_spec("ablation", max_iterations=1))
        assert default.machine_name == "opteron-gige"
        assert result.machine_fingerprint != default.machine_fingerprint


class TestExecutionTierAccounting:
    """Per-study execution-tier counts (steady/replay/engine bookkeeping)."""

    @pytest.fixture(scope="class")
    def steady_smoke(self):
        return run_study(build_spec("steady-scaling").smoke())

    def test_steady_scaling_smoke_runs_on_the_steady_tier(self, steady_smoke):
        assert steady_smoke.execution == {"steady": 2}
        assert len(steady_smoke.rows) == 2

    def test_execution_counts_survive_to_dict(self, steady_smoke):
        assert steady_smoke.to_dict()["execution"] == {"steady": 2}

    def test_execution_counts_round_trip_through_artifacts(self, steady_smoke,
                                                           tmp_path):
        from repro.experiments.artifacts import (
            load_study_results,
            write_study_artifacts,
        )
        write_study_artifacts([steady_smoke], tmp_path)
        reloaded = load_study_results(tmp_path)[0]
        assert reloaded.execution == steady_smoke.execution

    def test_merged_shards_sum_execution_counts(self, steady_smoke):
        from repro.experiments.sharding import merge_study_results, plan_shards
        plan = plan_shards(build_spec("steady-scaling").smoke(), 2)
        runner = StudyRunner()
        shards = [runner.run(shard.spec) for shard in plan.shards]
        merged = merge_study_results(shards)
        assert merged.execution == steady_smoke.execution
        assert merged.rows == steady_smoke.rows

    def test_forced_engine_execution_is_bit_identical(self, steady_smoke):
        engine = run_study(build_spec("steady-scaling",
                                      sim_execution="engine").smoke())
        assert engine.execution == {"engine": 2}
        assert engine.rows == steady_smoke.rows

    def test_table_studies_report_replay_tier(self):
        result = run_study(build_spec("table2", max_pes=6, max_iterations=1))
        # The validation tables run noisy measurements: the steady tier
        # refuses them and the auto mode serves every scenario by replay.
        assert set(result.execution) == {"replay"}
        assert sum(result.execution.values()) > 0
