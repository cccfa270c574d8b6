"""Tests for the command line interface."""

import pytest

from repro.cli import main

#: Commands that fail on a domain error, and the message each names.
DOMAIN_ERRORS = [
    ("run nosuch", "unknown study 'nosuch'"),
    ("shard plan nosuch --shards 2", "unknown study 'nosuch'"),
    ("shard plan table1 --shards 0", "a shard plan needs at least one shard"),
    ("hmcl --machine nosuch", "unknown machine 'nosuch'"),
    ("predict --machine nosuch", "unknown machine 'nosuch'"),
    ("simulate --machine nosuch", "unknown machine 'nosuch'"),
    ("predict --machine opteron --px 2 --py 2 --iterations 0",
     "max_iterations must be >= 1"),
    ("predict --machine opteron --px 0", "processor array px must be >= 1 (got 0)"),
    ("run table2 --set max_iterations=abc",
     "study 'table2' parameter 'max_iterations' got 'abc'"),
    ("run steady-scaling --set processor_counts=[1,2.5]",
     "study 'steady-scaling' parameter 'processor_counts' got (1, 2.5)"),
    ("run table2 --set max_pes=abc",
     "table2 parameter 'max_pes' must be an integer >= 1, got 'abc'"),
    ("run table2 --smoke --set max_pes=abc",
     "table2 parameter 'max_pes' must be an integer >= 1, got 'abc'"),
    ("run table2 --set max_pes=0",
     "table2 parameter 'max_pes' must be an integer >= 1, got 0"),
    ("run table2 --set rows=5",
     "table2 parameter 'rows' must be a list of row indices, got 5"),
]


class TestCli:
    def test_machines_listing(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "pentium3-myrinet" in out
        assert "hypothetical-opteron-myrinet" in out

    def test_predict_command(self, capsys):
        assert main(["predict", "--machine", "opteron", "--px", "2", "--py", "2",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "prediction for sweep3d" in out
        assert "sweep" in out

    def test_simulate_command(self, capsys):
        assert main(["simulate", "--machine", "pentium3", "--px", "2", "--py", "2",
                     "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "simulated run time" in out

    def test_simulate_numeric_small(self, capsys):
        assert main(["simulate", "--machine", "pentium3", "--px", "2", "--py", "2",
                     "--deck", "mini", "--iterations", "2", "--numeric"]) == 0
        out = capsys.readouterr().out
        assert "flux error" in out

    def test_table_command_prediction_only(self, capsys):
        assert main(["run", "table2", "--set", "max_pes=6",
                     "--set", "max_iterations=2",
                     "--set", "simulate_measurement=false"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "100x100x50" in out

    def test_table_command_with_measurement(self, capsys):
        assert main(["run", "table2", "--set", "max_pes=4",
                     "--set", "max_iterations=2"]) == 0
        out = capsys.readouterr().out
        assert "Error(%)" in out

    def test_figure_command(self, capsys):
        assert main(["run", "figure8",
                     "--set", "processor_counts=[1,2,4,8,16]"]) == 0
        out = capsys.readouterr().out
        assert "twenty million cell" in out
        assert "340 MFLOPS" in out

    def test_ablation_command(self, capsys):
        assert main(["run", "ablation", "--set", "max_iterations=2"]) == 0
        out = capsys.readouterr().out
        assert "legacy" in out

    def test_hmcl_command(self, capsys):
        assert main(["hmcl", "--machine", "altix"]) == 0
        out = capsys.readouterr().out
        assert "hardware altix-itanium2" in out
        assert "mpi" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_machine_raises(self, capsys):
        assert main(["predict", "--machine", "cray-xmp"]) == 2
        assert "unknown machine 'cray-xmp'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", DOMAIN_ERRORS,
                             ids=[command for command, _ in DOMAIN_ERRORS])
    def test_domain_error_is_one_line_and_exit_2(self, capsys, command, message):
        assert main(command.split()) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1


class TestSimulateGridCli:
    def test_grid_through_simulation_backend(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "sweep-cache")
        args = ["simulate", "--machine", "pentium3", "--arrays", "1x1,2x2",
                "--iterations", "1", "--cache-dir", cache_dir]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "'simulate' backend" in out
        assert "1x1" in out and "2x2" in out
        assert "0 hit(s) / 2 miss(es), 2 store(s)" in out

        # Warm second run: every point served from the shared disk store.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 hit(s) / 0 miss(es), 0 store(s)" in out

    def test_grid_through_prediction_backend(self, capsys):
        assert main(["simulate", "--machine", "pentium3", "--arrays", "1x1,2x2",
                     "--iterations", "1", "--backend", "predict"]) == 0
        out = capsys.readouterr().out
        assert "'predict' backend" in out
        assert "Predicted" in out

    def test_bad_arrays_rejected(self, capsys):
        assert main(["simulate", "--arrays", "2by2"]) == 2
        assert main(["simulate", "--arrays", ","]) == 2
        assert main(["simulate", "--arrays", "0x2"]) == 2

    def test_bad_workers_rejected(self, capsys):
        # A grid runs in one process; shards and the fleet spread it, so
        # simulate has no --workers option left to take any value.
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--arrays", "1x1", "--workers", "0"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_unknown_backend_rejected(self, capsys):
        assert main(["simulate", "--arrays", "1x1", "--backend", "warp"]) == 2
        assert "available" in capsys.readouterr().out


class TestSampledSimulateCli:
    def test_single_run_reports_noise_spread(self, capsys):
        assert main(["simulate", "--machine", "pentium3", "--px", "2",
                     "--py", "2", "--iterations", "1", "--samples", "6"]) == 0
        out = capsys.readouterr().out
        assert "simulated run time" in out
        assert "noise spread over 6 seed(s)" in out
        assert "95% CI" in out

    def test_grid_gains_mean_and_ci_columns(self, capsys):
        assert main(["simulate", "--machine", "pentium3", "--arrays",
                     "1x1,2x2", "--iterations", "1", "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 sample(s)/point" in out
        assert "Mean" in out and "95% CI" in out

    def test_predict_backend_rejects_samples(self, capsys):
        assert main(["simulate", "--arrays", "1x1", "--backend", "predict",
                     "--samples", "4"]) == 2
        assert "simulate backend" in capsys.readouterr().out

    def test_engine_execution_rejects_samples(self, capsys):
        assert main(["simulate", "--machine", "pentium3", "--px", "1",
                     "--py", "1", "--iterations", "1", "--execution",
                     "engine", "--samples", "2"]) == 2
        assert "batched trace replay" in capsys.readouterr().out


class TestSteadySimulateCli:
    def test_steady_execution_noise_free(self, capsys):
        assert main(["simulate", "--machine", "steady", "--px", "2",
                     "--py", "2", "--iterations", "12", "--no-noise",
                     "--execution", "steady"]) == 0
        out = capsys.readouterr().out
        assert "simulated run time" in out
        assert "execution tier: steady" in out

    def test_steady_with_noise_falls_back_to_replay(self, capsys):
        assert main(["simulate", "--machine", "steady", "--px", "2",
                     "--py", "2", "--iterations", "12",
                     "--execution", "steady"]) == 0
        assert "execution tier: replay" in capsys.readouterr().out

    def test_describe_trace_reports_period(self, capsys):
        assert main(["simulate", "--machine", "steady", "--px", "2",
                     "--py", "2", "--iterations", "12",
                     "--describe-trace"]) == 0
        out = capsys.readouterr().out
        assert "2x2: capture: periodic, recorded 2 of 12 iteration(s)" in out
        assert "warm-up 3 + period 974 + drain 971 event(s)" in out
        assert "steady-eligible" in out

    def test_describe_trace_reports_the_refusal(self, capsys):
        assert main(["simulate", "--machine", "hypothetical-opteron-myrinet",
                     "--px", "2", "--py", "2", "--iterations", "12",
                     "--describe-trace"]) == 0
        out = capsys.readouterr().out
        assert "2x2: steady refuses: durations are not integer multiples" \
            in out

    def test_describe_trace_needs_simulate_backend(self, capsys):
        assert main(["simulate", "--machine", "steady", "--px", "2",
                     "--py", "2", "--backend", "predict",
                     "--describe-trace"]) == 2
        assert "simulate backend" in capsys.readouterr().out


class TestStudyCli:
    def test_studies_listing(self, capsys):
        assert main(["studies"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "figure8", "blocking", "scaling",
                     "ablation", "agreement"):
            assert name in out

    def test_studies_json_listing(self, capsys):
        import json as json_module
        assert main(["studies", "--json"]) == 0
        listing = json_module.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in listing}
        from repro.experiments.study import study_names
        assert sorted(by_name) == sorted(study_names())
        table1 = by_name["table1"]
        assert table1["machine"] == "pentium3-myrinet"
        assert "backend" not in table1
        assert table1["defaults"]["max_iterations"] == 12
        assert table1["smoke"]["max_pes"] == 6
        assert table1["shard_axis"] == "rows"
        noise = by_name["noise-sensitivity"]
        assert noise["defaults"]["samples"] == 16
        assert noise["smoke"]["samples"] == 2

    def test_run_samples_flag(self, capsys):
        assert main(["run", "table1", "--smoke", "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "== table1" in out
        assert main(["run", "table1", "--samples", "-1"]) == 2
        assert "--samples must be >= 0" in capsys.readouterr().out

    def test_run_samples_flag_skips_studies_without_the_param(self, capsys):
        # figure8 has no samples parameter; the flag must not crash the
        # multi-study invocation like an unknown --set override would.
        assert main(["run", "table2", "figure8", "--smoke",
                     "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "== table2" in out and "== figure8" in out

    def test_run_named_study_smoke(self, capsys):
        assert main(["run", "table2", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "== table2" in out
        assert "100x100x50" in out

    def test_run_with_set_overrides(self, capsys):
        assert main(["run", "table2", "--set", "max_pes=4",
                     "--set", "max_iterations=1",
                     "--set", "simulate_measurement=false"]) == 0
        out = capsys.readouterr().out
        assert "1 row(s)" in out

    def test_run_bad_set_override(self, capsys):
        assert main(["run", "table2", "--set", "max_pies=4"]) == 2
        assert "not accepted by any" in capsys.readouterr().out
        assert main(["run", "table2", "--set", "nonsense"]) == 2
        assert "bad --set" in capsys.readouterr().out

    def test_set_survives_smoke(self, capsys, tmp_path):
        import json
        out_dir = tmp_path / "artifacts"
        assert main(["run", "table2", "--smoke", "--set", "max_pes=4",
                     "--out", str(out_dir)]) == 0
        artifact = json.loads((out_dir / "table2.json").read_text())
        assert [row["pes"] for row in artifact["rows"]] == [4]
        assert artifact["spec"]["params"] == {"max_iterations": 1,
                                              "max_pes": 4}

    def test_samples_survive_smoke(self, capsys, tmp_path):
        # --samples is an explicit parameter, so it beats the smoke grid's
        # samples=2 while the grid itself stays reduced.
        import json
        out_dir = tmp_path / "artifacts"
        assert main(["run", "noise-sensitivity", "--smoke", "--samples", "3",
                     "--out", str(out_dir)]) == 0
        artifact = json.loads((out_dir / "noise-sensitivity.json").read_text())
        params = artifact["spec"]["params"]
        assert params["samples"] == 3
        assert params["max_scenarios"] == 2
        assert 3 in {row["samples"] for row in artifact["rows"]}
        assert {row["samples"] for row in artifact["rows"]} <= {0, 3}

    def test_run_has_no_workers_option(self, capsys):
        # A study runs in one process; shards and the fleet spread a grid.
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "table2", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_run_all_with_partial_overrides(self, capsys):
        # max_iterations only exists for some studies; the override applies
        # where accepted instead of crashing the whole invocation.
        assert main(["run", "table2", "figure8", "--smoke",
                     "--set", "max_pes=4"]) == 0
        out = capsys.readouterr().out
        assert "== table2" in out and "== figure8" in out

    def test_run_spec_file_with_artifacts(self, capsys, tmp_path):
        from repro.experiments.study import build_spec
        spec_file = tmp_path / "my-study.toml"
        spec_file.write_text(build_spec("table2", max_pes=4,
                                        max_iterations=1).to_toml())
        out_dir = tmp_path / "artifacts"
        assert main(["run", str(spec_file), "--out", str(out_dir)]) == 0
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "table2.json").exists()
        assert (out_dir / "table2.csv").exists()
        out = capsys.readouterr().out
        assert "manifest.json" in out

    def test_run_all_smoke_writes_every_artifact(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        assert main(["run", "--all", "--smoke", "--out", str(out_dir)]) == 0
        import json
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert [e["study"] for e in manifest["studies"]] == [
            "table1", "table2", "table3", "figure8", "figure9",
            "blocking", "scaling", "ablation", "agreement",
            "noise-sensitivity", "steady-scaling"]
        for entry in manifest["studies"]:
            assert (out_dir / entry["artifacts"]["csv"]).exists()

    def test_run_all_smoke_is_one_workload_across_cache_dirs(self, capsys,
                                                             tmp_path):
        # Where a host keeps its cache is no part of a spec's identity.
        from repro.experiments.artifacts import compare_artifact_dirs
        for name in ("a", "b"):
            assert main(["run", "--all", "--smoke",
                         "--cache-dir", str(tmp_path / f"cache-{name}"),
                         "--out", str(tmp_path / name)]) == 0
        assert compare_artifact_dirs(tmp_path / "a", tmp_path / "b") == []

    def test_run_without_studies_errors(self, capsys):
        assert main(["run"]) == 2
        assert "nothing to run" in capsys.readouterr().out

    def test_run_with_shared_cache_dir(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "store")
        args = ["run", "table2", "--smoke", "--cache-dir", cache_dir]
        assert main(args) == 0
        assert "store(s)" in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 miss(es)" in out


class TestCacheCli:
    def test_stats_and_prune(self, capsys, tmp_path):
        from repro.experiments.diskcache import SweepDiskCache
        cache = SweepDiskCache(tmp_path / "store")
        for index in range(4):
            cache.put(("entry", index), index)

        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "entries: 4" in out

        assert main(["cache", "prune", "--cache-dir", str(tmp_path / "store"),
                     "--max-entries", "1"]) == 0
        out = capsys.readouterr().out
        assert "pruned 3 entries" in out
        assert len(cache) == 1

    def test_stats_and_prune_cover_the_hardware_store(self, capsys, tmp_path):
        from repro.experiments.diskcache import HardwareStore
        cache_dir = str(tmp_path / "store")
        assert main(["run", "table2", "--smoke", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        store = HardwareStore(tmp_path / "store" / "hardware")
        assert len(store) == 2

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "hardware entries: 2" in out
        assert f"hardware total bytes: {store.total_bytes()}" in out

        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--max-entries", "1"]) == 0
        out = capsys.readouterr().out
        assert "hardware: pruned 1 entry, kept 1" in out
        assert len(store) == 1

    def test_prune_requires_a_limit(self, capsys, tmp_path):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--max-entries" in capsys.readouterr().out


class TestShardCli:
    def test_shard_plan_prints_the_split(self, capsys):
        assert main(["shard", "plan", "table1", "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "axis 'rows'" in out
        assert "3 shard(s)" in out
        assert "shard 0/3" in out and "shard 2/3" in out

    def test_shard_plan_writes_runnable_specs(self, capsys, tmp_path):
        assert main(["shard", "plan", "scaling", "--shards", "2", "--smoke",
                     "--out", str(tmp_path)]) == 0
        spec_files = sorted(tmp_path.glob("scaling-shard*.toml"))
        assert len(spec_files) == 2
        out_dir = tmp_path / "artifacts"
        assert main(["run", str(spec_files[0]), "--out", str(out_dir)]) == 0
        entry = __import__("json").loads(
            (out_dir / "manifest.json").read_text())["studies"][0]
        assert entry["sharding"]["shard_index"] == 0

    def test_shard_plan_accepts_spec_files(self, capsys, tmp_path):
        from repro.experiments.study import build_spec
        spec_file = tmp_path / "figure8.toml"
        spec_file.write_text(
            build_spec("figure8", processor_counts=[1, 4, 16]).to_toml())
        assert main(["shard", "plan", str(spec_file), "--shards", "2"]) == 0
        assert "2 shard(s)" in capsys.readouterr().out

    def test_run_shard_selector_validation(self, capsys):
        assert main(["run", "table2", "--shard", "nonsense"]) == 2
        assert "bad --shard" in capsys.readouterr().out
        assert main(["run", "table2", "--shard", "4/4"]) == 2
        assert "bad --shard" in capsys.readouterr().out

    def test_run_shard_without_work_writes_empty_manifest(self, capsys,
                                                          tmp_path):
        # The smoke ablation grid is one unit; shard 3 of 4 has no work but
        # still publishes a manifest for the fleet collector.
        out_dir = tmp_path / "idle"
        assert main(["run", "ablation", "--smoke", "--shard", "3/4",
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "no work here" in out
        manifest = __import__("json").loads(
            (out_dir / "manifest.json").read_text())
        assert manifest["studies"] == []

    def test_sharded_matrix_merges_bit_identically(self, capsys, tmp_path):
        """The CI flow in miniature: 3 shards + merge + --expect."""
        for index in range(3):
            assert main(["run", "table2", "figure8", "--smoke",
                         "--shard", f"{index}/3",
                         "--out", str(tmp_path / f"shard-{index}")]) == 0
        assert main(["run", "table2", "figure8", "--smoke",
                     "--out", str(tmp_path / "reference")]) == 0
        capsys.readouterr()
        assert main(["merge"] + [str(tmp_path / f"shard-{i}")
                                 for i in range(3)]
                    + ["--out", str(tmp_path / "merged"),
                       "--expect", str(tmp_path / "reference")]) == 0
        out = capsys.readouterr().out
        assert "matches" in out
        assert (tmp_path / "merged" / "table2.csv").read_bytes() \
            == (tmp_path / "reference" / "table2.csv").read_bytes()

    def test_shards_with_their_own_cache_dirs_merge(self, capsys, tmp_path):
        for index in range(2):
            assert main(["run", "table2", "--smoke", "--shard", f"{index}/2",
                         "--cache-dir", str(tmp_path / f"cache-{index}"),
                         "--out", str(tmp_path / f"shard-{index}")]) == 0
        assert main(["run", "table2", "--smoke",
                     "--out", str(tmp_path / "reference")]) == 0
        capsys.readouterr()
        assert main(["merge", str(tmp_path / "shard-0"),
                     str(tmp_path / "shard-1"),
                     "--out", str(tmp_path / "merged"),
                     "--expect", str(tmp_path / "reference")]) == 0
        assert "matches" in capsys.readouterr().out

    def test_merge_expect_mismatch_fails(self, capsys, tmp_path):
        assert main(["run", "scaling", "--smoke", "--shard", "0/2",
                     "--out", str(tmp_path / "shard-0")]) == 0
        assert main(["run", "scaling", "--smoke", "--shard", "1/2",
                     "--out", str(tmp_path / "shard-1")]) == 0
        assert main(["run", "scaling", "--set", "processor_counts=[1,4]",
                     "--out", str(tmp_path / "other")]) == 0
        capsys.readouterr()
        assert main(["merge", str(tmp_path / "shard-0"),
                     str(tmp_path / "shard-1"),
                     "--out", str(tmp_path / "merged"),
                     "--expect", str(tmp_path / "other")]) == 1
        assert "does NOT match" in capsys.readouterr().out

    def test_merge_incomplete_fleet_fails(self, capsys, tmp_path):
        assert main(["run", "scaling", "--smoke", "--shard", "0/2",
                     "--out", str(tmp_path / "shard-0")]) == 0
        capsys.readouterr()
        assert main(["merge", str(tmp_path / "shard-0"),
                     "--out", str(tmp_path / "merged")]) == 2
        assert "merge failed" in capsys.readouterr().out

    def test_merge_expect_missing_reference_is_clean(self, capsys, tmp_path):
        assert main(["run", "ablation", "--smoke", "--shard", "0/1",
                     "--out", str(tmp_path / "shard-0")]) == 0
        capsys.readouterr()
        assert main(["merge", str(tmp_path / "shard-0"),
                     "--out", str(tmp_path / "merged"),
                     "--expect", str(tmp_path / "no-such-dir")]) == 2
        assert "cannot compare against" in capsys.readouterr().out

    def test_merge_corrupt_manifest_is_a_clean_error(self, capsys, tmp_path):
        assert main(["run", "ablation", "--smoke", "--shard", "0/1",
                     "--out", str(tmp_path / "shard-0")]) == 0
        (tmp_path / "shard-0" / "manifest.json").write_text("{not json")
        capsys.readouterr()
        assert main(["merge", str(tmp_path / "shard-0"),
                     "--out", str(tmp_path / "merged")]) == 2
        out = capsys.readouterr().out
        assert "merge failed" in out
        assert "not valid JSON" in out
        assert "Traceback" not in out

    def test_merge_truncated_manifest_entry_is_a_clean_error(self, capsys,
                                                             tmp_path):
        import json
        assert main(["run", "ablation", "--smoke", "--shard", "0/1",
                     "--out", str(tmp_path / "shard-0")]) == 0
        manifest_path = tmp_path / "shard-0" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["studies"][0]["spec_hash"]
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["merge", str(tmp_path / "shard-0"),
                     "--out", str(tmp_path / "merged")]) == 2
        out = capsys.readouterr().out
        assert "merge failed" in out
        assert "missing required field" in out
        assert "Traceback" not in out


class TestFleetCli:
    def test_fleet_serve_with_worker_threads_matches_reference(self, capsys,
                                                               tmp_path):
        """The elastic CI flow in miniature: serve + 2 workers + --expect."""
        import threading
        assert main(["run", "table2", "--smoke",
                     "--out", str(tmp_path / "reference")]) == 0
        fleet_dir = tmp_path / "fleet"
        workers = [
            threading.Thread(target=main, args=(
                ["fleet", "work", "--fleet-dir", str(fleet_dir),
                 "--worker-id", f"w{n}", "--poll", "0.02",
                 "--wait-timeout", "30"],))
            for n in range(2)
        ]
        [w.start() for w in workers]
        try:
            code = main(["fleet", "serve", "table2", "--smoke",
                         "--fleet-dir", str(fleet_dir), "--poll", "0.02",
                         "--timeout", "120",
                         "--out", str(tmp_path / "merged"),
                         "--expect", str(tmp_path / "reference")])
        finally:
            [w.join(timeout=60) for w in workers]
        assert code == 0
        out = capsys.readouterr().out
        assert "enqueued 2 unit(s)" in out
        assert "matches" in out
        assert (tmp_path / "merged" / "table2.csv").read_bytes() \
            == (tmp_path / "reference" / "table2.csv").read_bytes()

        capsys.readouterr()
        assert main(["fleet", "status", "--fleet-dir", str(fleet_dir)]) == 0
        status_out = capsys.readouterr().out
        assert "units: 2/2 done" in status_out
        assert "done" in status_out

    def test_fleet_status_json_and_missing_dir(self, capsys, tmp_path):
        import json
        assert main(["fleet", "status",
                     "--fleet-dir", str(tmp_path / "nowhere")]) == 2
        assert "fleet failed" in capsys.readouterr().out

        assert main(["run", "table2", "--smoke",
                     "--out", str(tmp_path / "reference")]) == 0
        fleet_dir = tmp_path / "fleet"
        from repro.experiments.fleet import FleetCoordinator
        from repro.experiments.study import build_spec
        FleetCoordinator(fleet_dir).enqueue([build_spec("table2")],
                                            smoke=True)
        capsys.readouterr()
        assert main(["fleet", "status", "--fleet-dir", str(fleet_dir),
                     "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["unit_count"] == 2
        assert status["done"] == 0
        assert status["status"] == "running"

    def test_fleet_serve_expect_requires_out(self, capsys, tmp_path):
        import threading
        fleet_dir = tmp_path / "fleet"
        worker = threading.Thread(target=main, args=(
            ["fleet", "work", "--fleet-dir", str(fleet_dir),
             "--poll", "0.02", "--wait-timeout", "30"],))
        worker.start()
        try:
            code = main(["fleet", "serve", "ablation", "--smoke",
                         "--fleet-dir", str(fleet_dir), "--poll", "0.02",
                         "--timeout", "120",
                         "--expect", str(tmp_path / "reference")])
        finally:
            worker.join(timeout=60)
        assert code == 2
        assert "--expect needs --out" in capsys.readouterr().out
