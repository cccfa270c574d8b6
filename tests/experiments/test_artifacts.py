"""Tests for study artifact export (JSON/CSV + run manifest)."""

import csv
import json
import random

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments.artifacts import (
    load_study_results,
    merge_manifests,
    read_manifest,
    write_study_artifacts,
)
from repro.experiments.study import StudyRunner, build_spec, run_study


@pytest.fixture(scope="module")
def table_result():
    return run_study(build_spec("table2", max_pes=6, max_iterations=1))


class TestArtifactLayout:
    def test_json_csv_and_manifest(self, tmp_path, table_result):
        manifest_path = write_study_artifacts([table_result], tmp_path)
        assert manifest_path == tmp_path / "manifest.json"
        assert (tmp_path / "table2.json").exists()
        assert (tmp_path / "table2.csv").exists()

        data = json.loads((tmp_path / "table2.json").read_text())
        assert data["study"] == "table2"
        assert data["spec_hash"] == table_result.spec_hash
        assert data["machine"] == "opteron-gige"
        assert len(data["rows"]) == len(table_result.rows)

        with open(tmp_path / "table2.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(table_result.rows)
        assert rows[0]["data_size"] == table_result.rows[0]["data_size"]
        assert float(rows[0]["predicted_s"]) == pytest.approx(
            table_result.rows[0]["predicted_s"])

    def test_manifest_contents(self, tmp_path, table_result):
        write_study_artifacts(table_result, tmp_path)   # single result accepted
        manifest = read_manifest(tmp_path)
        assert "version" in manifest
        (entry,) = manifest["studies"]
        assert entry["study"] == "table2"
        assert entry["spec"]["study"] == "table2"
        assert entry["spec_hash"] == table_result.spec_hash
        assert entry["machine_fingerprint"]
        assert entry["rows"] == len(table_result.rows)
        assert entry["artifacts"] == {"json": "table2.json", "csv": "table2.csv"}

    def test_manifest_surfaces_cost_table_accounting(self, tmp_path,
                                                     table_result):
        """The SweepCostTable hit/miss counts reach the manifest (and the
        per-study JSON), instead of being collected and dropped."""
        write_study_artifacts(table_result, tmp_path)
        (entry,) = read_manifest(tmp_path)["studies"]
        assert entry["cache"]["subtask_hits"] == \
            table_result.cache_stats.subtask_hits
        assert entry["cache"]["subtask_misses"] == \
            table_result.cache_stats.subtask_misses
        # The measurement grid prices every block shape once, then serves
        # every other charge from the memo: hits dominate misses.
        assert entry["cache"]["subtask_hits"] > entry["cache"]["subtask_misses"] > 0
        data = json.loads((tmp_path / "table2.json").read_text())
        assert data["cache"]["subtask_hits"] == entry["cache"]["subtask_hits"]

    def test_load_study_results_roundtrips_cost_table_stats(self, tmp_path,
                                                            table_result):
        from repro.experiments.artifacts import load_study_results
        write_study_artifacts(table_result, tmp_path)
        (loaded,) = load_study_results(tmp_path)
        assert loaded.cache_stats.subtask_hits == \
            table_result.cache_stats.subtask_hits
        assert loaded.cache_stats.subtask_misses == \
            table_result.cache_stats.subtask_misses

    def test_smoke_fleet_layout(self, tmp_path):
        results = StudyRunner().run_many(["figure8", "scaling"], smoke=True)
        write_study_artifacts(results, tmp_path / "nested" / "deep")
        manifest = read_manifest(tmp_path / "nested" / "deep")
        assert [entry["study"] for entry in manifest["studies"]] \
            == ["figure8", "scaling"]
        for entry in manifest["studies"]:
            assert (tmp_path / "nested" / "deep" / entry["artifacts"]["json"]).exists()
            assert (tmp_path / "nested" / "deep" / entry["artifacts"]["csv"]).exists()

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="no study results"):
            write_study_artifacts([], tmp_path)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot read manifest"):
            read_manifest(tmp_path)

class TestShardedRuns:
    def test_same_study_shards_never_overwrite(self, tmp_path):
        """Two specs of one study (sharded grid) keep distinct artifacts."""
        shard_a = build_spec("table2", max_pes=4, max_iterations=1,
                             simulate_measurement=False)
        shard_b = build_spec("table2", max_pes=6, max_iterations=1,
                             simulate_measurement=False)
        results = StudyRunner().run_many([shard_a, shard_b])
        write_study_artifacts(results, tmp_path)
        manifest = read_manifest(tmp_path)
        names = [entry["artifacts"]["json"] for entry in manifest["studies"]]
        assert len(set(names)) == 2
        for entry, result in zip(manifest["studies"], results):
            data = json.loads((tmp_path / entry["artifacts"]["json"]).read_text())
            assert data["spec_hash"] == entry["spec_hash"] == result.spec_hash
            assert len(data["rows"]) == len(result.rows)

    def test_identical_specs_twice_still_distinct_files(self, tmp_path):
        spec = build_spec("figure8", processor_counts=[1, 4],
                          rate_factors=[1.0])
        results = StudyRunner().run_many([spec, spec])
        write_study_artifacts(results, tmp_path)
        manifest = read_manifest(tmp_path)
        names = [entry["artifacts"]["json"] for entry in manifest["studies"]]
        assert len(set(names)) == 2
        for name in names:
            assert (tmp_path / name).exists()


#: Values a mutated field may take: one of every JSON type.
WRONG_VALUES = ([], ["x"], "text", 7, -1, 2.5, True, None, {}, {"k": 1})

#: Key paths into one manifest entry, and into its study artifact.
ENTRY_FIELDS = (
    ("spec",), ("spec", "study"), ("spec", "params"),
    ("spec", "params", "max_pes"), ("spec_hash",), ("artifacts",),
    ("artifacts", "json"), ("cache",), ("cache", "predictions"),
    ("cache", "disk_hits"), ("execution",), ("execution", "replay"),
    ("phases",), ("phases", "replay"), ("elapsed_s",), ("machine",),
    ("machine_fingerprint",), ("rows",), ("study",), ("sharding",))
ARTIFACT_FIELDS = (("rows",), ("rows", 0), ("columns",), ("analysis",))


def mutate_field(document, path, rng: random.Random) -> None:
    """Delete the field at ``path`` or give it a value of another type."""
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.2 and isinstance(parent, dict):
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = rng.choice(WRONG_VALUES)


class TestManifestMutations:
    """What ``repro merge`` reads from a directory fails cleanly: an
    :class:`ExperimentError` naming the entry and field, never another
    exception."""

    #: Mutated directories tried.
    MUTATIONS = 250

    @pytest.fixture
    def run_dir(self, tmp_path, table_result):
        run = tmp_path / "run"
        write_study_artifacts(table_result, run)
        return run

    def test_mutated_manifests_load_or_fail_cleanly(self, tmp_path, run_dir):
        manifest_text = (run_dir / "manifest.json").read_text()
        artifact_text = (run_dir / "table2.json").read_text()
        rng = random.Random(20061017)
        refused = 0
        for _ in range(self.MUTATIONS):
            manifest = json.loads(manifest_text)
            artifact = json.loads(artifact_text)
            choice = rng.randrange(5)
            if choice == 0:
                manifest = manifest_text[:rng.randrange(len(manifest_text))]
            elif choice == 1:
                manifest["studies"] = rng.choice(WRONG_VALUES + ([7],))
            elif choice == 2:
                artifact = artifact_text[:rng.randrange(len(artifact_text))]
            elif choice == 3:
                mutate_field(artifact, rng.choice(ARTIFACT_FIELDS), rng)
            else:
                mutate_field(manifest["studies"][0],
                             rng.choice(ENTRY_FIELDS), rng)
            for name, document in (("manifest.json", manifest),
                                   ("table2.json", artifact)):
                (run_dir / name).write_text(
                    document if isinstance(document, str)
                    else json.dumps(document))
            try:
                merge_manifests([run_dir], tmp_path / "merged")
            except ExperimentError:
                refused += 1
        assert 0 < refused < self.MUTATIONS

    @pytest.mark.parametrize("field, value", [
        ("cache", []), ("execution", []), ("spec", []), ("phases", "text"),
        ("artifacts.json", 7), ("spec_hash", 7)])
    def test_wrong_type_names_entry_and_field(self, capsys, tmp_path,
                                              run_dir, field, value):
        manifest = read_manifest(run_dir)
        entry = manifest["studies"][0]
        *parents, last = field.split(".")
        for key in parents:
            entry = entry[key]
        entry[last] = value
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ExperimentError,
                           match=f"study entry 0 field '{field}'"):
            load_study_results(run_dir)
        assert main(["merge", str(run_dir),
                     "--out", str(tmp_path / "merged")]) == 2
        captured = capsys.readouterr()
        assert "merge failed" in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("name", ["absolute", "../table2.json",
                                      "sub/table2.json", ".."])
    def test_artifact_must_be_a_file_in_the_directory(self, tmp_path,
                                                      run_dir, name):
        # A valid artifact outside the directory must not be read.
        outside = tmp_path / "table2.json"
        outside.write_text((run_dir / "table2.json").read_text())
        manifest = read_manifest(run_dir)
        manifest["studies"][0]["artifacts"]["json"] = (
            str(outside) if name == "absolute" else name)
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ExperimentError, match="artifacts.json"):
            load_study_results(run_dir)
