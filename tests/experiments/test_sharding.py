"""Tests for sharded study execution: plan -> slice -> run -> merge."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments.artifacts import (
    compare_artifact_dirs,
    load_study_results,
    merge_manifests,
    read_manifest,
    write_study_artifacts,
)
from repro.experiments.sharding import (
    make_shard_spec,
    merge_study_results,
    parent_spec,
    plan_shards,
    resolve_shard,
)
from repro.experiments.study import (
    StudyContext,
    StudyRunner,
    StudySpec,
    build_spec,
    is_shard_spec,
    study_names,
)

ALL_STUDIES = tuple(study_names())


@pytest.fixture(scope="module")
def shared_context():
    """One compiled model / machine set across every run of this module."""
    return StudyContext()


@pytest.fixture(scope="module")
def runner(shared_context):
    return StudyRunner(context=shared_context)


@pytest.fixture(scope="module")
def unsharded(runner):
    """Reference smoke results, one per registered study."""
    return {name: runner.run(build_spec(name).smoke()) for name in ALL_STUDIES}


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


class TestPlanning:
    @pytest.mark.parametrize("shards", (2, 3, 4))
    @pytest.mark.parametrize("name", ALL_STUDIES)
    def test_union_of_shards_is_the_full_grid_disjointly(self, name, shards):
        plan = plan_shards(build_spec(name).smoke(), shards)
        covered = [unit for shard in plan.shards for unit in shard.units]
        assert len(covered) == len(set(covered)), "overlapping shards"
        assert sorted(map(repr, covered)) == sorted(map(repr, plan.unit_values))
        assert all(shard.units for shard in plan.shards), "empty shard"
        assert 1 <= plan.shard_count <= shards

    def test_cost_balancing_beats_worst_case(self):
        """LPT keeps the heaviest shard near the mean, not near the total."""
        plan = plan_shards(build_spec("table1"), 4)
        costs = [shard.estimated_cost for shard in plan.shards]
        total = sum(costs)
        assert plan.shard_count == 4
        # The classic LPT guarantee is 4/3 OPT; the mean is a lower bound
        # on OPT, so the heaviest bin stays well under half the total.
        assert max(costs) <= (total / 4) * (4 / 3) + max(
            unit for shard in plan.shards for unit in [shard.estimated_cost])
        assert max(costs) < total / 2

    def test_shard_specs_distinct_but_tied_to_parent(self):
        parent = build_spec("table1")
        plan = plan_shards(parent, 3)
        hashes = {shard.spec.spec_hash() for shard in plan.shards}
        assert len(hashes) == 3
        assert parent.spec_hash() not in hashes
        for shard in plan.shards:
            assert is_shard_spec(shard.spec)
            params = shard.spec.resolved_params()
            assert params["shard_parent"] == plan.parent_hash
            assert params["shard_count"] == 3
            assert parent_spec(shard.spec) == parent

    def test_plan_is_deterministic_across_processes(self):
        plan = plan_shards(build_spec("table2"), 3)
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.experiments.sharding import plan_shards\n"
            "from repro.experiments.study import build_spec\n"
            "plan = plan_shards(build_spec('table2'), 3)\n"
            "for shard in plan.shards:\n"
            "    print(shard.spec.spec_hash(), list(shard.units))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, cwd=str(Path(__file__).resolve().parents[2]))
        lines = [f"{shard.spec.spec_hash()} {list(shard.units)}"
                 for shard in plan.shards]
        assert output.stdout.strip().splitlines() == lines

    def test_more_shards_than_units_collapses(self):
        plan = plan_shards(build_spec("ablation").smoke(), 4)
        assert plan.shard_count == 1
        assert plan.requested == 4
        assert plan.spec_for(3) is None
        assert make_shard_spec(build_spec("ablation").smoke(), 3, 4) is None

    def test_spec_for_rejects_out_of_range(self):
        plan = plan_shards(build_spec("scaling").smoke(), 2)
        with pytest.raises(ExperimentError, match="out of range"):
            plan.spec_for(2)

    def test_planning_a_shard_is_rejected(self):
        shard = make_shard_spec(build_spec("table1"), 0, 2)
        with pytest.raises(ExperimentError, match="already a shard"):
            plan_shards(shard, 2)

    def test_hand_built_shard_params_are_validated(self):
        with pytest.raises(ExperimentError, match="shard_parent"):
            build_spec("table1", shard_index=1, shard_count=2)
        with pytest.raises(ExperimentError, match="out of range"):
            build_spec("table1", shard_index=2, shard_count=2,
                       shard_parent="feed")
        with pytest.raises(ExperimentError, match="shard_count must be"):
            build_spec("table1", shard_count=0)

    def test_shard_specs_round_trip_through_toml(self):
        shard = make_shard_spec(build_spec("figure8"), 1, 3)
        rebuilt = StudySpec.from_toml(shard.to_toml())
        assert rebuilt == shard
        assert rebuilt.spec_hash() == shard.spec_hash()


# ---------------------------------------------------------------------------
# Shard execution
# ---------------------------------------------------------------------------


class TestShardExecution:
    def test_shard_runs_only_its_slice(self, runner, unsharded):
        spec = build_spec("figure8").smoke()
        plan = plan_shards(spec, 3)
        total = 0
        for shard in plan.shards:
            result = runner.run(shard.spec)
            counts = {row["processors"] for row in result.rows}
            assert counts == set(shard.units)
            total += len(result.rows)
        assert total == len(unsharded["figure8"].rows)

    def test_shard_result_records_bookkeeping(self, runner, tmp_path):
        shard = make_shard_spec(build_spec("scaling").smoke(), 0, 2)
        result = runner.run(shard)
        assert result.sharding is not None
        assert result.sharding["shard_index"] == 0
        assert result.sharding["shard_count"] == 2
        assert result.sharding["axis"] == "processor_counts"
        assert result.sharding["parent_spec"] == \
            build_spec("scaling").smoke().to_dict()
        write_study_artifacts([result], tmp_path)
        entry = read_manifest(tmp_path)["studies"][0]
        assert entry["sharding"]["parent_hash"] == \
            build_spec("scaling").smoke().spec_hash()

    def test_tampered_grid_fails_loudly(self, runner):
        shard = make_shard_spec(build_spec("table2", max_iterations=2), 0, 2)
        tampered = StudySpec.from_dict({
            **shard.to_dict(),
            "params": {**shard.to_dict()["params"], "max_iterations": 3},
        })
        with pytest.raises(ExperimentError, match="grid hashes to"):
            runner.run(tampered)

    def test_smoke_after_planning_fails_loudly(self, runner):
        shard = make_shard_spec(build_spec("table1"), 0, 2)
        with pytest.raises(ExperimentError, match="smoke"):
            runner.run(shard.smoke())

    def test_resolve_slices_the_axis_param(self):
        shard = make_shard_spec(build_spec("blocking").smoke(), 1, 2)
        resolution = resolve_shard(shard)
        sliced_params = resolution.sliced.resolved_params()
        assert tuple(sliced_params["mk_values"]) == resolution.assignment.units
        assert not is_shard_spec(resolution.sliced)


# ---------------------------------------------------------------------------
# Merge: bit-identity with the unsharded run
# ---------------------------------------------------------------------------


class TestMergeBitIdentity:
    @pytest.mark.parametrize("shards", (2, 3, 4))
    @pytest.mark.parametrize("name", ALL_STUDIES)
    def test_merged_rows_are_bit_identical(self, name, shards, runner,
                                           unsharded):
        reference = unsharded[name]
        plan = plan_shards(build_spec(name).smoke(), shards)
        merged = merge_study_results(
            [runner.run(shard.spec) for shard in plan.shards])
        assert merged.rows == reference.rows
        assert merged.columns == reference.columns
        assert merged.spec_hash == reference.spec_hash
        assert merged.machine_fingerprint == reference.machine_fingerprint
        assert merged.sharding is None

    def test_single_shard_plan_merges_to_parent(self, runner, unsharded):
        plan = plan_shards(build_spec("agreement").smoke(), 4)
        assert plan.shard_count == 1        # one smoke processor count
        merged = merge_study_results([runner.run(plan.shards[0].spec)])
        assert merged.rows == unsharded["agreement"].rows
        assert merged.spec_hash == unsharded["agreement"].spec_hash

    def test_merge_order_independent(self, runner, unsharded):
        plan = plan_shards(build_spec("figure9").smoke(), 3)
        results = [runner.run(shard.spec) for shard in plan.shards]
        forward = merge_study_results(results)
        backward = merge_study_results(list(reversed(results)))
        assert forward.rows == backward.rows == unsharded["figure9"].rows


# ---------------------------------------------------------------------------
# Merge: failure modes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scaling_shards(runner):
    plan = plan_shards(build_spec("scaling").smoke(), 2)
    assert plan.shard_count == 2
    return [runner.run(shard.spec) for shard in plan.shards]


class TestMergeFailureModes:
    def test_duplicated_shard(self, scaling_shards):
        with pytest.raises(ExperimentError, match="duplicated shard"):
            merge_study_results(scaling_shards + scaling_shards[:1])

    def test_missing_shard(self, scaling_shards):
        with pytest.raises(ExperimentError, match="missing shard"):
            merge_study_results(scaling_shards[:1])

    def test_unsharded_result_mixed_in(self, scaling_shards, runner,
                                       unsharded):
        with pytest.raises(ExperimentError, match="no shard markers"):
            merge_study_results(scaling_shards + [unsharded["scaling"]])

    def test_different_studies(self, scaling_shards, runner):
        other = runner.run(make_shard_spec(build_spec("agreement").smoke(),
                                           0, 1))
        with pytest.raises(ExperimentError, match="different studies"):
            merge_study_results(scaling_shards[:1] + [other])

    def test_different_parents(self, runner):
        a = runner.run(make_shard_spec(
            build_spec("scaling", processor_counts=(1, 4)), 0, 2))
        b = runner.run(make_shard_spec(
            build_spec("scaling", processor_counts=(1, 16)), 1, 2))
        with pytest.raises(ExperimentError, match="different parents"):
            merge_study_results([a, b])

    def test_rows_outside_assignment(self, scaling_shards):
        impostor = dataclasses.replace(scaling_shards[1],
                                       rows=list(scaling_shards[0].rows))
        with pytest.raises(ExperimentError, match="outside its assignment"):
            merge_study_results([scaling_shards[0], impostor])

    def test_analysis_hooks_refused(self, runner):
        parent = build_spec("scaling", processor_counts=(1, 4),
                            analysis=("weak-scaling",))
        plan = plan_shards(parent, 2)
        results = [runner.run(shard.spec) for shard in plan.shards]
        with pytest.raises(ExperimentError, match="analysis hooks"):
            merge_study_results(results)

    def test_empty_merge(self):
        with pytest.raises(ExperimentError, match="no shard results"):
            merge_study_results([])


# ---------------------------------------------------------------------------
# Artifact-directory merge (the CI flow)
# ---------------------------------------------------------------------------


class TestArtifactMerge:
    @pytest.fixture(scope="class")
    def fleet(self, runner, unsharded, tmp_path_factory):
        """A 4-way sharded fleet run of every study, plus the reference."""
        root = tmp_path_factory.mktemp("fleet")
        write_study_artifacts([unsharded[name] for name in ALL_STUDIES],
                              root / "reference")
        per_shard = {index: [] for index in range(4)}
        for name in ALL_STUDIES:
            plan = plan_shards(build_spec(name).smoke(), 4)
            for shard in plan.shards:
                per_shard[shard.index].append(runner.run(shard.spec))
        for index, results in per_shard.items():
            write_study_artifacts(results, root / f"shard-{index}",
                                  allow_empty=True)
        return root

    def test_merged_dir_matches_reference(self, fleet):
        shard_dirs = [fleet / f"shard-{index}" for index in range(4)]
        merge_manifests(shard_dirs, fleet / "merged")
        assert compare_artifact_dirs(fleet / "merged",
                                     fleet / "reference") == []
        merged = read_manifest(fleet / "merged")
        reference = read_manifest(fleet / "reference")
        assert [entry["study"] for entry in merged["studies"]] \
            == [entry["study"] for entry in reference["studies"]]

    def test_out_of_order_dirs_merge_identically(self, fleet):
        shard_dirs = [fleet / f"shard-{index}" for index in (3, 1, 0, 2)]
        merge_manifests(shard_dirs, fleet / "merged-shuffled")
        assert (fleet / "merged-shuffled" / "manifest.json").read_text() \
            == (fleet / "merged" / "manifest.json").read_text()

    def test_duplicated_shard_dir_fails_loudly(self, fleet):
        dirs = [fleet / "shard-0", fleet / "shard-1", fleet / "shard-0"]
        with pytest.raises(ExperimentError, match="duplicated shard"):
            merge_manifests(dirs, fleet / "merged-dup")

    def test_incomplete_fleet_fails_loudly(self, fleet):
        with pytest.raises(ExperimentError, match="missing shard"):
            merge_manifests([fleet / "shard-0"], fleet / "merged-partial")

    def test_duplicate_unsharded_entries_fail_loudly(self, fleet):
        dirs = [fleet / "reference", fleet / "reference"]
        with pytest.raises(ExperimentError, match="more than one input"):
            merge_manifests(dirs, fleet / "merged-twice")

    def test_compare_reports_row_differences(self, runner, unsharded,
                                             tmp_path):
        write_study_artifacts([unsharded["scaling"]], tmp_path / "a")
        other = runner.run(build_spec("scaling",
                                      processor_counts=(1, 4)))
        write_study_artifacts([other], tmp_path / "b")
        diffs = compare_artifact_dirs(tmp_path / "a", tmp_path / "b")
        assert diffs, "differing runs must not compare clean"

    def test_load_study_results_verifies_hashes(self, fleet, tmp_path,
                                                unsharded):
        write_study_artifacts([unsharded["ablation"]], tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(
            manifest_path.read_text().replace('"ablation"', '"agreement"', 1))
        with pytest.raises(ExperimentError):
            load_study_results(tmp_path)

    def test_plain_entries_keep_analysis_output(self, runner, tmp_path):
        """Pass-through of an unsharded analysis run preserves the hooks."""
        spec = build_spec("scaling", processor_counts=(1, 4),
                          analysis=("weak-scaling",))
        result = runner.run(spec)
        assert result.analysis
        write_study_artifacts([result], tmp_path / "orig")
        merge_manifests([tmp_path / "orig"], tmp_path / "roundtrip")
        assert compare_artifact_dirs(tmp_path / "roundtrip",
                                     tmp_path / "orig") == []
        reloaded = load_study_results(tmp_path / "roundtrip")[0]
        assert reloaded.analysis == result.analysis
