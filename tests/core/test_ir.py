"""Tests for the model object IR and the shipped SWEEP3D model."""

import oracles
import pytest

from repro.core.evaluation import CompiledModel
from repro.core.ir import ModelObject, ModelSet, ObjectKind
from repro.core.psl.parser import parse_psl
from repro.errors import PslNameError


class TestModelSet:
    def test_validate_catches_missing_include(self):
        model = parse_psl("application a { include missing; proc init { compute 1; } }")
        with pytest.raises(PslNameError):
            model.validate()

    def test_validate_catches_missing_partmp(self):
        model = parse_psl("""
        application a { include s; proc init { call s; } }
        subtask s { partmp ghost; }
        """)
        with pytest.raises(PslNameError):
            model.validate()

    def test_validate_catches_missing_link_target(self):
        model = parse_psl("""
        application a { link ghost { x = 1; } proc init { compute 1; } }
        """)
        with pytest.raises(PslNameError):
            model.validate()

    def test_requires_exactly_one_application(self):
        model = parse_psl("subtask only { partmp t; } partmp t { var work = 0; }")
        with pytest.raises(PslNameError):
            _ = model.application
        two = parse_psl("application a { proc init { compute 1; } } "
                        "application b { proc init { compute 1; } }")
        with pytest.raises(PslNameError):
            _ = two.application

    def test_get_unknown_object(self):
        with pytest.raises(PslNameError):
            ModelSet().get("nothing")

    def test_merge(self):
        base = parse_psl("application a { include s; proc init { call s; } }"
                         "subtask s { partmp t; }")
        library = parse_psl("partmp t { var work = 0; option { strategy = \"async\"; } }")
        merged = base.merge(library)
        merged.validate()
        assert len(merged) == 3

    def test_proc_and_cflow_lookup_errors(self):
        obj = ModelObject(name="x", kind=ObjectKind.SUBTASK)
        with pytest.raises(PslNameError):
            obj.proc("init")
        with pytest.raises(PslNameError):
            obj.cflow("work")

    def test_strategy_defaults_to_name(self):
        obj = ModelObject(name="pipeline", kind=ObjectKind.PARTMP)
        assert obj.strategy == "pipeline"


class TestShippedSweep3DModel:
    def test_object_hierarchy_matches_figure3(self, sweep3d_model):
        """The shipped model mirrors the object hierarchy of Figure 3."""
        names = set(sweep3d_model.objects)
        assert {"sweep3d", "sweep", "source", "flux_err", "balance",
                "pipeline", "globalsum", "globalmax", "async"} <= names
        app = sweep3d_model.application
        assert app.name == "sweep3d"
        # Four subtask objects, as in the paper.
        assert len(sweep3d_model.subtasks()) == 4
        assert len(sweep3d_model.templates()) == 4

    def test_subtask_templates(self, sweep3d_model):
        assert sweep3d_model.get("sweep").partmp == "pipeline"
        assert sweep3d_model.get("flux_err").partmp == "globalmax"
        assert sweep3d_model.get("balance").partmp == "globalsum"
        assert sweep3d_model.get("source").partmp == "async"

    def test_externally_modifiable_variables(self, sweep3d_model):
        app = sweep3d_model.application
        for name in ("it", "jt", "kt", "mk", "mmi", "npe_i", "npe_j", "n_iterations"):
            assert name in app.variables

    def test_application_links_every_subtask(self, sweep3d_model):
        app = sweep3d_model.application
        assert set(app.links) == {"sweep", "source", "flux_err", "balance"}

    def test_hierarchy_listing(self, sweep3d_model):
        hierarchy = sweep3d_model.hierarchy()
        assert "sweep" in hierarchy["sweep3d"]
        assert "pipeline" in hierarchy["sweep"]

    @pytest.mark.parametrize("evaluator", ["compiled", "oracle"])
    def test_sweep_cflow_matches_kernel_characterisation(self, sweep3d_model,
                                                         synthetic_hardware, evaluator):
        from repro.sweep3d.kernel import SweepKernel
        variables = {"it": 50, "jt": 50, "kt": 50, "mk": 10, "mmi": 3,
                     "npe_i": 1, "npe_j": 1, "angles_per_octant": 6}
        if evaluator == "compiled":
            executor = CompiledModel(sweep3d_model).executor(synthetic_hardware)
            tally = executor.cflow_vector("sweep", "work_block", variables)
        else:
            sweep = sweep3d_model.get("sweep")
            tally = oracles.evaluate_cflow(sweep.cflow("work_block"), variables,
                                           resolve_cflow=sweep.cflow)
        expected_flops = SweepKernel.flops_per_cell_angle() * 50 * 50 * 10 * 3
        assert tally.flops == pytest.approx(expected_flops)
