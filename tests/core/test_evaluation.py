"""Tests for the PACE evaluation pipeline (compiled executor vs the oracle)."""

import oracles
import pytest

from repro.core.evaluation import CompiledModel
from repro.core.hmcl.model import CpuCostModel, HardwareModel
from repro.core.psl.parser import parse_psl
from repro.core.workload import SweepWorkload
from repro.errors import EvaluationError
from repro.sweep3d.input import standard_deck


def tiny_model(body: str = "call work;", extra: str = ""):
    """A minimal application + async subtask model for engine tests."""
    return parse_psl(f"""
    application app {{
        include work;
        var n = 2, cells = 100;
        link work {{ cells = cells; }}
        proc init {{ {body} }}
    }}
    subtask work {{
        partmp async;
        var cells = 1;
        link async {{ work = flow(body); }}
        cflow body {{ loop (cells) {{ clc {{ MFDG = 1; }} }} }}
    }}
    partmp async {{ var work = 0; option {{ strategy = "async"; }} }}
    {extra}
    """)


def executor(model, hardware):
    return CompiledModel(model).executor(hardware)


class TestProcedureExecution:
    def test_single_call(self, synthetic_hardware):
        engine = executor(tiny_model(), synthetic_hardware)
        prediction = engine.predict()
        # 100 MFDG flops at 200 MFLOPS.
        assert prediction.total_time == pytest.approx(100 / 200e6)
        assert prediction.breakdown["work"].calls == 1

    def test_for_loop_repeats_calls(self, synthetic_hardware):
        model = tiny_model(body="var i; for i = 1 to n { call work; }")
        engine = executor(model, synthetic_hardware)
        prediction = engine.predict()
        assert prediction.breakdown["work"].calls == 2
        assert prediction.total_time == pytest.approx(2 * 100 / 200e6)

    def test_variable_override_at_predict_time(self, synthetic_hardware):
        model = tiny_model(body="var i; for i = 1 to n { call work; }")
        engine = executor(model, synthetic_hardware)
        prediction = engine.predict({"n": 5, "cells": 200})
        assert prediction.breakdown["work"].calls == 5
        assert prediction.total_time == pytest.approx(5 * 200 / 200e6)

    def test_if_statement_branches(self, synthetic_hardware):
        model = tiny_model(body="if (n > 1) { call work; } else { compute 1.0; }")
        engine = executor(model, synthetic_hardware)
        assert engine.predict({"n": 2}).total_time == pytest.approx(100 / 200e6)
        assert engine.predict({"n": 1}).total_time == pytest.approx(1.0)

    def test_compute_statement_adds_seconds(self, synthetic_hardware):
        model = tiny_model(body="compute 0.5; call work;")
        engine = executor(model, synthetic_hardware)
        prediction = engine.predict()
        assert prediction.total_time == pytest.approx(0.5 + 100 / 200e6)
        assert "app" in prediction.breakdown

    def test_assignment_and_expression_variables(self, synthetic_hardware):
        model = tiny_model(body="var i; n = n * 3; for i = 1 to n { call work; }")
        engine = executor(model, synthetic_hardware)
        assert engine.predict({"n": 2}).breakdown["work"].calls == 6

    def test_for_with_negative_step(self, synthetic_hardware):
        model = tiny_model(body="var i; for i = n to 1 step 0 - 1 { call work; }")
        engine = executor(model, synthetic_hardware)
        assert engine.predict({"n": 3}).breakdown["work"].calls == 3

    def test_zero_step_rejected(self, synthetic_hardware):
        model = tiny_model(body="var i; for i = 1 to 2 step 0 { call work; }")
        engine = executor(tiny_model(), synthetic_hardware)
        engine_bad = executor(model, synthetic_hardware)
        with pytest.raises(EvaluationError):
            engine_bad.predict()

    def test_calling_unknown_entry_proc(self, synthetic_hardware):
        engine = executor(tiny_model(), synthetic_hardware)
        from repro.errors import PslNameError
        with pytest.raises(PslNameError):
            engine.predict(entry_proc="missing")

    def test_subtask_without_template_or_proc_rejected(self, synthetic_hardware):
        model = parse_psl("""
        application app { include broken; proc init { call broken; } }
        subtask broken { var cells = 1; }
        """)
        engine = executor(model, synthetic_hardware)
        with pytest.raises(EvaluationError):
            engine.predict()

    def test_subtask_with_init_proc_instead_of_template(self, synthetic_hardware):
        model = parse_psl("""
        application app { include serial; proc init { call serial; } }
        subtask serial { var cells = 1; proc init { compute 0.125; } }
        """)
        engine = executor(model, synthetic_hardware)
        assert engine.predict().total_time == pytest.approx(0.125)

    def test_predict_subtask_in_isolation(self, synthetic_hardware):
        engine = executor(tiny_model(), synthetic_hardware)
        result = engine.predict_subtask("work", {"cells": 400})
        assert result.time == pytest.approx(400 / 200e6)

    def test_cflow_vector_introspection(self, synthetic_hardware):
        engine = executor(tiny_model(), synthetic_hardware)
        clc = engine.cflow_vector("work", "body", {"cells": 7})
        assert clc.count("MFDG") == 7

    def test_cache_reused_across_identical_calls(self, synthetic_hardware):
        model = tiny_model(body="var i; for i = 1 to 100 { call work; }")
        engine = executor(model, synthetic_hardware)
        prediction = engine.predict()
        assert prediction.breakdown["work"].calls == 100
        assert len(engine.cache) == 1
        engine.clear_cache()
        assert len(engine.cache) == 0


class TestCompiledPipeline:
    """The compiled pipeline must agree with the interpreted oracle."""

    def test_tiny_model_bitwise_identical(self, synthetic_hardware):
        model = tiny_model(body="var i; for i = 1 to n { call work; } compute 0.25;")
        compiled = executor(model, synthetic_hardware).predict({"n": 3})
        interpreted = oracles.InterpretedEngine(model, synthetic_hardware).predict({"n": 3})
        assert compiled.total_time == interpreted.total_time
        assert set(compiled.breakdown) == set(interpreted.breakdown)
        for name, item in compiled.breakdown.items():
            assert item.time == interpreted.breakdown[name].time
            assert item.calls == interpreted.breakdown[name].calls

    def test_sweep3d_model_agrees_with_interpreter(self, sweep3d_model,
                                                   synthetic_hardware):
        # 80x100 is the Section 6 speculative size (8000 ranks).
        for px, py in [(1, 1), (2, 2), (4, 4), (80, 100)]:
            deck = standard_deck("validation", px=px, py=py)
            variables = SweepWorkload(deck, px, py).model_variables()
            compiled = executor(sweep3d_model, synthetic_hardware).predict(variables)
            interpreted = oracles.InterpretedEngine(
                sweep3d_model, synthetic_hardware).predict(variables)
            assert compiled.total_time == interpreted.total_time
            for name, item in compiled.breakdown.items():
                assert item.time == interpreted.breakdown[name].time

    def test_branch_else_cflow_bitwise_identical(self, synthetic_hardware):
        """Accumulation order of branch/else arms matches the interpreter."""
        model = tiny_model(extra="""
        subtask fixup {
            partmp async;
            var cells = 1, p = 0.3;
            link async { work = flow(body); }
            cflow body {
                clc { AFDG = 3; }
                loop (cells) {
                    branch (p) { clc { MFDG = 7; AFDG = 1; } }
                    else { clc { DFDG = 2; } }
                }
            }
        }
        """, body="call work; call fixup;")
        for p in (0.1, 0.3, 0.7, 1.0 / 3.0):
            for cells in (1, 17, 1000):
                variables = {"cells": cells, "p": p}
                compiled = executor(model, synthetic_hardware)
                interpreted = oracles.InterpretedEngine(model, synthetic_hardware)
                assert (compiled.predict_subtask("fixup", variables).time
                        == interpreted.predict_subtask("fixup", variables).time)

    def test_precompiled_model_shared_across_engines(self, sweep3d_model,
                                                     synthetic_hardware,
                                                     validation_deck_2x2):
        compiled = CompiledModel(sweep3d_model)
        variables = SweepWorkload(validation_deck_2x2, 2, 2).model_variables()
        one = compiled.executor(synthetic_hardware)
        two = compiled.executor(synthetic_hardware)
        assert one.predict(variables).total_time == two.predict(variables).total_time

    def test_cache_stats_exposed(self, sweep3d_model, synthetic_hardware,
                                 validation_deck_2x2):
        engine = executor(sweep3d_model, synthetic_hardware)
        engine.predict(SweepWorkload(validation_deck_2x2, 2, 2).model_variables())
        stats = engine.stats
        assert stats.predictions == 1
        # 12 iterations x 4 subtasks: everything after iteration 1 is cached.
        assert stats.subtask_hits > stats.subtask_misses > 0


class TestHardwareStaleness:
    """Regression tests: the subtask cache is keyed on the hardware identity.

    The seed engine's cache ignored the hardware model, so swapping (or
    mutating) it without ``clear_cache()`` silently returned stale times.
    """

    def _hardware(self, synthetic_hardware, rate: float) -> HardwareModel:
        # A private instance whose cpu section can be mutated safely.
        return HardwareModel(
            name="staleness-test",
            cpu=CpuCostModel.from_achieved_rate(rate),
            mpi=synthetic_hardware.mpi,
            processors_per_node=2,
        )

    def test_swapping_hardware_without_clear_cache(self, sweep3d_model,
                                                   synthetic_hardware,
                                                   validation_deck_2x2):
        variables = SweepWorkload(validation_deck_2x2, 2, 2).model_variables()
        engine = executor(sweep3d_model, synthetic_hardware)
        slow = engine.predict(variables).total_time
        engine.hardware = synthetic_hardware.scaled_flop_rate(2.0)
        fast = engine.predict(variables).total_time
        assert fast < slow
        fresh = executor(
            sweep3d_model,
            synthetic_hardware.scaled_flop_rate(2.0)).predict(variables).total_time
        assert fast == fresh

    def test_mutating_hardware_in_place(self, sweep3d_model, synthetic_hardware,
                                        validation_deck_2x2):
        variables = SweepWorkload(validation_deck_2x2, 2, 2).model_variables()
        hardware = self._hardware(synthetic_hardware, 200e6)
        engine = executor(sweep3d_model, hardware)
        slow = engine.predict(variables).total_time
        # Mutate the cpu section in place (no clear_cache): the fingerprint
        # changes, so the stale cached subtask times must not be reused.
        fast_costs = CpuCostModel.from_achieved_rate(400e6).op_costs
        hardware.cpu.op_costs.clear()
        hardware.cpu.op_costs.update(fast_costs)
        fast = engine.predict(variables).total_time
        assert fast < slow

    def test_swapping_back_reuses_cache(self, sweep3d_model, synthetic_hardware,
                                        validation_deck_2x2):
        variables = SweepWorkload(validation_deck_2x2, 2, 2).model_variables()
        engine = executor(sweep3d_model, synthetic_hardware)
        first = engine.predict(variables).total_time
        upgraded = synthetic_hardware.scaled_flop_rate(1.5)
        engine.hardware = upgraded
        engine.predict(variables)
        engine.hardware = synthetic_hardware
        hits_before = engine.stats.subtask_hits
        again = engine.predict(variables).total_time
        assert again == first
        assert engine.stats.subtask_hits > hits_before


class TestSweep3DModelPredictions:
    def test_prediction_structure(self, synthetic_executor, validation_deck_2x2):
        workload = SweepWorkload(validation_deck_2x2, 2, 2)
        prediction = synthetic_executor.predict(workload.model_variables())
        assert prediction.total_time > 0
        assert set(prediction.breakdown) == {"sweep", "source", "flux_err", "balance"}
        assert prediction.breakdown["sweep"].calls == 12
        assert prediction.application_name == "sweep3d"

    def test_sweep_dominates(self, synthetic_executor, validation_deck_2x2):
        """The paper: the sweep subtask is responsible for ~97% of the computation."""
        workload = SweepWorkload(validation_deck_2x2, 2, 2)
        prediction = synthetic_executor.predict(workload.model_variables())
        assert prediction.dominant_subtask() == "sweep"
        assert prediction.breakdown["sweep"].time / prediction.total_time > 0.9

    def test_weak_scaling_prediction_grows(self, synthetic_executor):
        times = []
        for px, py in [(1, 1), (2, 2), (4, 4), (8, 8)]:
            deck = standard_deck("validation", px=px, py=py)
            workload = SweepWorkload(deck, px, py)
            times.append(synthetic_executor.predict(workload.model_variables()).total_time)
        assert times == sorted(times)

    def test_iterations_scale_linearly(self, synthetic_executor):
        deck12 = standard_deck("validation", px=2, py=2, max_iterations=12)
        deck6 = standard_deck("validation", px=2, py=2, max_iterations=6)
        twelve = synthetic_executor.predict(SweepWorkload(deck12, 2, 2).model_variables())
        six = synthetic_executor.predict(SweepWorkload(deck6, 2, 2).model_variables())
        assert twelve.total_time == pytest.approx(2 * six.total_time, rel=1e-6)

    def test_faster_processor_lowers_prediction(self, sweep3d_model, synthetic_hardware,
                                                validation_deck_2x2):
        workload = SweepWorkload(validation_deck_2x2, 2, 2)
        slow = executor(sweep3d_model, synthetic_hardware)
        fast = executor(sweep3d_model, synthetic_hardware.scaled_flop_rate(1.5))
        assert (fast.predict(workload.model_variables()).total_time
                < slow.predict(workload.model_variables()).total_time)

    def test_describe_output(self, synthetic_executor, validation_deck_2x2):
        workload = SweepWorkload(validation_deck_2x2, 2, 2)
        text = synthetic_executor.predict(workload.model_variables()).describe()
        assert "sweep" in text and "%" in text
