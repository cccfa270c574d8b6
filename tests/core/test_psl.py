"""Tests for the PSL lexer and parser, and for expression/cflow evaluation."""

import oracles
import pytest

from repro.core.evaluation.compiler import CompiledModel
from repro.core.ir import ObjectKind
from repro.core.psl import ast
from repro.core.psl.lexer import tokenize
from repro.core.psl.parser import parse_psl
from repro.errors import PslEvaluationError, PslNameError, PslSyntaxError


class TestLexer:
    def test_tokenises_keywords_and_numbers(self):
        tokens = tokenize("subtask sweep { var it = 50; }")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "keyword"
        assert any(t.kind == "number" and t.text == "50" for t in tokens)

    def test_comments_removed(self):
        tokens = tokenize("// a comment\nvar x = 1; /* block */ # hash\n")
        assert all("comment" not in t.kind for t in tokens)
        assert any(t.text == "x" for t in tokens)

    def test_line_numbers(self):
        tokens = tokenize("var a = 1;\nvar b = 2;")
        b_token = [t for t in tokens if t.text == "b"][0]
        assert b_token.line == 2

    def test_unexpected_character(self):
        with pytest.raises(PslSyntaxError):
            tokenize("var x = $;")


class TestParser:
    def test_parse_minimal_application(self):
        model = parse_psl("""
        application demo {
            var n = 3;
            proc init { compute n * 2; }
        }
        """)
        app = model.application
        assert app.kind is ObjectKind.APPLICATION
        assert "init" in app.procs
        assert "n" in app.variables

    def test_parse_subtask_with_links_and_cflow(self):
        model = parse_psl("""
        subtask work {
            partmp async;
            var cells = 10;
            link async { work = flow(body); }
            cflow body { loop (cells) { clc { AFDG = 2; MFDG = 1; } } }
        }
        partmp async { var work = 0; option { strategy = "async"; } }
        """)
        subtask = model.get("work")
        assert subtask.partmp == "async"
        assert "async" in subtask.links
        assert "body" in subtask.cflows
        assert model.get("async").strategy == "async"

    def test_includes_accumulate(self):
        model = parse_psl("""
        application a { include b, c; proc init { call b; } }
        subtask b { partmp t; }
        subtask c { partmp t; }
        partmp t { var work = 0; option { strategy = "async"; } }
        """)
        assert model.application.includes == ["b", "c"]

    def test_duplicate_object_rejected(self):
        with pytest.raises(PslNameError):
            parse_psl("subtask a { } subtask a { }")

    def test_syntax_error_reports_position(self):
        with pytest.raises(PslSyntaxError) as excinfo:
            parse_psl("application demo {\n  var = 5;\n}")
        assert excinfo.value.line is not None

    def test_unknown_object_kind(self):
        with pytest.raises(PslSyntaxError):
            parse_psl("gadget foo { }")

    def test_for_with_step_and_if(self):
        model = parse_psl("""
        application demo {
            var n = 4;
            proc init {
                var i;
                for i = 1 to n step 2 {
                    if (i > 2) { compute 1; } else { compute 2; }
                }
            }
        }
        """)
        body = model.application.proc("init").body
        assert any(isinstance(stmt, ast.ForStmt) for stmt in body)

    def test_option_values(self):
        model = parse_psl("""
        partmp p { option { strategy = "pipeline"; weight = 2.5; flag = yes; } }
        """)
        options = model.get("p").options
        assert options["strategy"] == "pipeline"
        assert options["weight"] == 2.5
        assert options["flag"] == "yes"

    def test_step_statements_parsed(self):
        model = parse_psl("""
        partmp p {
            var bytes = 100, work = 0;
            proc stage {
                step mpirecv { direction = "ew"; bytes = bytes; }
                step cpu { time = work; }
            }
        }
        """)
        steps = model.get("p").proc("stage").body
        assert len(steps) == 2
        assert all(isinstance(s, ast.StepStmt) for s in steps)
        assert steps[0].device == "mpirecv"


def _cflow_model(cflows: str):
    """Subtask ``s`` with the given cflows, inside a minimal complete model."""
    return parse_psl("application a { proc init { compute 0; } }"
                     f" subtask s {{ partmp t; {cflows} }}"
                     " partmp t { var work = 0; option { strategy = \"async\"; } }")


class TestExpressionInterpreter:
    """PSL expressions on the compiled executor and on the oracle interpreter.

    Cases written as PSL text run on both and must give equal values or
    exceptions of the same type; cases that build AST nodes by hand or pass
    a ``flow_evaluator`` exercise the oracle's own API.
    """

    @pytest.fixture(params=["compiled", "oracle"])
    def evaluate(self, request, synthetic_hardware):
        def evaluate(text: str):
            model = parse_psl(
                f"application t {{ var dummy = {text}; proc init {{ compute 0; }} }}")
            if request.param == "compiled":
                executor = CompiledModel(model).executor(synthetic_hardware)
                return executor.predict().variables["dummy"]
            return oracles.evaluate_expression(model.application.variables["dummy"], {})
        return evaluate

    def test_arithmetic_precedence(self, evaluate):
        assert evaluate("2 + 3 * 4") == 14
        assert evaluate("(2 + 3) * 4") == 20
        assert evaluate("10 / 4") == 2.5
        assert evaluate("-3 + 1") == -2

    def test_functions(self, evaluate):
        assert evaluate("ceil(7 / 2)") == 4
        assert evaluate("floor(7 / 2)") == 3
        assert evaluate("max(2, 9, 4)") == 9
        assert evaluate("min(2, 9, 4)") == 2
        assert evaluate("log2(8)") == 3
        assert evaluate("abs(0 - 5)") == 5

    def test_exact_integer_ceil(self, evaluate):
        # ceil(kt / mk) must not round 50/10 up to 6.
        assert evaluate("ceil(50 / 10)") == 5

    def test_comparisons_and_logic(self, evaluate):
        assert evaluate("3 < 4") == 1.0
        assert evaluate("3 >= 4") == 0.0
        assert evaluate("1 && 0") == 0.0
        assert evaluate("1 || 0") == 1.0
        assert evaluate("2 == 2") == 1.0
        assert evaluate("2 != 2") == 0.0

    def test_variables(self):
        expr = ast.BinOp("*", ast.VarRef("a"), ast.VarRef("b"))
        assert oracles.evaluate_expression(expr, {"a": 6, "b": 7}) == 42

    def test_undefined_variable(self):
        with pytest.raises(PslNameError):
            oracles.evaluate_expression(ast.VarRef("nope"), {})

    def test_undefined_variable_in_text(self, evaluate):
        with pytest.raises(PslNameError):
            evaluate("nope + 1")

    def test_division_by_zero(self, evaluate):
        with pytest.raises(PslEvaluationError):
            evaluate("1 / 0")

    def test_unknown_function(self, evaluate):
        with pytest.raises(PslEvaluationError):
            evaluate("frobnicate(3)")

    def test_flow_requires_evaluator(self):
        expr = ast.FuncCall("flow", [ast.VarRef("body")])
        with pytest.raises(PslEvaluationError):
            oracles.evaluate_expression(expr, {})
        assert oracles.evaluate_expression(expr, {}, flow_evaluator=lambda name: 2.5) == 2.5


class TestCflowInterpreter:
    """cflow tallies on the compiled executor and on the oracle interpreter."""

    @pytest.fixture(params=["compiled", "oracle"])
    def tally(self, request, synthetic_hardware):
        def tally(cflows: str, variables=None, name: str = "main"):
            model = _cflow_model(cflows)
            if request.param == "compiled":
                executor = CompiledModel(model).executor(synthetic_hardware)
                return oracles.cflow_vector(executor, "s", name, variables)
            subtask = model.get("s")
            return oracles.evaluate_cflow(subtask.cflow(name), variables or {},
                                          resolve_cflow=subtask.cflow)
        return tally

    def test_clc_accumulation(self, tally):
        result = tally("cflow main { clc { AFDG = 2; MFDG = 3; } clc { AFDG = 1; } }")
        assert result.count("AFDG") == 3
        assert result.count("MFDG") == 3

    def test_loop_scaling(self, tally):
        result = tally("cflow main { loop (n) { clc { AFDG = 2; } } }", {"n": 10})
        assert result.count("AFDG") == 20

    def test_nested_loops(self, tally):
        result = tally("cflow main { loop (n) { loop (m) { clc { MFDG = 1; } } } }",
                       {"n": 3, "m": 4})
        assert result.count("MFDG") == 12

    def test_branch_weighting(self, tally):
        result = tally(
            "cflow main { branch (0.25) { clc { AFDG = 4; } } else { clc { AFDG = 8; } } }")
        assert result.count("AFDG") == pytest.approx(0.25 * 4 + 0.75 * 8)

    def test_invalid_probability(self, tally):
        with pytest.raises(PslEvaluationError):
            tally("cflow main { branch (2) { clc { AFDG = 1; } } }")

    def test_negative_loop_count_rejected(self, tally):
        with pytest.raises(PslEvaluationError):
            tally("cflow main { loop (0 - 5) { clc { AFDG = 1; } } }")

    def test_cflow_call_inlining(self, tally):
        result = tally("cflow inner { clc { AFDG = 5; } }"
                       " cflow outer { loop (2) { call inner; } }", name="outer")
        assert result.count("AFDG") == 10

    def test_cflow_call_without_resolver(self):
        cflow = _cflow_model("cflow main { call other; }").get("s").cflows["main"]
        with pytest.raises(PslEvaluationError):
            oracles.evaluate_cflow(cflow, {})
