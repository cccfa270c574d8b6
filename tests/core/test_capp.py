"""Tests for the capp static C source analyser."""

import pytest

from repro.core.capp.analyzer import analyze_source, sweep_kernel_source
from repro.core.capp.clexer import parse_pragma, tokenize
from repro.core.capp.cparser import parse_c
from repro.core.capp.flow import FlowLoop, evaluate_count_expression
from repro.errors import CappError, CappSyntaxError
from repro.simproc.opcodes import OpCategory
from repro.sweep3d.kernel import SweepKernel


class TestLexer:
    def test_tokenises_basic_source(self):
        tokens = tokenize("int x = 3; /* comment */ double y;")
        texts = [t.text for t in tokens]
        assert "int" in texts and "double" in texts and "3" in texts
        assert all(t.kind != "comment" for t in tokens)

    def test_pragma_preserved(self):
        tokens = tokenize("/* capp: prob=0.25 trips=10 */ if (x > 0) { }")
        assert tokens[0].kind == "pragma"
        assert parse_pragma(tokens[0]) == {"prob": 0.25, "trips": 10.0}

    def test_malformed_pragma(self):
        token = tokenize("/* capp: garbage */")[0]
        with pytest.raises(CappSyntaxError):
            parse_pragma(token)

    def test_unknown_character(self):
        with pytest.raises(CappSyntaxError):
            tokenize("int x @ y;")

    def test_preprocessor_skipped(self):
        tokens = tokenize("#include <math.h>\nint x;")
        assert tokens[0].text == "int"


class TestParser:
    def test_function_with_loop(self):
        program = parse_c("""
        void f(int n, double *a) {
            int i;
            for (i = 0; i < n; i++) {
                a[i] = a[i] * 2.0;
            }
        }
        """)
        assert [f.name for f in program.functions] == ["f"]
        func = program.function("f")
        assert func.params[0].name == "n"
        assert func.params[1].is_pointer

    def test_unknown_function_lookup(self):
        program = parse_c("void f(int n) { n = n + 1; }")
        with pytest.raises(KeyError):
            program.function("g")

    def test_while_rejected(self):
        with pytest.raises(CappSyntaxError):
            parse_c("void f(int n) { while (n) { n = n - 1; } }")

    def test_if_else(self):
        program = parse_c("""
        double g(double x) {
            double y;
            if (x > 0.0) { y = x; } else { y = 0.0 - x; }
            return y;
        }
        """)
        assert program.function("g").name == "g"

    def test_syntax_error_reports_line(self):
        with pytest.raises(CappSyntaxError):
            parse_c("void f( { }")


class TestAnalyzer:
    def test_simple_loop_counts(self):
        analyzer = analyze_source("""
        void saxpy(int n, double a, double *x, double *y) {
            int i;
            for (i = 0; i < n; i++) {
                y[i] = y[i] + a * x[i];
            }
        }
        """)
        tally = analyzer.tally("saxpy", {"n": 100})
        assert tally.count("MFDG") == 100
        assert tally.count("AFDG") == 100
        assert tally.count("LDDG") == 200      # y[i] and x[i] reads
        assert tally.count("STDG") == 100
        assert tally.count("LFOR") == 1

    def test_symbolic_trip_count_needs_binding(self):
        analyzer = analyze_source("""
        void f(int n, double *x) {
            int i;
            for (i = 0; i < n; i++) { x[i] = x[i] + 1.0; }
        }
        """)
        with pytest.raises(CappError):
            analyzer.tally("f", {})

    def test_trip_count_pragma_overrides(self):
        analyzer = analyze_source("""
        void f(double *x, int lo, int hi) {
            int i;
            /* capp: trips=7 */
            for (i = lo; i < hi; i = i + 1) { x[i] = x[i] * 2.0; }
        }
        """)
        assert analyzer.tally("f", {}).count("MFDG") == 7

    def test_branch_probability_weighting(self):
        analyzer = analyze_source("""
        void f(int n, double *x) {
            int i;
            for (i = 0; i < n; i++) {
                /* capp: prob=0.1 */
                if (x[i] < 0.0) {
                    x[i] = x[i] * 2.0;
                }
            }
        }
        """)
        tally = analyzer.tally("f", {"n": 1000})
        assert tally.count("MFDG") == pytest.approx(100.0)
        assert tally.count("IFBR") >= 1000

    def test_nested_loops_multiply(self):
        analyzer = analyze_source("""
        void f(int n, int m, double *x) {
            int i, j;
            for (i = 0; i < n; i++) {
                for (j = 0; j < m; j++) {
                    x[j] = x[j] + 1.0;
                }
            }
        }
        """)
        assert analyzer.tally("f", {"n": 4, "m": 5}).count("AFDG") == 20

    def test_integer_arithmetic_not_counted_as_flops(self):
        analyzer = analyze_source("""
        void f(int n, double *x) {
            int i, k;
            for (i = 0; i < n; i++) {
                k = i * 2 + 1;
                x[k] = 1.0;
            }
        }
        """)
        tally = analyzer.tally("f", {"n": 10})
        assert tally.flops == 0
        assert tally.count("INTG") > 0

    def test_intrinsic_costs(self):
        analyzer = analyze_source("""
        double f(double x) {
            double y;
            y = fabs(x);
            return sqrt(y);
        }
        """)
        tally = analyzer.tally("f", {})
        assert tally.count("AFDG") == 1     # fabs
        assert tally.count("DFDG") == 2     # sqrt

    def test_unknown_call_warns(self):
        analyzer = analyze_source("""
        double f(double x) { return mystery(x); }
        """)
        assert any("mystery" in warning for warning in analyzer.warnings)

    def test_unknown_function_name(self):
        analyzer = analyze_source("void f(int n) { n = n + 1; }")
        with pytest.raises(CappError):
            analyzer.tally("missing", {})


class TestFlowEvaluation:
    def test_count_expression_arithmetic(self):
        from repro.core.capp import cast
        expr = cast.Bin("-", cast.Var("hi"), cast.Var("lo"))
        assert evaluate_count_expression(expr, {"hi": 10, "lo": 4}) == 6

    def test_count_expression_unbound(self):
        from repro.core.capp import cast
        with pytest.raises(CappError):
            evaluate_count_expression(cast.Var("n"), {})

    def test_negative_counts_clamped(self):
        from repro.core.capp import cast
        from repro.core.capp.flow import FlowBlock
        from repro.core.clc import ClcVector
        loop = FlowLoop(cast.Num(-5.0, False), FlowBlock(ClcVector({"AFDG": 1})))
        assert loop.tally({}).count("AFDG") == 0.0

    def test_branch_probability_validation(self):
        from repro.core.capp.flow import FlowBlock, FlowBranch
        from repro.core.clc import ClcVector
        with pytest.raises(CappError):
            FlowBranch(1.5, FlowBlock(ClcVector()))

    def test_describe_renders_tree(self):
        analyzer = analyze_source("""
        void f(int n, double *x) {
            int i;
            for (i = 0; i < n; i++) { x[i] = x[i] + 1.0; }
        }
        """)
        text = analyzer.function("f").describe()
        assert "loop" in text and "clc" in text


class TestSweepKernelResource:
    def test_all_three_kernels_analysed(self):
        analyzer = analyze_source(sweep_kernel_source())
        assert {"sweep_block", "source_update", "flux_error"} <= set(analyzer.functions)

    def test_per_cell_angle_flops_match_canonical(self):
        """capp's static count agrees with the hand-verified characterisation."""
        analyzer = analyze_source(sweep_kernel_source())
        tally = analyzer.tally("sweep_block", dict(nx=1, ny=1, mk=1, mmi=1))
        assert tally.flops == SweepKernel.flops_per_cell_angle()
        assert tally.count("AFDG") == SweepKernel.cell_mix().count(OpCategory.FADD)
        assert tally.count("MFDG") == SweepKernel.cell_mix().count(OpCategory.FMUL)
        assert tally.count("DFDG") == 1

    def test_counts_scale_with_block_size(self):
        analyzer = analyze_source(sweep_kernel_source())
        tally = analyzer.tally("sweep_block", dict(nx=50, ny=50, mk=10, mmi=3))
        assert tally.flops == pytest.approx(36 * 50 * 50 * 10 * 3)

    def test_source_update_flops_per_cell(self):
        analyzer = analyze_source(sweep_kernel_source())
        tally = analyzer.tally("source_update", dict(ncells=1000))
        assert tally.flops == pytest.approx(2000)

    def test_flux_error_flops_per_cell(self):
        analyzer = analyze_source(sweep_kernel_source())
        tally = analyzer.tally("flux_error", dict(ncells=1000))
        assert tally.flops == pytest.approx(4000, rel=0.3)
