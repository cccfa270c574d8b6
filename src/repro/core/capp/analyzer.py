"""The ``capp`` analysis pass: C AST -> flow descriptions.

The analyser walks each function of the parsed C subset, infers which
operands are double precision (from declarations and parameter types),
tallies the performance-critical operations of every statement and builds a
:class:`~repro.core.capp.flow.FlowNode` tree mirroring the control flow.

Counting rules (documented so the characterisation is reproducible):

===========================  ===========================================
C construct                  clc contribution
===========================  ===========================================
``a + b`` / ``a - b``        ``AFDG`` if either operand is double, else ``INTG``
``a * b``                    ``MFDG`` / ``INTG``
``a / b``                    ``DFDG`` / ``INTG``
array element read           ``LDDG`` (double array) + ``INTG`` per index
array element write          ``STDG`` (double array) + ``INTG`` per index
``if``                       ``IFBR`` plus probability-weighted branch bodies
``for``                      ``LFOR`` once, body weighted by the trip count,
                             plus ``IFBR`` + ``INTG`` per iteration
``fabs(x)``                  ``AFDG``
``fmax/fmin/max/min``        ``AFDG`` + ``IFBR``
``sqrt(x)``                  ``DFDG`` x 2
===========================  ===========================================

Scalar reads/writes are assumed register-allocated and cost nothing — the
same assumption the original capp made, and one reason the paper corrects
static counts with run-time profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from typing import Mapping

from repro.core.capp import cast
from repro.core.capp.cparser import parse_c
from repro.core.capp.flow import FlowBlock, FlowBranch, FlowLoop, FlowNode, FlowSeq
from repro.core.clc import ClcVector
from repro.errors import CappError

#: Known intrinsic/library calls and their operation cost.
_INTRINSIC_COSTS: dict[str, dict[str, float]] = {
    "fabs": {"AFDG": 1.0},
    "fmax": {"AFDG": 1.0, "IFBR": 1.0},
    "fmin": {"AFDG": 1.0, "IFBR": 1.0},
    "max": {"AFDG": 1.0, "IFBR": 1.0},
    "min": {"AFDG": 1.0, "IFBR": 1.0},
    "sqrt": {"DFDG": 2.0},
    "exp": {"MFDG": 8.0, "AFDG": 6.0},
}

_DEFAULT_BRANCH_PROBABILITY = 0.5


@dataclass
class FunctionAnalysis:
    """Result of analysing a single function."""

    name: str
    flow: FlowNode
    double_symbols: set[str] = field(default_factory=set)
    warnings: list[str] = field(default_factory=list)

    def tally(self, bindings: Mapping[str, float] | None = None) -> ClcVector:
        """Total clc vector under the given variable bindings."""
        return self.flow.tally(dict(bindings or {}))

    def describe(self) -> str:
        return f"function {self.name}:\n" + self.flow.describe(indent=2)


@dataclass
class CappAnalyzer:
    """Analysis of one translation unit."""

    functions: dict[str, FunctionAnalysis] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def function(self, name: str) -> FunctionAnalysis:
        try:
            return self.functions[name]
        except KeyError:
            raise CappError(
                f"capp: no function named {name!r} was analysed "
                f"(found: {sorted(self.functions)})") from None

    def tally(self, name: str, bindings: Mapping[str, float] | None = None) -> ClcVector:
        """Clc vector of function ``name`` under ``bindings``."""
        return self.function(name).tally(bindings)


class _FunctionWalker:
    """Walks one function body, producing its flow description."""

    def __init__(self, func: cast.FunctionDef):
        self.func = func
        self.doubles: set[str] = set()
        self.arrays: set[str] = set()
        self.warnings: list[str] = []
        for param in func.params:
            if param.ctype in ("double", "float"):
                self.doubles.add(param.name)
                if param.is_pointer:
                    self.arrays.add(param.name)
            elif param.is_pointer:
                self.arrays.add(param.name)

    # -- type bookkeeping ------------------------------------------------

    def _is_double(self, node: cast.CNode) -> bool:
        if isinstance(node, cast.Num):
            return node.is_float
        if isinstance(node, cast.Var):
            return node.name in self.doubles
        if isinstance(node, cast.Index):
            base = node.base
            return isinstance(base, cast.Var) and base.name in self.doubles
        if isinstance(node, cast.Call):
            return node.name in _INTRINSIC_COSTS
        if isinstance(node, cast.Unary):
            return self._is_double(node.operand)
        if isinstance(node, (cast.Bin, cast.Assign)):
            left = node.left if isinstance(node, cast.Bin) else node.target
            right = node.right if isinstance(node, cast.Bin) else node.value
            return self._is_double(left) or self._is_double(right)
        return False

    # -- expression counting ------------------------------------------------

    def count_expression(self, node: cast.CNode, is_store_target: bool = False) -> ClcVector:
        if isinstance(node, (cast.Num, cast.Var)):
            return ClcVector()
        if isinstance(node, cast.Index):
            clc = ClcVector({"INTG": float(len(node.indices))})
            for index in node.indices:
                clc = clc + self.count_expression(index)
            base_is_double = self._is_double(node)
            if base_is_double:
                clc = clc + ClcVector({"STDG" if is_store_target else "LDDG": 1.0})
            return clc
        if isinstance(node, cast.Call):
            clc = ClcVector()
            for arg in node.args:
                clc = clc + self.count_expression(arg)
            cost = _INTRINSIC_COSTS.get(node.name)
            if cost is None:
                self.warnings.append(
                    f"call to unknown function {node.name!r} counted as zero cost")
                return clc
            return clc + ClcVector(dict(cost))
        if isinstance(node, cast.Unary):
            clc = self.count_expression(node.operand)
            if node.op == "-":
                return clc + ClcVector({"AFDG" if self._is_double(node.operand) else "INTG": 1.0})
            if node.op in ("++", "--"):
                return clc + ClcVector({"INTG": 1.0})
            return clc
        if isinstance(node, cast.Bin):
            clc = self.count_expression(node.left) + self.count_expression(node.right)
            is_double = self._is_double(node)
            if node.op in ("+", "-"):
                return clc + ClcVector({"AFDG" if is_double else "INTG": 1.0})
            if node.op == "*":
                return clc + ClcVector({"MFDG" if is_double else "INTG": 1.0})
            if node.op == "/":
                return clc + ClcVector({"DFDG" if is_double else "INTG": 1.0})
            if node.op == "%":
                return clc + ClcVector({"INTG": 1.0})
            # Comparisons and logical connectives: the branch cost is charged
            # by the enclosing if/for statement.
            return clc
        if isinstance(node, cast.Assign):
            clc = self.count_expression(node.value)
            clc = clc + self.count_expression(node.target, is_store_target=True)
            if node.op != "=":
                is_double = self._is_double(node)
                op = node.op[0]
                if op in ("+", "-"):
                    clc = clc + ClcVector({"AFDG" if is_double else "INTG": 1.0})
                elif op == "*":
                    clc = clc + ClcVector({"MFDG" if is_double else "INTG": 1.0})
                elif op == "/":
                    clc = clc + ClcVector({"DFDG" if is_double else "INTG": 1.0})
            return clc
        raise CappError(f"capp: cannot count expression node {node!r}")

    # -- statements ------------------------------------------------------------

    def walk_block(self, block: cast.Block) -> FlowNode:
        children: list[FlowNode] = []
        for statement in block.statements:
            children.append(self.walk_statement(statement))
        return FlowSeq(children)

    def walk_statement(self, statement: cast.CNode) -> FlowNode:
        if isinstance(statement, cast.Block):
            return self.walk_block(statement)
        if isinstance(statement, cast.Decl):
            return self._walk_declaration(statement)
        if isinstance(statement, cast.ExprStmt):
            return FlowBlock(self.count_expression(statement.expr))
        if isinstance(statement, cast.Return):
            if statement.value is None:
                return FlowBlock(ClcVector())
            return FlowBlock(self.count_expression(statement.value))
        if isinstance(statement, cast.If):
            return self._walk_if(statement)
        if isinstance(statement, cast.For):
            return self._walk_for(statement)
        raise CappError(f"capp: unsupported statement node {statement!r}")

    def _walk_declaration(self, decl: cast.Decl) -> FlowNode:
        clc = ClcVector()
        for name, init, is_array in decl.names:
            if decl.ctype in ("double", "float"):
                self.doubles.add(name)
                if is_array:
                    self.arrays.add(name)
            if init is not None:
                clc = clc + self.count_expression(init)
        return FlowBlock(clc)

    def _walk_if(self, statement: cast.If) -> FlowNode:
        probability = statement.pragma.get("prob", _DEFAULT_BRANCH_PROBABILITY)
        condition_cost = FlowBlock(
            self.count_expression(statement.cond) + ClcVector({"IFBR": 1.0}))
        then_flow = self.walk_block(statement.then)
        else_flow = self.walk_block(statement.els) if statement.els is not None else None
        return FlowSeq([condition_cost,
                        FlowBranch(probability, then_flow, else_flow)])

    def _walk_for(self, statement: cast.For) -> FlowNode:
        count = self._trip_count(statement)
        init_cost = ClcVector()
        if isinstance(statement.init, cast.ExprStmt):
            init_cost = self.count_expression(statement.init.expr)
        elif isinstance(statement.init, cast.Decl):
            init_node = self._walk_declaration(statement.init)
            init_cost = init_node.tally({})
        per_iteration = FlowSeq([
            self.walk_block(statement.body),
            FlowBlock(ClcVector({"IFBR": 1.0, "INTG": 1.0})),   # test + increment
        ])
        return FlowSeq([
            FlowBlock(init_cost + ClcVector({"LFOR": 1.0})),
            FlowLoop(count, per_iteration),
        ])

    def _trip_count(self, statement: cast.For) -> cast.CNode | float:
        if "trips" in statement.pragma:
            return float(statement.pragma["trips"])
        start: cast.CNode | None = None
        variable: str | None = None
        if isinstance(statement.init, cast.ExprStmt) \
                and isinstance(statement.init.expr, cast.Assign):
            assign = statement.init.expr
            if isinstance(assign.target, cast.Var):
                variable = assign.target.name
                start = assign.value
        elif isinstance(statement.init, cast.Decl) and len(statement.init.names) == 1:
            name, init, _ = statement.init.names[0]
            variable, start = name, init
        cond = statement.cond
        if (variable is None or start is None or not isinstance(cond, cast.Bin)
                or not isinstance(cond.left, cast.Var) or cond.left.name != variable
                or cond.op not in ("<", "<=")):
            raise CappError(
                "capp: cannot infer the trip count of a for loop; add a "
                "'/* capp: trips=<n> */' pragma (the profiled average), as the "
                "paper does for data-dependent loop bounds")
        limit = cond.right
        difference = cast.Bin("-", limit, start)
        if cond.op == "<=":
            return cast.Bin("+", difference, cast.Num(1.0, False))
        return difference


def analyze_source(source: str) -> CappAnalyzer:
    """Run ``capp`` over C source text."""
    program = parse_c(source)
    analyzer = CappAnalyzer()
    for func in program.functions:
        walker = _FunctionWalker(func)
        flow = walker.walk_block(func.body)
        analysis = FunctionAnalysis(name=func.name, flow=flow,
                                    double_symbols=set(walker.doubles),
                                    warnings=list(walker.warnings))
        analyzer.functions[func.name] = analysis
        analyzer.warnings.extend(walker.warnings)
    return analyzer


def sweep_kernel_source() -> str:
    """The bundled C source of the SWEEP3D inner kernel."""
    resource = importlib_resources.files("repro.core") / "resources" / "csrc" / "sweep_kernel.c"
    return resource.read_text()
