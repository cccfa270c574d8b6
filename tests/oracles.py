"""Reference evaluators that the production prediction path is checked against.

These are the original, deliberately straightforward implementations of the
PACE evaluation, kept out of the package because only tests and the
``sweep_100pt_compiled_vs_naive`` benchmark gate use them:

* :func:`evaluate_expression` / :func:`evaluate_cflow` — the AST-walking
  PSL expression and cflow interpreter;
* :class:`InterpretedEngine` — object- and procedure-level evaluation on
  top of that interpreter.  It evaluates ``pipeline`` templates with
  :func:`numpy_wavefront` and every other strategy through the registry;
* :func:`numpy_wavefront` — the wavefront recurrence vectorised with numpy
  over the anti-diagonals of the processor array;
* :func:`dict_wavefront` — the same recurrence as a per-rank loop over a
  dict, in sweep order.

The compiled executor (:mod:`repro.core.evaluation.compiler`) and
:meth:`PipelineStrategy.evaluate <repro.core.templates.pipeline.PipelineStrategy.evaluate>`
must agree with these bit for bit: they perform the same floating point
operations in the same order.  The compiler's operand coercion and binary
operators (:func:`_as_number`, :func:`_apply_binop`) are shared, not
re-implemented here.

Tests import this module as ``oracles`` (pytest puts ``tests/`` on
``sys.path``); ``benchmarks/conftest.py`` adds ``tests/`` for the gates.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from repro.core.clc import ClcVector
from repro.core.evaluation.compiler import (
    MAX_LOOP_ITERATIONS,
    _apply_binop,
    _as_number,
    _ExecState,
)
from repro.core.evaluation.result import PredictionResult
from repro.core.hmcl.model import HardwareModel
from repro.core.ir import ModelObject, ModelSet, ObjectKind
from repro.core.psl import ast
from repro.core.templates import PipelineStrategy, get_strategy
from repro.core.templates.base import StageSpec, StageStep, TemplateResult, require_int
from repro.errors import EvaluationError, PslEvaluationError, PslNameError
from repro.sweep3d.geometry import octant_order

#: Signature of the callback used to resolve ``flow(name)`` calls.
FlowEvaluator = Callable[[str], float]


# ---------------------------------------------------------------------------
# The PSL expression and cflow interpreter
# ---------------------------------------------------------------------------


def evaluate_expression(node: ast.PslNode, variables: Mapping[str, float | str],
                        flow_evaluator: FlowEvaluator | None = None) -> float | str:
    """Evaluate a PSL expression AST against a variable environment."""
    if isinstance(node, ast.Num):
        return node.value
    if isinstance(node, ast.Str):
        return node.value
    if isinstance(node, ast.VarRef):
        if node.name not in variables:
            raise PslNameError(f"undefined variable {node.name!r} in expression")
        return variables[node.name]
    if isinstance(node, ast.UnaryOp):
        value = _as_number(
            evaluate_expression(node.operand, variables, flow_evaluator), "unary -")
        return -value if node.op == "-" else value
    if isinstance(node, ast.BinOp):
        left = evaluate_expression(node.left, variables, flow_evaluator)
        right = evaluate_expression(node.right, variables, flow_evaluator)
        return _apply_binop(node.op, left, right)
    if isinstance(node, ast.FuncCall):
        return _apply_function(node, variables, flow_evaluator)
    raise PslEvaluationError(f"cannot evaluate expression node {node!r}")


def _apply_function(node: ast.FuncCall, variables: Mapping[str, float | str],
                    flow_evaluator: FlowEvaluator | None) -> float:
    name = node.name.lower()
    if name == "flow":
        if flow_evaluator is None:
            raise PslEvaluationError(
                "flow() can only be used where a hardware model is in scope "
                "(link expressions and procedures of subtask objects)")
        if len(node.args) != 1:
            raise PslEvaluationError("flow() takes exactly one argument")
        arg = node.args[0]
        if isinstance(arg, ast.VarRef):
            target = arg.name
        elif isinstance(arg, ast.Str):
            target = arg.value
        else:
            raise PslEvaluationError("flow() expects a cflow name")
        return flow_evaluator(target)

    args = [
        _as_number(evaluate_expression(arg, variables, flow_evaluator), name)
        for arg in node.args
    ]
    if name == "ceil" and len(args) == 1:
        return float(math.ceil(args[0] - 1e-12))
    if name == "floor" and len(args) == 1:
        return float(math.floor(args[0] + 1e-12))
    if name == "abs" and len(args) == 1:
        return abs(args[0])
    if name == "log2" and len(args) == 1:
        if args[0] <= 0:
            raise PslEvaluationError("log2() of a non-positive value")
        return math.log2(args[0])
    if name == "max" and args:
        return max(args)
    if name == "min" and args:
        return min(args)
    raise PslEvaluationError(f"unknown PSL function {node.name!r} with {len(args)} argument(s)")


def evaluate_cflow(cflow: ast.CflowDef, variables: Mapping[str, float | str],
                   resolve_cflow: Callable[[str], ast.CflowDef] | None = None) -> ClcVector:
    """Evaluate a ``cflow`` definition into a clc operation vector.

    ``resolve_cflow`` resolves ``call <name>;`` statements to other cflow
    definitions of the same object (inlining).
    """
    return _evaluate_cflow_body(cflow.body, variables, resolve_cflow, depth=0)


def _evaluate_cflow_body(body: list[ast.PslNode], variables: Mapping[str, float | str],
                         resolve_cflow: Callable[[str], ast.CflowDef] | None,
                         depth: int) -> ClcVector:
    if depth > 32:
        raise PslEvaluationError("cflow call nesting exceeds 32 levels (cycle?)")
    total = ClcVector()
    for statement in body:
        if isinstance(statement, ast.ClcStmt):
            counts = {}
            for mnemonic, expr in statement.counts.items():
                counts[mnemonic] = _as_number(
                    evaluate_expression(expr, variables), f"clc {mnemonic}")
            total = total + ClcVector(counts)
        elif isinstance(statement, ast.LoopStmt):
            count = _as_number(evaluate_expression(statement.count, variables), "loop count")
            if count < 0:
                raise PslEvaluationError(f"negative loop count {count} in cflow")
            inner = _evaluate_cflow_body(statement.body, variables, resolve_cflow, depth + 1)
            total = total + inner * count
        elif isinstance(statement, ast.BranchStmt):
            probability = _as_number(
                evaluate_expression(statement.probability, variables), "branch probability")
            if not 0.0 <= probability <= 1.0:
                raise PslEvaluationError(
                    f"branch probability {probability} outside [0, 1] in cflow")
            then = _evaluate_cflow_body(statement.then, variables, resolve_cflow, depth + 1)
            total = total + then * probability
            if statement.els:
                els = _evaluate_cflow_body(statement.els, variables, resolve_cflow, depth + 1)
                total = total + els * (1.0 - probability)
        elif isinstance(statement, ast.CflowCallStmt):
            if resolve_cflow is None:
                raise PslEvaluationError(
                    f"cflow call to {statement.target!r} cannot be resolved here")
            nested = resolve_cflow(statement.target)
            total = total + _evaluate_cflow_body(nested.body, variables, resolve_cflow,
                                                 depth + 1)
        else:
            raise PslEvaluationError(f"unsupported cflow statement {statement!r}")
    return total


# ---------------------------------------------------------------------------
# Object- and procedure-level evaluation
# ---------------------------------------------------------------------------


class InterpretedEngine:
    """The AST-walking evaluator of a model set on one hardware model.

    Its subtask cache is **not** hardware-aware: call :meth:`clear_cache`
    after swapping or mutating :attr:`hardware`.
    """

    def __init__(self, model: ModelSet, hardware: HardwareModel):
        model.validate()
        self.model = model
        self.hardware = hardware
        self._subtask_cache: dict[tuple, tuple[float, TemplateResult]] = {}

    # ------------------------------------------------------------------

    def predict(self, variables: Mapping[str, float | str] | None = None,
                entry_proc: str = "init") -> PredictionResult:
        app = self.model.application
        env = self._object_environment(app, dict(variables or {}))
        state = _ExecState()
        self._execute_proc(app, app.proc(entry_proc).body, env, state)
        return PredictionResult(
            total_time=state.time,
            breakdown=state.breakdown,
            variables={k: v for k, v in env.items() if isinstance(v, (int, float, str))},
            hardware_name=self.hardware.name,
            application_name=app.name,
        )

    def predict_subtask(self, name: str,
                        variables: Mapping[str, float | str] | None = None) -> TemplateResult:
        subtask = self.model.get(name)
        env = self._object_environment(subtask, dict(variables or {}))
        return self._evaluate_subtask(subtask, env)

    # ------------------------------------------------------------------
    # Environments
    # ------------------------------------------------------------------

    def _object_environment(self, obj: ModelObject,
                            overrides: Mapping[str, float | str]) -> dict[str, float | str]:
        """Evaluate an object's variable defaults, then apply overrides."""
        env: dict[str, float | str] = {}
        for name, default in obj.variables.items():
            env[name] = evaluate_expression(default, env,
                                            self._flow_evaluator(obj, env))
        for name, value in overrides.items():
            env[name] = value
        return env

    def _flow_evaluator(self, obj: ModelObject, env: Mapping[str, float | str]):
        """Build the ``flow(name)`` callback for expressions evaluated in ``obj``."""
        def evaluate_flow(name: str) -> float:
            cflow = obj.cflow(name)
            clc = evaluate_cflow(cflow, env, resolve_cflow=obj.cflow)
            return self.hardware.compute_time(clc)
        return evaluate_flow

    def cflow_vector(self, object_name: str, cflow_name: str,
                     variables: Mapping[str, float | str] | None = None):
        obj = self.model.get(object_name)
        env = self._object_environment(obj, dict(variables or {}))
        return evaluate_cflow(obj.cflow(cflow_name), env, resolve_cflow=obj.cflow)

    # ------------------------------------------------------------------
    # Procedure execution (application-level control flow)
    # ------------------------------------------------------------------

    def _execute_proc(self, obj: ModelObject, body: list[ast.PslNode],
                      env: dict[str, float | str], state: _ExecState) -> None:
        flow = self._flow_evaluator(obj, env)
        for statement in body:
            if isinstance(statement, ast.VarDeclStmt):
                for name, init in statement.names:
                    env[name] = (evaluate_expression(init, env, flow)
                                 if init is not None else 0.0)
            elif isinstance(statement, ast.AssignStmt):
                env[statement.name] = evaluate_expression(statement.value, env, flow)
            elif isinstance(statement, ast.ComputeStmt):
                seconds = float(evaluate_expression(statement.seconds, env, flow))
                if seconds < 0:
                    raise EvaluationError("compute statement produced a negative time")
                state.charge(obj.name, TemplateResult(time=seconds, compute_time=seconds))
            elif isinstance(statement, ast.CallStmt):
                self._execute_call(obj, statement.target, env, state)
            elif isinstance(statement, ast.ForStmt):
                self._execute_for(obj, statement, env, state)
            elif isinstance(statement, ast.IfStmt):
                condition = evaluate_expression(statement.cond, env, flow)
                branch = statement.then if float(condition) != 0.0 else statement.els
                self._execute_proc(obj, branch, env, state)
            elif isinstance(statement, ast.StepStmt):
                raise EvaluationError(
                    "step statements are only meaningful inside parallel template "
                    f"stage procedures (object {obj.name!r})")
            else:
                raise EvaluationError(
                    f"unsupported statement {type(statement).__name__} in a procedure "
                    f"of {obj.name!r}")

    def _execute_for(self, obj: ModelObject, statement: ast.ForStmt,
                     env: dict[str, float | str], state: _ExecState) -> None:
        flow = self._flow_evaluator(obj, env)
        start = float(evaluate_expression(statement.start, env, flow))
        stop = float(evaluate_expression(statement.stop, env, flow))
        step = (float(evaluate_expression(statement.step, env, flow))
                if statement.step is not None else 1.0)
        if step == 0:
            raise EvaluationError(f"for loop in {obj.name!r} has a zero step")
        iterations = 0
        value = start
        while (value <= stop + 1e-12) if step > 0 else (value >= stop - 1e-12):
            env[statement.var] = value
            self._execute_proc(obj, statement.body, env, state)
            value += step
            iterations += 1
            if iterations > MAX_LOOP_ITERATIONS:
                raise EvaluationError(
                    f"for loop in {obj.name!r} exceeded {MAX_LOOP_ITERATIONS} iterations")

    def _execute_call(self, caller: ModelObject, target_name: str,
                      env: dict[str, float | str], state: _ExecState) -> None:
        target = self.model.get(target_name)
        caller_flow = self._flow_evaluator(caller, env)
        overrides: dict[str, float | str] = {}
        for name, expr in caller.link_for(target_name).items():
            overrides[name] = evaluate_expression(expr, env, caller_flow)
        child_env = self._object_environment(target, overrides)

        if target.kind is ObjectKind.SUBTASK:
            result = self._evaluate_subtask(target, child_env)
            state.charge(target.name, result)
        elif target.kind is ObjectKind.PARTMP:
            result = self._evaluate_template(target, child_env)
            state.charge(target.name, result)
        else:
            raise EvaluationError(
                f"object {caller.name!r} cannot call application object {target_name!r}")

    # ------------------------------------------------------------------
    # Subtask / template evaluation
    # ------------------------------------------------------------------

    def _evaluate_subtask(self, subtask: ModelObject,
                          env: dict[str, float | str]) -> TemplateResult:
        cache_key = self._cache_key(subtask.name, env)
        if cache_key is not None and cache_key in self._subtask_cache:
            _, cached = self._subtask_cache[cache_key]
            return cached

        if subtask.partmp is None:
            # A subtask without a template behaves as purely serial work from
            # its optional init procedure.
            if "init" in subtask.procs:
                state = _ExecState()
                self._execute_proc(subtask, subtask.proc("init").body, env, state)
                result = TemplateResult(time=state.time, compute_time=state.time)
            else:
                raise EvaluationError(
                    f"subtask {subtask.name!r} has neither a parallel template nor "
                    "an init procedure")
        else:
            template = self.model.get(subtask.partmp)
            flow = self._flow_evaluator(subtask, env)
            overrides: dict[str, float | str] = {}
            for name, expr in subtask.link_for(subtask.partmp).items():
                overrides[name] = evaluate_expression(expr, env, flow)
            template_env = self._object_environment(template, overrides)
            result = self._evaluate_template(template, template_env)

        if cache_key is not None:
            self._subtask_cache[cache_key] = (result.time, result)
        return result

    def _evaluate_template(self, template: ModelObject,
                           env: dict[str, float | str]) -> TemplateResult:
        if template.kind is not ObjectKind.PARTMP:
            raise EvaluationError(f"object {template.name!r} is not a parallel template")
        stage = self._stage_spec(template, env)
        try:
            strategy = get_strategy(template.strategy)
        except KeyError as exc:
            raise EvaluationError(str(exc)) from exc
        if isinstance(strategy, PipelineStrategy):
            return numpy_wavefront(env, stage, self.hardware)
        return strategy.evaluate(env, stage, self.hardware)

    def _stage_spec(self, template: ModelObject, env: dict[str, float | str]) -> StageSpec:
        """Evaluate the template's ``stage`` procedure into a stage specification."""
        spec = StageSpec()
        if "stage" not in template.procs:
            return spec
        flow = self._flow_evaluator(template, env)
        for statement in template.proc("stage").body:
            if not isinstance(statement, ast.StepStmt):
                raise EvaluationError(
                    f"the stage procedure of template {template.name!r} may only "
                    "contain step statements")
            params = {key: evaluate_expression(expr, env, flow)
                      for key, expr in statement.params.items()}
            spec.steps.append(StageStep(device=statement.device, params=params))
        return spec

    # ------------------------------------------------------------------

    @staticmethod
    def _cache_key(name: str, env: Mapping[str, float | str]) -> tuple | None:
        try:
            return (name, tuple(sorted(env.items())))
        except TypeError:
            return None

    def clear_cache(self) -> None:
        """Drop memoised subtask evaluations (e.g. after mutating the hardware model)."""
        self._subtask_cache.clear()


# ---------------------------------------------------------------------------
# The pipeline wavefront
# ---------------------------------------------------------------------------


def _wavefront_inputs(variables: Mapping[str, float | str], stage: StageSpec,
                      hardware: HardwareModel):
    npe_i = require_int(variables, "npe_i", minimum=1)
    npe_j = require_int(variables, "npe_j", minimum=1)
    n_k_blocks = require_int(variables, "n_k_blocks", minimum=1)
    n_angle_blocks = require_int(variables, "n_angle_blocks", minimum=1)
    costs = PipelineStrategy()._stage_costs(variables, stage, hardware)
    return npe_i, npe_j, n_k_blocks * n_angle_blocks, costs


def numpy_wavefront(variables: Mapping[str, float | str], stage: StageSpec,
                    hardware: HardwareModel) -> TemplateResult:
    """The ``pipeline`` template evaluated with numpy over anti-diagonals."""
    npe_i, npe_j, blocks_per_octant, costs = _wavefront_inputs(variables, stage, hardware)
    finish = np.zeros((npe_i, npe_j))
    for octant in octant_order():
        si = 1 if octant.idir > 0 else -1
        sj = 1 if octant.jdir > 0 else -1
        # Views in "sweep space": index [0, 0] is the octant's origin corner.
        finish_view = finish[::si, ::sj]
        for _ in range(blocks_per_octant):
            _advance_block_numpy(finish_view, costs, npe_i, npe_j)

    total = float(finish.max())
    return PipelineStrategy()._result(total, costs, npe_i, npe_j, 8 * blocks_per_octant)


def _advance_block_numpy(finish_view: np.ndarray, costs, npe_i: int, npe_j: int) -> None:
    """Advance every rank's finish time by one block of this octant.

    ``finish_view`` is oriented so index ``[0, 0]`` is the sweep origin;
    it is updated in place.  Arrival arrays hold the virtual time at
    which the upstream neighbour's message for *this* block reaches each
    rank.
    """
    arrival_ew = np.zeros((npe_i, npe_j))
    arrival_ns = np.zeros((npe_i, npe_j))

    for diag in range(npe_i + npe_j - 1):
        a_lo = max(0, diag - (npe_j - 1))
        a_hi = min(npe_i - 1, diag)
        a_idx = np.arange(a_lo, a_hi + 1)
        b_idx = diag - a_idx

        t = finish_view[a_idx, b_idx]
        has_up_ew = a_idx > 0
        has_up_ns = b_idx > 0
        if has_up_ew.any():
            t = np.where(has_up_ew,
                         np.maximum(t, arrival_ew[a_idx, b_idx]) + costs.recv_ew, t)
        if has_up_ns.any():
            t = np.where(has_up_ns,
                         np.maximum(t, arrival_ns[a_idx, b_idx]) + costs.recv_ns, t)
        t = t + costs.work

        has_dn_ew = a_idx < npe_i - 1
        if has_dn_ew.any():
            arrival_ew[a_idx[has_dn_ew] + 1, b_idx[has_dn_ew]] = (
                t[has_dn_ew] + costs.delivery_ew)
            t = np.where(has_dn_ew, t + costs.send_ew, t)
        has_dn_ns = b_idx < npe_j - 1
        if has_dn_ns.any():
            arrival_ns[a_idx[has_dn_ns], b_idx[has_dn_ns] + 1] = (
                t[has_dn_ns] + costs.delivery_ns)
            t = np.where(has_dn_ns, t + costs.send_ns, t)

        finish_view[a_idx, b_idx] = t


def dict_wavefront(variables: Mapping[str, float | str], stage: StageSpec,
                   hardware: HardwareModel) -> TemplateResult:
    """The ``pipeline`` template as a straightforward per-rank loop (slow)."""
    npe_i, npe_j, blocks_per_octant, costs = _wavefront_inputs(variables, stage, hardware)
    finish = {(i, j): 0.0 for i in range(npe_i) for j in range(npe_j)}
    for octant in octant_order():
        for _ in range(blocks_per_octant):
            arrival_ew: dict[tuple[int, int], float] = {}
            arrival_ns: dict[tuple[int, int], float] = {}
            order = sorted(
                finish,
                key=lambda rc: ((rc[0] if octant.idir > 0 else npe_i - 1 - rc[0])
                                + (rc[1] if octant.jdir > 0 else npe_j - 1 - rc[1])))
            for (i, j) in order:
                t = finish[(i, j)]
                up_i = (i - octant.idir, j)
                up_j = (i, j - octant.jdir)
                if 0 <= up_i[0] < npe_i:
                    t = max(t, arrival_ew[(i, j)]) + costs.recv_ew
                if 0 <= up_j[1] < npe_j:
                    t = max(t, arrival_ns[(i, j)]) + costs.recv_ns
                t += costs.work
                dn_i = (i + octant.idir, j)
                dn_j = (i, j + octant.jdir)
                if 0 <= dn_i[0] < npe_i:
                    arrival_ew[dn_i] = t + costs.delivery_ew
                    t += costs.send_ew
                if 0 <= dn_j[1] < npe_j:
                    arrival_ns[dn_j] = t + costs.delivery_ns
                    t += costs.send_ns
                finish[(i, j)] = t
    total = max(finish.values())
    return PipelineStrategy()._result(total, costs, npe_i, npe_j, 8 * blocks_per_octant)
