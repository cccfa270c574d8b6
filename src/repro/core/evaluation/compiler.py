"""Compile phase of the two-phase (compile -> execute) evaluation pipeline.

The seed evaluation engine re-walked the PSL AST on every ``predict()``
call: every expression was re-dispatched on its node type, every cflow was
re-accumulated statement by statement, and every ``call`` statement
re-resolved its target object and link block.  For a single prediction that
is fine; for the sweeps this repository exists to run (hundreds of
(problem size, blocking, processor array, hardware) points) it is the hot
path.

This module lowers a :class:`~repro.core.ir.ModelSet` once into directly
executable closures:

* **Object linkage is resolved at compile time** — ``call`` targets, link
  blocks and ``partmp`` references become direct references to compiled
  objects instead of name lookups.
* **Expressions become pre-bound closures** — one Python callable per AST
  node, built once, with ``flow(name)`` calls resolved to the owning
  object's cflow at compile time.
* **cflows are constant-folded and memoised** — each cflow knows the exact
  set of variables its value depends on (computed transitively through
  ``call`` statements).  A cflow with no free variables folds to a constant
  :class:`~repro.core.clc.ClcVector` at compile time; the rest memoise
  their vectors keyed on just the referenced variable values, so a sweep
  that varies ``npe_i`` never re-evaluates a cflow that only reads ``kt``.
* **``proc`` bodies are lowered to flat plans** — lists of instruction
  closures executed by a small driver loop, with control-flow statements
  (``for``/``if``) compiled into closures over their pre-compiled bodies.

The execute phase is :class:`CompiledExecutor`: it binds a compiled model
to one HMCL hardware object and carries the evaluation-time caches.  The
subtask cache is keyed on ``(subtask, environment, hardware fingerprint)``
so swapping or mutating the hardware model can never return stale times
(the seed engine's cache ignored the hardware entirely).

Numerical behaviour is bit-identical to the seed's AST-walking interpreter:
the compiled closures perform exactly the same floating point operations in
exactly the same order, through the coercion and operator helpers
:func:`_as_number` and :func:`_apply_binop` below.  The interpreter itself
is kept outside the package, as the test suite's reference oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.clc import ClcVector
from repro.core.hmcl.model import HardwareModel
from repro.core.ir import ModelObject, ModelSet, ObjectKind
from repro.core.psl import ast
from repro.core.templates import get_strategy
from repro.core.templates.base import StageSpec, StageStep, TemplateResult
from repro.core.evaluation.result import PredictionResult, SubtaskBreakdown
from repro.errors import EvaluationError, PslEvaluationError, PslNameError

#: Hard cap on loop iterations inside ``proc`` bodies (guards against typos).
MAX_LOOP_ITERATIONS = 1_000_000

#: Maximum structural nesting of cflow bodies (mirrors the interpreter).
_MAX_CFLOW_DEPTH = 32

#: Sentinel used in memoisation keys for variables absent from an environment.
_MISSING = object()

Env = dict  # variable environment: dict[str, float | str]

#: A compiled expression: ``(executor, env) -> float | str``.
CompiledExpr = Callable[["CompiledExecutor", Env], object]

#: A compiled procedure instruction: ``(executor, env, state) -> None``.
Instr = Callable[["CompiledExecutor", Env, "_ExecState"], None]


def _as_number(value: object, context: str) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    raise PslEvaluationError(f"{context}: expected a number, got {value!r}")


def _apply_binop(op: str, left: float | str, right: float | str) -> float:
    if op in ("&&", "||"):
        lnum, rnum = _as_number(left, op), _as_number(right, op)
        if op == "&&":
            return 1.0 if (lnum != 0 and rnum != 0) else 0.0
        return 1.0 if (lnum != 0 or rnum != 0) else 0.0
    if op in ("==", "!="):
        equal = left == right
        return 1.0 if (equal if op == "==" else not equal) else 0.0
    lnum, rnum = _as_number(left, op), _as_number(right, op)
    if op == "+":
        return lnum + rnum
    if op == "-":
        return lnum - rnum
    if op == "*":
        return lnum * rnum
    if op == "/":
        if rnum == 0:
            raise PslEvaluationError("division by zero in PSL expression")
        return lnum / rnum
    if op == "%":
        if rnum == 0:
            raise PslEvaluationError("modulo by zero in PSL expression")
        return math.fmod(lnum, rnum)
    if op == "<":
        return 1.0 if lnum < rnum else 0.0
    if op == "<=":
        return 1.0 if lnum <= rnum else 0.0
    if op == ">":
        return 1.0 if lnum > rnum else 0.0
    if op == ">=":
        return 1.0 if lnum >= rnum else 0.0
    raise PslEvaluationError(f"unknown operator {op!r}")


def hardware_fingerprint(hardware: HardwareModel) -> tuple:
    """A value-based identity for a hardware model, used in cache keys.

    Two hardware models with the same fingerprint produce identical
    predictions, so cached subtask times may be shared between them; any
    mutation of the cpu/mpi sections changes the fingerprint and therefore
    misses the cache instead of returning stale times.
    """
    mpi = hardware.mpi
    return (
        hardware.name,
        hardware.processors_per_node,
        hardware.cpu.source,
        tuple(sorted(hardware.cpu.op_costs.items())),
        tuple(sorted(mpi.send.as_dict().items())),
        tuple(sorted(mpi.recv.as_dict().items())),
        tuple(sorted(mpi.pingpong.as_dict().items())),
    )


@dataclass
class _ExecState:
    """Accumulator while executing an application procedure."""

    time: float = 0.0
    breakdown: dict = field(default_factory=dict)

    def charge(self, name: str, result: TemplateResult) -> None:
        item = self.breakdown.setdefault(name, SubtaskBreakdown(name=name))
        item.time += result.time
        item.calls += 1
        item.compute_time += result.compute_time
        item.communication_time += result.communication_time
        self.time += result.time


@dataclass
class CacheStats:
    """Cache-hit accounting of one executor (or an aggregated sweep)."""

    predictions: int = 0
    subtask_hits: int = 0
    subtask_misses: int = 0
    flow_hits: int = 0
    flow_misses: int = 0

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            predictions=self.predictions + other.predictions,
            subtask_hits=self.subtask_hits + other.subtask_hits,
            subtask_misses=self.subtask_misses + other.subtask_misses,
            flow_hits=self.flow_hits + other.flow_hits,
            flow_misses=self.flow_misses + other.flow_misses,
        )

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """The accounting accumulated after ``baseline`` was captured."""
        return CacheStats(
            predictions=self.predictions - baseline.predictions,
            subtask_hits=self.subtask_hits - baseline.subtask_hits,
            subtask_misses=self.subtask_misses - baseline.subtask_misses,
            flow_hits=self.flow_hits - baseline.flow_hits,
            flow_misses=self.flow_misses - baseline.flow_misses,
        )

    def describe(self) -> str:
        return (f"{self.predictions} prediction(s); subtask cache "
                f"{self.subtask_hits} hit(s) / {self.subtask_misses} miss(es); "
                f"flow cache {self.flow_hits} hit(s) / {self.flow_misses} miss(es)")


# ---------------------------------------------------------------------------
# Compiled cflows
# ---------------------------------------------------------------------------


class CompiledCflow:
    """A cflow lowered to a closure, with constant folding and memoisation.

    ``free_vars`` is the exact set of environment variables the cflow's
    value depends on (collected transitively through ``call`` statements at
    compile time); the vector cache is keyed on just those values.  A cflow
    with no free variables is folded to its constant vector eagerly.
    """

    __slots__ = ("name", "free_vars", "_fn", "_cache")

    def __init__(self, name: str, fn: Callable[[Env], ClcVector],
                 free_vars: frozenset):
        self.name = name
        self.free_vars = tuple(sorted(free_vars))
        self._fn = fn
        self._cache: dict = {}
        if not self.free_vars:
            try:
                self._cache[()] = fn({})
            except Exception:
                # Defer compile-time failures to evaluation time so the
                # compiled pipeline raises exactly where the interpreter does.
                pass

    def key(self, env: Mapping) -> tuple:
        return tuple(env.get(name, _MISSING) for name in self.free_vars)

    def vector(self, env: Mapping) -> ClcVector:
        """The cflow's operation vector under ``env`` (memoised)."""
        key = self.key(env)
        try:
            cached = self._cache.get(key)
        except TypeError:           # unhashable variable value
            return self._fn(env)
        if cached is None:
            cached = self._fn(env)
            self._cache[key] = cached
        return cached


# ---------------------------------------------------------------------------
# Compiled objects
# ---------------------------------------------------------------------------


class CompiledObject:
    """One PSL object lowered to executable form."""

    def __init__(self, obj: ModelObject):
        self.obj = obj
        self.name = obj.name
        self.kind = obj.kind
        self.cflows: dict[str, CompiledCflow] = {}
        #: Ordered variable defaults: list of (name, compiled expression).
        self.defaults: list[tuple[str, CompiledExpr]] = []
        #: Lowered procedure plans, keyed by procedure name.
        self.plans: dict[str, list[Instr]] = {}
        #: Compiled link blocks: target name -> list of (name, expression).
        self.links: dict[str, list[tuple[str, CompiledExpr]]] = {}
        #: For subtasks: the compiled parallel template (resolved linkage).
        self.template: CompiledObject | None = None
        #: For templates: compiled stage steps, or an error message when the
        #: stage procedure contains a non-step statement.
        self.stage_steps: list[tuple[str, list[tuple[str, CompiledExpr]]]] = []
        self.stage_error: str | None = None
        self._strategy = None

    def plan(self, name: str) -> list[Instr]:
        if name not in self.plans:
            # Raise the interpreter's lookup error (includes the proc list).
            self.obj.proc(name)
        return self.plans[name]

    def strategy(self):
        if self._strategy is None:
            try:
                self._strategy = get_strategy(self.obj.strategy)
            except KeyError as exc:
                raise EvaluationError(str(exc)) from exc
        return self._strategy


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class CompiledModel:
    """A :class:`~repro.core.ir.ModelSet` lowered to executable plans.

    Compilation is hardware-independent: one compiled model can be executed
    against any number of HMCL hardware objects (see :meth:`executor`), and
    its cflow vector caches are shared between them.
    """

    def __init__(self, model: ModelSet):
        model.validate()
        self.model = model
        self.objects: dict[str, CompiledObject] = {
            name: CompiledObject(obj) for name, obj in model.objects.items()
        }
        self.application = self.objects[model.application.name]
        for cobj in self.objects.values():
            self._compile_object(cobj)

    def executor(self, hardware: HardwareModel) -> "CompiledExecutor":
        """Bind the compiled model to a hardware object for execution."""
        return CompiledExecutor(self, hardware)

    # -- object compilation ------------------------------------------------

    def _compile_object(self, cobj: CompiledObject) -> None:
        obj = cobj.obj
        for name, cflow in obj.cflows.items():
            free: set = set()
            fn = self._compile_cflow_body(cflow.body, obj, depth=0, free=free)
            cobj.cflows[name] = CompiledCflow(name, fn, frozenset(free))
        cobj.defaults = [(name, self._compile_expression(expr, cobj))
                         for name, expr in obj.variables.items()]
        for target, assignments in obj.links.items():
            cobj.links[target] = [(name, self._compile_expression(expr, cobj))
                                  for name, expr in assignments.items()]
        if obj.kind is ObjectKind.PARTMP:
            if obj.partmp is None and "stage" in obj.procs:
                self._compile_stage(cobj)
        else:
            for name, proc in obj.procs.items():
                cobj.plans[name] = [self._compile_statement(stmt, cobj)
                                    for stmt in proc.body]
        if obj.kind is ObjectKind.SUBTASK and obj.partmp is not None:
            cobj.template = self.objects[obj.partmp]

    def _compile_stage(self, cobj: CompiledObject) -> None:
        for statement in cobj.obj.proc("stage").body:
            if not isinstance(statement, ast.StepStmt):
                cobj.stage_error = (
                    f"the stage procedure of template {cobj.name!r} may only "
                    "contain step statements")
                return
            params = [(key, self._compile_expression(expr, cobj))
                      for key, expr in statement.params.items()]
            cobj.stage_steps.append((statement.device, params))

    # -- expression compilation --------------------------------------------

    def _compile_expression(self, node: ast.PslNode,
                            cobj: CompiledObject | None,
                            free: set | None = None) -> CompiledExpr:
        """Compile an expression into a ``(executor, env) -> value`` closure.

        ``cobj`` supplies the owning object's cflows for ``flow()`` calls
        (``None`` in cflow bodies, where ``flow()`` is not available).
        ``free`` collects referenced variable names when given.
        """
        if isinstance(node, ast.Num):
            value = node.value
            return lambda ctx, env: value
        if isinstance(node, ast.Str):
            value = node.value
            return lambda ctx, env: value
        if isinstance(node, ast.VarRef):
            name = node.name
            if free is not None:
                free.add(name)

            def load(ctx, env, _name=name):
                try:
                    return env[_name]
                except KeyError:
                    raise PslNameError(
                        f"undefined variable {_name!r} in expression") from None
            return load
        if isinstance(node, ast.UnaryOp):
            operand = self._compile_expression(node.operand, cobj, free)
            if node.op == "-":
                return lambda ctx, env: -_as_number(operand(ctx, env), "unary -")
            return lambda ctx, env: _as_number(operand(ctx, env), "unary -")
        if isinstance(node, ast.BinOp):
            left = self._compile_expression(node.left, cobj, free)
            right = self._compile_expression(node.right, cobj, free)
            op = node.op
            return lambda ctx, env: _apply_binop(op, left(ctx, env), right(ctx, env))
        if isinstance(node, ast.FuncCall):
            return self._compile_call(node, cobj, free)
        raise PslEvaluationError(f"cannot evaluate expression node {node!r}")

    def _compile_call(self, node: ast.FuncCall, cobj: CompiledObject | None,
                      free: set | None) -> CompiledExpr:
        name = node.name.lower()
        if name == "flow":
            return self._compile_flow_call(node, cobj)

        args = [self._compile_expression(arg, cobj, free) for arg in node.args]

        def numbers(ctx, env):
            return [_as_number(arg(ctx, env), name) for arg in args]

        if name == "ceil" and len(args) == 1:
            arg = args[0]
            return lambda ctx, env: float(
                math.ceil(_as_number(arg(ctx, env), name) - 1e-12))
        if name == "floor" and len(args) == 1:
            arg = args[0]
            return lambda ctx, env: float(
                math.floor(_as_number(arg(ctx, env), name) + 1e-12))
        if name == "abs" and len(args) == 1:
            arg = args[0]
            return lambda ctx, env: abs(_as_number(arg(ctx, env), name))
        if name == "log2" and len(args) == 1:
            arg = args[0]

            def log2(ctx, env):
                value = _as_number(arg(ctx, env), name)
                if value <= 0:
                    raise PslEvaluationError("log2() of a non-positive value")
                return math.log2(value)
            return log2
        if name == "max" and args:
            return lambda ctx, env: max(numbers(ctx, env))
        if name == "min" and args:
            return lambda ctx, env: min(numbers(ctx, env))

        message = (f"unknown PSL function {node.name!r} with "
                   f"{len(node.args)} argument(s)")

        def unknown(ctx, env):
            numbers(ctx, env)       # evaluate arguments first, as the interpreter does
            raise PslEvaluationError(message)
        return unknown

    def _compile_flow_call(self, node: ast.FuncCall,
                           cobj: CompiledObject | None) -> CompiledExpr:
        if cobj is None:
            def no_hardware(ctx, env):
                raise PslEvaluationError(
                    "flow() can only be used where a hardware model is in scope "
                    "(link expressions and procedures of subtask objects)")
            return no_hardware
        if len(node.args) != 1:
            def bad_arity(ctx, env):
                raise PslEvaluationError("flow() takes exactly one argument")
            return bad_arity
        arg = node.args[0]
        if isinstance(arg, ast.VarRef):
            target = arg.name
        elif isinstance(arg, ast.Str):
            target = arg.value
        else:
            def bad_arg(ctx, env):
                raise PslEvaluationError("flow() expects a cflow name")
            return bad_arg
        cflow = cobj.cflows.get(target)
        if cflow is None:
            obj = cobj.obj

            def missing(ctx, env):
                obj.cflow(target)           # raises the interpreter's PslNameError
            return missing
        return lambda ctx, env: ctx.flow_value(cflow, env)

    # -- cflow compilation --------------------------------------------------

    def _compile_cflow_body(self, body: list, obj: ModelObject, depth: int,
                            free: set) -> Callable[[Env], ClcVector]:
        if depth > _MAX_CFLOW_DEPTH:
            def too_deep(env):
                raise PslEvaluationError(
                    "cflow call nesting exceeds 32 levels (cycle?)")
            return too_deep

        # Statement closures take and return the running total so the
        # accumulation order (and therefore every floating point rounding)
        # matches the interpreter bit for bit — a branch with an else arm
        # performs two separate additions there, not one fused sum.
        parts = [self._compile_cflow_statement(statement, obj, depth, free)
                 for statement in body]

        def run(env):
            total = ClcVector()
            for part in parts:
                total = part(env, total)
            return total
        return run

    def _compile_cflow_statement(
            self, statement, obj: ModelObject, depth: int,
            free: set) -> Callable[[Env, ClcVector], ClcVector]:
        if isinstance(statement, ast.ClcStmt):
            counts = [(mnemonic, self._compile_expression(expr, None, free))
                      for mnemonic, expr in statement.counts.items()]

            def clc(env, total):
                return total + ClcVector({
                    mnemonic: _as_number(expr(None, env), f"clc {mnemonic}")
                    for mnemonic, expr in counts})
            return clc
        if isinstance(statement, ast.LoopStmt):
            count_expr = self._compile_expression(statement.count, None, free)
            inner = self._compile_cflow_body(statement.body, obj, depth + 1, free)

            def loop(env, total):
                count = _as_number(count_expr(None, env), "loop count")
                if count < 0:
                    raise PslEvaluationError(f"negative loop count {count} in cflow")
                return total + inner(env) * count
            return loop
        if isinstance(statement, ast.BranchStmt):
            prob_expr = self._compile_expression(statement.probability, None, free)
            then = self._compile_cflow_body(statement.then, obj, depth + 1, free)
            els = (self._compile_cflow_body(statement.els, obj, depth + 1, free)
                   if statement.els else None)

            def branch(env, total):
                probability = _as_number(prob_expr(None, env), "branch probability")
                if not 0.0 <= probability <= 1.0:
                    raise PslEvaluationError(
                        f"branch probability {probability} outside [0, 1] in cflow")
                total = total + then(env) * probability
                if els is not None:
                    total = total + els(env) * (1.0 - probability)
                return total
            return branch
        if isinstance(statement, ast.CflowCallStmt):
            target = statement.target
            nested = obj.cflows.get(target)
            if nested is None:
                def missing(env, total):
                    obj.cflow(target)       # raises PslNameError with context
                return missing
            nested_body = self._compile_cflow_body(nested.body, obj, depth + 1, free)
            return lambda env, total: total + nested_body(env)

        def unsupported(env, total):
            raise PslEvaluationError(f"unsupported cflow statement {statement!r}")
        return unsupported

    # -- procedure lowering -------------------------------------------------

    def _compile_statement(self, statement, cobj: CompiledObject) -> Instr:
        if isinstance(statement, ast.VarDeclStmt):
            names = [(name, self._compile_expression(init, cobj)
                      if init is not None else None)
                     for name, init in statement.names]

            def decl(ctx, env, state):
                for name, init in names:
                    env[name] = init(ctx, env) if init is not None else 0.0
            return decl
        if isinstance(statement, ast.AssignStmt):
            name = statement.name
            value = self._compile_expression(statement.value, cobj)

            def assign(ctx, env, state):
                env[name] = value(ctx, env)
            return assign
        if isinstance(statement, ast.ComputeStmt):
            seconds_expr = self._compile_expression(statement.seconds, cobj)
            obj_name = cobj.name

            def compute(ctx, env, state):
                seconds = float(seconds_expr(ctx, env))
                if seconds < 0:
                    raise EvaluationError(
                        "compute statement produced a negative time")
                state.charge(obj_name,
                             TemplateResult(time=seconds, compute_time=seconds))
            return compute
        if isinstance(statement, ast.CallStmt):
            return self._compile_call_statement(statement, cobj)
        if isinstance(statement, ast.ForStmt):
            return self._compile_for(statement, cobj)
        if isinstance(statement, ast.IfStmt):
            cond = self._compile_expression(statement.cond, cobj)
            then = [self._compile_statement(stmt, cobj) for stmt in statement.then]
            els = [self._compile_statement(stmt, cobj) for stmt in statement.els]

            def branch(ctx, env, state):
                plan = then if float(cond(ctx, env)) != 0.0 else els
                for instr in plan:
                    instr(ctx, env, state)
            return branch
        if isinstance(statement, ast.StepStmt):
            message = ("step statements are only meaningful inside parallel "
                       f"template stage procedures (object {cobj.name!r})")
        else:
            message = (f"unsupported statement {type(statement).__name__} in a "
                       f"procedure of {cobj.name!r}")

        def unsupported(ctx, env, state):
            raise EvaluationError(message)
        return unsupported

    def _compile_for(self, statement: ast.ForStmt, cobj: CompiledObject) -> Instr:
        var = statement.var
        start_expr = self._compile_expression(statement.start, cobj)
        stop_expr = self._compile_expression(statement.stop, cobj)
        step_expr = (self._compile_expression(statement.step, cobj)
                     if statement.step is not None else None)
        body = [self._compile_statement(stmt, cobj) for stmt in statement.body]
        obj_name = cobj.name

        def loop(ctx, env, state):
            start = float(start_expr(ctx, env))
            stop = float(stop_expr(ctx, env))
            step = float(step_expr(ctx, env)) if step_expr is not None else 1.0
            if step == 0:
                raise EvaluationError(f"for loop in {obj_name!r} has a zero step")
            iterations = 0
            value = start
            while (value <= stop + 1e-12) if step > 0 else (value >= stop - 1e-12):
                env[var] = value
                for instr in body:
                    instr(ctx, env, state)
                value += step
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise EvaluationError(
                        f"for loop in {obj_name!r} exceeded "
                        f"{MAX_LOOP_ITERATIONS} iterations")
        return loop

    def _compile_call_statement(self, statement: ast.CallStmt,
                                cobj: CompiledObject) -> Instr:
        target_name = statement.target
        target = self.objects.get(target_name)
        if target is None:
            model = self.model

            def missing(ctx, env, state):
                model.get(target_name)      # raises the canonical PslNameError
            return missing
        link = cobj.links.get(target_name, [])

        if target.kind is ObjectKind.SUBTASK:
            def call_subtask(ctx, env, state):
                overrides = {name: expr(ctx, env) for name, expr in link}
                child_env = ctx.object_environment(target, overrides)
                state.charge(target.name, ctx.evaluate_subtask(target, child_env))
            return call_subtask
        if target.kind is ObjectKind.PARTMP:
            def call_template(ctx, env, state):
                overrides = {name: expr(ctx, env) for name, expr in link}
                child_env = ctx.object_environment(target, overrides)
                state.charge(target.name, ctx.evaluate_template(target, child_env))
            return call_template

        message = (f"object {cobj.name!r} cannot call application object "
                   f"{target_name!r}")

        def bad_kind(ctx, env, state):
            raise EvaluationError(message)
        return bad_kind


# ---------------------------------------------------------------------------
# The executor (execute phase)
# ---------------------------------------------------------------------------


class CompiledExecutor:
    """Executes a :class:`CompiledModel` against one hardware model.

    Carries the evaluation-time caches:

    * the **subtask cache**, keyed on ``(subtask, environment, hardware
      fingerprint)`` — safe against hardware mutation or swapping;
    * the **flow cache**, memoising ``flow(name)`` seconds keyed on the
      cflow's referenced variables plus the hardware fingerprint (the
      underlying clc vectors are cached hardware-independently on the
      compiled cflows themselves, shared across executors).
    """

    def __init__(self, compiled: CompiledModel, hardware: HardwareModel):
        self.compiled = compiled
        self.hardware = hardware
        self.cache: dict = {}
        self.stats = CacheStats()
        self._flow_cache: dict = {}
        self._hw_token = hardware_fingerprint(hardware)

    # -- public entry points ------------------------------------------------

    def predict(self, variables: Mapping | None = None,
                entry_proc: str = "init") -> PredictionResult:
        self.refresh_hardware()
        self.stats.predictions += 1
        app = self.compiled.application
        env = self.object_environment(app, dict(variables or {}))
        state = _ExecState()
        self.run_plan(app.plan(entry_proc), env, state)
        return PredictionResult(
            total_time=state.time,
            breakdown=state.breakdown,
            variables={k: v for k, v in env.items()
                       if isinstance(v, (int, float, str))},
            hardware_name=self.hardware.name,
            application_name=app.name,
        )

    def clear_cache(self) -> None:
        self.cache.clear()
        self._flow_cache.clear()

    def refresh_hardware(self) -> None:
        """Recompute the hardware fingerprint (cheap; called per prediction).

        In-place mutation of the bound hardware model changes the
        fingerprint and therefore the cache keys, so stale entries are
        simply never hit again.
        """
        self._hw_token = hardware_fingerprint(self.hardware)

    # -- execution ----------------------------------------------------------

    def run_plan(self, plan: list, env: Env, state: _ExecState) -> None:
        for instr in plan:
            instr(self, env, state)

    def object_environment(self, cobj: CompiledObject, overrides: Mapping) -> Env:
        env: Env = {}
        for name, default in cobj.defaults:
            env[name] = default(self, env)
        for name, value in overrides.items():
            env[name] = value
        return env

    def flow_value(self, cflow: CompiledCflow, env: Env) -> float:
        key = (id(cflow), cflow.key(env), self._hw_token)
        try:
            cached = self._flow_cache.get(key)
        except TypeError:
            return self.hardware.compute_time(cflow.vector(env))
        if cached is None:
            self.stats.flow_misses += 1
            cached = self.hardware.compute_time(cflow.vector(env))
            self._flow_cache[key] = cached
        else:
            self.stats.flow_hits += 1
        return cached

    def evaluate_subtask(self, cobj: CompiledObject, env: Env) -> TemplateResult:
        cache_key = self._cache_key(cobj.name, env)
        if cache_key is not None:
            cached = self.cache.get(cache_key)
            if cached is not None:
                self.stats.subtask_hits += 1
                return cached
            self.stats.subtask_misses += 1

        if cobj.template is None:
            if "init" in cobj.plans:
                state = _ExecState()
                self.run_plan(cobj.plans["init"], env, state)
                result = TemplateResult(time=state.time, compute_time=state.time)
            else:
                raise EvaluationError(
                    f"subtask {cobj.name!r} has neither a parallel template nor "
                    "an init procedure")
        else:
            template = cobj.template
            overrides = {name: expr(self, env)
                         for name, expr in cobj.links.get(template.name, [])}
            template_env = self.object_environment(template, overrides)
            result = self.evaluate_template(template, template_env)

        if cache_key is not None:
            self.cache[cache_key] = result
        return result

    def evaluate_template(self, cobj: CompiledObject, env: Env) -> TemplateResult:
        if cobj.kind is not ObjectKind.PARTMP:
            raise EvaluationError(f"object {cobj.name!r} is not a parallel template")
        if cobj.stage_error is not None:
            raise EvaluationError(cobj.stage_error)
        spec = StageSpec()
        for device, params in cobj.stage_steps:
            spec.steps.append(StageStep(
                device=device,
                params={key: expr(self, env) for key, expr in params}))
        return cobj.strategy().evaluate(env, spec, self.hardware)

    # -- helpers ------------------------------------------------------------

    def _cache_key(self, name: str, env: Mapping) -> tuple | None:
        try:
            return (name, tuple(sorted(env.items())), self._hw_token)
        except TypeError:
            return None
