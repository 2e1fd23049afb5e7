"""Big-step interpreter for the paper's language.

The interpreter executes a program under a
:class:`~repro.core.handlers.TraceHandler`, so every capability of the
embedded runtime — simulation, scoring, constrained generation,
enumeration, MCMC, and trace translation — applies unchanged to
structured-language programs.  :func:`lang_model` wraps a program as a
:class:`~repro.core.model.Model`.

Random choices are addressed by ``(label, *loop_indices)``: the random
expression's syntactic label plus the values of the enclosing loop
variables (for ``for`` loops) or iteration counters (for ``while``
loops), the naming scheme of Section 5.4 / [44].
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.handlers import TraceHandler
from ..core.model import Model
from ..core.trace import Trace
from ..errors import ModelExecutionError
from ..distributions import Distribution, Flip, Normal, UniformDiscrete
from ..observability import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer
from .ast import (
    ArrayExpr,
    Assign,
    Binary,
    Call,
    Const,
    Expr,
    FlipExpr,
    For,
    FuncDef,
    GaussExpr,
    If,
    Index,
    IndexAssign,
    Observe,
    RandomExpr,
    Return,
    Seq,
    Skip,
    Stmt,
    Ternary,
    Unary,
    UniformExpr,
    Var,
    While,
)

__all__ = [
    "interpret",
    "lang_model",
    "EvalError",
    "choice_address",
    "distribution_of",
]


class EvalError(ModelExecutionError, RuntimeError):
    """Raised on runtime errors: unbound variables, bad indices, etc.

    Part of the :mod:`repro.errors` taxonomy (a model-execution failure),
    with ``RuntimeError`` kept as a base for pre-existing handlers.
    """


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        super().__init__("return")
        self.value = value


def _truthy(value: Any) -> bool:
    return value != 0


def choice_address(label: str, loop_indices: Tuple[int, ...]) -> Tuple:
    """The run-time address of a random choice (Section 5.4)."""
    return (label,) + tuple(loop_indices)


#: Guard against runaway recursion through user-defined functions.  Kept
#: well below Python's own frame limit (each language-level call expands
#: to several interpreter frames) so the error is a clean ``EvalError``.
MAX_CALL_DEPTH = 100


class _Interpreter:
    def __init__(self, handler: TraceHandler, env: Optional[Dict[str, Any]] = None):
        self.handler = handler
        self.env: Dict[str, Any] = dict(env) if env else {}
        #: Address context: loop indices (ints) interleaved with call-site
        #: labels (strings), in execution order (Section 5.4 / [44]).
        self.loop_indices: List[Any] = []
        self.functions: Dict[str, FuncDef] = {}
        self.call_depth = 0
        self.return_value: Any = None
        #: Instrumentation tallies (two integer increments per choice).
        self.samples = 0
        self.observes = 0

    # -- expressions ----------------------------------------------------------

    def eval(self, expr: Expr) -> Any:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in self.env:
                raise EvalError(f"unbound variable {expr.name!r}")
            return self.env[expr.name]
        if isinstance(expr, Unary):
            operand = self.eval(expr.operand)
            if expr.op == "-":
                return -operand
            if expr.op == "!":
                return 0 if _truthy(operand) else 1
            raise EvalError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, Binary):
            return self._eval_binary(expr)
        if isinstance(expr, Ternary):
            if _truthy(self.eval(expr.cond)):
                return self.eval(expr.then)
            return self.eval(expr.otherwise)
        if isinstance(expr, Index):
            array = self.eval(expr.array)
            index = self.eval(expr.index)
            if not isinstance(array, list):
                raise EvalError(f"indexing a non-array value {array!r}")
            i = int(index)
            if not 0 <= i < len(array):
                raise EvalError(f"index {i} out of bounds for array of size {len(array)}")
            return array[i]
        if isinstance(expr, ArrayExpr):
            size = int(self.eval(expr.size))
            if size < 0:
                raise EvalError(f"negative array size {size}")
            fill = self.eval(expr.fill)
            return [fill] * size
        if isinstance(expr, RandomExpr):
            dist = distribution_of(expr, self.eval)
            address = choice_address(expr.label, tuple(self.loop_indices))
            self.samples += 1
            return self.handler.sample(dist, address)
        if isinstance(expr, Call):
            return self._call(expr)
        raise EvalError(f"unknown expression {expr!r}")

    def _call(self, expr: Call) -> Any:
        function = self.functions.get(expr.name)
        if function is None:
            raise EvalError(f"call to undefined function {expr.name!r}")
        if len(expr.args) != len(function.params):
            raise EvalError(
                f"function {expr.name!r} takes {len(function.params)} argument(s), "
                f"got {len(expr.args)}"
            )
        if self.call_depth >= MAX_CALL_DEPTH:
            raise EvalError(
                f"call depth exceeded {MAX_CALL_DEPTH} (runaway recursion "
                f"through {expr.name!r}?)"
            )
        arguments = [self.eval(arg) for arg in expr.args]
        saved_env = self.env
        self.env = dict(zip(function.params, arguments))
        self.loop_indices.append(expr.label)
        self.call_depth += 1
        try:
            self.exec(function.body)
        except _ReturnSignal as signal:
            return signal.value
        finally:
            self.env = saved_env
            self.loop_indices.pop()
            self.call_depth -= 1
        raise EvalError(f"function {expr.name!r} did not return a value")

    def _eval_binary(self, expr: Binary) -> Any:
        op = expr.op
        if op == "&&":
            left = self.eval(expr.left)
            if not _truthy(left):
                return 0
            return 1 if _truthy(self.eval(expr.right)) else 0
        if op == "||":
            left = self.eval(expr.left)
            if _truthy(left):
                return 1
            return 1 if _truthy(self.eval(expr.right)) else 0
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise EvalError("division by zero")
            return left / right
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == ">=":
            return 1 if left >= right else 0
        raise EvalError(f"unknown binary operator {op!r}")

    # -- statements -------------------------------------------------------------

    def exec(self, stmt: Stmt) -> None:
        if isinstance(stmt, Skip):
            return
        if isinstance(stmt, Assign):
            self.env[stmt.name] = self.eval(stmt.expr)
            return
        if isinstance(stmt, IndexAssign):
            if stmt.name not in self.env:
                raise EvalError(f"unbound variable {stmt.name!r}")
            array = self.env[stmt.name]
            if not isinstance(array, list):
                raise EvalError(f"index-assigning a non-array variable {stmt.name!r}")
            index = int(self.eval(stmt.index))
            if not 0 <= index < len(array):
                raise EvalError(
                    f"index {index} out of bounds for array of size {len(array)}"
                )
            value = self.eval(stmt.expr)
            # Arrays are values: copy-on-write keeps earlier bindings intact.
            updated = list(array)
            updated[index] = value
            self.env[stmt.name] = updated
            return
        if isinstance(stmt, Seq):
            self.exec(stmt.first)
            self.exec(stmt.second)
            return
        if isinstance(stmt, If):
            if _truthy(self.eval(stmt.cond)):
                self.exec(stmt.then)
            else:
                self.exec(stmt.otherwise)
            return
        if isinstance(stmt, Observe):
            dist = distribution_of(stmt.random, self.eval)
            value = self.eval(stmt.value)
            address = choice_address(stmt.random.label, tuple(self.loop_indices))
            self.observes += 1
            self.handler.observe(dist, value, address)
            return
        if isinstance(stmt, For):
            low = int(self.eval(stmt.low))
            high = int(self.eval(stmt.high))
            for i in range(low, high):
                self.env[stmt.var] = i
                self.loop_indices.append(i)
                try:
                    self.exec(stmt.body)
                finally:
                    self.loop_indices.pop()
            return
        if isinstance(stmt, While):
            # The condition is evaluated inside the iteration's index so
            # that a random condition (the geometric loop of Figure 6)
            # gets a fresh address each round.
            iteration = 0
            while True:
                self.loop_indices.append(iteration)
                try:
                    if not _truthy(self.eval(stmt.cond)):
                        break
                    self.exec(stmt.body)
                finally:
                    self.loop_indices.pop()
                iteration += 1
            return
        if isinstance(stmt, Return):
            raise _ReturnSignal(self.eval(stmt.expr))
        if isinstance(stmt, FuncDef):
            if stmt.name in self.functions:
                raise EvalError(f"function {stmt.name!r} is already defined")
            self.functions[stmt.name] = stmt
            return
        raise EvalError(f"unknown statement {stmt!r}")


def distribution_of(expr: RandomExpr, eval_fn) -> Distribution:
    """The primitive distribution denoted by a random expression."""
    if isinstance(expr, FlipExpr):
        prob = eval_fn(expr.prob)
        if not 0.0 <= prob <= 1.0:
            raise EvalError(f"flip probability {prob} outside [0, 1]")
        return Flip(float(prob))
    if isinstance(expr, UniformExpr):
        low = int(eval_fn(expr.low))
        high = int(eval_fn(expr.high))
        if high < low:
            raise EvalError(f"uniform({low}, {high}) has an empty range")
        return UniformDiscrete(low, high)
    if isinstance(expr, GaussExpr):
        mean = float(eval_fn(expr.mean))
        std = float(eval_fn(expr.std))
        if std <= 0:
            raise EvalError(f"gauss std {std} must be positive")
        return Normal(mean, std)
    raise EvalError(f"unknown random expression {expr!r}")


def interpret(
    program: Stmt,
    handler: TraceHandler,
    env: Optional[Dict[str, Any]] = None,
    *,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> Any:
    """Execute ``program`` under ``handler``; return its ``return`` value.

    Programs without an explicit ``return`` return the final environment
    (a dict), which is convenient for tests.  With a real ``tracer``,
    the run is recorded as one ``model.run`` span carrying sample and
    observe counts; ``metrics`` accrues the same counts globally.
    """
    interpreter = _Interpreter(handler, env)
    try:
        if tracer.enabled:
            with tracer.span("model.run") as span:
                try:
                    interpreter.exec(program)
                finally:
                    span.count("choices.sampled", interpreter.samples)
                    span.count("choices.observed", interpreter.observes)
        else:
            interpreter.exec(program)
    except _ReturnSignal as signal:
        return signal.value
    finally:
        if metrics.enabled:
            metrics.counter("lang.samples").inc(interpreter.samples)
            metrics.counter("lang.observes").inc(interpreter.observes)
    return dict(interpreter.env)


class _LangModelFn:
    """Module-level callable wrapping one program interpretation.

    Keeps the captured state (program AST, initial bindings,
    observability sinks) in plain attributes.
    """

    __slots__ = ("program", "initial", "tracer", "metrics")

    def __init__(
        self,
        program: Stmt,
        initial: Dict[str, Any],
        tracer: Tracer,
        metrics: MetricsRegistry,
    ):
        self.program = program
        self.initial = initial
        self.tracer = tracer
        self.metrics = metrics

    def __call__(self, t: TraceHandler) -> Any:
        return interpret(
            self.program, t, self.initial, tracer=self.tracer, metrics=self.metrics
        )


def lang_model(
    program: Stmt,
    env: Optional[Dict[str, Any]] = None,
    name: Optional[str] = None,
    *,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> Model:
    """Wrap a structured-language program as an embedded-PPL ``Model``.

    ``env`` provides initial bindings (the program's parameters, like
    ``sigma`` and ``n`` for the GMM of Listing 5).  The observability
    sinks, when given, are threaded into every interpretation the model
    performs.
    """
    initial = dict(env) if env else {}
    return Model(
        _LangModelFn(program, initial, tracer, metrics), name=name or "lang_program"
    )
