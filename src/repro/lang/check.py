"""Static checks for structured-language programs.

The paper's semantics assumes programs "initialize all variables before
first use" (Section 3); :func:`check_program` verifies that assumption
statically, along with a collection of cheap well-formedness checks:

* use of possibly-undefined variables (beyond declared parameters);
* calls to undefined functions, arity mismatches, duplicate or shadowed
  definitions, calls before the definition is executed;
* function bodies that may fall off the end without ``return``;
* constant distribution parameters that are certainly invalid
  (``flip`` probability outside ``[0, 1]``, empty ``uniform`` range,
  non-positive ``gauss`` std, negative ``array`` size);
* ``while`` loops whose condition is a constant truthy value.

Diagnostics are advisory — programs are still executed dynamically —
but the ``error``-severity ones are guaranteed to fail at run time on
every execution that reaches them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..analysis.diagnostics import Diagnostic

from .optimize import fold_expr
from .ast import (
    ArrayExpr,
    Assign,
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

__all__ = ["check_program"]


class _Checker:
    def __init__(self, parameters: Iterable[str]):
        self.diagnostics: List[Diagnostic] = []
        self.functions: Dict[str, FuncDef] = {}
        self.defined_so_far: Set[str] = set()
        self.parameters = set(parameters)
        #: Set for the top-level pass: bodies were already checked with
        #: the full function table (mutual recursion is fine there).
        self.skip_function_bodies = False

    def error(self, message: str, code: Optional[str] = None) -> None:
        self.diagnostics.append(
            Diagnostic("error", message, code=code, pass_name="programs")
        )

    def warning(self, message: str, code: Optional[str] = None) -> None:
        self.diagnostics.append(
            Diagnostic("warning", message, code=code, pass_name="programs")
        )

    # -- expressions --------------------------------------------------------

    def check_expr(self, expr: Expr, bound: Set[str]) -> None:
        if isinstance(expr, Const):
            return
        if isinstance(expr, Var):
            if expr.name not in bound:
                self.error(f"variable {expr.name!r} may be used before assignment", code="use-before-assign")
            return
        if isinstance(expr, Unary):
            self.check_expr(expr.operand, bound)
            return
        if isinstance(expr, (Index,)):
            self.check_expr(expr.array, bound)
            self.check_expr(expr.index, bound)
            return
        if isinstance(expr, Ternary):
            self.check_expr(expr.cond, bound)
            self.check_expr(expr.then, bound)
            self.check_expr(expr.otherwise, bound)
            return
        if isinstance(expr, ArrayExpr):
            size = fold_expr(expr.size)
            if isinstance(size, Const) and size.value < 0:
                self.error(f"array size {size.value} is negative", code="param-range")
            self.check_expr(expr.size, bound)
            self.check_expr(expr.fill, bound)
            return
        if isinstance(expr, FlipExpr):
            prob = fold_expr(expr.prob)
            if isinstance(prob, Const) and not 0 <= prob.value <= 1:
                self.error(
                    f"flip probability {prob.value} is outside [0, 1]",
                    code="param-range",
                )
            self.check_expr(expr.prob, bound)
            return
        if isinstance(expr, UniformExpr):
            low, high = fold_expr(expr.low), fold_expr(expr.high)
            if (
                isinstance(low, Const)
                and isinstance(high, Const)
                and high.value < low.value
            ):
                self.error(
                    f"uniform({low.value}, {high.value}) has an empty range",
                    code="param-range",
                )
            self.check_expr(expr.low, bound)
            self.check_expr(expr.high, bound)
            return
        if isinstance(expr, GaussExpr):
            std = fold_expr(expr.std)
            if isinstance(std, Const) and std.value <= 0:
                self.error(f"gauss std {std.value} is not positive", code="param-range")
            self.check_expr(expr.mean, bound)
            self.check_expr(expr.std, bound)
            return
        if isinstance(expr, Call):
            function = self.functions.get(expr.name)
            if function is None:
                self.error(f"call to undefined function {expr.name!r}", code="undefined-function")
            else:
                if expr.name not in self.defined_so_far:
                    self.warning(
                        f"function {expr.name!r} is called before its "
                        "definition is executed"
                    )
                if len(expr.args) != len(function.params):
                    self.error(
                        f"function {expr.name!r} takes {len(function.params)} "
                        f"argument(s), call passes {len(expr.args)}"
                    )
            for arg in expr.args:
                self.check_expr(arg, bound)
            return
        # Binary: structural recursion over its two operands.
        self.check_expr(expr.left, bound)  # type: ignore[attr-defined]
        self.check_expr(expr.right, bound)  # type: ignore[attr-defined]

    # -- statements --------------------------------------------------------------

    def check_stmt(self, stmt: Stmt, bound: Set[str]) -> Set[str]:
        """Check ``stmt``; return variables definitely assigned by it."""
        if isinstance(stmt, Skip):
            return set()
        if isinstance(stmt, Assign):
            self.check_expr(stmt.expr, bound)
            return {stmt.name}
        if isinstance(stmt, IndexAssign):
            if stmt.name not in bound:
                self.error(
                    f"array {stmt.name!r} may be index-assigned before assignment"
                )
            self.check_expr(stmt.index, bound)
            self.check_expr(stmt.expr, bound)
            return set()
        if isinstance(stmt, Seq):
            first = self.check_stmt(stmt.first, bound)
            second = self.check_stmt(stmt.second, bound | first)
            return first | second
        if isinstance(stmt, If):
            self.check_expr(stmt.cond, bound)
            then_assigned = self.check_stmt(stmt.then, set(bound))
            else_assigned = self.check_stmt(stmt.otherwise, set(bound))
            return then_assigned & else_assigned
        if isinstance(stmt, Observe):
            self.check_expr(stmt.random, bound)
            self.check_expr(stmt.value, bound)
            return set()
        if isinstance(stmt, For):
            self.check_expr(stmt.low, bound)
            self.check_expr(stmt.high, bound)
            self.check_stmt(stmt.body, bound | {stmt.var})
            return set()
        if isinstance(stmt, While):
            if isinstance(stmt.cond, Const) and stmt.cond.value != 0:
                self.warning("while condition is a constant truthy value; the loop cannot terminate", code="const-loop")
            self.check_expr(stmt.cond, bound)
            self.check_stmt(stmt.body, set(bound))
            return set()
        if isinstance(stmt, Return):
            self.check_expr(stmt.expr, bound)
            return set()
        if isinstance(stmt, FuncDef):
            if not self.skip_function_bodies:
                self.check_stmt(stmt.body, set(stmt.params))
                if not _definitely_returns(stmt.body):
                    self.warning(
                        f"function {stmt.name!r} may finish without a return"
                    )
            self.defined_so_far.add(stmt.name)
            return set()
        raise TypeError(f"unknown statement {stmt!r}")


def _definitely_returns(stmt: Stmt) -> bool:
    if isinstance(stmt, Return):
        return True
    if isinstance(stmt, Seq):
        return _definitely_returns(stmt.first) or _definitely_returns(stmt.second)
    if isinstance(stmt, If):
        return _definitely_returns(stmt.then) and _definitely_returns(stmt.otherwise)
    return False


def _collect_functions(program: Stmt, checker: _Checker) -> None:
    node = program
    while isinstance(node, Seq):
        if isinstance(node.first, FuncDef):
            definition = node.first
            if definition.name in checker.functions:
                checker.error(f"function {definition.name!r} is defined twice")
            checker.functions[definition.name] = definition
        node = node.second
    if isinstance(node, FuncDef):
        if node.name in checker.functions:
            checker.error(f"function {node.name!r} is defined twice")
        checker.functions[node.name] = node


def check_program(
    program: Stmt, parameters: Sequence[str] = ()
) -> List[Diagnostic]:
    """Run all static checks; ``parameters`` are env-supplied names.

    Function bodies may call any function defined anywhere in the
    program (recursion and mutual recursion are fine); top-level calls
    before a ``def`` is executed get a warning, since they fail at run
    time.
    """
    checker = _Checker(parameters)
    _collect_functions(program, checker)
    # Pass 1 — function bodies, with every function visible (bodies run
    # only after all top-level defs have executed in valid programs, and
    # mutual recursion must not warn).
    checker.defined_so_far = set(checker.functions)
    for definition in checker.functions.values():
        checker.check_stmt(definition.body, set(definition.params))
        if not _definitely_returns(definition.body):
            checker.warning(f"function {definition.name!r} may finish without a return")
    # Pass 2 — the top level, tracking textual definition order so calls
    # that precede their def get flagged; bodies are not re-checked.
    checker.defined_so_far = set()
    checker.skip_function_bodies = True
    checker.check_stmt(program, set(parameters))
    return checker.diagnostics
