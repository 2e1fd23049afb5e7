"""The paper's structured probabilistic language (Section 3).

Concrete syntax, AST, big-step interpretation (bridged to the embedded
runtime, so all inference machinery applies), literal small-step
semantics (Figure 2), a pretty-printer, and static analyses.
"""

from .analysis import (
    assigned_variables,
    children,
    equal_modulo_labels,
    free_variables,
    random_expressions,
    random_labels,
    relabel,
    walk,
)
from .ast import (
    ArrayExpr,
    Call,
    FuncDef,
    Assign,
    Binary,
    Const,
    Expr,
    FlipExpr,
    For,
    GaussExpr,
    If,
    Index,
    IndexAssign,
    Node,
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
    seq,
)
from .check import check_program
from .types import ARRAY, SCALAR, UNKNOWN, check_kinds
from .optimize import fold_constants, fold_expr
from .interp import EvalError, choice_address, distribution_of, interpret, lang_model
from .lexer import LexError, Token, tokenize
from .parser import ParseError, parse_expr, parse_program
from .pretty import pretty, pretty_expr
from .smallstep import (
    ChoiceSource,
    Config,
    RandomSource,
    ReplaySource,
    RunResult,
    Step,
    run,
    step,
)

__all__ = [
    # ast
    "Node",
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Ternary",
    "Index",
    "ArrayExpr",
    "RandomExpr",
    "FlipExpr",
    "UniformExpr",
    "GaussExpr",
    "Stmt",
    "Skip",
    "Assign",
    "IndexAssign",
    "Seq",
    "If",
    "Observe",
    "For",
    "While",
    "Return",
    "FuncDef",
    "Call",
    "seq",
    # lexer / parser
    "Token",
    "LexError",
    "tokenize",
    "ParseError",
    "parse_expr",
    "parse_program",
    # interpretation
    "EvalError",
    "interpret",
    "lang_model",
    "choice_address",
    "distribution_of",
    # small-step semantics
    "ChoiceSource",
    "RandomSource",
    "ReplaySource",
    "Config",
    "Step",
    "step",
    "run",
    "RunResult",
    # pretty-printing & analysis
    "pretty",
    "pretty_expr",
    "children",
    "walk",
    "random_expressions",
    "random_labels",
    "free_variables",
    "assigned_variables",
    "equal_modulo_labels",
    "relabel",
    "check_program",
    "check_kinds",
    "SCALAR",
    "ARRAY",
    "UNKNOWN",
    "fold_constants",
    "fold_expr",
]
