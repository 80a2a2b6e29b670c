"""Small expression language for test functions on the gasket models.

Grammar (standard precedence, ^ binds tightest, parentheses allowed):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' integer)?
    atom   := number | 'x' | 'y' | 'z' | '(' expr ')'

A number is a run of digits, points and exponent marks (e or E before
a digit or sign) that float() reads, as in 1., .5, 1e5, 1E-3, 1e+3; any
other run (1.2.3, ., 1e+, 1e5e5) is a syntax error at its position.
Exponents are integer literals.  An expression nests at most
``_MAX_DEPTH`` levels, counting each operator, unary minus, power and
pair of parentheses on the deepest path; the parser and ``evaluate``
recurse once per level, so deeper text is a syntax error at the token
that crosses the limit.  Evaluation is vectorized over point arrays and
guarded: a zero divisor, 0^negative, a result not finite at every point
and z on 2-d points raise at evaluation time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from gasketlab.geometry import GasketError


class ExprSyntaxError(GasketError):
    """Parse failure, annotated with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(GasketError):
    """Evaluation left the guarded domain (0 divisor, 0^negative, missing z, inf/nan)."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Const, Var, Add, Sub, Mul, Div, Pow]

VARIABLES = ("x", "y", "z")


# one token after optional whitespace; ``re`` compiles it on first use
_TOKEN = r"""(?sx) \s* (?:
      (?P<num>  [\d.] (?: [\d.] | [eE][\d+-] )* )
    | (?P<name> [^\W\d_] [^\W_]* )
    | (?P<op>   [-+*/^()] )
    | (?P<end>  \Z )
    | (?P<bad>  . ) )"""

Token = tuple[str, str, int]      # kind, text, position
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_MAX_DEPTH = 100


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for m in re.finditer(_TOKEN, text):
        kind, where = m.lastgroup, m.start(m.lastgroup)
        if kind == "bad" or (kind == "name" and not m[kind][0].isalpha()):
            raise ExprSyntaxError(f"unexpected character {m[kind][0]!r}", where)
        tokens.append((kind, m[kind], where))
        if kind == "end":
            return tokens


# Each rule takes the levels that enclose it (open parentheses and unary
# minus) and returns (node, height, next token): the enclosing levels bound
# the parser's recursion, the heights the tree that evaluate walks.

def _within(levels: int, where: int) -> int:
    if levels > _MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {_MAX_DEPTH} levels", where)
    return levels


def _expr(tokens: list[Token], i: int, depth: int) -> tuple[Expr, int, int]:
    node, height, i = _term(tokens, i, depth)
    while tokens[i][1] in ("+", "-"):
        rhs, right, j = _term(tokens, i + 1, depth)
        height = _within(max(height, right) + 1, tokens[i][2])
        node, i = _BINARY[tokens[i][1]](node, rhs), j
    return node, height, i


def _term(tokens: list[Token], i: int, depth: int) -> tuple[Expr, int, int]:
    node, height, i = _unary(tokens, i, depth)
    while tokens[i][1] in ("*", "/"):
        rhs, right, j = _unary(tokens, i + 1, depth)
        height = _within(max(height, right) + 1, tokens[i][2])
        node, i = _BINARY[tokens[i][1]](node, rhs), j
    return node, height, i


def _unary(tokens: list[Token], i: int, depth: int) -> tuple[Expr, int, int]:
    if tokens[i][1] == "-":
        where = tokens[i][2]
        node, height, i = _unary(tokens, i + 1, _within(depth + 1, where))
        return Sub(Const(0.0), node), _within(height + 1, where), i
    return _power(tokens, i, depth)


def _power(tokens: list[Token], i: int, depth: int) -> tuple[Expr, int, int]:
    node, height, i = _atom(tokens, i, depth)
    if tokens[i][1] != "^":
        return node, height, i
    height = _within(height + 1, tokens[i][2])
    negative = tokens[i + 1][1] == "-"
    kind, text, where = tokens[i + 1 + negative]
    if kind != "num":
        raise ExprSyntaxError("exponent must be an integer literal", where)
    if not text.isdecimal():
        raise ExprSyntaxError(f"non-integer exponent {text!r}", where)
    return Pow(node, -int(text) if negative else int(text)), height, i + 2 + negative


def _atom(tokens: list[Token], i: int, depth: int) -> tuple[Expr, int, int]:
    kind, text, where = tokens[i]
    if kind == "num":
        try:
            return Const(float(text)), 0, i + 1
        except ValueError:
            raise ExprSyntaxError(f"malformed number {text!r}", where) from None
    if kind == "name":
        if text in VARIABLES:
            return Var(text), 0, i + 1
        raise ExprSyntaxError(f"unknown identifier {text!r}", where)
    if text == "(":
        node, height, i = _expr(tokens, i + 1, _within(depth + 1, where))
        if tokens[i][1] != ")":
            raise ExprSyntaxError("expected ')'", tokens[i][2])
        return node, _within(height + 1, where), i + 1
    raise ExprSyntaxError(f"expected a value, got {text!r}", where)


def parse_expr(text: str) -> Expr:
    """Parse a test-function expression into its AST."""
    tokens = _tokenize(text)
    node, _, i = _expr(tokens, 0, 0)
    if tokens[i][0] != "end":
        raise ExprSyntaxError(f"unexpected trailing {tokens[i][1]!r}", tokens[i][2])
    return node


_UFUNCS = {Add: np.add, Sub: np.subtract, Mul: np.multiply}


def evaluate(node: Expr, points: np.ndarray) -> np.ndarray:
    """Evaluate on an (N, d) point array, d in {2, 3}; returns (N,)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise GasketError(f"points must be (N, 2) or (N, 3), got {points.shape}")

    def rec(e: Expr) -> np.ndarray:
        if isinstance(e, Const):
            return np.full(len(points), e.value)
        if isinstance(e, Var):
            col = VARIABLES.index(e.name)
            if col >= points.shape[1]:
                raise EvalDomainError(f"variable {e.name!r} undefined on "
                                      f"{points.shape[1]}-d points")
            return points[:, col]
        ufunc = _UFUNCS.get(type(e))
        if ufunc is not None:
            return ufunc(rec(e.left), rec(e.right))
        if isinstance(e, Div):
            denom = rec(e.right)
            if np.any(denom == 0.0):
                raise EvalDomainError("division by zero")
            return rec(e.left) / denom
        if isinstance(e, Pow):
            base = rec(e.base)
            if e.exponent < 0 and np.any(base == 0.0):
                raise EvalDomainError("zero base with negative exponent")
            return base ** e.exponent
        raise GasketError(f"not an expression node: {e!r}")

    with np.errstate(all="ignore"):     # overflow and inf - inf are refused below
        values = rec(node)
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise EvalDomainError(f"result not finite at {bad} of {len(values)} points")
    return values


@dataclass(frozen=True)
class TestFunction:
    """Parsed test function; callable on (N, d) point arrays."""

    __test__ = False       # not a pytest collectible despite the name

    expr: Expr
    source: str

    @classmethod
    def parse(cls, text: str) -> "TestFunction":
        return cls(parse_expr(text), text)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return evaluate(self.expr, points)
