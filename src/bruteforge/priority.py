"""Priority-program DSL and the greedy cap-set constructor.

A priority expression ranks vectors; the greedy constructor visits all
3^n vectors sorted by (priority descending, lexicographic ascending) and
adjoins each one that keeps the set a cap.  Expressions are total by
construction: indices wrap mod n, mod by zero returns its left operand,
and all arithmetic is 64-bit signed with wraparound.

An expression is a tree of `Const`, `Dim`, `Index` and `BinOp` nodes.
`BinOp.op` is one of `+ - * % min max`, each a column operation in
`_COLUMN_OPS`; `min` and `max` are written in call form, `min(a, b)`.

Text and tuple vectors are the boundary: `parse_expr` reads an expression,
`eval_priority` takes a tuple, `greedy` returns a set of tuples.  Inside,
an expression is compiled once per dimension into nested closures that
evaluate it over the digit columns of all 3^n vector codes at once, and
the greedy walk runs on those int codes (see `capset`).  The parser
rejects trees and bracket nesting deeper than `logic.MAX_PARSE_DEPTH`.

Expression grammar:

    expr    := term { ("+" | "-") term }
    term    := unary { ("*" | "%") unary }
    unary   := "-" unary | primary
    primary := INT | "n" | "v" "[" expr "]"
             | ("min" | "max") "(" expr "," expr ")" | "(" expr ")"
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import repeat

from .capset import check_dimension, code_vector, digit_columns, greedy_cap
from .logic import ParseError, Tokens

_U64 = 1 << 64
_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)


def _wrap(x):
    x &= _U64 - 1
    return x - _U64 if x > _I64_MAX else x


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: int


@dataclass(frozen=True)
class Dim(Expr):
    """The dimension n of the run."""


@dataclass(frozen=True)
class Index(Expr):
    """v[e]: digit of the vector at index e mod n."""

    index: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * % min max
    left: Expr
    right: Expr


def _wrapping(fn):
    def apply(a, b):
        out = list(map(fn, a, b))
        if out and (min(out) < _I64_MIN or max(out) > _I64_MAX):
            return [_wrap(x) for x in out]
        return out

    return apply


def _mod(a, b):
    # Euclidean mod; mod by zero is identity on the left operand
    return [x if y == 0 else x % abs(y) for x, y in zip(a, b)]


# each takes two columns of operand values, and returns the result column
_COLUMN_OPS = {
    "+": _wrapping(operator.add),
    "-": _wrapping(operator.sub),
    "*": _wrapping(operator.mul),
    "%": _mod,
    "min": lambda a, b: list(map(min, a, b)),
    "max": lambda a, b: list(map(max, a, b)),
}


def _compile(e, n):
    """The constant value of e, or a function from digit columns to its values.

    Subexpressions that read no digit are folded to constants by the same
    column operations, so folding cannot change a value.
    """
    if isinstance(e, Const):
        return _wrap(e.value)
    if isinstance(e, Dim):
        return n
    if isinstance(e, Index):
        index = _compile(e.index, n)
        if isinstance(index, int):
            i = index % n
            return lambda cols: cols[i]
        return lambda cols: [cols[i % n][k] for k, i in enumerate(index(cols))]
    if isinstance(e, BinOp):
        apply = _COLUMN_OPS.get(e.op)
        if apply is None:
            raise ValueError(f"unknown operator {e.op!r}")
        left, right = _compile(e.left, n), _compile(e.right, n)
        if isinstance(left, int):
            if isinstance(right, int):
                return apply([left], [right])[0]
            return lambda cols: apply(repeat(left), right(cols))
        if isinstance(right, int):
            return lambda cols: apply(left(cols), repeat(right))
        return lambda cols: apply(left(cols), right(cols))
    raise TypeError(f"not an expression: {e!r}")


def compile_priority(expr, n):
    """Compile expr for dimension n into a function over a batch of vectors.

    The function takes the batch as n digit columns (column i holds digit i
    of every vector) and returns the list of values in batch order.
    """
    compiled = _compile(expr, n)
    if isinstance(compiled, int):
        return lambda cols: [compiled] * len(cols[0])
    return compiled


def eval_priority(expr, v, n=None):
    """Deterministic 64-bit integer value of expr on vector v; never fails."""
    if n is None:
        n = len(v)
    return compile_priority(expr, n)([[d] for d in v])[0]


def format_expr(e):
    if isinstance(e, Const):
        return str(e.value) if e.value >= 0 else f"({e.value})"
    if isinstance(e, Dim):
        return "n"
    if isinstance(e, Index):
        return f"v[{format_expr(e.index)}]"
    if isinstance(e, BinOp):
        if e.op in ("min", "max"):
            return f"{e.op}({format_expr(e.left)}, {format_expr(e.right)})"
        return f"({format_expr(e.left)} {e.op} {format_expr(e.right)})"
    raise TypeError(f"not an expression: {e!r}")


class ExprSyntaxError(ParseError):
    pass


_EXPR_TOKEN = re.compile(r"\s*([0-9]+|[nv]|min|max|[-+*%()\[\],])")


def parse_expr(text):
    tokens = Tokens(text, _EXPR_TOKEN, ExprSyntaxError)

    # each parser returns (expression, depth of its tree); parse_sum is the
    # only recursive entry, and `level` counts the brackets around it
    def parse_sum(level):
        left, depth = parse_term(level)
        while tokens.peek() in ("+", "-"):
            op = tokens.take()
            right, right_depth = parse_term(level)
            left, depth = BinOp(op, left, right), tokens.deeper(depth, right_depth)
        return left, depth

    def parse_term(level):
        left, depth = parse_unary(level)
        while tokens.peek() in ("*", "%"):
            op = tokens.take()
            right, right_depth = parse_unary(level)
            left, depth = BinOp(op, left, right), tokens.deeper(depth, right_depth)
        return left, depth

    def parse_unary(level):
        negations = tokens.skip("-")
        tok = tokens.take()
        if tok.isdigit():
            node, depth = Const(int(tok)), 1
        elif tok == "n":
            node, depth = Dim(), 1
        elif tok == "v":
            tokens.take("[")
            idx, idx_depth = parse_sum(tokens.nested(level))
            tokens.take("]")
            node, depth = Index(idx), tokens.deeper(idx_depth)
        elif tok in ("min", "max"):
            tokens.take("(")
            a, a_depth = parse_sum(tokens.nested(level))
            tokens.take(",")
            b, b_depth = parse_sum(tokens.nested(level))
            tokens.take(")")
            node, depth = BinOp(tok, a, b), tokens.deeper(a_depth, b_depth)
        elif tok == "(":
            node, depth = parse_sum(tokens.nested(level))
            tokens.take(")")
        else:
            raise tokens.fail(f"unexpected token {tok!r}")
        for _ in range(negations):
            if isinstance(node, Const):
                node = Const(-node.value)
            else:
                node, depth = BinOp("-", Const(0), node), tokens.deeper(depth)
        return node, depth

    out, _ = parse_sum(1)
    tokens.expect_end()
    return out


def _greedy_codes(expr, n):
    check_dimension(n)
    keys = compile_priority(expr, n)(digit_columns(n))
    # the sort is stable under reverse=True, so equal priorities keep
    # ascending code order: (priority descending, lexicographic ascending)
    ranking = sorted(range(3**n), key=keys.__getitem__, reverse=True)
    return greedy_cap(ranking, n)


def greedy(expr, n):
    """Greedy cap construction under the expression's ranking; deterministic."""
    return {code_vector(code, n) for code in _greedy_codes(expr, n)}


def score(expr, n):
    """Fitness of a priority program: the size of its greedy cap set."""
    return len(_greedy_codes(expr, n))
