"""Priority-program DSL and the greedy cap-set constructor.

A priority expression ranks vectors; the greedy constructor visits all
3^n vectors sorted by (priority descending, lexicographic ascending) and
adjoins each one that keeps the set a cap.  Expressions are total by
construction: indices wrap mod n, mod by zero returns its left operand,
and all arithmetic is 64-bit signed with wraparound.

An expression is a tree of `Const`, `Dim`, `Index` and `BinOp` nodes.
`BinOp.op` is one of `+ - * % min max`, each a column operation in
`_COLUMN_OPS`; `min` and `max` are written in call form, `min(a, b)`.
Each node carries its `text` (as `format_expr` writes it) and its node
count `size`, both built from its children's when it is.

Text and tuple vectors are the boundary: `parse_expr` reads an expression,
`eval_priority` takes a tuple, `greedy` returns a set of tuples.  Inside,
one recursive pass evaluates each subtree over the digit columns of all 3^n
vector codes at once, and the greedy walk runs on those int codes (see
`capset`).  With an optional `ColumnCache`, the pass looks a subtree's
column up by its text before it evaluates the subtree's children.  The parser
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
    """A node.  `text` and `size` are set once, when it is built, and are
    not dataclass fields: not arguments, and not compared, hashed or shown."""

    __slots__ = ()
    text: str
    size: int

    def _derive(self, text, size):
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "size", size)


@dataclass(frozen=True)
class Const(Expr):
    value: int

    def __post_init__(self):
        self._derive(str(self.value) if self.value >= 0 else f"({self.value})", 1)


@dataclass(frozen=True)
class Dim(Expr):
    """The dimension n of the run."""

    def __post_init__(self):
        self._derive("n", 1)


@dataclass(frozen=True)
class Index(Expr):
    """v[e]: digit of the vector at index e mod n."""

    index: Expr

    def __post_init__(self):
        self._derive(f"v[{self.index.text}]", 1 + self.index.size)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * % min max
    left: Expr
    right: Expr

    def __post_init__(self):
        a, b = self.left.text, self.right.text
        text = f"{self.op}({a}, {b})" if self.op in ("min", "max") else f"({a} {self.op} {b})"
        self._derive(text, 1 + self.left.size + self.right.size)


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


# the most cells (3^n per column) a ColumnCache holds, about 10 bytes each.
# Serial evolve(EvolveConfig(n=6, seed=0, eval_budget=3000)) computes 29,873
# columns uncached, 15,126 at this bound and 13,437 unbounded, and peaks at
# 45 MB RSS against 25 MB uncached and 124 MB unbounded.
CACHE_CELLS = 1 << 21


class ColumnCache(dict):
    """Subtree text -> its column over all 3^n codes, for one n; a column
    that would take it past CACHE_CELLS cells clears it first."""

    def __init__(self, n):
        super().__init__()
        self.n = n

    def store(self, text, column):
        if (len(self) + 1) * len(column) > CACHE_CELLS:
            self.clear()
        if len(column) <= CACHE_CELLS:
            self[text] = column


def _evaluate(e, n, cols, cache):
    """Value of e over the digit columns `cols` of dimension n.

    The value is an int if e reads no digit, folded by the same column
    operations, so folding cannot change a value; otherwise it is e's
    column, which no one mutates: it may be shared.  With a `cache`, a
    column is looked up by `e.text` before e's children are evaluated, and
    stored there once computed.
    """
    if isinstance(e, BinOp):
        if cache is not None and (column := cache.get(e.text)) is not None:
            return column
        apply = _COLUMN_OPS.get(e.op)
        if apply is None:
            raise ValueError(f"unknown operator {e.op!r}")
        left = _evaluate(e.left, n, cols, cache)
        right = _evaluate(e.right, n, cols, cache)
        if isinstance(left, int):
            if isinstance(right, int):
                return apply([left], [right])[0]
            left = repeat(left)
        elif isinstance(right, int):
            right = repeat(right)
        column = apply(left, right)
    elif isinstance(e, Index):
        if cache is not None and (column := cache.get(e.text)) is not None:
            return column
        index = _evaluate(e.index, n, cols, cache)
        if isinstance(index, int):
            return cols[index % n]
        column = [cols[i % n][k] for k, i in enumerate(index)]
    elif isinstance(e, Const):
        return _wrap(e.value)
    elif isinstance(e, Dim):
        return n
    else:
        raise TypeError(f"not an expression: {e!r}")
    if cache is not None:
        cache.store(e.text, column)
    return column


def eval_priority(expr, v, n=None):
    """Deterministic 64-bit integer value of expr on vector v; n defaults to
    len(v), and ValueError is raised unless 1 <= len(v) == n."""
    if n is None:
        n = len(v)
    if not 1 <= len(v) == n:
        raise ValueError(f"vector of length {len(v)} for dimension {n}")
    value = _evaluate(expr, n, [(d,) for d in v], None)
    return value if isinstance(value, int) else value[0]


def format_expr(e):
    return e.text


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


def _greedy_codes(expr, n, cache):
    check_dimension(n)
    if cache is not None and cache.n != n:
        raise ValueError(f"cache for dimension {cache.n} used at dimension {n}")
    keys = _evaluate(expr, n, digit_columns(n), cache)
    # the sort is stable under reverse=True, so equal priorities keep
    # ascending code order: (priority descending, lexicographic ascending)
    ranking = (range(3**n) if isinstance(keys, int)
               else sorted(range(3**n), key=keys.__getitem__, reverse=True))
    return greedy_cap(ranking, n)


def greedy(expr, n):
    """Greedy cap construction under the expression's ranking; deterministic."""
    return {code_vector(code, n) for code in _greedy_codes(expr, n, None)}


def score(expr, n, cache=None):
    """Fitness of a priority program: the size of its greedy cap set.
    `cache`, a ColumnCache(n), keeps subtree columns from call to call."""
    return len(_greedy_codes(expr, n, cache))
