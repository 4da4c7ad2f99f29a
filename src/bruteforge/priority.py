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
count `size`, both built from its children's when it is.  Nodes are frozen
slotted dataclasses; a pickled node holds its fields only, and unpickling
derives text and size again.

Text and tuple vectors are the boundary: `parse_expr` reads an expression,
`eval_priority` takes a tuple, `greedy` returns a set of tuples.  Inside,
one recursive pass evaluates each subtree over the digit columns of all 3^n
vector codes at once, and the greedy walk runs on those int codes (see
`capset`).  With an optional `ColumnCache`, the pass looks a subtree's
column up by its text before it evaluates the subtree's children, and
`score` looks the root column up before it ranks the codes: expressions of
different texts with equal columns, such as `v[0]` and `v[0] + 0`, rank
and walk once, as do all expressions that read no digit.  The parser
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
from dataclasses import dataclass, fields
from itertools import repeat

from .capset import check_dimension, code_vector, digit_columns, greedy_cap
from .logic import ParseError, Tokens, read_only

_U64 = 1 << 64
_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)


def _wrap(x):
    x &= _U64 - 1
    return x - _U64 if x > _I64_MAX else x


class Expr:
    """A node.  `text` and `size` are set once, when it is built, and are
    not dataclass fields: not arguments, and not compared, hashed or shown."""

    __slots__ = ("text", "size")

    def __reduce__(self):
        # rebuilt through __init__, which derives text and size again: the
        # slots dataclass __getstate__ would drop them
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


# Each node writes its fields, text and size through the slots' own
# setters, bound below the classes: the generated frozen __init__ pays
# object.__setattr__ per field, and every mutation builds new nodes.
@dataclass(frozen=True, slots=True, init=False)
class Const(Expr):
    value: int

    def __init__(self, value):
        _set_value(self, value)
        _set_text(self, str(value) if value >= 0 else f"({value})")
        _set_size(self, 1)


@dataclass(frozen=True, slots=True, init=False)
class Dim(Expr):
    """The dimension n of the run."""

    def __init__(self):
        _set_text(self, "n")
        _set_size(self, 1)


@dataclass(frozen=True, slots=True, init=False)
class Index(Expr):
    """v[e]: digit of the vector at index e mod n."""

    index: Expr

    def __init__(self, index):
        _set_index(self, index)
        _set_text(self, f"v[{index.text}]")
        _set_size(self, 1 + index.size)


@dataclass(frozen=True, slots=True, init=False)
class BinOp(Expr):
    op: str  # + - * % min max
    left: Expr
    right: Expr

    def __init__(self, op, left, right):
        _set_op(self, op)
        _set_left(self, left)
        _set_right(self, right)
        a, b = left.text, right.text
        _set_text(self, f"{op}({a}, {b})" if op in ("min", "max") else f"({a} {op} {b})")
        _set_size(self, 1 + left.size + right.size)


_set_text, _set_size, _set_value, _set_index = (
    Expr.text.__set__, Expr.size.__set__, Const.value.__set__, Index.index.__set__)
_set_op, _set_left, _set_right = BinOp.op.__set__, BinOp.left.__set__, BinOp.right.__set__


for _cls in (Const, Dim, Index, BinOp):
    _cls.__setattr__ = _cls.__delattr__ = read_only


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


# the most cells (3^n per entry) a ColumnCache holds, about 10 bytes each.
# Serial evolve(EvolveConfig(n=6, seed=0, eval_budget=3000)) computes 29,873
# columns uncached, 15,171 at this bound and 13,437 unbounded, ranks 2,809,
# 1,267 and 1,014 root columns, and peaks at 42 MB RSS against 22 MB
# uncached and 127 MB unbounded.
CACHE_CELLS = 1 << 21


class ColumnCache(dict):
    """For one n: subtree text -> its column over all 3^n codes, and a root
    column, as a tuple, -> the size of its greedy cap.  Each entry counts
    as 3^n cells; one that would take it past CACHE_CELLS clears it first."""

    def __init__(self, n):
        super().__init__()
        self.n = n

    def store(self, key, value):
        cells = 3**self.n
        if (len(self) + 1) * cells > CACHE_CELLS:
            self.clear()
        if cells <= CACHE_CELLS:
            self[key] = value


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


def _priorities(expr, n, cache):
    check_dimension(n)
    if cache is not None and cache.n != n:
        raise ValueError(f"cache for dimension {cache.n} used at dimension {n}")
    return _evaluate(expr, n, digit_columns(n), cache)


def _greedy_codes(keys, n):
    # the sort is stable under reverse=True, so equal priorities keep
    # ascending code order: (priority descending, lexicographic ascending)
    ranking = (range(3**n) if isinstance(keys, int)
               else sorted(range(3**n), key=keys.__getitem__, reverse=True))
    return greedy_cap(ranking, n)


def greedy(expr, n):
    """Greedy cap construction under the expression's ranking; deterministic."""
    return {code_vector(code, n) for code in _greedy_codes(_priorities(expr, n, None), n)}


def score(expr, n, cache=None):
    """Fitness of a priority program: the size of its greedy cap set.
    `cache`, a ColumnCache(n), keeps subtree columns and the cap size of
    each root column ranked from call to call."""
    keys = _priorities(expr, n, cache)
    if cache is None:
        return len(_greedy_codes(keys, n))
    # every constant ranks range(3^n): one key, which no column equals
    column = () if isinstance(keys, int) else tuple(keys)
    size = cache.get(column)
    if size is None:
        size = len(_greedy_codes(keys, n))
        cache.store(column, size)
    return size
