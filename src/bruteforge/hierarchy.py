"""Syntactic arithmetical-hierarchy classifier.

Formulas are ASTs over decidable-predicate atoms, boolean connectives, and
quantifiers that may carry a bound (a bounded quantifier like "all x<t").
Classification is purely syntactic on the canonical prenex form: bounded
quantifiers stay in the matrix, unbounded ones are pulled to the front in
a fixed leftmost-innermost order with canonical fresh renaming.

Formula text grammar (EBNF):

    formula := quant | impl
    quant   := ("all" | "ex") VAR [ "<" BOUND ] "." formula
    impl    := or [ "->" impl ]
    or      := and { "|" and }
    and     := unary { "&" unary }
    unary   := "~" unary | "(" formula ")" | quant | atom
    atom    := NAME [ "(" ARG { "," ARG } ")" ]
    ARG     := NAME | INT
    BOUND   := one or more tokens up to the ".", with balanced brackets and
               no "~", "->", "&", "|" or "<"; kept as written, e.g. "n",
               "2^n" or "pow2(m)"

In a bound, a NAME followed by "(" is a function symbol and every other
NAME is a variable; an integer ARG is a constant, not a variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .logic import ParseError, Tokens

FORALL = "all"
EXISTS = "ex"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_INT_RE = re.compile(r"[0-9]+")
# a variable occurrence in a bound: a whole name not followed by "(",
# which would make it a function symbol
_BOUND_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*(?![A-Za-z_0-9]|\s*\()")
# tokens of the connective grammar, which no bound contains
_NOT_IN_BOUND = {"~", "->", "&", "|", "<"}


class FormulaSyntaxError(ParseError):
    pass


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Quant:
    kind: str  # FORALL | EXISTS
    var: str
    bound: str | None  # None marks an unbounded quantifier
    body: object


@dataclass(frozen=True)
class HierarchyClass:
    label: str  # "Delta0" | "Sigma" | "Pi"
    index: int | None = None

    def __post_init__(self):
        if self.label == "Delta0":
            if self.index is not None:
                raise ValueError("Delta0 carries no index")
        elif self.index is None or self.index < 1:
            raise ValueError("Sigma/Pi require index >= 1")

    def __str__(self):
        if self.label == "Delta0":
            return "Delta0"
        return f"{self.label}({self.index})"


DELTA0 = HierarchyClass("Delta0")


def free_vars(f):
    if isinstance(f, Atom):
        return {a for a in f.args if not _INT_RE.fullmatch(a)}
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Quant):
        out = free_vars(f.body) - {f.var}
        if f.bound is not None:
            out |= set(_BOUND_VAR_RE.findall(f.bound))
        return out
    raise TypeError(f"not a formula: {f!r}")


def _dual(kind):
    return EXISTS if kind == FORALL else FORALL


def _bounded_vars(f):
    """Variables bound by the bounded quantifiers of f."""
    if isinstance(f, Atom):
        return set()
    if isinstance(f, Not):
        return _bounded_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return _bounded_vars(f.left) | _bounded_vars(f.right)
    inner = _bounded_vars(f.body)
    return inner | {f.var} if f.bound is not None else inner


def prenexify(f):
    """Canonical prenex form: unbounded quantifiers outermost, renamed q0..qk.

    One walk builds the matrix and the prefix together: `A -> B` becomes
    `~A | B`, an unbounded quantifier leaves the matrix and joins the
    prefix (dualized under an odd number of negations) with the next
    canonical name the moment the walk reaches it, so the prefix is in
    leftmost-innermost order.  Bounded quantifiers stay in the matrix and
    may not contain an unbounded one.  Idempotent; logically equivalent
    under classical semantics.  The canonical names avoid the free
    variables and the variables of bounded quantifiers, so no renamed
    variable is captured.
    """
    taken = free_vars(f) | _bounded_vars(f)
    prefix = []

    def walk(h, renames, positive):
        """The matrix of h; `renames` maps each variable in scope to its
        new name, and `positive` is False under an odd number of "~"."""
        if isinstance(h, Atom):
            return Atom(h.name, tuple(renames.get(a, a) for a in h.args))
        if isinstance(h, Not):
            return Not(walk(h.body, renames, not positive))
        if isinstance(h, Implies):
            return Or(Not(walk(h.left, renames, not positive)), walk(h.right, renames, positive))
        if isinstance(h, (And, Or)):
            return type(h)(walk(h.left, renames, positive), walk(h.right, renames, positive))
        if h.bound is None:
            i = len(prefix)
            while f"q{i}" in taken:
                i += 1
            name = f"q{i}"
            taken.add(name)
            prefix.append((h.kind if positive else _dual(h.kind), name))
            return walk(h.body, {**renames, h.var: name}, positive)
        pulled = len(prefix)
        bound = _BOUND_VAR_RE.sub(lambda m: renames.get(m.group(), m.group()), h.bound)
        inner = {old: new for old, new in renames.items() if old != h.var}
        body = walk(h.body, inner, positive)
        if len(prefix) > pulled:
            raise FormulaSyntaxError(
                f"unbounded quantifier under bounded quantifier {h.kind} "
                f"{h.var}<{h.bound} cannot be prenexed"
            )
        return Quant(h.kind, h.var, bound, body)

    out = walk(f, {}, True)
    for kind, name in reversed(prefix):
        out = Quant(kind, name, None, out)
    return out


def classify(f):
    """Sigma(k)/Pi(k)/Delta0 by unbounded-quantifier alternation blocks."""
    g = prenexify(f)
    blocks = []
    while isinstance(g, Quant) and g.bound is None:
        if not blocks or blocks[-1] != g.kind:
            blocks.append(g.kind)
        g = g.body
    if not blocks:
        return DELTA0
    label = "Sigma" if blocks[0] == EXISTS else "Pi"
    return HierarchyClass(label, len(blocks))


# --- text front end -------------------------------------------------------

# binary connectives: token -> (precedence, node); "&" binds tightest
_CONNECTIVES = {"->": (0, Implies), "|": (1, Or), "&": (2, And)}

_TOKEN_RE = re.compile(
    r"\s*(->|[()&|~.,<]|[A-Za-z_][A-Za-z_0-9]*|[0-9^+*-]+)"
)


def parse_formula(text):
    """Parse formula text; rejects trees, and nesting of brackets and
    quantifier bodies, deeper than MAX_PARSE_DEPTH."""
    tokens = Tokens(text, _TOKEN_RE, FormulaSyntaxError)

    # precedence climbing over "->", "|" and "&": each parser returns
    # (formula, depth of its tree), and `level` counts the enclosing
    # brackets and quantifier bodies, the only recursion not bounded by
    # precedence; a chain of "->" is folded to the right once it ends
    def parse_binary(min_prec, level):
        left, depth = parse_unary(level)
        implications = []
        while tokens.peek() in _CONNECTIVES and _CONNECTIVES[tokens.peek()][0] >= min_prec:
            prec, node = _CONNECTIVES[tokens.take()]
            right, right_depth = parse_binary(prec + 1, level)
            if node is Implies:
                implications.append((left, depth))
                left, depth = right, right_depth
            else:
                left, depth = node(left, right), tokens.deeper(depth, right_depth)
        for premise, premise_depth in reversed(implications):
            left, depth = Implies(premise, left), tokens.deeper(premise_depth, depth)
        return left, depth

    def parse_unary(level):
        negations = tokens.skip("~")
        if tokens.peek() == "(":
            tokens.take()
            f, depth = parse_binary(0, tokens.nested(level))
            tokens.take(")")
        elif tokens.peek() in (FORALL, EXISTS):
            kind, var, bound = tokens.take(), tokens.take(), None
            if not _NAME_RE.fullmatch(var):
                raise tokens.fail(f"bad variable name {var!r}")
            if tokens.peek() == "<":
                tokens.take()
                # the bound is a term, kept as written from its first token
                # to the end of its last, before the "."
                first, open_brackets = tokens.i, 0
                while tokens.peek() not in (None, "."):
                    tok = tokens.take()
                    if tok in _NOT_IN_BOUND:
                        raise tokens.fail(f"{tok!r} in quantifier bound")
                    open_brackets += (tok == "(") - (tok == ")")
                    if open_brackets < 0:
                        raise tokens.fail("unbalanced ')' in quantifier bound")
                if tokens.i == first:
                    raise tokens.fail("empty quantifier bound")
                if open_brackets:
                    raise tokens.fail("unclosed '(' in quantifier bound")
                last = tokens.i - 1
                bound = text[tokens.starts[first]:tokens.starts[last] + len(tokens.tokens[last])]
            tokens.take(".")
            body, depth = parse_binary(0, tokens.nested(level))
            f, depth = Quant(kind, var, bound, body), tokens.deeper(depth)
        else:
            f, depth = parse_atom(), 1
        for _ in range(negations):
            f, depth = Not(f), tokens.deeper(depth)
        return f, depth

    def parse_atom():
        name = tokens.take()
        if not _NAME_RE.fullmatch(name):
            raise tokens.fail(f"bad atom name {name!r}")
        args = ()
        if tokens.peek() == "(":
            tokens.take()
            parts = [take_arg()]
            while tokens.peek() == ",":
                tokens.take()
                parts.append(take_arg())
            tokens.take(")")
            args = tuple(parts)
        return Atom(name, args)

    def take_arg():
        arg = tokens.take()
        if not (_NAME_RE.fullmatch(arg) or _INT_RE.fullmatch(arg)):
            raise tokens.fail(f"bad atom argument {arg!r}")
        return arg

    f, _ = parse_binary(0, 1)
    tokens.expect_end()
    return f
