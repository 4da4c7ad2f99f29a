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
    BOUND   := a term over in-scope variables, e.g. "n" or "2^n"
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .logic import MAX_PARSE_DEPTH

FORALL = "all"
EXISTS = "ex"


class FormulaSyntaxError(ValueError):
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


def _rename(f, old, new):
    """Rename free occurrences of variable `old` to `new`."""
    if isinstance(f, Atom):
        return Atom(f.name, tuple(new if a == old else a for a in f.args))
    if isinstance(f, Not):
        return Not(_rename(f.body, old, new))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_rename(f.left, old, new), _rename(f.right, old, new))
    if isinstance(f, Quant):
        bound = f.bound
        if bound is not None:
            bound = re.sub(rf"\b{re.escape(old)}\b", new, bound)
        if f.var == old:
            return Quant(f.kind, f.var, bound, f.body)
        return Quant(f.kind, f.var, bound, _rename(f.body, old, new))
    raise TypeError(f"not a formula: {f!r}")


def free_vars(f):
    if isinstance(f, Atom):
        return set(f.args)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Quant):
        out = free_vars(f.body) - {f.var}
        if f.bound is not None:
            out |= set(re.findall(r"[A-Za-z_]\w*", f.bound))
        return out
    raise TypeError(f"not a formula: {f!r}")


def _dual(kind):
    return EXISTS if kind == FORALL else FORALL


def _expand_implies(f):
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(_expand_implies(f.body))
    if isinstance(f, Implies):
        return Or(Not(_expand_implies(f.left)), _expand_implies(f.right))
    if isinstance(f, (And, Or)):
        return type(f)(_expand_implies(f.left), _expand_implies(f.right))
    if isinstance(f, Quant):
        return Quant(f.kind, f.var, f.bound, _expand_implies(f.body))
    raise TypeError(f"not a formula: {f!r}")


def _pull(f):
    """Prefix of pullable unbounded quantifiers as (kind, var) pairs.

    Leftmost-innermost extraction order; bounded quantifiers are never
    pulled and remain part of the matrix.
    """
    if isinstance(f, Atom):
        return []
    if isinstance(f, Not):
        return [(_dual(k), v) for k, v in _pull(f.body)]
    if isinstance(f, (And, Or)):
        return _pull(f.left) + _pull(f.right)
    if isinstance(f, Quant):
        if f.bound is not None:
            if _pull(f.body):
                raise FormulaSyntaxError(
                    f"unbounded quantifier under bounded quantifier {f.kind} "
                    f"{f.var}<{f.bound} cannot be prenexed"
                )
            return []
        return [(f.kind, f.var)] + _pull(f.body)
    raise TypeError(f"not a formula: {f!r}")


def prenexify(f):
    """Canonical prenex form: unbounded quantifiers outermost, renamed q0..qk.

    Idempotent; logically equivalent under classical semantics.  Bounded
    quantifiers are treated as matrix and never pulled out.
    """
    g = _expand_implies(f)
    prefix = _pull(g)

    # rebuild by repeatedly extracting the leftmost pullable quantifier,
    # renaming it canonically
    taken = free_vars(g)
    names = []
    for k, _ in prefix:
        i = len(names)
        while True:
            candidate = f"q{i}"
            if candidate not in taken:
                break
            i += 1
        names.append(candidate)
        taken.add(candidate)

    def strip(h, renames):
        """Remove pulled quantifiers in prefix order, applying renames."""
        if isinstance(h, (Atom,)):
            return h
        if isinstance(h, Not):
            return Not(strip(h.body, renames))
        if isinstance(h, (And, Or)):
            return type(h)(strip(h.left, renames), strip(h.right, renames))
        if isinstance(h, Quant):
            if h.bound is not None:
                return h
            new = renames.pop(0)
            body = _rename(h.body, h.var, new)
            return strip(body, renames)
        raise TypeError(f"not a formula: {h!r}")

    renames = list(names)
    matrix = strip(g, renames)
    out = matrix
    for (kind, _), name in zip(reversed(prefix), reversed(names)):
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
    r"\s*(->|[()&|~.,<]|[A-Za-z_]\w*|[0-9^+*-]+)"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"bad character at position {pos}: {text[pos]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_formula(text):
    """Parse formula text; rejects trees, and nesting of brackets and
    quantifier bodies, deeper than MAX_PARSE_DEPTH."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise FormulaSyntaxError("unexpected end of input")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def deeper(depth):
        if depth >= MAX_PARSE_DEPTH:
            raise FormulaSyntaxError(f"formula deeper than {MAX_PARSE_DEPTH} levels")
        return depth + 1

    # precedence climbing over "->", "|" and "&": each parser returns
    # (formula, depth of its tree), and `nesting` counts the enclosing
    # brackets and quantifier bodies, the only recursion not bounded by
    # precedence; a chain of "->" is folded to the right once it ends
    def parse_binary(min_prec, nesting):
        left, depth = parse_unary(nesting)
        implications = []
        while peek() in _CONNECTIVES and _CONNECTIVES[peek()][0] >= min_prec:
            prec, node = _CONNECTIVES[take()]
            right, right_depth = parse_binary(prec + 1, nesting)
            if node is Implies:
                implications.append((left, depth))
                left, depth = right, right_depth
            else:
                left, depth = node(left, right), deeper(max(depth, right_depth))
        for premise, premise_depth in reversed(implications):
            left, depth = Implies(premise, left), deeper(max(premise_depth, depth))
        return left, depth

    def parse_unary(nesting):
        negations = 0
        while peek() == "~":
            take()
            negations += 1
        tok = peek()
        if tok in ("(", FORALL, EXISTS) and nesting >= MAX_PARSE_DEPTH:
            raise FormulaSyntaxError(f"formula nested deeper than {MAX_PARSE_DEPTH} levels")
        if tok == "(":
            take()
            f, depth = parse_binary(0, nesting + 1)
            take(")")
        elif tok in (FORALL, EXISTS):
            kind, var, bound = parse_quant_prefix()
            body, depth = parse_binary(0, nesting + 1)
            f, depth = Quant(kind, var, bound, body), deeper(depth)
        else:
            f, depth = parse_atom(), 1
        for _ in range(negations):
            f, depth = Not(f), deeper(depth)
        return f, depth

    def parse_quant_prefix():
        kind = take()
        var = take()
        if not re.match(r"^[A-Za-z_]\w*$", var):
            raise FormulaSyntaxError(f"bad variable name {var!r}")
        bound = None
        if peek() == "<":
            take()
            # the bound is an arbitrary term; consume tokens up to the "."
            parts = []
            while peek() is not None and peek() != ".":
                parts.append(take())
            if not parts:
                raise FormulaSyntaxError("empty quantifier bound")
            bound = "".join(parts)
        take(".")
        return kind, var, bound

    def parse_atom():
        name = take()
        if not re.match(r"^[A-Za-z_]\w*$", name):
            raise FormulaSyntaxError(f"bad atom name {name!r}")
        args = ()
        if peek() == "(":
            take()
            parts = [take()]
            while peek() == ",":
                take()
                parts.append(take())
            take(")")
            args = tuple(parts)
        return Atom(name, args)

    f, _ = parse_binary(0, 1)
    if pos < len(tokens):
        raise FormulaSyntaxError(f"trailing input {tokens[pos]!r}")
    return f
