"""Shared syntax layer: first-order terms, propositional clauses/CNF, parsers,
and the error raised when a verdict fails its independent re-check.

Term grammar (EBNF, ASCII rendering of the usual connectives):

    term    := disj
    disj    := conj { "v" conj }          (left-associative)
    conj    := prod { "^" prod }          (left-associative)
    prod    := unary { "*" unary }        (left-associative)
    unary   := "-" unary | primary
    primary := VAR | CONST | NAME "(" term { "," term } ")" | "(" term ")"
    VAR     := "x" | "y" | "z" | "x" DIGITS
    CONST   := nullary symbol of the signature (e.g. "0", "1", "e", "a")

"-" is negation, "v" disjunction, "^" conjunction, "*" a generic binary
operation (group multiplication).  Variable ids: x=0, y=1, z=2, xN=3+N.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class TermSyntaxError(ValueError):
    """Raised on malformed term text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownSymbolError(ValueError):
    pass


class VerificationError(RuntimeError):
    """An independent re-check rejected a verdict the package produced.

    A bug, not an input fault, so deliberately not a ValueError.
    """


class Term:
    """Base class for first-order terms (Var | App)."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    id: int

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("variable ids are nonnegative")


@dataclass(frozen=True)
class App(Term):
    symbol: str
    args: tuple = ()


# Signatures are symbol -> arity maps.
BOOLEAN_SIG = {"v": 2, "^": 2, "-": 1, "0": 0, "1": 0}
ROBBINS_SIG = {"v": 2, "-": 1}
GROUP_SIG = {"*": 2, "i": 1, "e": 0}


def with_constants(signature, *names):
    """Extend a signature with fresh nullary symbols (e.g. ground witnesses)."""
    sig = dict(signature)
    for name in names:
        sig[name] = 0
    return sig


_VAR_RE = re.compile(r"^(x|y|z|x\d+)$")

_BINOPS = {"v": 1, "^": 2, "*": 2}  # symbol -> precedence

# deepest tree, and deepest bracket nesting, that the parsers of terms,
# formulas and priority expressions accept; recursive code downstream of
# them stays within Python's default recursion limit at this depth
MAX_PARSE_DEPTH = 200


def var_id(name):
    if name == "x":
        return 0
    if name == "y":
        return 1
    if name == "z":
        return 2
    return 3 + int(name[1:])


def var_name(vid):
    if vid < 3:
        return "xyz"[vid]
    return f"x{vid - 3}"


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()-,^*":
            tokens.append((c, i))
            i += 1
            continue
        m = re.match(r"[A-Za-z_]\w*|\d+", text[i:])
        if not m:
            raise TermSyntaxError(f"unexpected character {c!r}", i)
        tokens.append((m.group(0), i))
        i += len(m.group(0))
    return tokens


def parse_term(text, signature):
    """Parse term text against a signature; rejects symbols outside it, and
    trees or bracket nesting deeper than MAX_PARSE_DEPTH."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise TermSyntaxError("unexpected end of input", len(text))
        tok, at = tokens[pos]
        if expected is not None and tok != expected:
            raise TermSyntaxError(f"expected {expected!r}, got {tok!r}", at)
        pos += 1
        return tok, at

    def deeper(depth, at):
        if depth >= MAX_PARSE_DEPTH:
            raise TermSyntaxError(f"term deeper than {MAX_PARSE_DEPTH} levels", at)
        return depth + 1

    # each parser returns (term, depth of its tree); `nesting` counts the
    # brackets around it, the only recursion not bounded by precedence
    def parse_binary(min_prec, nesting):
        left, depth = parse_unary(nesting)
        while True:
            tok = peek()
            if tok in _BINOPS and _BINOPS[tok] >= min_prec:
                op, at = take()
                if op not in signature:
                    raise UnknownSymbolError(f"symbol {op!r} not in signature")
                right, right_depth = parse_binary(_BINOPS[op] + 1, nesting)
                left, depth = App(op, (left, right)), deeper(max(depth, right_depth), at)
            else:
                return left, depth

    def parse_unary(nesting):
        negations = []
        while peek() == "-":
            _, at = take()
            if "-" not in signature:
                raise UnknownSymbolError("symbol '-' not in signature")
            negations.append(at)
        tok, at = take()
        if (tok == "(" or peek() == "(") and nesting >= MAX_PARSE_DEPTH:
            raise TermSyntaxError(f"term nested deeper than {MAX_PARSE_DEPTH} levels", at)
        if tok == "(":
            term, depth = parse_binary(1, nesting + 1)
            take(")")
        elif _VAR_RE.match(tok) and tok not in signature:
            term, depth = Var(var_id(tok)), 1
        elif tok not in signature:
            raise UnknownSymbolError(f"symbol {tok!r} not in signature")
        elif peek() == "(":
            take("(")
            args = [parse_binary(1, nesting + 1)]
            while peek() == ",":
                take(",")
                args.append(parse_binary(1, nesting + 1))
            take(")")
            arity = signature[tok]
            if len(args) != arity:
                raise TermSyntaxError(
                    f"symbol {tok!r} expects {arity} arguments, got {len(args)}", at
                )
            term = App(tok, tuple(t for t, _ in args))
            depth = deeper(max(d for _, d in args), at)
        elif signature[tok] != 0:
            raise TermSyntaxError(f"symbol {tok!r} expects {signature[tok]} arguments", at)
        else:
            term, depth = App(tok), 1
        for at in reversed(negations):
            term, depth = App("-", (term,)), deeper(depth, at)
        return term, depth

    term, _ = parse_binary(1, 1)
    if pos < len(tokens):
        raise TermSyntaxError(f"trailing input {tokens[pos][0]!r}", tokens[pos][1])
    return term


def format_term(t):
    """Render a term in the grammar above; parse_term(format_term(t)) == t."""
    if isinstance(t, Var):
        return var_name(t.id)
    if t.symbol == "-":
        return f"-{_format_child(t.args[0])}"
    if t.symbol in _BINOPS:
        left, right = t.args
        return f"{_format_child(left)} {t.symbol} {_format_child(right)}"
    if t.args:
        return f"{t.symbol}({', '.join(format_term(a) for a in t.args)})"
    return t.symbol


def _format_child(t):
    if isinstance(t, App) and t.symbol in _BINOPS:
        return f"({format_term(t)})"
    return format_term(t)


def term_size(t):
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def term_vars(t):
    """Set of variable ids occurring in a term."""
    if isinstance(t, Var):
        return {t.id}
    out = set()
    for a in t.args:
        out |= term_vars(a)
    return out


# --- propositional machinery ---------------------------------------------


class DimacsError(ValueError):
    pass


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals; literals are nonzero DIMACS-style ints."""

    lits: frozenset

    @staticmethod
    def of(*lits):
        if any(l == 0 for l in lits):
            raise ValueError("literal 0 is reserved as terminator")
        return Clause(frozenset(lits))

    @property
    def is_tautological(self):
        return any(-l in self.lits for l in self.lits)


@dataclass(frozen=True)
class Cnf:
    clauses: tuple
    num_vars: int

    def __post_init__(self):
        for c in self.clauses:
            for l in c.lits:
                if l == 0:
                    raise ValueError("literal 0 is reserved as terminator")
                if abs(l) > self.num_vars:
                    raise ValueError(f"literal {l} exceeds num_vars={self.num_vars}")

    @staticmethod
    def of(clauses, num_vars=None):
        clauses = tuple(clauses)
        if num_vars is None:
            num_vars = max((abs(l) for c in clauses for l in c.lits), default=0)
        return Cnf(clauses, num_vars)


@dataclass
class Assignment:
    """Partial or total map from variable id to truth value."""

    values: dict = field(default_factory=dict)

    def is_total(self, num_vars):
        return all(v in self.values for v in range(1, num_vars + 1))

    def value(self, lit):
        """Truth value of a literal, or None if its variable is unassigned."""
        v = self.values.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def copy(self):
        return Assignment(dict(self.values))


def parse_dimacs(text):
    """Parse standard DIMACS CNF text."""
    header = None
    clauses = []
    pending = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            continue
        if header is None:
            raise DimacsError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"line {lineno}: bad literal {tok!r}")
            if lit == 0:
                clauses.append(Clause(frozenset(pending)))
                pending = []
            else:
                if abs(lit) > header[0]:
                    raise DimacsError(
                        f"line {lineno}: literal {lit} exceeds declared bound {header[0]}"
                    )
                pending.append(lit)
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("missing clause terminator 0")
    num_vars, num_clauses = header
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"header declares {num_clauses} clauses, found {len(clauses)}"
        )
    return Cnf(tuple(clauses), num_vars)


def write_dimacs(cnf):
    """Serialize a Cnf; round-trips through parse_dimacs exactly."""
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for c in cnf.clauses:
        lits = sorted(c.lits, key=lambda l: (abs(l), l < 0))
        lines.append(" ".join(str(l) for l in lits) + " 0" if lits else "0")
    return "\n".join(lines) + "\n"
