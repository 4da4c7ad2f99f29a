"""Shared syntax layer: first-order terms, propositional clauses/CNF, parsers,
and the error raised when a verdict fails its independent re-check.

A clause is a frozenset of nonzero DIMACS-style ints (-v is the negation of
variable v), and a Cnf is a tuple of clauses with its variable count.

Term grammar (EBNF, ASCII rendering of the usual connectives):

    term    := disj
    disj    := conj { "v" conj }          (left-associative)
    conj    := prod { "^" prod }          (left-associative)
    prod    := unary { "*" unary }        (left-associative)
    unary   := "-" unary | primary
    primary := VAR | CONST | NAME "(" term { "," term } ")" | "(" term ")"
    VAR     := "x" | "y" | "z" | "x" DIGITS  (no leading zeros: "x0", "x10")
    CONST   := nullary symbol of the signature (e.g. "0", "1", "e", "a")

"-" is negation, "v" disjunction, "^" conjunction, "*" a generic binary
operation (group multiplication).  Variable ids: x=0, y=1, z=2, xN=3+N.

The parsers of all three grammars (terms here, formulas in `hierarchy`,
priority expressions in `priority`) read their text through one `Tokens`
cursor: it splits the text with the grammar's token pattern, reports every
syntax error as the grammar's `ParseError` subclass with the position
where parsing failed, and is the one place that enforces MAX_PARSE_DEPTH.
Token patterns accept ASCII letters and digits only.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field, fields


class ParseError(ValueError):
    """Malformed text in one of the grammars; `pos` is the offset in the
    text where parsing failed, or None where no single token is to blame."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


class TermSyntaxError(ParseError):
    """Raised on malformed term text."""


class UnknownSymbolError(ValueError):
    pass


class VerificationError(RuntimeError):
    """An independent re-check rejected a verdict the package produced.

    A bug, not an input fault, so deliberately not a ValueError.
    """


class Term:
    """Base class for first-order terms (Var | App)."""

    __slots__ = ()

    def __reduce__(self):
        # rebuilt through __init__, which hashes again: the slots dataclass
        # __getstate__ would carry a hash of strs from another process
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def read_only(self, name, *value):
    """`__setattr__` and `__delattr__` of a frozen slotted dataclass: the
    generated ones raise TypeError, not FrozenInstanceError, on Python 3.10
    and 3.11, because they name the class that slots=True replaced."""
    raise FrozenInstanceError(f"cannot assign to or delete {name!r}")


# Var and App write their fields through the slots' own setters, bound
# below each class: the generated frozen __init__ pays object.__setattr__
# per field, and every successor the provers build is a new term.
@dataclass(frozen=True, slots=True, init=False)
class Var(Term):
    id: int
    _hash: int = field(init=False, compare=False, repr=False)  # hashed once, not per lookup

    def __init__(self, id):
        if id < 0:
            raise ValueError("variable ids are nonnegative")
        _set_var_id(self, id)
        _set_var_hash(self, hash((id,)))

    def __hash__(self):
        return self._hash


_set_var_id, _set_var_hash = Var.id.__set__, Var._hash.__set__
Var.__setattr__ = Var.__delattr__ = read_only


@dataclass(frozen=True, slots=True, init=False)
class App(Term):
    symbol: str
    args: tuple = ()
    _hash: int = field(init=False, compare=False, repr=False)  # hashed once, not per lookup

    def __init__(self, symbol, args=()):
        _set_symbol(self, symbol)
        _set_args(self, args)
        _set_app_hash(self, hash((symbol, args)))

    def __hash__(self):
        return self._hash


_set_symbol, _set_args, _set_app_hash = App.symbol.__set__, App.args.__set__, App._hash.__set__
App.__setattr__ = App.__delattr__ = read_only


# Signatures are symbol -> arity maps.
BOOLEAN_SIG = {"v": 2, "^": 2, "-": 1, "0": 0, "1": 0}
ROBBINS_SIG = {"v": 2, "-": 1}
GROUP_SIG = {"*": 2, "i": 1, "e": 0}


_VAR_RE = re.compile(r"^(x|y|z|x(0|[1-9][0-9]*))$")

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


class Tokens:
    """Cursor over the tokens of one text, shared by the three parsers.

    `pattern` matches optional whitespace and then one token as group 1;
    `error` is the grammar's ParseError subclass, raised with the position
    of the token at fault.  Tokens begin at `start`, and positions count
    from the start of `text`.  `deeper` gives the depth of a new tree node
    and `nested` the level inside a new bracket (the top level is 1), and
    both reject what goes past MAX_PARSE_DEPTH, so a parser's recursion is
    bounded by the levels it passes down.
    """

    def __init__(self, text, pattern, error, start=0):
        self.error = error
        self.tokens, self.starts = [], []
        pos, end = start, len(text.rstrip())
        while pos < end:
            m = pattern.match(text, pos)
            if m is None:
                pos = len(text) - len(text[pos:].lstrip())
                raise error(f"unexpected character {text[pos]!r}", pos)
            self.tokens.append(m.group(1))
            self.starts.append(m.start(1))
            pos = m.end()
        # None marks the end, so peek needs no bounds check
        self.tokens.append(None)
        self.starts.append(len(text))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, expected=None):
        tok = self.tokens[self.i]
        if tok is None:
            raise self.error("unexpected end of input", self.starts[self.i])
        if expected is not None and tok != expected:
            raise self.error(f"expected {expected!r}, got {tok!r}", self.starts[self.i])
        self.i += 1
        return tok

    def skip(self, tok):
        """Take every consecutive `tok`; return how many there were."""
        start = self.i
        while self.tokens[self.i] == tok:
            self.i += 1
        return self.i - start

    def expect_end(self):
        if self.tokens[self.i] is not None:
            raise self.error(f"trailing input {self.tokens[self.i]!r}", self.starts[self.i])

    def fail(self, message):
        """The grammar's error at the last token taken."""
        return self.error(message, self.starts[self.i - 1])

    def deeper(self, *depths):
        depth = 1 + max(depths)
        if depth > MAX_PARSE_DEPTH:
            raise self.fail(f"tree deeper than {MAX_PARSE_DEPTH} levels")
        return depth

    def nested(self, level):
        if level >= MAX_PARSE_DEPTH:
            raise self.fail(f"nested deeper than {MAX_PARSE_DEPTH} levels")
        return level + 1


_TERM_TOKEN = re.compile(r"\s*([-()^*,]|[A-Za-z_][A-Za-z_0-9]*|[0-9]+)")


def parse_term(text, signature, start=0):
    """Parse the term text[start:] against a signature; rejects symbols
    outside it, and trees or bracket nesting deeper than MAX_PARSE_DEPTH.
    A syntax error's position counts from the start of `text`."""
    tokens = Tokens(text, _TERM_TOKEN, TermSyntaxError, start)

    # each parser returns (term, depth of its tree); `level` counts the
    # brackets around it, the only recursion not bounded by precedence
    def parse_binary(min_prec, level):
        left, depth = parse_unary(level)
        while tokens.peek() in _BINOPS and _BINOPS[tokens.peek()] >= min_prec:
            op = tokens.take()
            if op not in signature:
                raise UnknownSymbolError(f"symbol {op!r} not in signature")
            right, right_depth = parse_binary(_BINOPS[op] + 1, level)
            left, depth = App(op, (left, right)), tokens.deeper(depth, right_depth)
        return left, depth

    def parse_unary(level):
        negations = tokens.skip("-")
        if negations and "-" not in signature:
            raise UnknownSymbolError("symbol '-' not in signature")
        tok = tokens.take()
        if tok == "(" or tokens.peek() == "(":
            level = tokens.nested(level)
        if tok == "(":
            term, depth = parse_binary(1, level)
            tokens.take(")")
        elif _VAR_RE.match(tok) and tok not in signature:
            term, depth = Var(var_id(tok)), 1
        elif tok not in signature:
            raise UnknownSymbolError(f"symbol {tok!r} not in signature")
        elif tokens.peek() == "(":
            tokens.take()
            args = [parse_binary(1, level)]
            while tokens.peek() == ",":
                tokens.take()
                args.append(parse_binary(1, level))
            tokens.take(")")
            if len(args) != signature[tok]:
                raise tokens.fail(
                    f"symbol {tok!r} expects {signature[tok]} arguments, got {len(args)}"
                )
            term = App(tok, tuple(t for t, _ in args))
            depth = tokens.deeper(*(d for _, d in args))
        elif signature[tok] != 0:
            raise tokens.fail(f"symbol {tok!r} expects {signature[tok]} arguments")
        else:
            term, depth = App(tok), 1
        for _ in range(negations):
            term, depth = App("-", (term,)), tokens.deeper(depth)
        return term, depth

    term, _ = parse_binary(1, 1)
    tokens.expect_end()
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


def apply_subst(t, sigma):
    if isinstance(t, Var):
        return sigma.get(t.id, t)
    if not t.args:
        return t
    return App(t.symbol, tuple([apply_subst(a, sigma) for a in t.args]))


def subterm_at(t, pos):
    for i in pos:
        if isinstance(t, Var) or not 0 <= i < len(t.args):
            raise IndexError(f"no subterm at position {pos}")
        t = t.args[i]
    return t


def replace_at(t, pos, sub):
    if not pos:
        return sub
    if isinstance(t, Var) or not 0 <= pos[0] < len(t.args):
        raise IndexError(f"no subterm at position {pos}")
    i = pos[0]
    return App(t.symbol, t.args[:i] + (replace_at(t.args[i], pos[1:], sub),) + t.args[i + 1:])



# --- propositional machinery ---------------------------------------------


class DimacsError(ValueError):
    pass


@dataclass(frozen=True)
class Cnf:
    clauses: tuple
    num_vars: int

    def __post_init__(self):
        # one C-level union checks every literal; the loop only names the first bad one
        lits = frozenset().union(*self.clauses)
        if lits and (0 in lits or max(map(abs, lits)) > self.num_vars):
            for c in self.clauses:
                for l in c:
                    if l == 0:
                        raise ValueError("literal 0 is reserved as terminator")
                    if abs(l) > self.num_vars:
                        raise ValueError(f"literal {l} exceeds num_vars={self.num_vars}")

    @staticmethod
    def of(clauses, num_vars=None):
        """Freezes each clause; num_vars defaults to the largest variable."""
        clauses = tuple(map(frozenset, clauses))
        if num_vars is None:
            num_vars = max((abs(l) for c in clauses for l in c), default=0)
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
            if min(header) < 0:
                raise DimacsError(f"line {lineno}: negative count in header {line!r}")
            continue
        if header is None:
            raise DimacsError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"line {lineno}: bad literal {tok!r}")
            if lit == 0:
                clauses.append(frozenset(pending))
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


def clause_line(clause):
    """A clause as one DIMACS line: literals by variable, the positive one
    first, then the terminating 0."""
    lits = sorted(clause, key=lambda l: (abs(l), l < 0))
    return " ".join([*map(str, lits), "0"])


def write_dimacs(cnf):
    """Serialize a Cnf; round-trips through parse_dimacs exactly."""
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}", *map(clause_line, cnf.clauses)]
    return "\n".join(lines) + "\n"
