"""Every artifact format and the checker that decides whether an artifact
is valid, kept apart from the search code whose verdicts it re-checks.

It imports only `logic` and the standard library, so this module and
`logic` are the code a verdict trusts, and they can be read as one unit.
One section per engine: sat certificates and models, bpt colorings,
cap-set files, and eq axioms, goals and proofs.  Left out, one reason each:
- `critical_pairs_join` needs completion's `superpose` and `rewrite`;
- evolve's re-score runs the greedy kernel: `priority.score` is the definition of fitness;
- `bpt.encode` is an encoder: it counts in the trusted base but is not a checker.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from .logic import (
    _VAR_RE, BOOLEAN_SIG, GROUP_SIG, ROBBINS_SIG, Assignment, Term, apply_subst, clause_line,
    format_term, parse_term, replace_at, subterm_at, var_id, var_name,
)


# --- sat ------------------------------------------------------------------
class PartialAssignmentError(ValueError):
    pass


class MalformedCertificateError(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    """LRAT refutation without deletions: clause `lines[i]` has id `ids[i]`
    and follows by unit propagation from the clauses `hints[i]` names, in
    order.  Input clause k (from 1) has id k; the last line is empty."""

    lines: tuple
    ids: tuple
    hints: tuple

    def to_text(self):
        """One line per clause: `<id> <literals> 0 <hint ids> 0`."""
        return "".join(
            " ".join([str(k), clause_line(c), *map(str, h), "0"]) + "\n"
            for k, c, h in zip(self.ids, self.lines, self.hints)
        )

    @staticmethod
    def from_text(text):
        """Parse one `<id> <literals> 0 <hint ids> 0` line per nonblank line;
        the error for a malformed line names it, counting from 1."""
        lines, ids, hints = [], [], []
        for lineno, raw in enumerate(text.splitlines(), 1):
            if not raw.strip():
                continue
            try:
                k, *rest = map(int, raw.split())
            except ValueError:
                raise MalformedCertificateError(f"line {lineno}: non-integer token in {raw!r}")
            if rest.count(0) != 2 or rest[-1] != 0:
                raise MalformedCertificateError(f"line {lineno}: not 'id lits 0 hints 0': {raw!r}")
            end = rest.index(0)
            ids.append(k)
            lines.append(frozenset(rest[:end]))
            hints.append(tuple(rest[end + 1:-1]))
        return Certificate(tuple(lines), tuple(ids), tuple(hints))


def format_model(assignment):
    """A total model as one DIMACS line: each variable once, signed, then 0."""
    return clause_line(v if value else -v for v, value in assignment.values.items()) + "\n"


def parse_model(text, num_vars):
    """The Assignment of a model line as format_model writes it."""
    try:
        *lits, end = map(int, text.split())
    except ValueError:
        lits, end = (), None
    if end != 0 or sorted(map(abs, lits)) != list(range(1, num_vars + 1)):
        raise ValueError(f"model: expected each variable from 1 to {num_vars} once, then 0")
    return Assignment({abs(lit): lit > 0 for lit in lits})


def verify_model(cnf, assignment):
    """Independent model check: no clause is disjoint from the true literals."""
    if not assignment.is_total(cnf.num_vars):
        raise PartialAssignmentError("model must assign every variable")
    values = assignment.values
    true = {v if values[v] else -v for v in range(1, cnf.num_vars + 1) if values[v] is not None}
    return not any(map(true.isdisjoint, cnf.clauses))


def check_certificate(cnf, cert):
    """True iff each line follows from earlier clauses by the unit propagation
    its hints spell out, and the last line is empty.  Line i (from 1) has id
    len(cnf.clauses) + i, and `false` starts as its literals: each hint's
    clause minus `false` must be empty, which accepts the line, or one literal
    not already true, whose negation joins `false`.  Independent of _Core.
    A literal out of range is malformed, not invalid, wherever its line sits."""
    n = cnf.num_vars
    for i, line in enumerate(cert.lines, 1):
        for lit in line:
            if lit == 0 or abs(lit) > n:
                raise MalformedCertificateError(f"bad literal {lit} in certificate clause {i}")
    if not cert.lines or cert.lines[-1]:
        return False
    db = list(map(frozenset, cnf.clauses))  # clause id k is db[k - 1]
    for k, line, hints in zip(cert.ids, cert.lines, cert.hints, strict=True):
        if k != len(db) + 1:
            return False
        false = set(line)
        for h in hints:
            if not 0 < h < k:
                return False
            rest = db[h - 1] - false
            if not rest:
                break
            if len(rest) > 1:
                return False
            (lit,) = rest
            if -lit in false:
                return False
            false.add(-lit)
        else:
            return False
        db.append(frozenset(line))
    return True


# --- bpt ------------------------------------------------------------------
class DomainGapError(ValueError):
    pass


class InvalidColorError(ValueError):
    pass


@dataclass(frozen=True)
class Coloring:
    m: int
    colors: dict  # member -> 0 | 1


def format_coloring(coloring):
    """One `member color` line per member, in increasing order."""
    return "".join(f"{i} {c}\n" for i, c in sorted(coloring.colors.items()))


@functools.lru_cache(maxsize=1, typed=True)
def triples(m):
    """All Pythagorean triples (a, b, c) with a < b < c <= m, sorted by (c, a).

    Euclid's formula: every primitive triple is (u^2 - v^2, 2uv, u^2 + v^2)
    with u > v >= 1, gcd(u, v) = 1 and u - v odd, and every triple is k
    times exactly one primitive triple.  The work is one gcd per (u, v)
    with u^2 + v^2 <= m plus one tuple per triple, then the sort.
    """
    if m < 1:
        raise ValueError("m must be positive")
    out = []
    for u in range(2, math.isqrt(m - 1) + 1):
        for v in range(1 + u % 2, u, 2):  # u - v odd
            c = u * u + v * v
            if c > m:
                break
            if math.gcd(u, v) == 1:
                a, b = sorted((u * u - v * v, 2 * u * v))
                k = m // c
                out.extend(zip(range(a, k * a + 1, a), range(b, k * b + 1, b),
                               range(c, k * c + 1, c)))
    out.sort(key=lambda t: (t[2], t[0]))
    return tuple(out)


@functools.lru_cache(maxsize=1, typed=True)
def members(m):
    """Distinct numbers appearing in some triple up to m."""
    return frozenset().union(*triples(m))


VALID = "valid"


def verify_coloring(coloring, m):
    """VALID, or the first monochromatic triple as a witness.  Every triple
    member must have a color, and that color must be 0 or 1."""
    colors = coloring.colors
    domain = members(m)
    missing = domain.difference(colors)
    if missing:
        raise DomainGapError(f"coloring misses triple members {sorted(missing)}")
    bad = [x for x in domain if colors[x] not in (0, 1)]
    if bad:
        x = min(bad)
        raise InvalidColorError(f"member {x} has color {colors[x]!r}, not 0 or 1")
    for a, b, c in triples(m):
        if colors[a] == colors[b] == colors[c]:
            return (a, b, c)
    return VALID


# --- capset ---------------------------------------------------------------
def is_cap(vectors):
    """No three distinct vectors sum to zero mod 3.

    For distinct x and y the third point -(x+y) differs from both, so the
    set is a cap iff no pair's third point is in it.  A vector is keyed as
    K = h << n | l, where bit i of h (of l) is set iff digit i is 2 (is 1),
    and K' = l << n | h is the key of its negation.  Bitsliced GF(3)
    addition gives x + y = ((xl|yl) ^ t, (xh|yh) ^ t) with
    t = (xl|yh) ^ (xh|yl), and (Kx|Ky') ^ (Kx'|Ky) holds t in both halves,
    so the key of -(x+y) is (Kx|Ky) ^ (Kx|Ky') ^ (Kx'|Ky).
    """
    vs = list(vectors)
    n = len(vs[0]) if vs else 0
    keys = []
    for v in vs:
        if len(v) != n or not set(v) <= {0, 1, 2}:
            raise ValueError("vectors must share one dimension over {0, 1, 2}")
        h = l = 0
        for a in v:
            h, l = h << 1 | (a == 2), l << 1 | (a == 1)
        keys.append((h << n | l, l << n | h))
    keyset = {k for k, _ in keys}
    if len(keyset) != len(keys):
        raise ValueError("vectors must be distinct")
    for i, (kx, nx) in enumerate(keys):
        if not keyset.isdisjoint({(kx | ky) ^ (kx | ny) ^ (nx | ky) for ky, ny in keys[i + 1:]}):
            return False
    return True


def parse_capset_file(text, n=None):
    """One vector per line, written as base-3 digit strings."""
    vectors = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not all(ch in "012" for ch in line):
            raise ValueError(f"line {lineno}: not a base-3 vector: {line!r}")
        v = tuple(int(ch) for ch in line)
        if n is not None and len(v) != n:
            raise ValueError(f"line {lineno}: expected dimension {n}, got {len(v)}")
        n = len(v)
        vectors.append(v)
    return vectors


def format_capset(vectors):
    return "\n".join("".join(str(d) for d in v) for v in sorted(vectors)) + "\n"


# --- equational -----------------------------------------------------------
@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term

    def __str__(self):
        return f"{format_term(self.lhs)} = {format_term(self.rhs)}"


def parse_equation(text, signature, start=0):
    """The equation written `lhs = rhs` in text[start:], split at its first
    `=`; a term error's position counts from the start of `text`."""
    eq = text.find("=", start)
    if eq < 0:
        raise ValueError("equation must have the form 'lhs = rhs'")
    return Equation(parse_term(text[:eq], signature, start), parse_term(text, signature, eq + 1))


_SIGNATURES = {"boolean": BOOLEAN_SIG, "robbins": ROBBINS_SIG, "group": GROUP_SIG}


def parse_axioms(text):
    """(axioms by id, signature) of an axiom file: an optional
    "signature: NAME" line, then "ID: lhs = rhs" lines; `#` starts a comment.
    An ID is one word, used once: it is the first field of a proof line.
    One signature line at most, before every axiom, so all share it; with
    none, the signature is boolean."""
    signature = BOOLEAN_SIG
    axioms = {}
    seen_signature = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        if line.startswith("signature:"):
            if seen_signature or axioms:
                raise ValueError(
                    f"line {lineno}: signature line must come once, before every axiom")
            seen_signature = True
            name = line.split(":", 1)[1].strip()
            if name not in _SIGNATURES:
                raise ValueError(f"line {lineno}: unknown signature {name!r}")
            signature = _SIGNATURES[name]
            continue
        if ":" not in line or "=" not in line:
            raise ValueError(f"line {lineno}: expected 'ID: lhs = rhs'")
        colon = code.index(":")
        eq_id = code[:colon].strip()
        if eq_id.split() != [eq_id]:
            raise ValueError(f"line {lineno}: axiom id {eq_id!r} is not one word")
        if eq_id in axioms:
            raise ValueError(f"line {lineno}: axiom id {eq_id!r} repeated")
        try:
            # a term error's position counts in the line as written
            axioms[eq_id] = parse_equation(code, signature, colon + 1)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return axioms, signature


@dataclass(frozen=True)
class ProofStep:
    eq_id: str
    pos: tuple
    subst: dict
    direction: str  # "lr" | "rl"


@dataclass(frozen=True)
class EqProof:
    steps: tuple


class ProofStepError(ValueError):
    pass


def apply_step(t, step, axioms):
    if step.eq_id not in axioms:
        raise ProofStepError(f"unknown equation id {step.eq_id!r}")
    eq = axioms[step.eq_id]
    frm, to = (eq.lhs, eq.rhs) if step.direction == "lr" else (eq.rhs, eq.lhs)
    try:
        sub = subterm_at(t, step.pos)
    except IndexError as exc:
        raise ProofStepError(f"bad position {step.pos}: {exc}")
    if apply_subst(frm, step.subst) != sub:
        raise ProofStepError(
            f"instance mismatch at {step.pos}: {format_term(apply_subst(frm, step.subst))}"
            f" != {format_term(sub)}"
        )
    return replace_at(t, step.pos, apply_subst(to, step.subst))


def check_proof(proof, axioms, goal, diagnostics=None):
    """Replay every step; True iff the steps transform goal.lhs into goal.rhs."""
    t = goal.lhs
    for i, step in enumerate(proof.steps):
        try:
            t = apply_step(t, step, axioms)
        except ProofStepError as exc:
            if diagnostics is not None:
                diagnostics.append(f"step {i}: {exc}")
            return False
    if t != goal.rhs:
        if diagnostics is not None:
            diagnostics.append(
                f"final term {format_term(t)} differs from goal {format_term(goal.rhs)}"
            )
        return False
    return True


# proof file format: one step per line, "eqId position substitution direction"
# position: dot-separated child indices, "-" for the root
# substitution: semicolon-separated var=term bindings, "-" when empty
# (terms may contain spaces and commas, so the substitution field is
# delimited by its neighbours: the first two and the last whitespace fields)


def format_proof(proof):
    lines = []
    for s in proof.steps:
        pos = ".".join(str(i) for i in s.pos) if s.pos else "-"
        if s.subst:
            sub = "; ".join(
                f"{var_name(v)}={format_term(t)}" for v, t in sorted(s.subst.items())
            )
        else:
            sub = "-"
        lines.append(f"{s.eq_id} {pos} {sub} {s.direction}")
    return "\n".join(lines) + "\n"


# a negative index parses, so that replaying the step reports it
_POSITION_RE = re.compile(r"-?[0-9]+(\.-?[0-9]+)*")


# the four fields of a proof line: id, position, substitution, direction
_PROOF_LINE = re.compile(r"\s*(\S+)\s+(\S+)\s+(.*\S)\s+(\S+)\s*")


def parse_proof(text, signature):
    steps = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = _PROOF_LINE.fullmatch(raw)
        if fields is None:
            raise ProofStepError(f"line {lineno}: expected 4 fields")
        eq_id, pos_text, sub_text, direction = fields.groups()
        if direction not in ("lr", "rl"):
            raise ProofStepError(f"line {lineno}: bad direction {direction!r}")
        if pos_text == "-":
            pos = ()
        elif _POSITION_RE.fullmatch(pos_text):
            pos = tuple(int(p) for p in pos_text.split("."))
        else:
            raise ProofStepError(f"line {lineno}: bad position {pos_text!r}")
        subst = {}
        if sub_text != "-":
            end = fields.start(3) - 1
            for binding in sub_text.split(";"):
                name, _, term_text = binding.partition("=")
                end += 1 + len(binding)
                name = name.strip()
                if not _VAR_RE.match(name):
                    raise ProofStepError(f"line {lineno}: bad variable name {name!r}")
                try:
                    # a term error's position counts in the line as written
                    subst[var_id(name)] = parse_term(raw[:end], signature, end - len(term_text))
                except ValueError as exc:
                    raise ProofStepError(f"line {lineno}: {exc}") from None
        steps.append(ProofStep(eq_id, pos, subst, direction))
    return EqProof(tuple(steps))
