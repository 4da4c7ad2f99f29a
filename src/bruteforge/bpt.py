"""Boolean Pythagorean Triples pipeline.

Enumerates Pythagorean triples up to a bound m from Euclid's formula, in
O(#triples) plus a sort, builds the CNF whose unsatisfiability is
equivalent to every 2-coloring of [m] containing a monochromatic triple
(one (x_a|x_b|x_c) & (~x_a|~x_b|~x_c) block per triple), extracts and
verifies colorings, and finds the threshold: one solve at the bound, and
bisection below it only when the bound is unsatisfiable.  `triples` and
`members` keep the tuple and the frozenset of their latest bound, so
encoding m and verifying a coloring of m share one enumeration and one
member set.

Reference-only facts, not desk-reproducible: the true threshold is 7825;
the published encodings had 3730 and 3745 variables after symmetry
handling, and the unsatisfiability certificate was about 200 terabytes.
We apply no symmetry breaking, so our variable count for a given m is
exactly the number of distinct triple members.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import sat
from .logic import Assignment, Cnf, VerificationError

REFERENCE_THRESHOLD = 7825  # not desk-verified; recorded for documentation


class DomainGapError(ValueError):
    pass


class MissingVariableError(ValueError):
    pass


class InvalidColorError(ValueError):
    pass


@dataclass(frozen=True)
class Coloring:
    m: int
    colors: dict  # member -> 0 | 1


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


def encode(m):
    """The paper-exact CNF: one two-clause block per triple.

    Returns (cnf, varmap) where varmap sends each triple member to its
    propositional variable id.  Numbers outside every triple get no
    variable.  num_vars = |members(m)|; clauses = 2 * |triples(m)|.
    """
    varmap = {member: i for i, member in enumerate(sorted(members(m)), 1)}
    clauses = []
    for a, b, c in triples(m):
        xa, xb, xc = varmap[a], varmap[b], varmap[c]
        clauses.append(frozenset((xa, xb, xc)))
        clauses.append(frozenset((-xa, -xb, -xc)))
    return Cnf(tuple(clauses), len(varmap)), varmap


def coloring_from_model(model, varmap, m):
    """The Coloring for bound m in which member i gets color 1 iff its
    variable is true in the model."""
    colors = {}
    for member, var in varmap.items():
        value = model.values.get(var)
        if value is None:
            raise MissingVariableError(f"model does not assign variable {var}")
        colors[member] = 1 if value else 0
    return Coloring(m, colors)


def coloring_to_model(coloring, varmap):
    """Inverse of coloring_from_model over varmap's domain."""
    return Assignment({varmap[i]: bool(c) for i, c in coloring.colors.items()})


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


@dataclass(frozen=True)
class Threshold:
    m: int
    certificate: sat.Certificate


def solve(m):
    """A Coloring of [m] that verify_coloring accepts, or a Certificate that
    sat.check_certificate accepts for encode(m): encode, solve, then check
    the verdict.  A verdict that does not check raises VerificationError."""
    cnf, varmap = encode(m)
    verdict = sat.solve(cnf)
    if verdict.satisfiable:
        coloring = coloring_from_model(verdict.model, varmap, m)
        witness = verify_coloring(coloring, m)
        if witness != VALID:
            raise VerificationError(f"m={m}: coloring has monochromatic triple {witness}")
        return coloring
    if not sat.check_certificate(cnf, verdict.certificate):
        raise VerificationError(f"m={m}: certificate does not check")
    return verdict.certificate


def find_threshold(max_m):
    """solve(max_m) if that is a Coloring, else the Threshold: the least
    unsatisfiable m, with solve(m)'s certificate.

    Unsatisfiability is monotone in m, so bisection keeps lo satisfiable
    (0 has no triples) and hi unsatisfiable: at most ceil(log2 max_m) + 1
    solves in all, each of them checked.  max_m < 1 raises ValueError.
    """
    result = solve(max_m)
    if isinstance(result, Coloring):
        return result
    lo, hi, cert = 0, max_m, result
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe = solve(mid)
        if isinstance(probe, Coloring):
            lo = mid
        else:
            hi, cert = mid, probe
    return Threshold(hi, cert)


def exhaustive_satisfiable(m):
    """Oracle: does any 2-coloring of the triple members avoid mono triples?

    Exhausts all 2^|members(m)| colorings via the bitset truth table over
    the encoding; independent of the CDCL search in `sat.solve`.
    """
    cnf, _ = encode(m)
    return sat.truth_table_satisfiable(cnf)
