"""Boolean Pythagorean Triples pipeline.

Builds the CNF whose unsatisfiability is equivalent to every 2-coloring
of [m] containing a monochromatic triple (one (x_a|x_b|x_c) &
(~x_a|~x_b|~x_c) block per triple of `check.triples`), extracts colorings
from models, and finds the threshold: one solve at the bound, and
bisection below it only when the bound is unsatisfiable.  Every verdict
is re-checked by `check.verify_coloring` or `check.check_certificate`.
`check.triples` and `check.members` keep the tuple and the frozenset of
their latest bound, so encoding m and verifying a coloring of m share one
enumeration and one member set.

Reference-only facts, not desk-reproducible: the true threshold is 7825;
the published encodings had 3730 and 3745 variables after symmetry
handling, and the unsatisfiability certificate was about 200 terabytes.
We apply no symmetry breaking, so our variable count for a given m is
exactly the number of distinct triple members.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import check, sat
from .check import VALID, Coloring, members, triples, verify_coloring  # perfbench reads these
from .logic import Cnf, VerificationError

REFERENCE_THRESHOLD = 7825  # not desk-verified; recorded for documentation


class MissingVariableError(ValueError):
    pass


def encode(m):
    """The paper-exact CNF: one two-clause block per triple.

    Returns (cnf, varmap) where varmap sends each triple member to its
    propositional variable id.  Numbers outside every triple get no
    variable.  num_vars = |members(m)|; clauses = 2 * |triples(m)|.
    """
    varmap = {member: i for i, member in enumerate(sorted(check.members(m)), 1)}
    clauses = []
    for a, b, c in check.triples(m):
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
    return check.Coloring(m, colors)


@dataclass(frozen=True)
class Threshold:
    m: int
    certificate: check.Certificate


def solve(m):
    """A Coloring of [m] that verify_coloring accepts, or a Certificate that
    check_certificate accepts for encode(m): encode, solve, then check
    the verdict.  A verdict that does not check raises VerificationError."""
    cnf, varmap = encode(m)
    verdict = sat.solve(cnf)
    if verdict.satisfiable:
        coloring = coloring_from_model(verdict.model, varmap, m)
        witness = check.verify_coloring(coloring, m)
        if witness != check.VALID:
            raise VerificationError(f"m={m}: coloring has monochromatic triple {witness}")
        return coloring
    if not check.check_certificate(cnf, verdict.certificate):
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
    if isinstance(result, check.Coloring):
        return result
    lo, hi, cert = 0, max_m, result
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe = solve(mid)
        if isinstance(probe, check.Coloring):
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
