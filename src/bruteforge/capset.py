"""Cap-set laboratory: constructions, the search kernel, exact small-n oracles.

A set is a cap iff no three distinct vectors sum to the zero vector mod 3,
equivalently iff it contains no 3-term arithmetic progression (affine line).
The cap predicate `check.is_cap` and the cap-set file format live in `check`.

Vectors are tuples over {0,1,2} at the boundary: in files, on the command
line and in the oracles (`check.is_cap`, `is_cap_ap`, `extends_cap`,
`exact_cap_enumeration`).  Inside the search kernel a vector of (Z/3)^n is
its code, the int in [0, 3^n) whose base-3 digits are the coordinates, so
integer order is lexicographic tuple order.  Both walks, `greedy_cap` and
`exact_cap`, keep a bytearray of blocked codes: adjoining v blocks v and the
third point -(x+v) of every chosen x, so "does v extend the cap" is a lookup.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .check import format_capset, is_cap, parse_capset_file  # perfbench reads these here


class DimensionBudgetError(ValueError):
    pass


MAX_GREEDY_DIMENSION = 12  # 3^12 = 531441 vectors; above this, refuse


def check_dimension(n):
    """Raise unless 1 <= n <= MAX_GREEDY_DIMENSION, the range every search
    over all 3^n vectors accepts."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_GREEDY_DIMENSION:
        raise DimensionBudgetError(f"dimension {n} above limit {MAX_GREEDY_DIMENSION}")


def all_vectors(n):
    """All 3^n vectors of dimension n in lexicographic order."""
    return [tuple(v) for v in itertools.product((0, 1, 2), repeat=n)]


def vec_add(x, y):
    return tuple((a + b) % 3 for a, b in zip(x, y))


def vec_sub(x, y):
    return tuple((a - b) % 3 for a, b in zip(x, y))


def vec_neg(x):
    return tuple((-a) % 3 for a in x)


def is_cap_ap(vectors):
    """Alternate definition: no distinct x,y,z with y-x = c(z-y), c in {0,1,2}."""
    vs = list(set(vectors))
    for x, y, z in itertools.permutations(vs, 3):
        d1 = vec_sub(y, x)
        d2 = vec_sub(z, y)
        for c in (0, 1, 2):
            if d1 == tuple((c * a) % 3 for a in d2):
                return False
    return True


def code_vector(code, n):
    """The tuple vector of dimension n with the given code."""
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        code, digits[i] = divmod(code, 3)
    return tuple(digits)


@functools.lru_cache(maxsize=1)
def digit_columns(n):
    """Digit i of every code in [0, 3^n), as n tuples in code order.

    Built once for the latest n and shared by every caller, hence tuples.
    """
    columns = []
    for i in range(n):
        run = 3 ** (n - 1 - i)
        columns.append(((0,) * run + (1,) * run + (2,) * run) * 3**i)
    return tuple(columns)


@functools.lru_cache(maxsize=None)
def _third_table(k):
    """Codes of -(a+b) for k-digit codes a, b, at index a * 3^k + b."""
    table = (0,)
    for size in (3**i for i in range(k)):
        # extend by one low digit: a = 3a' + d, b = 3b' + e
        table = tuple(
            3 * table[a // 3 * size + b // 3] + (-(a + b)) % 3
            for a in range(3 * size)
            for b in range(3 * size)
        )
    return table


def _split(n):
    """(s, table) for dimension n, with k = ceil(n/2) and s = 3^k.

    A code c splits into halves divmod(c, s), and the code of -(x+v) is
    table[xh*s + vh] * s + table[xl*s + vl]: the table has 3^(2k) entries,
    never 3^(2n).
    """
    k = (n + 1) // 2
    return 3**k, _third_table(k)


def greedy_cap(ranking, n):
    """Adjoin the codes of `ranking` in order, skipping each blocked one.

    Adjoining v blocks v and the third point of v with every chosen code.
    Returns the chosen codes in the order they were adjoined.
    """
    s, table = _split(n)
    blocked = bytearray(3**n)
    chosen = []
    halves = []  # (high * s, low * s) of each chosen code
    for v in ranking:
        if not blocked[v]:
            blocked[v] = 1
            vh, vl = divmod(v, s)
            for xh, xl in halves:
                blocked[table[xh + vh] * s + table[xl + vl]] = 1
            chosen.append(v)
            halves.append((vh * s, vl * s))
    return chosen


def extends_cap(vset, v):
    """Does adjoining v to the cap `vset` keep it a cap?  O(|vset|^2)."""
    if v in vset:
        return False
    vs = list(vset)
    for i, x in enumerate(vs):
        for y in vs[i + 1 :]:
            if vec_neg(vec_add(x, y)) == v:
                return False
    return True


def binary_cap(n):
    """{0,1}^n, the classic 2^n lower-bound construction; always a cap."""
    if n < 1:
        raise ValueError("n must be positive")
    return set(itertools.product((0, 1), repeat=n))


@dataclass(frozen=True)
class CapBound:
    size: int
    exact: bool


def exact_cap(n, budget=None):
    """Maximum cap-set size by branch-and-bound over lex-ordered vectors.

    Translation symmetry lets us assume the zero vector is in some maximum
    cap (canonical-first pruning).  `budget` bounds search nodes; on
    exhaustion the best lower bound found is returned flagged inexact.
    The search is depth first with an explicit stack, since a branch can
    be thousands of vectors deep (2^n along the first one).
    """
    check_dimension(n)
    total = 3**n
    s, table = _split(n)
    halves = [(0, 0)]  # (high * s, low * s) of each chosen code
    ancestors = []  # (start to resume at, codes it blocked) of each choice after 0^n
    best, nodes = 1, 0
    # blocked[i] is set when code i is chosen or completes a line; a node extends
    # by free codes from `start` up, and the cap starts as 0^n (canonical-first)
    blocked = bytearray(total)
    blocked[0] = start = 1
    while True:
        nodes += 1
        if budget is not None and nodes > budget:
            return CapBound(best, False)
        best = max(best, len(halves))
        # the first free code from `start` here, else at the nearest ancestor:
        # the bound only tightens as i grows, so free codes alone need testing
        while True:
            i = blocked.find(0, start)
            if i >= 0 and len(halves) + (total - i) > best:
                break
            if not ancestors:
                return CapBound(best, True)
            halves.pop()
            start, codes = ancestors.pop()
            for k in codes:
                blocked[k] = 0
        blocked[i] = 1
        codes = [i]
        vh, vl = divmod(i, s)
        for xh, xl in halves:
            k = table[xh + vh] * s + table[xl + vl]
            if not blocked[k]:
                blocked[k] = 1
                codes.append(k)
        ancestors.append((i + 1, codes))
        halves.append((vh * s, vl * s))
        start = i + 1


def exact_cap_enumeration(n):
    """Independent cross-check for tiny n: scan every subset of (Z/3)^n."""
    vectors = all_vectors(n)
    best = 0
    for mask in range(1 << len(vectors)):
        subset = [v for i, v in enumerate(vectors) if mask >> i & 1]
        if len(subset) > best and is_cap(subset):
            best = len(subset)
    return best
