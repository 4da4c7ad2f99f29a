"""Unit-equational reasoning: unification, rewriting, LPO, completion,
and budgeted proof search.

Ships the Robbins axioms (R1-R3 plus the definitional equations), the
Boolean-algebra axioms B1-B10, and the free-group axioms.  Proof search is
a fair dovetailed generate-and-test that meets in the middle; found proofs
are `check.EqProof` step lists that `check.check_proof` replays.  The
witness search prove_exists skips every candidate instance that is false
in a two-element model of the axioms, since no proof of it exists.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import time
from collections import deque
from dataclasses import dataclass

from .check import (  # perfbench reads these here
    EqProof, Equation, ProofStep, apply_step, check_proof, format_proof, parse_axioms, parse_proof,
)
from .logic import (  # the CLI reads GROUP_SIG here
    App, GROUP_SIG, ROBBINS_SIG, Term, Var, apply_subst, format_term, parse_term, replace_at,
    term_size, term_vars,
)
from .stats import BudgetExhausted

FAIL = None  # mgu failure sentinel


@dataclass(frozen=True)
class RewriteRule:
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if not term_vars(self.rhs) <= term_vars(self.lhs):
            raise ValueError("rule right-hand side introduces variables")

    def __str__(self):
        return f"{format_term(self.lhs)} -> {format_term(self.rhs)}"


class OrientationError(ValueError):
    def __init__(self, equation):
        super().__init__(f"equation not orientable under the precedence: {equation}")
        self.equation = equation


def _give_up(what, rules):
    """Completion's give-up: what ran out, with the rules made so far."""
    return BudgetExhausted(f"{what} with {len(rules)} partial rules", list(rules))


# --- substitutions and unification ----------------------------------------


def compose(sigma, tau):
    """Substitution equal to applying sigma then tau."""
    out = {v: apply_subst(t, tau) for v, t in sigma.items()}
    for v, t in tau.items():
        if v not in out:
            out[v] = t
    return {v: t for v, t in out.items() if t != Var(v)}


def occurs(vid, t):
    if isinstance(t, Var):
        return t.id == vid
    return any(occurs(vid, a) for a in t.args)


def mgu(t1, t2):
    """Most general unifier of two terms, or FAIL (clash / occurs check)."""
    sigma = {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        if sigma:
            a, b = apply_subst(a, sigma), apply_subst(b, sigma)
        if a == b:
            continue
        if isinstance(a, Var):
            if occurs(a.id, b):
                return FAIL
            sigma = compose(sigma, {a.id: b})
            continue
        if isinstance(b, Var):
            if occurs(b.id, a):
                return FAIL
            sigma = compose(sigma, {b.id: a})
            continue
        if a.symbol != b.symbol or len(a.args) != len(b.args):
            return FAIL
        stack.extend(zip(a.args, b.args))
    return sigma


def match(pattern, t):
    """One-way matching: sigma with pattern*sigma == t, or None."""
    if isinstance(pattern, App) and (isinstance(t, Var) or pattern.symbol != t.symbol):
        return None  # a root clash, before anything is allocated
    sigma = {}
    stack = [(pattern, t)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = sigma.get(p.id)
            if bound is None:
                sigma[p.id] = s
            elif bound != s:
                return None
            continue
        if isinstance(s, Var) or p.symbol != s.symbol or len(p.args) != len(s.args):
            return None
        stack.extend(zip(p.args, s.args))
    return sigma


def rename_apart(t, offset):
    if isinstance(t, Var):
        return Var(t.id + offset)
    return App(t.symbol, tuple(rename_apart(a, offset) for a in t.args))


def max_var(t):
    vs = term_vars(t)
    return max(vs) if vs else -1


# --- lexicographic path order ---------------------------------------------


def lpo_gt(t1, t2, precedence):
    """Strict lexicographic path order; precedence maps symbol -> rank."""

    def gt(s, t):
        if isinstance(t, Var):
            return s != t and occurs(t.id, s)
        if isinstance(s, Var):
            return False
        if any(a == t or gt(a, t) for a in s.args):
            return True
        ps, pt = precedence[s.symbol], precedence[t.symbol]
        if ps > pt:
            return all(gt(s, b) for b in t.args)
        if ps == pt and s.symbol == t.symbol:
            for a, b in zip(s.args, t.args):
                if a == b:
                    continue
                return gt(a, b) and all(gt(s, b2) for b2 in t.args)
            return False
        return False

    return gt(t1, t2)


# --- rewriting -------------------------------------------------------------


def rewrite_at_root(t, rules):
    """t rewritten at the root by the first rule that matches, or None."""
    for rule in rules:
        sigma = match(rule.lhs, t)
        if sigma is not None:
            return apply_subst(rule.rhs, sigma)
    return None


# a tripwire against mis-oriented rule sets, which need not terminate, and
# against LPO-oriented ones whose normal forms are out of reach
MAX_REWRITE_STEPS = 100000


def rewrite(t, rules, deadline=None):
    """Normal form under leftmost-innermost rewriting.

    Terminates for LPO-oriented rule sets, though not always soon.  Each
    step is checked against MAX_REWRITE_STEPS and against `deadline`, a
    time.monotonic() instant or None: past either, BudgetExhausted says
    "rewrite step bound exceeded" or "time limit reached", "with N partial
    rules", and carries the rules.
    """
    steps = 0

    def norm(u):
        nonlocal steps
        while True:
            if isinstance(u, App) and u.args:
                args = tuple([norm(a) for a in u.args])
                if args != u.args:
                    u = App(u.symbol, args)
            hit = rewrite_at_root(u, rules)
            if hit is None:
                return u
            steps += 1
            if steps > MAX_REWRITE_STEPS:
                raise _give_up("rewrite step bound exceeded", rules)
            if deadline is not None and time.monotonic() >= deadline:
                raise _give_up("time limit reached", rules)
            u = hit

    return norm(t)


def positions(t, prefix=()):
    """All positions with their subterms, preorder; root first."""
    yield prefix, t
    if isinstance(t, App):
        for i, a in enumerate(t.args):
            yield from positions(a, prefix + (i,))


# --- critical pairs and completion ----------------------------------------


def _overlaps(r1, r2):
    """Critical pairs from overlapping r1.lhs into non-variable subterms of
    r2.lhs; r2 is assumed renamed apart from r1."""
    out = []
    for pos, sub in positions(r2.lhs):
        if isinstance(sub, Var):
            continue
        sigma = mgu(r1.lhs, sub)
        if sigma is FAIL:
            continue
        if pos == () and apply_subst(r1.rhs, sigma) == apply_subst(r2.rhs, sigma):
            continue  # trivial identity overlap at the root
        left = apply_subst(replace_at(r2.lhs, pos, r1.rhs), sigma)
        right = apply_subst(r2.rhs, sigma)
        if left != right:
            out.append(Equation(left, right))
    return out


def superpose(r1, r2):
    """All critical pairs of two oriented rules (both overlap directions)."""
    offset = max_var(r1.lhs) + max_var(r1.rhs) + 2
    r2r = RewriteRule(rename_apart(r2.lhs, offset), rename_apart(r2.rhs, offset))
    # syntactic duplicates go, first occurrence kept
    return list(dict.fromkeys(_overlaps(r1, r2r) + _overlaps(r2r, r1)))


def orient(eq, precedence):
    if lpo_gt(eq.lhs, eq.rhs, precedence):
        return RewriteRule(eq.lhs, eq.rhs)
    if lpo_gt(eq.rhs, eq.lhs, precedence):
        return RewriteRule(eq.rhs, eq.lhs)
    raise OrientationError(eq)


def kb_complete(axioms, precedence, budget=2000, deadline=None):
    """Knuth-Bendix completion; returns a locally confluent, terminating
    rule list or raises OrientationError or BudgetExhausted.

    `budget` counts picks, and the clock is read against `deadline`, a
    time.monotonic() instant or None, before each pick and in rewrite, so
    one already past makes no pick.  The give-up says "budget exhausted",
    "time limit reached" or "rewrite step bound exceeded", "with N partial
    rules", and carries the rules made so far.

    Standard loop with interreduction: new rules collapse existing rules
    (reducible left-hand sides go back to the pending queue) and compose
    their right-hand sides.  Pending equations wait in a heap keyed by size
    (both sides), then arrival, so the smallest goes first and the oldest
    among equals (fairness + small proofs); each size is computed once.
    """
    pending = []
    arrivals = itertools.count()

    def push(eqs):
        for e in eqs:
            heapq.heappush(pending, (term_size(e.lhs) + term_size(e.rhs), next(arrivals), e))

    push(axioms)
    rules = []
    steps = 0
    while pending:
        steps += 1
        if steps > budget:
            raise _give_up("budget exhausted", rules)
        if deadline is not None and time.monotonic() >= deadline:
            raise _give_up("time limit reached", rules)
        eq = heapq.heappop(pending)[2]
        lhs = rewrite(eq.lhs, rules, deadline)
        rhs = rewrite(eq.rhs, rules, deadline)
        if lhs == rhs:
            continue
        new_rule = orient(Equation(lhs, rhs), precedence)
        # collapse: rules whose lhs is reducible by the new rule re-enter
        kept = []
        for r in rules:
            if _reducible(r.lhs, new_rule):
                push([Equation(r.lhs, r.rhs)])
            else:
                kept.append(r)
        rules = kept
        # compose: normalize right-hand sides with the new rule included
        rules.append(new_rule)
        rules = [RewriteRule(r.lhs, rewrite(r.rhs, rules, deadline)) for r in rules]
        for r in rules:
            if r == new_rule:
                continue
            push(superpose(new_rule, r))
        push(superpose(new_rule, new_rule))
    return rules


def _reducible(t, rule):
    return any(
        isinstance(sub, App) and match(rule.lhs, sub) is not None
        for _, sub in positions(t)
    )


def critical_pairs_join(rules):
    """Confluence check: every critical pair rewrites to one normal form."""
    for r1, r2 in itertools.product(rules, repeat=2):
        for eq in superpose(r1, r2):
            if rewrite(eq.lhs, rules) != rewrite(eq.rhs, rules):
                return False
    return True


# --- axiom sets ------------------------------------------------------------

_SHIPPED = {name: parse_axioms(text) for name, text in {
    "boolean": """
B1: x v (y v z) = (x v y) v z
B2: x v y = y v x
B3: x v (x ^ y) = x
B4: x ^ (y v z) = (x ^ y) v (x ^ z)
B5: x v -x = 1
B6: x ^ (y ^ z) = (x ^ y) ^ z
B7: x ^ y = y ^ x
B8: x ^ (x v z) = x
B9: x v (y ^ z) = (x v y) ^ (x v z)
B10: x ^ -x = 0
""",
    "robbins": """
# no signature line: Def1-Def3 define 0, 1 and ^, so the set is boolean
R1: x v (y v z) = (x v y) v z
R2: x v y = y v x
R3: -(-(x v y) v -(x v -y)) = x
Def1: 0 = -(x v -x)
Def2: 1 = x v -x
Def3: x ^ y = -(-x v -y)
""",
    "group": """
signature: group
G1: (x * y) * z = x * (y * z)
G2: e * x = x
G3: i(x) * x = e
""",
}.items()}
AXIOM_SETS = {name: axioms for name, (axioms, _) in _SHIPPED.items()}
AXIOM_SIGNATURES = {name: signature for name, (_, signature) in _SHIPPED.items()}

BOOLEAN_AXIOMS = AXIOM_SETS["boolean"]
ROBBINS_AXIOMS = {k: eq for k, eq in AXIOM_SETS["robbins"].items() if k.startswith("R")}
ROBBINS_DEFS = {k: eq for k, eq in AXIOM_SETS["robbins"].items() if k.startswith("Def")}
GROUP_AXIOMS = AXIOM_SETS["group"]

GROUP_PRECEDENCE = {"i": 3, "*": 2, "e": 1}

# McCune's ground witnesses for the Winker lemma (over the Robbins language)
T1 = parse_term("x v x", ROBBINS_SIG)
T2 = parse_term("-(-(x v x v x) v x)", ROBBINS_SIG)


# --- proof search ----------------------------------------------------------


@dataclass(frozen=True)
class Timeout:
    """Search gave up; carries the usual prover counters."""

    equations_generated: int
    rewrites_attempted: int


@dataclass(eq=False, slots=True)
class _Node:
    """A term reached from one side of the goal, with the node it was reached
    from and the step taken, as the (eq_id, pos, subst, direction) tuple
    _successors yields; `taken` marks it expanded (see prove)."""

    term: Term
    parent: object
    step: tuple | None
    taken: bool = False


# prove's search parameters (see its docstring)
GROUND_POOL_SIZE = 6  # goal subterms that fill a step's extra variables
MAX_EXTRA_VARS = 2  # an orientation that needs more fills is left out
SIZE_MARGIN = 8  # terms grow at most this much past the goal's larger side
AGE_WEIGHT_RATIO = 4  # smallest-node selections per oldest-node selection


def _ground_pool(goal):
    """The GROUND_POOL_SIZE smallest subterms of the goal, size-lexicographic
    order."""
    pool = []
    seen = set()
    for t in (goal.lhs, goal.rhs):
        for _, sub in positions(t):
            if sub not in seen:
                seen.add(sub)
                pool.append(sub)
    pool.sort(key=lambda t: (term_size(t), format_term(t)))
    return pool[:GROUND_POOL_SIZE]


def _compile_match(frm):
    """A function equal to `lambda t: match(frm, t)`: it walks frm through
    one closure per node instead of a stack, and it checks t's root symbol
    and arity before it allocates the substitution."""
    if isinstance(frm, Var):
        v = frm.id
        return lambda t: {v: t}
    symbol, arity, check = frm.symbol, len(frm.args), _compile_check(frm)

    def matcher(t):
        if isinstance(t, Var) or t.symbol != symbol or len(t.args) != arity:
            return None
        sigma = {}
        return sigma if check(t, sigma) else None

    return matcher


def _compile_check(p):
    """A function check(s, sigma): whether s is an instance of p under sigma,
    which it extends by each variable of p bound for the first time."""
    if isinstance(p, Var):
        v = p.id

        def bind(s, sigma):
            bound = sigma.setdefault(v, s)
            return bound is s or bound == s

        return bind
    if not term_vars(p):
        return lambda s, sigma: s == p
    symbol, arity = p.symbol, len(p.args)
    checks = tuple(_compile_check(a) for a in p.args)

    def check(s, sigma):
        if isinstance(s, Var) or s.symbol != symbol or len(s.args) != arity:
            return False
        for c, a in zip(checks, s.args):
            if not c(a, sigma):
                return False
        return True

    return check


def _compile_instance(to):
    """A function equal to `lambda sigma: apply_subst(to, sigma)` for every
    sigma that binds each variable of `to`; ground subterms are shared."""
    if isinstance(to, Var):
        return operator.itemgetter(to.id)
    if not term_vars(to):
        return lambda sigma: to
    symbol = to.symbol
    parts = tuple(_compile_instance(a) for a in to.args)
    if len(parts) == 1:
        (f,) = parts
        return lambda sigma: App(symbol, (f(sigma),))
    if len(parts) == 2:
        f, g = parts
        return lambda sigma: App(symbol, (f(sigma), g(sigma)))
    return lambda sigma: App(symbol, tuple([f(sigma) for f in parts]))


@functools.lru_cache(maxsize=16)
def _axiom_orientations(axiom_items):
    """The part of _orientations that does not depend on the pool, cached
    per axiom set (Equation and terms are frozen, so the items hash), as
    tuples so that no caller can change it: (eq_id, frm, to, direction,
    to_size, shared, extra, match_frm, build_to), where extra lists (var,
    occurrences in to) for the variables of `to` that must be filled, in
    sorted variable order, and match_frm and build_to are `frm`'s matcher
    and `to`'s instantiator, each compiled here once per axiom set."""
    out = []
    for eq_id, eq in axiom_items:
        for frm, to, direction in ((eq.lhs, eq.rhs, "lr"), (eq.rhs, eq.lhs, "rl")):
            frm_vars = term_vars(frm)
            extra = sorted(term_vars(to) - frm_vars)
            if len(extra) > MAX_EXTRA_VARS:
                continue
            occurrences = {}
            for _, sub in positions(to):
                if isinstance(sub, Var):
                    occurrences[sub.id] = occurrences.get(sub.id, 0) + 1
            shared = tuple((v, n) for v, n in occurrences.items() if v in frm_vars)
            out.append((eq_id, frm, to, direction, term_size(to), shared,
                        tuple((v, occurrences[v]) for v in extra),
                        _compile_match(frm), _compile_instance(to)))
    return tuple(out)


def _orientations(axioms, pool):
    """The rewrites prove tries, as (eq_id, frm, to, direction, to_size,
    shared, fills, match_frm, build_to) for each axiom in both directions,
    in axiom order, lr before rl.

    shared lists (var, occurrences in to) for the variables of `to` that
    matching `frm` binds.  The other variables of `to` are filled from the
    ground pool: fills lists each such binding as ((var, term) pairs in
    sorted variable order, size it adds to the instance of `to`).
    Orientations that would need more than MAX_EXTRA_VARS fills are left out;
    one without extra variables has the one empty fill ((), 0).  All but
    the fills come from _axiom_orientations, once per axiom set.
    """
    sized = [(u, term_size(u) - 1) for u in pool]
    out = []
    for eq_id, frm, to, direction, to_size, shared, extra, match_frm, build_to in (
            _axiom_orientations(tuple(axioms.items()))):
        fills = [
            (tuple((v, u) for (v, _), (u, _) in zip(extra, fill)),
             sum(n * grown for (_, n), (_, grown) in zip(extra, fill)))
            for fill in itertools.product(sized, repeat=len(extra))
        ] if extra else [((), 0)]
        out.append((eq_id, frm, to, direction, to_size, shared, fills, match_frm, build_to))
    return out


def _successors(t, orientations, max_size):
    """(step, term, size) for every one-step rewrite of t no larger than
    max_size, one yield per rewrite attempted; the step is the tuple
    (eq_id, pos, subst, direction), the fields of its ProofStep.

    Each orientation's compiled matcher and instantiator stand in for
    match(frm, sub) and apply_subst(to, sigma).  A successor's size is
    t's, minus the replaced subterm's, plus that of the instance of `to`;
    the instance's size comes from the sizes of the bindings, so only the
    successors that fit are built.
    """
    subterms = []  # (pos, subterm, size), preorder like positions(t)
    size_of = {}  # id of each subterm object of t -> its size

    def walk(u, pos):
        i = len(subterms)
        subterms.append(None)
        size = 1
        if isinstance(u, App):
            for k, a in enumerate(u.args):
                size += walk(a, pos + (k,))
        subterms[i] = (pos, u, size)
        size_of[id(u)] = size
        return size

    size = walk(t, ())
    for eq_id, _, _, direction, to_size, shared, fills, match_frm, build_to in orientations:
        for pos, sub, sub_size in subterms:
            sigma0 = match_frm(sub)
            if sigma0 is None:
                continue
            # the matcher binds variables to subterm objects of t itself
            base = size - sub_size + to_size
            for v, n in shared:
                base += n * (size_of[id(sigma0[v])] - 1)
            for fill, fill_size in fills:
                new_size = base + fill_size
                if new_size > max_size:
                    continue
                if fill:
                    sigma = dict(sigma0)
                    sigma.update(fill)
                else:
                    sigma = sigma0  # no fill: the one step that uses sigma0
                yield (eq_id, pos, sigma, direction), replace_at(t, pos, build_to(sigma)), new_size


def _steps_back(node):
    """The steps from node back to the root of its side, last step first."""
    while node.step is not None:
        yield node.step
        node = node.parent


def prove(goal, axioms, max_expansions=5000, deadline=None):
    """Budgeted bidirectional proof search by fair generate-and-test.

    Two frontiers grow by equational steps, from goal.lhs and from goal.rhs.
    They expand in turns, lhs first, and when one is empty the other goes
    on alone; `max_expansions` counts both.  Before each expansion the
    clock is read against `deadline`, a time.monotonic() instant or None,
    so one already past expands nothing.  A step may fill up to
    MAX_EXTRA_VARS variables of its new side from the GROUND_POOL_SIZE
    smallest subterms of the goal, and no term larger than the goal's
    larger side plus SIZE_MARGIN is kept.  Each side dovetails by age and
    by weight (term size): out of every AGE_WEIGHT_RATIO + 1 of its
    selections, one is its oldest frontier node and the rest are its
    smallest, oldest first among equals.  A frontier is kept twice, in
    generation order and in a heap on (size, generation), so each selection
    costs O(log n) in the frontier size n; a node taken through one view is
    skipped when it comes up in the other.

    The rewrites come from _successors, which matches and instantiates
    through each orientation's matcher and instantiator, compiled once per
    axiom set by _axiom_orientations.  A node keeps its step as a plain
    tuple, and ProofSteps are built only for the proof returned.

    The sides meet when one reaches a term the other owns.  The proof is
    the lhs path, then the rhs path reversed: a reversed step keeps its
    equation, position and substitution and flips its direction, since the
    subterm it left is the instance of `to` and the substitution binds
    every variable of `frm`.  Returns an EqProof (check_proof-valid, with
    non-negative positions) or Timeout with counters.
    """
    if goal.lhs == goal.rhs:
        return EqProof(())
    orientations = _orientations(axioms, _ground_pool(goal))
    max_size = max(term_size(goal.lhs), term_size(goal.rhs)) + SIZE_MARGIN

    owner = {}  # term -> (side, node) of the frontier that reached it
    frontiers = []  # per side: nodes in generation order, heap on (size, generation)
    for side, term in enumerate((goal.lhs, goal.rhs)):
        root = _Node(term, None, None)
        owner[term] = (side, root)
        frontiers.append((deque([root]), [(term_size(term), 0, root)]))
    untaken, ticks = [1, 1], [0, 0]
    # `generated` numbers the generations of both heaps: ties still go by insertion
    generated = rewrites = expansions = 0
    side = 1

    while True:
        if untaken[1 - side]:
            side = 1 - side
        expansions += 1
        if (not untaken[side] or expansions > max_expansions
                or deadline is not None and time.monotonic() >= deadline):
            return Timeout(generated, rewrites)
        by_age, by_weight = frontiers[side]
        ticks[side] += 1
        if ticks[side] % (AGE_WEIGHT_RATIO + 1) == 0:
            node = by_age.popleft()
            while node.taken:
                node = by_age.popleft()
        else:
            node = heapq.heappop(by_weight)[2]
            while node.taken:
                node = heapq.heappop(by_weight)[2]
        node.taken = True
        untaken[side] -= 1
        for step, new_term, new_size in _successors(node.term, orientations, max_size):
            rewrites += 1
            hit = owner.get(new_term)
            if hit is None:
                generated += 1
                child = _Node(new_term, node, step)
                owner[new_term] = (side, child)
                by_age.append(child)
                heapq.heappush(by_weight, (new_size, generated, child))
                untaken[side] += 1
            elif hit[0] != side:
                here = [step, *_steps_back(node)]
                there = list(_steps_back(hit[1]))
                lhs_back, rhs_back = (here, there) if side == 0 else (there, here)
                return EqProof(tuple(ProofStep(*s) for s in reversed(lhs_back)) + tuple(
                    ProofStep(eq_id, pos, subst, "rl" if direction == "lr" else "lr")
                    for eq_id, pos, subst, direction in rhs_back))


def _size_classes(signature, max_size, variables):
    """The terms of sizes 1 to max_size over the signature (plus the given
    Vars), one text-sorted list per size, each built only when asked for."""
    terms = list(variables) + [App(s) for s, a in signature.items() if a == 0]
    by_size = {}
    for size in range(1, max_size + 1):
        if size > 1:
            terms = []
            for sym, arity in sorted(signature.items()):
                if arity == 1:
                    terms.extend(App(sym, (t,)) for t in by_size[size - 1])
                elif arity == 2:
                    for ls in range(1, size - 1):
                        for a in by_size[ls]:
                            for b in by_size[size - 1 - ls]:
                                terms.append(App(sym, (a, b)))
        by_size[size] = terms
        yield sorted(terms, key=format_term)


@dataclass(frozen=True)
class WitnessResult:
    """A witness substitution for the goal's variables, plus its proof."""

    witness: dict
    proof: EqProof


# --- the two-element countermodel -------------------------------------------

# symbol -> (arity, operation on {0, 1}): the Boolean algebra for 0, 1, -, v
# and ^, and Z/2 for the group symbols e, i and *.  Every shipped axiom set
# holds in it.
_TWO = {
    "0": (0, lambda: 0),
    "1": (0, lambda: 1),
    "-": (1, lambda a: 1 - a),
    "v": (2, lambda a, b: a | b),
    "^": (2, lambda a, b: a & b),
    "e": (0, lambda: 0),
    "i": (1, lambda a: a),
    "*": (2, lambda a, b: a ^ b),
}

# an axiom with more variables than this is not checked against _TWO, which
# would take 2^k evaluations; the model is then not used at all
_MAX_MODEL_VARS = 10


def _value(t, values):
    """The value in _TWO of t, with values[id] for each of its variables."""
    if isinstance(t, Var):
        return values[t.id]
    return _TWO[t.symbol][1](*[_value(a, values) for a in t.args])


def _holds_in_two(eq):
    """Whether eq is true in _TWO under every assignment of its variables."""
    vs = sorted(term_vars(eq.lhs) | term_vars(eq.rhs))
    for bits in itertools.product((0, 1), repeat=len(vs)):
        values = dict(zip(vs, bits))
        if _value(eq.lhs, values) != _value(eq.rhs, values):
            return False
    return True


def _two_is_a_model(goal, axioms, signature):
    """Whether _TWO interprets every symbol of the signature, the goal and
    the axioms with its arity, and every axiom holds in it.  Then an
    equation false in _TWO has no proof from the axioms, since equational
    steps preserve truth in every model of them."""
    arities = set(signature.items())
    for eq in (goal, *axioms.values()):
        for side in (eq.lhs, eq.rhs):
            arities.update((sub.symbol, len(sub.args))
                           for _, sub in positions(side) if isinstance(sub, App))
    if any(s not in _TWO or _TWO[s][0] != arity for s, arity in arities):
        return False
    return all(len(term_vars(eq.lhs) | term_vars(eq.rhs)) <= _MAX_MODEL_VARS
               and _holds_in_two(eq) for eq in axioms.values())


def _index_tuples(n, k):
    """Every k-tuple over range(n), by sum, then lexicographically; for
    k = 1 that is range(n) itself, and k = 0 gives the one empty tuple."""

    def with_sum(total, width):
        if width == 0:
            if total == 0:
                yield ()
            return
        # the other width - 1 entries add up to at most (width - 1) * (n - 1)
        for first in range(max(0, total - (width - 1) * (n - 1)), min(total, n - 1) + 1):
            for rest in with_sum(total - first, width - 1):
                yield (first, *rest)

    for total in range(k * (n - 1) + 1):
        yield from with_sum(total, k)


EXISTS_EXPANSIONS = 300  # prove's max_expansions for each witness candidate
EXISTS_TERM_SIZE = 7  # largest witness term prove_exists builds


def prove_exists(goal, axioms, signature, max_candidates=200, deadline=None):
    """Treat the goal's variables as existential: enumerate witness terms in
    size-lexicographic order and try to prove each ground instance.

    Witness terms have size at most EXISTS_TERM_SIZE and may share one
    fresh variable (witnesses need not be ground), and each instance gets
    EXISTS_EXPANSIONS expansions of prove.  An assignment is a tuple of
    term indices, one per goal variable in sorted order, and the tuples go
    by their sum, then lexicographically (see _index_tuples), so no
    variable stays at the first term while another runs through the rest.
    At most `max_candidates` instances are tried, serially in that order,
    and the first one proved wins.  The first `max_candidates` assignments
    use only the first `max_candidates` terms, so terms are built one size
    at a time until there are that many.  A goal without variables is its
    own one instance, with the empty witness; it builds no terms, and it is
    tried under the same rules, so not at all when `max_candidates` is
    below 1 or the deadline has passed.

    When the two-element structure _TWO is a model of the axioms (see
    _two_is_a_model), an instance false in it under some assignment of its
    variables cannot be proved: prove is not called on it, it adds nothing
    to the Timeout counters, and it still counts as one of the
    `max_candidates`.  Witnesses and proofs are those prove would find
    without the skip.

    `deadline`, a time.monotonic() instant or None, bounds the whole call:
    each prove gets it, and once it has passed no larger size of terms is
    built and no candidate starts.  Returns WitnessResult or Timeout with
    the counters of the prove calls made.
    """
    use_model = _two_is_a_model(goal, axioms, signature)
    gvars = sorted(term_vars(goal.lhs) | term_vars(goal.rhs))
    fresh = Var(max([*gvars, *(max_var(e.lhs) for e in axioms.values())], default=-1) + 1)
    budget = max(max_candidates, 0)
    terms = []
    # a goal without variables has one candidate, the empty assignment,
    # which product(..., repeat=0) yields without any term
    for size_class in _size_classes(signature, EXISTS_TERM_SIZE, (fresh,)) if gvars else ():
        terms += size_class
        if len(terms) >= budget or deadline is not None and time.monotonic() >= deadline:
            break
    generated = rewrites = 0
    for indices in itertools.islice(_index_tuples(min(len(terms), budget), len(gvars)), budget):
        sigma = {v: terms[i] for v, i in zip(gvars, indices)}
        instance = Equation(apply_subst(goal.lhs, sigma), apply_subst(goal.rhs, sigma))
        if use_model and not _holds_in_two(instance):
            continue
        if deadline is not None and time.monotonic() >= deadline:
            break
        result = prove(instance, axioms, max_expansions=EXISTS_EXPANSIONS, deadline=deadline)
        if isinstance(result, EqProof):
            return WitnessResult(sigma, result)
        generated += result.equations_generated
        rewrites += result.rewrites_attempted
    return Timeout(generated, rewrites)
