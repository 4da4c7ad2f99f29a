"""Complete propositional satisfiability engine with checkable certificates.

The solver is conflict-driven clause learning in the MiniSat style (Een &
Sorensson, SAT 2003) over two watched literals per clause (Chaff).  Every
propagated literal records its reason clause and decision level; each
conflict is analysed to its first unique implication point, the learned
clause is added, and the search jumps back to the level where that clause
becomes unit.  Branching follows EVSIDS activity with ties to the lowest
variable and saved phases that start true, and the search restarts on
Luby's sequence.  A search with no conflict therefore branches on the
lowest unassigned variable, true first.  Tautologies are watched, not
dropped: once x is assigned, x or -x is true, so they never become unit
or false and leave the search as it is.  Learned clauses are never
deleted: in order, followed by the empty clause, they form an LRAT
refutation (Cruz-Filipe et al., CADE 2017), a `check.Certificate`.
`check.check_certificate` and `check.verify_model` re-check the verdicts
with no code of the solver's.  Models and certificates are deterministic
for a given input."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .check import Certificate, check_certificate, verify_model  # perfbench reads these here
from .logic import Assignment

CONFLICT = "conflict"
STABLE = "stable"


class BudgetExhausted(RuntimeError):
    """Raised when an optional step limit is configured and hit."""


class PivotAbsentError(ValueError):
    pass


@dataclass(frozen=True)
class Verdict:
    satisfiable: bool
    model: Assignment | None = None
    certificate: Certificate | None = None


def unit_propagate(cnf, assignment):
    """Least fixpoint of unit propagation extending `assignment`.

    Returns (extended assignment, CONFLICT | STABLE).  CONFLICT iff some
    clause is falsified by the fixpoint.
    """
    n = cnf.num_vars
    core = _Core(cnf)
    conflict = core.assume(
        [v if b else -v for v, b in assignment.values.items() if 1 <= v <= n]
    )
    a = assignment.copy()
    for lit in core.trail:
        a.values[abs(lit)] = lit > 0
    return a, STABLE if conflict is None else CONFLICT


def resolve(c1, c2, pivot):
    """Resolution rule: from (phi | p) and (~p | psi) derive (phi | psi)."""
    if pivot not in c1:
        raise PivotAbsentError(f"pivot {pivot} does not occur positively in c1")
    if -pivot not in c2:
        raise PivotAbsentError(f"pivot {pivot} does not occur negatively in c2")
    return (c1 - {pivot}) | (c2 - {-pivot})


EMPTY = frozenset()
RESTART_UNIT = 100  # conflicts per unit of Luby's restart sequence
DECAY = 0.95  # EVSIDS: the bump grows by 1/DECAY after each conflict


def _luby(i):
    """Term i (from 0) of Luby's sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size, term = 1, 1
    while size < i + 1:
        size, term = 2 * size + 1, 2 * term
    while size - 1 != i:
        size, term = size >> 1, term >> 1
        i %= size
    return term


class _Core:
    """The solver's two-watched-literal propagation over a growing clause set.

    `true`, `watches`, `reason` and `level` are indexed by literal: +v is
    slot v and -v is slot 2n+1-v, reached through Python's negative
    indexing.  `reason[l]` and `level[l]` are read only while l is true.
    Unit and empty clauses are kept aside and asserted at the root of the
    search.  Every longer clause, a tautology too, watches its first two
    literals, which propagation keeps non-false while the clause is open.
    `lim[k]` is the trail length when level k+1 began.  `clauses` holds
    every input clause, in input order, for the certificate's ids.
    """

    def __init__(self, cnf):
        n = cnf.num_vars
        self.num_vars = n
        self.true = [False] * (2 * n + 1)
        self.watches = [[] for _ in range(2 * n + 1)]
        self.reason = [None] * (2 * n + 1)
        self.level = [0] * (2 * n + 1)
        self.units = []  # unit and empty clauses
        self.clauses = [list(c) for c in cnf.clauses]
        self.derived = []  # (learned clause, clauses resolved, level-0 literals dropped)
        self.trail = []
        self.lim = []
        self.head = 0  # trail[:head] has been propagated
        self.act = [0.0] * (n + 1)  # EVSIDS activity by variable
        self.inc = 1.0
        self.phase = [True] * (n + 1)
        self.heap = None  # (-activity, variable), built at the first conflict
        for lits in self.clauses:
            if len(lits) >= 2:
                self.watches[lits[0]].append(lits)
                self.watches[lits[1]].append(lits)
            else:
                self.units.append(lits)

    def assume(self, lits):
        """Assert `lits`, of distinct variables, then the unit clauses, and
        propagate; the clause found false, or None."""
        for lit in lits:
            self._assign(lit, None)
        true = self.true
        for c in self.units:
            if not c or true[-c[0]]:
                return c
            if not true[c[0]]:
                self._assign(c[0], c)
        return self.propagate()

    def propagate(self):
        """Propagate the trail to fixpoint; the falsified clause, or None."""
        true, watches, trail = self.true, self.watches, self.trail
        reason, level, depth = self.reason, self.level, len(self.lim)
        head = self.head
        while head < len(trail):
            false = -trail[head]
            head += 1
            watching = watches[false]
            watches[false] = kept = []
            for i, c in enumerate(watching):
                other = c[0]
                if other == false:
                    other = c[0] = c[1]
                    c[1] = false
                if true[other]:
                    kept.append(c)
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if not true[-lit]:
                        c[1] = lit
                        c[k] = false
                        watches[lit].append(c)
                        break
                else:
                    kept.append(c)
                    if true[-other]:
                        kept.extend(watching[i + 1:])
                        self.head = head
                        return c
                    true[other] = True
                    trail.append(other)
                    reason[other] = c
                    level[other] = depth
        self.head = head
        return None

    def _analyze(self, clause):
        """First-UIP clause of a conflict, asserting literal first, and its level.

        Resolves the conflict clause with the reasons of the current level's
        literals, latest first, until one literal of that level is left.
        Literals of level 0 are dropped: the root's units imply them false.
        The second literal is one of the highest remaining level.  The
        clause, the clauses resolved (the conflict first, then the reasons)
        and the dropped literals are appended to `derived`.
        """
        trail, level, act = self.trail, self.level, self.act
        depth = len(self.lim)
        seen = set()
        learnt = [0]
        resolved, dropped = [], []
        pending = 0  # seen variables of the current level not yet resolved
        i = len(trail)
        while True:
            resolved.append(clause)
            for q in clause:
                v = abs(q)
                if v not in seen:
                    seen.add(v)
                    if not level[-q]:
                        dropped.append(q)
                        continue
                    act[v] += self.inc
                    if level[-q] == depth:
                        pending += 1
                    else:
                        learnt.append(q)
            i -= 1
            while abs(trail[i]) not in seen:
                i -= 1
            pending -= 1
            if not pending:
                break
            clause = self.reason[trail[i]]
        learnt[0] = -trail[i]
        self.derived.append((learnt, resolved, dropped))
        if len(learnt) == 1:
            return learnt, 0
        k = max(range(1, len(learnt)), key=lambda k: level[-learnt[k]])
        learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, level[-learnt[1]]

    def _assign(self, lit, reason):
        self.true[lit] = True
        self.trail.append(lit)
        self.reason[lit] = reason
        self.level[lit] = len(self.lim)

    def _backjump(self, depth):
        """Unassign every level above `depth`, saving phases, requeueing variables."""
        true, trail, heap, act, phase = self.true, self.trail, self.heap, self.act, self.phase
        mark = self.lim[depth]
        del self.lim[depth:]
        for lit in trail[mark:]:
            true[lit] = False
            v = abs(lit)
            phase[v] = lit > 0
            if heap is not None:
                heapq.heappush(heap, (-act[v], v))
        del trail[mark:]
        self.head = mark

    def search(self, step_limit=None):
        """CDCL from the root: the Verdict.

        Until the first conflict every activity is 0, so the pick is a scan
        for the lowest unassigned variable; the activity heap is built at
        that conflict.  The root and each decision count one step against
        `step_limit`.
        """
        true, trail, lim, n = self.true, self.trail, self.lim, self.num_vars
        limit = math.inf if step_limit is None else step_limit
        if limit < 1:
            raise BudgetExhausted(f"step limit {step_limit} exhausted")
        clause = self.assume(())
        if clause is not None:
            return Verdict(False, certificate=self._refutation(clause))
        steps = 1
        scan = 1  # before the first conflict: every variable below is assigned
        conflicts, restarts, restart_at = 0, 0, RESTART_UNIT
        while True:
            clause = self.propagate()
            if clause is not None:
                if not lim:
                    return Verdict(False, certificate=self._refutation(clause))
                learnt, depth = self._analyze(clause)
                self._backjump(depth)
                self._assign(learnt[0], learnt)
                if len(learnt) > 1:
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                self.inc /= DECAY
                if self.heap is None or self.inc > 1e100:
                    if self.inc > 1e100:
                        self.act = [a * 1e-100 for a in self.act]
                        self.inc *= 1e-100
                    act = self.act
                    self.heap = [(-act[v], v) for v in range(1, n + 1)
                                 if not (true[v] or true[-v])]
                    heapq.heapify(self.heap)
                conflicts += 1
                continue
            if conflicts >= restart_at and lim:
                restarts += 1
                restart_at = conflicts + RESTART_UNIT * _luby(restarts)
                self._backjump(0)
            heap = self.heap
            if heap is None:
                while scan <= n and (true[scan] or true[-scan]):
                    scan += 1
                v = scan
            else:
                while heap and (true[heap[0][1]] or true[-heap[0][1]]):
                    heapq.heappop(heap)
                v = heapq.heappop(heap)[1] if heap else n + 1
            if v > n:
                return Verdict(True, model=Assignment({u: true[u] for u in range(1, n + 1)}))
            steps += 1
            if steps > limit:
                raise BudgetExhausted(f"step limit {step_limit} exhausted")
            lim.append(len(trail))
            self._assign(v if self.phase[v] else -v, None)

    def _refutation(self, clause):
        """The certificate once `clause` is false at the root.

        Input clause k has id k, and the j-th learned clause len(clauses) + j.
        A line's hints are the root reasons that make its dropped literals
        false, transitively and in trail order, then the clauses it
        resolved, earliest on the trail first: the conflict comes last.
        """
        reason = self.reason
        pos = {lit: p for p, lit in enumerate(self.trail)}  # the trail is the root's
        ids = {id(c): k for k, c in enumerate(self.clauses, 1)}
        first = len(self.clauses) + 1
        lines, hints = [], []
        for k, (learnt, resolved, dropped) in enumerate(
                self.derived + [(EMPTY, [clause], clause)], first):
            ids[id(learnt)] = k
            lines.append(frozenset(learnt))
            need = {-q for q in dropped}
            roots = list(need)
            for lit in roots:
                for q in reason[lit]:
                    if q != lit and -q not in need:
                        need.add(-q)
                        roots.append(-q)
            roots.sort(key=pos.__getitem__)
            hints.append(tuple([ids[id(reason[lit])] for lit in roots]
                               + [ids[id(c)] for c in reversed(resolved)]))
        return Certificate(tuple(lines), tuple(range(first, first + len(lines))), tuple(hints))


def solve(cnf, step_limit=None):
    """Decide satisfiability.  Total, sound, complete, deterministic.

    SAT verdicts carry a total model; UNSAT verdicts carry an LRAT
    certificate of learned clauses.  `step_limit` bounds the number of
    decisions, the root counted as one, and raises BudgetExhausted when
    hit (default: unbudgeted).
    """
    return _Core(cnf).search(step_limit)


_TABLE_CHUNK_VARS = 18


def truth_table_satisfiable(cnf):
    """Independent oracle: exhaustive truth-table check via bitset arithmetic.

    Bit k of a 2^j-bit integer represents the assignment of the lowest j
    variables whose variable i is true iff bit (i-1) of k is set.  Variables
    beyond the chunk width are enumerated explicitly, so memory stays
    bounded while the whole 2^n table is still covered.
    """
    import itertools

    n = cnf.num_vars
    low = min(n, _TABLE_CHUNK_VARS)
    size = 1 << low
    full = (1 << size) - 1
    var_masks = {}
    mask = full
    for v in range(1, low + 1):
        period = 1 << v
        half = period >> 1
        block = ((1 << half) - 1) << half
        rep = block
        length = period
        while length < size:
            rep |= rep << length
            length <<= 1
        var_masks[v] = rep & full
    high_vars = list(range(low + 1, n + 1))
    for high in itertools.product((False, True), repeat=len(high_vars)):
        values = dict(zip(high_vars, high))
        acc = full
        for c in cnf.clauses:
            m = 0
            satisfied = False
            for lit in c:
                v = abs(lit)
                if v > low:
                    if values[v] == (lit > 0):
                        satisfied = True
                        break
                else:
                    m |= var_masks[v] if lit > 0 else (full ^ var_masks[v])
            if satisfied:
                continue
            acc &= m
            if acc == 0:
                break
        if acc:
            return True
    return False
