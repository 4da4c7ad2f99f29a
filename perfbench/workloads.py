"""The four benchmark workloads: seeded inputs, units, and correctness gates.

A workload is a fixed list of units built from the seed.  One pass runs
every unit once and yields, per unit, its time (input text to verified
verdict, serialized artifact included) and its outcome.  Each unit calls
the public library functions that the matching CLI handler calls, in the
same order, and then puts its serialized artifact through the package's
independent checker.  The gates use explicit checks, never ``assert``, so
``python -O`` cannot strip them; a failed check raises GateError, which the
runner counts as a failed unit instead of aborting the run.

Variance control.  Run-to-run spread across seeds must stay well inside
the benchmark's bounds, so the seed varies the inputs without changing
their difficulty mix:

* sat-cert and eq-prove draw a fixed instance family from a constant pool
  seed, and the run seed takes a copy of every instance that keeps its
  difficulty: it reorders the clauses of a CNF, which changes the order in
  which propagation scans them but not the DPLL tree (branching is on the
  lowest unassigned variable), and it renames the variables of a goal in a
  way that keeps every term comparison the prover makes.  With freshly
  drawn instances the few expensive units (UNSAT refutations, goals that
  run out of budget) decide the total: 100 fresh threshold 3-CNFs with 45
  variables took 12.4, 16.9 and 17.2 s for three seeds, and commuting
  the arguments of the goals moved the decided fraction between 0.81 and
  0.92 over five seeds.
* bpt-scan draws one bound uniformly from each of equal-width strata, so
  every seed covers the range evenly.
* capset-evolve makes four shorter evolve runs, with seeds derived from the
  run seed, instead of one long one: how fast a run climbs to the maximum
  sets the cost of its later generations, and four trajectories average
  that out.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from dataclasses import dataclass

POOL_SEED = 20240806  # fixed family for sat-cert and eq-prove; see module doc


class GateError(Exception):
    """A unit's verdict failed its independent re-check or a known answer."""


@dataclass(frozen=True)
class Unit:
    uid: str
    data: object
    expect: str | None = None  # "unsat" for formulas that are UNSAT by construction


@dataclass(frozen=True)
class Outcome:
    uid: str
    seconds: float
    decided: bool
    failure: str | None  # None when the unit passed its gate
    probe: float  # seconds of the reference probe run next to this unit


def no_corruption(kind, text):
    return text


def digest_units(units):
    """SHA-256 over the generated inputs, so two runs can be shown equal."""
    h = hashlib.sha256()
    for u in units:
        h.update(json.dumps([u.uid, repr(u.data), u.expect]).encode())
    return h.hexdigest()


def _timed_units(units, run_unit, clock, on_unit, probe, **kwargs):
    """Shared pass loop for the workloads whose units are independent.

    Each unit starts on a collected heap, as a CLI command starts in a fresh
    process; otherwise garbage left by earlier units decides when
    collections fall inside a unit.
    """
    for u in units:
        on_unit(u.uid)
        gc.collect()
        probe_s = probe()
        start = clock()
        failure = None
        decided = True
        try:
            decided = run_unit(u, **kwargs)
        except GateError as exc:
            failure = f"gate: {exc}"
        except Exception as exc:  # a raising unit is a failed unit, not a crash
            failure = f"raised {type(exc).__name__}: {exc}"
        yield Outcome(u.uid, clock() - start, decided, failure, probe_s)
    on_unit(None)


# --- sat-cert ----------------------------------------------------------------


def _random_3cnf(rng, n, m):
    return [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
            for _ in range(m)]


def _pigeonhole(pigeons, holes):
    """PHP(p, h): every pigeon in a hole, no hole shared; UNSAT when p > h."""
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append([-var(p, h), -var(q, h)])
    return pigeons * holes, clauses


def _reordered(rng, clauses):
    out = list(clauses)
    rng.shuffle(out)
    return out


def _dimacs(n, clauses):
    return f"p cnf {n} {len(clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in clauses)


def sat_cert_inputs(bf, seed, scale):
    pool = random.Random(POOL_SEED)
    rng = random.Random(seed)
    n = scale["sat_vars"]
    m = round(4.26 * n)
    units = []
    for i in range(scale["sat_formulas"]):
        clauses = _random_3cnf(pool, n, m)
        units.append(Unit(f"r{i}", _dimacs(n, _reordered(rng, clauses))))
    for p, h in scale["pigeonholes"]:
        nv, clauses = _pigeonhole(p, h)
        units.append(Unit(f"php{p}-{h}", _dimacs(nv, _reordered(rng, clauses)),
                          expect="unsat"))
    return units


def _sat_unit(u, bf, corrupt):
    cnf = bf.logic.parse_dimacs(u.data)
    verdict = bf.sat.solve(cnf)
    if verdict.satisfiable:
        if u.expect == "unsat":
            raise GateError("SAT verdict on a formula that is UNSAT by construction")
        lits = [v if verdict.model.values[v] else -v for v in range(1, cnf.num_vars + 1)]
        text = corrupt("model", " ".join(map(str, lits)) + " 0\n")
        model = bf.logic.Assignment({abs(l): l > 0 for l in map(int, text.split()) if l})
        if not bf.sat.verify_model(cnf, model):
            raise GateError("model does not satisfy the formula")
    else:
        text = corrupt("certificate", verdict.certificate.to_text())
        if not bf.sat.check_certificate(cnf, bf.sat.Certificate.from_text(text)):
            raise GateError("refutation certificate rejected")
    return True


def sat_cert_pass(bf, units, clock, on_unit, probe, corrupt, result):
    return _timed_units(units, _sat_unit, clock, on_unit, probe, bf=bf, corrupt=corrupt)


# --- bpt-scan ----------------------------------------------------------------


def bpt_scan_inputs(bf, seed, scale):
    rng = random.Random(seed)
    lo, hi, count = scale["bpt_range"]
    width = (hi - lo) / count
    units = [Unit(f"m{m}", (m, None))
             for m in (int(lo + width * i + rng.random() * width) for i in range(count))]
    m, budget = scale["bpt_stretch"]
    units.append(Unit(f"m{m}-stretch", (m, budget)))
    return units


def _bpt_unit(u, bf, corrupt):
    m, step_limit = u.data
    cnf, varmap = bf.bpt.encode(m)
    try:
        verdict = bf.sat.solve(cnf, step_limit=step_limit)
    except bf.sat.BudgetExhausted:
        return False  # undecided, not failed
    if not verdict.satisfiable:
        # every bound below the reference threshold 7825 is 2-colorable
        raise GateError(f"UNSAT verdict at m={m}")
    coloring = bf.bpt.coloring_from_model(verdict.model, varmap, m)
    text = corrupt("coloring", "".join(f"{i} {c}\n" for i, c in sorted(coloring.colors.items())))
    colors = {int(i): int(c) for i, c in (line.split() for line in text.splitlines())}
    witness = bf.bpt.verify_coloring(bf.bpt.Coloring(m, colors), m)
    if witness != bf.bpt.VALID:
        raise GateError(f"monochromatic triple {witness} at m={m}")
    return True


def bpt_scan_pass(bf, units, clock, on_unit, probe, corrupt, result):
    return _timed_units(units, _bpt_unit, clock, on_unit, probe, bf=bf, corrupt=corrupt)


# --- capset-evolve -------------------------------------------------------------

MAX_CAP = {1: 2, 2: 4, 3: 9, 4: 20}  # exact maximum cap sizes


def capset_evolve_inputs(bf, seed, scale):
    n, runs, evals = scale["capset"]
    return [Unit(f"run{k}", (n, seed * 16 + k, evals)) for k in range(runs)]


def capset_evolve_pass(bf, units, clock, on_unit, probe, corrupt, result):
    """Serial evolve runs; each generation after the seed scoring is a unit.

    A generation's records are emitted together when its batch is scored,
    so a unit is timed from one generation's records to the next.  The
    records are gated when a run ends; the run's best cap is re-checked
    with ``capset.is_cap`` outside unit time.  ``result`` (a dict) receives
    the SHA-256 of the JSON-lines logs, as ``capset evolve --log`` writes
    them, and the best scores.
    """
    logs = hashlib.sha256()
    best_scores, unique, total = [], 0, 0
    for unit in units:
        n, seed, evals = unit.data
        ends, probes = {}, {}

        def sink(record):
            g = record["generation"]
            if g not in probes:
                probes[g] = probe()  # inside generation g's window; subtracted below
            ends[g] = clock()
            on_unit(f"{unit.uid}/g{g + 1}")  # the work that follows is the next generation

        on_unit(f"{unit.uid}/g0")
        gc.collect()
        best, records = bf.evolve.evolve(
            bf.evolve.EvolveConfig(n=n, seed=seed, eval_budget=evals), log_sink=sink)
        on_unit(None)
        failures = _gate_generations(records, n)
        logs.update("".join(bf.evolve.record_to_json(r) + "\n" for r in records).encode())
        best_scores.append(best.score)
        unique += len({r.get("expr") for r in records})
        total += len(records)
        final = _gate_best(bf, best, n, corrupt)
        gens = sorted(ends)
        for previous, g in zip(gens, gens[1:]):
            failure = failures.get(g) or (final if g == gens[-1] else None)
            yield Outcome(f"{unit.uid}/g{g}", ends[g] - ends[previous] - probes[g], True,
                          failure, probes[g])
    if result is not None:
        result["log_sha256"] = logs.hexdigest()
        result["best_scores"] = best_scores
        result["duplicate_ratio"] = 1 - unique / total  # what memoizing within a run saves


def _gate_generations(records, n):
    failures = {}
    running = 0
    by_gen = {}
    for r in records:
        by_gen.setdefault(r["generation"], []).append(r)
    for g, recs in by_gen.items():
        for r in recs:
            score = r.get("score")
            if not isinstance(score, int) or not 1 <= score <= MAX_CAP.get(n, 3 ** n):
                failures[g] = f"score {score!r} outside [1, {MAX_CAP.get(n)}]"
                break
            running = max(running, score)
            if r.get("best") != running:
                failures[g] = f"best {r.get('best')} != running maximum {running}"
                break
        slots = sorted(r["slot"] for r in recs)
        if g not in failures and slots != list(range(len(recs))):
            failures[g] = f"slots {slots} are not 0..{len(recs) - 1}"
    return failures


def _gate_best(bf, best, n, corrupt):
    cap = bf.priority.greedy(best.expr, n)
    try:
        vectors = bf.capset.parse_capset_file(corrupt("cap", bf.capset.format_capset(cap)), n)
        if not bf.capset.is_cap(vectors):
            return "gate: final best set is not a cap"
    except ValueError as exc:  # malformed file or repeated vectors
        return f"gate: {exc}"
    if len(vectors) != best.score or best.score > MAX_CAP.get(n, 3 ** n):
        return f"gate: final cap size {len(vectors)} vs score {best.score}"
    return None


# --- eq-prove ------------------------------------------------------------------


def _random_term(bf, rng, size):
    App, Var = bf.logic.App, bf.logic.Var
    if size <= 1:
        return Var(rng.randrange(3)) if rng.random() < 0.8 else App(rng.choice("01"))
    if size == 2 or rng.random() < 0.2:
        return App("-", (_random_term(bf, rng, size - 1),))
    left = rng.randrange(1, size - 1)
    return App(rng.choice("v^"), (_random_term(bf, rng, left),
                                  _random_term(bf, rng, size - 1 - left)))


def _random_step(bf, rng, t, axioms, max_size):
    """One seeded ``apply_step`` from t, or None when every step grows too big."""
    eq = bf.equational
    subterms = [s for _, s in eq.positions(t)]
    options = []
    for eq_id in sorted(axioms):
        e = axioms[eq_id]
        for frm, to, direction in ((e.lhs, e.rhs, "lr"), (e.rhs, e.lhs, "rl")):
            extra = sorted(bf.logic.term_vars(to) - bf.logic.term_vars(frm))
            for pos, sub in eq.positions(t):
                sigma = eq.match(frm, sub)
                if sigma is not None:
                    options.append((eq_id, pos, sigma, direction, extra))
    rng.shuffle(options)
    for eq_id, pos, sigma, direction, extra in options:
        sigma = dict(sigma)
        for v in extra:
            sigma[v] = rng.choice(subterms)
        new = eq.apply_step(t, eq.ProofStep(eq_id, pos, sigma, direction), axioms)
        if bf.logic.term_size(new) <= max_size:
            return new
    return None


def _walk_goal(bf, rng, axioms):
    """A goal t0 = tk, valid because tk is reached by 1-3 axiom steps."""
    while True:
        t0 = _random_term(bf, rng, rng.randrange(3, 8))
        t = t0
        for _ in range(rng.randrange(1, 4)):
            t = _random_step(bf, rng, t, axioms, bf.logic.term_size(t0) + 4)
            if t is None:
                break
        if t is not None and t != t0:
            return t0, t


def _renamed(bf, ids, t):
    if isinstance(t, bf.logic.Var):
        return bf.logic.Var(ids[t.id])
    return bf.logic.App(t.symbol, tuple(_renamed(bf, ids, a) for a in t.args))


EXISTS_GOALS = ("x v y = x", "x ^ y = x", "x v y = 1", "x ^ y = 0")


def eq_prove_inputs(bf, seed, scale):
    fmt = bf.logic.format_term
    axioms = bf.equational.BOOLEAN_AXIOMS
    pool = random.Random(POOL_SEED)
    rng = random.Random(seed)
    budget = scale["eq_budget"]
    units = []
    for i in range(scale["eq_goals"]):
        lhs, rhs = _walk_goal(bf, pool, axioms)
        # x, y, z become three of x0..x9 in the same order: names of one length
        # in one order keep every comparison the prover makes between terms
        ids = sorted(rng.sample(range(3, 13), 3))
        goal = f"{fmt(_renamed(bf, ids, lhs))} = {fmt(_renamed(bf, ids, rhs))}"
        units.append(Unit(f"walk{i}", ("prove", "boolean", goal, budget)))
    hard = bf.equational.Equation(
        bf.logic.App("v", (bf.equational.T1, bf.equational.T2)), bf.equational.T1)
    units.append(Unit("robbins-hard", ("prove", "robbins",
                                       f"{fmt(hard.lhs)} = {fmt(hard.rhs)}", budget)))
    units.append(Unit("group-kb", ("complete", "group", None, 2000)))
    for i, goal in enumerate(EXISTS_GOALS[: scale["eq_exists"]]):
        units.append(Unit(f"exists{i}", ("exists", "boolean", goal, scale["eq_candidates"])))
    return units


def _parse_goal(bf, text, signature):
    lhs, _, rhs = text.partition("=")
    parse = bf.logic.parse_term
    return bf.equational.Equation(parse(lhs.strip(), signature), parse(rhs.strip(), signature))


def _check_replay(bf, proof, axioms, goal, signature, corrupt):
    text = corrupt("proof", bf.equational.format_proof(proof))
    replay = bf.equational.parse_proof(text, signature)
    diagnostics = []
    if not bf.equational.check_proof(replay, axioms, goal, diagnostics):
        raise GateError(f"proof rejected: {'; '.join(diagnostics)}")


def _eq_unit(u, bf, corrupt):
    eq = bf.equational
    mode, axiom_set, goal_text, budget = u.data
    axioms, signature = eq.AXIOM_SETS[axiom_set], eq.AXIOM_SIGNATURES[axiom_set]
    if mode == "complete":
        rules = eq.kb_complete(list(axioms.values()), eq.GROUP_PRECEDENCE, budget=budget)
        lines = [str(r) for r in rules]  # the artifact `eq complete` prints
        if not eq.critical_pairs_join(rules):
            raise GateError("completed system has a critical pair that does not join")
        if len(lines) != 10:
            raise GateError(f"{len(lines)} rules, expected the 10-rule group system")
        return True
    goal = _parse_goal(bf, goal_text, signature)
    if mode == "exists":
        result = eq.prove_exists(goal, axioms, signature, max_candidates=budget)
        if not isinstance(result, eq.WitnessResult):
            return False
        goal = eq.Equation(eq.apply_subst(goal.lhs, result.witness),
                           eq.apply_subst(goal.rhs, result.witness))
        _check_replay(bf, result.proof, axioms, goal, signature, corrupt)
        return True
    result = eq.prove(goal, axioms, max_expansions=budget)
    if not isinstance(result, eq.EqProof):
        return False
    _check_replay(bf, result, axioms, goal, signature, corrupt)
    return True


def eq_prove_pass(bf, units, clock, on_unit, probe, corrupt, result):
    return _timed_units(units, _eq_unit, clock, on_unit, probe, bf=bf, corrupt=corrupt)


# --- registry --------------------------------------------------------------------

WHY = {  # the same sentences as in BENCHMARK.json
    "sat-cert": (
        "random 3-CNFs at the threshold plus pigeonholes: conflict-heavy DPLL "
        "where checking RUP certificates takes more time than solving"
    ),
    "bpt-scan": (
        "Pythagorean-triple encodings for 40 bounds in [100,1000] plus m=1700 "
        "under a node budget: propagation-bound, all SAT, the checker never runs"
    ),
    "capset-evolve": (
        "serial evolve at n=4: greedy scoring through priority and "
        "capset.extends_cap dominates, sat is never touched"
    ),
    "eq-prove": (
        "Boolean-algebra goals from axiom walks, group completion, the Robbins "
        "hard goal and prove_exists: term matching dominates, with a heavy tail"
    ),
}

INPUTS = {
    "sat-cert": sat_cert_inputs,
    "bpt-scan": bpt_scan_inputs,
    "capset-evolve": capset_evolve_inputs,
    "eq-prove": eq_prove_inputs,
}

PASSES = {
    "sat-cert": sat_cert_pass,
    "bpt-scan": bpt_scan_pass,
    "capset-evolve": capset_evolve_pass,
    "eq-prove": eq_prove_pass,
}

FULL_SCALE = {
    "sat_vars": 40, "sat_formulas": 120, "pigeonholes": ((5, 4), (6, 5)),
    "bpt_range": (100, 1000, 40), "bpt_stretch": (1700, 1000),
    "capset": (4, 4, 254),
    "eq_goals": 100, "eq_budget": 120, "eq_exists": 4, "eq_candidates": 200,
}

TINY_SCALE = {
    "sat_vars": 20, "sat_formulas": 8, "pigeonholes": ((4, 3),),
    "bpt_range": (20, 120, 4), "bpt_stretch": (300, 5),
    "capset": (3, 2, 40),
    "eq_goals": 8, "eq_budget": 60, "eq_exists": 1, "eq_candidates": 40,
}
