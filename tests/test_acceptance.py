"""Acceptance suite: one test per release criterion.

Each test prints a single "criterion N: PASS" line on success so the run
output doubles as the acceptance report.
"""

import itertools
import json
import os
import random
import time

from bruteforge import bpt, capset, check, equational, evolve, hierarchy, priority, sat
from bruteforge.logic import App, Assignment, BOOLEAN_SIG, Cnf, Var


DATA = os.path.join(os.path.dirname(__file__), "data")


def _report(n, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {n}: PASS{suffix}")


def test_criterion_1_sat_oracle_equivalence():
    """500 seeded random CNFs (<=20 vars, <=90 clauses): solver verdict
    matches the truth-table oracle; models and certificates verify."""
    rng = random.Random(20260824)
    start = time.monotonic()
    for _ in range(500):
        n = rng.randint(1, 20)
        clauses = []
        for _ in range(rng.randint(1, 90)):
            width = rng.randint(1, 3)
            lits = {rng.choice([1, -1]) * rng.randint(1, n) for _ in range(width)}
            clauses.append(lits)
        cnf = Cnf.of(clauses, n)
        verdict = sat.solve(cnf)
        assert verdict.satisfiable == sat.truth_table_satisfiable(cnf)
        if verdict.satisfiable:
            assert check.verify_model(cnf, verdict.model)
        else:
            assert check.check_certificate(cnf, verdict.certificate)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(1, f"500/500 in {elapsed:.1f}s")


def test_criterion_2_unit_propagation_chain():
    """(p|q) & (~p|r) & (~r|s) & p propagates to p, r, s true; q open."""
    p, q, r, s = 1, 2, 3, 4
    cnf = Cnf.of([[p, q], [-p, r], [-r, s], [p]], 4)
    start = time.monotonic()
    result, status = sat.unit_propagate(cnf, Assignment())
    elapsed = time.monotonic() - start
    assert status == sat.STABLE
    assert result.values.get(p) is True
    assert result.values.get(r) is True
    assert result.values.get(s) is True
    assert q not in result.values
    assert elapsed < 0.001
    _report(2, f"{elapsed * 1e6:.0f}us")


def test_criterion_3_bpt_structure():
    """Triple counts at 20 and encoding-size identities for all m <= 500."""
    assert len(check.triples(20)) == 6
    assert len(check.members(20)) == 13
    # independent cubic-scan oracle at the anchor point
    brute = [
        (a, b, c)
        for a in range(1, 21)
        for b in range(a + 1, 21)
        for c in range(b + 1, 21)
        if a * a + b * b == c * c
    ]
    assert len(brute) == 6
    for m in range(1, 501):
        cnf, varmap = bpt.encode(m)
        assert cnf.num_vars == len(check.members(m))
        assert len(cnf.clauses) == 2 * len(check.triples(m))
    _report(3)


def test_criterion_4_bpt_small_scale_equivalence():
    """For every m <= 40: solver verdict equals exhaustive enumeration and
    extracted colorings verify."""
    start = time.monotonic()
    for m in range(1, 41):
        cnf, varmap = bpt.encode(m)
        verdict = sat.solve(cnf)
        assert verdict.satisfiable == bpt.exhaustive_satisfiable(m)
        if verdict.satisfiable and varmap:
            coloring = bpt.coloring_from_model(verdict.model, varmap, m)
            assert check.verify_coloring(coloring, m) == check.VALID
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(4, f"m<=40 in {elapsed:.1f}s")


def test_criterion_5_capset_oracle():
    """exact_cap = 2, 4, 9 for n = 1, 2, 3; full-enumeration cross-check for
    n <= 2; dual cap definitions agree on 10,000 random sets per n <= 5."""
    assert capset.exact_cap_enumeration(1) == 2
    assert capset.exact_cap_enumeration(2) == 4
    # exact_cap returns only an exact maximum; a give-up raises
    assert capset.exact_cap(1) == 2
    assert capset.exact_cap(2) == 4
    start = time.monotonic()
    assert capset.exact_cap(3) == 9
    n3_elapsed = time.monotonic() - start
    assert n3_elapsed < 60.0
    rng = random.Random(99)
    for n in range(1, 6):
        vectors = capset.all_vectors(n)
        for _ in range(10000):
            size = rng.randint(0, min(6, len(vectors)))
            vs = rng.sample(vectors, size)
            assert check.is_cap(vs) == capset.is_cap_ap(vs)
    _report(5, f"n=3 exact in {n3_elapsed:.1f}s")


def test_criterion_6_greedy_and_golden_log():
    """Greedy determinism, the binary lower bound, score <= exact bound, and
    the committed evolution run reaching 9 in dimension 3."""
    assert priority.greedy(priority.Const(0), 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for n in range(1, 11):
        b = capset.binary_cap(n)
        assert len(b) == 2**n
        assert check.is_cap(b)
    exact = {1: 2, 2: 4, 3: 9}
    sample_exprs = ["0", "v[0]", "n - v[0]", "v[0] * v[1]",
                    "0 - ((v[0]*v[0] + v[1]*v[1] - v[2]) % 3)"]
    for text in sample_exprs:
        expr = priority.parse_expr(text)
        for n in (1, 2, 3):
            assert priority.score(expr, n) <= exact[n]
    with open(os.path.join(DATA, "evolve_n3_seed0.jsonl")) as handle:
        records = [json.loads(line) for line in handle]
    assert len(records) == 5000
    best = 0
    for record in records:
        rescored = priority.score(priority.parse_expr(record["expr"]), 3)
        assert rescored == record["score"]
        assert check.is_cap(priority.greedy(priority.parse_expr(record["expr"]), 3))
        best = max(best, record["score"])
        assert record["best"] == best  # best-so-far is monotone
    assert best == 9
    _report(6, "golden log best = 9")


def test_criterion_7_evolution_reproducibility(monkeypatch):
    """Fixed-seed runs, serial and in a 4-worker pool, give byte-identical logs."""
    cfg = evolve.EvolveConfig(n=3, seed=0, eval_budget=200)
    _, serial = evolve.evolve(cfg)
    monkeypatch.setattr(evolve, "POOL_MIN_N", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    _, pooled = evolve.evolve(cfg)
    log_serial = "".join(evolve.record_to_json(r) + "\n" for r in serial).encode()
    log_pooled = "".join(evolve.record_to_json(r) + "\n" for r in pooled).encode()
    assert log_serial == log_pooled
    _report(7, f"{len(serial)} records byte-identical")


def test_criterion_8_equational_suite():
    """Unification, group completion, a fast idempotence proof, and the
    expected timeout on the historically hard goal."""
    sig = {"eq": 2, "a": 0}
    sigma = equational.mgu(
        equational.parse_term("eq(x, a)", sig), equational.parse_term("eq(y, a)", sig)
    )
    assert sigma is not equational.FAIL and len(sigma) == 1
    ((vid, image),) = sigma.items()
    assert {vid, image.id} == {0, 1}

    rules = equational.kb_complete(
        list(equational.GROUP_AXIOMS.values()), equational.GROUP_PRECEDENCE
    )
    group_a = dict(equational.GROUP_SIG)
    group_a["a"] = 0
    assert equational.rewrite(
        equational.parse_term("i(i(a))", group_a), rules
    ) == App("a")
    assert equational.critical_pairs_join(rules)

    goal = equational.Equation(
        equational.parse_term("x v x", BOOLEAN_SIG), Var(0)
    )
    start = time.monotonic()
    proof = equational.prove(goal, equational.BOOLEAN_AXIOMS)
    elapsed = time.monotonic() - start
    assert isinstance(proof, check.EqProof)
    assert check.check_proof(proof, equational.BOOLEAN_AXIOMS, goal)
    assert elapsed < 10.0

    hard_goal = equational.Equation(
        App("v", (equational.T1, equational.T2)), equational.T1
    )
    result = equational.prove(hard_goal, equational.ROBBINS_AXIOMS, max_expansions=2000)
    if isinstance(result, check.EqProof):
        # a found proof would be a surprise, but it must still check
        assert check.check_proof(result, equational.ROBBINS_AXIOMS, hard_goal)
        detail = f"hard goal proved in {len(result.steps)} steps"
    else:
        assert isinstance(result, equational.Timeout)
        detail = (
            f"hard goal timeout: {result.equations_generated} equations, "
            f"{result.rewrites_attempted} rewrites"
        )
    _report(8, detail)


def test_criterion_9_hierarchy():
    """Shape classifications plus negation duality on 1,000 formulas."""
    goldbach = hierarchy.parse_formula(
        "all m . even(m) -> ex p < m . ex q < m . prime(p) & prime(q) & adds(m,p,q)"
    )
    assert hierarchy.classify(goldbach) == hierarchy.HierarchyClass("Pi", 1)
    triples_shape = hierarchy.parse_formula(
        "ex m . all f < pow2(m) . has_mono_triple(f, m)"
    )
    assert hierarchy.classify(triples_shape) == hierarchy.HierarchyClass("Sigma", 1)
    ae = hierarchy.parse_formula("all x . ex y . A(x,y)")
    assert hierarchy.classify(ae) == hierarchy.HierarchyClass("Pi", 2)
    bounded = hierarchy.parse_formula("all x < n . ex y < x . A(x,y)")
    assert hierarchy.classify(bounded) == hierarchy.DELTA0

    rng = random.Random(7)
    swap = {"Sigma": "Pi", "Pi": "Sigma"}
    for _ in range(1000):
        depth = rng.randint(0, 5)
        f = hierarchy.Atom("A", ("u",))
        for i in range(depth):
            kind = rng.choice([hierarchy.FORALL, hierarchy.EXISTS])
            f = hierarchy.Quant(kind, f"w{i}", None, f)
        c = hierarchy.classify(f)
        cn = hierarchy.classify(hierarchy.Not(f))
        if c == hierarchy.DELTA0:
            assert cn == hierarchy.DELTA0
        else:
            assert cn == hierarchy.HierarchyClass(swap[c.label], c.index)
    _report(9)
