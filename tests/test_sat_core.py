"""Golden, differential and edge tests for the CDCL SAT core.

The random-family and pigeonhole digests and their step boundaries pin the
conflict-driven search: models, learned-clause certificates with their
hints, and decision counts.  The RUP digests pin the clause parts alone, in
the format certificates had before they carried hints.  The BPT encodings
hit no conflict, so their digests and the bpt-200 boundary are the ones the
earlier chronological DPLL produced: a search without conflicts still
branches on the lowest unassigned variable, true first.
"""

import hashlib
import random
import sys

import pytest

from bruteforge import bpt, check
from bruteforge.check import Certificate, MalformedCertificateError, check_certificate, verify_model
from bruteforge.logic import Assignment, Cnf, clause_line
from bruteforge.sat import (
    RESTART_UNIT,
    STABLE,
    BudgetExhausted,
    solve,
    _Core,
    _luby,
    truth_table_satisfiable,
    unit_propagate,
)

EMPTY = frozenset()


def _tautological(clause):
    return any(-l in clause for l in clause)


def _random_3cnf(rng, n):
    clauses = []
    for _ in range(round(4.26 * n)):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in vs))
    return Cnf.of(clauses, n)


def _php(pigeons, holes):
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append([-var(p, h), -var(q, h)])
    return Cnf.of(clauses, pigeons * holes)


def _random_family():
    rng = random.Random(20240806)
    return [_random_3cnf(rng, rng.randint(30, 40)) for _ in range(60)]


def _artifact(cnf, verdict):
    """Model text as `sat solve --model` writes it, or the certificate text."""
    if verdict.satisfiable:
        lits = [v if verdict.model.values[v] else -v for v in range(1, cnf.num_vars + 1)]
        return "s " + " ".join(map(str, lits)) + " 0\n"
    return "u\n" + verdict.certificate.to_text()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# --- pinned artifacts -------------------------------------------------------

RANDOM_VERDICTS = "usussusuussussuusususussssususssusssussussssssusussussssusss"
RANDOM_DIGEST = "d37601223eb35fdafdb9c990e806fbed1abef4211c3ebb414906d5b1937dca7a"
NAMED_DIGESTS = {
    "php-4-3": "cc4e1964eda081713a2c2ebe6f84999d19c7e86c364ec041d7a0ed55474afeb6",
    "php-5-4": "d939f9a783f01fc328530ca27524ceae2ecd9793d80b3874b0f92f3f39f67953",
    "bpt-200": "d697859a1bb297c337ed0e4f44d13757df3ea8dca4a0e2410f9ec445e8868393",
    "bpt-500": "b8fd8b21519601952cebbeeea61dc565287826bd8f8eef210128bbe2a4909781",
    "bpt-1000": "28792ef7bbfb8be332de42c690ced474741cf0cb53f814e1f35d7c87662acf8b",
}

RUP_DIGESTS = {
    "random": "fdb166e0065744c81f62330dd3bbdcd0bfa404807d5a97d9929be54b917851b8",
    "php-4-3": "07cb7721a5e3014a5dc042bf722ae86faac189cc858078aa7ac962f969728af0",
    "php-5-4": "6ca3c717c7de444547ac110ad46a9dfe95ceaece139c12460c3f7a3dec294877",
}


def _rup_artifact(cnf, verdict):
    """`_artifact` with a certificate written as one clause_line per line."""
    if verdict.satisfiable:
        return _artifact(cnf, verdict)
    return "u\n" + "\n".join(map(clause_line, verdict.certificate.lines)) + "\n"


def _named(name):
    kind, *args = name.split("-")
    if kind == "random":
        return _random_family()[int(args[0])]
    if kind == "php":
        return _php(int(args[0]), int(args[1]))
    return bpt.encode(int(args[0]))[0]


class TestGolden:
    def test_random_3cnf_artifacts(self):
        whole = hashlib.sha256()
        verdicts = ""
        for cnf in _random_family():
            v = solve(cnf)
            verdicts += "s" if v.satisfiable else "u"
            whole.update(_digest(_artifact(cnf, v)).encode())
        assert verdicts == RANDOM_VERDICTS
        assert whole.hexdigest() == RANDOM_DIGEST

    @pytest.mark.parametrize("name", sorted(NAMED_DIGESTS))
    def test_named_artifacts(self, name):
        cnf = _named(name)
        assert _digest(_artifact(cnf, solve(cnf))) == NAMED_DIGESTS[name]

    def test_clause_parts_match_the_rup_pins(self):
        # models, learned clauses and their order are those pinned before
        # certificates carried hints
        whole = hashlib.sha256()
        for cnf in _random_family():
            whole.update(_digest(_rup_artifact(cnf, solve(cnf))).encode())
        assert whole.hexdigest() == RUP_DIGESTS["random"]
        for name in ("php-4-3", "php-5-4"):
            cnf = _named(name)
            assert _digest(_rup_artifact(cnf, solve(cnf))) == RUP_DIGESTS[name]

    @pytest.mark.parametrize(
        "name, nodes",
        [("random-0", 53), ("random-1", 46), ("php-4-3", 10), ("php-5-4", 44),
         ("bpt-200", 90)],
    )
    def test_budget_boundary(self, name, nodes):
        cnf = _named(name)
        solve(cnf, step_limit=nodes)
        with pytest.raises(BudgetExhausted):
            solve(cnf, step_limit=nodes - 1)


# --- differential fuzz against the truth-table oracle -----------------------


def _fuzz_cnf(rng, max_vars=14):
    """Up to `max_vars` variables; empty clauses, units and tautologies included."""
    n = rng.randint(0, max_vars)
    clauses = []
    for _ in range(rng.randint(0, 40)):
        lits = set()
        if n and rng.random() > 0.02:
            width = rng.choice((1, 1, 2, 3, 3, 4))
            lits = {rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width)}
            if rng.random() < 0.1:
                v = rng.randint(1, n)
                lits |= {v, -v}
        clauses.append(frozenset(lits))
    return Cnf.of(clauses, n)


def test_fuzz_against_truth_table():
    rng = random.Random(1414)
    kinds = set()
    for _ in range(2000):
        cnf = _fuzz_cnf(rng)
        v = solve(cnf)
        assert v.satisfiable == truth_table_satisfiable(cnf)
        if v.satisfiable:
            assert verify_model(cnf, v.model)
        else:
            assert check_certificate(cnf, v.certificate)
            assert _reference_check(cnf, v.certificate)
        for c in cnf.clauses:
            kinds.add("empty" if not c else "unit" if len(c) == 1
                      else "taut" if _tautological(c) else "wide")
        kinds.add("sat" if v.satisfiable else "unsat")
    assert kinds == {"empty", "unit", "taut", "wide", "sat", "unsat"}


def test_wide_fuzz_against_truth_table():
    """Up to 18 variables, mostly threshold 3-CNFs, so searches learn and jump back."""
    rng = random.Random(1818)
    learned = 0
    for _ in range(300):
        if rng.random() < 0.7:
            cnf = _random_3cnf(rng, rng.randint(8, 18))
        else:
            cnf = _fuzz_cnf(rng, 18)
        v = solve(cnf)
        assert v.satisfiable == truth_table_satisfiable(cnf)
        if v.satisfiable:
            assert verify_model(cnf, v.model)
        else:
            assert check_certificate(cnf, v.certificate)
            assert _reference_check(cnf, v.certificate)
            learned += len(v.certificate.lines) - 1
    assert learned > 200


# --- CDCL -------------------------------------------------------------------


class TestCdcl:
    def test_luby_sequence(self):
        assert [_luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_php_7_6_refuted_through_restarts_deterministically(self):
        cnf = _php(7, 6)
        first, second = solve(cnf), solve(cnf)
        assert not first.satisfiable
        # one line per conflict and the empty clause: the search restarted
        assert len(first.certificate.lines) > RESTART_UNIT + 1
        assert check_certificate(cnf, first.certificate)
        assert first.certificate == second.certificate

    def test_activity_rescale_keeps_search_complete(self):
        rescaled = 0
        cases = [(_php(6, 5), "u")] + list(zip(_random_family()[:20], RANDOM_VERDICTS))
        for cnf, verdict in cases:
            core = _Core(cnf)
            core.inc = 0.99e100  # the first conflict crosses the 1e100 rescale
            v = core.search()
            if v.satisfiable:
                assert verify_model(cnf, v.model)
            else:
                assert check_certificate(cnf, v.certificate)
                rescaled += len(v.certificate.lines) > 1 and core.inc < 1e99
            assert ("s" if v.satisfiable else "u") == verdict
        assert rescaled > 5

    def test_only_the_last_line_is_empty(self):
        refuted = 0
        for cnf in _random_family() + [_php(p, p - 1) for p in range(2, 8)]:
            v = solve(cnf)
            if not v.satisfiable:
                lines = v.certificate.lines
                assert not lines[-1]
                assert all(lines[:-1])
                refuted += 1
        assert refuted > 20

    def test_bpt_1700_decides_within_1000_steps(self):
        cnf, varmap = bpt.encode(1700)
        v = solve(cnf, step_limit=1000)
        assert v.satisfiable
        coloring = bpt.coloring_from_model(v.model, varmap, 1700)
        assert check.verify_coloring(coloring, 1700) == check.VALID


# --- tautologies ------------------------------------------------------------


def _with_tautologies(rng, cnf):
    """cnf with 1-6 clauses holding some x and -x inserted at random places."""
    n = cnf.num_vars
    clauses = list(cnf.clauses)
    for _ in range(rng.randint(1, 6)):
        v = rng.randint(1, n)
        extra = {rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 2))}
        clauses.insert(rng.randint(0, len(clauses)), frozenset({v, -v} | extra))
    return Cnf(tuple(clauses), n)


def _tautology_family():
    rng = random.Random(1515)
    plain = [_random_3cnf(rng, rng.randint(8, 16)) for _ in range(40)]
    plain += [_php(4, 3), _php(5, 4)]
    return [(cnf, _with_tautologies(rng, cnf)) for cnf in plain]


def _hinted_clauses(cnf, cert):
    """Each line's hints as the clauses they name."""
    db = cnf.clauses + cert.lines
    return [[db[h - 1] for h in hints] for hints in cert.hints]


class TestTautologiesAreInert:
    """The core watches tautologies; they never become unit or false, so the
    search, its artifacts and propagation are those of the formula without them."""

    def test_same_model_or_certificate(self):
        verdicts = set()
        for plain, padded in _tautology_family():
            assert any(map(_tautological, padded.clauses))
            v, w = solve(padded), solve(plain)
            assert _rup_artifact(padded, v) == _rup_artifact(plain, w)
            if not v.satisfiable:
                # the inserted tautologies shift ids, not the clauses named
                assert (_hinted_clauses(padded, v.certificate)
                        == _hinted_clauses(plain, w.certificate))
            verdicts.add(v.satisfiable)
        assert verdicts == {True, False}

    def test_same_propagation_fixpoint(self):
        rng = random.Random(16)
        conflicts = 0
        for plain, padded in _tautology_family():
            for _ in range(5):
                lits = rng.sample(range(1, plain.num_vars + 1), 3)
                start = Assignment({v: rng.random() < 0.5 for v in lits})
                a, status = unit_propagate(padded, start)
                b, expected = unit_propagate(plain, start)
                assert (list(a.values.items()), status) == (list(b.values.items()), expected)
                conflicts += status != STABLE
        assert conflicts > 0

    def test_same_truth_table_verdict(self):
        for plain, padded in _tautology_family():
            assert truth_table_satisfiable(padded) == truth_table_satisfiable(plain)


# --- reference checker ------------------------------------------------------


def _rup(db, lits):
    """Full-scan reverse unit propagation: does asserting ~lits conflict?"""
    if any(-l in lits for l in lits):
        return True
    true = {-l for l in lits}
    while True:
        units = set()
        for c in db:
            if c & true:
                continue
            rest = [l for l in c if -l not in true]
            if not rest:
                return True
            if len(rest) == 1:
                units.add(rest[0])
        if not units:
            return False
        if any(-u in units for u in units):
            return True
        true |= units


def _reference_check(cnf, cert):
    if not cert.lines or cert.lines[-1]:
        return False
    db = list(cnf.clauses)
    for line in cert.lines:
        if not _rup(db, line):
            return False
        db.append(line)
    return True


def _unsat_family():
    rng = random.Random(77)
    out = []
    while len(out) < 60:
        n = rng.randint(3, 10)
        cnf = _random_3cnf(rng, n) if rng.random() < 0.7 else _fuzz_cnf(rng)
        v = solve(cnf)
        if not v.satisfiable:
            out.append((cnf, v.certificate))
    return out


def _without(cert, dropped):
    """cert without the lines at the indexes in `dropped`: the later ids
    close up, and hints to a dropped line are removed."""
    gone = {cert.ids[i] for i in dropped}
    kept = [i for i in range(len(cert.lines)) if i not in dropped]
    first = cert.ids[0]
    return Certificate(
        tuple(cert.lines[i] for i in kept),
        tuple(range(first, first + len(kept))),
        tuple(tuple(h - sum(g < h for g in gone) for h in cert.hints[i] if h not in gone)
              for i in kept),
    )


def _replace(cert, i, line=None, k=None, hints=None):
    """cert with line i's clause, id or hints replaced."""
    def at(values, new):
        return values if new is None else values[:i] + (new,) + values[i + 1:]
    return Certificate(at(cert.lines, line), at(cert.ids, k), at(cert.hints, hints))


class TestCheckerAgreesWithReference:
    """One way: every certificate that check_certificate accepts also passes
    the full-scan RUP reference, and every solver certificate passes both.
    The converse does not hold: a valid RUP list with wrong hints is
    rejected."""

    def _accepted(self, cnf, cert):
        accepted = check_certificate(cnf, cert)
        if accepted:
            assert _reference_check(cnf, cert)
        return accepted

    def test_valid_certificates(self):
        for cnf, cert in _unsat_family():
            assert check_certificate(cnf, cert)
            assert _reference_check(cnf, cert)

    def test_dropped_lines(self):
        # A learned clause is often implied again by the lines after it, so one
        # dropped line may still check; a dropped prefix usually does not.
        rejected = 0
        for cnf, cert in _unsat_family():
            for i in range(len(cert.lines) - 1):
                self._accepted(cnf, _without(cert, {i}))
                rejected += not self._accepted(cnf, _without(cert, set(range(i + 1))))
        assert rejected > 0

    def test_flipped_literal(self):
        rng = random.Random(3)
        rejected = 0
        for cnf, cert in _unsat_family():
            candidates = [i for i, c in enumerate(cert.lines) if c]
            for i in candidates[:5]:
                lit = rng.choice(sorted(cert.lines[i]))
                flipped = (cert.lines[i] - {lit}) | {-lit}
                rejected += not self._accepted(cnf, _replace(cert, i, line=flipped))
        assert rejected > 0

    def test_perturbed_hints(self):
        # a hint dropped, two swapped, or one renamed to another earlier
        # clause: the lines stay RUP, so the reference accepts every one
        rng = random.Random(4)
        rejected = perturbed = 0
        for cnf, cert in _unsat_family():
            for i, hints in enumerate(cert.hints):
                hints = list(hints)
                j, k = rng.randrange(len(hints)), rng.randrange(len(hints))
                kind = rng.choice(("drop", "swap", "rename"))
                if kind == "drop":
                    del hints[j]
                elif kind == "swap":
                    hints[j], hints[k] = hints[k], hints[j]
                else:
                    hints[j] = rng.randrange(1, cert.ids[i])
                rejected += not self._accepted(cnf, _replace(cert, i, hints=tuple(hints)))
                perturbed += 1
        assert rejected > perturbed / 2

    def test_missing_final_empty_clause(self):
        for cnf, cert in _unsat_family():
            assert not self._accepted(cnf, _without(cert, {len(cert.lines) - 1}))


# Every clause over x1, x2, with ids 1-4.  The solver derives -1 (id 5)
# from 3 and 4, then the empty clause (id 6) from 5, 1 and 2.
_SQUARE = Cnf.of([[1, 2], [1, -2], [-1, 2], [-1, -2]], 2)
_SQUARE_CERT = Certificate((frozenset({-1}), EMPTY), (5, 6), ((3, 4), (5, 1, 2)))


class TestHintRejections:
    def test_the_solver_certificate_checks(self):
        assert solve(_SQUARE).certificate == _SQUARE_CERT
        assert check_certificate(_SQUARE, _SQUARE_CERT)

    @pytest.mark.parametrize("i, hints", [
        (0, (0, 3, 4)),  # id 0 names no clause
        (0, (3, 6)),  # line 6 comes after line 5
        (0, (3, 5)),  # line 5 itself
        (0, (-3, 4)),
        (0, (3, 2, 4)),  # 3 makes 2 true; clause 2 = {1, -2} is true through 1
        (0, (3, 3, 4)),  # clause 3 again: its 2 is already true
        (0, (1, 3, 4)),  # clause 1 = {1, 2} is true and leaves 2 open
        (1, (1, 5, 2)),  # with nothing assigned, clause 1 leaves 1 and 2 open
        (0, (3,)),  # 3 makes 2 true, then the hints run out
        (1, (5, 1)),
        (0, ()),
    ], ids=["zero", "forward", "itself", "negative", "satisfied", "repeated",
            "satisfied-and-open", "two-open",
            "run-out", "run-out-empty-line", "none"])
    def test_bad_hint(self, i, hints):
        assert not check_certificate(_SQUARE, _replace(_SQUARE_CERT, i, hints=hints))

    def test_id_gap(self):
        assert not check_certificate(_SQUARE, _replace(_SQUARE_CERT, 1, k=7))

    @pytest.mark.parametrize("first", [1, 4, 6])
    def test_first_id_other_than_one_past_the_input(self, first):
        cert = Certificate(_SQUARE_CERT.lines, (first, first + 1), ((3, 4), (first, 1, 2)))
        assert not check_certificate(_SQUARE, cert)

    def test_lines_ids_and_hints_of_different_lengths(self):
        for cert in (Certificate(_SQUARE_CERT.lines, (5, 6), ((3, 4),)),
                     Certificate(_SQUARE_CERT.lines, (5,), _SQUARE_CERT.hints),
                     Certificate(_SQUARE_CERT.lines, (5, 6), _SQUARE_CERT.hints + ((1,),))):
            with pytest.raises(ValueError):
                check_certificate(_SQUARE, cert)


# --- literal range ----------------------------------------------------------


class TestLiteralRange:
    def test_certificate_literal_beyond_num_vars_does_not_alias(self):
        # With n=5, literal 6 would share -5's slot and make -6 look like 5.
        cnf = Cnf.of([[-5]], 5)
        for bad in (6, -6, 11):
            with pytest.raises(MalformedCertificateError):
                check_certificate(cnf, Certificate((frozenset({bad}), EMPTY),
                                                   (2, 3), ((1,), (1,))))

    def test_certificate_literal_zero(self):
        cnf = Cnf.of([[1]], 1)
        with pytest.raises(MalformedCertificateError):
            check_certificate(cnf, Certificate((frozenset({0}), EMPTY), (2, 3), ((1,), (1,))))

    def test_solve_rejects_literal_zero(self):
        with pytest.raises(ValueError):
            solve(Cnf.of([[0, 1]], 1))

    def test_solve_rejects_literal_beyond_num_vars(self):
        with pytest.raises(ValueError):
            solve(Cnf.of([[6]], 5))

    def test_assignment_beyond_num_vars_is_carried_not_aliased(self):
        cnf = Cnf.of([[5, 1]], 5)
        a, status = unit_propagate(cnf, Assignment({6: True}))
        assert status == STABLE
        assert a.values == {6: True}


# --- no recursion -----------------------------------------------------------


class TestNoRecursion:
    def test_deep_search_returns_total_model(self):
        v = solve(Cnf.of([], 20000))
        assert v.satisfiable
        assert v.model.is_total(20000)

    def test_solve_leaves_recursion_limit_unchanged(self):
        before = sys.getrecursionlimit()
        solve(_php(4, 3))
        assert sys.getrecursionlimit() == before
