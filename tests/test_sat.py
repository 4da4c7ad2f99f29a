import random

import pytest
from hypothesis import given, settings, strategies as st

from bruteforge import sat
from bruteforge.check import (
    Certificate,
    MalformedCertificateError,
    PartialAssignmentError,
    check_certificate,
    verify_model,
)
from bruteforge.logic import Assignment, Cnf
from bruteforge.sat import (
    BudgetExhausted,
    CONFLICT,
    PivotAbsentError,
    STABLE,
    resolve,
    solve,
    truth_table_satisfiable,
    unit_propagate,
)


def _random_cnf(rng, max_vars=8, max_clauses=25):
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, 3)
        lits = {rng.choice([1, -1]) * rng.randint(1, n) for _ in range(width)}
        clauses.append(lits)
    return Cnf.of(clauses, n)


class TestUnitPropagation:
    def test_propagation_chain(self):
        # (p|q) & (~p|r) & (~r|s) & p  with p=1, q=2, r=3, s=4
        cnf = Cnf.of([[1, 2], [-1, 3], [-3, 4], [1]], 4)
        a, status = unit_propagate(cnf, Assignment())
        assert status == STABLE
        assert a.values[1] is True
        assert a.values[3] is True
        assert a.values[4] is True
        assert 2 not in a.values  # q stays unconstrained

    def test_conflict_detected(self):
        cnf = Cnf.of([[1], [-1]], 1)
        _, status = unit_propagate(cnf, Assignment())
        assert status == CONFLICT

    def test_no_units_is_fixpoint(self):
        cnf = Cnf.of([[1, 2]], 2)
        a, status = unit_propagate(cnf, Assignment())
        assert status == STABLE
        assert a.values == {}

    def test_does_not_mutate_input(self):
        cnf = Cnf.of([[1]], 1)
        start = Assignment()
        unit_propagate(cnf, start)
        assert start.values == {}


class TestResolve:
    def test_textbook_resolution(self):
        c = resolve(frozenset({1, 2}), frozenset({-1, 3}), 1)
        assert c == frozenset({2, 3})

    def test_pivot_absent(self):
        with pytest.raises(PivotAbsentError):
            resolve(frozenset({2}), frozenset({-1}), 1)
        with pytest.raises(PivotAbsentError):
            resolve(frozenset({1}), frozenset({3}), 1)

    def test_empty_clause_from_units(self):
        assert resolve(frozenset({1}), frozenset({-1}), 1) == frozenset()


class TestVerifyModel:
    def test_accepts_model(self):
        cnf = Cnf.of([[1, -2]], 2)
        assert verify_model(cnf, Assignment({1: True, 2: True}))

    def test_rejects_non_model(self):
        cnf = Cnf.of([[1]], 1)
        assert not verify_model(cnf, Assignment({1: False}))

    def test_partial_assignment_rejected(self):
        cnf = Cnf.of([[1, 2]], 2)
        with pytest.raises(PartialAssignmentError):
            verify_model(cnf, Assignment({1: True}))


class TestSolve:
    def test_sat_with_model(self):
        cnf = Cnf.of([[1, 2], [-1, 2]], 2)
        v = solve(cnf)
        assert v.satisfiable
        assert verify_model(cnf, v.model)

    def test_unsat_with_certificate(self):
        cnf = Cnf.of([[1, 2], [1, -2], [-1, 2], [-1, -2]], 2)
        v = solve(cnf)
        assert not v.satisfiable
        assert v.certificate.lines[-1] == frozenset()
        assert check_certificate(cnf, v.certificate)

    def test_empty_formula_is_satisfiable(self):
        assert solve(Cnf.of([], 0)).satisfiable

    def test_empty_clause_is_unsatisfiable(self):
        cnf = Cnf.of([[]], 0)
        v = solve(cnf)
        assert not v.satisfiable
        assert check_certificate(cnf, v.certificate)

    def test_deterministic(self):
        rng = random.Random(5)
        cnf = _random_cnf(rng)
        assert solve(cnf) == solve(cnf)

    def test_step_limit_raises(self):
        rng = random.Random(6)
        cnf = _random_cnf(rng, max_vars=8, max_clauses=4)
        with pytest.raises(BudgetExhausted):
            solve(cnf, step_limit=1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_agrees_with_truth_table(self, seed):
        rng = random.Random(seed)
        cnf = _random_cnf(rng)
        v = solve(cnf)
        assert v.satisfiable == truth_table_satisfiable(cnf)
        if v.satisfiable:
            assert verify_model(cnf, v.model)
        else:
            assert check_certificate(cnf, v.certificate)


class TestCertificates:
    def test_text_roundtrip(self):
        cert = Certificate((frozenset({1, -2}), frozenset({-1}), frozenset()),
                           (4, 5, 6), ((1, 2), (3, 4), (5, 1, 2)))
        text = cert.to_text()
        assert text == "4 1 -2 0 1 2 0\n5 -1 0 3 4 0\n6 0 5 1 2 0\n"
        assert Certificate.from_text(text) == cert

    def test_malformed_line_rejected(self):
        with pytest.raises(MalformedCertificateError):
            Certificate.from_text("5 1 2 0 1 2\n")

    def test_non_integer_token_names_its_line(self):
        with pytest.raises(MalformedCertificateError, match="^line 3: non-integer"):
            Certificate.from_text("2 -1 2 0 1 0\n\n3 1 x 0 2 0\n4 0 3 0\n")

    def test_inner_zero_names_its_line(self):
        # a third 0 leaves the line without one reading as id, clause, hints
        with pytest.raises(MalformedCertificateError, match="^line 2: not 'id lits 0 hints 0'"):
            Certificate.from_text("2 2 0 1 0\n3 1 0 2 0 1 0\n4 0 3 0\n")

    def test_missing_terminator_names_its_line(self):
        for text in ("2 2 0 1 0\n3 1 0 2\n", "2 2 0 1 0\n3 1 0\n", "2 2 0 1 0\n3\n"):
            with pytest.raises(MalformedCertificateError, match="^line 2: not 'id lits 0 hints 0'"):
                Certificate.from_text(text)

    def test_rejects_non_rup_line(self):
        # under -1, clause 1 leaves 2 open: no conflict
        cnf = Cnf.of([[1, 2]], 2)
        bogus = Certificate((frozenset({1}), frozenset()), (2, 3), ((1,), (2, 1)))
        assert not check_certificate(cnf, bogus)

    def test_rejects_missing_empty_clause(self):
        cnf = Cnf.of([[1], [-1]], 1)
        assert not check_certificate(cnf, Certificate((frozenset({1}),), (3,), ((2,),)))
        assert check_certificate(cnf, Certificate((frozenset(),), (3,), ((1, 2),)))

    def test_literal_out_of_range(self):
        cnf = Cnf.of([[1]], 1)
        with pytest.raises(MalformedCertificateError):
            check_certificate(cnf, Certificate((frozenset({5}), frozenset()), (2, 3),
                                               ((1,), (1,))))

    def test_bad_literal_names_its_clause_counting_from_one(self):
        # the blank file line is no clause: literal 5 is in the second clause
        cert = Certificate.from_text("2 1 0 1 0\n\n3 5 0 1 0\n4 0 1 0\n")
        with pytest.raises(MalformedCertificateError,
                           match="^bad literal 5 in certificate clause 2$"):
            check_certificate(Cnf.of([[1]], 1), cert)


class TestTruthTableOracle:
    def test_known_small_cases(self):
        assert truth_table_satisfiable(Cnf.of([[1]], 1))
        assert not truth_table_satisfiable(Cnf.of([[1], [-1]], 1))

    def test_chunked_region_agrees_with_solver(self):
        # more variables than the bitmask chunk width exercises the
        # explicit-enumeration path
        rng = random.Random(11)
        for _ in range(5):
            cnf = _random_cnf(rng, max_vars=22, max_clauses=40)
            assert truth_table_satisfiable(cnf) == solve(cnf).satisfiable
