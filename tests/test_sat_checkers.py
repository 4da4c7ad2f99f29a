"""Differential tests: the set-based sat checkers against the per-literal
loops they replaced.

`_loop_verify_model` and `_loop_check_certificate` are the earlier versions
of `check.verify_model` and `check.check_certificate`, kept here as oracles.
The checkers must return the same bool as their oracle, or raise an
exception of the same type with the same message, on Hypothesis CNFs and
assignments, on solver certificates of random 3-CNFs, pigeonhole formulas
and CNFs with tautologies, and on those certificates after one edit.
"""

import ast
import builtins
import dis
import inspect
import random
import types
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from bruteforge import check, logic
from bruteforge.check import (
    Certificate,
    MalformedCertificateError,
    PartialAssignmentError,
    check_certificate,
    verify_model,
)
from bruteforge.logic import Assignment, Cnf
from bruteforge.sat import solve


def _loop_verify_model(cnf, assignment):
    """Independent model check: every clause has a true literal."""
    if not assignment.is_total(cnf.num_vars):
        raise PartialAssignmentError("model must assign every variable")
    return all(any(assignment.value(l) for l in c) for c in cnf.clauses)


def _loop_check_certificate(cnf, cert):
    n = cnf.num_vars
    for i, line in enumerate(cert.lines, 1):
        for lit in line:
            if lit == 0 or abs(lit) > n:
                raise MalformedCertificateError(f"bad literal {lit} in certificate clause {i}")
    if not cert.lines or cert.lines[-1]:
        return False
    db = list(cnf.clauses)  # clause id k is db[k - 1]
    for k, line, hints in zip(cert.ids, cert.lines, cert.hints, strict=True):
        if k != len(db) + 1:
            return False
        true = {-lit for lit in line}
        for h in hints:
            if not 0 < h < k:
                return False
            unfalsified = [lit for lit in db[h - 1] if -lit not in true]
            if not unfalsified:
                break
            if len(unfalsified) > 1 or unfalsified[0] in true:
                return False
            true.add(unfalsified[0])
        else:
            return False
        db.append(line)
    return True


def _outcome(check, *args):
    """The checker's bool, or the type and message of what it raised."""
    try:
        return check(*args)
    except Exception as e:
        return type(e), str(e)


def _agree_on_model(cnf, assignment):
    want = _outcome(_loop_verify_model, cnf, assignment)
    assert _outcome(verify_model, cnf, assignment) == want
    return want


def _agree_on_certificate(cnf, cert):
    want = _outcome(_loop_check_certificate, cnf, cert)
    assert _outcome(check_certificate, cnf, cert) == want
    return want


# --- formulas ---------------------------------------------------------------


@st.composite
def _cnfs(draw, max_vars=6):
    """Up to max_vars variables; empty clauses, tautologies and duplicate
    clauses each turn up in a fair share of examples."""
    n = draw(st.integers(0, max_vars))
    lit = st.builds(lambda v, sign: sign * v, st.integers(1, max(n, 1)), st.sampled_from((1, -1)))
    clause = st.frozensets(lit, max_size=4) if n else st.just(frozenset())
    clauses = draw(st.lists(clause, max_size=12))
    if n and draw(st.booleans()):
        v = draw(st.integers(1, n))
        clauses.append(draw(clause) | {v, -v})
    if clauses and draw(st.booleans()):
        clauses.append(draw(st.sampled_from(clauses)))
    if draw(st.integers(0, 4)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), frozenset())
    return Cnf.of(clauses, n)


_VALUES = (True, False, None, 1, 0)


@st.composite
def _assignments(draw, n):
    """Values for 1..n from _VALUES, sometimes one variable left out, and
    sometimes keys no clause can name (0, negative, above n)."""
    values = {v: draw(st.sampled_from(_VALUES)) for v in range(1, n + 1)}
    if n and draw(st.integers(0, 5)) == 0:
        del values[draw(st.integers(1, n))]
    stray = st.integers(-n - 2, 0) | st.integers(n + 1, n + 3)
    values.update(draw(st.dictionaries(stray, st.sampled_from(_VALUES), max_size=2)))
    return Assignment(values)


def _random_3cnf(rng, n):
    clauses = [frozenset(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
               for _ in range(round(4.26 * n))]
    return Cnf.of(clauses, n)


def _php(pigeons, holes):
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    clauses += [[-var(p, h), -var(q, h)]
                for h in range(holes) for p in range(pigeons) for q in range(p + 1, pigeons)]
    return Cnf.of(clauses, pigeons * holes)


def _with_tautologies(rng, cnf):
    """cnf with a tautology inserted before a few of its clauses."""
    clauses = list(cnf.clauses)
    for _ in range(3):
        v = rng.randint(1, cnf.num_vars)
        clauses.insert(rng.randrange(len(clauses) + 1), frozenset({v, -v, rng.randint(1, v)}))
    return Cnf.of(clauses, cnf.num_vars)


@lru_cache(maxsize=None)
def _solved():
    """(cnf, verdict) for random 3-CNFs until 40 are refuted, PHP(p, p - 1)
    for p = 2..5, and the 40 refuted and 20 more random ones with
    tautologies inserted."""
    rng = random.Random(2025)
    cnfs, refuted = [], []
    while len(refuted) < 40:
        cnfs.append(_random_3cnf(rng, rng.randint(8, 16)))
        if not solve(cnfs[-1]).satisfiable:
            refuted.append(cnfs[-1])
    cnfs += [_php(p, p - 1) for p in range(2, 6)]
    cnfs += [_with_tautologies(rng, cnf) for cnf in refuted + cnfs[:20]]
    return tuple((cnf, solve(cnf)) for cnf in cnfs)


def _refutations():
    return [(cnf, v.certificate) for cnf, v in _solved() if not v.satisfiable]


# --- verify_model -----------------------------------------------------------


class TestVerifyModelAgrees:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_hypothesis_cnfs_and_assignments(self, data):
        cnf = data.draw(_cnfs())
        _agree_on_model(cnf, data.draw(_assignments(cnf.num_vars)))

    def test_solver_models_and_every_one_flip(self):
        outcomes = []
        for cnf, verdict in _solved():
            if not verdict.satisfiable:
                continue
            model = verdict.model.values
            outcomes.append(_agree_on_model(cnf, Assignment(dict(model))))
            for v in range(1, cnf.num_vars + 1):
                for value in (not model[v], None):
                    outcomes.append(_agree_on_model(cnf, Assignment({**model, v: value})))
        assert True in outcomes and False in outcomes

    def test_partial_assignment_raises_the_same_error(self):
        cnf = Cnf.of([[1, 2], [-2]], 2)
        assert _agree_on_model(cnf, Assignment({1: True})) == (
            PartialAssignmentError, "model must assign every variable")

    def test_empty_clause_and_empty_formula(self):
        assert _agree_on_model(Cnf.of([[]], 0), Assignment({})) is False
        assert _agree_on_model(Cnf.of([], 0), Assignment({})) is True
        assert _agree_on_model(Cnf.of([[1], []], 1), Assignment({1: True})) is False

    def test_none_makes_neither_literal_true(self):
        for clause in ([1], [-1], [1, -1]):
            assert _agree_on_model(Cnf.of([clause], 1), Assignment({1: None})) is False

    def test_stray_keys_are_ignored(self):
        # a negative key must not make its literal true, nor a key above n
        cnf = Cnf.of([[-1, 2]], 2)
        assert _agree_on_model(cnf, Assignment({1: True, 2: False, -1: True, 3: True})) is False


# --- check_certificate ------------------------------------------------------


def _at(values, i, new):
    return values[:i] + (new,) + values[i + 1:]


def _mutations(cnf, cert, rng):
    """One-edit variants of cert: a hint dropped, reordered or replaced;
    a literal added, dropped or flipped; a wrong id; a hint that is 0,
    negative or forward; a bad literal; a line missing."""
    n = cnf.num_vars
    lines, ids, hints = cert.lines, cert.ids, cert.hints
    for i, (line, k, hs) in enumerate(zip(lines, ids, hints)):
        hs = list(hs)
        for j in range(len(hs)):
            yield Certificate(lines, ids, _at(hints, i, tuple(hs[:j] + hs[j + 1:])))
            yield Certificate(lines, ids, _at(hints, i, _at(tuple(hs), j, rng.randrange(1, k))))
            for bad in (0, -hs[j], k, k + 1, k + rng.randint(2, 5)):
                yield Certificate(lines, ids, _at(hints, i, _at(tuple(hs), j, bad)))
        if len(hs) > 1:
            yield Certificate(lines, ids, _at(hints, i, tuple(reversed(hs))))
            shuffled = hs[:]
            rng.shuffle(shuffled)
            yield Certificate(lines, ids, _at(hints, i, tuple(shuffled)))
        for lit in line:
            yield Certificate(_at(lines, i, line - {lit}), ids, hints)
            yield Certificate(_at(lines, i, (line - {lit}) | {-lit}), ids, hints)
        if n:
            v = rng.randint(1, n)
            for lit in (v, -v):
                yield Certificate(_at(lines, i, line | {lit}), ids, hints)
        for bad in (0, n + 1, -n - 1):
            yield Certificate(_at(lines, i, line | {bad}), ids, hints)
        for wrong in (k - 1, k + 1):
            yield Certificate(lines, _at(ids, i, wrong), hints)
        yield Certificate(lines[:i] + lines[i + 1:], ids[:-1], hints[:i] + hints[i + 1:])
    yield Certificate(lines[:-1], ids[:-1], hints[:-1])
    yield Certificate(lines, ids[:-1], hints)
    yield Certificate(lines, ids, hints[:-1])


class TestCheckCertificateAgrees:
    def test_solver_certificates(self):
        refutations = _refutations()
        assert len(refutations) >= 84
        assert {_php(p, p - 1) for p in range(2, 6)} <= {cnf for cnf, _ in refutations}
        for cnf, cert in refutations:
            assert _agree_on_certificate(cnf, cert) is True
            assert _agree_on_certificate(cnf, Certificate.from_text(cert.to_text())) is True

    def test_every_single_edit(self):
        rng = random.Random(7)
        outcomes = {}
        for cnf, cert in _refutations():
            for mutated in _mutations(cnf, cert, rng):
                outcome = _agree_on_certificate(cnf, mutated)
                key = outcome if isinstance(outcome, bool) else outcome[0]
                outcomes[key] = outcomes.get(key, 0) + 1
        assert set(outcomes) == {True, False, MalformedCertificateError, ValueError}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_hypothesis_cnfs_and_edits(self, data):
        cnf = data.draw(_cnfs(max_vars=5))
        verdict = solve(cnf)
        if verdict.satisfiable:
            # a refutation of a satisfiable formula must never check
            lines = tuple(data.draw(st.lists(st.frozensets(
                st.integers(-cnf.num_vars - 1, cnf.num_vars + 1), max_size=3), max_size=3)))
            lines += (frozenset(),)
            first = len(cnf.clauses) + 1
            ids = tuple(range(first, first + len(lines)))
            hints = tuple(tuple(data.draw(st.lists(st.integers(-1, k), max_size=4))) for k in ids)
            assert _agree_on_certificate(cnf, Certificate(lines, ids, hints)) is not True
            return
        cert = verdict.certificate
        assert _agree_on_certificate(cnf, cert) is True
        edits = list(_mutations(cnf, cert, random.Random(data.draw(st.integers(0, 2**32)))))
        _agree_on_certificate(cnf, data.draw(st.sampled_from(edits)))

    def test_clauses_given_as_other_iterables(self):
        # Cnf accepts any iterable clause; the checker freezes each one
        cnf = Cnf(({1, 2}, (1, -2), [-1, 2], frozenset({-1, -2})), 2)
        cert = Certificate((frozenset({-1}), frozenset()), (5, 6), ((3, 4), (5, 1, 2)))
        assert _agree_on_certificate(cnf, cert) is True


def _global_names(code):
    """Global names a code object and the code nested in it (comprehensions,
    generator expressions) look up."""
    names = {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def _check_functions():
    """(name, function) for every function and method defined in check.py,
    found from its def in the source and unwrapped from its decorators."""
    for node in ast.parse(inspect.getsource(check)).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, inspect.unwrap(getattr(check, node.name))
        elif isinstance(node, ast.ClassDef):
            cls = getattr(check, node.name)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    method = inspect.getattr_static(cls, item.name)
                    yield f"{node.name}.{item.name}", getattr(method, "__func__", method)


def test_checkers_reach_no_solver_code():
    # every global that a function or method of check looks up is a builtin,
    # or comes from check, logic or outside the package
    functions = dict(_check_functions())
    assert {"Certificate.from_text", "check_certificate", "verify_model", "triples",
            "verify_coloring", "is_cap", "parse_capset_file", "apply_step",
            "check_proof", "parse_proof", "format_model", "parse_model", "format_coloring",
            "parse_equation", "parse_axioms"} <= set(functions)
    trusted = {check.__name__, logic.__name__}
    for name, function in functions.items():
        for g in _global_names(function.__code__):
            if g not in vars(check):
                assert hasattr(builtins, g), (name, g)
                continue
            obj = vars(check)[g]
            origin = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", None)
            assert origin in trusted or not (origin or "").startswith("bruteforge"), (name, g, origin)
