import dataclasses
import functools
import hashlib
import itertools
import random
import time
from collections import deque

import pytest

from bruteforge.logic import (
    App,
    BOOLEAN_SIG,
    GROUP_SIG,
    ROBBINS_SIG,
    Var,
    apply_subst,
    format_term,
    parse_term,
    replace_at,
    subterm_at,
    term_size,
    term_vars,
)
from bruteforge import equational
from bruteforge.check import (
    EqProof,
    ProofStep,
    ProofStepError,
    apply_step,
    check_proof,
    format_proof,
    parse_proof,
)
from bruteforge.equational import (
    AXIOM_SETS,
    AXIOM_SIGNATURES,
    BOOLEAN_AXIOMS,
    CompletionBudgetExhausted,
    CompletionTimeout,
    Equation,
    FAIL,
    GROUP_AXIOMS,
    GROUP_PRECEDENCE,
    OrientationError,
    ROBBINS_AXIOMS,
    ROBBINS_DEFS,
    RewriteRule,
    T1,
    T2,
    Timeout,
    WitnessResult,
    compose,
    critical_pairs_join,
    kb_complete,
    lpo_gt,
    match,
    mgu,
    positions,
    prove,
    prove_exists,
    rewrite,
    superpose,
)


def with_constants(signature, *names):
    """Extend a signature with fresh nullary symbols (e.g. ground witnesses)."""
    return {**signature, **dict.fromkeys(names, 0)}


def enumerate_ground_terms(signature, max_size, variables=()):
    """All terms over the signature (plus the given Vars), size-lex order."""
    return [t for terms in equational._size_classes(signature, max_size, variables)
            for t in terms]


BOOL_A = with_constants(BOOLEAN_SIG, "a", "b")
GROUP_A = with_constants(GROUP_SIG, "a")


def _bt(text, sig=BOOL_A):
    return parse_term(text, sig)


# the two-element model, written apart from equational._TWO: the Boolean
# algebra on {0, 1} and Z/2 for the group symbols
_TWO_OPS = {
    "0": lambda: 0, "1": lambda: 1, "-": lambda a: 1 - a, "v": max, "^": min,
    "e": lambda: 0, "i": lambda a: a, "*": lambda a, b: (a + b) % 2,
}


def _true_in_two(eq):
    """Whether eq holds in the two-element model for every value of its
    variables."""
    def value(t, env):
        if isinstance(t, Var):
            return env[t.id]
        return _TWO_OPS[t.symbol](*(value(a, env) for a in t.args))

    vs = sorted(term_vars(eq.lhs) | term_vars(eq.rhs))
    return all(value(eq.lhs, dict(zip(vs, bits))) == value(eq.rhs, dict(zip(vs, bits)))
               for bits in itertools.product((0, 1), repeat=len(vs)))


def _model_off(monkeypatch):
    """Make prove_exists treat the two-element model as unusable, so that
    every candidate reaches prove."""
    monkeypatch.setattr(equational, "_two_is_a_model", lambda *args: False)


class TestUnification:
    def test_renaming_unifier(self):
        sig = {"eq": 2, "a": 0}
        sigma = mgu(parse_term("eq(x, a)", sig), parse_term("eq(y, a)", sig))
        assert sigma is not FAIL
        assert len(sigma) == 1
        # x and y unify by a pure variable renaming, either direction
        ((vid, image),) = sigma.items()
        assert {vid, image.id} == {0, 1}

    def test_symbol_clash(self):
        assert mgu(_bt("-x"), _bt("x v y")) is FAIL

    def test_occurs_check(self):
        assert mgu(Var(0), _bt("-x")) is FAIL

    def test_unifier_actually_unifies(self):
        rng = random.Random(4)
        terms = enumerate_ground_terms(ROBBINS_SIG, 5, variables=(Var(0), Var(1)))
        for _ in range(300):
            t1, t2 = rng.choice(terms), rng.choice(terms)
            sigma = mgu(t1, t2)
            if sigma is not FAIL:
                assert apply_subst(t1, sigma) == apply_subst(t2, sigma)

    def test_most_general(self):
        # any other unifier factors through the mgu
        t1 = _bt("x v a")
        t2 = _bt("y v a")
        sigma = mgu(t1, t2)
        other = {0: _bt("b"), 1: _bt("b")}  # also a unifier
        factored = compose(sigma, other)
        assert apply_subst(t1, factored) == apply_subst(t1, other)

    def test_match_is_one_way(self):
        assert match(_bt("x v y"), _bt("a v b")) == {0: _bt("a"), 1: _bt("b")}
        assert match(_bt("a"), Var(0)) is None
        assert match(_bt("x v x"), _bt("a v b")) is None


class TestLpo:
    PREC = {"-": 3, "v": 2, "0": 1, "1": 0}

    def test_subterm_property(self):
        assert lpo_gt(_bt("-(x v x)"), _bt("x v x"), self.PREC)

    def test_distinct_variables_incomparable(self):
        assert not lpo_gt(Var(0), Var(1), self.PREC)
        assert not lpo_gt(Var(1), Var(0), self.PREC)

    def test_precedence_does_not_beat_subterm(self):
        prec = {"f": 2, "g": 1}
        fx = App("f", (Var(0),))
        assert not lpo_gt(fx, App("g", (fx,)), prec)
        assert lpo_gt(App("g", (fx,)), fx, prec)

    def test_strict(self):
        t = _bt("x v y")
        assert not lpo_gt(t, t, self.PREC)

    def test_transitive_spot_check(self):
        rng = random.Random(1)
        terms = enumerate_ground_terms(ROBBINS_SIG, 4, variables=(Var(0),))
        for _ in range(500):
            a, b, c = (rng.choice(terms) for _ in range(3))
            if lpo_gt(a, b, self.PREC) and lpo_gt(b, c, self.PREC):
                assert lpo_gt(a, c, self.PREC)

    def test_closed_under_substitution_spot_check(self):
        rng = random.Random(2)
        prec = dict(self.PREC, a=0)  # precedence must cover the constant
        terms = enumerate_ground_terms(ROBBINS_SIG, 4, variables=(Var(0),))
        ground = enumerate_ground_terms(with_constants(ROBBINS_SIG, "a"), 3)
        for _ in range(300):
            s, t = rng.choice(terms), rng.choice(terms)
            if lpo_gt(s, t, prec):
                sigma = {0: rng.choice(ground)}
                assert lpo_gt(apply_subst(s, sigma), apply_subst(t, sigma), prec)


class TestRewrite:
    IDEM = RewriteRule(_bt("x v x"), Var(0))

    def test_nested_contraction(self):
        t = _bt("(a v a) v (a v a)")
        assert rewrite(t, [self.IDEM]) == _bt("a")

    def test_no_rule_applies(self):
        t = _bt("a v b")
        assert rewrite(t, [self.IDEM]) == t

    def test_normal_forms_are_irreducible(self):
        rules = [self.IDEM]
        nf = rewrite(_bt("(a v a) v b"), rules)
        assert rewrite(nf, rules) == nf
        for _, sub in positions(nf):
            if not isinstance(sub, Var):
                assert all(match(r.lhs, sub) is None for r in rules)

    def test_rule_rhs_variables_validated(self):
        with pytest.raises(ValueError):
            RewriteRule(Var(0), _bt("x v y"))


class TestSuperpose:
    def test_textbook_group_overlap(self):
        assoc = RewriteRule(_bt("(x * y) * z", GROUP_SIG), _bt("x * (y * z)", GROUP_SIG))
        leftid = RewriteRule(_bt("e * x", GROUP_SIG), Var(0))
        pairs = superpose(leftid, assoc)
        found = False
        for eq in pairs:
            for lhs, rhs in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                if lhs == App("*", (App("e"), rhs)):
                    found = True
        assert found

    def test_disjoint_rules_have_no_overlap(self):
        r1 = RewriteRule(App("i", (App("e"),)), App("e"))
        r2 = RewriteRule(_bt("x v x"), Var(0))
        assert superpose(r1, r2) == []

    def test_self_overlap_at_root_is_filtered(self):
        r = RewriteRule(_bt("x v x"), Var(0))
        for eq in superpose(r, r):
            assert eq.lhs != eq.rhs


class TestCompletion:
    def test_group_axioms_complete(self):
        rules = kb_complete(list(GROUP_AXIOMS.values()), GROUP_PRECEDENCE)
        assert rewrite(parse_term("i(i(a))", GROUP_A), rules) == App("a")
        assert rewrite(parse_term("a * i(a)", GROUP_A), rules) == App("e")
        assert critical_pairs_join(rules)
        for r in rules:
            assert lpo_gt(r.lhs, r.rhs, GROUP_PRECEDENCE)

    def test_group_rules_hold_in_s3(self):
        # independent semantic soundness check: every completed rule is an
        # identity of the symmetric group S3
        elements = list(itertools.permutations(range(3)))

        def mul(p, q):
            return tuple(p[q[i]] for i in range(3))

        def inv(p):
            q = [0] * 3
            for i, v in enumerate(p):
                q[v] = i
            return tuple(q)

        identity = (0, 1, 2)

        def ev(t, env):
            if isinstance(t, Var):
                return env[t.id]
            if t.symbol == "*":
                return mul(ev(t.args[0], env), ev(t.args[1], env))
            if t.symbol == "i":
                return inv(ev(t.args[0], env))
            if t.symbol == "e":
                return identity
            raise AssertionError(t)

        rules = kb_complete(list(GROUP_AXIOMS.values()), GROUP_PRECEDENCE)
        for r in rules:
            vs = sorted({v for _, sub in positions(r.lhs) if isinstance(sub, Var) for v in [sub.id]})
            for combo in itertools.product(elements, repeat=len(vs)):
                env = dict(zip(vs, combo))
                assert ev(r.lhs, env) == ev(r.rhs, env), str(r)

    def test_already_convergent_input(self):
        axiom = Equation(_bt("e * x", GROUP_SIG), Var(0))
        rules = kb_complete([axiom], GROUP_PRECEDENCE)
        assert rules == [RewriteRule(axiom.lhs, axiom.rhs)]

    def test_commutativity_unorientable(self):
        comm = Equation(_bt("x v y"), _bt("y v x"))
        with pytest.raises(OrientationError) as err:
            kb_complete([comm], {"v": 2, "-": 1, "0": 0, "1": 1})
        assert err.value.equation is not None

    def test_budget_exhaustion_returns_partial_state(self):
        with pytest.raises(CompletionBudgetExhausted) as err:
            kb_complete(list(GROUP_AXIOMS.values()), GROUP_PRECEDENCE, budget=2)
        assert isinstance(err.value.partial_rules, list)

    def test_time_limit_stops_a_diverging_completion(self):
        # associativity plus left inverse alone spends about a minute before
        # the default budget of 2000 picks runs out
        start = time.monotonic()
        with pytest.raises(CompletionTimeout) as err:
            kb_complete([GROUP_AXIOMS["G1"], GROUP_AXIOMS["G3"]], GROUP_PRECEDENCE,
                        max_seconds=0.5)
        assert time.monotonic() - start < 2
        assert isinstance(err.value, CompletionBudgetExhausted)
        assert err.value.partial_rules
        assert str(err.value) == "completion time limit reached"

    def test_zero_time_limit_makes_no_pick(self, monkeypatch):
        normalised = []
        monkeypatch.setattr(equational, "rewrite", lambda t, rules: normalised.append(t) or t)
        with pytest.raises(CompletionTimeout) as err:
            kb_complete(list(GROUP_AXIOMS.values()), GROUP_PRECEDENCE, max_seconds=0)
        assert err.value.partial_rules == []
        assert normalised == []

    def test_time_limit_changes_no_completed_system(self):
        axioms = list(GROUP_AXIOMS.values())
        assert (kb_complete(axioms, GROUP_PRECEDENCE, max_seconds=60)
                == kb_complete(axioms, GROUP_PRECEDENCE))

    def test_group_completion_is_pinned(self):
        # SHA-256 of the rule text `eq complete --axioms group` prints, less
        # its final newline, computed before the pending queue became a heap
        rules = kb_complete(list(GROUP_AXIOMS.values()), GROUP_PRECEDENCE)
        text = "\n".join(map(str, rules))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "339a49ee01b0b56a0dcd705a1bffff1807615d58e0f144293e55840dd4a1a84e")


class TestAxiomSets:
    def test_boolean_has_ten(self):
        assert set(BOOLEAN_AXIOMS) == {f"B{i}" for i in range(1, 11)}

    def test_robbins_core_and_defs(self):
        assert set(ROBBINS_AXIOMS) == {"R1", "R2", "R3"}
        assert set(ROBBINS_DEFS) == {"Def1", "Def2", "Def3"}

    def test_robbins_equation_shape(self):
        r3 = ROBBINS_AXIOMS["R3"]
        assert r3.lhs == _bt("-(-(x v y) v -(x v -y))", ROBBINS_SIG)
        assert r3.rhs == Var(0)

    def test_witness_terms(self):
        assert T1 == _bt("x v x", ROBBINS_SIG)
        assert T2 == _bt("-(-(x v x v x) v x)", ROBBINS_SIG)

    # each shipped set in order, every equation as format_term writes it
    SHIPPED = {
        "boolean": [
            "B1: x v (y v z) = (x v y) v z", "B2: x v y = y v x", "B3: x v (x ^ y) = x",
            "B4: x ^ (y v z) = (x ^ y) v (x ^ z)", "B5: x v -x = 1",
            "B6: x ^ (y ^ z) = (x ^ y) ^ z", "B7: x ^ y = y ^ x", "B8: x ^ (x v z) = x",
            "B9: x v (y ^ z) = (x v y) ^ (x v z)", "B10: x ^ -x = 0",
        ],
        "robbins": [
            "R1: x v (y v z) = (x v y) v z", "R2: x v y = y v x",
            "R3: -(-(x v y) v -(x v -y)) = x",
            "Def1: 0 = -(x v -x)", "Def2: 1 = x v -x", "Def3: x ^ y = -(-x v -y)",
        ],
        "group": ["G1: (x * y) * z = x * (y * z)", "G2: e * x = x", "G3: i(x) * x = e"],
    }

    def test_shipped_sets_are_pinned(self):
        assert list(AXIOM_SETS) == list(self.SHIPPED)
        for name, lines in self.SHIPPED.items():
            assert [f"{k}: {format_term(eq.lhs)} = {format_term(eq.rhs)}"
                    for k, eq in AXIOM_SETS[name].items()] == lines, name

    def test_shipped_equations_parse_side_by_side(self):
        # what each side parses to on its own; R1-R3 under the Robbins signature
        for name, lines in self.SHIPPED.items():
            for line in lines:
                eq_id, _, text = line.partition(": ")
                lhs, _, rhs = text.partition(" = ")
                sig = ROBBINS_SIG if eq_id[0] == "R" else AXIOM_SIGNATURES[name]
                expected = Equation(parse_term(lhs, sig), parse_term(rhs, sig))
                assert AXIOM_SETS[name][eq_id] == expected, line

    def test_shipped_signatures_and_slices(self):
        assert AXIOM_SIGNATURES["boolean"] is BOOLEAN_SIG
        assert AXIOM_SIGNATURES["robbins"] is BOOLEAN_SIG  # Def1-Def3 use 0, 1 and ^
        assert AXIOM_SIGNATURES["group"] is GROUP_SIG
        assert BOOLEAN_AXIOMS is AXIOM_SETS["boolean"]
        assert GROUP_AXIOMS is AXIOM_SETS["group"]
        assert list({**ROBBINS_AXIOMS, **ROBBINS_DEFS}.items()) == list(
            AXIOM_SETS["robbins"].items())


class TestProofChecking:
    GOAL = Equation(_bt("a v a"), _bt("a"))

    def _two_step_proof(self):
        return EqProof(
            (
                ProofStep("B8", (1,), {0: _bt("a"), 2: _bt("a")}, "rl"),
                ProofStep("B3", (), {0: _bt("a"), 1: _bt("a v a")}, "lr"),
            )
        )

    def test_hand_built_absorption_proof(self):
        assert check_proof(self._two_step_proof(), BOOLEAN_AXIOMS, self.GOAL)

    def test_single_axiom_instance(self):
        goal = Equation(_bt("a v b"), _bt("b v a"))
        proof = EqProof((ProofStep("B2", (), {0: _bt("a"), 1: _bt("b")}, "lr"),))
        assert check_proof(proof, BOOLEAN_AXIOMS, goal)

    def test_wrong_position_diagnosed(self):
        bad = EqProof(
            (
                ProofStep("B8", (0, 0), {0: _bt("a"), 2: _bt("a")}, "rl"),
                ProofStep("B3", (), {0: _bt("a"), 1: _bt("a v a")}, "lr"),
            )
        )
        diagnostics = []
        assert not check_proof(bad, BOOLEAN_AXIOMS, self.GOAL, diagnostics)
        assert diagnostics and "step 0" in diagnostics[0]

    def test_unknown_equation_id(self):
        with pytest.raises(ProofStepError):
            apply_step(_bt("a"), ProofStep("Z9", (), {}, "lr"), BOOLEAN_AXIOMS)

    @pytest.mark.parametrize("pos", [(-1,), (1, -2)])
    def test_negative_positions_do_not_exist(self, pos):
        t = _bt("a v (a v b)")
        with pytest.raises(IndexError):
            subterm_at(t, pos)
        with pytest.raises(IndexError):
            replace_at(t, pos, _bt("b"))

    def test_negative_position_step_rejected(self):
        # with Python indexing, -1 would name the last argument, (x v y)
        goal = Equation(_bt("z v (x v y)", BOOLEAN_SIG), _bt("z v (y v x)", BOOLEAN_SIG))
        proof = parse_proof("B2 -1 - lr\n", BOOLEAN_SIG)
        diagnostics = []
        assert not check_proof(proof, BOOLEAN_AXIOMS, goal, diagnostics)
        assert diagnostics and "bad position" in diagnostics[0]
        fixed = parse_proof("B2 1 - lr\n", BOOLEAN_SIG)
        assert check_proof(fixed, BOOLEAN_AXIOMS, goal)

    def test_wrong_final_term_diagnosed(self):
        goal = Equation(_bt("a v a"), _bt("b"))
        diagnostics = []
        assert not check_proof(self._two_step_proof(), BOOLEAN_AXIOMS, goal, diagnostics)
        assert any("final term" in d for d in diagnostics)


class TestProofFiles:
    def test_roundtrip(self):
        proof = EqProof(
            (
                ProofStep("B8", (1,), {0: _bt("a"), 2: _bt("a v b")}, "rl"),
                ProofStep("B3", (), {}, "lr"),
            )
        )
        assert parse_proof(format_proof(proof), BOOL_A) == proof

    def test_comments_and_blanks_skipped(self):
        text = "# proof\n\nB2 - x=a; y=b lr\n"
        proof = parse_proof(text, BOOL_A)
        assert proof.steps[0].eq_id == "B2"
        assert proof.steps[0].subst == {0: _bt("a"), 1: _bt("b")}

    def test_bad_direction(self):
        with pytest.raises(ProofStepError):
            parse_proof("B2 - - sideways\n", BOOL_A)

    @pytest.mark.parametrize("binding", ["y5=a", "q7=a", "q=1", "X=a", "x-1=a", "=a", "x01=a", "x00=a"])
    def test_binding_names_follow_the_variable_grammar(self, binding):
        with pytest.raises(ProofStepError, match="line 2: bad variable name"):
            parse_proof(f"# header\nB2 - {binding} lr\n", BOOL_A)

    @pytest.mark.parametrize("pos", ["a", "+1", "1_0", "\u0661", "1.", "0..1"])
    def test_positions_are_ascii_child_indices(self, pos):
        with pytest.raises(ProofStepError, match="line 2: bad position"):
            parse_proof(f"# header\nB2 {pos} - lr\n", BOOL_A)

    def test_every_variable_name_binds(self):
        proof = parse_proof("B1 - x=a; y=b; z=a; x0=b; x12=a lr\n", BOOL_A)
        assert sorted(proof.steps[0].subst) == [0, 1, 2, 3, 15]

    def test_too_few_fields(self):
        with pytest.raises(ProofStepError):
            parse_proof("B2 -\n", BOOL_A)


class TestProve:
    def test_idempotence_goal_from_boolean_axioms(self):
        goal = Equation(_bt("x v x", BOOLEAN_SIG), Var(0))
        proof = prove(goal, BOOLEAN_AXIOMS)
        assert isinstance(proof, EqProof)
        assert check_proof(proof, BOOLEAN_AXIOMS, goal)

    def test_trivial_goal(self, monkeypatch):
        # answered before any orientation is built
        monkeypatch.setattr(equational, "_orientations", None)
        goal = Equation(_bt("a"), _bt("a"))
        assert prove(goal, BOOLEAN_AXIOMS) == EqProof(())

    def test_unprovable_goal_times_out_with_counters(self):
        goal = Equation(_bt("a"), _bt("b"))
        result = prove(goal, {}, max_expansions=50)
        assert isinstance(result, Timeout)
        assert result.equations_generated >= 0
        assert result.rewrites_attempted >= 0

    def test_robbins_goal_times_out_at_desk_budget(self):
        goal = Equation(App("v", (T1, T2)), T1)
        result = prove(goal, ROBBINS_AXIOMS, max_expansions=500)
        assert isinstance(result, Timeout)


class TestProveExists:
    def test_absorption_witness_found(self):
        goal = Equation(_bt("x v y", BOOLEAN_SIG), Var(0))
        result = prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=80)
        assert isinstance(result, WitnessResult)
        instance = Equation(
            apply_subst(goal.lhs, result.witness), apply_subst(goal.rhs, result.witness)
        )
        assert check_proof(result.proof, BOOLEAN_AXIOMS, instance)

    def test_exhaustion_times_out(self, monkeypatch):
        monkeypatch.setattr(equational, "EXISTS_EXPANSIONS", 5)
        goal = Equation(_bt("x", BOOLEAN_SIG), _bt("-x", BOOLEAN_SIG))
        result = prove_exists(goal, {}, BOOLEAN_SIG, max_candidates=5)
        assert isinstance(result, Timeout)

    def test_absorption_witness_is_pinned(self):
        goal = Equation(_bt("x v y", BOOLEAN_SIG), Var(0))
        result = prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=80)
        assert result.witness == {0: App("0"), 1: App("0")}
        assert format_proof(result.proof) == "B8 1 x=0; z=0 rl\nB3 - x=0; y=0 v 0 lr\n"

    @staticmethod
    def _record_prove(monkeypatch, passes=lambda instance: False, limits=None):
        """Replace prove by a stub that logs each instance it is given, and
        each max_seconds into `limits`."""
        tried = []

        def fake_prove(goal, axioms, max_expansions, max_seconds=None):
            tried.append(goal)
            if limits is not None:
                limits.append(max_seconds)
            return EqProof(()) if passes(goal) else Timeout(1, 2)

        monkeypatch.setattr(equational, "prove", fake_prove)
        return tried

    def test_first_passing_witness_in_enumeration_order(self, monkeypatch):
        # instances pass once the witness for y has size 2, so later
        # candidates pass too; the first in enumeration order must win
        _model_off(monkeypatch)
        tried = self._record_prove(monkeypatch, lambda g: term_size(g.lhs.args[1]) == 2)
        goal = Equation(_bt("x v y", BOOLEAN_SIG), Var(0))
        result = prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=200)
        terms = enumerate_ground_terms(BOOLEAN_SIG, 7, variables=(Var(3),))
        expected = next(
            (a, b) for a, b in itertools.product(terms, repeat=2) if term_size(b) == 2
        )
        assert (result.witness[0], result.witness[1]) == expected
        assert len(tried) == terms.index(expected[1]) + 1
        assert [g.lhs.args for g in tried] == list(
            itertools.islice(itertools.product(terms, repeat=2), len(tried))
        )

    def test_first_passing_witness_with_the_model(self, monkeypatch):
        # the same, but prove sees only the instances true in {0, 1}: the
        # first candidate with y of size 2 is 0 v -0 = 0, which is false
        tried = self._record_prove(monkeypatch, lambda g: term_size(g.lhs.args[1]) == 2)
        goal = Equation(_bt("x v y", BOOLEAN_SIG), Var(0))
        result = prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=200)
        terms = enumerate_ground_terms(BOOLEAN_SIG, 7, variables=(Var(3),))
        true_pairs = [(a, b) for a, b in itertools.islice(itertools.product(terms, repeat=2), 200)
                      if _true_in_two(Equation(App("v", (a, b)), a))]
        expected = next((a, b) for a, b in true_pairs if term_size(b) == 2)
        assert (result.witness[0], result.witness[1]) == expected == (App("0"), _bt("-1"))
        assert [g.lhs.args for g in tried] == true_pairs[:true_pairs.index(expected) + 1]

    def test_tries_exactly_max_candidates(self, monkeypatch):
        _model_off(monkeypatch)
        tried = self._record_prove(monkeypatch)
        goal = Equation(_bt("x v y", BOOLEAN_SIG), Var(0))
        result = prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=7)
        assert len(tried) == 7
        assert result == Timeout(7, 14)

    def test_skipped_candidates_count_toward_max_candidates(self, monkeypatch):
        tried = self._record_prove(monkeypatch)
        goal = Equation(_bt("x v y", BOOLEAN_SIG), Var(0))
        result = prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=7)
        # the first 7 candidates fix x := 0; only y := 0, -1 and --0 make
        # 0 v y = 0 true
        assert [g.lhs.args[1] for g in tried] == [App("0"), _bt("-1"), _bt("--0")]
        assert result == Timeout(3, 6)

    def test_finite_term_stream_exhausts_before_the_budget(self, monkeypatch):
        _model_off(monkeypatch)
        tried = self._record_prove(monkeypatch)
        goal = Equation(_bt("-x", BOOLEAN_SIG), _bt("x", BOOLEAN_SIG))
        # size-1 witnesses: the constants 0 and 1 and one fresh variable
        monkeypatch.setattr(equational, "EXISTS_TERM_SIZE", 1)
        result = prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=200)
        assert len(tried) == 3
        assert result == Timeout(3, 6)

    def test_model_refutes_every_instance_of_a_false_goal(self, monkeypatch):
        tried = self._record_prove(monkeypatch)
        goal = Equation(_bt("-x", BOOLEAN_SIG), _bt("x", BOOLEAN_SIG))
        # -x = x is false in {0, 1} for 0, 1 and the fresh variable alike
        monkeypatch.setattr(equational, "EXISTS_TERM_SIZE", 1)
        result = prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=200)
        assert tried == []
        assert result == Timeout(0, 0)

    @pytest.mark.parametrize("text, reaches_prove", [("0 v 1 = 1", True), ("0 v 0 = 1", False)])
    def test_ground_goal_false_in_the_model_is_not_searched(self, monkeypatch, text,
                                                            reaches_prove):
        tried = self._record_prove(monkeypatch)
        lhs, _, rhs = text.partition("=")
        goal = Equation(_bt(lhs, BOOLEAN_SIG), _bt(rhs, BOOLEAN_SIG))
        result = prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG)
        assert tried == ([goal] if reaches_prove else [])
        assert result == (Timeout(1, 2) if reaches_prove else Timeout(0, 0))

    def test_axiom_false_in_the_model_skips_nothing(self, monkeypatch):
        tried = self._record_prove(monkeypatch)
        axioms = {**BOOLEAN_AXIOMS, "Bad": Equation(_bt("x v y", BOOLEAN_SIG), Var(0))}
        goal = Equation(_bt("-x", BOOLEAN_SIG), _bt("x", BOOLEAN_SIG))
        monkeypatch.setattr(equational, "EXISTS_TERM_SIZE", 1)
        result = prove_exists(goal, axioms, BOOLEAN_SIG, max_candidates=200)
        assert len(tried) == 3
        assert result == Timeout(3, 6)

    def test_symbol_outside_the_model_skips_nothing(self, monkeypatch):
        tried = self._record_prove(monkeypatch)
        # x * x = x is false in Z/2 for the fresh variable; `a` has no value
        goal = Equation(_bt("x * x", GROUP_A), Var(0))
        monkeypatch.setattr(equational, "EXISTS_TERM_SIZE", 1)
        result = prove_exists(goal, GROUP_AXIOMS, GROUP_A, max_candidates=200)
        assert [g.rhs for g in tried] == [App("a"), App("e"), Var(3)]
        assert result == Timeout(3, 6)

    def test_shipped_axiom_sets_hold_in_the_model(self):
        for name, axioms in AXIOM_SETS.items():
            assert all(_true_in_two(eq) for eq in axioms.values()), name
            goal = Equation(Var(0), Var(0))
            assert equational._two_is_a_model(goal, axioms, AXIOM_SIGNATURES[name]), name
        goal = Equation(Var(0), Var(0))
        assert equational._two_is_a_model(goal, ROBBINS_AXIOMS, ROBBINS_SIG)

    def test_zero_time_limit_tries_nothing(self, monkeypatch):
        tried = self._record_prove(monkeypatch)
        goal = Equation(_bt("x v y", BOOLEAN_SIG), Var(0))
        result = prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_seconds=0)
        assert tried == []
        assert result == Timeout(0, 0)

    def test_each_prove_gets_the_time_left(self, monkeypatch):
        limits = []
        self._record_prove(monkeypatch, limits=limits)
        goal = Equation(_bt("x v y", BOOLEAN_SIG), Var(0))
        prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=20, max_seconds=60)
        assert len(limits) > 1
        assert all(0 < t <= 60 for t in limits)
        assert limits == sorted(limits, reverse=True)
        limits.clear()
        prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=20)
        assert limits and set(limits) == {None}

    def test_builds_only_the_sizes_it_can_try(self, monkeypatch):
        self._record_prove(monkeypatch)
        built = []
        size_classes = equational._size_classes

        def recording(*args):
            for terms in size_classes(*args):
                built.append(len(terms))
                yield terms

        monkeypatch.setattr(equational, "_size_classes", recording)
        goal = Equation(_bt("x v y", BOOLEAN_SIG), Var(0))
        prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=5)
        # size 1: 0, 1 and the fresh variable; size 2: their negations
        assert built == [3, 3]
        built.clear()
        # a goal without variables needs no witness term
        ground = Equation(_bt("0 v 1", BOOLEAN_SIG), App("1"))
        prove_exists(ground, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=5)
        assert built == []

    @pytest.mark.parametrize("limit", [{"max_candidates": 0}, {"max_candidates": -1},
                                       {"max_seconds": 0}], ids=["zero", "negative", "no-time"])
    def test_ground_goal_obeys_the_budget_and_the_time_limit(self, monkeypatch, limit):
        # the one candidate of a goal without variables counts like any other
        tried = self._record_prove(monkeypatch)
        goal = Equation(_bt("0 v 1", BOOLEAN_SIG), App("1"))
        assert prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, **limit) == Timeout(0, 0)
        assert tried == []

    def test_ground_goal_without_axioms(self):
        trivial = Equation(App("1"), App("1"))
        assert prove_exists(trivial, {}, BOOLEAN_SIG) == WitnessResult({}, EqProof(()))
        goal = Equation(_bt("0 v 1", BOOLEAN_SIG), App("1"))
        assert prove_exists(goal, {}, BOOLEAN_SIG) == Timeout(0, 0)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_empty_budget_times_out(self, monkeypatch, budget):
        tried = self._record_prove(monkeypatch)
        goal = Equation(_bt("x v y", BOOLEAN_SIG), Var(0))
        result = prove_exists(goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=budget)
        assert tried == []
        assert result == Timeout(0, 0)


class TestGroundEnumeration:
    def test_size_ordered(self):
        terms = enumerate_ground_terms(GROUP_A, 4)
        sizes = [sum(1 for _ in positions(t)) for t in terms]
        assert sizes == sorted(sizes)

    def test_small_prefix(self):
        terms = enumerate_ground_terms(GROUP_A, 2)
        assert App("a") in terms and App("e") in terms
        assert App("i", (App("e"),)) in terms


# --- golden search outcomes --------------------------------------------------


def _golden_walk(t, rng, axioms, steps, max_size):
    """t after up to `steps` seeded apply_step moves that keep it small."""
    for _ in range(steps):
        subterms = [s for _, s in positions(t)]
        options = []
        for eq_id in sorted(axioms):
            e = axioms[eq_id]
            for frm, to, direction in ((e.lhs, e.rhs, "lr"), (e.rhs, e.lhs, "rl")):
                extra = sorted(term_vars(to) - term_vars(frm))
                for pos, sub in positions(t):
                    sigma = match(frm, sub)
                    if sigma is not None:
                        options.append((eq_id, pos, sigma, direction, extra))
        rng.shuffle(options)
        for eq_id, pos, sigma, direction, extra in options:
            sigma = dict(sigma)
            for v in extra:
                sigma[v] = rng.choice(subterms)
            new = apply_step(t, ProofStep(eq_id, pos, sigma, direction), axioms)
            if term_size(new) <= max_size:
                t = new
                break
    return t


def _golden_goals(name, pairs=8, walks=8):
    """Seeded goals over one axiom set: pairs of enumerated terms (almost all
    unprovable, so their Timeout counters pin how far the search got) and
    short axiom walks (provable)."""
    axioms, sig = AXIOM_SETS[name], AXIOM_SIGNATURES[name]
    rng = random.Random(f"golden-{name}")
    terms = enumerate_ground_terms(sig, 4, variables=(Var(0), Var(1)))
    goals = [Equation(*rng.sample(terms, 2)) for _ in range(pairs)]
    for _ in range(walks):
        t0 = rng.choice(terms[len(terms) // 3:])
        goals.append(Equation(t0, _golden_walk(
            t0, rng, axioms, rng.randrange(1, 4), term_size(t0) + 3)))
    return goals


def _outcome(result):
    """The artifact a search leaves: proof text, witness plus proof text, or
    the Timeout counters."""
    if isinstance(result, EqProof):
        return format_proof(result)
    if isinstance(result, WitnessResult):
        witness = "; ".join(f"{v}={format_term(t)}" for v, t in sorted(result.witness.items()))
        return f"witness {witness}\n{format_proof(result.proof)}"
    return f"timeout {result.equations_generated} {result.rewrites_attempted}\n"


def _digest(outcomes):
    return hashlib.sha256("".join(outcomes).encode()).hexdigest()


def _list_scan_prove(goal, axioms, max_expansions, expanded):
    """The one-sided search that prove replaced, kept as the reference: one
    frontier grows from goal.lhs until it reaches goal.rhs.  Its weight pick
    is min() over the generation-ordered deque followed by deque.remove, and
    every successor's size is computed from scratch.  Appends each expanded
    term to `expanded`."""
    pool = equational._ground_pool(goal)
    max_size = max(term_size(goal.lhs), term_size(goal.rhs)) + 8

    def successors(t):
        for eq_id, eq in axioms.items():
            for frm, to, direction in ((eq.lhs, eq.rhs, "lr"), (eq.rhs, eq.lhs, "rl")):
                extra = sorted(term_vars(to) - term_vars(frm))
                if len(extra) > 2:
                    continue
                for pos, sub in positions(t):
                    sigma0 = match(frm, sub)
                    if sigma0 is None:
                        continue
                    for fill in itertools.product(pool, repeat=len(extra)):
                        sigma = dict(sigma0)
                        sigma.update(zip(extra, fill))
                        new_term = replace_at(t, pos, apply_subst(to, sigma))
                        if term_size(new_term) <= max_size:
                            yield ProofStep(eq_id, pos, sigma, direction), new_term

    if goal.lhs == goal.rhs:
        return EqProof(())
    # nodes are [term, parent, step, size]; identity is what deque.remove finds
    frontier = deque([[goal.lhs, None, None, term_size(goal.lhs)]])
    visited = {goal.lhs}
    generated = rewrites = expansions = tick = 0
    while frontier:
        expansions += 1
        if expansions > max_expansions:
            return Timeout(generated, rewrites)
        tick += 1
        if tick % 5 == 0:
            node = frontier.popleft()
        else:
            node = min(frontier, key=lambda nd: nd[3])
            frontier.remove(node)
        expanded.append(node[0])
        for step, new_term in successors(node[0]):
            rewrites += 1
            if new_term in visited:
                continue
            visited.add(new_term)
            generated += 1
            child = [new_term, node, step, term_size(new_term)]
            if new_term == goal.rhs:
                steps = []
                while child[2] is not None:
                    steps.append(child[2])
                    child = child[1]
                return EqProof(tuple(reversed(steps)))
            frontier.append(child)
    return Timeout(generated, rewrites)


@functools.lru_cache(maxsize=None)
def _reference_results(name, budget):
    """The reference's result on each of _golden_goals(name)."""
    return tuple(_list_scan_prove(goal, AXIOM_SETS[name], budget, [])
                 for goal in _golden_goals(name))


def _exists_outcomes(goals, monkeypatch):
    monkeypatch.setattr(equational, "EXISTS_EXPANSIONS", 60)
    outcomes = []
    for text in goals:
        lhs, _, rhs = text.partition("=")
        goal = Equation(parse_term(lhs, BOOLEAN_SIG), parse_term(rhs, BOOLEAN_SIG))
        outcomes.append(_outcome(prove_exists(
            goal, BOOLEAN_AXIOMS, BOOLEAN_SIG, max_candidates=5)))
    return outcomes


def _seeded_exists_goals(name, count=6):
    """Seeded goals with at least one variable, for prove_exists."""
    rng = random.Random(f"exists-{name}")
    terms = enumerate_ground_terms(AXIOM_SIGNATURES[name], 3, variables=(Var(0), Var(1)))
    goals = []
    while len(goals) < count:
        goal = Equation(*rng.sample(terms, 2))
        if term_vars(goal.lhs) | term_vars(goal.rhs):
            goals.append(goal)
    return goals


def _taking_turns(lhs, rhs):
    """The expansion order of two one-sided searches that take turns, lhs
    first.  Each side is (expanded terms, whether its frontier emptied); a
    side that emptied drops out, and the order ends where a side whose
    frontier did not empty has no more terms."""
    queues = [deque(lhs[0]), deque(rhs[0])]
    emptied = [lhs[1], rhs[1]]
    out, side = [], 1
    while True:
        if queues[1 - side] or not emptied[1 - side]:
            side = 1 - side
        if not queues[side]:
            return out
        out.append(queues[side].popleft())


class TestProveGolden:
    """Pins the search itself: which proof is found first, and how far a
    failed search got, must not move when the frontier or the successor
    bookkeeping is reworked.  The one-sided search survives as the
    reference _list_scan_prove, and its pins stay."""

    BUDGETS = (30, 120)
    # SHA-256 of the concatenated outcomes of _golden_goals(name) at each
    # budget, computed with the one-sided list-scan frontier
    DIGESTS = {
        ("boolean", 30): "3ba3190f261c57fa199c67e8a530ad9843f10411bc5f225c2fc8f54577212c6c",
        ("group", 30): "f8f4ee69138fa72a640cbd74e62423247c8d9778bb7ccbcee2a4a0fa1d87a5a0",
        ("robbins", 30): "95e8f99e8a0ed3d7d28a38826d309a026f9d054ae5174d9b03331a367b2694b9",
        ("boolean", 120): "afe5de20353b2fb60a8d844939533e446ad7547b1cbeae21ee9132a8a7121b89",
        ("group", 120): "ed1dc9adfbc15cedad475675557958fd6c5cf19a5f58a589dff5786ba3290785",
        ("robbins", 120): "9aac8b2e82dc725403b214e15bca16b74bda189410613e146be7ca1642ca5033",
    }
    # the same, computed with the bidirectional prove
    BIDIRECTIONAL_DIGESTS = {
        ("boolean", 30): "ff3e69b198fa5927289a35cf9f333c08a44f994f4e9e3319296147190eb31571",
        ("group", 30): "d0982fae81b81916a197429d4392a7e997446ec63595e6e9fa73208388c84550",
        ("robbins", 30): "b854817f2c596a2be8a18ce4832ad0813bfd172d0ff7b77e4adf34cc409a9a3a",
        ("boolean", 120): "9be0a1a44f9900b29e55de4363307e4ef6b407e3a10f4862276fce0aa798aeb0",
        ("group", 120): "3cfbb89c0f38c0058dd7d8441b2492d90b6d2444a9269977f2c40ac62e7fabfb",
        ("robbins", 120): "cd1d7037dd8a3ced71faf4b6fa28e5c4a1c4415a01314001830f73e70a65e3d4",
    }
    EXISTS_GOALS = ("x v y = x", "x ^ y = x", "x v y = 1", "x ^ y = 0", "x v y = -x")
    # the reference finds four witnesses, and times out after five candidates
    # of the last goal
    EXISTS_DIGEST = "eca26b3952925fe62be09621190c569664197bce2f7fb1208cbfd6daa7cbb1a8"
    # prove finds all five: x := 0, y := 1 for the last goal
    BIDIRECTIONAL_EXISTS_DIGEST = "0ea7a83d2c80e21e04d407ac72f1d587e1e24db84cac3aa92697ba2e179ce334"
    # the reference with the two-element model: the same four witnesses,
    # and smaller counters for the last goal
    EXISTS_MODEL_DIGEST = "a5b4e490fce1c5f9d29eb8ee3630db58684824ac31a16eedcba8bbdd222b8815"

    @pytest.mark.parametrize("name", ["boolean", "group", "robbins"])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_outcomes_are_pinned(self, name, budget):
        outcomes = [_outcome(result) for result in _reference_results(name, budget)]
        assert _digest(outcomes) == self.DIGESTS[name, budget]

    @pytest.mark.parametrize("name", ["boolean", "group", "robbins"])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_bidirectional_outcomes_are_pinned(self, name, budget):
        outcomes = [
            _outcome(prove(goal, AXIOM_SETS[name], max_expansions=budget))
            for goal in _golden_goals(name)
        ]
        assert _digest(outcomes) == self.BIDIRECTIONAL_DIGESTS[name, budget]

    @staticmethod
    def _reference_prove(monkeypatch):
        def reference_prove(goal, axioms, max_expansions, max_seconds=None):
            return _list_scan_prove(goal, axioms, max_expansions, [])

        monkeypatch.setattr(equational, "prove", reference_prove)

    def test_exists_outcomes_are_pinned(self, monkeypatch):
        _model_off(monkeypatch)
        self._reference_prove(monkeypatch)
        assert _digest(_exists_outcomes(self.EXISTS_GOALS, monkeypatch)) == self.EXISTS_DIGEST

    def test_exists_outcomes_with_the_model_are_pinned(self, monkeypatch):
        self._reference_prove(monkeypatch)
        assert _digest(_exists_outcomes(self.EXISTS_GOALS, monkeypatch)) == self.EXISTS_MODEL_DIGEST

    def test_bidirectional_exists_outcomes_are_pinned(self, monkeypatch):
        outcomes = _exists_outcomes(self.EXISTS_GOALS, monkeypatch)
        assert _digest(outcomes) == self.BIDIRECTIONAL_EXISTS_DIGEST

    def test_model_changes_no_witness_or_proof(self, monkeypatch):
        cases = [(Equation(*(parse_term(side, BOOLEAN_SIG) for side in text.split("="))),
                  "boolean") for text in self.EXISTS_GOALS]
        cases += [(goal, name) for name in ("boolean", "group", "robbins")
                  for goal in _seeded_exists_goals(name)]

        monkeypatch.setattr(equational, "EXISTS_EXPANSIONS", 60)

        def results():
            return [prove_exists(goal, AXIOM_SETS[name], AXIOM_SIGNATURES[name],
                                 max_candidates=5)
                    for goal, name in cases]

        with_model = results()
        _model_off(monkeypatch)
        without_model = results()
        for (goal, _), on, off in zip(cases, with_model, without_model):
            if isinstance(off, WitnessResult):
                assert _outcome(on) == _outcome(off), str(goal)
            else:
                assert isinstance(on, Timeout), str(goal)
                assert on.equations_generated <= off.equations_generated, str(goal)
                assert on.rewrites_attempted <= off.rewrites_attempted, str(goal)
        witnesses = sum(isinstance(r, WitnessResult) for r in without_model[len(self.EXISTS_GOALS):])
        assert witnesses >= 3
        assert with_model != without_model

    @pytest.mark.parametrize("name", ["boolean", "group", "robbins"])
    def test_model_refutes_no_goal_the_reference_proves(self, name):
        axioms, signature = AXIOM_SETS[name], AXIOM_SIGNATURES[name]
        refuted = 0
        for goal, result in zip(_golden_goals(name), _reference_results(name, 120)):
            assert equational._two_is_a_model(goal, axioms, signature)
            holds = equational._holds_in_two(goal)
            assert holds == _true_in_two(goal), str(goal)
            if not holds:
                refuted += 1
                assert not isinstance(result, EqProof), str(goal)
        assert refuted

    def test_each_side_expands_in_reference_order(self, monkeypatch):
        # the lhs side expands like the reference on the goal, the rhs side
        # like the reference on the reversed goal, and they take turns
        expanded = []
        successors = equational._successors

        def recording(t, *args):
            expanded.append(t)
            return successors(t, *args)

        monkeypatch.setattr(equational, "_successors", recording)
        cases = [(goal, AXIOM_SETS[name]) for name in ("boolean", "group", "robbins")
                 for goal in _golden_goals(name)]
        # the frontiers empty under the size bound before the budget is hit
        cases.append((Equation(App("v", (T1, T2)), T1), ROBBINS_AXIOMS))
        cases.append((Equation(_bt("a"), _bt("b")), {}))
        for goal, axioms in cases:
            expanded.clear()
            prove(goal, axioms, max_expansions=30)
            sides = []
            for start, end in ((goal.lhs, goal.rhs), (goal.rhs, goal.lhs)):
                reference = []
                result = _list_scan_prove(Equation(start, end), axioms, 30, reference)
                sides.append((reference, isinstance(result, Timeout) and len(reference) < 30))
            assert expanded == _taking_turns(*sides)[:len(expanded)], str(goal)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_proves_what_the_reference_proves(self, budget):
        # with twice the budget the lhs side alone gets the reference's
        for name in ("boolean", "group", "robbins"):
            axioms = AXIOM_SETS[name]
            for goal, expected in zip(_golden_goals(name), _reference_results(name, budget)):
                result = prove(goal, axioms, max_expansions=2 * budget)
                if isinstance(expected, EqProof):
                    assert isinstance(result, EqProof), str(goal)
                if isinstance(result, EqProof):
                    assert check_proof(result, axioms, goal), str(goal)


# --- references for the fast paths -------------------------------------------


def _reference_match(pattern, t):
    """match as it was before its root-clash exit."""
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


def _reference_mgu(t1, t2):
    """mgu as it was when every popped pair went through sigma, empty or not."""
    sigma = {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a = apply_subst(a, sigma)
        b = apply_subst(b, sigma)
        if a == b:
            continue
        if isinstance(a, Var):
            if equational.occurs(a.id, b):
                return FAIL
            sigma = compose(sigma, {a.id: b})
            continue
        if isinstance(b, Var):
            if equational.occurs(b.id, a):
                return FAIL
            sigma = compose(sigma, {b.id: a})
            continue
        if a.symbol != b.symbol or len(a.args) != len(b.args):
            return FAIL
        stack.extend(zip(a.args, b.args))
    return sigma


def _min_scan_complete(axioms, precedence, budget=2000):
    """kb_complete as it was before its queue became a heap: every pick scans
    the pending deque with min() and takes the pick out with remove()."""
    pending = deque(axioms)
    rules = []
    steps = 0
    while pending:
        steps += 1
        if steps > budget:
            raise CompletionBudgetExhausted(list(rules))
        eq = min(pending, key=lambda e: term_size(e.lhs) + term_size(e.rhs))
        pending.remove(eq)
        lhs = rewrite(eq.lhs, rules)
        rhs = rewrite(eq.rhs, rules)
        if lhs == rhs:
            continue
        new_rule = equational.orient(Equation(lhs, rhs), precedence)
        kept = []
        for r in rules:
            if equational._reducible(r.lhs, new_rule):
                pending.append(Equation(r.lhs, r.rhs))
            else:
                kept.append(r)
        rules = kept
        rules.append(new_rule)
        rules = [RewriteRule(r.lhs, rewrite(r.rhs, rules)) for r in rules]
        for r in rules:
            if r == new_rule:
                continue
            pending.extend(superpose(new_rule, r))
        pending.extend(superpose(new_rule, new_rule))
    return rules


def _uncached_orientations(axioms, pool):
    """_orientations as it was before its pool-free part was cached."""
    out = []
    for eq_id, eq in axioms.items():
        for frm, to, direction in ((eq.lhs, eq.rhs, "lr"), (eq.rhs, eq.lhs, "rl")):
            frm_vars = term_vars(frm)
            extra = sorted(term_vars(to) - frm_vars)
            if len(extra) > equational.MAX_EXTRA_VARS:
                continue
            occurrences = {}
            for _, sub in positions(to):
                if isinstance(sub, Var):
                    occurrences[sub.id] = occurrences.get(sub.id, 0) + 1
            shared = [(v, n) for v, n in occurrences.items() if v in frm_vars]
            fills = [
                (
                    tuple(zip(extra, fill)),
                    sum(occurrences[v] * (term_size(u) - 1) for v, u in zip(extra, fill)),
                )
                for fill in itertools.product(pool, repeat=len(extra))
            ]
            out.append((eq_id, frm, to, direction, term_size(to), shared, fills))
    return out


def _reference_successors(t, orientations, max_size):
    """_successors as it was before orientations were compiled: it matches
    with match, instantiates with apply_subst, copies every substitution
    and yields a ProofStep for every rewrite."""
    subterms = []
    size_of = {}

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
    for eq_id, frm, to, direction, to_size, shared, fills, *_ in orientations:
        for pos, sub, sub_size in subterms:
            sigma0 = match(frm, sub)
            if sigma0 is None:
                continue
            base = size - sub_size + to_size
            for v, n in shared:
                base += n * (size_of[id(sigma0[v])] - 1)
            for fill, fill_size in fills:
                new_size = base + fill_size
                if new_size > max_size:
                    continue
                sigma = dict(sigma0)
                sigma.update(fill)
                new_term = replace_at(t, pos, apply_subst(to, sigma))
                yield ProofStep(eq_id, pos, sigma, direction), new_term, new_size


def _completion_outcome(complete, axioms, budget):
    """The rule list, or the exception type with what it carries."""
    try:
        return complete(axioms, GROUP_PRECEDENCE, budget)
    except CompletionBudgetExhausted as exc:
        return CompletionBudgetExhausted, exc.partial_rules
    except OrientationError as exc:
        return OrientationError, exc.equation


def _as_tuples(orientations):
    """The orientations as tuples, without the compiled matcher and
    instantiator that _orientations appends."""
    return [(*head, tuple(shared), tuple(fills))
            for *head, shared, fills in (o[:7] for o in orientations)]


def _match_pairs():
    """(pattern, subject) pairs: hand-built edge cases, then 3000 seeded
    pairs over the group signature, half of them instances of the pattern."""
    rng = random.Random("match-mgu")
    x, y = Var(0), Var(1)
    terms = enumerate_ground_terms(GROUP_SIG, 5, variables=(x, y, Var(2)))
    pairs = [
        (_bt("x * y", GROUP_SIG), Var(0)),  # a Var subject
        (_bt("i(x)", GROUP_SIG), _bt("e", GROUP_SIG)),  # a root clash
        (_bt("x * x", GROUP_SIG), _bt("e * e", GROUP_SIG)),  # non-linear, matches
        (_bt("x * x", GROUP_SIG), _bt("e * i(e)", GROUP_SIG)),  # non-linear, fails
        (x, _bt("i(x)", GROUP_SIG)),  # occurs check
        (_bt("x * y", GROUP_SIG), _bt("y * i(x)", GROUP_SIG)),  # occurs check, deeper
        (x, y), (x, x),
    ]
    for _ in range(3000):
        pattern = rng.choice(terms)
        if rng.random() < 0.5:
            subject = apply_subst(pattern, {v: rng.choice(terms[:40]) for v in range(3)})
        else:
            subject = rng.choice(terms)
        pairs.append((pattern, subject))
    return pairs


class TestFastPathsAgreeWithReferences:
    """Each fast path against the code it replaced, kept above as a reference."""

    def test_match_and_mgu(self):
        outcomes = set()
        for pattern, subject in _match_pairs():
            expected = _reference_match(pattern, subject)
            assert match(pattern, subject) == expected, (pattern, subject)
            unifier = _reference_mgu(pattern, subject)
            assert mgu(pattern, subject) == unifier, (pattern, subject)
            outcomes.add((expected is None, unifier is FAIL))
        assert {(False, False), (True, False), (True, True)} <= outcomes

    @pytest.mark.parametrize("budget", (2, 10, 200, 2000))
    def test_completion_of_group_axioms_and_their_pairs(self, budget):
        axioms = list(GROUP_AXIOMS.values())
        diverging = [GROUP_AXIOMS["G1"], GROUP_AXIOMS["G3"]]
        for subset in [axioms, *itertools.combinations(axioms, 2)]:
            subset = list(subset)
            if subset == diverging and budget > 200:
                continue  # spends the budget: about a minute at 2000 steps
            assert (_completion_outcome(kb_complete, subset, budget)
                    == _completion_outcome(_min_scan_complete, subset, budget)), subset

    def test_completion_of_random_axiom_sets(self):
        # some group axioms plus random equations, half of them a term = one
        # of its subterms, which orients
        rng = random.Random("completion")
        terms = enumerate_ground_terms(GROUP_SIG, 5, variables=(Var(0), Var(1), Var(2)))
        seen = set()
        for _ in range(40):
            axioms = rng.sample(list(GROUP_AXIOMS.values()), rng.randrange(3))
            for _ in range(rng.randrange(1, 3)):
                lhs = rng.choice(terms)
                if rng.random() < 0.5:
                    rhs = rng.choice([sub for _, sub in positions(lhs)])
                else:
                    rhs = rng.choice(terms)
                axioms.append(Equation(lhs, rhs))
            expected = _completion_outcome(_min_scan_complete, axioms, 25)
            assert _completion_outcome(kb_complete, axioms, 25) == expected, axioms
            seen.add(expected[0] if isinstance(expected, tuple) else list)
        assert seen == {list, CompletionBudgetExhausted, OrientationError}

    def test_compiled_matcher(self):
        g = functools.partial(_bt, sig=GROUP_SIG)
        e, x = g("e"), Var(0)
        pairs = _match_pairs() + [
            # the root symbol of the pattern, with another arity
            (g("x * y"), App("*", (e,))),
            (g("x * y"), App("*", (e, e, e))),
            (g("i(x)"), App("i", ())),
            (g("i(x) * y"), App("*", (App("i", (e, e)), e))),
            (g("e * x"), App("*", (App("e", (e,)), e))),
            # Var subjects, at the root and below it
            (g("i(x)"), Var(1)), (g("x * e"), Var(0)), (g("i(x) * y"), g("x * y")),
            (g("e * x"), g("x * e")),
            # non-linear patterns, with equal bindings that are distinct objects
            (g("x * x"), App("*", (g("i(e)"), g("i(e)")))),
            (g("x * (x * y)"), g("i(e) * (i(e) * e)")),
            (g("x * (x * y)"), g("i(e) * (e * e)")),
            (g("(x * y) * (y * x)"), g("(e * i(e)) * (i(e) * e)")),
            (g("(x * y) * (y * x)"), g("(e * i(e)) * (e * i(e))")),
            (x, e), (x, x),
        ]
        outcomes = set()
        for pattern, subject in pairs:
            expected = match(pattern, subject)
            assert equational._compile_match(pattern)(subject) == expected, (pattern, subject)
            outcomes.add(expected is None)
        assert outcomes == {False, True}

    def test_compiled_instantiator(self):
        rng = random.Random("instantiator")
        built = 0
        for name, axioms in AXIOM_SETS.items():
            terms = enumerate_ground_terms(AXIOM_SIGNATURES[name], 4, variables=(Var(0), Var(1)))
            for orientation in equational._axiom_orientations(tuple(axioms.items())):
                to, build_to = orientation[2], orientation[8]
                for _ in range(50):
                    # every variable of `to` bound, and a few others too
                    sigma = {v: rng.choice(terms) for v in term_vars(to) | {rng.randrange(6)}}
                    assert build_to(sigma) == apply_subst(to, sigma), (to, sigma)
                    built += 1
        assert built == 50 * sum(2 for axioms in AXIOM_SETS.values() for _ in axioms)

    @pytest.mark.parametrize("name", ["boolean", "group", "robbins"])
    def test_successors(self, name):
        rng = random.Random(f"successors-{name}")
        axioms, sig = AXIOM_SETS[name], AXIOM_SIGNATURES[name]
        terms = enumerate_ground_terms(sig, 6, variables=(Var(0), Var(1)))
        yields = 0
        for _ in range(60):
            goal = Equation(*rng.sample(terms, 2))
            orientations = equational._orientations(axioms, equational._ground_pool(goal))
            t = goal.lhs
            max_size = term_size(t) + rng.randrange(0, 9)
            expected = list(_reference_successors(t, orientations, max_size))
            got = [(ProofStep(*step), new_term, new_size)
                   for step, new_term, new_size in equational._successors(
                       t, orientations, max_size)]
            assert got == expected, str(goal)
            yields += len(got)
        assert yields > 300

    def test_slotted_terms(self):
        x, t = Var(3), parse_term("x3 v -(x3 ^ 1)", BOOLEAN_SIG)
        for term, field in ((x, "id"), (t, "symbol"), (t, "args"), (t, "_hash")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(term, field, None)
        assert not hasattr(x, "__dict__") and not hasattr(t, "__dict__")
        again = parse_term("x3 v -(x3 ^ 1)", BOOLEAN_SIG)
        assert again == t and again is not t and hash(again) == hash(t)
        assert Var(3) == x and hash(Var(3)) == hash(x)
        # the hashes a generated dataclass __hash__ gave, so that hashed
        # containers of terms keep their iteration order
        assert hash(x) == hash((3,))
        assert hash(t) == hash(("v", t.args))
        assert repr(x) == "Var(id=3)"

    def test_cached_orientations(self):
        rng = random.Random("orientations")
        for name, axioms in AXIOM_SETS.items():
            sig = AXIOM_SIGNATURES[name]
            terms = enumerate_ground_terms(sig, 4, variables=(Var(0),))
            # equal to the axioms, but no object shared with them
            copy = {k: Equation(parse_term(format_term(e.lhs), sig),
                                parse_term(format_term(e.rhs), sig))
                    for k, e in axioms.items()}
            assert all(copy[k].lhs is not e.lhs for k, e in axioms.items())
            for size in range(equational.GROUND_POOL_SIZE + 1):
                pool = rng.sample(terms, size)
                expected = _as_tuples(_uncached_orientations(axioms, pool))
                first = equational._orientations(axioms, pool)
                assert _as_tuples(first) == expected
                compiled = [o[7:] for o in first]
                first[0][6].clear()
                first.clear()
                assert _as_tuples(equational._orientations(copy, pool)) == expected
                again = equational._orientations(axioms, pool)
                assert _as_tuples(again) == expected
                # compiled once per axiom set, not once per call
                assert all(a is b for o, pair in zip(again, compiled)
                           for a, b in zip(o[7:], pair))
