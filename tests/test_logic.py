import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from bruteforge.hierarchy import FormulaSyntaxError, parse_formula
from bruteforge.logic import (
    App,
    Assignment,
    BOOLEAN_SIG,
    Cnf,
    DimacsError,
    GROUP_SIG,
    MAX_PARSE_DEPTH,
    ParseError,
    ROBBINS_SIG,
    TermSyntaxError,
    UnknownSymbolError,
    Var,
    format_term,
    parse_dimacs,
    parse_term,
    term_size,
    term_vars,
    var_id,
    var_name,
    write_dimacs,
)
from bruteforge.priority import ExprSyntaxError, parse_expr


class TestTermParsing:
    def test_single_variable(self):
        assert parse_term("x", BOOLEAN_SIG) == Var(0)
        assert parse_term("y", BOOLEAN_SIG) == Var(1)
        assert parse_term("x0", BOOLEAN_SIG) == Var(3)

    def test_disjunction_left_associative(self):
        t = parse_term("x v x v x", ROBBINS_SIG)
        assert t == App("v", (App("v", (Var(0), Var(0))), Var(0)))

    def test_first_witness_term(self):
        t = parse_term("x v x", ROBBINS_SIG)
        assert t == App("v", (Var(0), Var(0)))

    def test_second_witness_term(self):
        t = parse_term("-(-(x v x v x) v x)", ROBBINS_SIG)
        inner = App("v", (App("v", (Var(0), Var(0))), Var(0)))
        assert t == App("-", (App("v", (App("-", (inner,)), Var(0))),))

    def test_precedence_conj_binds_tighter(self):
        t = parse_term("x v y ^ z", BOOLEAN_SIG)
        assert t == App("v", (Var(0), App("^", (Var(1), Var(2)))))

    def test_function_call_syntax(self):
        t = parse_term("i(x * e)", GROUP_SIG)
        assert t == App("i", (App("*", (Var(0), App("e"))),))

    def test_constants(self):
        assert parse_term("0", BOOLEAN_SIG) == App("0")
        assert parse_term("e", GROUP_SIG) == App("e")

    def test_unknown_symbol_rejected(self):
        with pytest.raises(UnknownSymbolError):
            parse_term("x * y", BOOLEAN_SIG)
        with pytest.raises(UnknownSymbolError):
            parse_term("f(x)", BOOLEAN_SIG)

    def test_syntax_error_carries_position(self):
        with pytest.raises(TermSyntaxError) as err:
            parse_term("x v", BOOLEAN_SIG)
        assert err.value.pos == 3

    def test_arity_enforced(self):
        with pytest.raises(TermSyntaxError):
            parse_term("i(x, y)", GROUP_SIG)

    def test_with_constants(self):
        sig = {**ROBBINS_SIG, "a": 0, "b": 0}
        assert parse_term("a v b", sig) == App("v", (App("a"), App("b")))

    def test_var_naming_bijection(self):
        for vid in range(20):
            assert var_id(var_name(vid)) == vid

    def test_one_spelling_per_variable(self):
        assert parse_term("x0 v x10", BOOLEAN_SIG) == App("v", (Var(3), Var(13)))
        for text in ("x01 v x1", "x00", "x007"):
            with pytest.raises(UnknownSymbolError):
                parse_term(text, BOOLEAN_SIG)


def _terms(signature):
    def extend(children):
        apps = []
        for sym, arity in signature.items():
            if arity == 1:
                apps.append(st.builds(lambda a, s=sym: App(s, (a,)), children))
            elif arity == 2:
                apps.append(
                    st.builds(lambda a, b, s=sym: App(s, (a, b)), children, children)
                )
        return st.one_of(*apps)

    leaves = st.one_of(
        st.integers(min_value=0, max_value=5).map(Var),
        *[st.just(App(s)) for s, a in signature.items() if a == 0],
    )
    return st.recursive(leaves, extend, max_leaves=12)


class TestTermDepthLimit:
    def test_terms_at_the_limit_parse_and_round_trip(self):
        d = MAX_PARSE_DEPTH
        accepted = [
            ("-" * (d - 1) + "x", BOOLEAN_SIG),
            ("(" * (d - 1) + "x" + ")" * (d - 1), BOOLEAN_SIG),
            ("x v (" * (d - 1) + "x" + ")" * (d - 1), BOOLEAN_SIG),
            (" v ".join(["x"] * d), BOOLEAN_SIG),
            ("-(" * (d - 1) + "x" + ")" * (d - 1), BOOLEAN_SIG),
            ("i(" * (d - 1) + "x" + ")" * (d - 1), GROUP_SIG),
        ]
        for text, sig in accepted:
            t = parse_term(text, sig)
            assert parse_term(format_term(t), sig) == t

    def test_deeper_terms_are_rejected(self):
        d = MAX_PARSE_DEPTH
        rejected = [
            ("-" * d + "x", BOOLEAN_SIG),
            ("(" * d + "x" + ")" * d, BOOLEAN_SIG),
            ("x v (" * d + "x" + ")" * d, BOOLEAN_SIG),
            (" v ".join(["x"] * (d + 1)), BOOLEAN_SIG),
            ("i(" * d + "x" + ")" * d, GROUP_SIG),
            ("-" * 5000 + "x", BOOLEAN_SIG),
            ("(" * 5000 + "x" + ")" * 5000, BOOLEAN_SIG),
        ]
        for text, sig in rejected:
            with pytest.raises(TermSyntaxError):
                parse_term(text, sig)


class TestParseErrors:
    """Terms, formulas and priority expressions read through one cursor."""

    @pytest.mark.parametrize("parse, error, text, pos", [
        (lambda t: parse_term(t, BOOLEAN_SIG), TermSyntaxError, "x v (y z)", 7),
        (lambda t: parse_term(t, GROUP_SIG), TermSyntaxError, "i(x, y)", 6),
        (parse_formula, FormulaSyntaxError, "all x . A(x) & )", 15),
        (parse_formula, FormulaSyntaxError, "A | ?", 4),
        (parse_expr, ExprSyntaxError, "v[0] + * 1", 7),
        (parse_expr, ExprSyntaxError, "min(1, 2", 8),
    ], ids=["term", "term-arity", "formula", "formula-char", "expr", "expr-end"])
    def test_every_grammar_reports_the_position(self, parse, error, text, pos):
        with pytest.raises(error) as err:
            parse(text)
        assert isinstance(err.value, ParseError)
        assert err.value.pos == pos
        assert str(err.value).endswith(f"(at position {pos})")

    @pytest.mark.parametrize("parse, text", [
        (lambda t: parse_term(t, BOOLEAN_SIG), "x\u0661 v y"),
        (lambda t: parse_term(t, BOOLEAN_SIG), "x\u00e9"),
        (parse_formula, "A(x\u0661)"),
        (parse_formula, "all \u00e9 . A"),
        (parse_expr, "v[\u0661\u0662] + \u0663"),
    ], ids=["term-digit", "term-letter", "formula-digit", "formula-letter", "expr-digit"])
    def test_only_ascii_letters_and_digits_are_tokens(self, parse, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert text[err.value.pos] > "\x7f"


class TestTermFormatting:
    @given(_terms(BOOLEAN_SIG))
    def test_boolean_roundtrip(self, t):
        assert parse_term(format_term(t), BOOLEAN_SIG) == t

    @given(_terms(GROUP_SIG))
    def test_group_roundtrip(self, t):
        assert parse_term(format_term(t), GROUP_SIG) == t

    @given(_terms(BOOLEAN_SIG))
    def test_size_and_vars_consistent(self, t):
        assert term_size(t) >= 1
        assert all(v >= 0 for v in term_vars(t))


class TestTermHash:
    """App computes its hash once; equality and repr see only symbol and args."""

    @given(_terms(BOOLEAN_SIG))
    def test_parsed_and_rebuilt_terms_share_a_key(self, t):
        parsed = parse_term(format_term(t), BOOLEAN_SIG)
        index = {t: "built"}
        index[parsed] = "parsed"
        assert index == {t: "parsed"}
        assert hash(parsed) == hash(t)
        if isinstance(t, App):
            assert hash(t) == hash((t.symbol, t.args))

    def test_different_constructions_share_a_key(self):
        x = Var(0)
        built = App("v", (App("-", (x,)), App("^", (x, App("1")))))
        parsed = parse_term("-x v (x ^ 1)", BOOLEAN_SIG)
        keyword = App(symbol="v", args=tuple([parsed.args[0], App("^", (Var(0), App("1", ())))]))
        assert len({built: 0, parsed: 1, keyword: 2}) == 1
        assert built != App("v", (App("-", (x,)), App("^", (App("1"), x))))

    def test_repr_shows_only_symbol_and_args(self):
        assert repr(App("v", (Var(0), App("1")))) == (
            "App(symbol='v', args=(Var(id=0), App(symbol='1', args=())))"
        )


class TestTermInterface:
    """Var and App write their slots in a hand-written __init__; the
    dataclass interface around it stays the generated one."""

    TERMS = [Var(0), Var(7), App("e"), App("-", (Var(2),)),
             parse_term("x3 v -(x3 ^ 1)", BOOLEAN_SIG), parse_term("i(x * e)", GROUP_SIG)]

    def test_fields_and_match_args(self):
        assert [f.name for f in dataclasses.fields(Var)] == ["id", "_hash"]
        assert [f.name for f in dataclasses.fields(App)] == ["symbol", "args", "_hash"]
        assert Var.__match_args__ == ("id",)
        assert App.__match_args__ == ("symbol", "args")
        match parse_term("-x", BOOLEAN_SIG):
            case App("-", (Var(vid),)):
                assert vid == 0
            case _:
                pytest.fail("App(symbol, args) did not match positionally")

    def test_replace_hashes_like_a_fresh_term(self):
        t = parse_term("x v 1", BOOLEAN_SIG)
        swapped = dataclasses.replace(t, symbol="^")
        assert swapped == App("^", t.args) and hash(swapped) == hash(App("^", t.args))
        moved = dataclasses.replace(Var(2), id=5)
        assert moved == Var(5) and hash(moved) == hash(Var(5)) == hash((5,))

    @pytest.mark.parametrize("t", TERMS, ids=format_term)
    @pytest.mark.parametrize("round_trip", [
        lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trips_keep_equality_and_hash(self, t, round_trip):
        again = round_trip(t)
        assert again == t and hash(again) == hash(t) and repr(again) == repr(t)

    @pytest.mark.parametrize("t, name", [
        (Var(1), "id"), (Var(1), "_hash"), (Var(1), "foo"),
        (App("-", (Var(2),)), "symbol"), (App("-", (Var(2),)), "args"),
        (App("-", (Var(2),)), "_hash"), (App("-", (Var(2),)), "foo"),
    ], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
    def test_setting_or_deleting_any_name_is_a_frozen_error(self, t, name):
        # the generated methods raise TypeError for a name that is no field
        before = repr(t), hash(t)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
            setattr(t, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
            delattr(t, name)
        assert (repr(t), hash(t)) == before

    def test_a_term_pickled_in_another_process_hashes_here(self):
        # an App's hash is of its symbol, a str, which hashes differently in
        # each process; unpickling must hash again, not keep the sender's
        script = ("import pickle, sys\nfrom bruteforge.logic import BOOLEAN_SIG, parse_term\n"
                  "sys.stdout.buffer.write(pickle.dumps(parse_term('x3 v -(x3 ^ 1)', BOOLEAN_SIG)))")
        sent = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                              timeout=300, env={**os.environ, "PYTHONHASHSEED": "random"}).stdout
        here = parse_term("x3 v -(x3 ^ 1)", BOOLEAN_SIG)
        again = pickle.loads(sent)
        assert again == here and hash(again) == hash(here) and again in {here}

    def test_keyword_construction(self):
        assert App(symbol="e") == App("e", ()) and App(symbol="e").args == ()
        assert App(symbol="-", args=(Var(0),)) == App("-", (Var(0),))
        assert Var(id=4) == Var(4) and hash(Var(id=4)) == hash((4,))

    @pytest.mark.parametrize("build", [lambda: Var(-1), lambda: Var(id=-1)],
                             ids=["positional", "keyword"])
    def test_negative_variable_id_is_rejected(self, build):
        with pytest.raises(ValueError, match="^variable ids are nonnegative$"):
            build()

    @given(st.sampled_from([BOOLEAN_SIG, ROBBINS_SIG, GROUP_SIG]).flatmap(
        lambda sig: st.tuples(st.just(sig), _terms(sig))))
    def test_built_terms_equal_parsed_terms(self, sig_and_term):
        sig, t = sig_and_term
        parsed = parse_term(format_term(t), sig)
        assert parsed == t and hash(parsed) == hash(t) and repr(parsed) == repr(t)


class TestClauses:
    def test_of_rejects_zero(self):
        with pytest.raises(ValueError, match="^literal 0 is reserved"):
            Cnf.of([[1, 0]])

    def test_tautology_flagged_not_dropped(self):
        (c,) = Cnf.of([[1, -1, 2]]).clauses
        assert any(-l in c for l in c)
        assert c == frozenset({1, -1, 2})

    def test_duplicate_literals_collapse(self):
        assert Cnf.of([[1, 1, 2]]).clauses == (frozenset({1, 2}),)

    def test_cnf_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError):
            Cnf((frozenset({3}),), 2)


def _reference_validate(clauses, num_vars):
    """The error a per-literal check raises first, or None."""
    for c in clauses:
        for l in c:
            if l == 0:
                return "literal 0 is reserved as terminator"
            if abs(l) > num_vars:
                return f"literal {l} exceeds num_vars={num_vars}"
    return None


class TestCnfValidation:
    def test_literal_zero(self):
        with pytest.raises(ValueError, match="^literal 0 is reserved as terminator"):
            Cnf((frozenset({1, 2}), frozenset({0, -1})), 2)

    def test_literal_beyond_num_vars(self):
        for bad in (3, -3, 40):
            with pytest.raises(ValueError, match=f"^literal {bad} exceeds num_vars=2"):
                Cnf((frozenset({1, -2}), frozenset({bad, 1})), 2)

    def test_empty_cnf_and_empty_clauses(self):
        assert Cnf((), 0).clauses == ()
        assert Cnf((), 5).num_vars == 5
        assert Cnf((frozenset(),), 0).num_vars == 0

    def test_of_infers_num_vars(self):
        assert Cnf.of([]).num_vars == 0
        assert Cnf.of([[1, -7], [3]]).num_vars == 7
        assert Cnf.of([[]]).num_vars == 0

    def test_agrees_with_per_literal_check(self):
        rng = random.Random(2016)
        outcomes = set()
        for _ in range(3000):
            n = rng.randint(0, 8)
            clauses = []
            for _ in range(rng.randint(0, 6)):
                width = rng.randint(0, 4)
                top = n if rng.random() < 0.9 else n + 3
                lits = {rng.randint(-top, top) for _ in range(width)}
                if rng.random() < 0.8:
                    lits.discard(0)
                clauses.append(frozenset(lits))
            expected = _reference_validate(clauses, n)
            try:
                Cnf(tuple(clauses), n)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expected
            outcomes.add(expected and ("zero" if "reserved" in expected else "range"))
        assert outcomes == {None, "zero", "range"}


class TestAssignment:
    def test_literal_valuation(self):
        a = Assignment({1: True, 2: False})
        assert a.value(1) is True
        assert a.value(-1) is False
        assert a.value(-2) is True
        assert a.value(3) is None

    def test_is_total(self):
        assert Assignment({1: True, 2: False}).is_total(2)
        assert not Assignment({1: True}).is_total(2)


class TestDimacs:
    def test_roundtrip(self):
        cnf = Cnf.of([[1, -2], [2, 3], [-1]], 3)
        assert parse_dimacs(write_dimacs(cnf)) == cnf

    def test_empty_formula(self):
        cnf = Cnf.of([], 0)
        assert write_dimacs(cnf) == "p cnf 0 0\n"
        assert parse_dimacs("p cnf 0 0\n") == cnf

    def test_comments_and_blank_lines_ignored(self):
        text = "c a comment\n\np cnf 2 1\nc another\n1 -2 0\n"
        assert parse_dimacs(text) == Cnf.of([[1, -2]], 2)

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_literal_out_of_declared_range(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 1 1\n2 0\n")

    def test_missing_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("1 0\n")

    def test_missing_terminator(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 1\n1 -2\n")

    @pytest.mark.parametrize("text", ["p cnf -1 0\n", "p cnf -5 1\n0\n", "p cnf 2 -1\n"])
    def test_negative_header_count(self, text):
        with pytest.raises(DimacsError, match="negative count in header"):
            parse_dimacs(text)
