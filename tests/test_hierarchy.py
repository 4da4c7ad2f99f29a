import hashlib
import random

import pytest

from bruteforge.logic import MAX_PARSE_DEPTH
from bruteforge.hierarchy import (
    And,
    Atom,
    DELTA0,
    EXISTS,
    FORALL,
    FormulaSyntaxError,
    HierarchyClass,
    Implies,
    Not,
    Or,
    Quant,
    classify,
    free_vars,
    parse_formula,
    prenexify,
)


class TestParsing:
    def test_atom_with_args(self):
        assert parse_formula("A(x,y)") == Atom("A", ("x", "y"))

    def test_quantifier_with_bound(self):
        f = parse_formula("ex p < n . prime(p)")
        assert f == Quant(EXISTS, "p", "n", Atom("prime", ("p",)))

    def test_implies_right_associative(self):
        f = parse_formula("A -> B -> C")
        assert f == Implies(Atom("A"), Implies(Atom("B"), Atom("C")))

    def test_syntax_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("all . A")

    def test_bound_keeps_its_text(self):
        f = parse_formula("all y < n 2 . P(y)")
        assert f.bound == "n 2"
        assert free_vars(f) == {"n"}
        for bound in ("n", "pow2(m)", "2^n"):
            assert parse_formula(f"all y < {bound} . P(y)").bound == bound

    def test_function_symbol_in_bound_is_not_free(self):
        assert free_vars(parse_formula("all f < pow2(m) . P(f)")) == {"m"}
        assert free_vars(parse_formula("all f < g (h(m), k) . P(f)")) == {"m", "k"}

    def test_integer_arguments_are_not_free(self):
        f = parse_formula("A(x, 12)")
        assert f == Atom("A", ("x", "12"))
        assert free_vars(f) == {"x"}

    @pytest.mark.parametrize("text, pos", [
        ("A(~, ->)", 2), ("A(x, ->)", 5), ("A(-1)", 2), ("A(x,)", 4), ("A(x y)", 4),
        ("all z < ( . A(z)", 8), ("all z < ) . A(z)", 8), ("all z < f(a) ) . A(z)", 13),
        ("all z < f(a . A(z)", 10), ("all z < a & b . A(z)", 10),
        ("all z < ~a . A(z)", 8), ("all z < a -> b . A(z)", 10), ("all z < a | b . A(z)", 10),
        ("all z < a < b . A(z)", 10), ("all z < . A(z)", 6),
    ])
    def test_bad_argument_or_bound(self, text, pos):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula(text)
        assert exc.value.pos == pos


class TestDepthLimit:
    def test_formulas_at_the_limit_parse_and_classify(self):
        d = MAX_PARSE_DEPTH
        accepted = {
            "~" * (d - 1) + "A": "Delta0",
            "all x . " * (d - 1) + "A(x)": "Pi(1)",
            "(" * (d - 1) + "A" + ")" * (d - 1): "Delta0",
            "A | (" * (d - 1) + "A" + ")" * (d - 1): "Delta0",
            "A -> " * (d - 1) + "A": "Delta0",
            "(A -> " * (d - 1) + "A" + ")" * (d - 1): "Delta0",
            " & ".join(["A"] * d): "Delta0",
            "~ ex x . " * ((d - 1) // 2) + "A(x)": "Pi(99)",
        }
        for text, label in accepted.items():
            assert str(classify(parse_formula(text))) == label

    def test_deeper_formulas_are_rejected(self):
        d = MAX_PARSE_DEPTH
        rejected = [
            "~" * d + "A",
            "all x . " * d + "A(x)",
            "(" * d + "A" + ")" * d,
            "A -> " * d + "A",
            " & ".join(["A"] * (d + 1)),
            "~" * 5000 + "A",
            "all x . " * 300 + "A(x)",
            "A -> " * 5000 + "A",
        ]
        for text in rejected:
            with pytest.raises(FormulaSyntaxError):
                parse_formula(text)


class TestHierarchyClass:
    def test_rendering(self):
        assert str(DELTA0) == "Delta0"
        assert str(HierarchyClass("Sigma", 1)) == "Sigma(1)"
        assert str(HierarchyClass("Pi", 2)) == "Pi(2)"

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            HierarchyClass("Delta0", 1)
        with pytest.raises(ValueError):
            HierarchyClass("Sigma")
        with pytest.raises(ValueError):
            HierarchyClass("Pi", 0)


class TestPrenexify:
    def test_idempotent(self):
        f = parse_formula("~(all x . A(x)) | ex y . B(y)")
        p = prenexify(f)
        assert prenexify(p) == p

    def test_negation_dualizes(self):
        p = prenexify(Not(parse_formula("all x . A(x)")))
        assert isinstance(p, Quant) and p.kind == EXISTS

    def test_bounded_quantifiers_stay_in_matrix(self):
        f = parse_formula("all x . ex y < x . A(x,y)")
        p = prenexify(f)
        assert p.kind == FORALL and p.bound is None
        # the outer variable is canonically renamed; the bound follows it
        assert isinstance(p.body, Quant) and p.body.bound == p.var

    def test_canonical_renaming(self):
        p = prenexify(parse_formula("all banana . ex kiwi . A(banana,kiwi)"))
        assert p.var == "q0" and p.body.var == "q1"

    def test_renaming_avoids_free_variables(self):
        p = prenexify(parse_formula("all x . A(x, q0)"))
        assert p.var != "q0"
        assert "q0" in free_vars(p)

    def test_bounded_variable_is_not_captured(self):
        p = prenexify(parse_formula("all x . ex q0 < x . P(x,q0)"))
        assert p == Quant(FORALL, "q1", None, Quant(EXISTS, "q0", "q1", Atom("P", ("q1", "q0"))))
        assert prenexify(p) == p

    def test_renamed_quantifiers_are_not_captured(self):
        p = prenexify(parse_formula("all x . (ex y . P(x,y)) & (all q0 . Q(q0,x))"))
        matrix = And(Atom("P", ("q0", "q1")), Atom("Q", ("q2", "q0")))
        assert p == Quant(FORALL, "q0", None, Quant(EXISTS, "q1", None,
                                                    Quant(FORALL, "q2", None, matrix)))
        assert prenexify(p) == p

    def test_function_symbol_in_bound_is_not_renamed(self):
        p = prenexify(parse_formula("all pow2 . all y < pow2(pow2) . P(y)"))
        assert p == Quant(FORALL, "q0", None, Quant(FORALL, "y", "pow2(q0)", Atom("P", ("y",))))
        assert prenexify(p) == p

    def test_unbounded_under_bounded_rejected(self):
        f = parse_formula("all x < n . ex y . A(x,y)")
        with pytest.raises(FormulaSyntaxError):
            prenexify(f)


class TestClassify:
    def test_goldbach_shape_is_pi_1(self):
        f = parse_formula(
            "all m . even(m) -> ex p < m . ex q < m . prime(p) & prime(q) & adds(m,p,q)"
        )
        assert classify(f) == HierarchyClass("Pi", 1)

    def test_triple_coloring_shape_is_sigma_1(self):
        f = parse_formula("ex m . all f < pow2(m) . has_mono_triple(f, m)")
        assert classify(f) == HierarchyClass("Sigma", 1)

    def test_forall_exists_is_pi_2(self):
        f = parse_formula("all x . ex y . A(x,y)")
        assert classify(f) == HierarchyClass("Pi", 2)

    def test_bounded_only_is_delta0(self):
        f = parse_formula("all x < n . ex y < x . A(x,y)")
        assert classify(f) == DELTA0

    def test_same_kind_quantifiers_form_one_block(self):
        f = parse_formula("ex x . ex y . A(x,y)")
        assert classify(f) == HierarchyClass("Sigma", 1)

    def test_classify_invariant_under_prenexify(self):
        f = parse_formula("~(all x . A(x)) & ex y . all z . B(y,z)")
        assert classify(f) == classify(prenexify(f))


def _random_prenex(rng):
    depth = rng.randint(0, 4)
    body = Atom("A", ("u",))
    names = [f"w{i}" for i in range(depth)]
    f = body
    for name in reversed(names):
        kind = rng.choice([FORALL, EXISTS])
        f = Quant(kind, name, None, f)
    if rng.random() < 0.3:
        f = Quant(rng.choice([FORALL, EXISTS]), "b", "u", f) if depth == 0 else f
    return f


class TestNegationDuality:
    def test_duality_on_generated_formulas(self):
        rng = random.Random(0)
        swap = {"Sigma": "Pi", "Pi": "Sigma"}
        for _ in range(1000):
            f = _random_prenex(rng)
            c = classify(f)
            cn = classify(Not(f))
            if c == DELTA0:
                assert cn == DELTA0
            else:
                assert cn == HierarchyClass(swap[c.label], c.index)


_GOLDEN_VARS = ("x", "y", "z", "q0", "q1")
_GOLDEN_BOUNDS = ("n", "x", "y", "q0", "2^x", "pow2(q1)")


def _random_formula(rng, depth):
    """A formula AST over all five node kinds, built without the parser;
    names shadow each other and collide with the canonical q0, q1."""
    roll = rng.random() if depth else 0.0
    if roll < 0.25:
        args = tuple(rng.choice(_GOLDEN_VARS + ("n",)) for _ in range(rng.randint(0, 2)))
        return Atom(rng.choice("PQR"), args)
    if roll < 0.4:
        return Not(_random_formula(rng, depth - 1))
    if roll < 0.7:
        node = rng.choice((And, Or, Implies))
        return node(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    bound = rng.choice(_GOLDEN_BOUNDS) if rng.random() < 0.3 else None
    kind = rng.choice((FORALL, EXISTS))
    return Quant(kind, rng.choice(_GOLDEN_VARS), bound, _random_formula(rng, depth - 1))


def _outcome(f):
    try:
        return f"{prenexify(f)!r} {classify(f)}"
    except FormulaSyntaxError as exc:
        return f"error: {exc}"


class TestPrenexGolden:
    def test_seeded_formulas(self):
        # pins the prenex form and class, or the rejection message, of
        # 2,000 seeded formulas (149 of them rejected)
        rng = random.Random(2024)
        lines = [_outcome(_random_formula(rng, rng.randint(0, 6))) for _ in range(2000)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "ee49ce3bb93e4f7753458a2e86c3ae46d89edb08f70a0529ec11592ab84d2ab1"
