import random

import pytest
from hypothesis import given, settings, strategies as st

from bruteforge.capset import DimensionBudgetError
from bruteforge.check import is_cap
from bruteforge.logic import MAX_PARSE_DEPTH
from bruteforge.priority import (
    BinOp,
    Const,
    Dim,
    ExprSyntaxError,
    Index,
    eval_priority,
    format_expr,
    greedy,
    parse_expr,
    score,
)

_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)


def _exprs():
    leaves = st.one_of(
        st.integers(min_value=-9, max_value=9).map(Const),
        st.just(Dim()),
        st.integers(min_value=0, max_value=7).map(lambda i: Index(Const(i))),
    )

    def extend(children):
        return st.one_of(
            st.builds(
                BinOp, st.sampled_from(["+", "-", "*", "%", "min", "max"]), children, children
            ),
            st.builds(Index, children),
        )

    return st.recursive(leaves, extend, max_leaves=10)


class TestEval:
    def test_constants_and_dim(self):
        assert eval_priority(Const(7), (0, 1)) == 7
        assert eval_priority(Dim(), (0, 1, 2)) == 3

    def test_index_wraps_mod_n(self):
        v = (0, 1, 2)
        assert eval_priority(Index(Const(4)), v) == 1
        assert eval_priority(Index(Const(-1)), v) == 2

    def test_mod_by_zero_is_left_identity(self):
        e = BinOp("%", Const(7), Const(0))
        assert eval_priority(e, (0,)) == 7

    def test_mod_is_euclidean(self):
        e = BinOp("%", Const(-7), Const(3))
        assert eval_priority(e, (0,)) == 2

    def test_wraparound_is_64_bit(self):
        big = BinOp("*", Const(_I64_MAX), Const(_I64_MAX))
        assert _I64_MIN <= eval_priority(big, (0,)) <= _I64_MAX

    @pytest.mark.parametrize("text, v, n", [
        ("1", (), None),  # empty vector
        ("v[0]", (), None),
        ("v[2]", (0, 1), 3),  # n above len(v)
        ("v[2]", (0, 1, 2), 2),  # n below len(v)
        ("n", (0,), 0),
    ], ids=["const-empty", "index-empty", "n-above-length", "n-below-length", "n-zero"])
    def test_vector_length_must_be_n(self, text, v, n):
        with pytest.raises(ValueError, match="vector of length"):
            eval_priority(parse_expr(text), v, n)

    @settings(max_examples=200, deadline=None)
    @given(_exprs(), st.integers(min_value=1, max_value=4), st.integers(0, 10**9))
    def test_total_and_bounded(self, expr, n, seed):
        rng = random.Random(seed)
        v = tuple(rng.randrange(3) for _ in range(n))
        value = eval_priority(expr, v, n)
        assert _I64_MIN <= value <= _I64_MAX


class TestParseFormat:
    def test_grammar_basics(self):
        assert parse_expr("v[0] + 2 * n") == BinOp(
            "+", Index(Const(0)), BinOp("*", Const(2), Dim())
        )
        assert parse_expr("min(v[0], 1)") == BinOp("min", Index(Const(0)), Const(1))
        assert format_expr(BinOp("max", Dim(), Const(-1))) == "max(n, (-1))"

    def test_unary_minus(self):
        assert parse_expr("-3") == Const(-3)
        assert parse_expr("-v[0]") == BinOp("-", Const(0), Index(Const(0)))

    def test_syntax_errors(self):
        for bad in ("v[", "min(1)", "1 +", "q", ""):
            with pytest.raises(ExprSyntaxError):
                parse_expr(bad)

    def test_depth_limit(self):
        d = MAX_PARSE_DEPTH
        # at the limit: brackets, a tree of Index nodes, a left-deep sum
        accepted = ["(" * (d - 1) + "1" + ")" * (d - 1), "v[" * (d - 1) + "0" + "]" * (d - 1),
                    " + ".join(["v[0]"] * (d - 1)), "-" * (d - 2) + "v[0]", "-" * 5000 + "1"]
        for text in accepted:
            expr = parse_expr(text)
            assert parse_expr(format_expr(expr)) == expr
            eval_priority(expr, (0, 1))
        rejected = ["(" * d + "1" + ")" * d, "v[" * d + "0" + "]" * d,
                    " + ".join(["v[0]"] * d), "-" * (d - 1) + "v[0]", "-" * 5000 + "v[0]",
                    "(" * 5000 + "1" + ")" * 5000]
        for text in rejected:
            with pytest.raises(ExprSyntaxError):
                parse_expr(text)

    @settings(max_examples=200, deadline=None)
    @given(_exprs())
    def test_roundtrip(self, expr):
        assert parse_expr(format_expr(expr)) == expr


class TestGreedy:
    def test_constant_zero_n2(self):
        assert greedy(Const(0), 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_output_is_always_a_cap(self):
        rng = random.Random(9)
        for _ in range(30):
            expr = parse_expr(
                rng.choice(["v[0]", "n - v[1]", "v[0] * v[1]", "0", "min(v[0], v[1])"])
            )
            n = rng.randint(1, 3)
            chosen = greedy(expr, n)
            assert is_cap(chosen)
            assert score(expr, n) == len(chosen)

    def test_deterministic(self):
        e = parse_expr("v[0] - v[1]")
        assert greedy(e, 3) == greedy(e, 3)

    def test_dimension_limits(self):
        with pytest.raises(ValueError):
            greedy(Const(0), 0)
        with pytest.raises(DimensionBudgetError):
            greedy(Const(0), 13)

    def test_paraboloid_expression_scores_nine(self):
        e = parse_expr("0 - ((v[0]*v[0] + v[1]*v[1] - v[2]) % 3)")
        assert score(e, 3) == 9
