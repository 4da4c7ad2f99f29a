import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from bruteforge import capset
from bruteforge.capset import (
    DimensionBudgetError,
    all_vectors,
    binary_cap,
    exact_cap,
    exact_cap_enumeration,
    extends_cap,
    is_cap_ap,
    vec_add,
    vec_neg,
    vec_sub,
)
from bruteforge.check import format_capset, is_cap, parse_capset_file
from bruteforge.stats import BudgetExhausted


class TestVectors:
    def test_all_vectors_lexicographic(self):
        vs = all_vectors(2)
        assert len(vs) == 9
        assert vs == sorted(vs)
        assert vs[0] == (0, 0) and vs[-1] == (2, 2)

    def test_arithmetic(self):
        assert vec_add((1, 2), (2, 2)) == (0, 1)
        assert vec_sub((0, 1), (2, 2)) == (1, 2)
        assert vec_neg((1, 2)) == (2, 1)


class TestIsCap:
    def test_coordinatewise_progression_is_a_line(self):
        assert not is_cap({(0, 0), (1, 1), (2, 2)})

    def test_square_is_a_cap(self):
        assert is_cap({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_small_sets_are_caps(self):
        assert is_cap(set())
        assert is_cap({(1, 2)})
        assert is_cap({(0, 0), (2, 1)})

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            is_cap([(0, 0), (0, 0)])

    def test_extends_cap_matches_is_cap(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 4)
            vs = rng.sample(all_vectors(n), rng.randint(0, min(5, 3**n)))
            if not is_cap(vs):
                continue
            v = rng.choice(all_vectors(n))
            if v in vs:
                assert not extends_cap(set(vs), v)
            else:
                assert extends_cap(set(vs), v) == is_cap(set(vs) | {v})

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=5))
    def test_dual_definitions_agree(self, seed, n):
        rng = random.Random(seed)
        vs = rng.sample(all_vectors(n), rng.randint(0, min(6, 3**n)))
        assert is_cap(vs) == is_cap_ap(vs)


def _is_cap_tuples(vectors):
    """The pair loop in tuple arithmetic that is_cap used to run."""
    vs = list(vectors)
    vset = set(vs)
    if len(vset) != len(vs):
        raise ValueError("vectors must be distinct")
    for i, x in enumerate(vs):
        for y in vs[i + 1 :]:
            z = vec_neg(vec_add(x, y))
            if z != x and z != y and z in vset:
                return False
    return True


def _random_cap(rng, n):
    """A maximal cap grown in a random order with the tuple oracle."""
    cap = []
    for v in rng.sample(all_vectors(n), 3**n):
        if extends_cap(set(cap), v):
            cap.append(v)
    return cap


class TestIsCapAgainstOracles:
    def test_random_sets(self):
        rng = random.Random(11)
        verdicts = set()
        for _ in range(400):
            n = rng.randint(0, 6)
            vs = rng.sample(all_vectors(n), rng.randint(0, min(40, 3**n)))
            verdict = is_cap(vs)
            assert verdict == _is_cap_tuples(vs)
            if len(vs) <= 7:
                assert verdict == is_cap_ap(vs)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_caps_and_one_point_more(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 5)
            cap = _random_cap(rng, n)
            assert is_cap(cap) and _is_cap_tuples(cap)
            rng.shuffle(cap)
            for v in rng.sample(all_vectors(n), min(10, 3**n)):
                if v not in cap:
                    # the cap is maximal, so any further point completes a line
                    assert not is_cap(cap + [v])
                    assert not _is_cap_tuples(cap + [v])

    def test_large_binary_caps(self):
        for n in (8, 9):
            cap = list(binary_cap(n))
            assert is_cap(cap) and _is_cap_tuples(cap)
            # 0^n, 1^n and 2^n are a line
            assert not is_cap(cap + [(2,) * n]) and not _is_cap_tuples(cap + [(2,) * n])

    def test_mixed_dimensions_and_digits_rejected(self):
        for bad in ([(0, 1), (1,)], [(0, 3)], [(0, -1), (1, 1)]):
            with pytest.raises(ValueError):
                is_cap(bad)


class TestBinaryCap:
    def test_size_and_capness(self):
        for n in range(1, 8):
            b = binary_cap(n)
            assert len(b) == 2**n
            assert is_cap(b)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            binary_cap(0)


def cap_bound(n, budget=None):
    """(size, exact) from exact_cap: the maximum it returns, or the lower
    bound its give-up carries."""
    try:
        return exact_cap(n, budget), True
    except BudgetExhausted as exc:
        return exc.partial, False


class TestExactCap:
    def test_tiny_dimensions_cross_checked(self):
        assert exact_cap_enumeration(1) == 2
        assert exact_cap_enumeration(2) == 4
        assert cap_bound(1) == (2, True)
        assert cap_bound(2) == (4, True)

    def test_bounds_sandwich(self):
        for n in (1, 2):
            size = exact_cap(n)
            assert 2**n <= size <= 3**n

    def test_budget_exhaustion_reports_lower_bound(self):
        with pytest.raises(BudgetExhausted) as err:
            exact_cap(3, budget=10)
        assert 1 <= err.value.partial <= 9
        assert str(err.value) == f">= {err.value.partial} (budget exhausted)"

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            exact_cap(0)

    @staticmethod
    def _recursive_exact_cap(n, budget=None):
        """The recursive form of exact_cap, the reference for its stack: one
        call per node, so a branch as deep as 2^n needs that many frames."""
        total = 3**n
        s, table = capset._split(n)
        halves = [(0, 0)]
        best, nodes, exhausted = 1, 0, False

        def extend(blocked, start):
            nonlocal best, nodes, exhausted
            if budget is not None:
                nodes += 1
                if nodes > budget:
                    exhausted = True
                    return
            size = len(halves)
            best = max(best, size)
            free = ~blocked >> start << start
            while True:
                low = free & -free
                i = low.bit_length() - 1
                if exhausted or i >= total or size + (total - i) <= best:
                    return
                free ^= low
                mask = blocked | low
                vh, vl = divmod(i, s)
                for xh, xl in halves:
                    mask |= 1 << (table[xh + vh] * s + table[xl + vl])
                halves.append((vh * s, vl * s))
                extend(mask, i + 1)
                halves.pop()

        extend(1, 1)
        return best, not exhausted

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stack_search_matches_the_recursive_one(self, n):
        # every budget up to 80 nodes, then a few larger: the bound at each
        # cut-off traces the node order.  Within 4000 nodes a branch holds at
        # most 262 vectors (n = 8), inside the default recursion limit
        budgets = [*range(81), 250, 1000, 4000] + [None] * (n <= 3)
        for budget in budgets:
            assert cap_bound(n, budget) == self._recursive_exact_cap(n, budget), budget


class TestCapsetFiles:
    def test_roundtrip(self):
        vectors = [(0, 2, 1), (1, 1, 0)]
        text = format_capset(vectors)
        assert parse_capset_file(text) == sorted(vectors)

    def test_comments_and_blanks(self):
        assert parse_capset_file("# header\n\n012\n") == [(0, 1, 2)]

    def test_bad_digit(self):
        with pytest.raises(ValueError):
            parse_capset_file("013\n")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse_capset_file("01\n012\n")
