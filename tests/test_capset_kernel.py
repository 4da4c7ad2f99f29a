"""Differential tests of the integer-coded cap-set kernel.

The kernel (vector codes, blocked-code walks, column evaluation of
priorities with and without a subtree cache, `exact_cap` on greedy's
blocked bytearray, the run's ColumnCache as evolve's one memo, and the
text, size and preorder walk of expression nodes) is checked against
slow references kept in this file: a tree-walking evaluator, a greedy
walk over tuple vectors built on the tuple oracle `extends_cap`, a
recursive formatter, and a walk that lists every node with its path from
the root.
"""

import concurrent.futures
import os
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from bruteforge import capset, cli, evolve as evolve_mod, priority
from bruteforge.capset import (
    all_vectors,
    code_vector,
    exact_cap,
    extends_cap,
    greedy_cap,
    vec_add,
    vec_neg,
)
from bruteforge.check import is_cap
from bruteforge.evolve import Candidate, EvolveConfig, evolve, propose, record_to_json
from bruteforge.priority import (
    BinOp,
    Const,
    Dim,
    ColumnCache,
    Index,
    eval_priority,
    format_expr,
    greedy,
    parse_expr,
    score,
)
from bruteforge.stats import BudgetExhausted

_U64 = 1 << 64
_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)


def _wrap(x):
    x &= _U64 - 1
    return x - _U64 if x > _I64_MAX else x


def vector_code(v):
    return int("".join(map(str, v)), 3)


def reference_eval(expr, v, n):
    """The tree-walking evaluator, one vector at a time."""

    def ev(e):
        if isinstance(e, Const):
            return _wrap(e.value)
        if isinstance(e, Dim):
            return n
        if isinstance(e, Index):
            return v[ev(e.index) % n]
        if isinstance(e, BinOp):
            a, b = ev(e.left), ev(e.right)
            if e.op == "+":
                return _wrap(a + b)
            if e.op == "-":
                return _wrap(a - b)
            if e.op == "*":
                return _wrap(a * b)
            if e.op == "%":
                return a if b == 0 else _wrap(a % abs(b))
            if e.op == "min":
                return min(a, b)
            if e.op == "max":
                return max(a, b)
            raise ValueError(e.op)
        raise TypeError(e)

    return ev(expr)


def reference_greedy(expr, n):
    """Greedy over tuples: rank by (-priority, tuple), keep what extends."""
    ranked = sorted(all_vectors(n), key=lambda v: (-reference_eval(expr, v, n), v))
    chosen = set()
    for v in ranked:
        if extends_cap(chosen, v):
            chosen.add(v)
    return chosen


def reference_root_key(expr, n):
    """The key a score ranks expr's root column under: the column over all
    vectors, or () for every expression that reads no digit."""
    if not any(isinstance(node, Index) for _, node in reference_subtrees(expr)):
        return ()
    return tuple(reference_eval(expr, v, n) for v in all_vectors(n))


def reference_format(e):
    """The recursive formatter, rebuilding every subtree's text."""
    if isinstance(e, Const):
        return str(e.value) if e.value >= 0 else f"({e.value})"
    if isinstance(e, Dim):
        return "n"
    if isinstance(e, Index):
        return f"v[{reference_format(e.index)}]"
    if e.op in ("min", "max"):
        return f"{e.op}({reference_format(e.left)}, {reference_format(e.right)})"
    return f"({reference_format(e.left)} {e.op} {reference_format(e.right)})"


def reference_subtrees(e):
    """(path, node) of every node of e, in preorder."""
    out = []
    stack = [((), e)]
    while stack:
        path, node = stack.pop()
        out.append((path, node))
        if isinstance(node, Index):
            stack.append((path + (0,), node.index))
        elif isinstance(node, BinOp):
            stack.append((path + (1,), node.right))
            stack.append((path + (0,), node.left))
    return out


def reference_replace(e, path, sub):
    """e with the node at `path` replaced by sub."""
    if not path:
        return sub
    head, rest = path[0], path[1:]
    if isinstance(e, Index):
        return Index(reference_replace(e.index, rest, sub))
    if head == 0:
        return BinOp(e.op, reference_replace(e.left, rest, sub), e.right)
    return BinOp(e.op, e.left, reference_replace(e.right, rest, sub))


_BIG = st.sampled_from(
    [_I64_MAX, _I64_MIN, _I64_MAX + 5, -(_U64 + 3), 3074457345618258602, 1 << 70]
)


def _exprs(max_leaves=12):
    leaves = st.one_of(
        st.integers(min_value=-9, max_value=9).map(Const),
        _BIG.map(Const),
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

    return st.recursive(leaves, extend, max_leaves=max_leaves)


class TestCodes:
    def test_code_order_is_lexicographic_order(self):
        for n in range(1, 6):
            vectors = all_vectors(n)
            assert [code_vector(c, n) for c in range(3**n)] == vectors
            columns = capset.digit_columns(n)
            assert columns == tuple(tuple(v[i] for v in vectors) for i in range(n))
            assert capset.digit_columns(n) is columns  # built once, immutable

    def test_third_points_match_tuple_arithmetic(self):
        # the split-table formula that greedy_cap and exact_cap inline
        rng = random.Random(5)
        for n in range(1, 13):
            s, table = capset._split(n)
            for _ in range(100):
                x, v = (tuple(rng.randrange(3) for _ in range(n)) for _ in range(2))
                (xh, xl), (vh, vl) = divmod(vector_code(x), s), divmod(vector_code(v), s)
                third = table[xh * s + vh] * s + table[xl * s + vl]
                assert third == vector_code(vec_neg(vec_add(x, v)))

    def test_walk_gives_a_maximal_cap(self):
        rng = random.Random(8)
        for n in range(1, 5):
            ranking = list(range(3**n))
            rng.shuffle(ranking)
            cap = {code_vector(c, n) for c in greedy_cap(ranking, n)}
            assert is_cap(cap)
            assert not any(extends_cap(cap, v) for v in all_vectors(n) if v not in cap)


class TestCompiledPriority:
    @settings(max_examples=300, deadline=None)
    @given(_exprs(), st.integers(min_value=1, max_value=4))
    def test_batch_matches_tree_walk(self, expr, n):
        vectors = all_vectors(n)
        values = priority._evaluate(expr, n, capset.digit_columns(n), None)
        assert expr.text == reference_format(expr)
        if isinstance(values, int):  # reads no digit
            values = [values] * len(vectors)
        assert list(values) == [reference_eval(expr, v, n) for v in vectors]
        assert all(_I64_MIN <= x <= _I64_MAX for x in values)

    @settings(max_examples=200, deadline=None)
    @given(_exprs(), st.integers(min_value=1, max_value=5), st.integers(0, 10**9))
    def test_eval_priority_matches_tree_walk(self, expr, n, seed):
        rng = random.Random(seed)
        v = tuple(rng.randrange(3) for _ in range(n))
        assert eval_priority(expr, v, n) == reference_eval(expr, v, n)

    def test_wraparound_and_mod_by_zero(self):
        texts = [
            "9223372036854775807 * 9223372036854775807 + v[0]",
            "(v[0] - 9223372036854775807) - 9223372036854775807",
            "v[v[1] * 99999999999999999999] % 0",
            "(0 - 9223372036854775807 - 1) % v[0]",
            "v[0] % (0 - 9223372036854775807 - 1)",
            "min(v[0], 18446744073709551616 + v[1])",
            "(v[0] % 0) * (n % 0) - 4611686018427387904 * (v[1] + 2)",
        ]
        for text in texts:
            expr = parse_expr(text)
            for n in (1, 2, 3):
                for v in all_vectors(n):
                    assert eval_priority(expr, v, n) == reference_eval(expr, v, n)


class TestExprNodes:
    @settings(max_examples=300, deadline=None)
    @given(_exprs())
    def test_text_and_size_match_the_references(self, expr):
        nodes = reference_subtrees(expr)
        assert expr.size == len(nodes)
        for _, node in nodes:
            assert node.text == format_expr(node) == reference_format(node)

    @settings(max_examples=100, deadline=None)
    @given(_exprs())
    def test_pickling_keeps_text_size_and_equality(self, expr):
        # the worker pool ships expressions this way
        copy = pickle.loads(pickle.dumps(expr))
        assert copy == expr and hash(copy) == hash(expr)
        assert (copy.text, copy.size) == (expr.text, expr.size)
        assert [n.text for _, n in reference_subtrees(copy)] == \
            [n.text for _, n in reference_subtrees(expr)]

    @settings(max_examples=100, deadline=None)
    @given(_exprs())
    def test_pickles_hold_fields_not_texts(self, expr):
        # text and size are derived again when a node is rebuilt
        data = pickle.dumps(expr)
        for _, node in reference_subtrees(expr):
            if isinstance(node, (Index, BinOp)):
                assert node.text.encode() not in data

    def test_nodes_are_slotted_and_frozen(self):
        expr = parse_expr("max(v[n % 2], -3) + 1")
        for _, node in reference_subtrees(expr):
            assert not hasattr(node, "__dict__")
            for name in ("text", "size", *(f.name for f in fields(node))):
                with pytest.raises(FrozenInstanceError):
                    setattr(node, name, getattr(node, name))
                with pytest.raises(FrozenInstanceError):
                    delattr(node, name)
        assert expr.text == "(max(v[(n % 2)], (-3)) + 1)" and expr.size == 8

    def test_fields_and_keyword_construction_are_unchanged(self):
        assert [[f.name for f in fields(cls)] for cls in (Const, Dim, Index, BinOp)] == [
            ["value"], [], ["index"], ["op", "left", "right"]]
        assert BinOp.__match_args__ == ("op", "left", "right")
        built = BinOp(op="-", left=Const(value=0), right=Index(index=Dim()))
        assert built == parse_expr("-v[n]") and built.text == "(0 - v[n])"
        assert replace(built, op="+").text == "(0 + v[n])"

    def test_parsed_and_built_trees_compare_and_hash_equal(self):
        built = BinOp("max", BinOp("%", Index(BinOp("*", Index(Const(1)), Const(2))), Dim()),
                      Const(-3))
        parsed = parse_expr("max(v[v[1] * 2] % n, -3)")
        assert parsed == built and hash(parsed) == hash(built)
        assert {parsed: 1}[built] == 1
        assert repr(parsed) == repr(built) and "text" not in repr(built)
        assert parsed != BinOp("min", built.left, built.right)

    def test_a_cached_subtree_is_looked_up_before_its_children(self, monkeypatch):
        cache = ColumnCache(3)
        expr = parse_expr("(v[0] + v[1]) * v[2]")
        assert score(expr, 3, cache) == score(expr, 3)
        walked = []
        real_evaluate = priority._evaluate

        def recording_evaluate(e, n, cols, cache):
            walked.append(e.text)
            return real_evaluate(e, n, cols, cache)

        monkeypatch.setattr(priority, "_evaluate", recording_evaluate)
        score(expr, 3, cache)
        assert walked == [expr.text]
        walked.clear()
        score(parse_expr("(v[0] + v[1]) - 1"), 3, cache)
        assert walked == ["((v[0] + v[1]) - 1)", "(v[0] + v[1])", "1"]


class TestPreorderWalk:
    @settings(max_examples=200, deadline=None)
    @given(_exprs(), _exprs(max_leaves=3))
    def test_node_and_replace_match_the_path_references(self, expr, sub):
        for k, (path, node) in enumerate(reference_subtrees(expr)):
            assert evolve_mod._node(expr, k) is node
            assert evolve_mod._replace(expr, k, sub) == reference_replace(expr, path, sub)

    @settings(max_examples=200, deadline=None)
    @given(_exprs(), _exprs(), st.integers(0, 2**64 - 1))
    def test_propose_matches_the_path_references(self, e1, e2, seed):
        parents = [Candidate(e1, 1), Candidate(e2, 2)]
        children = [propose(parents[:count], seed) for count in (1, 2)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolve_mod, "_node", lambda e, k: reference_subtrees(e)[k][1])
            mp.setattr(evolve_mod, "_replace", lambda e, k, sub: reference_replace(
                e, reference_subtrees(e)[k][0], sub))
            assert [propose(parents[:count], seed) for count in (1, 2)] == children


class TestGreedy:
    @settings(max_examples=150, deadline=None)
    @given(_exprs(), st.integers(min_value=1, max_value=4))
    def test_matches_reference_greedy(self, expr, n):
        expected = reference_greedy(expr, n)
        assert greedy(expr, n) == expected
        assert score(expr, n) == len(expected)

    @pytest.mark.parametrize(
        "text, n",
        [
            ("v[0] - v[1]", 5),
            ("0 - ((v[0]*v[0] + v[1]*v[1] - v[2]) % 3)", 5),
            ("max(v[1], v[3] * n) % 4 - v[v[2]]", 5),
            ("(v[0] * v[5] + v[2]) % 3 - min(v[1], v[4])", 6),
        ],
    )
    def test_matches_reference_greedy_fixed(self, text, n):
        expr = parse_expr(text)
        assert greedy(expr, n) == reference_greedy(expr, n)


def cap_bound(n, budget=None):
    """(size, exact) from exact_cap: the maximum it returns, or the lower
    bound its give-up carries."""
    try:
        return exact_cap(n, budget=budget), True
    except BudgetExhausted as exc:
        assert str(exc) == f">= {exc.partial} (budget exhausted)"
        return exc.partial, False


class TestExactCap:
    # (size, exact) of the tuple-based branch and bound this kernel replaced
    @pytest.mark.parametrize(
        "n, budget, bound",
        [
            (1, None, (2, True)),
            (2, None, (4, True)),
            (3, None, (9, True)),
            (3, 10, (8, False)),
            (3, 500, (9, False)),
            (4, 2000, (18, False)),
            (3, 0, (1, False)),
            (3, 17, (8, False)),
            (3, 18, (9, False)),
            (2, 3, (3, False)),
            (4, 17, (16, False)),
            (4, 50, (18, False)),
            # from the 3^n-bit int search that the blocked bytearray replaced
            (10, 2000, (1032, False)),
            (11, 3000, (2057, False)),
            (12, 300, (300, False)),
        ],
    )
    def test_pinned_bounds(self, n, budget, bound):
        assert cap_bound(n, budget) == bound

    def test_node_count_is_unchanged(self):
        # the full searches visit 34 and 39,928 nodes
        assert cap_bound(2, 33) == (4, False)
        assert cap_bound(2, 34) == (4, True)
        assert cap_bound(3, 39927) == (9, False)
        assert cap_bound(3, 39928) == (9, True)


def _sharing(exprs):
    """exprs, then children that share subtrees with them, as evolve's do,
    and (a + 0), whose root column is a's under another text."""
    out = list(exprs)
    for a, b in zip(exprs, exprs[1:] + exprs[:1]):
        out += [BinOp("+", a, b), Index(a), BinOp("max", BinOp("%", b, a), a),
                BinOp("+", a, Const(0))]
    return out


class TestColumnCache:
    def _check_shared(self, exprs, n):
        """Score through one cache; each score must equal a fresh one and
        the reference's, the cache must stay within its bound, and a memo
        hit (a score that runs no greedy_cap) needs a root column that was
        ranked before.  Returns, per score, the cache's size, whether the
        memo was hit, and whether the column had been ranked before.  Every
        expression that reads no digit ranks under one key, ()."""
        cache = ColumnCache(n)
        sizes, hits, seen, ranked, walks = [], [], [], set(), []

        def counted_greedy_cap(ranking, n):
            walks.append(n)
            return greedy_cap(ranking, n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(priority, "greedy_cap", counted_greedy_cap)
            for expr in _sharing(exprs):
                expected = len(reference_greedy(expr, n))
                assert score(expr, n) == expected
                walks.clear()
                assert score(expr, n, cache) == expected
                assert len(cache) * 3**n <= priority.CACHE_CELLS
                sizes.append(len(cache))
                hits.append(not walks)
                key = reference_root_key(expr, n)
                seen.append(key in ranked)
                assert seen[-1] or not hits[-1]
                ranked.add(key)
        return sizes, hits, seen

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_exprs(max_leaves=8), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=4))
    def test_shared_cache_matches_fresh_and_reference(self, exprs, n):
        # no clear at this bound: every column ranked before is a hit
        _, hits, seen = self._check_shared(exprs, n)
        assert hits == seen

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_exprs(max_leaves=8), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3))
    def test_tiny_bound_clears_mid_run(self, exprs, n, columns):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(priority, "CACHE_CELLS", columns * 3**n)
            self._check_shared(exprs, n)

    def test_full_cache_is_cleared(self, monkeypatch):
        # each score stores a column and then its memo entry, which fill
        # the two entries; the repeat of the first text finds neither
        monkeypatch.setattr(priority, "CACHE_CELLS", 2 * 27)
        texts = ["v[0] + v[1]", "(v[0] + v[1]) * v[2]", "max(v[0], v[2])", "v[0] + v[1]"]
        sizes, hits, seen = self._check_shared([parse_expr(t) for t in texts], 3)
        assert (sizes[:4], hits[:4], seen[:4]) == (
            [2, 2, 2, 2], [False] * 4, [False, False, False, True])

    def test_constants_are_ranked_once(self, monkeypatch):
        walks = []

        def counted_greedy_cap(ranking, n):
            walks.append(n)
            return greedy_cap(ranking, n)

        size = len(reference_greedy(Const(0), 3))
        monkeypatch.setattr(priority, "greedy_cap", counted_greedy_cap)
        cache = ColumnCache(3)
        texts = ("0", "n", "3", "n * 2 - 1")
        assert [score(parse_expr(t), 3, cache) for t in texts] == [size] * 4
        assert walks == [3]
        # a column that reads a digit is keyed by its values, even if constant
        assert score(parse_expr("v[0] * 0"), 3, cache) == size and walks == [3, 3]

    def test_cache_serves_one_dimension(self):
        cache = ColumnCache(3)
        expr = parse_expr("v[0] + v[1] * v[2]")
        score(expr, 3, cache)
        kept = dict(cache)
        for n in (2, 4):
            with pytest.raises(ValueError, match="dimension 3 used at dimension"):
                score(expr, n, cache)
        assert cache == kept

    def test_one_cache_per_scoring_process_and_run(self, monkeypatch):
        # every score call of a run, serial or in a pool worker (here one
        # that runs its initializer and scores in this process), gets that
        # process's one ColumnCache(n), a fresh one per run
        caches, pools = [], []
        real_score = evolve_mod.score

        def recording_score(expr, n, cache=None):
            caches.append(cache)
            return real_score(expr, n, cache)

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                initializer(*initargs)

            map = staticmethod(map)

            def shutdown(self):
                pass

        monkeypatch.setattr(evolve_mod, "score", recording_score)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = EvolveConfig(n=3, seed=0, eval_budget=40)
        runs = []
        for pool_min_n in (4, 4, 3, 3):  # two serial runs, then two in the pool
            monkeypatch.setattr(evolve_mod, "POOL_MIN_N", pool_min_n)
            evolve(config)
            runs.append(caches[:])
            caches.clear()
            assert evolve_mod._cache is None  # the run leaves no cache behind
        assert pools == [2, 2]
        for run in runs:
            assert isinstance(run[0], ColumnCache) and run[0].n == 3
            assert all(cache is run[0] for cache in run)
        assert len({id(run[0]) for run in runs}) == 4

    def _check_rescored(self, wrong, capsys):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ColumnCache, "store", lambda self, key, value: self.__setitem__(
                key, wrong(key, value)))
            assert cli.main(["capset", "evolve", "--n", "3", "--seed", "2", "--evals", "100"]) == 3
        assert "does not re-score" in capsys.readouterr().err

    def test_cli_rescores_the_best_without_the_runs_cache(self, capsys):
        # a cache that hands back wrong columns must not vouch for itself
        self._check_rescored(lambda key, value: value[::-1] if isinstance(key, str) else value,
                             capsys)

    def test_cli_rescores_the_best_without_the_runs_memo(self, capsys):
        # nor one that hands back wrong cap sizes for a ranked column
        self._check_rescored(lambda key, value: value if isinstance(key, str) else value + 1,
                             capsys)


class TestScoreMemo:
    def test_a_ranked_column_is_not_ranked_again(self, monkeypatch):
        # equal root columns under different texts; only the first is ranked
        walks = []
        monkeypatch.setattr(priority, "greedy_cap",
                            lambda ranking, n: walks.append(n) or greedy_cap(ranking, n))
        first, second = parse_expr("v[0]"), parse_expr("v[0] + 0")
        expected = score(second, 3)
        walks.clear()
        cache = ColumnCache(3)
        assert score(first, 3, cache) == expected and len(walks) == 1
        assert score(second, 3, cache) == expected and len(walks) == 1
        assert first.text != second.text

    def test_a_repeated_text_is_not_walked_again(self, monkeypatch):
        # the run's ColumnCache is its one memo, and at n = 3 it never
        # clears: each root key ranked is walked once, however many texts
        # and repeats share it, and the log is the golden one
        walks = []
        monkeypatch.setattr(priority, "greedy_cap",
                            lambda ranking, n: walks.append(n) or greedy_cap(ranking, n))
        _, records = evolve(EvolveConfig(n=3, seed=0, eval_budget=300))
        with open(os.path.join(os.path.dirname(__file__), "data", "evolve_n3_seed0.jsonl")) as f:
            golden = [next(f) for _ in records]
        assert [record_to_json(r) + "\n" for r in records] == golden
        texts = {r["expr"] for r in records}
        keys = {reference_root_key(parse_expr(t), 3) for t in texts}
        assert len(walks) == len(keys) < len(texts) < len(records)
