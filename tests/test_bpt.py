import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from bruteforge import bpt, check, cli, sat
from bruteforge.bpt import (
    MissingVariableError,
    Threshold,
    coloring_from_model,
    encode,
    exhaustive_satisfiable,
    find_threshold,
)
from bruteforge.check import (
    Coloring,
    DomainGapError,
    InvalidColorError,
    VALID,
    members,
    triples,
    verify_coloring,
)
from bruteforge.logic import Assignment, Cnf, VerificationError, write_dimacs


def _brute_triples(m):
    out = []
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            for c in range(b + 1, m + 1):
                if a * a + b * b == c * c:
                    out.append((a, b, c))
    return sorted(out, key=lambda t: (t[2], t[0]))


def _scan_triples(m):
    """Reference enumeration in O(m^2): for each c, every leg a below
    c/sqrt(2) whose partner c^2 - a^2 is a perfect square."""
    out = []
    for c in range(1, m + 1):
        c2 = c * c
        for a in range(1, c):
            b2 = c2 - a * a
            if b2 <= a * a:
                break
            b = math.isqrt(b2)
            if b * b == b2:
                out.append((a, b, c))
    out.sort(key=lambda t: (t[2], t[0]))
    return tuple(out)


def coloring_to_model(coloring, varmap):
    """Inverse of coloring_from_model over varmap's domain, for 0/1 colorings:
    any truthy color maps to True, so it is no check of the colors."""
    return Assignment({varmap[i]: bool(c) for i, c in coloring.colors.items()})


class TestTriples:
    def test_against_cubic_scan(self):
        for m in (1, 5, 13, 20, 60, 100):
            assert list(triples(m)) == _brute_triples(m)

    def test_twenty(self):
        assert triples(20) == (
            (3, 4, 5),
            (6, 8, 10),
            (5, 12, 13),
            (9, 12, 15),
            (8, 15, 17),
            (12, 16, 20),
        )

    def test_members_twenty(self):
        assert len(members(20)) == 13

    def test_no_triples_below_five(self):
        assert triples(4) == ()
        assert members(4) == set()

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            triples(0)

    def test_members_is_the_union_of_the_triples(self):
        for m in (5, 20, 100, 1000):
            ms = members(m)
            assert type(ms) is frozenset
            assert ms == {x for t in triples(m) for x in t}


class TestEuclidEnumeration:
    """`triples` from Euclid's formula against the scan it replaced."""

    def test_equals_scan_for_every_small_bound(self):
        for m in range(1, 601):
            assert triples(m) == _scan_triples(m), m

    @pytest.mark.parametrize("m", [1000, 1700, 2000, 3000])
    def test_equals_scan_at_large_bounds(self, m):
        assert triples(m) == _scan_triples(m)

    @settings(deadline=None)
    @given(st.integers(1, 5000))
    def test_triples_are_pythagorean_sorted_and_distinct(self, m):
        ts = triples(m)
        for a, b, c in ts:
            assert a * a + b * b == c * c
            assert 0 < a < b < c <= m
        keys = [(c, a) for a, _, c in ts]
        assert all(k < nxt for k, nxt in zip(keys, keys[1:]))
        assert len(set(ts)) == len(ts)

    def test_encode_1000_dimacs_is_pinned(self):
        # SHA-256 computed with the scan enumeration
        text = write_dimacs(encode(1000)[0])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "cbb3e63889cdc42bcef535b2ae245737a86c6ad55bb1412b0be9cdc5cdb4e6af"
        )

    @pytest.mark.parametrize("m", [100, 7825])
    def test_encode_dimacs_is_pinned(self, m):
        # m = 1000 is pinned above; 7825 is the reference threshold
        text = write_dimacs(encode(m)[0])
        assert hashlib.sha256(text.encode()).hexdigest() == {
            100: "27511de71e79f06d4ee42abe909b2db7aeda2852925adeaa851b798c0522fe63",
            7825: "ce144b4755100b7f0adc3d41852817198ac79d01d807efb33b6157a2d03b34e5",
        }[m]

    def test_solve_1000_coloring_is_pinned(self, tmp_path):
        # SHA-256 computed with the scan enumeration
        path = tmp_path / "col.txt"
        assert cli.main(["bpt", "solve", "1000", "--coloring", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "77814a9551d974064e616f6007742d9f26aeed76db8fe21e0234ee6986961adc"
        )


class TestLargeBounds:
    def test_solve_3000_coloring_verifies(self, tmp_path):
        path = tmp_path / "col.txt"
        assert cli.main(["bpt", "solve", "3000", "--coloring", str(path)]) == 0
        colors = dict(map(int, line.split()) for line in path.read_text().splitlines())
        assert verify_coloring(Coloring(3000, colors), 3000) == VALID


class TestEncode:
    def test_smallest_nontrivial_encoding(self):
        cnf, varmap = encode(5)
        assert cnf.num_vars == 3
        assert len(cnf.clauses) == 2
        assert set(varmap) == {3, 4, 5}

    def test_block_shape(self):
        cnf, varmap = encode(5)
        pos = frozenset(varmap.values())
        neg = frozenset(-v for v in varmap.values())
        assert set(cnf.clauses) == {pos, neg}

    def test_counts_track_structure(self):
        for m in (5, 20, 50, 120):
            cnf, varmap = encode(m)
            assert cnf.num_vars == len(members(m))
            assert len(cnf.clauses) == 2 * len(triples(m))
            assert set(varmap) == members(m)


class TestColorings:
    def test_verify_valid(self):
        c = Coloring(5, {3: 1, 4: 1, 5: 0})
        assert verify_coloring(c, 5) == VALID

    def test_verify_returns_witness(self):
        c = Coloring(5, {3: 1, 4: 1, 5: 1})
        assert verify_coloring(c, 5) == (3, 4, 5)

    def test_domain_gap(self):
        with pytest.raises(DomainGapError):
            verify_coloring(Coloring(5, {3: 1}), 5)

    def test_a_color_per_member_is_no_2_coloring(self):
        # no triple is monochromatic, so without the color check this was VALID
        colors = {i: i for i in members(30)}
        with pytest.raises(InvalidColorError) as raised:
            verify_coloring(Coloring(30, colors), 30)
        assert isinstance(raised.value, ValueError)
        assert str(raised.value) == "member 3 has color 3, not 0 or 1"

    @pytest.mark.parametrize("color", [2, -1, None, "1", 0.5])
    def test_one_bad_color_is_named(self, color):
        colors = {i: i % 2 for i in members(30)}
        colors[25] = color
        with pytest.raises(InvalidColorError) as raised:
            verify_coloring(Coloring(30, colors), 30)
        assert str(raised.value) == f"member 25 has color {color!r}, not 0 or 1"

    def test_bool_colors_are_0_and_1(self):
        assert verify_coloring(Coloring(5, {3: True, 4: True, 5: False}), 5) == VALID
        assert verify_coloring(Coloring(5, {3: True, 4: True, 5: True}), 5) == (3, 4, 5)

    def test_colors_are_read_once(self):
        class CountingColoring:
            def __init__(self, colors):
                self._colors, self.reads = colors, 0

            @property
            def colors(self):
                self.reads += 1
                return self._colors

        cnf, varmap = encode(100)
        colors = coloring_from_model(sat.solve(cnf).model, varmap, 100).colors
        recolored = {**colors, 3: colors[5], 4: colors[5]}
        for c, want in ((colors, VALID), (recolored, (3, 4, 5))):
            coloring = CountingColoring(c)
            assert verify_coloring(coloring, 100) == want
            assert coloring.reads == 1
        coloring = CountingColoring({**colors, 7: 2})
        with pytest.raises(InvalidColorError):
            verify_coloring(coloring, 100)
        assert coloring.reads == 1

    def test_model_roundtrip(self):
        _, varmap = encode(20)
        coloring = Coloring(20, {i: i % 2 for i in members(20)})
        model = coloring_to_model(coloring, varmap)
        assert coloring_from_model(model, varmap, 20) == coloring

    def test_missing_variable(self):
        _, varmap = encode(5)
        with pytest.raises(MissingVariableError):
            coloring_from_model(Assignment({}), varmap, 5)


class TestSolvePipeline:
    def test_solver_agrees_with_exhaustive_small(self):
        for m in range(1, 31):
            cnf, varmap = encode(m)
            verdict = sat.solve(cnf)
            assert verdict.satisfiable == exhaustive_satisfiable(m)
            if verdict.satisfiable and varmap:
                coloring = coloring_from_model(verdict.model, varmap, m)
                assert verify_coloring(coloring, m) == VALID

    def test_scan_all_satisfiable(self):
        result = find_threshold(60)
        assert result == bpt.solve(60)
        assert result.m == 60
        assert verify_coloring(result, 60) == VALID

    def test_scan_rejects_bad_arguments(self):
        for max_m in (0, -3):
            with pytest.raises(ValueError):
                find_threshold(max_m)


class TestFindThreshold:
    """find_threshold against a fake bpt.solve whose bounds are
    unsatisfiable from T on: a real certificate, a fresh object per call."""

    CNF = Cnf((frozenset({1}), frozenset({-1})), 1)  # x1 and not x1

    @pytest.fixture
    def fake_solve(self, monkeypatch):
        cert = sat.solve(self.CNF).certificate
        state = {"T": None, "probes": [], "certs": {}}

        def solve(m):
            state["probes"].append(m)
            if m < state["T"]:
                return Coloring(m, {})
            state["certs"][m] = check.Certificate(cert.lines, cert.ids, cert.hints)
            return state["certs"][m]

        monkeypatch.setattr(bpt, "solve", solve)
        return state

    def test_least_unsatisfiable_bound_within_the_probe_bound(self, fake_solve):
        for max_m in range(1, 65):
            for T in range(1, max_m + 2):
                fake_solve.update(T=T, probes=[], certs={})
                result = find_threshold(max_m)
                if T > max_m:
                    assert result == Coloring(max_m, {})
                    assert fake_solve["probes"] == [max_m]
                    continue
                assert isinstance(result, Threshold)
                assert result.m == T
                assert result.certificate is fake_solve["certs"][T]
                assert check.check_certificate(self.CNF, result.certificate)
                # ceil(log2 max_m) + 1
                assert len(fake_solve["probes"]) <= (max_m - 1).bit_length() + 1
                assert fake_solve["probes"][0] == max_m

    def test_cli_prints_the_threshold_and_writes_its_certificate(self, fake_solve,
                                                                 tmp_path, capsys):
        fake_solve["T"] = 37
        path = tmp_path / "c.txt"
        assert cli.main(["bpt", "scan", "--max", "50", "--cert", str(path)]) == 0
        assert capsys.readouterr().out == "threshold: first unsatisfiable m = 37\n"
        assert path.read_text() == fake_solve["certs"][37].to_text()
        assert check.check_certificate(self.CNF, check.Certificate.from_text(path.read_text()))


class TestCheckedSolve:
    """bpt.solve returns only a verdict that its check accepts."""

    def test_every_small_bound_gives_a_valid_coloring(self):
        for m in range(1, 61):
            coloring = bpt.solve(m)
            assert isinstance(coloring, Coloring)
            assert verify_coloring(coloring, m) == VALID

    @pytest.fixture
    def unsatisfiable(self, monkeypatch):
        # x1 and not x1 in place of the encoding
        cnf = Cnf((frozenset({1}), frozenset({-1})), 1)
        monkeypatch.setattr(bpt, "encode", lambda m: (cnf, {}))
        return cnf

    def test_unsatisfiable_encoding_gives_a_checked_certificate(self, unsatisfiable):
        cert = bpt.solve(5)
        assert isinstance(cert, check.Certificate)
        assert check.check_certificate(unsatisfiable, cert)

    def test_certificate_that_does_not_check_raises(self, unsatisfiable, monkeypatch):
        monkeypatch.setattr(check, "check_certificate", lambda cnf, cert: False)
        with pytest.raises(VerificationError, match="certificate does not check"):
            bpt.solve(5)

    def test_cli_writes_the_checked_certificate(self, unsatisfiable, tmp_path):
        path = tmp_path / "c.txt"
        assert cli.main(["bpt", "solve", "5", "--cert", str(path)]) == 1
        assert path.read_text() == bpt.solve(5).to_text()
        assert check.check_certificate(unsatisfiable, check.Certificate.from_text(path.read_text()))


class TestTriplesComputedOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []
        real = check.triples

        def counting(m):
            counter.append(m)
            return real(m)

        monkeypatch.setattr(check, "triples", counting)
        return counter

    def test_encode(self, calls):
        members.cache_clear()
        encode(100)
        # members(100) reads the tuple to build its set, then encode iterates it
        assert calls == [100, 100]

    def test_verify_coloring(self, calls):
        cnf, varmap = encode(100)
        coloring = coloring_from_model(sat.solve(cnf).model, varmap, 100)
        del calls[:]
        assert verify_coloring(coloring, 100) == VALID
        assert calls == [100]


class TestTriplesCache:
    """triples keeps only its latest bound, keyed by value and type."""

    def test_interleaved_bounds_match_the_reference(self):
        before = triples.cache_info().misses
        for m in (50, 300, 50, 1000, 300, 300):
            assert triples(m) == _scan_triples(m)
        # only the repeated 300 is a hit: an earlier bound is enumerated again
        assert triples.cache_info().misses - before == 5

    def test_encode_then_verify_enumerates_once(self):
        triples(7)  # some other bound is the latest of both caches
        members(7)
        before = triples.cache_info(), members.cache_info()
        cnf, varmap = encode(400)
        coloring = coloring_from_model(sat.solve(cnf).model, varmap, 400)
        assert verify_coloring(coloring, 400) == VALID
        after = triples.cache_info(), members.cache_info()
        # members(400) misses once and reads triples(400), its one miss;
        # encode and verify_coloring each read both caches once more
        assert [(a.misses - b.misses, a.hits - b.hits) for a, b in zip(after, before)] == [
            (1, 2), (1, 1)]

    def test_recolored_triple_is_found_after_encode(self):
        cnf, varmap = encode(300)
        colors = dict(coloring_from_model(sat.solve(cnf).model, varmap, 300).colors)
        encode(300)
        for a, b, c in ((3, 4, 5), (60, 91, 109), (180, 240, 300)):
            recolored = {**colors, a: colors[c], b: colors[c]}
            first = next(t for t in _scan_triples(300)
                         if recolored[t[0]] == recolored[t[1]] == recolored[t[2]])
            assert verify_coloring(Coloring(300, recolored), 300) == first
        assert verify_coloring(Coloring(300, colors), 300) == VALID

    def test_non_positive_bound_raises_every_time(self):
        for m in (0, 0, 20, 0, -3):
            if m < 1:
                with pytest.raises(ValueError):
                    triples(m)
            else:
                assert len(triples(m)) == 6

    def test_float_bound_is_not_served_from_the_int_entry(self):
        triples(1000)
        with pytest.raises(TypeError):
            triples(1000.0)
