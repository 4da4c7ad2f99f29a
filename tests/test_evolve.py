import concurrent.futures
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from bruteforge import evolve as evolve_mod
from bruteforge.check import is_cap
from bruteforge.evolve import (
    Candidate,
    EvolveConfig,
    ExternalGenerator,
    GeneratorError,
    Population,
    derive_seed,
    evolve,
    propose,
    record_to_json,
)
from bruteforge.priority import Const, format_expr, greedy, parse_expr

DATA = os.path.join(os.path.dirname(__file__), "data")


def _cand(expr_text, sc):
    return Candidate(parse_expr(expr_text), sc)


def _set_usable_cpus(monkeypatch, count, installed=None):
    """Give this process `count` usable CPUs of `installed`; a None count
    stands for a platform with no affinity call, where the CPU count is
    `installed`."""
    if count is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: installed)


@pytest.fixture
def inline_pool(monkeypatch):
    """ProcessPoolExecutor replaced by a pool that runs its initializer and
    scores in this process; the list of each pool's worker count."""
    built = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            built.append(max_workers)
            initializer(*initargs)

        map = staticmethod(map)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return built


def _usable_cpu_count():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestPopulation:
    def test_capacity_enforced(self, monkeypatch):
        monkeypatch.setattr(evolve_mod, "CAPACITY", 2)
        p = Population()
        for i, sc in enumerate([3, 1, 2]):
            p.add(_cand(str(i), sc))
        assert len(p.members()) == 2
        assert {c.score for c in p.members()} == {3, 2}

    def test_best_member_never_evicted(self, monkeypatch):
        monkeypatch.setattr(evolve_mod, "CAPACITY", 3)
        p = Population()
        p.add(_cand("9", 9))
        for i in range(20):
            p.add(_cand(str(i), i % 5))
        assert [c.score for c in p.members()] == [9, 4, 4]

    def test_tie_break_prefers_earlier_arrival(self, monkeypatch):
        monkeypatch.setattr(evolve_mod, "CAPACITY", 1)
        p = Population()
        p.add(_cand("0", 4))
        p.add(_cand("1", 4))
        assert [format_expr(c.expr) for c in p.members()] == ["0"]


class PerAddTrimPopulation:
    """The population as it was: sorted and trimmed on every add, ties
    broken by an arrival counter."""

    def __init__(self):
        self.candidates = []
        self._arrivals = 0

    def add(self, candidate):
        self.candidates.append((self._arrivals, candidate))
        self._arrivals += 1
        if len(self.candidates) > evolve_mod.CAPACITY:
            self.candidates.sort(key=lambda ac: (-ac[1].score, ac[0]))
            del self.candidates[evolve_mod.CAPACITY:]

    def members(self):
        return [c for _, c in self.candidates]


class TestLazyTrim:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 6), st.none()), max_size=80),
           st.integers(1, 6))
    def test_members_match_a_trim_per_add(self, events, capacity):
        # an int adds a candidate with that score; None reads the members
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evolve_mod, "CAPACITY", capacity)
            lazy, oracle = Population(), PerAddTrimPopulation()
            for i, event in enumerate(events):
                if event is None:
                    assert lazy.members() == oracle.members()
                else:
                    cand = Candidate(Const(i), event)
                    lazy.add(cand)
                    oracle.add(cand)
            assert lazy.members() == oracle.members()

    def test_parents_are_drawn_as_before(self):
        # rng.choice(members) draws _randbelow(len) like randrange did
        members = [Candidate(Const(i), i % 5) for i in range(24)]
        for seed in range(200):
            rng, old = random.Random(seed), random.Random(seed)
            chosen = evolve_mod._select_parents(rng, members)
            expected = [max([members[old.randrange(24)] for _ in range(evolve_mod.TOURNAMENT)],
                            key=lambda c: c.score) for _ in range(2)]
            assert chosen == expected and rng.random() == old.random()


class TestSeeds:
    def test_derive_seed_is_stable(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)

    def test_derive_seed_separates_coordinates(self):
        seeds = {derive_seed(s, g, i) for s in range(3) for g in range(3) for i in range(3)}
        assert len(seeds) == 27


class TestPropose:
    def test_deterministic_in_seed(self):
        parents = [_cand("v[0] + 1", 3)]
        assert propose(parents, 42) == propose(parents, 42)

    def test_two_parent_proposals(self):
        parents = [_cand("v[0] + 1", 3), _cand("n * v[1]", 4)]
        child = propose(parents, 7)
        # child must be a well-formed expression: it formats and reparses
        assert parse_expr(format_expr(child)) == child

    def test_parent_count_validated(self):
        with pytest.raises(ValueError):
            propose([], 0)
        with pytest.raises(ValueError):
            propose([_cand("0", 1)] * 3, 0)


class TestEvolveLoop:
    def test_best_so_far_monotone_and_scores_reverify(self):
        _, records = evolve(EvolveConfig(n=2, seed=1, eval_budget=80))
        best = 0
        for r in records:
            assert r["score"] == len(greedy(parse_expr(r["expr"]), 2))
            assert is_cap(greedy(parse_expr(r["expr"]), 2))
            best = max(best, r["score"])
            assert r["best"] == best

    def test_byte_reproducible(self):
        cfg = EvolveConfig(n=2, seed=5, eval_budget=60)
        _, r1 = evolve(cfg)
        _, r2 = evolve(cfg)
        assert [record_to_json(a) for a in r1] == [record_to_json(b) for b in r2]

    def test_jobs_do_not_change_the_log(self, monkeypatch):
        # serial, then in a 2-worker pool
        _, serial = evolve(EvolveConfig(n=2, seed=3, eval_budget=60))
        monkeypatch.setattr(evolve_mod, "POOL_MIN_N", 2)
        _set_usable_cpus(monkeypatch, 2)
        _, pooled = evolve(EvolveConfig(n=2, seed=3, eval_budget=60))
        assert [record_to_json(a) for a in serial] == [record_to_json(b) for b in pooled]

    @pytest.mark.parametrize("n, cpus, batch, workers", [
        (2, 4, 10, None),  # n below POOL_MIN_N
        (3, 1, 10, None),  # one usable CPU
        (3, None, 10, None),  # no affinity call, and the CPU count unknown
        (3, 4, 1, None),  # one proposal per generation
        (3, 4, 10, 4),
        (4, 4, 3, 3),
    ])
    def test_pool_iff_n_reaches_threshold_and_several_workers(self, monkeypatch, inline_pool,
                                                              n, cpus, batch, workers):
        monkeypatch.setattr(evolve_mod, "POOL_MIN_N", 3)
        _set_usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(evolve_mod, "BATCH", batch)
        evolve(EvolveConfig(n=n, seed=0, eval_budget=6))
        assert inline_pool == ([] if workers is None else [workers])

    @pytest.mark.parametrize("usable, installed, workers", [
        (1, 4, None),  # pinned to one core of four, as under `taskset -c 0`
        (2, 8, 2),
        (None, 1, None),  # no affinity call: the CPU count decides
        (None, 3, 3),
    ])
    def test_workers_count_usable_cpus_not_installed_ones(self, monkeypatch, inline_pool,
                                                          usable, installed, workers):
        monkeypatch.setattr(evolve_mod, "POOL_MIN_N", 3)
        _set_usable_cpus(monkeypatch, usable, installed)
        evolve(EvolveConfig(n=3, seed=0, eval_budget=6))
        assert inline_pool == ([] if workers is None else [workers])

    def test_eval_budget_respected(self):
        _, records = evolve(EvolveConfig(n=2, seed=0, eval_budget=17))
        assert len([r for r in records if "score" in r]) == 17

    @pytest.mark.parametrize("n, seed, budget, digest", [
        (4, 1, 1000, "7f576e29d8429a3f6c1f921bfa05152dbca048bff1e2716422a58145523d5e07"),
        (5, 0, 500, "40f64ddff35822701df79f15ab52a948c7056d7bf3d9bc1bc7bd49922fe7b0fb"),
        (6, 0, 3000, "48be9b604929a68b19ee74e7bdc022454472ad2878c516be8b77a873b91adcff"),
    ])
    def test_serial_log_digest_is_pinned(self, n, seed, budget, digest):
        # the n=4 and n=5 digests are of logs written before scoring kept
        # subtree columns, and are checked through the CLI in CI as well;
        # the n=6 one, of a log written before nodes carried their text,
        # spans several clears of the run's ColumnCache
        assert n < evolve_mod.POOL_MIN_N
        _, records = evolve(EvolveConfig(n=n, seed=seed, eval_budget=budget))
        log = "".join(record_to_json(r) + "\n" for r in records)
        assert hashlib.sha256(log.encode()).hexdigest() == digest

    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
    def test_n8_log_digest_is_pinned_on_both_paths(self, monkeypatch, pooled):
        # n = 8 is where FunSearch's cap-set record is; the digest is of a
        # log written before pool workers kept a ColumnCache, and a real
        # 2-worker pool must write it byte for byte
        built = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                super().__init__(max_workers, **kwargs)
                built.append(max_workers)

        if pooled:
            if _usable_cpu_count() < 2:
                pytest.skip("a 2-worker pool needs 2 usable CPUs")
            _set_usable_cpus(monkeypatch, 2)
        else:
            monkeypatch.setattr(evolve_mod, "POOL_MIN_N", 9)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        _, records = evolve(EvolveConfig(8, seed=0, eval_budget=200))
        log = "".join(record_to_json(r) + "\n" for r in records)
        assert hashlib.sha256(log.encode()).hexdigest() == (
            "0eb005c05d09cada280ffa17508e3f8bd9ab437bd40fe86147531329d6ab2076")
        assert built == ([2] if pooled else [])

    def test_golden_log_replays(self):
        with open(os.path.join(DATA, "evolve_n3_seed0.jsonl")) as handle:
            golden = handle.read()
        _, records = evolve(EvolveConfig(n=3, seed=0, eval_budget=5000))
        assert "".join(record_to_json(r) + "\n" for r in records) == golden


ECHO_GENERATOR = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps({"expr": request["parents"][0]["expr"]}))
        sys.stdout.flush()
    """
)

BROKEN_GENERATOR = textwrap.dedent(
    """
    import sys
    for line in sys.stdin:
        print("not json")
        sys.stdout.flush()
    """
)


TWO_REPLIES_GENERATOR = textwrap.dedent(
    """
    import sys, time
    sys.stdin.readline()
    sys.stdout.write('{"expr": "v[0]"}\\n{"expr": "v[1]"}\\n')
    sys.stdout.flush()
    time.sleep(60)
    """
)

PARTIAL_LINE_GENERATOR = textwrap.dedent(
    """
    import sys, time
    sys.stdin.readline()
    sys.stdout.write('{"expr": "v[0]"')
    sys.stdout.flush()
    time.sleep(60)
    """
)


# writes to stderr, then answers the first request with a malformed reply
# and exits at the second; its last stderr line is 500 characters long
STDERR_GENERATOR = textwrap.dedent(
    """
    import sys
    sys.stdin.readline()
    sys.stderr.write("loading\\nbad reply ahead\\n")
    sys.stderr.flush()
    print("not json", flush=True)
    sys.stdin.readline()
    sys.exit("crashed: " + "x" * 491)
    """
)


# slow only on the first request it ever serves: the first child leaves a
# marker file, so later children answer at once; each reply names its seed
SLOW_FIRST_GENERATOR = textwrap.dedent(
    """
    import json, os, sys, time
    marker = sys.argv[1]
    for line in sys.stdin:
        request = json.loads(line)
        if not os.path.exists(marker):
            open(marker, "w").close()
            time.sleep(0.8)
        print(json.dumps({"expr": str(request["seed"])}))
        sys.stdout.flush()
    """
)


class TestExternalGenerator:
    def _command(self, tmp_path, source, name):
        path = tmp_path / name
        path.write_text(source)
        return f"{sys.executable} {path}"

    def test_echo_generator(self, tmp_path):
        gen = ExternalGenerator(
            self._command(tmp_path, ECHO_GENERATOR, "echo.py"), timeout=5.0
        )
        try:
            child = gen([_cand("v[0] + 1", 3)], 7)
            assert child == parse_expr("v[0] + 1")
        finally:
            gen.close()

    def test_malformed_reply_raises(self, tmp_path):
        gen = ExternalGenerator(
            self._command(tmp_path, BROKEN_GENERATOR, "broken.py"), timeout=5.0
        )
        try:
            with pytest.raises(GeneratorError):
                gen([_cand("0", 1)], 0)
        finally:
            gen.close()

    def test_child_stderr_is_quoted_not_passed_through(self, tmp_path, capfd):
        gen = ExternalGenerator(
            self._command(tmp_path, STDERR_GENERATOR, "stderr.py"), timeout=5.0
        )
        try:
            with pytest.raises(GeneratorError, match="malformed") as malformed:
                gen([_cand("0", 1)], 0)
            assert str(malformed.value).endswith(" (stderr: 'bad reply ahead')")
            with pytest.raises(GeneratorError, match="closed its output stream") as closed:
                gen([_cand("0", 1)], 1)
            assert str(closed.value).endswith(f" (stderr: {'crashed: ' + 'x' * 191!r})")
        finally:
            gen.close()
        assert capfd.readouterr().err == ""

    def test_partial_reply_line_times_out(self, tmp_path):
        gen = ExternalGenerator(
            self._command(tmp_path, PARTIAL_LINE_GENERATOR, "partial.py"), timeout=0.5
        )
        try:
            start = time.monotonic()
            with pytest.raises(GeneratorError, match="timed out"):
                gen([_cand("0", 1)], 0)
            assert time.monotonic() - start < 2 * gen.timeout
        finally:
            gen.close()

    def test_replies_in_one_write_are_all_read(self, tmp_path):
        gen = ExternalGenerator(
            self._command(tmp_path, TWO_REPLIES_GENERATOR, "two.py"), timeout=5.0
        )
        try:
            assert gen([_cand("0", 1)], 0) == parse_expr("v[0]")
            start = time.monotonic()
            # the second reply arrived with the first; it must not wait
            assert gen([_cand("0", 1)], 1) == parse_expr("v[1]")
            assert time.monotonic() - start < 1.0
        finally:
            gen.close()

    def test_late_reply_is_never_taken_for_a_later_request(self, tmp_path):
        command = self._command(tmp_path, SLOW_FIRST_GENERATOR, "slow.py")
        gen = ExternalGenerator(f"{command} {tmp_path / 'marker'}", timeout=0.5)
        try:
            with pytest.raises(GeneratorError, match="timed out"):
                gen([_cand("0", 1)], 0)
            time.sleep(0.5)  # the first child's reply would be due by now
            for seed in (1, 2, 3):
                assert gen([_cand("0", 1)], seed) == Const(seed)
        finally:
            gen.close()

    def test_generator_is_closed_when_the_pool_fails_to_start(self, tmp_path, monkeypatch):
        made = []

        class Recorded(ExternalGenerator):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        def no_pool(max_workers, initializer, initargs):
            initializer(*initargs)
            raise OSError("no worker processes")

        monkeypatch.setattr(evolve_mod, "ExternalGenerator", Recorded)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        _set_usable_cpus(monkeypatch, 2)
        cfg = EvolveConfig(
            n=evolve_mod.POOL_MIN_N,
            generator_command=self._command(tmp_path, ECHO_GENERATOR, "echo.py"),
        )
        with pytest.raises(OSError, match="no worker processes"):
            evolve(cfg)
        [gen] = made
        assert gen.proc is None  # close() ran
        assert evolve_mod._cache is None  # and the run's cache was dropped

    def test_evolve_logs_and_skips_generator_errors(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evolve_mod, "BATCH", 2)
        cfg = EvolveConfig(
            n=2,
            seed=0,
            eval_budget=8,
            generator_command=self._command(tmp_path, BROKEN_GENERATOR, "broken.py"),
        )
        best, records = evolve(cfg)
        errors = [r for r in records if r.get("event") == "generator_error"]
        assert errors  # every proposal fails, but the run completes
        assert best.score >= 1


class TestEvolveConfig:
    def test_fields(self):
        assert [f.name for f in fields(EvolveConfig)] == [
            "n", "seed", "eval_budget", "generator_command"]

    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_eval_budget_is_rejected(self, value):
        with pytest.raises(ValueError, match="^eval_budget must be positive"):
            EvolveConfig(n=2, eval_budget=value)


# imported by the worker pool and the generator child only, so no other
# run pays for them
POOL_AND_CHILD_MODULES = ("multiprocessing", "concurrent.futures.process", "subprocess")

LOADED_MODULES = textwrap.dedent(
    """
    import importlib, pkgutil, sys
    import bruteforge, bruteforge.cli
    for info in pkgutil.iter_modules(bruteforge.__path__):
        importlib.import_module(f"bruteforge.{info.name}")
    print(*sys.modules)
    # a name misspelt above would never be loaded; these load all three
    from concurrent.futures import ProcessPoolExecutor
    import subprocess
    print(*sys.modules)
    """
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_importing_the_package_loads_no_pool_or_child_module(flags):
    result = subprocess.run([sys.executable, *flags, "-c", LOADED_MODULES],
                            capture_output=True, text=True, timeout=300, check=True)
    package_loaded, control_loaded = (set(line.split()) for line in result.stdout.splitlines())
    assert "bruteforge.equational" in package_loaded
    assert not package_loaded & set(POOL_AND_CHILD_MODULES)
    assert set(POOL_AND_CHILD_MODULES) <= control_loaded
