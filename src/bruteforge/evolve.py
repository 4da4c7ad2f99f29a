"""Evolutionary search over priority programs (generate-and-test loop).

A generator proposes new priority expressions from one or two high-scoring
parents; candidates are scored by the size of their greedy cap set and
curated in a bounded population (tournament selection, best-member
elitism).  A generator is a callable `generate(parents, seed)` that
returns an expression or raises GeneratorError.  The baseline generator,
`propose`, is seeded mutation/crossover; the external one, used iff
`EvolveConfig.generator_command` is set, is a child process speaking one
JSON request line in, one JSON reply line out.

One loop runs every generation: generation 0 is SEED_EXPRS, each later
one a batch of proposals, and each is scored, added to the population
and logged by the same code.  Per-candidate seeds are derived from (run
seed, generation, slot), and parents are drawn from the population
snapshot at the start of the generation, so serial and worker-pool runs
produce identical logs; the population is trimmed to its best members
when that snapshot is taken, once per generation.  Each scoring process
keeps one bounded `ColumnCache` for the run, its only memo: while the cache
holds them, a subtree's column is computed, and a root column ranked, once,
so a repeated expression is answered by its text and its column.  Mutation
and crossover pick a node by its preorder index, drawn below the tree's
`size`, and walk down to it along one path.

A run's settings are the four fields of EvolveConfig (n, seed, budget
and generator command).  Population size, batch, tournament size and
generator timeout are the constants CAPACITY, BATCH, TOURNAMENT and
GENERATOR_TIMEOUT.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field

from .capset import check_dimension
from .priority import (
    BinOp,
    ColumnCache,
    Const,
    Dim,
    Expr,
    Index,
    parse_expr,
    score,
)


# the population keeps this many best members
CAPACITY = 24
# proposals per generation after the seed generation
BATCH = 10
# members drawn per tournament when a parent is selected
TOURNAMENT = 3
# seconds the external generator has to complete each reply line
GENERATOR_TIMEOUT = 10.0


@dataclass(frozen=True)
class Candidate:
    expr: Expr
    score: int


@dataclass
class Population:
    candidates: list = field(default_factory=list)

    def add(self, candidate):
        self.candidates.append(candidate)

    def members(self):
        """The members, trimmed here to the best CAPACITY once more arrived:
        the top CAPACITY under a total order, as a trim per add would keep."""
        if len(self.candidates) > CAPACITY:
            # stable: the earliest of equal scores stays, so the best is never evicted
            self.candidates.sort(key=lambda c: c.score, reverse=True)
            del self.candidates[CAPACITY:]
        return self.candidates[:]


def derive_seed(run_seed, generation, slot):
    digest = hashlib.sha256(f"{run_seed}:{generation}:{slot}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# --- baseline generator ----------------------------------------------------


_OPS = ("+", "-", "*", "%", "min", "max")


def _random_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return Const(rng.randint(-3, 3))
        if kind == 2:
            return Dim()
        return Index(Const(rng.randrange(8)))  # kinds 1 and 3
    op = rng.choice(_OPS)
    return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _node(e, k):
    """The k-th node of e in preorder, for 0 <= k < e.size."""
    while k:
        k -= 1
        if isinstance(e, Index):
            e = e.index
        elif k < e.left.size:
            e = e.left
        else:
            e, k = e.right, k - e.left.size
    return e


def _replace(e, k, sub):
    """e with its k-th node in preorder replaced by sub."""
    if not k:
        return sub
    k -= 1
    if isinstance(e, Index):
        return Index(_replace(e.index, k, sub))
    if k < e.left.size:
        return BinOp(e.op, _replace(e.left, k, sub), e.right)
    return BinOp(e.op, e.left, _replace(e.right, k - e.left.size, sub))


def _mutate(rng, e):
    k = rng.randrange(e.size)
    node = _node(e, k)
    roll = rng.random()
    if isinstance(node, Const) and roll < 0.4:
        return _replace(e, k, Const(node.value + rng.choice([-2, -1, 1, 2])))
    if roll < 0.75:
        return _replace(e, k, _random_expr(rng, rng.randint(1, 3)))
    # wrap the node in a fresh binary operation
    op = rng.choice(_OPS)
    other = _random_expr(rng, 2)
    left, right = (node, other) if rng.random() < 0.5 else (other, node)
    return _replace(e, k, BinOp(op, left, right))


def _crossover(rng, e1, e2):
    k = rng.randrange(e1.size)
    return _replace(e1, k, _node(e2, rng.randrange(e2.size)))


def propose(parents, seed):
    """New well-formed expression from 1-2 parents; deterministic in seed."""
    if not 1 <= len(parents) <= 2:
        raise ValueError("propose expects one or two parents")
    rng = random.Random(seed)
    if len(parents) == 2 and rng.random() < 0.5:
        child = _crossover(rng, parents[0].expr, parents[1].expr)
        if rng.random() < 0.5:
            child = _mutate(rng, child)
    else:
        child = _mutate(rng, parents[0].expr)
    return child


# --- external generator protocol ------------------------------------------


# how much of the child's last stderr line a GeneratorError quotes
_STDERR_LINE = 200


class ExternalGenerator:
    """Child-process generator: one JSON request line, one JSON reply line.

    Request: {"parents": [{"expr": str, "score": int}, ...], "seed": int}
    Reply:   {"expr": str}
    Protocol violations (malformed reply, timeout) raise GeneratorError;
    the evolve loop logs and skips them, never aborts.  A reply line must
    be complete within `timeout` seconds of the request.  A child that
    times out is stopped and a fresh one serves the next request, so a
    late reply is never taken as the answer to a later request.  The
    child's stderr goes to a temporary file, never to ours; the error for
    a closed stream or a malformed reply quotes its last line.
    """

    def __init__(self, command, timeout):
        self.command = command
        self.timeout = timeout
        self._start()

    def _start(self):
        # subprocess, shlex and select load only in runs that start a child
        import shlex
        import subprocess

        stderr = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(
                shlex.split(self.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
            )
        except OSError:
            stderr.close()
            raise
        self._stderr = stderr
        self._pending = b""  # bytes read past the last reply line

    def _error(self, detail):
        """GeneratorError(detail), plus the last line of the child's stderr
        cut to _STDERR_LINE characters, if it wrote any."""
        # pread leaves the file offset, which the child shares, alone
        fd = self._stderr.fileno()
        size = os.fstat(fd).st_size
        start = max(size - 4 * _STDERR_LINE, 0)
        tail = os.pread(fd, size - start, start).decode(errors="replace").strip()
        if tail:
            detail += f" (stderr: {tail.splitlines()[-1].strip()[:_STDERR_LINE]!r})"
        return GeneratorError(detail)

    def _read_line(self):
        """One reply line, read from the raw pipe against a deadline."""
        import select

        deadline = time.monotonic() + self.timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            ready = remaining > 0 and select.select([fd], [], [], remaining)[0]
            if not ready:
                self.close()
                raise GeneratorError(f"generator timed out after {self.timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise self._error("generator closed its output stream")
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def __call__(self, parents, seed):
        request = {
            "parents": [
                {"expr": p.expr.text, "score": p.score} for p in parents
            ],
            "seed": seed,
        }
        if self.proc is None:
            self._start()
        try:
            self.proc.stdin.write(json.dumps(request).encode() + b"\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise GeneratorError(f"generator process gone: {exc}")
        line = self._read_line()
        try:
            reply = json.loads(line)
            return parse_expr(reply["expr"])
        except (ValueError, KeyError, TypeError) as exc:
            raise self._error(f"malformed generator reply {line!r}: {exc}")

    def close(self):
        """Stop the child and close its pipes; a later request starts a fresh one."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        import subprocess

        proc.terminate()
        try:
            proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            proc.kill()
        with contextlib.suppress(BrokenPipeError), proc:
            pass  # leaving the block closes the pipes and reaps the child
        self._stderr.close()


class GeneratorError(RuntimeError):
    pass


# --- the loop --------------------------------------------------------------


@dataclass
class EvolveConfig:
    """One run's settings; the external generator runs iff
    `generator_command` is set."""

    n: int
    seed: int = 0
    eval_budget: int = 500
    generator_command: str | None = None

    def __post_init__(self):
        # checked here, so a bad n fails before a generator child or a
        # worker pool starts; a run scores at least one seed expression
        check_dimension(self.n)
        if self.eval_budget < 1:
            raise ValueError(f"eval_budget must be positive, got {self.eval_budget}")


SEED_EXPRS = ("0", "v[0]", "n", "v[0] + v[1]")

# the smallest n whose batches are scored in a worker pool.  Medians of 5
# fresh runs of evolve(EvolveConfig(n, eval_budget=E)), 2-core x86_64, serial
# against 2 workers, each with a ColumnCache: 1.19 / 1.36 s at n=6 and 4.17 /
# 3.56 s at n=7 (E=2,000), 12.7 / 8.7 s at n=8 (E=1,500).
POOL_MIN_N = 7
_cache = None  # this process's ColumnCache for the current run


def _start_run(n):
    """Give this process a fresh ColumnCache(n) for the run."""
    global _cache
    _cache = ColumnCache(n)


def _score(expr):
    return score(expr, _cache.n, _cache)


def _select_parents(rng, members):
    """Tournament selection over the generation-start snapshot."""
    chosen = []
    count = 2 if len(members) >= 2 else 1
    for _ in range(count):
        contenders = [rng.choice(members) for _ in range(TOURNAMENT)]
        chosen.append(max(contenders, key=lambda c: c.score))
    return chosen


def evolve(config, log_sink=None):
    """Run the loop; returns (best Candidate, list of log records).

    Every log record is {"generation", "slot", "seed", "expr", "score",
    "best"} or a generator_error event.  With the baseline generator,
    `propose`, the full log is byte-reproducible given the seed, serial
    or in the pool.  The pool has min(usable CPUs, BATCH) workers and is
    used iff n >= POOL_MIN_N and that count is above one.
    """
    records = []

    def emit(record):
        records.append(record)
        if log_sink is not None:
            log_sink(record)

    generate = propose
    pool = None
    population = Population()
    best = None
    generation = 0
    seed_texts = SEED_EXPRS[: config.eval_budget]
    proposals = [(slot, config.seed, parse_expr(t)) for slot, t in enumerate(seed_texts)]
    try:
        if config.generator_command:
            generate = ExternalGenerator(config.generator_command, GENERATOR_TIMEOUT)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(cpus or 1, BATCH)  # usable CPUs, not installed ones
        if config.n >= POOL_MIN_N and workers > 1:
            # loaded here: multiprocessing is 30-odd modules no other run uses
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, initializer=_start_run, initargs=(config.n,))
        else:
            _start_run(config.n)
        while True:
            scores = (pool.map if pool else map)(_score, [e for _, _, e in proposals])
            for (slot, slot_seed, expr), sc in zip(proposals, scores):
                cand = Candidate(expr, sc)
                population.add(cand)
                if best is None or sc > best.score:
                    best = cand
                emit({"generation": generation, "slot": slot, "seed": slot_seed,
                      "expr": expr.text, "score": sc, "best": best.score})
            if len(records) >= config.eval_budget:
                break
            generation += 1
            snapshot = population.members()
            proposals = []
            for slot in range(min(BATCH, config.eval_budget - len(records))):
                slot_seed = derive_seed(config.seed, generation, slot)
                rng = random.Random(slot_seed)
                parents = _select_parents(rng, snapshot)
                try:
                    proposals.append((slot, slot_seed, generate(parents, slot_seed)))
                except GeneratorError as exc:
                    emit({"generation": generation, "slot": slot, "seed": slot_seed,
                          "event": "generator_error", "detail": str(exc)})
                    # the record consumes the proposal's evaluation slot,
                    # so an always-failing generator terminates
    finally:
        global _cache
        _cache = None
        if pool:
            pool.shutdown()
        if generate is not propose:
            generate.close()
    return best, records


def record_to_json(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))

