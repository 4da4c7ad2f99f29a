"""Span tracer that wraps bruteforge's public module functions from outside.

``Tracer.install`` replaces each listed function, in every bruteforge
module that refers to it, with a wrapper that records a span (name, start,
end, parent, unit id) in memory.  Functions called hundreds of thousands of
times per pass (``HOT``) are not stored one span per call: their calls and
time are summed and charged to the enclosing span as child time, so the
self times still add up.  A span's self time is its duration minus the
time its child spans cover.  Spans use the monotonic wall clock, which is
cheap to read; unit metrics use CPU time (see run.py).

Some counts are read at the call boundary from arguments, return values
or exceptions (``_count_*``).  Two counts need a look behind the public
API: rewrites attempted are the successors ``equational._successors``
yields, and equations generated are ``equational._Node`` constructions
minus one root per ``prove`` call.  A name the program no longer has is
skipped and its metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

WRAPPED = {
    "logic": ("parse_dimacs", "parse_term"),
    "sat": ("solve", "check_certificate", "verify_model"),
    "bpt": ("encode", "triples", "members", "coloring_from_model", "verify_coloring"),
    "capset": ("extends_cap", "is_cap"),
    "priority": ("parse_expr", "score", "greedy", "eval_priority"),
    "evolve": ("evolve", "propose"),
    "equational": ("prove", "prove_exists", "match", "check_proof", "kb_complete",
                   "critical_pairs_join"),
    "search": ("run",),
}
HOT = {"capset.extends_cap", "priority.eval_priority", "equational.match"}
MODULES = tuple(WRAPPED)

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{m}.self_s", "s") for m in MODULES]
    + [
        ("sat.solve_s", "s"), ("sat.solve_calls", "count"),
        ("sat.check_certificate_s", "s"), ("sat.cert_lines", "count"),
        ("sat.verify_model_s", "s"), ("sat.budget_exhausted", "count"),
        ("logic.parse_dimacs_s", "s"), ("logic.parse_term_s", "s"),
        ("bpt.encode_s", "s"), ("bpt.triples_calls", "count"),
        ("bpt.verify_coloring_s", "s"), ("bpt.clauses", "count"), ("bpt.vars", "count"),
        ("priority.score_s", "s"), ("priority.score_calls", "count"),
        ("priority.eval_priority_s", "s"),
        ("capset.extends_cap_s", "s"), ("capset.extends_cap_calls", "count"),
        ("capset.extends_accept_ratio", "ratio"), ("capset.is_cap_s", "s"),
        ("evolve.propose_s", "s"), ("evolve.duplicate_ratio", "ratio"),
        ("equational.prove_s", "s"), ("equational.equations_generated", "count"),
        ("equational.rewrites_attempted", "count"), ("equational.rewrites_per_s", "1/s"),
        ("equational.match_s", "s"), ("equational.match_calls", "count"),
        ("equational.check_proof_s", "s"), ("equational.proof_steps", "count"),
        ("equational.kb_complete_s", "s"), ("equational.kb_rules", "count"),
        ("search.run_s", "s"), ("search.candidates_tested", "count"),
        ("bench.self_s", "s"), ("trace.units", "count"), ("trace.units_per_s", "1/s"),
        ("trace.overhead_ratio", "ratio"), ("trace.self_coverage", "ratio"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, unit, self seconds)
        self.stack = []  # open spans: [id, name, start, parent id, unit, child seconds]
        self.hot = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counts = Counter()
        self.unit = None
        self._next_id = 0
        self._patched = []

    # -- spans --------------------------------------------------------------

    def set_unit(self, uid):
        self.unit = uid

    def enter(self, name):
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append([self._next_id, name, time.perf_counter(), parent, self.unit, 0.0])

    def exit(self):
        end = time.perf_counter()
        sid, name, start, parent, unit, child = self.stack.pop()
        if self.stack:
            self.stack[-1][5] += end - start
        self.spans.append((sid, name, start, end, parent, unit, end - start - child))

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        if name in HOT:
            hot = self.hot[name]
            stack = self.stack

            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                hot[0] += 1
                hot[1] += elapsed
                if stack:
                    stack[-1][5] += elapsed
                if counter:
                    counter(self.counts, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                self.counts[f"{name}_calls"] += 1
                self.enter(name)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    self.counts[f"{name}:{type(exc).__name__}"] += 1
                    raise
                finally:
                    self.exit()
                if counter:
                    counter(self.counts, result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self, bf):
        """Patch every bruteforge module attribute bound to a wrapped function."""
        replacements = {}
        for mod_name, names in WRAPPED.items():
            mod = getattr(bf, mod_name, None)
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is not None:
                    replacements[id(fn)] = (fn, self._wrap(f"{mod_name}.{fname}", fn))
        eq = getattr(bf, "equational", None)
        if getattr(eq, "_successors", None) is not None:
            replacements[id(eq._successors)] = (eq._successors, self._count_yields(eq._successors))
        if getattr(eq, "_Node", None) is not None:
            replacements[id(eq._Node)] = (eq._Node, self._count_calls("equational.nodes", eq._Node))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bruteforge" or mod_name.startswith("bruteforge.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _count_yields(self, gen_fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts["equational.rewrites"] += 1
                yield item
        return wrapper

    def _count_calls(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- reporting ------------------------------------------------------------

    def inclusive(self, name):
        """Total time in outermost spans of `name` (plus hot-leaf time)."""
        if name in self.hot:
            return self.hot[name][1]
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for sid, sname, start, end, parent, _, _ in self.spans:
            if sname != name:
                continue
            while parent is not None and by_id[parent][1] != name:
                parent = by_id[parent][4]
            if parent is None:
                total += end - start
        return total

    def calls(self, name):
        return self.hot[name][0] if name in self.hot else self.counts[f"{name}_calls"]

    def metrics(self, root_seconds, extra):
        """Per-layer metrics; `extra` holds the runner's trace.* and evolve values."""
        self_by_module = Counter()
        for _, name, *_, self_s in self.spans:
            self_by_module[name.split(".")[0]] += self_s
        for name, (_, seconds) in self.hot.items():
            self_by_module[name.split(".")[0]] += seconds
        c = self.counts
        prove_s = self.inclusive("equational.prove")
        rewrites = c["equational.rewrites"]
        extends = self.calls("capset.extends_cap")
        values = {f"{m}.self_s": self_by_module[m] for m in MODULES}
        values.update({
            "sat.solve_s": self.inclusive("sat.solve"),
            "sat.solve_calls": self.calls("sat.solve"),
            "sat.check_certificate_s": self.inclusive("sat.check_certificate"),
            "sat.cert_lines": c["sat.cert_lines"],
            "sat.verify_model_s": self.inclusive("sat.verify_model"),
            "sat.budget_exhausted": c["sat.solve:BudgetExhausted"],
            "logic.parse_dimacs_s": self.inclusive("logic.parse_dimacs"),
            "logic.parse_term_s": self.inclusive("logic.parse_term"),
            "bpt.encode_s": self.inclusive("bpt.encode"),
            "bpt.triples_calls": self.calls("bpt.triples"),
            "bpt.verify_coloring_s": self.inclusive("bpt.verify_coloring"),
            "bpt.clauses": c["bpt.clauses"],
            "bpt.vars": c["bpt.vars"],
            "priority.score_s": self.inclusive("priority.score"),
            "priority.score_calls": self.calls("priority.score"),
            "priority.eval_priority_s": self.inclusive("priority.eval_priority"),
            "capset.extends_cap_s": self.inclusive("capset.extends_cap"),
            "capset.extends_cap_calls": extends,
            "capset.extends_accept_ratio": c["capset.extends_accepted"] / extends if extends else 0.0,
            "capset.is_cap_s": self.inclusive("capset.is_cap"),
            "evolve.propose_s": self.inclusive("evolve.propose"),
            "equational.prove_s": prove_s,
            "equational.equations_generated": c["equational.nodes"] - self.calls("equational.prove"),
            "equational.rewrites_attempted": rewrites,
            "equational.rewrites_per_s": rewrites / prove_s if prove_s else 0.0,
            "equational.match_s": self.inclusive("equational.match"),
            "equational.match_calls": self.calls("equational.match"),
            "equational.check_proof_s": self.inclusive("equational.check_proof"),
            "equational.proof_steps": c["equational.proof_steps"],
            "equational.kb_complete_s": self.inclusive("equational.kb_complete"),
            "equational.kb_rules": c["equational.kb_rules"],
            "search.run_s": self.inclusive("search.run"),
            "search.candidates_tested": c["search.candidates_tested"],
            "bench.self_s": self_by_module["bench"],
            "trace.self_coverage": sum(self_by_module.values()) / root_seconds,
        })
        values.update(extra)
        return values

    def write(self, path):
        by_id = {}
        with open(path, "w") as out:
            for sid, name, start, end, parent, unit, self_s in self.spans:
                by_id[sid] = name
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                      "parent": parent, "unit": unit, "self": self_s}) + "\n")
            for name, (calls, seconds) in sorted(self.hot.items()):
                out.write(json.dumps({"name": name, "aggregated": True, "calls": calls,
                                      "seconds": seconds}) + "\n")


# --- counts read at the call boundary -------------------------------------------


def _count_solve(counts, verdict):
    if not verdict.satisfiable:
        counts["sat.cert_lines"] += len(verdict.certificate.lines)


def _count_encode(counts, result):
    cnf, _ = result
    counts["bpt.clauses"] += len(cnf.clauses)
    counts["bpt.vars"] += cnf.num_vars


def _count_extends(counts, accepted):
    counts["capset.extends_accepted"] += bool(accepted)


def _count_prove(counts, result):
    steps = getattr(result, "steps", None)
    if steps is not None:
        counts["equational.proof_steps"] += len(steps)


def _count_kb(counts, rules):
    counts["equational.kb_rules"] += len(rules)


def _count_search(counts, outcome):
    tested = getattr(outcome, "tested", None)
    counts["search.candidates_tested"] += tested if tested is not None else outcome.index + 1


_COUNTERS = {
    "sat.solve": _count_solve,
    "bpt.encode": _count_encode,
    "capset.extends_cap": _count_extends,
    "equational.prove": _count_prove,
    "equational.kb_complete": _count_kb,
    "search.run": _count_search,
}
