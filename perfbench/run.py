"""bruteforge benchmark: time to a verified verdict on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload sat-cert --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced pass instead.  Lines before it are a readable report.  Full
details (input digest, tail percentile and unit count, log digest, Python
version, nproc) go to ``perfbench/out/``, and a traced run also writes its
spans there.

Clock.  Unit and set-up times are CPU seconds of this process plus its
reaped children, in reference seconds: each is scaled by how much slower
than its nominal time a fixed reference probe ran next to it.  The
workloads are single-threaded and CPU-bound, so CPU time equals wall time
on an idle machine.  On a shared virtual machine CPU time leaves out the
time the host gives to other tenants, but the CPU itself still runs slower
or faster with the host's load; the probe, run before every unit, measures
that speed at the moment the unit runs.  Raw CPU seconds and wall time per
pass are recorded in the details.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
# reference_probe() took about this long on the 2-vCPU machine the bounds were set on;
# the value only fixes the unit of reference seconds and must never change
REFERENCE_PROBE_S = 1.5e-3
PROBE_WINDOW = 10  # a unit is scaled by the mean probe of its 2 * 10 + 1 neighbours
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
END_TO_END_UNITS = {
    "setup_s": "s", "units_per_s": "1/s", "unit_s_p50": "s", "unit_s_tail": "s",
    "decided_fraction": "ratio", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


def clock():
    """CPU seconds of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _reference_work():
    d, s = {}, 0
    for i in range(3000):
        t = (i % 7, i % 11, i)
        d[t] = d.get(t[:2], 0) + 1
        s += i * i
    return len(d) + s


def reference_probe():
    """CPU seconds of a fixed piece of benchmark code, a sample of machine speed."""
    start = clock()
    _reference_work()
    return clock() - start


def import_bruteforge():
    """Fresh import of every bruteforge module from this checkout's src/."""
    if not (SRC / "bruteforge" / "__init__.py").is_file():
        raise BenchError(f"no bruteforge package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "bruteforge" or n.startswith("bruteforge.")]:
        del sys.modules[name]
    bf = types.SimpleNamespace()
    for name in tracing.MODULES:
        try:
            module = importlib.import_module(f"bruteforge.{name}")
        except ModuleNotFoundError as exc:
            if exc.name not in ("bruteforge", f"bruteforge.{name}"):
                raise
            module = None  # a module a later change deleted
        setattr(bf, name, module)
    for name in ("logic", "sat", "bpt", "capset", "priority", "evolve", "equational"):
        module = getattr(bf, name)
        if module is None or not Path(module.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"bruteforge.{name} not found under {SRC}")
    return bf


def setup(workload, seed, scale):
    """Import plus input generation in reference seconds, and the raw seconds."""
    probes = [reference_probe() for _ in range(5)]
    start = clock()
    bf = import_bruteforge()
    units = workloads.INPUTS[workload](bf, seed, scale)
    seconds = clock() - start
    probes += [reference_probe() for _ in range(5)]
    return seconds * REFERENCE_PROBE_S * len(probes) / sum(probes), seconds, bf, units


def run_pass(bf, workload, units, on_unit, corrupt, result):
    return list(workloads.PASSES[workload](bf, units, clock, on_unit, reference_probe,
                                           corrupt, result))


def measure(bf, workload, units, seconds, corrupt=workloads.no_corruption):
    """Whole passes until the next one would overrun `seconds` (at least one)."""
    passes, cpu, wall, results = [], [], [], []
    while not passes or sum(cpu) + statistics.mean(cpu) <= seconds:
        result = {}
        start, wall_start = clock(), time.perf_counter()
        passes.append(run_pass(bf, workload, units, lambda uid: None, corrupt, result))
        cpu.append(clock() - start)
        wall.append(time.perf_counter() - wall_start)
        results.append(result)
    return passes, cpu, wall, results


def tail_percentile(n):
    """Highest listed percentile that still has at least 10 units beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def reference_seconds(outcomes):
    """Unit times of one pass scaled to the nominal speed of the reference probe."""
    probes = [o.probe for o in outcomes]
    scaled = []
    for i, o in enumerate(outcomes):
        window = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        scaled.append(o.seconds * REFERENCE_PROBE_S * len(window) / sum(window))
    return scaled


def summarize(passes, results):
    """End-to-end metrics over passes; a unit's time is its median over passes."""
    failures = {}
    for outcomes in passes:
        for o in outcomes:
            if o.failure and o.uid not in failures:
                failures[o.uid] = o.failure
    first = {o.uid: o for o in passes[0]}
    for outcomes in passes[1:]:
        for o in outcomes:
            if o.decided != first[o.uid].decided and o.uid not in failures:
                failures[o.uid] = "verdict differs between passes"
    digests = {r.get("log_sha256") for r in results}
    if len(digests) > 1:
        failures.setdefault(passes[-1][-1].uid, "evolve log differs between passes")
    scaled = [reference_seconds(outcomes) for outcomes in passes]
    times = sorted(statistics.median(unit_runs) for unit_runs in zip(*scaled))
    n = len(times)
    verified = sum(o.decided and o.failure is None for outcomes in passes for o in outcomes)
    p = tail_percentile(n)
    return {
        "units_per_s": verified / sum(map(sum, scaled)),
        "raw_units_per_s": verified / sum(o.seconds for outcomes in passes for o in outcomes),
        "unit_s_p50": statistics.median(times),
        "unit_s_tail": nearest_rank(times, p),
        "decided_fraction": sum(o.decided for o in passes[0]) / n,
        "failed_fraction": len(failures) / n,
        "tail_percentile": p,
        "units": n,
        "passes": len(passes),
        "attempted": n * len(passes),
        "failed": sum(1 for outcomes in passes for o in outcomes
                      if o.failure or o.uid in failures),
        "failures": failures,
        "unit_seconds": {runs[0].uid: [o.seconds for o in runs] for runs in zip(*passes)},
        "unit_probe_seconds": {runs[0].uid: [o.probe for o in runs] for runs in zip(*passes)},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def traced_pass(bf, workload, units):
    tracer = tracing.Tracer()
    tracer.install(bf)
    result = {}
    try:
        tracer.enter("bench.pass")
        try:
            outcomes = run_pass(bf, workload, units, tracer.set_unit,
                                workloads.no_corruption, result)
        finally:
            tracer.exit()
    finally:
        tracer.uninstall()
    return tracer, outcomes, result


def run(workload, seed, seconds, trace, scale, corrupt=workloads.no_corruption):
    """Run one workload; returns (metrics for the JSON line, details)."""
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        seconds_setup, raw, bf, units = setup(workload, seed, scale)
        setups.append(seconds_setup)
        raw_setups.append(raw)
    budget = seconds / 2 if trace else seconds
    passes, cpu, wall, results = measure(bf, workload, units, budget, corrupt)
    summary = summarize(passes, results)
    details = {
        "workload": workload, "why": workloads.WHY[workload], "seed": seed,
        "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "inputs_sha256": workloads.digest_units(units),
        "setup_s_runs": setups, "raw_setup_s_runs": raw_setups,
        "pass_cpu_s": cpu, "pass_wall_s": wall,
        **{k: v for r in results[:1] for k, v in r.items()},
        **summary,
    }
    end_to_end = {
        "setup_s": statistics.median(setups),
        "units_per_s": summary["units_per_s"],
        "unit_s_p50": summary["unit_s_p50"],
        "unit_s_tail": summary["unit_s_tail"],
        "decided_fraction": summary["decided_fraction"],
        "peak_rss_mb": peak_rss_mb(),
    }
    details["end_to_end"] = end_to_end
    if not trace:
        return {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}, details

    tracer, outcomes, result = traced_pass(bf, workload, units)
    traced = summarize([outcomes], [result])
    if result.get("log_sha256") != results[0].get("log_sha256"):
        traced["failures"]["trace"] = "tracing changed the evolve log"
        traced["failed"] += 1
    root = next(s for s in tracer.spans if s[1] == "bench.pass")
    extra = {
        "evolve.duplicate_ratio": result.get("duplicate_ratio", 0.0),
        "trace.units": traced["units"],
        "trace.units_per_s": traced["units_per_s"],
        "trace.overhead_ratio": summary["units_per_s"] / traced["units_per_s"],
    }
    layer = tracer.metrics(root[3] - root[2], extra)
    units_of = dict(tracing.PER_LAYER)
    details["per_layer"] = layer
    details["traced_failures"] = traced["failures"]
    details["failed"] += traced["failed"]
    details["attempted"] += traced["attempted"]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return {k: (layer[k], units_of[k]) for k, _ in tracing.PER_LAYER}, details


def report(metrics, details):
    lines = [f"workload {details['workload']} seed {details['seed']}: {details['why']}",
             f"python {details['python']}, nproc {details['nproc']}, "
             f"inputs sha256 {details['inputs_sha256'][:16]}",
             f"{details['units']} units x {details['passes']} passes, "
             f"tail = p{details['tail_percentile']} of {details['units']} units, "
             f"failed_fraction {details['failed_fraction']:.4f}"]
    if "log_sha256" in details:
        lines.append(f"evolve log sha256 {details['log_sha256']}, best {details['best_scores']}")
    for uid, failure in list(details["failures"].items())[:10]:
        lines.append(f"FAILED {uid}: {failure}")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:34s} {value:14.6g} {unit}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        metrics, details = run(args.workload, args.seed, args.seconds, args.trace,
                               workloads.FULL_SCALE)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1, default=str) + "\n")
    print(report(metrics, details))
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
