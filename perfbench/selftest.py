"""Self-test of the benchmark at tiny sizes; runs in seconds.

    python3 perfbench/selftest.py

Checks that every workload reports every end-to-end metric and, traced,
every per-layer metric, that clean runs pass their gates, and that each
corrupted artifact below makes the gate fire (failed_fraction > 0):
a flipped model bit, a dropped certificate line, a recolored triple, a
proof step with the wrong direction, and a cap with a completing vector.
"""

from __future__ import annotations

import sys

import run
import tracing
import workloads

SECONDS = 0.5


def flip_model_bit(kind, text):
    if kind != "model":
        return text
    lits = text.split()
    lits[0] = str(-int(lits[0]))
    return " ".join(lits) + "\n"


def drop_certificate_line(kind, text):
    return "".join(text.splitlines(keepends=True)[:-1]) if kind == "certificate" else text


def recolor_triple(kind, text):
    """Give 4 and 5 the color of 3, so (3, 4, 5) is monochromatic."""
    if kind != "coloring":
        return text
    colors = dict(line.split() for line in text.splitlines())
    colors["4"] = colors["5"] = colors["3"]
    return "".join(f"{i} {c}\n" for i, c in colors.items())


def reverse_first_step(kind, text):
    if kind != "proof" or not text.strip():
        return text
    first, _, rest = text.partition("\n")
    head, _, direction = first.rpartition(" ")
    return f"{head} {'rl' if direction == 'lr' else 'lr'}\n{rest}"


def complete_a_line(kind, text):
    """Add -(x + y) for the first two vectors, which closes a line."""
    if kind != "cap":
        return text
    x, y = text.split()[:2]
    z = "".join(str((-int(a) - int(b)) % 3) for a, b in zip(x, y))
    return text + z + "\n"


CORRUPTIONS = {
    "sat-cert": (flip_model_bit, drop_certificate_line),
    "bpt-scan": (recolor_triple,),
    "eq-prove": (reverse_first_step,),
    "capset-evolve": (complete_a_line,),
}


def main():
    problems = []
    for workload in sorted(workloads.INPUTS):
        for trace, names in ((0, run.END_TO_END_UNITS), (1, dict(tracing.PER_LAYER))):
            metrics, details = run.run(workload, 1, SECONDS, trace, workloads.TINY_SCALE)
            if set(metrics) != set(names):
                problems.append(f"{workload} trace={trace}: metrics {sorted(set(metrics) ^ set(names))}")
            if details["failed"]:
                problems.append(f"{workload} trace={trace}: clean run failed {details['failures']}")
        for corrupt in CORRUPTIONS[workload]:
            _, details = run.run(workload, 1, SECONDS, 0, workloads.TINY_SCALE, corrupt)
            verdict = "fires" if details["failed_fraction"] > 0 else "DOES NOT FIRE"
            print(f"{workload:14s} {corrupt.__name__:22s} gate {verdict} "
                  f"(failed_fraction {details['failed_fraction']:.2f})")
            if details["failed_fraction"] == 0:
                problems.append(f"{workload}: gate missed {corrupt.__name__}")
    for problem in problems:
        print("PROBLEM:", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
