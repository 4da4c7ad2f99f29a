"""Single command-line entry point.

Exit codes: 0 success; 1 negative answer (unsatisfiable where a model was
sought, proof search timeout, not-a-cap, an artifact that does not check);
2 usage error, a missing or malformed input file or a device among them,
which prints one `error: ...` line once the arguments parse; 3 internal
self-check failed (a bug, not an input fault).  All output files are
written atomically (temp file + rename), before the verdict is printed.
Machine logs are JSON lines; human summaries go to standard output.
Settings come from flags only; `capset evolve` picks its worker pool from
n (see `evolve.POOL_MIN_N`).
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import tempfile

from . import bpt, capset, check, equational, evolve, hierarchy, priority, sat
from .logic import (
    App, VerificationError, apply_subst, format_term, parse_dimacs, var_name, write_dimacs,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _atomic_write(path, text):
    """Write text to a temp file beside path, then rename it to path; a
    failure names path, never the temp file, and leaves no temp file.  The
    file gets the mode a plain open would create, 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bruteforge-")
        try:
            with os.fdopen(fd, "w") as handle:
                os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates it 0o600
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


def _read(path):
    """The text of the file at path; a failure names path, as `_atomic_write`
    does.  A device is refused: /dev/zero would be read until memory ran out."""
    try:
        with open(path) as handle:
            mode = os.fstat(handle.fileno()).st_mode
            if stat.S_ISCHR(mode) or stat.S_ISBLK(mode):
                raise OSError("not a regular file")
            return handle.read()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from None


# --- sat -------------------------------------------------------------------


def _cmd_sat_solve(args):
    cnf = parse_dimacs(_read(args.cnf))
    verdict = sat.solve(cnf)
    if verdict.satisfiable:
        if not check.verify_model(cnf, verdict.model):
            raise VerificationError("model does not satisfy every clause")
        if args.model:
            _atomic_write(args.model, check.format_model(verdict.model))
        print("SATISFIABLE")
        return EXIT_OK
    if not check.check_certificate(cnf, verdict.certificate):
        raise VerificationError("certificate does not check")
    if args.cert:
        _atomic_write(args.cert, verdict.certificate.to_text())
    print("UNSATISFIABLE")
    return EXIT_NEGATIVE


def _cmd_sat_check(args):
    cnf = parse_dimacs(_read(args.cnf))
    if args.cert is not None:
        cert = check.Certificate.from_text(_read(args.cert))
        valid = check.check_certificate(cnf, cert)
        print(f"certificate valid: {len(cert.lines)} lines" if valid else "certificate invalid")
        return EXIT_OK if valid else EXIT_NEGATIVE
    valid = check.verify_model(cnf, check.parse_model(_read(args.model), cnf.num_vars))
    print("model valid" if valid else "model invalid")
    return EXIT_OK if valid else EXIT_NEGATIVE


# --- bpt -------------------------------------------------------------------


def _cmd_bpt_encode(args):
    cnf, _ = bpt.encode(args.m)
    _atomic_write(args.output, write_dimacs(cnf))
    print(f"wrote {args.output}: {cnf.num_vars} variables, {len(cnf.clauses)} clauses")
    return EXIT_OK


def _cmd_bpt_solve(args):
    result = bpt.solve(args.m)
    if isinstance(result, check.Coloring):
        if args.coloring:
            _atomic_write(args.coloring, check.format_coloring(result))
        print(f"SATISFIABLE: valid 2-coloring for m={args.m}")
        return EXIT_OK
    if args.cert:
        _atomic_write(args.cert, result.to_text())
    print(f"UNSATISFIABLE: every 2-coloring has a monochromatic triple at m={args.m}")
    return EXIT_NEGATIVE


def _cmd_bpt_scan(args):
    result = bpt.find_threshold(args.max)
    if isinstance(result, bpt.Threshold):
        if args.cert:
            _atomic_write(args.cert, result.certificate.to_text())
        print(f"threshold: first unsatisfiable m = {result.m}")
        return EXIT_OK
    print(f"all satisfiable up to m = {result.m}")
    return EXIT_NEGATIVE


# --- capset ----------------------------------------------------------------


def _cmd_capset_verify(args):
    vectors = check.parse_capset_file(_read(args.file))
    if check.is_cap(vectors):
        print(f"cap: {len(vectors)} vectors")
        return EXIT_OK
    print("not a cap")
    return EXIT_NEGATIVE


def _cmd_capset_greedy(args):
    expr = priority.parse_expr(args.expr)
    chosen = priority.greedy(expr, args.n)
    if not check.is_cap(chosen):
        raise VerificationError("greedy set is not a cap")
    text = check.format_capset(chosen)
    if args.output:
        _atomic_write(args.output, text)
    print(f"greedy cap size {len(chosen)} for n={args.n}")
    if not args.output:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_capset_exact(args):
    bound = capset.exact_cap(args.n, budget=args.budget)
    print(bound.size if bound.exact else f">= {bound.size} (budget exhausted)")
    return EXIT_OK if bound.exact else EXIT_NEGATIVE


def _cmd_capset_evolve(args):
    config = evolve.EvolveConfig(args.n, args.seed, args.evals, args.generator_command)
    best, records = evolve.evolve(config)
    if priority.score(best.expr, config.n) != best.score:
        raise VerificationError(f"best expression does not re-score to {best.score}")
    if args.log:
        _atomic_write(
            args.log, "".join(evolve.record_to_json(r) + "\n" for r in records)
        )
    print(f"best score {best.score}: {priority.format_expr(best.expr)}")
    return EXIT_OK


# --- eq --------------------------------------------------------------------


def _load_axioms(name):
    if name in equational.AXIOM_SETS:
        return equational.AXIOM_SETS[name], equational.AXIOM_SIGNATURES[name]
    return check.parse_axioms(_read(name))


def _seconds(text):
    """A time limit: any float but NaN, which no elapsed time exceeds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"invalid number of seconds: {text!r}")
    return value


def _budget(text):
    """A search budget: an integer, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid budget: {text!r} (expected an integer >= 0)")
    return value


def _parse_precedence(text, signature, axioms):
    """Rank map from "f > g > ..."; it must rank every symbol of the axioms
    once, since the path order compares any two of them."""
    if text is None:
        if signature is equational.GROUP_SIG:
            return equational.GROUP_PRECEDENCE
        raise ValueError("--precedence is required for this axiom set")
    symbols = [s.strip() for s in text.split(">")]
    for s in symbols:
        if s not in signature:
            raise ValueError(f"precedence symbol {s!r} not in signature")
        if symbols.count(s) > 1:
            raise ValueError(f"precedence symbol {s!r} repeated")
    used = {
        sub.symbol
        for eq in axioms for side in (eq.lhs, eq.rhs)
        for _, sub in equational.positions(side) if isinstance(sub, App)
    }
    missing = ", ".join(map(repr, sorted(used - set(symbols))))
    if missing:
        raise ValueError(f"precedence misses symbol(s) {missing} of the axioms")
    return {s: len(symbols) - i for i, s in enumerate(symbols)}


def _check_proof(proof, axioms, goal):
    diagnostics = []
    if not check.check_proof(proof, axioms, goal, diagnostics):
        raise VerificationError("proof does not replay: " + "; ".join(diagnostics))


def _cmd_eq_prove(args):
    axioms, signature = _load_axioms(args.axioms)
    goal = check.parse_equation(args.goal, signature)
    if args.exists:
        result = equational.prove_exists(
            goal, axioms, signature, max_candidates=args.budget,
            max_seconds=args.max_seconds,
        )
        if isinstance(result, equational.WitnessResult):
            sigma = result.witness
            instance = check.Equation(
                apply_subst(goal.lhs, sigma),
                apply_subst(goal.rhs, sigma),
            )
            _check_proof(result.proof, axioms, instance)
            witness = ", ".join(
                f"{var_name(v)} := {format_term(t)}"
                for v, t in sorted(sigma.items())
            )
            if args.output:
                _atomic_write(args.output, check.format_proof(result.proof))
            print(f"witness found: {witness or '(trivial)'}")
            return EXIT_OK
    else:
        result = equational.prove(
            goal, axioms, max_expansions=args.budget, max_seconds=args.max_seconds
        )
        if isinstance(result, check.EqProof):
            _check_proof(result, axioms, goal)
            text = check.format_proof(result)
            if args.output:
                _atomic_write(args.output, text)
            print(f"proof found: {len(result.steps)} steps")
            if not args.output:
                sys.stdout.write(text)
            return EXIT_OK
    print(
        "timeout: "
        f"{result.equations_generated} equations generated, "
        f"{result.rewrites_attempted} rewrites attempted"
    )
    return EXIT_NEGATIVE


def _cmd_eq_check(args):
    text = _read(args.proof)
    axioms, signature = _load_axioms(args.axioms)
    goal = check.parse_equation(args.goal, signature)
    proof = check.parse_proof(text, signature)
    diagnostics = []
    if check.check_proof(proof, axioms, goal, diagnostics):
        print(f"proof valid: {len(proof.steps)} steps")
        return EXIT_OK
    for line in diagnostics:
        print(line)
    print("proof invalid")
    return EXIT_NEGATIVE


def _cmd_eq_complete(args):
    axioms, signature = _load_axioms(args.axioms)
    axioms = list(axioms.values())
    precedence = _parse_precedence(args.precedence, signature, axioms)
    try:
        rules = equational.kb_complete(axioms, precedence, budget=args.budget,
                                       max_seconds=args.max_seconds)
    except equational.OrientationError as exc:
        print(f"orientation failure: {exc.equation}")
        return EXIT_NEGATIVE
    except equational.CompletionTimeout as exc:
        print(f"time limit reached with {len(exc.partial_rules)} partial rules")
        return EXIT_NEGATIVE
    except equational.CompletionBudgetExhausted as exc:
        print(f"budget exhausted with {len(exc.partial_rules)} partial rules")
        return EXIT_NEGATIVE
    if not equational.critical_pairs_join(rules):
        raise VerificationError("a critical pair of the completed rules does not join")
    for rule in rules:
        print(rule)
    return EXIT_OK


# --- classify --------------------------------------------------------------


def _cmd_classify(args):
    formula = hierarchy.parse_formula(_read(args.file).strip())
    print(hierarchy.classify(formula))
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bruteforge",
        description="Brute-force laboratory: SAT, colorings, cap sets, "
        "equational proofs, quantifier classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sat = sub.add_parser("sat", help="propositional satisfiability")
    sat_sub = p_sat.add_subparsers(dest="subcommand", required=True)
    p = sat_sub.add_parser("solve", help="solve a DIMACS CNF file")
    p.add_argument("cnf")
    p.add_argument("--cert", help="write the LRAT refutation certificate here")
    p.add_argument("--model", help="write the satisfying assignment here")
    p.set_defaults(handler=_cmd_sat_solve)
    p = sat_sub.add_parser("check", help="check a certificate or a model for a DIMACS CNF file")
    p.add_argument("cnf")
    artifact = p.add_mutually_exclusive_group(required=True)
    artifact.add_argument("--cert", help="LRAT refutation certificate, as sat solve writes it")
    artifact.add_argument("--model", help="satisfying assignment, as sat solve writes it")
    p.set_defaults(handler=_cmd_sat_check)

    p_bpt = sub.add_parser("bpt", help="Pythagorean-triple colorings")
    bpt_sub = p_bpt.add_subparsers(dest="subcommand", required=True)
    p = bpt_sub.add_parser("encode", help="write the CNF encoding for bound M")
    p.add_argument("m", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_bpt_encode)
    p = bpt_sub.add_parser("solve", help="solve the encoding for bound M")
    p.add_argument("m", type=int)
    p.add_argument("--coloring", help="write the 2-coloring here")
    p.add_argument("--cert", help="write the LRAT refutation certificate here")
    p.set_defaults(handler=_cmd_bpt_solve)
    p = bpt_sub.add_parser("scan", help="scan for the first unsatisfiable bound")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--cert", help="write the threshold's LRAT refutation certificate here")
    p.set_defaults(handler=_cmd_bpt_scan)

    p_cap = sub.add_parser("capset", help="cap sets in (Z/3)^n")
    cap_sub = p_cap.add_subparsers(dest="subcommand", required=True)
    p = cap_sub.add_parser("verify", help="verify a cap-set file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_capset_verify)
    p = cap_sub.add_parser("greedy", help="greedy construction from a priority expression")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_capset_greedy)
    p = cap_sub.add_parser("exact", help="exact maximum cap size by branch and bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=_budget, default=100_000,
                   help="search-node budget (default %(default)s)")
    p.set_defaults(handler=_cmd_capset_exact)
    p = cap_sub.add_parser("evolve", help="evolve priority expressions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--log", help="write the JSON-lines run log here")
    p.add_argument("--seed", type=int, default=evolve.EvolveConfig.seed)
    p.add_argument("--evals", type=int, default=evolve.EvolveConfig.eval_budget,
                   help="evaluation budget")
    p.add_argument("--generator-command", help="external generator command")
    p.set_defaults(handler=_cmd_capset_evolve)

    p_eq = sub.add_parser("eq", help="equational reasoning")
    eq_sub = p_eq.add_subparsers(dest="subcommand", required=True)
    p = eq_sub.add_parser("prove", help="search for an equational proof")
    p.add_argument("--axioms", required=True, help="robbins | boolean | group | FILE")
    p.add_argument("--goal", required=True, help="equation 'lhs = rhs'")
    p.add_argument("--budget", type=_budget, default=5000)
    p.add_argument("--max-seconds", type=_seconds, default=None)
    p.add_argument("--exists", action="store_true",
                   help="treat goal variables as existential; enumerate witnesses")
    p.add_argument("-o", "--output", help="write the proof file here")
    p.set_defaults(handler=_cmd_eq_prove)
    p = eq_sub.add_parser("check", help="replay and validate a proof file")
    p.add_argument("proof")
    p.add_argument("--axioms", required=True)
    p.add_argument("--goal", required=True)
    p.set_defaults(handler=_cmd_eq_check)
    p = eq_sub.add_parser("complete", help="Knuth-Bendix completion")
    p.add_argument("--axioms", required=True)
    p.add_argument("--precedence", help="e.g. 'i>*>e'")
    p.add_argument("--budget", type=_budget, default=2000)
    p.add_argument("--max-seconds", type=_seconds, default=None)
    p.set_defaults(handler=_cmd_eq_complete)

    p = sub.add_parser("classify", help="quantifier-alternation class of a formula file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_classify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # argparse reads "--opt=--" as an empty list, not a value
        if isinstance(value, list):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # an input that declares more than fits in memory, such as
        # "p cnf 99999999999 1", is a usage error, not a crash
        print("error: out of memory for this input", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
