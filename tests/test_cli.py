import json
import os
import random
import resource
import stat
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from bruteforge import bpt, check, cli, sat
from bruteforge.logic import MAX_PARSE_DEPTH, Cnf, VerificationError, parse_dimacs, write_dimacs

BIN = [sys.executable, "-m", "bruteforge.cli"]


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        BIN + list(args), capture_output=True, text=True, env=full_env, timeout=300
    )


class TestExitCodes:
    def test_missing_file_is_usage_error(self, tmp_path):
        path = tmp_path / "missing.prf"
        result = run_cli("eq", "check", str(path), "--axioms", "boolean", "--goal", "x v x = x")
        assert (result.returncode, result.stderr) == (
            2, f"error: cannot read {path}: No such file or directory\n")

    @pytest.mark.parametrize("argv, message", [
        (["eq", "prove", "--axioms", "boolean", "--goal", "x v y"],
         "equation must have the form 'lhs = rhs'"),
        (["eq", "complete", "--axioms", "boolean"],
         "--precedence is required for this axiom set"),
        (["eq", "complete", "--axioms", "group", "--precedence", "i>*>e>q"],
         "precedence symbol 'q' not in signature"),
        (["eq", "complete", "--axioms", "group", "--precedence", "i>*>e>i"],
         "precedence symbol 'i' repeated"),
        (["eq", "complete", "--axioms", "group", "--precedence", "i>*"],
         "precedence misses symbol(s) 'e' of the axioms"),
    ], ids=["goal", "precedence-required", "precedence-unknown", "precedence-repeated",
            "precedence-partial"])
    def test_fault_after_parsing_returns_one_error_line(self, capsys, argv, message):
        # main returns 2 for it, raising nothing, and prints no usage banner
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["sat", "solve", "{}"],
        ["sat", "check", "{f}", "--cert", "{}"],
        ["sat", "check", "{f}", "--model", "{}"],
        ["capset", "verify", "{}"],
        ["eq", "prove", "--axioms", "{}", "--goal", "x = x"],
        ["eq", "check", "{}", "--axioms", "boolean", "--goal", "x = x"],
        ["classify", "{}"],
    ], ids=["sat-solve", "sat-check-cert", "sat-check-model", "capset-verify",
            "eq-prove-axioms", "eq-check", "classify"])
    @pytest.mark.parametrize("kind, reason", [
        ("missing", "No such file or directory"), ("directory", "Is a directory"),
    ])
    def test_unreadable_input_returns_one_error_line(self, tmp_path, capsys, argv, kind,
                                                     reason):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        path = tmp_path / kind
        if kind == "directory":
            path.mkdir()
        argv = [a.format(path, f=cnf) for a in argv]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: cannot read {path}: {reason}\n")

    def test_a_device_is_refused(self):
        # /dev/zero never ends; under this address-space limit a read of it
        # ends in MemoryError at once, not in the refusal, and a pipe still reads
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        def classify(path, stdin=None):
            return subprocess.run(BIN + ["classify", path], input=stdin, capture_output=True,
                                  text=True, timeout=60, preexec_fn=limit)

        result = classify("/dev/zero")
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", "error: cannot read /dev/zero: not a regular file\n")
        result = classify("/dev/stdin", "all m . even(m) -> ex p < m . prime(p)\n")
        assert (result.returncode, result.stdout) == (0, "Pi(1)\n")

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_no_arguments(self):
        assert run_cli().returncode == 2

    @pytest.mark.parametrize("argv", [
        ["capset", "greedy", "--n", "2", "--expr=--"],
        ["eq", "prove", "--axioms", "boolean", "--goal", "x = x", "--budget=--"],
    ], ids=["text", "number"])
    def test_double_dash_value_is_usage_error(self, argv, capsys):
        # argparse reads "--opt=--" as an empty list
        assert _exit_code(argv) == 2
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", [
        ["capset", "exact", "--n", "3"],
        ["eq", "prove", "--axioms", "boolean", "--goal", "x v x = x"],
        ["eq", "complete", "--axioms", "group"],
    ], ids=["capset-exact", "eq-prove", "eq-complete"])
    @pytest.mark.parametrize("budget", ["-1", "-5", "many"])
    def test_bad_budget_is_usage_error(self, verb, budget, capsys):
        assert _exit_code(verb + ["--budget", budget]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(
            f"argument --budget: invalid budget: {budget!r} (expected an integer >= 0)\n")

    @pytest.mark.parametrize("verb, stdout", [
        (["capset", "exact", "--n", "3"], ">= 1 (budget exhausted)\n"),
        (["eq", "prove", "--axioms", "boolean", "--goal", "x v x = x"],
         "timeout: 0 equations generated, 0 rewrites attempted\n"),
        (["eq", "complete", "--axioms", "group"], "budget exhausted with 0 partial rules\n"),
    ], ids=["capset-exact", "eq-prove", "eq-complete"])
    def test_zero_budget_is_a_negative_answer(self, verb, stdout, capsys):
        assert cli.main(verb + ["--budget", "0"]) == 1
        assert capsys.readouterr() == (stdout, "")


class TestWriteFailures:
    """An output that cannot be written is a usage error naming the path
    given, never the temp file beside it, and leaves no temp file.  Every
    writing verb writes before it prints its verdict, so a failed write
    leaves stdout empty."""

    @pytest.fixture(params=["sat-solve-cert", "eq-prove-output", "sat-solve-model",
                            "bpt-solve-coloring", "bpt-solve-cert", "bpt-scan-cert",
                            "capset-greedy-output", "eq-prove-exists-output"])
    def writer(self, request, tmp_path, monkeypatch):
        unsat, sat_cnf = tmp_path / "f.cnf", tmp_path / "g.cnf"
        unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
        sat_cnf.write_text("p cnf 1 1\n1 0\n")
        if request.param in ("bpt-solve-cert", "bpt-scan-cert"):
            # the least unsatisfiable bound, 7825, takes minutes to solve
            certificate = sat.solve(parse_dimacs(unsat.read_text())).certificate
            monkeypatch.setattr(bpt, "solve", lambda m: certificate)
            monkeypatch.setattr(bpt, "find_threshold", lambda m: bpt.Threshold(m, certificate))
        argv = {
            "sat-solve-cert": lambda path: ["sat", "solve", str(unsat), "--cert", path],
            "eq-prove-output": lambda path: ["eq", "prove", "--axioms", "boolean",
                                             "--goal", "x v x = x", "-o", path],
            "sat-solve-model": lambda path: ["sat", "solve", str(sat_cnf), "--model", path],
            "bpt-solve-coloring": lambda path: ["bpt", "solve", "20", "--coloring", path],
            "bpt-solve-cert": lambda path: ["bpt", "solve", "7825", "--cert", path],
            "bpt-scan-cert": lambda path: ["bpt", "scan", "--max", "7825", "--cert", path],
            "capset-greedy-output": lambda path: ["capset", "greedy", "--n", "2",
                                                  "--expr", "v[0]", "-o", path],
            "eq-prove-exists-output": lambda path: ["eq", "prove", "--axioms", "boolean",
                                                    "--goal", "x v y = 1", "--exists",
                                                    "-o", path],
        }[request.param]
        return argv

    def test_missing_directory(self, writer, tmp_path, capsys):
        path = str(tmp_path / "missing" / "out.txt")
        assert cli.main(writer(path)) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {path}: No such file or directory\n")

    def test_directory_as_target(self, writer, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        assert cli.main(writer(str(target))) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {target}: Is a directory\n")
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".bruteforge-")]
        assert os.listdir(target) == []

    def test_an_artifact_gets_the_mode_the_umask_leaves(self, writer, tmp_path):
        # 0o666 less the umask, as a plain open would create it; a replaced
        # file gets it too, not the temp file's 0o600
        fresh, replaced = tmp_path / "fresh.txt", tmp_path / "replaced.txt"
        replaced.write_text("old\n")
        umask = os.umask(0o022)
        try:
            os.chmod(replaced, 0o644)
            for path in (fresh, replaced):
                cli.main(writer(str(path)))
        finally:
            os.umask(umask)
        assert replaced.read_text() != "old\n"
        assert [stat.S_IMODE(p.stat().st_mode) for p in (fresh, replaced)] == [0o644, 0o644]

    def test_a_written_artifact_comes_with_its_verdict(self, writer, tmp_path, capsys):
        path = tmp_path / "out.txt"
        cli.main(writer(str(path)))
        assert path.read_text() and capsys.readouterr().out


class TestSat:
    def test_solve_sat_writes_model(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
        model = tmp_path / "f.model"
        result = run_cli("sat", "solve", str(cnf), "--model", str(model))
        assert result.returncode == 0
        assert "SATISFIABLE" in result.stdout
        assert model.read_text().strip().endswith("0")

    def test_model_file_is_one_dimacs_line(self, tmp_path, capsys):
        cnf, model = tmp_path / "f.cnf", tmp_path / "f.model"
        cnf.write_text("p cnf 0 0\n")
        assert cli.main(["sat", "solve", str(cnf), "--model", str(model)]) == 0
        assert model.read_text() == "0\n"
        # with a variable, the line is the signed variables in order, then 0
        rng = random.Random(16)
        written = 0
        for _ in range(30):
            n = rng.randint(1, 12)
            clauses = [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3)]
                       for _ in range(rng.randint(0, 3 * n))]
            cnf.write_text(write_dimacs(Cnf.of(clauses, n)))
            if cli.main(["sat", "solve", str(cnf), "--model", str(model)]) != 0:
                continue
            values = sat.solve(parse_dimacs(cnf.read_text())).model.values
            lits = [v if values[v] else -v for v in range(1, n + 1)]
            assert model.read_text() == " ".join(map(str, lits)) + " 0\n"
            written += 1
        assert written > 10

    def test_solve_unsat_writes_certificate(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        cert = tmp_path / "f.cert"
        result = run_cli("sat", "solve", str(cnf), "--cert", str(cert))
        assert result.returncode == 1
        assert "UNSATISFIABLE" in result.stdout
        # the last line is the empty clause: its id, then no literal before the 0
        assert cert.read_text().splitlines()[-1].split()[1] == "0"
        result = run_cli("sat", "check", str(cnf), "--cert", str(cert))
        assert (result.returncode, result.stdout) == (0, "certificate valid: 1 lines\n")

    def test_check_what_solve_writes(self, tmp_path, capsys):
        cnf, out = tmp_path / "f.cnf", tmp_path / "out"
        rng = random.Random(20)
        checked = set()
        for _ in range(40):
            n = rng.randint(1, 10)
            clauses = [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3)]
                       for _ in range(rng.randint(0, 6 * n))]
            cnf.write_text(write_dimacs(Cnf.of(clauses, n)))
            flag = "--model" if cli.main(["sat", "solve", str(cnf), "--model", str(out),
                                          "--cert", str(out)]) == 0 else "--cert"
            assert cli.main(["sat", "check", str(cnf), flag, str(out)]) == 0
            checked.add(flag)
        assert checked == {"--model", "--cert"}

    @pytest.mark.parametrize("flag, text, code", [
        ("--cert", "5 -1 0 3 4 0\n6 0 5 1 2 0\n", 0),
        ("--cert", "5 -1 0 3 0\n6 0 5 1 2 0\n", 1),  # hints run out
        ("--cert", "5 -1 0 3 4 0\n", 1),  # no empty clause
        ("--cert", "", 1),
        ("--cert", "5 -1 0 3 4\n", 2),  # no final 0
        ("--cert", "5 -3 0 3 4 0\n6 0 5 1 2 0\n", 2),  # no variable 3
        ("--cert", "5 d 1 0\n", 2),  # deletion lines are not read
        ("--model", "1 -2 0\n", 1),
        ("--model", "-1 2 0\n", 1),
        ("--model", "1 0\n", 2),  # partial
        ("--model", "1 -1 2 0\n", 2),
        ("--model", "1 2 3 0\n", 2),
        ("--model", "1 2\n", 2),
        ("--model", "1 0 2 0\n", 2),
        ("--model", "", 2),
    ])
    def test_check_exit_codes(self, tmp_path, capsys, flag, text, code):
        # every clause over x1, x2: unsatisfiable
        cnf, artifact = tmp_path / "f.cnf", tmp_path / "artifact"
        cnf.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        artifact.write_text(text)
        assert cli.main(["sat", "check", str(cnf), flag, str(artifact)]) == code

    def test_check_missing_file_is_usage_error(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 0\n")
        for flag in ("--cert", "--model"):
            assert cli.main(["sat", "check", str(cnf), flag, str(tmp_path / "nothing")]) == 2
        # an artifact flag is required: argparse rejects the argv itself
        assert _exit_code(["sat", "check", str(cnf)]) == 2

    @pytest.mark.parametrize("text", ["p cnf -1 0\n", "p cnf -5 1\n0\n"])
    def test_negative_header_count_is_usage_error(self, tmp_path, capsys, text):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(text)
        assert cli.main(["sat", "solve", str(cnf)]) == 2
        header = text.splitlines()[0]
        assert capsys.readouterr().err == (
            f"error: line 1: negative count in header {header!r}\n"
        )

    def test_huge_variable_count_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # the allocation for 99999999999 variables fails; a patched one
        # fails the same way without asking for the memory
        def allocate(self, cnf):
            raise MemoryError

        monkeypatch.setattr(sat._Core, "__init__", allocate)
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 99999999999 1\n1 0\n")
        assert cli.main(["sat", "solve", str(cnf)]) == 2
        assert capsys.readouterr().err == "error: out of memory for this input\n"


class TestBpt:
    def test_solve_small_bound(self, tmp_path):
        coloring = tmp_path / "c.txt"
        result = run_cli("bpt", "solve", "5", "--coloring", str(coloring))
        assert result.returncode == 0
        lines = coloring.read_text().splitlines()
        assert [l.split()[0] for l in lines] == ["3", "4", "5"]
        assert all(l.split()[1] in ("0", "1") for l in lines)

    def test_encode_round_trips_through_sat(self, tmp_path):
        cnf = tmp_path / "b.cnf"
        assert run_cli("bpt", "encode", "20", "-o", str(cnf)).returncode == 0
        assert cnf.read_text().startswith("p cnf 13 12")
        assert run_cli("sat", "solve", str(cnf)).returncode == 0

    def test_scan_all_satisfiable(self):
        result = run_cli("bpt", "scan", "--max", "40")
        assert result.returncode == 1
        assert result.stdout == "all satisfiable up to m = 40\n"

    def test_scan_step_flag_is_usage_error(self):
        result = run_cli("bpt", "scan", "--max", "40", "--step", "10")
        assert result.returncode == 2
        assert "unrecognized arguments: --step 10" in result.stderr


class TestVerificationFailure:
    """Re-checks raise VerificationError, which the CLI maps to exit 3."""

    BROKEN_CHECK = (
        "import sys\n"
        "from bruteforge import check, cli\n"
        "check.verify_coloring = lambda coloring, m: (3, 4, 5)\n"
        "sys.exit(cli.main(['bpt', 'scan', '--max', '20']))\n"
    )

    def test_find_threshold_raises(self, monkeypatch):
        monkeypatch.setattr(check, "verify_coloring", lambda coloring, m: (3, 4, 5))
        with pytest.raises(VerificationError):
            bpt.find_threshold(20)

    def test_cli_exit_code_survives_optimize(self):
        result = subprocess.run(
            [sys.executable, "-O", "-c", self.BROKEN_CHECK],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 3
        assert result.stderr.startswith("error: verification failed: ")
        assert len(result.stderr.splitlines()) == 1

    BROKEN_PROOF_CHECK = (
        "import sys\n"
        "from bruteforge import check, cli\n"
        "def reject(proof, axioms, goal, diagnostics=None):\n"
        "    diagnostics.append('rejected')\n"
        "    return False\n"
        "check.check_proof = reject\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize("goal, extra", [("x v y = x", ["--exists", "--budget", "80"]),
                                             ("x v x = x", [])], ids=["exists", "prove"])
    def test_eq_prove_rechecks_proof_under_optimize(self, tmp_path, goal, extra):
        proof = tmp_path / "p.prf"
        result = subprocess.run(
            [sys.executable, "-O", "-c", self.BROKEN_PROOF_CHECK, "eq", "prove",
             "--axioms", "boolean", "--goal", goal, "-o", str(proof), *extra],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 3
        assert result.stderr == "error: verification failed: proof does not replay: rejected\n"
        assert not proof.exists()

    @pytest.mark.parametrize("fault, argv", [
        ("check.verify_model = lambda cnf, model: False",
         ["sat", "solve", "{sat}", "--model", "{out}"]),
        ("check.check_certificate = lambda cnf, cert: False",
         ["sat", "solve", "{unsat}", "--cert", "{out}"]),
        ("check.is_cap = lambda vectors: False",
         ["capset", "greedy", "--n", "2", "--expr", "v[0]", "-o", "{out}"]),
        ("priority.score = lambda expr, n: -1",
         ["capset", "evolve", "--n", "2", "--evals", "20", "--log", "{out}"]),
        ("equational.critical_pairs_join = lambda rules: False",
         ["eq", "complete", "--axioms", "group"]),
        ("check.verify_coloring = lambda coloring, m: (3, 4, 5)",
         ["bpt", "solve", "20", "--coloring", "{out}"]),
    ], ids=["sat-model", "sat-cert", "capset-greedy", "capset-evolve", "eq-complete",
            "bpt-solve"])
    def test_every_verdict_is_rechecked_under_optimize(self, tmp_path, fault, argv):
        (tmp_path / "sat.cnf").write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
        (tmp_path / "unsat.cnf").write_text("p cnf 1 2\n1 0\n-1 0\n")
        out = tmp_path / "out"
        argv = [a.format(sat=tmp_path / "sat.cnf", unsat=tmp_path / "unsat.cnf", out=out)
                for a in argv]
        script = ("import sys\nfrom bruteforge import check, cli, equational, priority\n"
                  f"{fault}\nsys.exit(cli.main(sys.argv[1:]))\n")
        result = subprocess.run([sys.executable, "-O", "-c", script, *argv],
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 3
        assert result.stderr.startswith("error: verification failed: ")
        assert len(result.stderr.splitlines()) == 1
        assert result.stdout == ""
        assert not out.exists()


class TestCapset:
    def test_exact_two(self):
        result = run_cli("capset", "exact", "--n", "2")
        assert result.returncode == 0
        assert result.stdout.strip() == "4"

    def test_exact_stops_at_the_default_budget(self):
        # n = 3 needs 39,928 nodes, inside the default of 100,000; n = 4 does not end
        # without a budget
        result = run_cli("capset", "exact", "--n", "3")
        assert (result.stdout, result.returncode) == ("9\n", 0)
        result = run_cli("capset", "exact", "--n", "4")
        assert (result.stdout, result.stderr, result.returncode) == (
            ">= 20 (budget exhausted)\n", "", 1)

    def test_exact_deep_branch_is_no_traceback(self):
        # the first branch at n = 10 is 2^10 vectors deep
        result = run_cli("capset", "exact", "--n", "10", "--budget", "2000")
        assert (result.stdout, result.stderr, result.returncode) == (
            ">= 1032 (budget exhausted)\n", "", 1)

    def test_verify_cap_and_non_cap(self, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("00\n01\n10\n11\n")
        assert run_cli("capset", "verify", str(good)).returncode == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("00\n11\n22\n")
        assert run_cli("capset", "verify", str(bad)).returncode == 1

    def test_greedy_writes_capset_file(self, tmp_path):
        out = tmp_path / "cap.txt"
        result = run_cli("capset", "greedy", "--n", "2", "--expr", "0", "-o", str(out))
        assert result.returncode == 0
        assert out.read_text() == "00\n01\n10\n11\n"

    def test_deeply_nested_expr_is_usage_error(self):
        expr = "(" * 3000 + "1" + ")" * 3000
        result = run_cli("capset", "greedy", "--n", "2", "--expr", expr)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ")

    def test_evolve_log_reproducible(self, tmp_path):
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            log = tmp_path / name
            result = run_cli(
                "capset", "evolve", "--n", "2", "--seed", "3", "--evals", "40",
                "--log", str(log),
            )
            assert result.returncode == 0
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]
        for line in logs[0].decode().splitlines():
            json.loads(line)

    @pytest.mark.parametrize("flags, value", [
        (["--evals", "0"], 0), (["--evals", "-4"], -4),
        (["--seed", "0", "--evals", "0", "--generator-command", "python3 g.py"], 0),
    ], ids=["flag-zero", "flag-negative", "config-zero"])
    def test_evolve_eval_budget_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                          flags, value):
        # a budget below 1 used to run one evaluation and exit 0; config-zero
        # gives every setting the old config file carried, as flags, and the
        # budget must still be rejected before a generator child starts
        started = []
        monkeypatch.setattr(subprocess, "Popen", lambda *a, **k: started.append(a))
        log = tmp_path / "r.jsonl"
        argv = ["capset", "evolve", "--n", "2", "--log", str(log), *flags]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: eval_budget must be positive, got {value}\n")
        assert not log.exists()
        assert started == []

    @pytest.mark.parametrize("n, message", [
        ("0", "n must be positive"), ("13", "dimension 13 above limit 12"),
    ])
    def test_evolve_bad_dimension_is_usage_error(self, capsys, monkeypatch, n, message):
        # a generator command is set, so n must be rejected before any
        # child starts
        started = []
        monkeypatch.setattr(subprocess, "Popen", lambda *a, **k: started.append(a))
        argv = ["capset", "evolve", "--n", n, "--evals", "6",
                "--generator-command", "python3 g.py"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert started == []

    @pytest.mark.parametrize("command", ["", "   "], ids=["empty", "blank"])
    def test_evolve_blank_generator_command_is_usage_error(self, capsys, monkeypatch, command):
        # "" ran the baseline generator and "   " gave Popen an empty argv
        started = []
        monkeypatch.setattr(subprocess, "Popen", lambda *a, **k: started.append(a))
        argv = ["capset", "evolve", "--n", "3", "--evals", "6", "--generator-command", command]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: generator command is empty\n")
        assert started == []

    def test_evolve_generator_command_selects_external(self, tmp_path):
        child = tmp_path / "broken.py"
        child.write_text("import sys\nfor line in sys.stdin:\n    print('no', flush=True)\n")
        log = tmp_path / "r.jsonl"
        argv = ["capset", "evolve", "--n", "2", "--evals", "12", "--log", str(log),
                "--generator-command", f"{sys.executable} {child}"]
        assert cli.main(argv) == 0
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert sum(r.get("event") == "generator_error" for r in records) == 8

    def _evolve_log(self, tmp_path, name, env=None):
        log = tmp_path / name
        result = run_cli("capset", "evolve", "--n", "2", "--seed", "3", "--evals", "40",
                         "--log", str(log), env=env)
        assert result.returncode == 0
        return log.read_bytes()

    def test_evolve_jobs_env_var(self, tmp_path, monkeypatch):
        # BRUTEFORGE_JOBS is not read: the pool follows n and the CPU count
        monkeypatch.delenv("BRUTEFORGE_JOBS", raising=False)
        assert (self._evolve_log(tmp_path, "a.jsonl", {"BRUTEFORGE_JOBS": "4"})
                == self._evolve_log(tmp_path, "b.jsonl"))

    def test_evolve_generator_env_var(self, tmp_path, monkeypatch):
        # CAPSET_GENERATOR is not read; this generator fails every proposal
        child = tmp_path / "broken.py"
        child.write_text("import sys\nfor line in sys.stdin:\n    print('no', flush=True)\n")
        monkeypatch.delenv("CAPSET_GENERATOR", raising=False)
        env = {"CAPSET_GENERATOR": f"{sys.executable} {child}"}
        assert (self._evolve_log(tmp_path, "a.jsonl", env)
                == self._evolve_log(tmp_path, "b.jsonl"))

    def test_evolve_jobs_flag_is_usage_error(self, capsys):
        assert _exit_code(["capset", "evolve", "--n", "2", "--jobs", "2"]) == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("capacity = 0", "capacity must be positive, got 0"),
        ("tournament = 0", "tournament must be positive, got 0"),
        ("generator = baseline", "unknown config key 'generator'"),
        ("jobs = 2", "unknown config key 'jobs'"),
    ])
    def test_evolve_bad_config_is_usage_error(self, tmp_path, capsys, line, message):
        # settings come from flags alone: a config file is refused unread, so
        # the error its line once raised is not the one reported
        config = tmp_path / "c.cfg"
        config.write_text(line + "\n")
        log = tmp_path / "r.jsonl"
        argv = ["capset", "evolve", "--n", "2", "--config", str(config), "--evals", "20",
                "--log", str(log)]
        assert _exit_code(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: unrecognized arguments: --config {config}\n")
        assert message not in err
        assert not log.exists()


class TestEq:
    def test_prove_then_check(self, tmp_path):
        proof = tmp_path / "p.prf"
        result = run_cli("eq", "prove", "--axioms", "boolean",
                         "--goal", "x v x = x", "-o", str(proof))
        assert result.returncode == 0
        check = run_cli("eq", "check", str(proof), "--axioms", "boolean",
                        "--goal", "x v x = x")
        assert check.returncode == 0
        assert "proof valid" in check.stdout

    def test_check_detects_corruption(self, tmp_path):
        proof = tmp_path / "p.prf"
        run_cli("eq", "prove", "--axioms", "boolean", "--goal", "x v x = x",
                "-o", str(proof))
        lines = proof.read_text().splitlines()
        proof.write_text("\n".join(lines[:-1]) + "\n")
        result = run_cli("eq", "check", str(proof), "--axioms", "boolean",
                         "--goal", "x v x = x")
        assert result.returncode == 1

    GOAL = "z v (x v y) = z v (y v x)"

    def test_check_rejects_negative_position(self, tmp_path):
        proof = tmp_path / "p.prf"
        proof.write_text("B2 -1 - lr\n")
        result = run_cli("eq", "check", str(proof), "--axioms", "boolean", "--goal", self.GOAL)
        assert result.returncode == 1
        assert "proof invalid" in result.stdout
        proof.write_text("B2 1 - lr\n")
        result = run_cli("eq", "check", str(proof), "--axioms", "boolean", "--goal", self.GOAL)
        assert result.returncode == 0

    def test_check_rejects_bad_position(self, tmp_path):
        proof = tmp_path / "p.prf"
        proof.write_text("B2 a - lr\n")
        result = run_cli("eq", "check", str(proof), "--axioms", "boolean", "--goal", self.GOAL)
        assert result.returncode == 2
        assert result.stderr == "error: line 1: bad position 'a'\n"

    def test_check_rejects_bad_binding_name(self, tmp_path):
        proof = tmp_path / "p.prf"
        proof.write_text("B2 1 q=1 lr\n")
        result = run_cli("eq", "check", str(proof), "--axioms", "boolean", "--goal", self.GOAL)
        assert result.returncode == 2
        assert result.stderr == "error: line 1: bad variable name 'q'\n"

    def test_prove_timeout_is_negative_result(self):
        result = run_cli("eq", "prove", "--axioms", "robbins",
                         "--goal", "-(x) v x = x", "--budget", "50")
        assert result.returncode == 1
        assert "timeout" in result.stdout

    def test_complete_group(self):
        result = run_cli("eq", "complete", "--axioms", "group")
        assert result.returncode == 0
        assert "i(i(" in result.stdout

    def test_complete_group_text_as_a_file(self, tmp_path):
        # the shipped set is this text, and a group file needs no --precedence
        axioms = tmp_path / "g.ax"
        axioms.write_text("signature: group\nG1: (x * y) * z = x * (y * z)\n"
                          "G2: e * x = x\nG3: i(x) * x = e\n")
        result = run_cli("eq", "complete", "--axioms", str(axioms))
        assert result.returncode == 0
        assert result.stdout == run_cli("eq", "complete", "--axioms", "group").stdout

    def test_complete_unorientable(self, tmp_path):
        axioms = tmp_path / "ax.txt"
        axioms.write_text("signature: boolean\nC: x v y = y v x\n")
        result = run_cli("eq", "complete", "--axioms", str(axioms),
                         "--precedence", "- > v > ^ > 1 > 0")
        assert result.returncode == 1
        assert "orientation failure" in result.stdout

    def test_prove_exists(self):
        result = run_cli("eq", "prove", "--axioms", "boolean",
                         "--goal", "x v y = x", "--exists", "--budget", "80")
        assert result.returncode == 0
        assert "witness found" in result.stdout

    def test_prove_exists_keeps_the_time_limit(self):
        result = run_cli("eq", "prove", "--axioms", "boolean", "--goal", "x v y = x",
                         "--exists", "--budget", "80", "--max-seconds", "0")
        assert result.returncode == 1
        assert result.stdout == "timeout: 0 equations generated, 0 rewrites attempted\n"

    def test_axiom_file_roundtrip(self, tmp_path):
        axioms = tmp_path / "ax.txt"
        axioms.write_text("signature: group\nA1: (x * y) * z = x * (y * z)\n"
                          "A2: e * x = x\nA3: i(x) * x = e\n")
        result = run_cli("eq", "complete", "--axioms", str(axioms),
                         "--precedence", "i>*>e")
        assert result.returncode == 0

    def test_axiom_file_proof_round_trip(self, tmp_path):
        axioms = tmp_path / "ax.txt"
        axioms.write_text("signature: boolean\nComm: x v y = y v x\nAbs-1: x v (x ^ y) = x\n")
        proof = tmp_path / "p.prf"
        goal = "(x ^ y) v x = x"
        result = run_cli("eq", "prove", "--axioms", str(axioms), "--goal", goal,
                         "-o", str(proof))
        assert result.returncode == 0
        check = run_cli("eq", "check", str(proof), "--axioms", str(axioms), "--goal", goal)
        assert check.returncode == 0
        assert "proof valid" in check.stdout

    @pytest.mark.parametrize("text, message", [
        ("A: x v y = y v x\nA: x = x\n", "line 2: axiom id 'A' repeated"),
        (": x v y = y v x\n", "line 1: axiom id '' is not one word"),
        ("A B: x v y = y v x\n", "line 1: axiom id 'A B' is not one word"),
    ], ids=["repeated", "empty", "two-words"])
    def test_axiom_file_ids_are_one_word_used_once(self, tmp_path, text, message):
        # a repeated id would overwrite the earlier axiom, and an id that is
        # not one word writes a proof that `eq check` cannot read back
        axioms = tmp_path / "ax.txt"
        axioms.write_text(text)
        result = run_cli("eq", "prove", "--axioms", str(axioms), "--goal", "x v y = y v x")
        assert result.returncode == 2
        assert result.stderr.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("text", [
        "A: x v y = y v x\nsignature: group\nG2: e * x = x\n",
        "signature: group\nsignature: group\nG2: e * x = x\n",
    ], ids=["after-axiom", "repeated"])
    def test_axiom_file_signature_line_comes_once_and_first(self, tmp_path, text):
        # otherwise the axioms would be parsed under two signatures, and
        # the mixed set would prove e * (e * x) = x
        axioms = tmp_path / "ax.txt"
        axioms.write_text(text)
        result = run_cli("eq", "prove", "--axioms", str(axioms), "--goal", "e * (e * x) = x")
        assert result.returncode == 2
        assert result.stderr.endswith(
            "error: line 2: signature line must come once, before every axiom\n")
        assert result.stdout == ""

    def test_axiom_file_error_is_one_line(self, tmp_path):
        # like every other malformed input file: no usage banner
        axioms = tmp_path / "ax.txt"
        axioms.write_text("signature: ring\n")
        result = run_cli("eq", "complete", "--axioms", str(axioms))
        assert (result.stderr, result.returncode) == (
            "error: line 1: unknown signature 'ring'\n", 2)

    @pytest.mark.parametrize("text, message", [
        ("B1: x v x = x\nB2: (x v y = x\n", "line 2: unexpected end of input (at position 11)"),
        ("B1: x v x = x\nB2: f(x) = x\n", "line 2: symbol 'f' not in signature"),
    ], ids=["syntax", "unknown-symbol"])
    def test_axiom_file_term_error_names_its_line(self, tmp_path, capsys, text, message):
        axioms = tmp_path / "ax.txt"
        axioms.write_text(text)
        assert cli.main(["eq", "complete", "--axioms", str(axioms), "--precedence", "v"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("B1 - x=(x v 0 rl\n", "line 1: unexpected end of input (at position 13)"),
        ("# proof\nB1 - x=f(x) rl\n", "line 2: symbol 'f' not in signature"),
    ], ids=["syntax", "unknown-symbol"])
    def test_proof_file_term_error_names_its_line(self, tmp_path, capsys, text, message):
        proof = tmp_path / "p.prf"
        proof.write_text(text)
        assert cli.main(["eq", "check", str(proof), "--axioms", "boolean",
                         "--goal", "x v x = x"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("goal, message", [
        ("x = = x", "unexpected character '=' (at position 4)"),
        ("x v = x", "unexpected end of input (at position 4)"),
        ("x = x v", "unexpected end of input (at position 7)"),
    ])
    def test_goal_error_position_counts_in_the_goal(self, capsys, goal, message):
        assert cli.main(["eq", "prove", "--axioms", "boolean", "--goal", goal]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("value", ["nan", "NaN", "x"])
    def test_max_seconds_must_be_a_number(self, value):
        # `elapsed > nan` is always False, so NaN would switch the limit off
        result = run_cli("eq", "prove", "--axioms", "boolean", "--goal", "x v x = x",
                         f"--max-seconds={value}")
        assert result.returncode == 2
        assert result.stderr.endswith(f"invalid number of seconds: {value!r}\n")

    def test_complete_max_seconds_must_be_a_number(self):
        result = run_cli("eq", "complete", "--axioms", "group", "--max-seconds=nan")
        assert result.returncode == 2
        assert result.stderr.endswith("invalid number of seconds: 'nan'\n")

    @pytest.mark.parametrize("seconds", ["0", "0.5"])
    def test_complete_time_limit(self, tmp_path, seconds):
        # associativity and left inverse alone: the default budget of 2000
        # picks takes about a minute to run out
        axioms = tmp_path / "ax.txt"
        axioms.write_text("signature: group\nG1: (x * y) * z = x * (y * z)\n"
                          "G3: i(x) * x = e\n")
        result = run_cli("eq", "complete", "--axioms", str(axioms), "--max-seconds", seconds)
        assert result.returncode == 1
        if seconds == "0":
            assert result.stdout == "time limit reached with 0 partial rules\n"
        else:
            assert result.stdout.startswith("time limit reached with ")
            assert result.stdout.endswith(" partial rules\n")

    # the oriented rules terminate, but normalising the 18-deep i(...)
    # takes more than MAX_REWRITE_STEPS steps
    TRIPWIRE = ("signature: group\nR1: i(x * y) = i(x) * i(y)\nR2: i(e) = e * e\n"
                f"A: {'i(' * 18}e{')' * 18} = e\n")

    def test_complete_rewrite_step_bound_is_a_give_up(self, tmp_path, capsys):
        axioms = tmp_path / "ax.txt"
        axioms.write_text(self.TRIPWIRE)
        assert cli.main(["eq", "complete", "--axioms", str(axioms),
                         "--precedence", "i > * > e"]) == 1
        assert capsys.readouterr() == ("rewrite step bound exceeded with 2 partial rules\n", "")

    def test_complete_time_limit_stops_a_long_normalisation(self, tmp_path, capsys):
        # rewrite reads the deadline at each step, so the run stops at the
        # limit, not after MAX_REWRITE_STEPS steps
        axioms = tmp_path / "ax.txt"
        axioms.write_text(self.TRIPWIRE)
        assert cli.main(["eq", "complete", "--axioms", str(axioms),
                         "--precedence", "i > * > e", "--max-seconds", "0.3"]) == 1
        assert capsys.readouterr() == ("time limit reached with 2 partial rules\n", "")

    def test_prove_exists_varies_every_variable(self, capsys):
        # only x := 1 proves it, so the candidates must not all fix x := 0
        assert cli.main(["eq", "prove", "--axioms", "boolean", "--goal", "x ^ -y = 1 v -1",
                         "--exists"]) == 0
        assert capsys.readouterr() == ("witness found: x := 1, y := 0\n", "")


    @pytest.mark.parametrize("axioms, precedence, message", [
        ("group", "i>*", "precedence misses symbol(s) 'e' of the axioms"),
        ("boolean", "v>^", "precedence misses symbol(s) '-', '0', '1' of the axioms"),
        ("group", "i>*>e>i", "precedence symbol 'i' repeated"),
    ], ids=["group-missing", "boolean-missing", "repeated"])
    def test_complete_rejects_partial_precedence(self, axioms, precedence, message):
        result = run_cli("eq", "complete", "--axioms", axioms, "--precedence", precedence)
        assert (result.returncode, result.stderr) == (2, f"error: {message}\n")

    def test_goal_variable_with_leading_zero(self):
        result = run_cli("eq", "prove", "--axioms", "boolean", "--goal", "x01 v x1 = x1")
        assert result.returncode == 2
        assert result.stderr == "error: symbol 'x01' not in signature\n"


class TestClassify:
    def test_formula_file(self, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("all x . ex y . A(x,y)\n")
        result = run_cli("classify", str(f))
        assert result.returncode == 0
        assert result.stdout.strip() == "Pi(2)"

    def test_bounded_only(self, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("all x < n . A(x)\n")
        result = run_cli("classify", str(f))
        assert result.stdout.strip() == "Delta0"


class TestDepthLimit:
    """Input nested exactly MAX_PARSE_DEPTH deep runs; one level more is a
    usage error with one `error:` line, never a traceback."""

    @staticmethod
    def _usage_error(result):
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("extra", [[], ["--exists"]], ids=["prove", "exists"])
    def test_eq_goal_at_the_limit(self, extra):
        t = "-" * (MAX_PARSE_DEPTH - 1) + "x"
        result = run_cli("eq", "prove", "--axioms", "boolean", "--goal", f"{t} = {t}",
                         "--budget", "5", *extra)
        assert result.returncode == 0
        assert "Traceback" not in result.stderr

    def test_eq_search_at_the_limit(self):
        t = "-" * (MAX_PARSE_DEPTH - 1) + "x"
        result = run_cli("eq", "prove", "--axioms", "boolean", "--goal", f"{t} = y",
                         "--budget", "1")
        assert result.returncode == 1
        assert "timeout" in result.stdout

    @pytest.mark.parametrize("goal", ["-" * MAX_PARSE_DEPTH + "x = x",
                                      "x = " + "(" * MAX_PARSE_DEPTH + "x" + ")" * MAX_PARSE_DEPTH,
                                      "-" * 5000 + "x = x"],
                             ids=["negation", "brackets", "negation-5000"])
    def test_eq_goal_beyond_the_limit(self, goal):
        self._usage_error(run_cli("eq", "prove", "--axioms", "boolean", "--goal", goal))

    def test_eq_check_of_a_deep_proof_is_usage_error(self, tmp_path, capsys):
        # each line rewrites one level deeper than the last; at 400 lines
        # the replay ends in "proof invalid", at 1,200 past the recursion limit
        proof = tmp_path / "p.prf"
        proof.write_text("".join(f"B3 {'.'.join(['0'] * i) or '-'} x=x; y=x rl\n"
                                 for i in range(1200)))
        assert cli.main(["eq", "check", str(proof), "--axioms", "boolean",
                         "--goal", "x = x"]) == 2
        assert capsys.readouterr() == ("", "error: input nested too deeply to process\n")

    def test_eq_complete_of_a_deep_rewrite_is_usage_error(self, tmp_path, capsys):
        # the axioms parse (190 < MAX_PARSE_DEPTH), but R turns each i( into three
        # nested products, and normalising those recurses past the limit
        axioms = tmp_path / "ax.txt"
        axioms.write_text("signature: group\nR: i(x) = ((x * e) * e) * e\n"
                          f"A: {'i(' * 190}e{')' * 190} = e\n")
        assert cli.main(["eq", "complete", "--axioms", str(axioms),
                         "--precedence", "i > * > e"]) == 2
        assert capsys.readouterr() == ("", "error: input nested too deeply to process\n")

    @pytest.mark.parametrize("text, label", [("~" * (MAX_PARSE_DEPTH - 1) + "A", "Delta0"),
                                             ("all x . " * (MAX_PARSE_DEPTH - 1) + "A(x)",
                                              "Pi(1)")],
                             ids=["negation", "quantifier"])
    def test_classify_at_the_limit(self, tmp_path, text, label):
        f = tmp_path / "f.txt"
        f.write_text(text + "\n")
        result = run_cli("classify", str(f))
        assert result.returncode == 0
        assert result.stdout.strip() == label

    @pytest.mark.parametrize("text", ["~" * MAX_PARSE_DEPTH + "A",
                                      "all x . " * MAX_PARSE_DEPTH + "A(x)",
                                      "~" * 5000 + "A", "all x . " * 300 + "A(x)"],
                             ids=["negation", "quantifier", "negation-5000", "quantifier-300"])
    def test_classify_beyond_the_limit(self, tmp_path, text):
        f = tmp_path / "f.txt"
        f.write_text(text + "\n")
        self._usage_error(run_cli("classify", str(f)))


def _exit_code(argv):
    """main's exit code for an argv that argparse itself may reject: only
    then does a usage error leave main as SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


_FORMULA_PIECES = ["all ", "ex ", "x", "y", "n", "A", "(", ")", ",", "<", ".",
                   "~", "&", "|", "->", " "]


_DIMACS_LINES = st.one_of(
    st.tuples(st.integers(-2, 6), st.integers(-2, 8)).map(lambda h: "p cnf %d %d\n" % h),
    st.lists(st.integers(-6, 6), max_size=5).map(lambda lits: " ".join(map(str, lits)) + "\n"),
    st.sampled_from(["0\n", "c note\n", "\n", "p cnf\n", "p dnf 1 1\n", "1 x 0\n"]),
)


_CERT_LINES = st.lists(st.integers(-8, 8), max_size=8).map(
    lambda nums: " ".join(map(str, nums)) + "\n")


_CAPSET_LINES = st.one_of(
    st.text(alphabet="012", max_size=5).map(lambda digits: digits + "\n"),
    st.sampled_from(["# c\n", "\n", " 01 \n", "0 1\n", "3\n", "x\n", "012\r\n", "-1\n"]),
)


_PROOF_LINES = st.tuples(
    st.sampled_from(["B1", "B2", "B3", "B8", "B10", "Z9", "", "#"]),
    st.sampled_from([" - ", " 0 ", " 1 ", " 0.1 ", " -1 ", " a ", " 1. ", " "]),
    st.sampled_from(["-", "x=x", "x=0; y=x v x", "y=x ^ -x", "z=(x", "q=1", "x=", ""]),
    st.sampled_from([" lr", " rl", " up", ""]),
    st.sampled_from(["\n", "  # note\n", ""]),
).map("".join)


_TERM_PIECES = ["x", "y", "x1", "x01", "0", "1", "-", " v ", " ^ ", "(", ")", "=", " ",
                "*", "i(", "e"]


_AXIOM_LINES = st.one_of(
    st.tuples(
        st.sampled_from(["A", "B", "A B", "", "B2", "signature", "x"]),
        st.sampled_from([": ", ":", " "]),
        st.lists(st.sampled_from(_TERM_PIECES), max_size=6).map("".join),
        st.sampled_from([" = ", "=", ""]),
        st.lists(st.sampled_from(_TERM_PIECES), max_size=6).map("".join),
        st.sampled_from(["\n", "  # note\n"]),
    ).map("".join),
    st.sampled_from(["signature: boolean\n", "signature: group\n", "signature: nope\n",
                     "A: x v y = y v x\n", "# c\n", "\n"]),
)


_EXPR_PIECES = ["n", "v", "[", "]", "0", "1", "2", "7", "-", "+", "*", "%", "(", ")", ",",
                "min", "max", " ", "x"]


class TestExitContractFuzz:
    """Arbitrary input exits 0, 1 or 2 and raises nothing else.  Where
    argparse accepts every argv drawn, main itself must return the code."""

    @settings(max_examples=200, deadline=None)
    @given(st.text() | st.lists(st.sampled_from(_FORMULA_PIECES)).map("".join))
    def test_classify_arbitrary_text(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "f.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            assert cli.main(["classify", path]) in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-3, 4) | st.integers(13), st.integers(), st.integers(-3, 12))
    def test_evolve_arbitrary_flags(self, n, seed, evals):
        # no generator command, so no child process starts; n stays small
        # or out of range and --evals small, so each run is short and serial
        argv = ["capset", "evolve", "--n", str(n), "--seed", str(seed), "--evals", str(evals)]
        assert cli.main(argv) in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([
        ["capset", "exact", "--n", "3"],
        ["eq", "prove", "--axioms", "boolean", "--goal", "x v y = y v x"],
        ["eq", "complete", "--axioms", "group"],
    ]), st.integers(max_value=4))
    def test_any_integer_budget(self, verb, budget):
        # a negative budget is a usage error; the rest stay small, so each run is short
        code = _exit_code(verb + [f"--budget={budget}"])
        if budget < 0:
            assert code == 2
        else:
            assert code in (0, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="ie*> x"))
    def test_complete_arbitrary_precedence(self, text):
        argv = ["eq", "complete", "--axioms", "group", "--precedence", text]
        assert cli.main(argv) in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.text() | st.lists(_DIMACS_LINES, max_size=12).map("".join))
    def test_sat_solve_arbitrary_text(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "f.cnf")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            assert cli.main(["sat", "solve", path]) in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.text() | st.lists(_CERT_LINES, max_size=8).map("".join),
           st.sampled_from(["--cert", "--model"]))
    def test_sat_check_arbitrary_certificate_and_model(self, text, flag):
        with tempfile.TemporaryDirectory() as directory:
            cnf, path = os.path.join(directory, "f.cnf"), os.path.join(directory, "a.txt")
            with open(cnf, "w", encoding="utf-8") as handle:
                handle.write("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            assert cli.main(["sat", "check", cnf, flag, path]) in (0, 1, 2)

    @settings(deadline=None)
    @given(st.integers(-5, 60))
    def test_bpt_solve_any_bound(self, m):
        assert cli.main(["bpt", "solve", str(m)]) in (0, 1, 2)

    @settings(deadline=None)
    @given(st.integers(-5, 60))
    def test_bpt_encode_any_bound(self, m):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "b.cnf")
            assert cli.main(["bpt", "encode", str(m), "-o", path]) in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-5, 60))
    def test_bpt_scan_any_bounds(self, max_m):
        assert cli.main(["bpt", "scan", "--max", str(max_m)]) in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.text() | st.lists(_CAPSET_LINES, max_size=12).map("".join))
    def test_capset_verify_arbitrary_text(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "c.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            assert cli.main(["capset", "verify", path]) in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.text() | st.lists(_PROOF_LINES, max_size=6).map("".join))
    def test_eq_check_arbitrary_proof(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "p.prf")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            argv = ["eq", "check", path, "--axioms", "boolean", "--goal", "x v x = x"]
            assert cli.main(argv) in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.text() | st.lists(st.sampled_from(_TERM_PIECES)).map("".join))
    def test_eq_prove_arbitrary_goal(self, text):
        argv = ["eq", "prove", "--axioms", "boolean", f"--goal={text}", "--budget", "3"]
        assert _exit_code(argv) in (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.text() | st.lists(_AXIOM_LINES, max_size=6).map("".join))
    def test_eq_prove_arbitrary_axiom_file(self, text):
        # a proof that `eq prove` writes, `eq check` reads back and accepts
        with tempfile.TemporaryDirectory() as directory:
            axioms = os.path.join(directory, "ax.txt")
            with open(axioms, "w", encoding="utf-8") as handle:
                handle.write(text)
            proof = os.path.join(directory, "p.prf")
            goal = "--goal=x v y = y v x"
            code = cli.main(["eq", "prove", "--axioms", axioms, goal, "--budget", "3",
                             "-o", proof])
            assert code in (0, 1, 2)
            if code == 0:
                assert cli.main(["eq", "check", proof, "--axioms", axioms, goal]) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.text() | st.lists(st.sampled_from(_EXPR_PIECES)).map("".join))
    def test_capset_greedy_arbitrary_expr(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "c.txt")
            argv = ["capset", "greedy", "--n", "2", f"--expr={text}", "-o", path]
            assert _exit_code(argv) in (0, 1, 2)
