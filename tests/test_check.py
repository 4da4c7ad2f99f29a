"""The checking module stands apart: `check` imports only `logic` and the
standard library, `logic` imports nothing of the package, and the engines'
old names for the moved checkers are the objects `check` and `logic` define.
Every text format the CLI reads or writes is in `check` too."""

import ast
import pathlib
import sys

import pytest
from hypothesis import given, strategies as st

from bruteforge import bpt, capset, check, cli, equational, logic, sat

PACKAGE = pathlib.Path(check.__file__).parent

# the names perfbench reads through the engine modules
OLD_NAMES = [
    (sat, "Certificate"), (sat, "check_certificate"), (sat, "verify_model"),
    (bpt, "Coloring"), (bpt, "VALID"), (bpt, "verify_coloring"), (bpt, "triples"),
    (bpt, "members"),
    (capset, "is_cap"), (capset, "parse_capset_file"), (capset, "format_capset"),
    (equational, "EqProof"), (equational, "ProofStep"), (equational, "apply_step"),
    (equational, "apply_subst"), (equational, "check_proof"), (equational, "format_proof"),
    (equational, "parse_proof"), (equational, "Equation"),
]

MOVED_TO_LOGIC = {"apply_subst", "subterm_at", "replace_at"}
MOVED_TO_CHECK = {
    "Certificate", "MalformedCertificateError", "PartialAssignmentError", "verify_model",
    "check_certificate", "triples", "members", "Coloring", "VALID", "DomainGapError",
    "InvalidColorError", "verify_coloring", "is_cap", "parse_capset_file", "format_capset",
    "ProofStep", "EqProof", "ProofStepError", "apply_step", "check_proof", "format_proof",
    "parse_proof", "_POSITION_RE", "Equation", "parse_equation", "parse_axioms", "_SIGNATURES",
    "format_model", "parse_model", "format_coloring",
}


def _imports(module):
    """Absolute names of the modules that a package module's source imports,
    anywhere in it."""
    out = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                out.add(node.module)
            elif node.module:
                out.add(f"bruteforge.{node.module}")
            else:
                out.update(f"bruteforge.{alias.name}" for alias in node.names)
    return out


def _top_level_names(path):
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_check_imports_only_logic_and_the_standard_library():
    imported = _imports("check")
    assert "bruteforge.logic" in imported
    for name in imported - {"bruteforge.logic"}:
        assert name.split(".")[0] in sys.stdlib_module_names, name


def test_logic_imports_no_package_module():
    for name in _imports("logic"):
        assert name.split(".")[0] in sys.stdlib_module_names, name


@pytest.mark.parametrize("module, name", OLD_NAMES,
                         ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n in OLD_NAMES])
def test_old_name_is_the_moved_object(module, name):
    home = logic if name in MOVED_TO_LOGIC else check
    assert getattr(module, name) is getattr(home, name)


def test_every_moved_name_is_defined_once():
    defined = {path.stem: _top_level_names(path) for path in PACKAGE.glob("*.py")}
    for name in MOVED_TO_CHECK | MOVED_TO_LOGIC:
        home = "logic" if name in MOVED_TO_LOGIC else "check"
        assert [m for m, names in defined.items() if name in names] == [home], name


def test_cli_holds_no_text_format():
    for name in ("_parse_axiom_file", "_SIGNATURES", "_format_coloring", "parse_term",
                 "clause_line", "Assignment"):
        assert not hasattr(cli, name), name


@given(st.lists(st.booleans(), max_size=40).flatmap(
    lambda values: st.permutations(list(enumerate(values, 1)))))
def test_model_round_trip(pairs):
    # format_model writes variables in order whatever order the dict holds
    model = logic.Assignment(dict(pairs))
    text = check.format_model(model)
    assert [abs(int(lit)) for lit in text.split()] == [*range(1, len(pairs) + 1), 0]
    assert check.parse_model(text, len(pairs)) == model


@pytest.mark.parametrize("text", ["1 0\n", "1 -1 2 0\n", "1 2 3 0\n", "1 2\n", "1 0 2 0\n",
                                  "", "1 two 0\n"])
def test_parse_model_takes_each_variable_once(text):
    with pytest.raises(ValueError) as info:
        check.parse_model(text, 2)
    assert str(info.value) == "model: expected each variable from 1 to 2 once, then 0"


def test_format_coloring_lists_members_in_order():
    coloring = check.Coloring(5, {5: 0, 3: 1, 4: 0})
    assert check.format_coloring(coloring) == "3 1\n4 0\n5 0\n"


def test_parse_axioms_reads_signature_comments_and_blank_lines():
    text = "# the free group\n\nsignature: group  # e, * and i\nG2: e * x = x\n"
    axioms, signature = check.parse_axioms(text)
    assert signature is logic.GROUP_SIG
    assert axioms == {"G2": check.parse_equation("e * x = x", logic.GROUP_SIG)}
    axioms, signature = check.parse_axioms("B: x = x\n")
    assert list(axioms) == ["B"] and signature is logic.BOOLEAN_SIG  # no signature line


@pytest.mark.parametrize("text, message", [
    ("A: x v y = y v x\nA: x = x\n", "line 2: axiom id 'A' repeated"),
    (": x v y = y v x\n", "line 1: axiom id '' is not one word"),
    ("A B: x v y = y v x\n", "line 1: axiom id 'A B' is not one word"),
    ("A: x v y = y v x\nsignature: group\n",
     "line 2: signature line must come once, before every axiom"),
    ("signature: group\nsignature: group\n",
     "line 2: signature line must come once, before every axiom"),
    ("signature: ring\n", "line 1: unknown signature 'ring'"),
    ("# comment\nA x v y = y v x\n", "line 2: expected 'ID: lhs = rhs'"),
    ("A: x v y\n", "line 1: expected 'ID: lhs = rhs'"),
    ("signature: group\nA: x v y = y v x\n", "line 2: symbol 'v' not in signature"),
    ("B1: x v x = x\nB2: (x v y = x\n", "line 2: unexpected end of input (at position 11)"),
    ("B1: x v x = x\n  B2: x = x v # x\n", "line 2: unexpected end of input (at position 14)"),
    ("B1: x v x = x\nB2: f(x) = x\n", "line 2: symbol 'f' not in signature"),
], ids=["repeated", "empty-id", "two-word-id", "signature-after-axiom", "signature-twice",
        "unknown-signature", "no-colon", "no-equals", "symbol-outside-signature",
        "term-syntax", "term-syntax-indented", "term-unknown-symbol"])
def test_parse_axioms_errors(text, message):
    with pytest.raises(ValueError) as info:
        check.parse_axioms(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, pos", [
    ("x = = x", 4), ("x v = x", 4), ("(x = x", 3), ("x = (x v", 8), ("x = x y", 6),
])
def test_parse_equation_positions_count_in_the_whole_text(text, pos):
    with pytest.raises(logic.TermSyntaxError) as info:
        check.parse_equation(text, logic.BOOLEAN_SIG)
    assert info.value.pos == pos


@pytest.mark.parametrize("text, message", [
    ("B1 - x=(x v 0 rl\n", "line 1: unexpected end of input (at position 13)"),
    ("# proof\nB1 - x=f(x) rl\n", "line 2: symbol 'f' not in signature"),
    ("B1 - - lr\n  B2\t1  y = 1; x = (0 v v) lr\n",
     "line 2: symbol 'v' expects 2 arguments (at position 24)"),
    ("B1 - x=0; y rl\n", "line 1: unexpected end of input (at position 11)"),
    ("B1 - x=1; y=0 ^ ^ 1 lr\n", "line 1: symbol '^' expects 2 arguments (at position 16)"),
], ids=["unclosed", "unknown-symbol", "second-binding-spaced", "no-equals", "second-binding"])
def test_parse_proof_term_errors_name_their_line(text, message):
    with pytest.raises(check.ProofStepError) as info:
        check.parse_proof(text, logic.BOOLEAN_SIG)
    assert str(info.value) == message


@given(st.lists(st.sampled_from(["x", "y", "x3"]), min_size=1, max_size=3, unique=True),
       st.sampled_from([" ", "  ", "\t"]))
def test_parse_proof_term_error_position_is_in_the_line(names, gap):
    # the last binding's term is cut short: the error points past it
    bindings = f";{gap}".join(f"{name}{gap}={gap}(0 v 1)" for name in names)
    line = f"{gap}B1{gap}1.0{gap}{bindings[:-1]}{gap}lr"
    with pytest.raises(check.ProofStepError) as info:
        check.parse_proof(f"B2 - - lr\n{line}\n", logic.BOOLEAN_SIG)
    end = len(line) - len(gap) - 2
    assert str(info.value) == f"line 2: unexpected end of input (at position {end})"


def test_parse_equation_reads_from_start():
    eq = check.parse_equation("A1: x v 0 = x", logic.BOOLEAN_SIG, 3)
    assert eq == check.parse_equation("x v 0 = x", logic.BOOLEAN_SIG)
