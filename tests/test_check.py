"""The checking module stands apart: `check` imports only `logic` and the
standard library, `logic` imports nothing of the package, and the engines'
old names for the moved checkers are the objects `check` and `logic` define."""

import ast
import pathlib
import sys

import pytest

from bruteforge import bpt, capset, check, equational, logic, sat

PACKAGE = pathlib.Path(check.__file__).parent

# the names perfbench reads through the engine modules
OLD_NAMES = [
    (sat, "Certificate"), (sat, "check_certificate"), (sat, "verify_model"),
    (bpt, "Coloring"), (bpt, "VALID"), (bpt, "verify_coloring"), (bpt, "triples"),
    (bpt, "members"),
    (capset, "is_cap"), (capset, "parse_capset_file"), (capset, "format_capset"),
    (equational, "EqProof"), (equational, "ProofStep"), (equational, "apply_step"),
    (equational, "apply_subst"), (equational, "check_proof"), (equational, "format_proof"),
    (equational, "parse_proof"),
]

MOVED_TO_LOGIC = {"apply_subst", "subterm_at", "replace_at"}
MOVED_TO_CHECK = {
    "Certificate", "MalformedCertificateError", "PartialAssignmentError", "verify_model",
    "check_certificate", "triples", "members", "Coloring", "VALID", "DomainGapError",
    "InvalidColorError", "verify_coloring", "is_cap", "parse_capset_file", "format_capset",
    "ProofStep", "EqProof", "ProofStepError", "apply_step", "check_proof", "format_proof",
    "parse_proof", "_POSITION_RE",
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
