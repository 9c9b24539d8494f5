"""Guard: every public module-level function and class of the library is
used by the program itself (the library, the demos or the benchmark), not
only by the tests. Code that only the tests need lives under tests/."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "airpool"
USER_DIRS = (ROOT / "src", ROOT / "demos", ROOT / "perfbench")


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path, node


def _references():
    """(path, name, line) of every name loaded or attribute read."""
    refs = []
    for directory in USER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    refs.append((path, node.id, node.lineno))
                elif isinstance(node, ast.Attribute):
                    refs.append((path, node.attr, node.lineno))
    return refs


REFERENCES = _references()


@pytest.mark.parametrize("path,node", list(_definitions()),
                         ids=lambda v: v.name if isinstance(v, ast.AST) else v.stem)
def test_public_name_has_a_non_test_caller(path, node):
    span = range(node.lineno, node.end_lineno + 1)
    users = [(p, line) for p, name, line in REFERENCES
             if name == node.name and not (p == path and line in span)]
    assert users, (f"{path.stem}.{node.name} is referenced only from tests; "
                   f"move it under tests/ or delete it")
