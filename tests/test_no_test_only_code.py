"""Guards against code and options that only the tests use.

Every public module-level function and class of the library is used by the
program itself (the library, the demos or the benchmark), not only by the
tests; code that only the tests need lives under tests/. Every parameter
with a default of a public function, method or constructor is passed by
some call of the program, or it is a constant; and every parameter of every
function is read in its body."""

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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _parameters(node: ast.FunctionDef, skip: int):
    """(positional names, names with a default) of a def, less its first
    `skip` positional parameters."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args][skip:]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, defaulted


def _signatures():
    """(label, callees, positional names, names with a default) of every
    public function, public method and constructor of the package. A
    dataclass's constructor takes its annotated fields in order, and
    `dataclasses.replace` passes them by keyword too."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield (f"{path.stem}.{node.name}", (node.name,)) + _parameters(node, 0)
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            if _is_dataclass(node):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                yield (f"{path.stem}.{node.name}", (node.name, "replace"),
                       [f.target.id for f in fields],
                       [f.target.id for f in fields if f.value is not None])
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) or \
                        (method.name.startswith("_") and method.name != "__init__"):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in method.decorator_list)
                callee = node.name if method.name == "__init__" else method.name
                yield (f"{path.stem}.{node.name}.{method.name}", (callee,)) \
                    + _parameters(method, 0 if static else 1)


def _calls():
    """(callee name, call) of every call in the program; `cls(...)` inside a
    class calls that class."""
    for directory in USER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            classes = {id(call): cls.name for cls in ast.walk(tree)
                       if isinstance(cls, ast.ClassDef) for call in ast.walk(cls)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    name = classes.get(id(node), func.id) if func.id == "cls" else func.id
                    yield name, node
                elif isinstance(func, ast.Attribute):
                    yield func.attr, node


def _passed_parameters():
    """Callee name -> (most positional arguments, keyword names, splatted)
    over every call in the program. A `*` or `**` splat passes everything."""
    passed = {}
    for name, call in _calls():
        n_pos, keywords, splat = passed.get(name, (0, set(), False))
        passed[name] = (
            max(n_pos, 0 if name == "replace" else len(call.args)),
            keywords | {k.arg for k in call.keywords if k.arg},
            splat or any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords))
    return passed


PASSED = _passed_parameters()


def _passes(callee, name, positional) -> bool:
    n_pos, keywords, splat = PASSED.get(callee, (0, set(), False))
    return splat or name in keywords or \
        (name in positional and positional.index(name) < n_pos)


@pytest.mark.parametrize("callees,positional,defaulted",
                         [pytest.param(*s[1:], id=s[0]) for s in _signatures() if s[3]])
def test_every_default_is_passed_by_the_program(request, callees, positional, defaulted):
    """A parameter that every call leaves at its default is a constant."""
    unpassed = [p for p in defaulted
                if not any(_passes(c, p, positional) for c in callees)]
    assert not unpassed, (
        f"{request.node.callspec.id}: no call in src/, demos/ or perfbench/ "
        f"passes {', '.join(unpassed)}; make each a constant")


def _all_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                yield path, node


@pytest.mark.parametrize("path,node", list(_all_functions()),
                         ids=lambda v: v.name if isinstance(v, ast.AST) else v.stem)
def test_every_parameter_is_read(path, node):
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = [n for n in names if n not in read]
    assert not unread, f"{path.stem}.{node.name} never reads {', '.join(unread)}"
