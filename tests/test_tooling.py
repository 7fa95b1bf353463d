"""Repository-level checks on the library source."""

import ast
import importlib
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "k3cycles"


def test_no_assert_statements_in_library():
    # Certificates must keep running under `python -O`, which strips asserts.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/k3cycles: {found}"


def _tracing_table(name):
    """A module-level literal of perfbench/tracing.py, read without importing it."""
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {path}")


def test_traced_functions_resolve():
    # The tracer only lists a vanished function under `missing`; a refactor
    # must not drop a traced layer silently.
    named = [(mod, fn) for mod, fns in _tracing_table("SPANNED").items() for fn in fns]
    named += list(_tracing_table("COUNTED").values())
    assert len(named) >= 30
    gone = [f"{mod}.{fn}" for mod, fn in named if not callable(getattr(importlib.import_module(f"k3cycles.{mod}"), fn, None))]
    assert not gone, f"traced functions missing from k3cycles: {gone}"


def _unused_imports(tree):
    """Names bound by module-level imports that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_module_imports():
    # __init__.py re-exports its imports, so it is left out.
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, f"unused module-level imports in src/k3cycles: {found}"
