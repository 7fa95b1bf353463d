"""Repository-level checks on the library source."""

import ast
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
