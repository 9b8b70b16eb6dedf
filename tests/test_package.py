"""Rules the package source itself must keep."""

import ast
from pathlib import Path

import spinkac

SOURCES = sorted(Path(spinkac.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise real errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert not found, f"assert statements in the package: {found}"
