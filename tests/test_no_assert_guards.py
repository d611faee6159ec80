"""`python -O` strips assert statements, so the library must not use one as
a guard: every check raises a typed error instead."""

import ast
from pathlib import Path

import toruswalk

SOURCES = sorted(Path(toruswalk.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, f"assert statements in the library: {found}"
