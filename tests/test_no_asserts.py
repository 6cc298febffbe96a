"""The library checks at run time with typed errors, never with assert:
an assert vanishes under python -O, and a failing one (or a bare
`raise AssertionError`) raises an AssertionError that no HeckeafError
handler catches."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heckeaf"


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def test_library_excludes_no_line_from_coverage():
    """A branch no input can reach is deleted and its proof written in the
    docstring, not kept behind a coverage pragma."""
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in files
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "pragma: no cover" in line
    ]
    assert found == []
