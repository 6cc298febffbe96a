"""A root is refined along one path: the ladder of field._level.  Every
other question at a root reads the ladder's levels, so two questions at
one root never refine the same stretch twice."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heckeaf"


def _refined_uses(tree):
    """(enclosing function, line) of every `.refined` attribute in tree."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "refined":
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_the_ladder_refines_a_root():
    files = sorted(SRC.rglob("*.py"))
    assert files
    uses = [
        (str(path.relative_to(SRC)), function, lineno)
        for path in files
        for function, lineno in _refined_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert [(path, function) for path, function, _ in uses] == [("exactnum/field.py", "_level")]
