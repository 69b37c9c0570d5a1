"""Static checks on the package source."""

import ast
from pathlib import Path

import flagke


def test_package_source_has_no_assert_statements():
    # `python -O` strips `assert`, so exact decisions raise AssertionError explicitly
    root = Path(flagke.__file__).resolve().parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
