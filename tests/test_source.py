"""Source-level invariants of the package."""

import ast
from pathlib import Path

import toricmult

PACKAGE_DIR = Path(toricmult.__file__).resolve().parent


def test_no_assert_statements():
    # invariants must raise, so that they still hold under python -O
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert any(path.name == "multiplication.py" for path in paths)
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"
