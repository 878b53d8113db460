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


def test_no_floats_outside_svg():
    # exact arithmetic: only the SVG writer may produce floating-point numbers
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "svg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            is_float_call = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            )
            is_float_literal = isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)
            )
            if is_float_call or is_float_literal:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"floats outside svg.py: {found}"


def test_at_most_one_functools_cache():
    # every cache is sized to its traffic; a second one needs its own sizing
    caches = ("cache", "lru_cache", "cached_property")
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            for dec in getattr(node, "decorator_list", ()):
                func = dec.func if isinstance(dec, ast.Call) else dec
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in caches:
                    found.append(f"{path.name}:{dec.lineno}")
    assert len(found) <= 1, f"functools caches in the package: {found}"


def test_fractions_only_in_lattice_and_svg():
    # integer data stay in integers: only the exact geometry layer and the
    # SVG writer may reach for Fraction
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name in ("lattice.py", "svg.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "fractions" for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"fractions imported outside lattice.py and svg.py: {found}"
