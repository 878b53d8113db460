"""Source-level invariants of the package."""

import ast
import re
from collections import Counter
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


def test_certificate_route_imports_no_rational_polygon_step():
    # step (c) reads corner rings and integer columns: it must not drift back
    # to rational faces, half-plane intersections or interval splitting
    banned = {
        "face_in_direction", "intersect_halfplanes", "HalfPlane", "decompose_interval",
        "_primitive_pair",
    }
    path = PACKAGE_DIR / "multiplication.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [
        (alias.name.split(".")[-1], node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    names += [(n.attr, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    found = [f"{name} (line {line})" for name, line in names if name in banned]
    assert not found, f"multiplication.py reaches for {found}"


def test_readme_example_prints_what_its_comments_say(capsys):
    # each print line of README's example ends in the output it gives
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"```python\n(.*?)```", readme.read_text(), re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints)
    exec(compile(block, str(readme), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        line.split("  # ", 1)[1].strip() for line in prints
    ]


#: Every TheoremViolationError the package builds, keyed by (module, enclosing
#: function), one entry per site in source order: the test that reaches the site
#: by tampering with the code or data before it, or why no input can reach it.
THEOREM_GUARDS = {
    ("lattice", "_ring_count"): (
        "cannot fire: a lattice ring is counter-clockwise and 2A + B is even (Pick)",
    ),
    ("lattice", "decompose_interval"): (
        "cannot fire: once I1 holds an integer and a1 + a2 <= z <= b1 + b2, "
        "max(ceil a1, z - b2) <= min(floor b1, z - a2)",
    ),
    ("multiplication", "DecompositionWitness.__post_init__"): (
        "tests/test_multiplication.py::TestWitnessInvariants::test_witness_must_sum",
    ),
    ("multiplication", "_check_span"): (
        "tests/test_multiplication.py::TestSpans::test_span_check_names_the_first_failing_point",
    ),
    ("multiplication", "triangle_reduce"): (
        "tests/test_multiplication.py::TestTriangleReduce::test_a_tampered_corner_ring_raises",
        "tests/test_multiplication.py::TestTriangleReduce::test_a_tampered_corner_ring_raises",
    ),
    ("multiplication", "decompose_homothetic_triangles"): (
        "cannot fire: two multiples of one lattice triangle share a normal fan, so every "
        "lattice point of their sum splits (Haase, Nill, Paffenholz and Santos, 2008)",
    ),
    ("multiplication", "_structured_column"): (
        "tests/test_multiplication.py::TestTriangleRegions"
        "::test_a_gap_step_d_leaves_raises_at_its_first_point",
    ),
    ("multiplication", "_violation"): (
        "tests/test_multiplication.py::TestCheckSurjectivity::test_violation_names_its_instance",
    ),
    ("multiplication", "check_surjectivity"): (
        "tests/test_multiplication.py::TestCheckSurjectivity"
        "::test_both_mode_raises_when_oracle_lacks_a_point",
    ),
}


def _theorem_violation_sites(tree, module):
    """(module, qualified enclosing function) per TheoremViolationError(...) call."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == "TheoremViolationError":
                sites.append((module, ".".join(scope)))
            visit(child, scope)

    visit(tree, ())
    return sites


def _test_ids(path):
    """file::Class::test for every test function of a test file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    name = f"tests/{path.name}"
    ids = {f"{name}::{n.name}" for n in tree.body if isinstance(n, ast.FunctionDef)}
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        ids |= {f"{name}::{cls.name}::{n.name}" for n in cls.body if isinstance(n, ast.FunctionDef)}
    return ids


def test_every_theorem_guard_is_named():
    # a TheoremViolationError can only come from a fault: each site is either
    # reached by a tamper test or argued unreachable, and the list keeps up with src/
    sites = Counter()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        sites.update(_theorem_violation_sites(ast.parse(path.read_text()), path.stem))
    named = {key: len(entries) for key, entries in THEOREM_GUARDS.items()}
    assert dict(sites) == named, f"guards in src/ {dict(sites)} != named {named}"
    test_ids = set().union(*map(_test_ids, Path(__file__).resolve().parent.glob("test_*.py")))
    for key, entries in THEOREM_GUARDS.items():
        for entry in entries:
            assert entry.startswith("cannot fire: ") or entry in test_ids, (key, entry)
