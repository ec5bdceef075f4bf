"""Layering guard: every map of the package is a sparse ``ColMap``, and the
dense ``Matrix`` is only the input of elimination inside ``linalg.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "orehom").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree):
    """Every identifier a module uses: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_only_elimination_names_the_dense_matrix():
    naming = {p.name for p in SOURCES if "Matrix" in set(_names(_tree(p)))}
    assert naming == {"linalg.py", "__init__.py"}


def test_no_dense_projection_or_section_is_read():
    reads = [
        f"{path.parent.name}/{path.name}:{node.lineno}: .{node.attr}"
        for path in SOURCES + TESTS
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr in ("projection", "section")
    ]
    assert reads == []


def test_parallel_dense_mechanisms_are_gone():
    defined = set()
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name))
    gone = {("linalg.py", "FullSpace"), ("linalg.py", "from_matrix"), ("algebra.py", "_columns"),
            ("algebra.py", "_k_action_matrix"), ("cli.py", "_identity")}
    assert defined & gone == set()
