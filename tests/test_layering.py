"""Layering guard: every map of the package is a sparse ``ColMap``, every
map of ``bar.py`` is built column by column on demand,
elimination reads sparse term dicts with no dense bridge, the dense
``Matrix`` and ``rref`` have no caller outside ``linalg.py``, every rank is a
``sparse_rank``, every import is used, and no code outside ``fields.py``
divides (``int / int`` is a float)."""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from orehom.fields import make_field, reciprocal
from orehom.linalg import EchelonSet, sparse, sparse_rank

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


def _called(node):
    """The name a Call node calls, bare or as an attribute, else None."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_dense_bridges_are_gone():
    found = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.FunctionDef) and (
                node.name in ("dense_cols", "to_matrix") or (path.name == "linalg.py" and node.name == "rank")
            ):
                found.append(f"{path.name}:{node.lineno}: def {node.name}")
            elif isinstance(node, ast.Call) and _called(node) in ("dense_cols", "to_matrix", "rank"):
                found.append(f"{path.name}:{node.lineno}: call {_called(node)}")
            elif isinstance(node, ast.alias) and node.name == "rank":
                found.append(f"{path.name}:{node.lineno}: import rank")
    assert found == []


def test_densify_stays_in_the_algebra_builders():
    naming = {p.name for p in SOURCES if "densify" in set(_names(_tree(p)))}
    assert naming <= {"algebra.py"}


def test_dense_matrix_and_rref_have_no_caller_outside_linalg():
    calls = [
        f"{path.name}:{node.lineno}: {_called(node)}"
        for path in SOURCES
        if path.name != "linalg.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and _called(node) in ("Matrix", "rref")
    ]
    assert calls == []


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
            ("algebra.py", "_k_action_matrix"), ("cli.py", "_identity"), ("linalg.py", "pivot_score")}
    assert defined & gone == set()


def test_bar_maps_are_built_column_by_column():
    # a bar-side map comes from ``ColMap.lazy`` (or ``generated_map``, which
    # calls it); an empty ``ColMap(..)`` filled by ``set_col`` would build
    # every column whether it is read or not
    eager = [
        f"bar.py:{node.lineno}: {_called(node)}"
        for node in ast.walk(_tree(ROOT / "src" / "orehom" / "bar.py"))
        if isinstance(node, ast.Call) and _called(node) in ("ColMap", "set_col")
    ]
    assert eager == []


def test_no_rank_is_read_off_an_echelon_set():
    reads = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "dim"
        and isinstance(node.value, ast.Call) and "EchelonSet" in _names(node.value.func)
    ]
    assert reads == []


def test_echelon_set_takes_no_width():
    cls = next(node for node in ast.walk(_tree(ROOT / "src" / "orehom" / "linalg.py"))
               if isinstance(node, ast.ClassDef) and node.name == "EchelonSet")
    assert "ncols" not in set(_names(cls)) | {a.arg for a in ast.walk(cls) if isinstance(a, ast.arg)}


def test_every_import_is_used():
    # a line marked ``# noqa: F401`` keeps a name bound for perfbench/tracer.py
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert unused == []


def test_only_fields_divides():
    divisions = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "fields.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert divisions == []


def _exact(values):
    return all(type(v) in (int, Fraction) for v in values)


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), max_size=5),
       x=st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=9)))
def test_rational_elimination_stays_exact(rows, x):
    """Over Q, elimination on int entries gives ints and Fractions, never a
    float, and the same numbers as Fraction arithmetic."""
    Q = make_field("rationals")
    if x:
        inv = reciprocal(x)
        assert type(inv) in (int, Fraction) and inv == 1 / Fraction(x)
        assert (type(inv) is int) == (inv.denominator == 1)
    ech = EchelonSet(Q, map(sparse, rows))
    ref = EchelonSet(Q, [sparse(Fraction(c) for c in row) for row in rows])
    assert all(_exact(row.values()) for row in ech.row_at.values())
    assert ech.row_at == ref.row_at
    cols = [sparse(col) for col in zip(*rows)]
    assert sparse_rank(cols) == ech.dim == ref.dim
