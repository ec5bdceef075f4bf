"""Layering guard: every map of the package is a sparse ``ColMap``, every
map of ``bar.py`` is built column by column on demand, b, B and b' have no
second, one-tensor-at-a-time column builder, b' is a generated bimodule map,
elimination reads sparse term dicts with no dense bridge, the dense
``Matrix`` and ``rref`` have no caller outside ``linalg.py``, every element of
K and of A is a sparse dict (the dense vector helpers and ``AElement`` are
gone), every rank is a ``sparse_rank``, the structure of A is read off
sparse products in K, every import is used, no module builds an argparse
or optparse parser, [K,K]_{alpha^j} is eliminated once per class (by
``k_quotient``), ``ColMap`` has no whole-map sum and the identity checks
of ``cli.py`` and ``perturbation.py`` compose no map, no map is edited
after it is built (``set_col`` is gone and nothing assigns to a map's
``cols``: a small-complex boundary is shared across degrees, and a BC total
shares the columns of b), every kept value is kept by ``memo`` or ``kept``
on its owner, no code outside ``fields.py`` divides (``int / int`` is a float)
or looks inside a ``CycScalar``, the collapsed complex and its D are built
by one function over a set of K-basis indices for all of K (in
``tests/paper_checks.py``) and for each eigencomponent
(``connes_D_component`` is gone, and every restriction to component
coordinates is one ``component_terms``), the rank-one case names are
validated in one place, every closed form reaches elimination through a
kept quotient space (``colon_dim``), every definition under src/ is
reached from the command line (what only the tests read lives in the
tests), the refusals and comparisons of an ``hh``/``hc`` report each
have one writer in ``cli.py``, each level of the bar side is built on
its first read, with no window to grow to, and every complex is kept on
the bimodule or algebra it belongs to (no ``Workspace``, no C^S that grows
in place), a chain complex keeps nothing but its spaces and maps (no
``HomologyReport``, no homology memo), ``verify`` totals the bar complex it
built, a mixed complex is a chain complex and a dict of B maps whose BC total
is a ``ChainComplex`` (no ``MixedComplexData``, no ``BCTotal``), no
invariant under src/ is a bare ``assert``, and no axiom check is an option
(no ``check`` parameter, no ``AlgebraEndomorphism`` wrapper: every complex
checks d.d = 0, and endomorphism and bimodule input is checked where the
spec decoder reads it), and a deformation retract is its complexes, maps
and window, one type for the transfer retract and its perturbation, whose
identities are two booleans kept nowhere (no ``PerturbedRetract``, no
renamed report dicts)."""

import ast
import contextlib
import io
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from orehom import bar, cli
from orehom.algebra import BimoduleData
from orehom.bar import BarComplex, BarResolution, BarSpace, ResolutionSpace, bar_complex, bar_resolution, comparison
from orehom.complexes import ChainComplex
from orehom.cyclic import bc_total, build_mixed, tot_blocks
from orehom.fields import make_field, reciprocal
from orehom.linalg import ColMap, EchelonSet, sparse, sparse_rank
from orehom.perturbation import DeformationRetract, build_cyclic_retract, perturb
from orehom.small_complex import build_cs
from orehom.spec_io import build_example, parse_spec

from conftest import get_spec, kept_keys
from test_spec_io import matrices_document

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
    assert naming == {"linalg.py"}


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


def _defined(names):
    """``path:line: name`` of every function, class or assigned name in
    ``names`` defined anywhere under src/."""
    found = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in defined if name in names]
    return found


def test_dense_matrix_and_rref_have_no_caller_outside_linalg():
    calls = [
        f"{path.name}:{node.lineno}: {_called(node)}"
        for path in SOURCES
        if path.name != "linalg.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and _called(node) in ("Matrix", "rref")
    ]
    assert calls == []


def test_elements_of_k_and_a_have_one_sparse_layout():
    # every element of K and of A is a sparse dict: the dense K-vectors, their
    # helpers and the dense element of A are not defined under src/
    gone = {"AElement", "a_multiply", "mul_vec", "_kvec", "vec_add", "vec_sub", "vec_is_zero",
            "alpha_apply", "zero_a", "one_a", "a_from_kvec", "a_from_coords", "a_from_terms", "a_coords"}
    assert _defined(gone) == []


def test_definitions_read_only_by_tests_live_in_the_tests():
    # right_mult_map, is_zero and encode_kvec are in tests/conftest.py,
    # transferred_block in tests/test_perturbation.py, and the paper's checks
    # with what only they read in tests/paper_checks.py (the EchelonSet
    # contains, preimage and quotient_dim among it); the name closure of
    # the reachability guard would miss one whose name a live definition has
    assert _defined({"right_mult_map", "is_zero", "transferred_block", "encode_kvec", "sbi_check",
                     "_corner_kernel", "_top_ambiguity", "_component_scale_mult", "solve", "periodicity_check",
                     "build_cs_collapsed", "contains", "preimage", "quotient_dim", "_quotient_map",
                     "_phi_ambient", "_psi_ambient", "_omega_ambient", "_wrap"}) == []
    # a method named like a live definition is read on its class; the bar
    # side's flat indices, degrees and d' are in tests/bar_reference.py
    on_class = {BarResolution: ("d", "d_generator"), ResolutionSpace: ("flat", "unflat"),
                BarSpace: ("element_degree", "flat", "unflat"), ChainComplex: ("dims",)}
    assert [f"{cls.__name__}.{name}" for cls, names in on_class.items() for name in names if hasattr(cls, name)] == []


def test_every_kept_value_is_kept_by_memo_or_kept():
    # one way to keep a computed value: ``memo`` and ``kept`` are defined
    # once, the hand-written caches they replaced are gone, and no private
    # attribute of another object is written, but the store of ``kept``
    assert sorted(found.split(": ")[1] for found in _defined({"memo", "kept"})) == ["kept", "memo"]
    assert all(found.startswith("algebra.py:") for found in _defined({"memo", "kept"}))
    gone = {"_divisions", "_mul_table", "_x_overflow", "_x_pows", "_regular", "_quotients", "_k_commutators",
            "_k_commutator_ranks", "_k_quotients", "_merged", "_faces", "_bar", "_barres", "_cmp", "_cs",
            "_shared"}
    used = [f"{path.name}:{node.lineno}: .{node.attr}" for path in SOURCES for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and node.attr in gone]
    assert used == []
    written = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                written += [f"{path.name}: {ast.unparse(a)}" for t in targets for a in ast.walk(t)
                            if isinstance(a, ast.Attribute) and a.attr.startswith("_")
                            and not (isinstance(a.value, ast.Name) and a.value.id == "self")]
    assert set(written) == {"algebra.py: owner._kept"}


def test_a_chain_complex_is_its_spaces_and_maps(monkeypatch):
    # homology is read once per call, with nothing kept on the complex, and
    # the transfer retract totals the bar complex ``verify`` built: one bar
    # chain complex per command, and no private copy of a complex
    assert _defined({"HomologyReport", "_total", "composes_to_zero"}) == []
    assert not hasattr(ChainComplex, "_homology")
    bars = []
    real = cli.bar_complex
    monkeypatch.setattr(cli, "bar_complex", lambda M: bars.append(real(M)) or bars[-1])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--spec", "sweedler", "--max-degree", "6"]) == 0
    assert len({id(b) for b in bars}) == 1
    assert kept_keys(bars[0], BarComplex.chain_complex) == [(6,)]


def test_a_mixed_complex_is_a_chain_complex_and_its_B():
    # no class wraps a mixed complex or its BC total: B is a dict of maps
    # checked where it is made, the total is a ChainComplex, and the block
    # table of a total is read off the complex it totals
    assert [path.name for path in SOURCES for name in ("MixedComplexData", "BCTotal")
            if name in path.read_text(encoding="utf-8")] == []
    M = get_spec("sweedler").bimodule
    cs = build_cs(M, 4)
    D = build_mixed(cs, M)
    assert type(D) is dict and sorted(D) == [0, 1, 2, 3] and all(isinstance(m, ColMap) for m in D.values())
    tot = bc_total(cs, D, 4)
    assert type(tot) is ChainComplex
    assert [sum(d for *_, d in tot_blocks(cs, N)) for N in range(5)] == [tot.dim(N) for N in range(5)]


def test_a_retract_is_its_complexes_and_maps():
    # the transfer retract and its perturbation are one type, built with
    # the window its builder gives; its identities are two booleans read
    # on each call, with no report dict to rename and no verdict kept
    assert [path.name for path in SOURCES for name in ("PerturbedRetract", "_PERTURBED_NAMES")
            if name in path.read_text(encoding="utf-8")] == []
    assert [name for name in ("verify", "special") if hasattr(DeformationRetract, name)] == []
    M = get_spec("sweedler").bimodule
    retract, delta = build_cyclic_retract(build_cs(M, 3), M, 3)
    assert retract.is_special() is True and "_kept" not in vars(retract)
    assert type(perturb(retract, delta)) is DeformationRetract


def test_no_check_flags(monkeypatch):
    # an axiom check is not an option: a complex always checks d.d = 0, and
    # an endomorphism or bimodule is checked where the spec decoder reads it
    # from outside input, never for the regular bimodule the algebra builds
    taking = [f"{path.name}:{node.lineno}: {node.name}" for path in SOURCES for node in ast.walk(_tree(path))
              if isinstance(node, ast.FunctionDef)
              and "check" in {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}]
    assert taking == []
    assert _defined({"AlgebraEndomorphism"}) == []
    wrapped = [f"{path.name}:{node.lineno}" for path in SOURCES + TESTS for node in ast.walk(_tree(path))
               if isinstance(node, ast.Attribute) and node.attr == "map"
               and isinstance(node.value, ast.Attribute) and node.value.attr == "alpha"]
    assert wrapped == []
    calls = []
    real = BimoduleData.check
    monkeypatch.setattr(BimoduleData, "check", lambda M: calls.append(M) or real(M))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["hh", "--spec", "taft:3", "--max-degree", "6"]) == 0
    assert calls == []
    parsed = parse_spec(matrices_document(lambda acts, doc, field: None))
    assert calls == [parsed.bimodule]


def test_no_invariant_is_a_bare_assert():
    # invariants raise explicit errors, which still fire under ``python -O``
    found = [f"{path.name}:{node.lineno}" for path in SOURCES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_bar_side_levels_are_built_on_first_read():
    # a level of the bar complex, of the bar resolution and of the twisted
    # resolution is a ``memo`` method of its owner: no list of levels, no
    # window to grow to, and no separate complex of resolution spaces
    parsed = get_spec("sweedler")
    for owner in (bar_complex(parsed.bimodule), bar_resolution(parsed.mono)):
        owner.space(2)
        assert [name for name in ("grow", "max_r", "spaces") if hasattr(owner, name)] == []
    assert not hasattr(bar, "ResolutionComplex")
    assert _defined({"ResolutionComplex"}) == []


def test_every_complex_is_kept_on_its_bimodule_or_algebra():
    # C^S's spaces and boundaries and the bar side are kept on M and on the
    # algebra through ``memo`` and ``kept``: no second owner (``Workspace``), no small complex that
    # grows in place, and no degree appended to a built complex
    assert not (ROOT / "src" / "orehom" / "workspace.py").exists()
    assert {"Workspace", "SmallComplex", "workspace"} & {n for path in SOURCES for n in _names(_tree(path))} == set()
    assert _defined({"grow", "append"}) == [] and not hasattr(ChainComplex, "append")
    parsed = parse_spec(build_example("taft:3"))
    small, large = build_cs(parsed.bimodule, 3), build_cs(parsed.bimodule, 6)
    # every window reads the spaces and the one boundary per key kept on M
    assert all(small.spaces[r] is large.spaces[r] for r in range(4))
    assert all(small.boundary(r) is large.boundary(r) for r in range(1, 4))
    assert bar_complex(parsed.bimodule) is bar_complex(parsed.bimodule)
    assert bar_resolution(parsed.mono) is comparison(parsed.bimodule).barres


def test_one_collapse_verdict_per_algebra():
    # every closed form reads the collapse verdict kept on the algebra: no
    # function takes a collapse report, and a parsed spec carries none
    taking = [f"{path.name}:{node.lineno}: {node.name}" for path in SOURCES for node in ast.walk(_tree(path))
              if isinstance(node, ast.FunctionDef)
              and "collapse_report" in {a.arg for a in node.args.args + node.args.kwonlyargs}]
    assert taking == []
    parsed_spec = next(node for node in ast.walk(_tree(ROOT / "src" / "orehom" / "spec_io.py"))
                       if isinstance(node, ast.ClassDef) and node.name == "ParsedSpec")
    fields = {a.attr for a in ast.walk(parsed_spec) if isinstance(a, ast.Attribute)}
    fields |= {a.arg for a in ast.walk(parsed_spec) if isinstance(a, ast.arg)}
    assert "collapse" not in fields


def test_identities_are_relations_not_composed_maps():
    # every identity between maps is checked column by column by
    # ``relation_holds``: ColMap has no whole-map sum, and the identity
    # checks of cli.py and perturbation.py compose no map
    tree = _tree(ROOT / "src" / "orehom" / "linalg.py")
    colmap = next(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "ColMap")
    methods = {node.name for node in colmap.body if isinstance(node, ast.FunctionDef)}
    assert methods & {"add", "sub"} == set()
    assert {"compose", "__eq__"} <= methods  # kept maps, and perfbench/tracer.py targets both
    composed = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name in ("cli.py", "perturbation.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "compose"
    ]
    assert composed == []


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
    # calls it); an eager ``ColMap(..)`` would build every column whether it
    # is read or not
    eager = [
        f"bar.py:{node.lineno}: {_called(node)}"
        for node in ast.walk(_tree(ROOT / "src" / "orehom" / "bar.py"))
        if isinstance(node, ast.Call) and _called(node) in ("ColMap", "set_col")
    ]
    assert eager == []


def test_bar_columns_have_one_code_path():
    # b and B read projected face operators and b' is built from its
    # generator values; the one-tensor-at-a-time columns live on only as the
    # references in tests/bar_reference.py
    gone = ("_b_ambient_column", "_B_ambient_column", "_bprime_column", "_face_terms")
    defined = [
        f"{path.name}:{node.lineno}: def {node.name}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and node.name in gone
    ]
    assert defined == []


def test_bprime_is_a_generated_map():
    # b' is the bimodule extension of its values on the free generators, as
    # d', phi', psi' and omega' are
    tree = _tree(ROOT / "src" / "orehom" / "bar.py")
    cls = next(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "BarResolution")
    bprime = next(node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "bprime")
    returned = [node.value for node in ast.walk(bprime) if isinstance(node, ast.Return)]
    assert len(returned) == 1
    assert isinstance(returned[0], ast.Call) and _called(returned[0]) == "generated_map"


def _reads_cols(node):
    """Whether the expression is rooted at a ``<map>.cols`` attribute: the
    column list of a map, or one of its columns, or an entry of one."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Attribute) and node.attr == "cols":
            return True
        node = node.value
    return False


def test_no_map_is_edited_after_it_is_built():
    # a boundary of the small complex is one ColMap shared by every degree
    # with the same key, and a BC total's boundary holds the column dicts of
    # b, so an edit in place would change other maps too: an eager map is
    # built from its list of columns, ``set_col`` is gone, and nothing
    # assigns into, deletes from or mutates the columns of a map
    mutators = {"append", "extend", "insert", "pop", "popitem", "clear", "update", "setdefault", "remove"}
    found = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.FunctionDef) and node.name == "set_col":
                found.append(f"{path.name}:{node.lineno}: def set_col")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
                found += [f"{path.name}:{node.lineno}: {ast.unparse(t)}" for t in targets
                          if isinstance(t, ast.Subscript) and _reads_cols(t)]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                    node.func.attr == "set_col" or node.func.attr in mutators and _reads_cols(node.func.value)):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
    assert found == []


def test_structure_of_a_costs_the_structure_constants():
    # the regular bimodule, the character twist and [K,K]_{alpha^j} read
    # sparse products in K: no dim(A)^2 product table, nothing that reads it,
    # and no re-check of a character through multiplication maps, whose
    # pairwise test chi(gh) = chi(g)chi(h) already proves it multiplicative
    guarded = {"regular_bimodule", "character_endomorphism", "k_commutator_subspace"}
    banned = {"mul_table", "multiply", "x_overflow", "left_mult_map", "check", "check_endomorphism"}
    seen, calls = set(), []
    for node in ast.walk(_tree(ROOT / "src" / "orehom" / "algebra.py")):
        if isinstance(node, ast.FunctionDef) and node.name in guarded:
            seen.add(node.name)
            calls += [f"{node.name}:{call.lineno}: {_called(call)}" for call in ast.walk(node)
                      if isinstance(call, ast.Call) and _called(call) in banned]
    assert seen == guarded
    assert calls == []


def test_k_commutators_are_eliminated_once_per_class():
    # K/[K,K]_{alpha^j} is defined once, as ``k_quotient`` on the algebra, and
    # every rank of [K,K]_{alpha^j} reads its quotient dimension: no code
    # eliminates the spanning set of [K,K]_{alpha^j} a second time
    assert [found.split(":")[0] for found in _defined({"k_quotient"})] == ["algebra.py"]
    found = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call) and _called(node) == "sparse_rank" and node.args
                    and isinstance(node.args[0], ast.Call) and _called(node.args[0]) == "k_commutator_subspace"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _calls_in_functions(path):
    """{name: names it calls} for each module-level function and method, a
    nested function's calls counted in the function that holds it."""
    body = _tree(path).body
    funcs = [node for node in body if isinstance(node, ast.FunctionDef)]
    funcs += [node for cls in body if isinstance(cls, ast.ClassDef) for node in cls.body
              if isinstance(node, ast.FunctionDef)]
    return {func.name: {_called(call) for call in ast.walk(func) if isinstance(call, ast.Call)} for func in funcs}


def test_collapsed_forms_have_one_builder_over_k_basis_indices():
    # all of K and each eigencomponent build the collapsed complex and its D
    # through one function over a set of K-basis indices, whose columns are
    # the K formulas: no scalar per-component copy of the boundaries or of D.
    # The K-sized complex and its D are built in tests/paper_checks.py
    assert _defined({"connes_D_component"}) == []
    small = _calls_in_functions(ROOT / "src" / "orehom" / "small_complex.py")
    cyclic = _calls_in_functions(ROOT / "src" / "orehom" / "cyclic.py")
    checks = _calls_in_functions(ROOT / "tests" / "paper_checks.py")
    assert "collapsed_complex" in checks["build_cs_collapsed"] & small["decompose"]
    assert {f for f, called in small.items() if "_periodic_boundaries" in called} == {"build_cs", "collapsed_complex"}
    assert "_periodic_boundaries" in checks["periodicity_check"]
    assert {f for f, called in small.items() if called & {"_norm_map", "_alpha_minus_id_lamn"}} == {
        "collapsed_complex", "hh_dims_collapsed"}
    assert "connes_D_collapsed" in checks["collapsed_mixed"] & cyclic["build_mixed_components"]
    assert "connes_D_collapsed" not in cyclic["connes_D"]
    # every restriction to component coordinates is one component_terms
    for calls, funcs in ((small, ("collapsed_complex", "component_commutator_span", "component_mult_rows")),
                         (cyclic, ("connes_D_collapsed",)), (checks, ("_component_scale_mult",))):
        assert all("component_terms" in calls[f] for f in funcs), funcs


# Definitions no command reaches, each kept for a reader outside src/.
REACHED_ELSEWHERE = {
    # perfbench/tracer.py TARGETS, which test_perfbench_tracer_finds_every_target
    # needs defined; retiring these targets lets src/ drop them
    "linalg.Matrix",
    "linalg.Matrix.apply",
    "linalg.rref",
    "cyclic.transfer_D",
    # the laziness tests of test_linalg.py, test_bar_faces.py and
    # test_perturbation.py read how many columns a lazy map has built
    "linalg._Columns.built",
}


def _unreached(seeds=()):
    """``module.qualname`` of every top-level function, class and method of
    src/ that no command reaches.  The closure starts from the module-level
    statements (the ``_COMMANDS`` table with its handlers among them),
    ``cli.main`` and ``seeds``; a definition is reached when its bare name is
    read as a name or an attribute in reached code, a method only once its
    class is reached, and a reached class reaches its dunder methods.
    Matching bare names over-approximates what runs, so a live definition is
    never reported."""
    defs, roots = {}, []  # qualname -> (class qualname or None, nodes read once reached)
    for path in SOURCES:
        for node in _tree(path).body:
            qual = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef):
                defs[qual] = (None, [node])
            elif isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                rest = [item for item in node.body if item not in methods]
                defs[qual] = (None, node.bases + node.keywords + node.decorator_list + rest)
                defs.update((f"{qual}.{item.name}", (qual, [item])) for item in methods)
            else:
                roots.append(node)
    reached, names = set(), set()

    def reaches(qual, cls):
        name = qual.rpartition(".")[2]
        if cls is None:
            return name in names
        return cls in reached and (name in names or name.startswith("__"))

    new, todo = ["cli.main", *seeds], roots
    while new:
        reached.update(new)
        todo += [node for qual in new for node in defs[qual][1]]
        names.update(n.id if isinstance(n, ast.Name) else n.attr for node in todo for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute)))
        new, todo = [qual for qual, (cls, _) in defs.items() if qual not in reached and reaches(qual, cls)], []
    return sorted(set(defs) - reached)


def test_every_definition_is_reached_from_the_command_line():
    # src/ holds what a command runs; a definition that only the tests read
    # lives in the tests (paper_checks.py, the *_reference.py modules)
    assert set(REACHED_ELSEWHERE) <= set(_unreached())
    assert _unreached(REACHED_ELSEWHERE) == []


def test_rank_one_case_names_are_read_in_one_place():
    # hh_rank_one and hc_rank_one read the case through one validating reader
    readers = []
    for name in ("small_complex.py", "cyclic.py"):
        for node in ast.walk(_tree(ROOT / "src" / "orehom" / name)):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(c, ast.Constant) and c.value in ("xi=0", "xi!=0, chi^n=id", "xi!=0, chi^n!=id")
                    for c in ast.walk(node)):
                readers.append(f"{name}: {node.name}")
    assert readers == ["small_complex.py: rank_one_xi_zero"]
    for name, func in (("small_complex.py", "hh_rank_one"), ("cyclic.py", "hc_rank_one")):
        assert "rank_one_xi_zero" in _calls_in_functions(ROOT / "src" / "orehom" / name)[func]


def test_no_module_imports_argparse_or_optparse():
    # the command line is one getopt table in cli.py; an argparse or optparse
    # parser costs milliseconds of every command, most of it importing locale
    banned = ("argparse", "optparse")
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] in banned for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in banned)
    ]
    assert found == []


def test_no_rank_is_read_off_an_echelon_set():
    reads = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "dim"
        and isinstance(node.value, ast.Call) and "EchelonSet" in _names(node.value.func)
    ]
    assert reads == []


def test_closed_forms_reach_elimination_through_a_kept_quotient():
    # every closed form is a cokernel or colon quotient read off a kept
    # SubquotientSpace by ``colon_dim``: small_complex.py and cyclic.py name
    # no elimination routine, but for the ``# noqa: F401`` binding of
    # kernel_basis that perfbench/tracer.py reads
    banned = {"EchelonSet", "sparse_rank", "quotient_dim", "kernel_basis"}
    found = []
    for name in ("small_complex.py", "cyclic.py"):
        path = ROOT / "src" / "orehom" / name
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(_tree(path)):
            named = node.id if isinstance(node, ast.Name) else (
                node.asname or node.name if isinstance(node, ast.alias) else None)
            if named in banned and "# noqa: F401" not in lines[node.lineno - 1]:
                found.append(f"{name}:{node.lineno}: {named}")
    assert found == []


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


def test_only_fields_sees_inside_a_cyclotomic_scalar():
    # the canonical form (a rational value is an int or a Fraction, a
    # CycScalar is irrational and in lowest terms) has one owner
    found = []
    for path in SOURCES:
        if path.name == "fields.py":
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and node.attr in ("num", "den"):
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.Name) and node.id == "CycScalar":
                found.append(f"{path.name}:{node.lineno}: CycScalar")
    assert found == []


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


def test_each_report_entry_of_the_cli_has_one_writer():
    # a refusal is written by ``_refuse`` and a comparison by ``_compare``:
    # the report head names ``comparisons`` once, to start the list empty
    cli_tree = _tree(ROOT / "src" / "orehom" / "cli.py")
    naming, appending = {}, set()
    for func in cli_tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Constant) and node.value in ("refusals", "comparisons"):
                naming.setdefault(node.value, set()).add(func.name)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and any(isinstance(n, ast.Constant) and n.value == "comparisons"
                            for n in ast.walk(node.func.value))):
                appending.add(func.name)
    assert naming == {"refusals": {"_refuse"}, "comparisons": {"_report", "_compare"}}
    assert appending == {"_compare"}
