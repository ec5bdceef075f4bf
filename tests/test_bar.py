import collections
import inspect
import random
import sys

import pytest

import bar_reference as ref
from orehom.algebra import BimoduleData, regular_bimodule, twisted_commutator_subspace
from orehom.bar import (
    BarComplex,
    BarResolution,
    BarResSpace,
    BarSpace,
    bar_complex,
    bar_resolution,
    comparison,
    middle_tuples,
)
from orehom.cli import main
from orehom.complexes import homology_dims
from orehom.linalg import ColMap, relation_holds, subquotient
from orehom.spec_io import EXAMPLE_NAMES, build_example, parse_spec
from orehom.small_complex import build_cs

from conftest import SHIPPED, get_spec, is_zero, kept_keys, right_mult_map

FIXTURES = ("sweedler", "taft:3", "trunc:3", "rank1:c4", "dihedral:3")


def test_resolution_d1_generator():
    ctx = get_spec("sweedler")
    br = bar_resolution(ctx.mono)
    gen = ref.d_generator(br, 1)
    sp = br.res_space(0)
    # x (x) 1 - 1 (x) x on the basis (kappa, p, q) with kappa = e
    assert gen == {ref.res_flat(sp, 0, 1, 0): ctx.mono.field.one, ref.res_flat(sp, 0, 0, 1): -ctx.mono.field.one}


def test_resolution_d2_truncated():
    ctx = get_spec("trunc:3")
    br = bar_resolution(ctx.mono)
    gen = ref.d_generator(br, 2)
    sp = br.res_space(1)
    one = ctx.mono.field.one
    assert gen == {
        ref.res_flat(sp, 0, 0, 2): one,
        ref.res_flat(sp, 0, 1, 1): one,
        ref.res_flat(sp, 0, 2, 0): one,
    }


def test_resolution_squares_to_zero():
    for name in FIXTURES:
        br = bar_resolution(get_spec(name).mono)
        for r in range(2, 6):
            assert is_zero(ref.d(br, r - 1).compose(ref.d(br, r)))


def test_bar_resolution_squares_to_zero():
    for name in FIXTURES:
        br = bar_resolution(get_spec(name).mono)
        for r in range(2, 6):
            assert is_zero(br.bprime(r - 1).compose(br.bprime(r)))


def test_psi_phi_prime_identity():
    for name in FIXTURES:
        ctx = get_spec(name)
        br = bar_resolution(ctx.mono)
        for r in range(6):
            ident = ColMap.identity(br.res_space(r).dim)
            assert br.psi(r).compose(br.phi(r)) == ident


def test_phi_prime_degree_one_generator():
    ctx = get_spec("sweedler")
    br = bar_resolution(ctx.mono)
    gen = br.phi_generator(1)
    sp = br.space(1)
    assert gen == {sp.flat(0, 0, (1,), 0): ctx.mono.field.one}


def test_psi_prime_sweedler_pair():
    # psi'_2(1 (x) x (x) x (x) 1) = quotient of x^2, i.e. 1 (x) 1
    ctx = get_spec("sweedler")
    br = bar_resolution(ctx.mono)
    terms = br.psi_tuple(2, (1, 1))
    rsp = br.res_space(2)
    assert terms == {ref.res_flat(rsp, 0, 0, 0): ctx.mono.field.one}


def test_comparison_chain_maps():
    for name in FIXTURES:
        ctx = get_spec(name)
        br = bar_resolution(ctx.mono)
        for r in range(1, 6):
            assert br.bprime(r).compose(br.phi(r)) == br.phi(r - 1).compose(ref.d(br, r))
            assert ref.d(br, r).compose(br.psi(r)) == br.psi(r - 1).compose(br.bprime(r))


def test_omega_prime_base_case_zero():
    br = bar_resolution(get_spec("sweedler").mono)
    assert is_zero(br.omega(1))


def test_omega_prime_homotopy_identity():
    for name in FIXTURES:
        ctx = get_spec(name)
        br = bar_resolution(ctx.mono)
        for r in range(1, 5):
            # b'w' + w'b' = phi'psi' - id
            assert relation_holds(br.dim(r), [
                (1, [br.bprime(r + 1), br.omega(r + 1)]), (1, [br.omega(r), br.bprime(r)]),
                (-1, [br.phi(r), br.psi(r)]), (1, [])])


def test_omega_prime_degree_bound_exhaustive():
    for name in FIXTURES:
        ctx = get_spec(name)
        br = bar_resolution(ctx.mono)
        for r in range(1, 4):
            om = br.omega(r + 1)
            sp, spt = br.space(r), br.space(r + 1)
            for idx in range(sp.dim):
                din = sp.element_degree({idx: ctx.mono.field.one})
                assert spt.element_degree(om.cols[idx]) <= din


def test_omega_prime_degree_bound_random_level4():
    rng = random.Random(23)
    for name in ("sweedler", "taft:3"):
        ctx = get_spec(name)
        br = bar_resolution(ctx.mono)
        om = br.omega(5)
        sp, spt = br.space(4), br.space(5)
        idxs = [rng.randrange(sp.dim) for _ in range(min(200, sp.dim))]
        for idx in idxs:
            din = sp.element_degree({idx: ctx.mono.field.one})
            assert spt.element_degree(om.cols[idx]) <= din


def test_bar_space_dimensions():
    ctx = get_spec("trunc:3")
    bar = bar_complex(ctx.bimodule)
    # r = 1: tuples (1), (2); each block is all of A (commutative base)
    assert bar.dim(1) == 6
    sw = get_spec("sweedler")
    assert bar_complex(sw.bimodule).dim(0) == 2


def test_bar_boundary_squares_to_zero():
    for name in FIXTURES:
        bar = bar_complex(get_spec(name).bimodule)
        for r in range(2, 6):
            assert is_zero(bar.b(r - 1).compose(bar.b(r)))


def _global_subquotient(sp):
    """One elimination over the whole ambient space of ``sp``, block spans embedded."""
    spans = []
    for ti, t in enumerate(sp.tuples):
        for v in twisted_commutator_subspace(sp.M, sum(t)):
            spans.append({ti * sp.block + i: c for i, c in v.items()})
    return subquotient(sp.ambient_dim, spans)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_bar_space_matches_global_subquotient(name):
    ctx = get_spec(name)
    field = ctx.mono.field
    bar = bar_complex(ctx.bimodule)
    for r in range(5):
        sp = bar.space(r)
        whole = _global_subquotient(sp)
        assert sp.quotient_dim == whole.quotient_dim
        assert sp.free == whole.free
        for i in range(sp.ambient_dim):
            assert sp.project_terms({i: field.one}) == whole.proj.cols[i]
        qvec = {qi: field.one for qi in range(sp.quotient_dim) if qi % 3}
        assert sp.lift_vec(qvec) == whole.lift_vec(qvec)


def _kept_maps(parsed, top):
    """C^S's spaces and boundaries, and the bar side's maps, to level ``top``,
    as the kept functions give them for the bimodule of ``parsed``."""
    M = parsed.bimodule
    cs, bar, cmp_ = build_cs(M, top), bar_complex(M), comparison(M)
    return (
        [(sp.quotient_dim, sp.free, sp.proj.cols) for sp in cs.spaces]
        + [cs.boundary(r) for r in range(1, top + 1)]
        + [bar.b(r) for r in range(1, top + 1)]
        + [bar.connes_B(r) for r in range(top)]
        + [cmp_.phi(r) for r in range(top + 1)]
        + [cmp_.psi(r) for r in range(top + 1)]
        + [cmp_.omega(r) for r in range(top)]
    )


@pytest.mark.parametrize("name", ("sweedler", "trunc:3", "rank1:c4", "dihedral:3"))
def test_grown_bar_side_equals_fresh_build(name):
    # a bimodule of its own for each side, so that no quotient or map is shared
    parsed = parse_spec(build_example(name))
    # build every column of the level-4 maps before reading the window 7
    [list(m.cols) for m in _kept_maps(parsed, 4) if isinstance(m, ColMap)]
    widened = _kept_maps(parsed, 7)
    assert build_cs(parsed.bimodule, 7).max_degree == 7
    assert widened == _kept_maps(parse_spec(build_example(name)), 7)


def test_trunc4_level8_bar_space():
    # 3^8 tuples times dim A = 4; K = Q and alpha = id leave nothing to divide by
    ctx = get_spec("trunc:4")
    field = ctx.mono.field
    sp = BarSpace(ctx.mono, ctx.bimodule, 8)
    assert sp.ambient_dim == sp.quotient_dim == 26244
    rng = random.Random(8)
    qvec = {qi: field.one * rng.randrange(1, 5) for qi in rng.sample(range(sp.quotient_dim), 200)}
    assert sp.project_terms(sp.lift_vec(qvec)) == qvec


@pytest.mark.parametrize("name", SHIPPED)
def test_bar_oracle_matches_small_complex(name):
    ctx = get_spec(name)
    cs_dims = homology_dims(build_cs(ctx.bimodule, 7), 5)
    bar_dims = homology_dims(bar_complex(ctx.bimodule).chain_complex(7), 5)
    assert cs_dims == bar_dims


def test_connes_B_on_degree_zero():
    ctx = get_spec("trunc:3")
    bar = bar_complex(ctx.bimodule)
    B0 = bar.connes_B(0)
    sp0, sp1 = bar.space(0), bar.space(1)
    one = ctx.mono.field.one
    # B[x^j] = [1 (x) x^j]; B[1] = 0
    col_x = B0.cols[ref.bar_flat(sp0, (), ctx.mono.index(1, 0))]
    assert col_x == {ref.bar_flat(sp1, (1,), ctx.mono.index(0, 0)): one}
    assert B0.cols[ref.bar_flat(sp0, (), ctx.mono.index(0, 0))] == {}


def test_connes_B_identities():
    for name in FIXTURES:
        ctx = get_spec(name)
        bar = bar_complex(ctx.bimodule)
        for r in range(0, 4):
            assert relation_holds(bar.dim(r), [(1, [bar.connes_B(r + 1), bar.connes_B(r)])])
        for r in range(1, 4):
            assert relation_holds(bar.dim(r), [
                (1, [bar.b(r + 1), bar.connes_B(r)]), (1, [bar.connes_B(r - 1), bar.b(r)])])


def test_induced_psi_phi_identity():
    for name in FIXTURES:
        ctx = get_spec(name)
        cmp_ = comparison(ctx.bimodule)
        cs = build_cs(ctx.bimodule, 5)
        for r in range(5):
            ident = ColMap.identity(cs.dim(r))
            assert cmp_.psi(r).compose(cmp_.phi(r)) == ident


def test_induced_phi_psi_examples_degree_one():
    ctx = get_spec("sweedler")
    cmp_ = comparison(ctx.bimodule)
    bar = bar_complex(ctx.bimodule)
    cs = build_cs(ctx.bimodule, 3)
    # phi_1 [m] = [m (x) x], psi_1 [m (x) x] = [m]; the composite is the identity
    assert cmp_.psi(1).compose(cmp_.phi(1)) == ColMap.identity(cs.dim(1))
    assert cmp_.psi(0).compose(cmp_.phi(0)) == ColMap.identity(cs.dim(0))


def test_induced_homotopy_identity():
    for name in FIXTURES:
        ctx = get_spec(name)
        cmp_ = comparison(ctx.bimodule)
        bar = bar_complex(ctx.bimodule)
        for r in range(0, 4):
            # b w + w b = phi psi - id, with w_{-1} = 0
            terms = [(1, [bar.b(r + 1), cmp_.omega(r)]), (-1, [cmp_.phi(r), cmp_.psi(r)]), (1, [])]
            if r >= 1:
                terms.append((1, [cmp_.omega(r - 1), bar.b(r)]))
            assert relation_holds(bar.dim(r), terms)


def _doubled_regular(name):
    """The algebra of the example ``name`` and M = A (+) A, given by its own
    block-diagonal action matrices."""
    mono = parse_spec(build_example(name)).mono
    R, dim = regular_bimodule(mono), mono.dim

    def doubled(m):
        cols = list(m.cols)
        return ColMap(2 * dim, 2 * dim, cols + [{i + dim: c for i, c in col.items()} for col in cols])

    M = BimoduleData(mono, 2 * dim, [doubled(m) for m in R.left_k], doubled(R.left_x),
                     [doubled(m) for m in R.right_k], doubled(R.right_x))
    M.check()
    return mono, M


@pytest.mark.parametrize("name, doubled", [(name, False) for name in SHIPPED + ("rank1nc:c2xc4",)] + [("taft:3", True)])
def test_induced_maps_match_the_reference(name, doubled):
    # phi, psi and omega read off kept wrap faces against M (x)_{A^e} -
    # written out on each basis vector of M and projected, column by column;
    # ``doubled`` takes M = A (+) A
    if doubled:
        mono, M = _doubled_regular(name)
    else:
        parsed = parse_spec(build_example(name))
        mono, M = parsed.mono, parsed.bimodule
    cmp_ = comparison(M)
    maps = [(label, r, getattr(cmp_, label)(r), getattr(ref, label)(cmp_, r))
            for label, top in (("phi", 5), ("psi", 5), ("omega", 4)) for r in range(top + 1)]
    for label, r, got, expected in maps:
        assert (got.nrows, got.ncols) == (expected.nrows, expected.ncols), (label, r)
        assert list(got.cols) == list(expected.cols), (label, r)


def test_division_quotient_of_power():
    mono = get_spec("sweedler").mono
    assert mono.x_power_quotient(1) == []
    assert mono.x_power_quotient(2) == [(0, mono.base.unit)]
    assert mono.x_power_quotient(2) is mono.x_power_quotient(2)


def test_element_degree_max_rule():
    ctx = get_spec("trunc:3")
    bar = bar_complex(ctx.bimodule)
    sp = bar.space(1)
    one = ctx.mono.field.one
    terms = {
        ref.bar_flat(sp, (1,), ctx.mono.index(1, 0)): one,  # x (x) x, degree 2
        ref.bar_flat(sp, (2,), ctx.mono.index(1, 0)): one,  # x (x) x^2, degree 3
    }
    assert ref.bar_element_degree(sp, terms) == 3
    assert ref.bar_element_degree(sp, {}) == float("-inf")


def test_middle_tuples_shapes():
    assert middle_tuples(2, 3) == [(1, 1, 1)]
    assert len(middle_tuples(3, 2)) == 4
    assert middle_tuples(4, 0) == [()]


@pytest.mark.parametrize("name", ["taft:3", "dihedral:3"])
def test_bar_complex_and_bar_resolution_read_one_tuple_table(name):
    # block ti names the same tuple on both sides, which omega relies on
    ctx = get_spec(name)
    bar, barres = bar_complex(ctx.bimodule), bar_resolution(ctx.mono)
    for r in range(5):
        assert bar.space(r).tuples is barres.space(r).tuples == middle_tuples(ctx.mono.n, r)
        assert bar.space(r).tuple_index is barres.space(r).tuple_index


def test_a_level_looks_up_each_twist_class_once(monkeypatch):
    # a block's quotient and overflow depend on the class of its tuple sum
    # alone: building level r reads each once per class present at r
    from orehom import algebra, bar

    parsed = parse_spec(build_example("taft:3"))
    mono, M = parsed.mono, parsed.bimodule
    quotients, overflows = [], []
    quotient, overflow = bar.commutator_quotient, algebra.MonogenicData.x_overflow

    def counted_quotient(M, j):
        quotients.append(M.mono.twist(j))
        return quotient(M, j)

    def counted_overflow(mono, s):
        overflows.append(mono.twist(s))
        return overflow(mono, s)

    monkeypatch.setattr(bar, "commutator_quotient", counted_quotient)
    monkeypatch.setattr(algebra.MonogenicData, "x_overflow", counted_overflow)
    for r in range(7):
        classes = sorted({mono.twist(sum(t)) for t in middle_tuples(mono.n, r)})
        quotients.clear()
        overflows.clear()
        BarSpace(mono, M, r)
        BarResSpace(mono, r)
        assert sorted(quotients) == sorted(overflows) == classes


def test_generic_path_with_nondiagonal_alpha():
    # alpha from the group automorphism g -> g^2 on Q(z3)[C3] is a
    # permutation matrix: the eigencomponent machinery refuses, but the
    # generic complex and the oracle still agree
    from orehom.algebra import (
        AlgebraError,
        check_endomorphism,
        eigen_split,
        group_algebra,
        regular_bimodule,
        validate_monogenic,
    )
    from orehom.fields import make_field
    from orehom.small_complex import build_cs
    from orehom.spec_io import cyclic_group

    F = make_field("cyclotomic", 3)
    labels, table = cyclic_group(3)
    K = group_algebra(labels, table, F)
    # e -> e, g -> g^2, g^2 -> g^4 = g
    alpha = ColMap(3, 3, [{0: F.one}, {2: F.one}, {1: F.one}])
    check_endomorphism(K, alpha)
    mono = validate_monogenic(K, alpha, 2, [{}, {}])
    with pytest.raises(AlgebraError):
        eigen_split(K, alpha)
    M = regular_bimodule(mono)
    cs_dims = homology_dims(build_cs(M, 5), 3)
    bar_dims = homology_dims(BarComplex(mono, M).chain_complex(5), 3)
    assert cs_dims == bar_dims


def test_nonregular_bimodule_coefficients():
    # M = K through the map sending x to zero (valid whenever lam_n = 0):
    # coefficients other than A exercise the general bimodule path
    from orehom.algebra import BimoduleData
    from orehom.small_complex import build_cs

    ctx = get_spec("sweedler")
    mono = ctx.mono
    K = mono.base
    left_k = [K.left_mult_map(K.basis_vector(t)) for t in range(K.dim)]
    right_k = [right_mult_map(K, K.basis_vector(t)) for t in range(K.dim)]
    zero_x = ColMap(K.dim, K.dim)
    M = BimoduleData(mono, K.dim, left_k, zero_x, right_k, zero_x)
    M.check()
    cs_dims = homology_dims(build_cs(M, 5), 3)
    bar_dims = homology_dims(BarComplex(mono, M).chain_complex(5), 3)
    assert cs_dims == bar_dims
    assert cs_dims[0] == 2


def _bar_side_maps(parsed, top):
    """Every bar-side map kept for a parsed spec up to level ``top``, ascending."""
    bar, barres, cmp_ = bar_complex(parsed.bimodule), bar_resolution(parsed.mono), comparison(parsed.bimodule)
    maps = []
    for r in range(top + 1):
        maps += [("phi'", r, barres.phi(r)), ("psi'", r, barres.psi(r)), ("phi", r, cmp_.phi(r)),
                 ("psi", r, cmp_.psi(r))]
        if r >= 1:
            maps += [("b", r, bar.b(r)), ("d'", r, ref.d(barres, r)), ("b'", r, barres.bprime(r)),
                     ("omega'", r, barres.omega(r))]
        if r < top:
            maps += [("B", r, bar.connes_B(r)), ("omega", r, cmp_.omega(r))]
    return maps


@pytest.mark.parametrize("name", SHIPPED)
def test_columns_read_in_any_order_agree(name):
    # the right_mul_x recursion, the generator memo and the omega' recursion
    # give the same columns whichever column is read first; each side parses
    # the spec, so that the maps kept on one M are not read twice
    backward = _bar_side_maps(parse_spec(build_example(name)), 6)
    got = {(label, r): [m.cols[j] for j in reversed(range(m.ncols))][::-1] for label, r, m in reversed(backward)}
    forward = _bar_side_maps(parse_spec(build_example(name)), 6)
    for label, r, m in forward:
        assert [m.cols[j] for j in range(m.ncols)] == got[label, r], (label, r)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_every_built_lazy_column_is_the_zero_free_dict_its_builder_returned(capsys, monkeypatch, name):
    # a lazy map keeps the dict its column function returns, unfiltered and
    # uncopied: after verify, each built column of the maps kept on M and on
    # the algebra is that very dict and holds no zero scalar
    from orehom import cli

    lazy, load_spec, returned, parsed = ColMap.lazy.__func__, cli._load_spec, {}, []

    def recording(cls, nrows, ncols, column):
        built = {}

        def recorded(j):
            built[j] = column(j)
            return built[j]

        m = lazy(cls, nrows, ncols, recorded)
        returned[id(m)] = built
        return m

    monkeypatch.setattr(ColMap, "lazy", classmethod(recording))
    monkeypatch.setattr(cli, "_load_spec", lambda *args: parsed.append(load_spec(*args)) or parsed[-1])
    assert main(["verify", "--spec", name, "--max-degree", "6"]) == 0
    capsys.readouterr()
    (spec,) = parsed
    R = regular_bimodule(spec.mono)
    families = {"regular actions": R.left_k + R.right_k + [R.left_x, R.right_x]}
    for owner, labels in ((bar_complex(spec.bimodule), ("b", "connes_B")),
                          (comparison(spec.bimodule), ("phi", "psi", "omega")),
                          (bar_resolution(spec.mono), ("bprime", "phi", "psi", "omega"))):
        for label in labels:
            read = getattr(owner, label)
            families[type(owner).__name__, label] = [read(*args) for args in kept_keys(owner, read)]
    for family, maps in families.items():
        assert maps, family
        for m in maps:
            built = returned[id(m)]
            assert m.cols.built == len(built), family
            for j, col in built.items():
                assert m.cols[j] is col and all(col.values()), (family, j)


def test_generator_values_are_built_once_per_argument(capsys):
    # phi', psi' and the induced phi, psi read one kept generator value:
    # on taft:3 a second build each gave 105 psi_tuple builds for 70
    # arguments and 13 phi_generator builds for 7
    codes = {inspect.unwrap(getattr(BarResolution, name)).__code__: name
             for name in ("phi_generator", "psi_tuple", "_bprime_generator")}
    builds = collections.Counter()

    def count(frame, event, _):
        if event == "call" and frame.f_code in codes:
            builds[codes[frame.f_code], frame.f_locals["r"], frame.f_locals.get("t")] += 1

    sys.setprofile(count)
    try:
        code = main(["verify", "--spec", "taft:3", "--max-degree", "6"])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert code == 0
    assert {name for name, _, _ in builds} == set(codes.values())
    assert {key: n for key, n in builds.items() if n > 1} == {}


def test_hc_oracle_builds_only_the_levels_it_reads(capsys, monkeypatch):
    # the oracle of hc at degree 5 reads b and B up to level 4, so the bar
    # complex builds levels 0..4 and no other
    from orehom import cli

    made = []

    def recorded(M):
        made.append(bar_complex(M))
        return made[-1]

    monkeypatch.setattr(cli, "bar_complex", recorded)
    assert main(["hc", "--spec", "taft:3", "--oracle", "--max-degree", "5"]) == 0
    capsys.readouterr()
    (bar,) = made
    assert sorted(kept_keys(bar, BarComplex.space)) == [(r,) for r in range(5)]


def test_comparison_reads_no_small_complex(monkeypatch):
    # phi and psi read their C^S levels as the quotients kept on M, so the
    # comparison builds no small complex
    def refuse(mono, M, max_degree):
        raise AssertionError(f"the comparison asked for C^S to degree {max_degree}")

    for name, module in list(sys.modules.items()):
        if name.startswith("orehom.") and hasattr(module, "build_cs"):
            monkeypatch.setattr(module, "build_cs", refuse)
    cmp_ = comparison(parse_spec(build_example("taft:3")).bimodule)
    for label in ("psi", "phi"):
        assert list(getattr(cmp_, label)(4).cols) == list(getattr(ref, label)(cmp_, 4).cols), label
