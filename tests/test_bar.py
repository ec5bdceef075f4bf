import random

import pytest

from orehom.algebra import twisted_commutator_subspace
from orehom.bar import (
    BarComplex,
    BarSpace,
    MonomialTensor,
    division_quotient_of_power,
    middle_tuples,
)
from orehom.complexes import homology_dims
from orehom.linalg import ColMap, subquotient
from orehom.spec_io import EXAMPLE_NAMES, build_example, parse_spec
from orehom.workspace import Workspace

from conftest import SHIPPED, get_context

FIXTURES = ("sweedler", "taft:3", "trunc:3", "rank1:c4", "dihedral:3")


def test_resolution_d1_generator():
    ctx = get_context("sweedler")
    br = ctx.barres(2)
    res = br.resolution
    gen = res.d_generator(1)
    sp = res.spaces[0]
    # x (x) 1 - 1 (x) x on the basis (kappa, p, q) with kappa = e
    assert gen == {sp.flat(0, 1, 0): ctx.mono.field.one, sp.flat(0, 0, 1): -ctx.mono.field.one}


def test_resolution_d2_truncated():
    ctx = get_context("trunc:3")
    br = ctx.barres(2)
    res = br.resolution
    gen = res.d_generator(2)
    sp = res.spaces[1]
    one = ctx.mono.field.one
    assert gen == {
        sp.flat(0, 0, 2): one,
        sp.flat(0, 1, 1): one,
        sp.flat(0, 2, 0): one,
    }


def test_resolution_squares_to_zero():
    for name in FIXTURES:
        res = get_context(name).barres(5).resolution
        for r in range(2, 6):
            assert res.d(r - 1).compose(res.d(r)).is_zero()


def test_bar_resolution_squares_to_zero():
    for name in FIXTURES:
        br = get_context(name).barres(5)
        for r in range(2, 6):
            assert br.bprime(r - 1).compose(br.bprime(r)).is_zero()


def test_psi_phi_prime_identity():
    for name in FIXTURES:
        ctx = get_context(name)
        br = ctx.barres(5)
        for r in range(6):
            ident = ColMap.identity(ctx.mono.field, br.resolution.dim(r))
            assert br.psi(r).compose(br.phi(r)) == ident


def test_phi_prime_degree_one_generator():
    ctx = get_context("sweedler")
    br = ctx.barres(2)
    gen = br._phi_generator(1)
    sp = br.spaces[1]
    assert gen == {sp.flat(0, 0, (1,), 0): ctx.mono.field.one}


def test_psi_prime_sweedler_pair():
    # psi'_2(1 (x) x (x) x (x) 1) = quotient of x^2, i.e. 1 (x) 1
    ctx = get_context("sweedler")
    br = ctx.barres(3)
    terms = br._psi_tuple(2, (1, 1))
    rsp = br.resolution.spaces[2]
    assert terms == {rsp.flat(0, 0, 0): ctx.mono.field.one}


def test_comparison_chain_maps():
    for name in FIXTURES:
        ctx = get_context(name)
        br = ctx.barres(5)
        res = br.resolution
        for r in range(1, 6):
            assert br.bprime(r).compose(br.phi(r)) == br.phi(r - 1).compose(res.d(r))
            assert res.d(r).compose(br.psi(r)) == br.psi(r - 1).compose(br.bprime(r))


def test_omega_prime_base_case_zero():
    br = get_context("sweedler").barres(3)
    assert br.omega(1).is_zero()


def test_omega_prime_homotopy_identity():
    for name in FIXTURES:
        ctx = get_context(name)
        br = ctx.barres(5)
        for r in range(1, 5):
            lhs = br.bprime(r + 1).compose(br.omega(r + 1)).add(
                br.omega(r).compose(br.bprime(r)))
            rhs = br.phi(r).compose(br.psi(r)).sub(
                ColMap.identity(ctx.mono.field, br.dim(r)))
            assert lhs == rhs


def test_omega_prime_degree_bound_exhaustive():
    for name in FIXTURES:
        ctx = get_context(name)
        br = ctx.barres(5)
        for r in range(1, 4):
            om = br.omega(r + 1)
            sp, spt = br.spaces[r], br.spaces[r + 1]
            for idx in range(sp.dim):
                din = sp.element_degree({idx: ctx.mono.field.one})
                assert spt.element_degree(om.cols[idx]) <= din


def test_omega_prime_degree_bound_random_level4():
    rng = random.Random(23)
    for name in ("sweedler", "taft:3"):
        ctx = get_context(name)
        br = ctx.barres(5)
        om = br.omega(5)
        sp, spt = br.spaces[4], br.spaces[5]
        idxs = [rng.randrange(sp.dim) for _ in range(min(200, sp.dim))]
        for idx in idxs:
            din = sp.element_degree({idx: ctx.mono.field.one})
            assert spt.element_degree(om.cols[idx]) <= din


def test_bar_space_dimensions():
    ctx = get_context("trunc:3")
    bar = ctx.bar(3)
    # r = 1: tuples (1), (2); each block is all of A (commutative base)
    assert bar.dim(1) == 6
    sw = get_context("sweedler")
    assert sw.bar(3).dim(0) == 2


def test_bar_boundary_squares_to_zero():
    for name in FIXTURES:
        bar = get_context(name).bar(5)
        for r in range(2, 6):
            assert bar.b(r - 1).compose(bar.b(r)).is_zero()


def _global_subquotient(sp):
    """One elimination over the whole ambient space of ``sp``, block spans embedded."""
    field = sp.mono.field
    spans = []
    for ti, t in enumerate(sp.tuples):
        for v in twisted_commutator_subspace(sp.M, sum(t)):
            vec = [field.zero] * sp.ambient_dim
            vec[ti * sp.block:(ti + 1) * sp.block] = v
            spans.append(vec)
    return subquotient(field, sp.ambient_dim, spans)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_bar_space_matches_global_subquotient(name):
    ctx = get_context(name)
    field = ctx.mono.field
    bar = ctx.bar(4)
    for r in range(5):
        sp = bar.spaces[r]
        ref = _global_subquotient(sp)
        assert sp.quotient_dim == ref.quotient_dim
        assert sp.free_columns == ref.free
        for i in range(sp.ambient_dim):
            column = {qi: row[i] for qi, row in enumerate(ref.projection.entries) if row[i]}
            assert sp.project_terms({i: field.one}) == column
        qvec = [field.one if qi % 3 else field.zero for qi in range(sp.quotient_dim)]
        assert sp.lift_vec(qvec) == ref.lift_vec(qvec)


def _workspace_maps(ws, top):
    cs, bar, cmp_ = ws.cs(top), ws.bar(top), ws.comparison(top)
    return (
        [(sp.quotient_dim, sp.free, sp.projection, sp.section) for sp in cs.spaces]
        + [cs.boundary(r) for r in range(1, top + 1)]
        + [bar.b(r) for r in range(1, top + 1)]
        + [bar.connes_B(r) for r in range(top)]
        + [cmp_.phi(r) for r in range(top + 1)]
        + [cmp_.psi(r) for r in range(top + 1)]
        + [cmp_.omega(r) for r in range(top)]
    )


@pytest.mark.parametrize("name", ("sweedler", "trunc:3", "rank1:c4", "dihedral:3"))
def test_grown_bar_side_equals_fresh_build(name):
    def fresh():
        # a bimodule of its own, so that no quotient is shared with the other side
        parsed = parse_spec(build_example(name))
        return Workspace(parsed.mono, parsed.bimodule)

    ws = fresh()
    _workspace_maps(ws, 4)  # fill the caches before growing
    grown = _workspace_maps(ws, 7)
    assert ws.bar(7).max_r == 7 and ws.cs(7).max_degree == 7
    assert grown == _workspace_maps(fresh(), 7)


def test_trunc4_level8_bar_space():
    # 3^8 tuples times dim A = 4; K = Q and alpha = id leave nothing to divide by
    ctx = get_context("trunc:4")
    field = ctx.mono.field
    sp = BarSpace(ctx.mono, ctx.M, 8)
    assert sp.ambient_dim == sp.quotient_dim == 26244
    rng = random.Random(8)
    qvec = [field.zero] * sp.quotient_dim
    for qi in rng.sample(range(sp.quotient_dim), 200):
        qvec[qi] = field.one * rng.randrange(1, 5)
    amb = sp.lift_vec(qvec)
    assert sp.project_terms({i: c for i, c in enumerate(amb) if c}) == {
        i: c for i, c in enumerate(qvec) if c
    }


@pytest.mark.parametrize("name", SHIPPED)
def test_bar_oracle_matches_small_complex(name):
    ctx = get_context(name)
    cs_dims = homology_dims(ctx.cs(7), 5)
    bar_dims = homology_dims(ctx.bar(7).chain_complex(7), 5)
    assert cs_dims == bar_dims


def test_connes_B_on_degree_zero():
    ctx = get_context("trunc:3")
    bar = ctx.bar(2)
    B0 = bar.connes_B(0)
    sp0, sp1 = bar.spaces[0], bar.spaces[1]
    one = ctx.mono.field.one
    # B[x^j] = [1 (x) x^j]; B[1] = 0
    col_x = B0.cols[sp0.flat((), ctx.mono.index(1, 0))]
    assert col_x == {sp1.flat((1,), ctx.mono.index(0, 0)): one}
    assert B0.cols[sp0.flat((), ctx.mono.index(0, 0))] == {}


def test_connes_B_identities():
    for name in FIXTURES:
        ctx = get_context(name)
        bar = ctx.bar(5)
        for r in range(0, 4):
            assert bar.connes_B(r + 1).compose(bar.connes_B(r)).is_zero()
        for r in range(1, 4):
            anti = bar.b(r + 1).compose(bar.connes_B(r)).add(
                bar.connes_B(r - 1).compose(bar.b(r)))
            assert anti.is_zero()


def test_induced_psi_phi_identity():
    for name in FIXTURES:
        ctx = get_context(name)
        cmp_ = ctx.comparison(5)
        cs = ctx.cs(5)
        for r in range(5):
            ident = ColMap.identity(ctx.mono.field, cs.dim(r))
            assert cmp_.psi(r).compose(cmp_.phi(r)) == ident


def test_induced_phi_psi_examples_degree_one():
    ctx = get_context("sweedler")
    cmp_ = ctx.comparison(3)
    bar = ctx.bar(3)
    cs = ctx.cs(3)
    # phi_1 [m] = [m (x) x], psi_1 [m (x) x] = [m]; the composite is the identity
    assert cmp_.psi(1).compose(cmp_.phi(1)) == ColMap.identity(ctx.mono.field, cs.dim(1))
    assert cmp_.psi(0).compose(cmp_.phi(0)) == ColMap.identity(ctx.mono.field, cs.dim(0))


def test_induced_homotopy_identity():
    for name in FIXTURES:
        ctx = get_context(name)
        cmp_ = ctx.comparison(5)
        bar = ctx.bar(5)
        for r in range(0, 4):
            lhs = bar.b(r + 1).compose(cmp_.omega(r))
            if r >= 1:
                lhs = lhs.add(cmp_.omega(r - 1).compose(bar.b(r)))
            rhs = cmp_.phi(r).compose(cmp_.psi(r)).sub(
                ColMap.identity(ctx.mono.field, bar.dim(r)))
            assert lhs == rhs


def test_division_quotient_of_power():
    mono = get_context("sweedler").mono
    assert division_quotient_of_power(mono, 1).is_zero()
    assert division_quotient_of_power(mono, 2) == mono.one_a()


def test_monomial_tensor_degree():
    t = MonomialTensor(None, (2, 1))
    assert t.degree == 3
    assert MonomialTensor(None, (0,)).degree == 0


def test_element_degree_max_rule():
    ctx = get_context("trunc:3")
    bar = ctx.bar(2)
    sp = bar.spaces[1]
    one = ctx.mono.field.one
    terms = {
        sp.flat((1,), ctx.mono.index(1, 0)): one,  # x (x) x, degree 2
        sp.flat((2,), ctx.mono.index(1, 0)): one,  # x (x) x^2, degree 3
    }
    assert sp.element_degree(terms) == 3
    assert sp.element_degree({}) == float("-inf")


def test_middle_tuples_shapes():
    assert middle_tuples(2, 3) == [(1, 1, 1)]
    assert len(middle_tuples(3, 2)) == 4
    assert middle_tuples(4, 0) == [()]


def test_generic_path_with_nondiagonal_alpha():
    # alpha from the group automorphism g -> g^2 on Q(z3)[C3] is a
    # permutation matrix: the eigencomponent machinery refuses, but the
    # generic complex and the oracle still agree
    from orehom.algebra import (
        AlgebraEndomorphism,
        AlgebraError,
        eigen_split,
        group_algebra,
        regular_bimodule,
        validate_monogenic,
    )
    from orehom.fields import make_field
    from orehom.linalg import Matrix
    from orehom.small_complex import build_cs
    from orehom.spec_io import cyclic_group

    F = make_field("cyclotomic", 3)
    labels, table = cyclic_group(3)
    K = group_algebra(labels, table, F)
    m = Matrix.zeros(F, 3, 3)
    m.entries[0][0] = F.one
    m.entries[2][1] = F.one  # g -> g^2
    m.entries[1][2] = F.one  # g^2 -> g^4 = g
    alpha = AlgebraEndomorphism(K, m)
    mono = validate_monogenic(K, alpha, 2, [[F.zero] * 3, [F.zero] * 3])
    with pytest.raises(AlgebraError):
        eigen_split(K, alpha)
    M = regular_bimodule(mono)
    cs_dims = homology_dims(build_cs(mono, M, 5), 3)
    bar_dims = homology_dims(BarComplex(mono, M, 5).chain_complex(), 3)
    assert cs_dims == bar_dims


def test_nonregular_bimodule_coefficients():
    # M = K through the map sending x to zero (valid whenever lam_n = 0):
    # coefficients other than A exercise the general bimodule path
    from orehom.algebra import BimoduleData, regular_bimodule
    from orehom.linalg import Matrix
    from orehom.small_complex import build_cs

    ctx = get_context("sweedler")
    mono = ctx.mono
    K = mono.base
    field = mono.field
    left_k = [K.left_mult_matrix(K.basis_vector(t)) for t in range(K.dim)]
    right_k = [K.right_mult_matrix(K.basis_vector(t)) for t in range(K.dim)]
    zero_x = Matrix.zeros(field, K.dim, K.dim)
    M = BimoduleData(mono, K.dim, left_k, zero_x, right_k, zero_x)
    cs_dims = homology_dims(build_cs(mono, M, 5), 3)
    bar_dims = homology_dims(BarComplex(mono, M, 5).chain_complex(), 3)
    assert cs_dims == bar_dims
    assert cs_dims[0] == 2
