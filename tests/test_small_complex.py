import pytest

from orehom.complexes import homology, homology_dims
from orehom.linalg import sparse_rank
from orehom.small_complex import (
    HypothesisError,
    build_cs,
    build_cs_collapsed,
    decompose,
    hh_closed_form,
    hh_dims_eigen,
    periodicity_check,
)

from conftest import COLLAPSING, SHIPPED, get_context

# Homology dimension tables, frozen from the normalized-complex oracle
# (cross-checked below and in test_acceptance).
HH_TABLE = {
    "trunc:2": [2, 1, 1, 1, 1, 1],
    "trunc:3": [3, 2, 2, 2, 2, 2],
    "trunc:4": [4, 3, 3, 3, 3, 3],
    "sweedler": [2, 1, 1, 1, 1, 1],
    "taft:2": [2, 1, 1, 1, 1, 1],
    "taft:3": [3, 2, 2, 2, 2, 2],
    "rank1:c4": [3, 1, 1, 1, 1, 1],
    "rank1nc:c2xc4": [8, 0, 0, 2, 2, 0],
    "dihedral:3": [4, 2, 2, 2, 2, 2],
    "dihedral:4": [6, 3, 3, 3, 3, 3],
}


def test_trunc_spaces_and_boundaries():
    ctx = get_context("trunc:3")
    cs = ctx.cs(6)
    assert cs.dims()[:7] == [3] * 7
    for r in range(1, 7):
        m = cs.boundary(r)
        if r % 2 == 1:
            assert m.is_zero()
        else:
            assert sparse_rank(m.cols) == 1


def test_sweedler_space_dims():
    cs = get_context("sweedler").cs(6)
    assert cs.dims()[:7] == [2] * 7


def test_dd_zero_every_fixture():
    for name in SHIPPED:
        cs = get_context(name).cs(6)
        for r in range(1, 6):
            assert cs.boundary(r).compose(cs.boundary(r + 1)).is_zero()


@pytest.mark.parametrize("name", sorted(HH_TABLE))
def test_hh_dimension_tables(name):
    ctx = get_context(name)
    cs = ctx.cs(7)
    assert homology_dims(cs, 5) == HH_TABLE[name]


@pytest.mark.parametrize("name", ("trunc:3", "sweedler", "rank1:c4"))
def test_homology_representatives_are_cycles(name):
    ctx = get_context(name)
    cs = ctx.cs(5)
    for r in range(5):
        rep = homology(cs, r)
        assert rep.dimension == len(rep.representatives)
        for v in rep.representatives:
            q = cs.spaces[r].project_terms(v)
            if r >= 1:
                img = cs.boundary(r).apply(q)
                assert not img


def test_top_degree_flagged_kernel_only():
    ctx = get_context("sweedler")
    cs = build_cs(ctx.mono, ctx.M, 4)
    rep = homology(cs, 4)
    assert rep.kernel_only


def test_collapsed_matches_generic():
    for name in COLLAPSING:
        ctx = get_context(name)
        gen = homology_dims(ctx.cs(7), 6)
        col = homology_dims(build_cs_collapsed(ctx.mono, 7), 6)
        assert col == gen


def test_collapsed_refuses_without_hypothesis():
    for name in ("trunc:3", "dihedral:3", "dihedral:4"):
        with pytest.raises(HypothesisError, match="generic"):
            build_cs_collapsed(get_context(name).mono, 6)


def test_collapsed_boundaries_sweedler():
    mono = get_context("sweedler").mono
    col = build_cs_collapsed(mono, 4)
    # d_odd = 0 because lam_2 = 0
    assert col.boundary(1).is_zero() and col.boundary(3).is_zero()
    # d_even([1]) = 2x, d_even([g]) = 0
    d2 = col.boundary(2).cols
    assert d2[0] == {0: mono.field.from_fraction(2)}
    assert d2[1] == {}


def test_collapsed_boundaries_taft3():
    mono = get_context("taft:3").mono
    F = mono.field
    col = build_cs_collapsed(mono, 4)
    d2 = col.boundary(2).cols
    # the norm 1 + z^a + z^{2a} vanishes except on the trivial character row
    assert d2 == [{0: F.from_fraction(3)}, {}, {}]


def test_collapsed_boundary_rank1_odd():
    mono = get_context("rank1:c4").mono
    F = mono.field
    col = build_cs_collapsed(mono, 4)
    # d_1([g] x) = [2 g^3 - 2 g]
    amb = col.spaces[0].lift_vec(col.boundary(1).cols[1])
    # ambient coordinates over (e, g, g2, g3); [K,K]_{alpha^0} = 0 so the
    # quotient is all of K
    assert amb == {1: F.from_fraction(-2), 3: F.from_fraction(2)}


def test_decompose_sums_to_collapsed():
    for name in COLLAPSING:
        ctx = get_context(name)
        comps = decompose(ctx.mono, 6)
        col = build_cs_collapsed(ctx.mono, 6)
        for r in range(7):
            assert sum(c.dim(r) for _, _, c in comps) == col.dim(r)
        gen = homology_dims(ctx.cs(7), 5)
        sums = [sum(homology_dims(c, 5)[r] for _, _, c in comps) for r in range(6)]
        assert sums == gen


def test_decompose_sweedler_components():
    ctx = get_context("sweedler")
    comps = decompose(ctx.mono, 6)
    by_val = {str(w): c for w, _, c in comps}
    minus = by_val["-1"]
    assert homology_dims(minus, 5) == [1, 1, 1, 1, 1, 1]
    plus = by_val["1"]
    assert homology_dims(plus, 5) == [1, 0, 0, 0, 0, 0]


def test_nonroot_components_vanish_positively():
    # eigenvalues with w^n != 1 contribute nothing above degree 0
    ctx = get_context("rank1nc:c2xc4")
    comps = decompose(ctx.mono, 6)
    F = ctx.mono.field
    z = F.root()
    for w, _, c in comps:
        if w ** 2 != F.one:
            assert w in (z, -z)
            assert homology_dims(c, 5)[1:] == [0] * 5


def test_closed_forms_match_generic():
    for name in COLLAPSING:
        ctx = get_context(name)
        gen = homology_dims(ctx.cs(7), 6)
        assert hh_closed_form(ctx.mono, "collapsed", 6) == gen
        assert hh_closed_form(ctx.mono, "eigen", 6) == gen


def test_closed_form_alpha_identity():
    for name, n in (("trunc:2", 2), ("trunc:3", 3), ("trunc:4", 4)):
        ctx = get_context(name)
        cf = hh_closed_form(ctx.mono, "alpha_identity", 6)
        assert cf == [n] + [n - 1] * 6
        assert cf == homology_dims(ctx.cs(7), 6)


def test_closed_form_refusals():
    with pytest.raises(HypothesisError):
        hh_closed_form(get_context("dihedral:3").mono, "collapsed", 4)
    with pytest.raises(HypothesisError):
        hh_closed_form(get_context("sweedler").mono, "alpha_identity", 4)
    with pytest.raises(HypothesisError):
        hh_closed_form(get_context("sweedler").mono, "nonsense", 4)


def test_eigen_component_breakdown_taft3():
    totals, percomp = hh_dims_eigen(get_context("taft:3").mono, 5)
    assert totals == [3, 2, 2, 2, 2, 2]
    for w, dims in percomp:
        assert dims[0] == 1
    ones = [dims for w, dims in percomp if str(w) == "1"][0]
    assert ones == [1, 0, 0, 0, 0, 0]


def test_periodicity():
    assert periodicity_check(get_context("sweedler").mono, 1, 2)
    assert periodicity_check(get_context("taft:3").mono, 1, 2)
    assert periodicity_check(get_context("trunc:3").mono, 1, 2)
    assert periodicity_check(get_context("rank1nc:c2xc4").mono, 2, 2)


def test_periodicity_rejects_wrong_order():
    with pytest.raises(HypothesisError):
        periodicity_check(get_context("rank1nc:c2xc4").mono, 1, 2)
    with pytest.raises(HypothesisError):
        periodicity_check(get_context("sweedler").mono, 2, 1)


def test_hh_rank_one_specializations():
    from orehom.small_complex import hh_rank_one

    for name, case in (
        ("sweedler", "xi=0"),
        ("taft:3", "xi=0"),
        ("rank1:c4", "xi!=0, chi^n=id"),
        ("rank1nc:c2xc4", "xi!=0, chi^n!=id"),
    ):
        ctx = get_context(name)
        gen = homology_dims(ctx.cs(7), 6)
        assert hh_rank_one(ctx.mono, case, 6) == gen
