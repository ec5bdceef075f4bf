import pytest

from orehom.complexes import homology_dims
from orehom.cyclic import (
    BCTotal,
    MixedComplexData,
    bc_total,
    build_mixed,
    build_mixed_components,
    connes_D,
    hc,
    hc_closed_form,
    hc_rank_one,
    sbi_check,
    transfer_D,
)
from orehom.small_complex import HypothesisError

from conftest import COLLAPSING, SHIPPED, get_context

# Cyclic homology tables, frozen from the normalized-complex BC oracle.
HC_TABLE = {
    "trunc:3": [3, 0, 3, 0, 3, 0],
    "sweedler": [2, 1, 2, 1, 2, 1],
    "taft:2": [2, 1, 2, 1, 2, 1],
    "taft:3": [3, 2, 3, 2, 3, 2],
    "rank1:c4": [3, 1, 3, 1, 3, 1],
    "rank1nc:c2xc4": [8, 0, 8, 2, 8, 0],
    "dihedral:3": [4, 1, 4, 1, 4, 1],
    "dihedral:4": [6, 2, 6, 2, 6, 2],
}


def test_connes_D_collapsed_even_zero():
    for name in COLLAPSING:
        ctx = get_context(name)
        mixed = build_mixed(ctx.mono, 6, mode="collapsed")
        for r in range(0, 6, 2):
            assert mixed.B[r].is_zero()


def test_connes_D_sweedler_odd():
    ctx = get_context("sweedler")
    mono = ctx.mono
    mixed = build_mixed(mono, 4, mode="collapsed")
    D1 = mixed.B[1].cols
    # D_1([g] x) = [2g]; D_1([1] x) = [1 - alpha(1)] = 0
    assert D1[1] == {1: mono.field.from_int(2)}
    assert D1[0] == {}


def test_connes_D_truncated_generic():
    ctx = get_context("trunc:3")
    mono = ctx.mono
    cs = ctx.cs(6)
    F = mono.field
    for m in (0, 1, 2):
        D = connes_D(mono, 2 * m, cs.spaces, "generic").cols
        for j in range(3):
            # class [x^j]
            assert D[j] == ({j - 1: F.from_int(j + m * mono.n)} if j >= 1 else {})


def test_mixed_identities_all_fixtures():
    for name in SHIPPED:
        build_mixed(get_context(name).mono, 6)  # raises on violation


def test_transfer_matches_closed_formula():
    for name in ("sweedler", "taft:3", "trunc:3", "rank1:c4", "dihedral:3"):
        ctx = get_context(name)
        cs = ctx.cs(6)
        bar = ctx.bar(6)
        cmp_ = ctx.comparison(6)
        for r in range(5):
            direct = connes_D(ctx.mono, r, cs.spaces, "generic")
            assert direct == transfer_D(cmp_, bar, r)


def test_bc_total_shapes_and_square_zero():
    ctx = get_context("sweedler")
    mixed = build_mixed(ctx.mono, 6, mode="collapsed")
    tot = BCTotal(mixed, 5)
    assert tot.dim(0) == mixed.dim(0)
    assert tot.dim(1) == mixed.dim(1)
    assert tot.dim(2) == mixed.dim(2) + mixed.dim(0)
    for N in range(2, 6):
        assert tot.complex.boundary(N - 1).compose(tot.complex.boundary(N)).is_zero()


@pytest.mark.parametrize("name", sorted(HC_TABLE))
def test_hc_tables(name):
    ctx = get_context(name)
    assert hc(ctx.mono, 7)[:6] == HC_TABLE[name]


def test_hc_zero_degree_equals_hh():
    for name in SHIPPED:
        ctx = get_context(name)
        hh0 = homology_dims(ctx.cs(2), 0)[0]
        assert hc(ctx.mono, 3)[0] == hh0


@pytest.mark.parametrize("name", ("sweedler", "taft:3", "rank1:c4", "dihedral:3", "dihedral:4", "trunc:3"))
def test_hc_oracle_equivalence(name):
    ctx = get_context(name)
    md = 6
    dims = hc(ctx.mono, md)
    bar = ctx.bar(md)
    barmixed = MixedComplexData(
        ctx.mono.field,
        [bar.space(r) for r in range(md)],
        {r: bar.b(r) for r in range(1, md)},
        {r: bar.connes_B(r) for r in range(md - 1)},
    )
    oracle = homology_dims(bc_total(barmixed, md - 1), md - 2)
    assert dims[:md - 1] == oracle


def test_component_mixed_sums_to_total():
    for name in COLLAPSING:
        ctx = get_context(name)
        comps = build_mixed_components(ctx.mono, 6)
        total = None
        for w, idxs, cm in comps:
            dims = homology_dims(bc_total(cm, 6), 5)
            total = dims if total is None else [a + b for a, b in zip(total, dims)]
        assert total == hc(ctx.mono, 7)[:6]


def test_hc_closed_form_proof_reading_matches():
    for name in COLLAPSING:
        ctx = get_context(name)
        cf = hc_closed_form(ctx.mono, 6)
        assert cf["proof_reading"] == hc(ctx.mono, 7)[:7]


def test_hc_closed_form_exponent_divergence():
    # with lam_n = 0 the displayed odd numerator gives 0 at degree 1 while
    # the cycle condition gives the component dimension
    cf = hc_closed_form(get_context("sweedler").mono, 4)
    assert cf["disagree_degrees"] == [1]
    assert cf["displayed_reading"][1] == 0
    assert cf["proof_reading"][1] == 1
    cf4 = hc_closed_form(get_context("rank1:c4").mono, 4)
    assert cf4["disagree_degrees"] == [1]


def test_hc_closed_form_power_stabilization():
    # (g^2 - 1)^(m+1) spans the same line for every m, so even degrees stay 3
    cf = hc_closed_form(get_context("rank1:c4").mono, 6)
    assert cf["proof_reading"][0::2] == [3, 3, 3, 3]


def test_hc_rank_one_specializations():
    for name, case in (
        ("sweedler", "xi=0"),
        ("taft:3", "xi=0"),
        ("rank1:c4", "xi!=0, chi^n=id"),
        ("rank1nc:c2xc4", "xi!=0, chi^n!=id"),
    ):
        ctx = get_context(name)
        r1 = hc_rank_one(ctx.mono, case, 6)
        assert r1["proof_reading"] == hc(ctx.mono, 7)[:7]


def test_hc_closed_form_refuses_without_collapse():
    with pytest.raises(HypothesisError):
        hc_closed_form(get_context("dihedral:3").mono, 4)


def test_sbi_items_all_pass():
    for name in ("taft:2", "taft:3"):
        rep = sbi_check(get_context(name).mono, max_m=2)
        assert rep["by_item"]["a"] and rep["by_item"]["b"] and rep["by_item"]["c"]
        assert rep["by_item"]["e"]
        assert rep["by_item"]["d"] and rep["by_item"]["f"]
        assert rep["by_item"]["1"]


def test_sbi_on_nontrivial_lambda_n():
    rep = sbi_check(get_context("rank1:c4").mono, max_m=2)
    assert all(rep["by_item"].values())


def test_sbi_handles_nonroot_components():
    rep = sbi_check(get_context("rank1nc:c2xc4").mono, max_m=1)
    items = {e["item"] for e in rep["entries"]}
    assert "1" in items  # the w = +i / -i components use the surjection item
    assert all(rep["by_item"].values())


def test_connes_D_degree_out_of_range():
    ctx = get_context("sweedler")
    cs = ctx.cs(4)
    with pytest.raises(HypothesisError, match="out of range"):
        connes_D(ctx.mono, cs.max_degree, cs.spaces, "generic")


def test_mixed_identity_violation_raises_complex_error():
    from orehom.complexes import ComplexError
    from orehom.linalg import ColMap

    ctx = get_context("sweedler")
    mono = ctx.mono
    mixed = build_mixed(mono, 4, mode="collapsed")
    bad_B = dict(mixed.B)
    corrupted = ColMap(mono.field, mixed.dim(2), mixed.dim(1))
    corrupted.set_col(0, {0: mono.field.one})
    bad_B[1] = corrupted
    with pytest.raises(ComplexError):
        MixedComplexData(mono.field, mixed.spaces, mixed.b, bad_B)
