import pytest

from orehom.bar import bar_complex, comparison
from orehom.complexes import ChainComplex, homology_dims
from orehom.cyclic import (
    bc_total,
    build_mixed,
    build_mixed_components,
    check_mixed,
    connes_D,
    hc,
    hc_closed_form,
    hc_dims,
    hc_rank_one,
    tot_blocks,
    transfer_D,
)
from orehom.perturbation import build_cyclic_retract
from orehom.small_complex import HypothesisError, build_cs
from orehom.spec_io import EXAMPLE_NAMES

from conftest import COLLAPSING, SHIPPED, get_spec, is_zero
from paper_checks import collapsed_mixed, sbi_check

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
        ctx = get_spec(name)
        _, D = collapsed_mixed(ctx.mono, 6)
        for r in range(0, 6, 2):
            assert is_zero(D[r])


def test_connes_D_sweedler_odd():
    ctx = get_spec("sweedler")
    mono = ctx.mono
    _, D = collapsed_mixed(mono, 4)
    D1 = D[1].cols
    # D_1([g] x) = [2g]; D_1([1] x) = [1 - alpha(1)] = 0
    assert D1[1] == {1: mono.field.from_fraction(2)}
    assert D1[0] == {}


def test_connes_D_truncated_generic():
    ctx = get_spec("trunc:3")
    mono = ctx.mono
    cs = build_cs(ctx.bimodule, 6)
    F = mono.field
    for m in (0, 1, 2):
        D = connes_D(mono, 2 * m, cs.spaces).cols
        for j in range(3):
            # class [x^j]
            assert D[j] == ({j - 1: F.from_fraction(j + m * mono.n)} if j >= 1 else {})


def test_mixed_identities_all_fixtures():
    for name in SHIPPED:
        M = get_spec(name).bimodule
        build_mixed(build_cs(M, 6), M)  # raises on violation


def test_transfer_matches_closed_formula():
    for name in ("sweedler", "taft:3", "trunc:3", "rank1:c4", "dihedral:3"):
        ctx = get_spec(name)
        cs = build_cs(ctx.bimodule, 6)
        bar = bar_complex(ctx.bimodule)
        cmp_ = comparison(ctx.bimodule)
        for r in range(5):
            direct = connes_D(ctx.mono, r, cs.spaces)
            assert direct == transfer_D(cmp_, bar, r)


def test_bc_total_shapes_and_square_zero():
    ctx = get_spec("sweedler")
    cs, D = collapsed_mixed(ctx.mono, 6)
    tot = bc_total(cs, D, 5)
    assert tot.dim(0) == cs.dim(0)
    assert tot.dim(1) == cs.dim(1)
    assert tot.dim(2) == cs.dim(2) + cs.dim(0)
    # Tot_N is the columns p = 0.. of X_{N-2p}, laid end to end
    for N in range(6):
        blocks = tot_blocks(cs, N)
        assert [(p, deg, d) for p, deg, off, d in blocks] == [(p, N - 2 * p, cs.dim(N - 2 * p))
                                                               for p in range(N // 2 + 1)]
        assert [off for _, _, off, _ in blocks] == [sum(d for *_, d in blocks[:i]) for i in range(len(blocks))]
        assert sum(d for *_, d in blocks) == tot.dim(N)
    for N in range(2, 6):
        assert is_zero(tot.boundary(N - 1).compose(tot.boundary(N)))


@pytest.mark.parametrize("name", sorted(HC_TABLE))
def test_hc_tables(name):
    ctx = get_spec(name)
    assert hc(ctx.bimodule, 7)[:6] == HC_TABLE[name]


def test_hc_zero_degree_equals_hh():
    for name in SHIPPED:
        ctx = get_spec(name)
        hh0 = homology_dims(build_cs(ctx.bimodule, 2), 0)[0]
        assert hc(ctx.bimodule, 3)[0] == hh0


@pytest.mark.parametrize("name", ("sweedler", "taft:3", "rank1:c4", "dihedral:3", "dihedral:4", "trunc:3"))
def test_hc_oracle_equivalence(name):
    ctx = get_spec(name)
    md = 6
    dims = hc(ctx.bimodule, md)
    bar = bar_complex(ctx.bimodule)
    cx = bar.chain_complex(md - 1)
    oracle = hc_dims(cx, check_mixed(cx, {r: bar.connes_B(r) for r in range(md - 1)}), md - 1)
    assert dims[:md - 1] == oracle


def test_component_mixed_sums_to_total():
    for name in COLLAPSING:
        ctx = get_spec(name)
        comps = build_mixed_components(ctx.mono, 6)
        total = None
        for w, idxs, comp, D in comps:
            dims = hc_dims(comp, D, 6)
            total = dims if total is None else [a + b for a, b in zip(total, dims)]
        assert total == hc(ctx.bimodule, 7)[:6]


def test_hc_closed_form_proof_reading_matches():
    for name in COLLAPSING:
        ctx = get_spec(name)
        cf = hc_closed_form(ctx.mono, 6)
        assert cf["proof_reading"] == hc(ctx.bimodule, 7)[:7]


def test_hc_closed_form_exponent_divergence():
    # with lam_n = 0 the displayed odd numerator gives 0 at degree 1 while
    # the cycle condition gives the component dimension
    cf = hc_closed_form(get_spec("sweedler").mono, 4)
    assert cf["disagree_degrees"] == [1]
    assert cf["displayed_reading"][1] == 0
    assert cf["proof_reading"][1] == 1
    cf4 = hc_closed_form(get_spec("rank1:c4").mono, 4)
    assert cf4["disagree_degrees"] == [1]


def test_hc_closed_form_power_stabilization():
    # (g^2 - 1)^(m+1) spans the same line for every m, so even degrees stay 3
    cf = hc_closed_form(get_spec("rank1:c4").mono, 6)
    assert cf["proof_reading"][0::2] == [3, 3, 3, 3]


def test_hc_rank_one_specializations():
    for name, case in (
        ("sweedler", "xi=0"),
        ("taft:3", "xi=0"),
        ("rank1:c4", "xi!=0, chi^n=id"),
        ("rank1nc:c2xc4", "xi!=0, chi^n!=id"),
    ):
        ctx = get_spec(name)
        r1 = hc_rank_one(ctx.mono, case, 6)
        assert r1 == hc(ctx.bimodule, 7)[:7]


def test_hc_closed_form_refuses_without_collapse():
    with pytest.raises(HypothesisError):
        hc_closed_form(get_spec("dihedral:3").mono, 4)


def test_sbi_items_all_pass():
    for name in ("taft:2", "taft:3"):
        rep = sbi_check(get_spec(name).mono, max_m=2)
        assert rep["by_item"]["a"] and rep["by_item"]["b"] and rep["by_item"]["c"]
        assert rep["by_item"]["e"]
        assert rep["by_item"]["d"] and rep["by_item"]["f"]
        assert rep["by_item"]["1"]


def test_sbi_on_nontrivial_lambda_n():
    rep = sbi_check(get_spec("rank1:c4").mono, max_m=2)
    assert all(rep["by_item"].values())


def test_sbi_handles_nonroot_components():
    rep = sbi_check(get_spec("rank1nc:c2xc4").mono, max_m=1)
    items = {e["item"] for e in rep["entries"]}
    assert "1" in items  # the w = +i / -i components use the surjection item
    assert all(rep["by_item"].values())


def test_connes_D_degree_out_of_range():
    ctx = get_spec("sweedler")
    cs = build_cs(ctx.bimodule, 4)
    with pytest.raises(HypothesisError, match="out of range"):
        connes_D(ctx.mono, cs.max_degree, cs.spaces)


def test_mixed_identity_violation_raises_complex_error():
    from orehom.complexes import ComplexError
    from orehom.linalg import ColMap

    ctx = get_spec("sweedler")
    mono = ctx.mono
    cs, D = collapsed_mixed(mono, 4)
    bad_B = dict(D)
    corrupted = ColMap(cs.dim(2), cs.dim(1))
    corrupted.cols[0] = {0: mono.field.one}
    bad_B[1] = corrupted
    with pytest.raises(ComplexError, match="bB \\+ Bb != 0 at degree 1"):
        check_mixed(cs, bad_B)


def test_mixed_identity_names_the_degree_where_BB_fails():
    # D_1([g] x) = [2g], so a D_2 with D_2([g]) = [g] x makes D_2 D_1 != 0 at degree 1
    from orehom.complexes import ComplexError
    from orehom.linalg import ColMap

    mono = get_spec("sweedler").mono
    cs, D = collapsed_mixed(mono, 4)
    bad_B = dict(D)
    bad_B[2] = ColMap(cs.dim(3), cs.dim(2), [{}, {1: mono.field.one}])
    with pytest.raises(ComplexError, match="B.B != 0 at degree 1"):
        check_mixed(cs, bad_B)


def test_mixed_identity_is_checked_in_degree_zero():
    # k <-> k with b_1 = B_0 = id: bb and BB have no degree to test, and
    # bB + Bb in degree 0 is b_1 B_0 alone (B_{-1} = 0), which is not 0
    from orehom.complexes import ComplexError
    from orehom.linalg import ColMap, subquotient

    one = ColMap.identity(1)
    spaces = [subquotient(1, []) for _ in range(2)]
    with pytest.raises(ComplexError, match="bB \\+ Bb != 0 at degree 0"):
        check_mixed(ChainComplex(spaces, {1: one}), {0: one})
    check_mixed(ChainComplex(spaces, {1: one}), {0: ColMap(1, 1)})


def _zero_scalars(named_maps):
    """``name column j`` for every column of the named maps that holds a zero scalar."""
    return [f"{name}[{key}] column {j}" for name, maps in named_maps for key, m in maps.items()
            for j, col in enumerate(m.cols) if not all(col.values())]


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_eager_maps_hold_no_zero_scalar(name):
    # an eager map is built from its list of columns with no zero filter:
    # every function that makes one must hand it zero-free columns
    parsed = get_spec(name)
    mono, M = parsed.mono, parsed.bimodule
    cs = build_cs(M, 12)
    D = build_mixed(cs, M)
    named = [("d", cs.boundaries), ("D", D), ("Tot d", bc_total(cs, D, 12).boundaries)]
    try:
        components = build_mixed_components(mono, 12)
    except HypothesisError:
        components = []
    for w, _, comp, Dw in components:
        named += [(f"D(w={w})", Dw), (f"Tot d(w={w})", bc_total(comp, Dw, 12).boundaries)]
    retract, delta = build_cyclic_retract(build_cs(M, 5), M, 5)
    named += [("incl", retract.incl), ("proj", retract.proj), ("h", retract.h), ("delta", delta)]
    assert _zero_scalars(named) == []
