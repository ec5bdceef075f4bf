import pytest

from orehom.algebra import check_collapse
from orehom.complexes import homology, homology_dims
from orehom.cyclic import hc_closed_form, hc_rank_one
from orehom.linalg import sparse_rank
from orehom.small_complex import (
    HypothesisError,
    build_cs,
    collapse_required_js,
    decompose,
    hh_closed_form,
    hh_dims_eigen,
    hh_rank_one,
)
from orehom.spec_io import build_example, parse_spec

from conftest import COLLAPSING, SHIPPED, get_spec, is_zero
from paper_checks import build_cs_collapsed, periodicity_check

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
    ctx = get_spec("trunc:3")
    cs = build_cs(ctx.bimodule, 6)
    assert [cs.dim(r) for r in range(7)] == [3] * 7
    for r in range(1, 7):
        m = cs.boundary(r)
        if r % 2 == 1:
            assert is_zero(m)
        else:
            assert sparse_rank(m.cols) == 1


def test_sweedler_space_dims():
    spec = get_spec("sweedler")
    cs = build_cs(spec.bimodule, 6)
    assert [cs.dim(r) for r in range(7)] == [2] * 7


def test_dd_zero_every_fixture():
    for name in SHIPPED:
        spec = get_spec(name)
        cs = build_cs(spec.bimodule, 6)
        for r in range(1, 6):
            assert is_zero(cs.boundary(r).compose(cs.boundary(r + 1)))


@pytest.mark.parametrize("name", sorted(HH_TABLE))
def test_hh_dimension_tables(name):
    ctx = get_spec(name)
    cs = build_cs(ctx.bimodule, 7)
    assert homology_dims(cs, 5) == HH_TABLE[name]


@pytest.mark.parametrize("name", ("trunc:3", "sweedler", "rank1:c4"))
def test_homology_representatives_are_cycles(name):
    ctx = get_spec(name)
    cs = build_cs(ctx.bimodule, 5)
    dims = homology_dims(cs, 4)
    for r, reps in enumerate(homology(cs, 4)):
        assert len(reps) == dims[r]
        for v in reps:
            q = cs.spaces[r].project_terms(v)
            if r >= 1:
                img = cs.boundary(r).apply(q)
                assert not img


def test_top_degree_spans_the_kernel():
    ctx = get_spec("sweedler")
    cs = build_cs(ctx.bimodule, 4)
    top = homology(cs, 4)[4]
    # no incoming boundary: every cycle of d_4 is a class, as homology_dims counts
    assert len(top) == cs.dim(4) - sparse_rank(cs.boundary(4).cols) == homology_dims(cs, 4)[4]
    qs = [cs.spaces[4].project_terms(v) for v in top]
    assert sparse_rank(qs) == len(top) and not any(cs.boundary(4).apply(q) for q in qs)


def test_collapsed_matches_generic():
    for name in COLLAPSING:
        ctx = get_spec(name)
        gen = homology_dims(build_cs(ctx.bimodule, 7), 6)
        col = homology_dims(build_cs_collapsed(ctx.mono, 7), 6)
        assert col == gen


def test_collapsed_refuses_without_hypothesis():
    for name in ("trunc:3", "dihedral:3", "dihedral:4"):
        with pytest.raises(HypothesisError, match="generic"):
            build_cs_collapsed(get_spec(name).mono, 6)


def test_collapsed_boundaries_sweedler():
    mono = get_spec("sweedler").mono
    col = build_cs_collapsed(mono, 4)
    # d_odd = 0 because lam_2 = 0
    assert is_zero(col.boundary(1)) and is_zero(col.boundary(3))
    # d_even([1]) = 2x, d_even([g]) = 0
    d2 = col.boundary(2).cols
    assert d2[0] == {0: mono.field.from_fraction(2)}
    assert d2[1] == {}


def test_collapsed_boundaries_taft3():
    mono = get_spec("taft:3").mono
    F = mono.field
    col = build_cs_collapsed(mono, 4)
    d2 = col.boundary(2).cols
    # the norm 1 + z^a + z^{2a} vanishes except on the trivial character row
    assert d2 == [{0: F.from_fraction(3)}, {}, {}]


def test_collapsed_boundary_rank1_odd():
    mono = get_spec("rank1:c4").mono
    F = mono.field
    col = build_cs_collapsed(mono, 4)
    # d_1([g] x) = [2 g^3 - 2 g]
    amb = col.spaces[0].lift_vec(col.boundary(1).cols[1])
    # ambient coordinates over (e, g, g2, g3); [K,K]_{alpha^0} = 0 so the
    # quotient is all of K
    assert amb == {1: F.from_fraction(-2), 3: F.from_fraction(2)}


def test_decompose_sums_to_collapsed():
    for name in COLLAPSING:
        ctx = get_spec(name)
        comps = decompose(ctx.mono, 6)
        col = build_cs_collapsed(ctx.mono, 6)
        for r in range(7):
            assert sum(c.dim(r) for _, _, c in comps) == col.dim(r)
        gen = homology_dims(build_cs(ctx.bimodule, 7), 5)
        sums = [sum(homology_dims(c, 5)[r] for _, _, c in comps) for r in range(6)]
        assert sums == gen


def test_decompose_sweedler_components():
    ctx = get_spec("sweedler")
    comps = decompose(ctx.mono, 6)
    by_val = {str(w): c for w, _, c in comps}
    minus = by_val["-1"]
    assert homology_dims(minus, 5) == [1, 1, 1, 1, 1, 1]
    plus = by_val["1"]
    assert homology_dims(plus, 5) == [1, 0, 0, 0, 0, 0]


def test_nonroot_components_vanish_positively():
    # eigenvalues with w^n != 1 contribute nothing above degree 0
    ctx = get_spec("rank1nc:c2xc4")
    comps = decompose(ctx.mono, 6)
    F = ctx.mono.field
    z = F.root()
    for w, _, c in comps:
        if w ** 2 != F.one:
            assert w in (z, -z)
            assert homology_dims(c, 5)[1:] == [0] * 5


def test_closed_forms_match_generic():
    for name in COLLAPSING:
        ctx = get_spec(name)
        gen = homology_dims(build_cs(ctx.bimodule, 7), 6)
        assert hh_closed_form(ctx.mono, "collapsed", 6) == gen
        assert hh_closed_form(ctx.mono, "eigen", 6) == gen


def test_closed_form_alpha_identity():
    for name, n in (("trunc:2", 2), ("trunc:3", 3), ("trunc:4", 4)):
        ctx = get_spec(name)
        cf = hh_closed_form(ctx.mono, "alpha_identity", 6)
        assert cf == [n] + [n - 1] * 6
        assert cf == homology_dims(build_cs(ctx.bimodule, 7), 6)


def test_closed_form_refusals():
    with pytest.raises(HypothesisError):
        hh_closed_form(get_spec("dihedral:3").mono, "collapsed", 4)
    with pytest.raises(HypothesisError):
        hh_closed_form(get_spec("sweedler").mono, "alpha_identity", 4)
    with pytest.raises(HypothesisError):
        hh_closed_form(get_spec("sweedler").mono, "nonsense", 4)


def _closed_forms(parsed, window):
    """Every closed form of a collapsing fixture at ``window``, and the
    homology of the collapsed complexes it is read from."""
    mono, summary = parsed.mono, parsed.summary
    out = {
        "collapsed": hh_closed_form(mono, "collapsed", window),
        "eigen": hh_closed_form(mono, "eigen", window),
        "hc": hc_closed_form(mono, window),
        "collapsed complex": homology_dims(build_cs_collapsed(mono, window + 1), window),
        "components": [homology_dims(c, window) for _, _, c in decompose(mono, window + 1)],
    }
    case = summary.get("rank_one_case")
    if case:
        out["hh rank one"] = hh_rank_one(mono, case, window)
        out["hc rank one"] = hc_rank_one(mono, case, window)
    return out


@pytest.mark.parametrize("name", COLLAPSING)
def test_closed_forms_read_the_verdict_of_the_algebra_whatever_window_it_was_parsed_at(name):
    # the collapse check of a parse at degree 0 covers j <= 3n only; the
    # closed forms at window 12 look up the classes it did not reach
    narrow, wide = (parse_spec(build_example(name), max_degree=md) for md in (0, 12))
    assert narrow.summary["collapse"]["max_j"] < max(collapse_required_js(narrow.mono.n, 12))
    assert narrow.summary["collapse"]["holds"] and narrow.summary["diagonalizable"]
    assert _closed_forms(narrow, 12) == _closed_forms(wide, 12)


def test_closed_form_past_the_parsed_window_answers():
    mono = parse_spec(build_example("taft:3"), max_degree=2).mono
    assert hh_closed_form(mono, "collapsed", 12) == HH_TABLE["taft:3"][:1] + [2] * 12


@pytest.mark.parametrize("window", [1, 4, 12])
def test_collapse_refusal_names_exactly_the_failing_js_of_the_window(window):
    mono = parse_spec(build_example("dihedral:3"), max_degree=0).mono
    with pytest.raises(HypothesisError) as refusal:
        hh_closed_form(mono, "collapsed", window)
    needed = collapse_required_js(mono.n, window)
    entries = check_collapse(mono, max(needed))
    failing = [j for j in needed if entries[j][1] < mono.base.dim]
    assert failing
    assert f"[K,K]_(alpha^j) != K for j in {failing};" in str(refusal.value)


def test_eigen_component_breakdown_taft3():
    # the per-component dims are those ``hh --decompose`` reports: the
    # homology of the complexes of ``decompose``
    mono = get_spec("taft:3").mono
    assert hh_dims_eigen(mono, 5) == [3, 2, 2, 2, 2, 2]
    percomp = [(w, homology_dims(c, 5)) for w, _, c in decompose(mono, 6)]
    for w, dims in percomp:
        assert dims[0] == 1
    ones = [dims for w, dims in percomp if str(w) == "1"][0]
    assert ones == [1, 0, 0, 0, 0, 0]


def test_periodicity():
    assert periodicity_check(get_spec("sweedler").mono, 1, 2)
    assert periodicity_check(get_spec("taft:3").mono, 1, 2)
    assert periodicity_check(get_spec("trunc:3").mono, 1, 2)
    assert periodicity_check(get_spec("rank1nc:c2xc4").mono, 2, 2)


def test_periodicity_rejects_wrong_order():
    with pytest.raises(HypothesisError):
        periodicity_check(get_spec("rank1nc:c2xc4").mono, 1, 2)
    with pytest.raises(HypothesisError):
        periodicity_check(get_spec("sweedler").mono, 2, 1)


def test_hh_rank_one_specializations():
    from orehom.small_complex import hh_rank_one

    for name, case in (
        ("sweedler", "xi=0"),
        ("taft:3", "xi=0"),
        ("rank1:c4", "xi!=0, chi^n=id"),
        ("rank1nc:c2xc4", "xi!=0, chi^n!=id"),
    ):
        ctx = get_spec(name)
        gen = homology_dims(build_cs(ctx.bimodule, 7), 6)
        assert hh_rank_one(ctx.mono, case, 6) == gen
