import pytest

from orehom.bar import bar_complex, comparison
from orehom.complexes import ChainComplex, ComplexError, homology_dims
from orehom.cyclic import connes_D, hc, tot_blocks
from orehom.linalg import ColMap, subquotient
from orehom.perturbation import (
    DeformationRetract,
    build_cyclic_retract,
    perturb,
    vanishing_check,
    verify_perturbed,
)
from orehom.spec_io import build_example, parse_spec
from orehom.small_complex import build_cs

from bar_reference import bar_element_degree
from conftest import get_spec, is_zero
from paper_checks import block, column

FIXTURES = ("sweedler", "taft:3", "trunc:3", "rank1:c4", "dihedral:3")


def _setup(name, max_N=5):
    ctx = get_spec(name)
    retract, delta = build_cyclic_retract(build_cs(ctx.bimodule, max_N), ctx.bimodule, max_N)
    return ctx, retract, delta


@pytest.mark.parametrize("name", FIXTURES)
def test_retract_identities_and_special(name):
    ctx, retract, delta = _setup(name)
    assert retract.holds()
    assert retract.is_special()


def test_verify_checks_the_special_identities_of_each_retract_once(capsys, monkeypatch):
    # ``verify`` reads the base retract's verdict once, for its own check
    # and for the perturbed retract's; the perturbed one runs its own
    from orehom import perturbation
    from orehom.cli import main

    calls = []
    original = perturbation.DeformationRetract.is_special

    def counted(self):
        calls.append(self.max_degree)
        return original(self)

    monkeypatch.setattr(perturbation.DeformationRetract, "is_special", counted)
    assert main(["verify", "--spec", "taft:3", "--max-degree", "6"]) == 0
    capsys.readouterr()
    assert calls == [5, 4]


def test_zero_perturbation_changes_nothing():
    ctx, retract, delta = _setup("sweedler")
    zero = {r: ColMap(retract.X.dim(r - 1), retract.X.dim(r))
            for r in range(1, retract.max_degree + 1)}
    pert = perturb(retract, zero)
    for r in range(1, retract.max_degree + 1):
        assert pert.Y.boundary(r) == retract.Y.boundary(r)
        assert pert.incl[r] == retract.incl[r]
    for r in range(retract.max_degree):
        assert pert.h[r] == retract.h[r]
        assert pert.proj[r] == retract.proj[r]


@pytest.mark.parametrize("name", FIXTURES)
def test_perturbed_identities(name):
    ctx, retract, delta = _setup(name)
    pert = perturb(retract, delta)
    assert pert.max_degree == retract.max_degree - 1
    assert verify_perturbed(pert, True)
    assert pert.is_special()  # the special conclusions hold


def transferred_block(pert, cs, N, p_from, p_to):
    """The (column p_to <- column p_from) block of the transferred
    differential on the BC total of the small complex cs; d_Y is
    block-diagonal, so off the diagonal it is a block of p Delta i."""
    off, d = column(cs, N, p_from)
    cols = [block(cs, N - 1, p_to, pert.Y.boundary(N).cols[off + jj]) for jj in range(d)]
    return ColMap(column(cs, N - 1, p_to)[1], d, cols)


@pytest.mark.parametrize("name", FIXTURES)
def test_transferred_differential_is_d_plus_D(name):
    ctx, retract, delta = _setup(name)
    pert = perturb(retract, delta)
    cs = build_cs(ctx.bimodule, 5)
    for N in range(1, 6):
        for (p, deg, off, d) in tot_blocks(cs, N):
            if p >= 1:
                blk = transferred_block(pert, cs, N, p, p - 1)
                assert blk == connes_D(ctx.mono, deg, cs.spaces)
            for pt in range(0, p - 1):
                assert is_zero(transferred_block(pert, cs, N, p, pt))


@pytest.mark.parametrize("name", FIXTURES)
def test_transferred_homology_equals_hc(name):
    ctx, retract, delta = _setup(name)
    pert = perturb(retract, delta)
    assert homology_dims(pert.Y, 4) == hc(ctx.bimodule, 6)[:5]


@pytest.mark.parametrize("name", ("sweedler", "trunc:3", "taft:3"))
def test_vanishing_check(name):
    ctx = get_spec(name)
    rep = vanishing_check(ctx.bimodule, 2, 3)
    assert all(rep.values())
    assert set(rep) == {(j, r) for j in (1, 2) for r in range(4)}


def test_vanishing_degree_accounting():
    # deg((B w)^j B phi(v)) stays below (m+1) n on monomial classes
    ctx = get_spec("taft:3")
    mono = ctx.mono
    top = 3 + 2 * 2 + 1
    bar = bar_complex(ctx.bimodule)
    cmp_ = comparison(ctx.bimodule)
    cs = build_cs(ctx.bimodule, top)
    n = mono.n
    for r in (0, 2):
        m = r // 2
        phi = cmp_.phi(r)
        for qj in range(phi.ncols):
            v = bar.connes_B(r).apply(phi.cols[qj])
            lev = r + 1
            for j in range(1, 3):
                v = cmp_.omega(lev).apply(v)
                v = bar.connes_B(lev + 1).apply(v)
                lev += 2
                if v:
                    sp = bar.space(lev)
                    amb = {sp.free[i]: c for i, c in v.items()}
                    assert bar_element_degree(sp, amb) < m * n + n


def test_invalid_perturbation_rejected():
    ctx, retract, delta = _setup("sweedler")
    field = ctx.mono.field
    # an arbitrary degree -1 map violates (d + delta)^2 = 0
    bad = {}
    for r in range(1, retract.max_degree + 1):
        cm = ColMap(retract.X.dim(r - 1), retract.X.dim(r))
        if cm.nrows and cm.ncols:
            cm.cols[0] = {0: field.one}
        bad[r] = cm
    with pytest.raises(ComplexError, match=r"d_1 \. d_2 != 0"):
        perturb(retract, bad)


def test_a_perturbation_series_that_does_not_terminate_is_an_identity_failure():
    # k in degrees 0..2 with d = 0, i = p = id, h_0 = id and h_1 = 0; delta_1 = id
    # and delta_2 = 0 keep (d + delta)^2 = 0, but delta_1 h_0 = id is not nilpotent
    spaces = [subquotient(1, []) for _ in range(3)]
    zero, one = ColMap(1, 1), ColMap.identity(1)
    cx = ChainComplex(spaces, {1: zero, 2: zero})
    ident = {r: one for r in range(3)}
    retract = DeformationRetract(cx, cx, ident, ident, {0: one, 1: zero}, 2)
    with pytest.raises(ComplexError, match="delta\\*h not nilpotent within 4 steps at degree 1"):
        perturb(retract, {1: one, 2: zero})


@pytest.mark.parametrize("name", ["taft:3", "taft:4"])
def test_vanishing_check_builds_only_the_columns_it_reads(name):
    M = parse_spec(build_example(name)).bimodule
    assert all(vanishing_check(M, 2, 3).values())
    bar, cmp_ = bar_complex(M), comparison(M)
    # the maps into levels 7 and 8 and psi at level 8
    for m in (cmp_.omega(6), bar.connes_B(7), cmp_.psi(8)):
        assert m.cols.built < m.ncols / 10, m
