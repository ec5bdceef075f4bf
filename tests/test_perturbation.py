import pytest

from orehom.complexes import homology_dims
from orehom.cyclic import connes_D, hc
from orehom.linalg import ColMap
from orehom.perturbation import (
    PerturbationError,
    build_cyclic_retract,
    perturb,
    transferred_block,
    vanishing_check,
    verify_perturbed,
)

from conftest import get_context

FIXTURES = ("sweedler", "taft:3", "trunc:3", "rank1:c4", "dihedral:3")


def _setup(name, max_N=5):
    ctx = get_context(name)
    retract, delta, sides = build_cyclic_retract(ctx, max_N)
    return ctx, retract, delta, sides


@pytest.mark.parametrize("name", FIXTURES)
def test_retract_identities_and_special(name):
    ctx, retract, delta, _ = _setup(name)
    rep = retract.verify()
    assert all(rep.values()), rep
    assert retract.is_special()


def test_zero_perturbation_changes_nothing():
    ctx, retract, delta, _ = _setup("sweedler")
    zero = {r: ColMap(ctx.mono.field, retract.X.dim(r - 1), retract.X.dim(r))
            for r in range(1, retract.max_degree + 1)}
    pert = perturb(retract, zero)
    for r in range(1, retract.max_degree + 1):
        assert pert.Y1.boundary(r) == retract.Y.boundary(r)
        assert pert.incl1[r] == retract.incl[r]
    for r in range(retract.max_degree):
        assert pert.h1[r] == retract.h[r]
        assert pert.proj1[r] == retract.proj[r]


@pytest.mark.parametrize("name", FIXTURES)
def test_perturbed_identities(name):
    ctx, retract, delta, _ = _setup(name)
    pert = perturb(retract, delta)
    rep = verify_perturbed(pert)
    assert all(rep.values()), rep
    assert "h1 h1 = 0" in rep  # the special conclusions were checked


@pytest.mark.parametrize("name", FIXTURES)
def test_transferred_differential_is_d_plus_D(name):
    ctx, retract, delta, (Yside, Xside) = _setup(name)
    pert = perturb(retract, delta)
    cs = ctx.cs(5)
    for N in range(1, 6):
        for (p, deg, off, d) in Yside.blocks[N]:
            if p >= 1:
                blk = transferred_block(pert, Yside, N, p, p - 1)
                assert blk == connes_D(ctx.mono, deg, cs.spaces, "generic")
            for pt in range(0, p - 1):
                assert transferred_block(pert, Yside, N, p, pt).is_zero()


@pytest.mark.parametrize("name", FIXTURES)
def test_transferred_homology_equals_hc(name):
    ctx, retract, delta, _ = _setup(name)
    pert = perturb(retract, delta)
    assert homology_dims(pert.Y1, 4) == hc(ctx.mono, 6)[:5]


@pytest.mark.parametrize("name", ("sweedler", "trunc:3", "taft:3"))
def test_vanishing_check(name):
    ctx = get_context(name)
    rep = vanishing_check(ctx, 2, 3)
    assert all(rep.values())
    assert set(rep) == {(j, r) for j in (1, 2) for r in range(4)}


def test_vanishing_degree_accounting():
    # deg((B w)^j B phi(v)) stays below (m+1) n on monomial classes
    ctx = get_context("taft:3")
    mono = ctx.mono
    top = 3 + 2 * 2 + 1
    bar = ctx.bar(top)
    cmp_ = ctx.comparison(top)
    cs = ctx.cs(top)
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
                    sp = bar.spaces[lev]
                    amb = {sp.free_columns[i]: c for i, c in v.items()}
                    assert sp.element_degree(amb) < m * n + n


def test_invalid_perturbation_rejected():
    ctx, retract, delta, _ = _setup("sweedler")
    field = ctx.mono.field
    # an arbitrary degree -1 map violates (d + delta)^2 = 0
    bad = {}
    for r in range(1, retract.max_degree + 1):
        cm = ColMap(field, retract.X.dim(r - 1), retract.X.dim(r))
        if cm.nrows and cm.ncols:
            cm.set_col(0, {0: field.one})
        bad[r] = cm
    with pytest.raises(PerturbationError):
        perturb(retract, bad)
