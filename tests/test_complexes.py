"""Rank-only homology dimensions against the kernel path."""

import pytest

from orehom.complexes import ChainComplex, ComplexError, homology, homology_dims
from orehom.cyclic import MixedComplexData, bc_total
from orehom.fields import make_field
from orehom.linalg import ColMap, subquotient

from conftest import get_context

Q = make_field("rationals")


def _bar_complexes(name, md):
    bar = get_context(name).bar(md)
    mixed = MixedComplexData(
        bar.mono.field,
        [bar.space(r) for r in range(md)],
        {r: bar.b(r) for r in range(1, md)},
        {r: bar.connes_B(r) for r in range(md - 1)},
    )
    return bar.chain_complex(md), bc_total(mixed, md - 1)


@pytest.mark.parametrize("name", ("sweedler", "taft:3", "rank1:c4", "dihedral:3"))
def test_homology_dims_match_the_kernel_path(name):
    # every degree, the top (kernel-only) one included
    for cx in _bar_complexes(name, 5):
        top = cx.max_degree
        expected = [homology(cx, r, want_representatives=False).dimension for r in range(top + 1)]
        assert homology_dims(cx, top) == expected
        assert homology_dims(cx) == expected[:top]


def test_inconsistent_boundaries_name_the_degree():
    # d_1 = d_2 = 1 on k <- k <- k: d_1 . d_2 != 0, so dim H_1 would be 1 - 1 - 1
    spaces = [subquotient(Q, 1, []) for _ in range(3)]
    one = ColMap.identity(Q, 1)
    cx = ChainComplex(Q, spaces, {1: one, 2: one}, check=False)
    with pytest.raises(ComplexError, match=r"degree 1: dim 1 - rank d_1 1 - rank d_2 1 < 0"):
        homology_dims(cx, 1)
    assert homology_dims(cx, 0) == [0]


def test_homology_dims_degree_out_of_range():
    cs = get_context("sweedler").cs(3)
    with pytest.raises(ComplexError, match="out of range"):
        homology_dims(cs, cs.max_degree + 1)
