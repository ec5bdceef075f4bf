"""Rank-only homology dimensions against the kernel path."""

import pytest

from orehom.bar import bar_complex
from orehom.complexes import ChainComplex, ComplexError, homology, homology_dims
from orehom.cyclic import bc_total, check_mixed
from orehom.linalg import ColMap, subquotient
from orehom.small_complex import build_cs

from conftest import get_spec


def _bar_complexes(name, md):
    bar = bar_complex(get_spec(name).bimodule)
    cx = bar.chain_complex(md - 1)
    return bar.chain_complex(md), bc_total(cx, check_mixed(cx, {r: bar.connes_B(r) for r in range(md - 1)}), md - 1)


@pytest.mark.parametrize("name", ("sweedler", "taft:3", "rank1:c4", "dihedral:3"))
def test_homology_dims_match_the_kernel_path(name):
    # every degree, the top one (its kernel) included
    for cx in _bar_complexes(name, 5):
        top = cx.max_degree
        expected = [len(reps) for reps in homology(cx, top)]
        assert homology_dims(cx, top) == expected
        assert homology_dims(cx, top - 1) == expected[:top]


def test_inconsistent_boundaries_name_the_degree():
    # d_1 = d_2 = 1 on k <- k <- k: d_1 . d_2 != 0, so dim H_1 would be 1 - 1 - 1;
    # the complex is built valid (d_1 = 0) and its d_1 set afterwards
    spaces = [subquotient(1, []) for _ in range(3)]
    one = ColMap.identity(1)
    cx = ChainComplex(spaces, {1: ColMap(1, 1), 2: one})
    cx.boundaries[1] = one
    with pytest.raises(ComplexError, match=r"degree 1: dim 1 - rank d_1 1 - rank d_2 1 < 0"):
        homology_dims(cx, 1)
    assert homology_dims(cx, 0) == [0]


def test_homology_dims_degree_out_of_range():
    spec = get_spec("sweedler")
    cs = build_cs(spec.bimodule, 3)
    with pytest.raises(ComplexError, match="out of range"):
        homology_dims(cs, cs.max_degree + 1)
