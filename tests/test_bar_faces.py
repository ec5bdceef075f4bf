"""The boundary b and the cyclic operator B built from projected face
operators, and b' of the bar resolution built from its generator values,
against the one-tensor-at-a-time references of ``bar_reference.py``.

``BarComplex`` keeps each face operator projected into a target block once
per (operator, twist class of the target block) and each source block's
list of faces once per block.  ``BarResolution.bprime`` is the bimodule
extension of b' on the free generators 1 (x) x^t (x) 1.  Every column must
equal the reference column whichever order the columns are read in.  Both
move the coefficients of a merged middle slot to the front untwisted, which
the reference does not: alpha fixes them.
"""

import pytest

import bar_reference as ref
from orehom.algebra import BimoduleData
from orehom.bar import BarComplex, BarResolution, bar_complex
from orehom.linalg import ColMap
from orehom.perturbation import vanishing_check
from orehom.spec_io import EXAMPLE_NAMES, build_example, parse_spec

from conftest import RANK_ONE, kept_keys, mono_and_m, right_mult_map

TOP = 6
# the dual numbers have alpha of infinite order: every twist is its own class;
# in the C_2 cubic, x^3 = -x, so a merged slot x^s with s >= n keeps -1 at x^(s - 2)
FIXTURES = EXAMPLE_NAMES + ("taft:4",) + tuple(RANK_ONE) + ("dual-numbers", "c2-cubic")


def _maps(bar, regular=True):
    """(name, r, map) for b_1..b_TOP and, for M = A, B_0..B_TOP."""
    maps = [("b", r, bar.b(r)) for r in range(1, TOP + 1)]
    if regular:
        maps += [("B", r, bar.connes_B(r)) for r in range(TOP + 1)]
    return maps


def _reference(bar, name, r):
    return (ref.b if name == "b" else ref.connes_B)(bar, r)


def _check_against_reference(mono, M, regular=True):
    forward, backward = BarComplex(mono, M), BarComplex(mono, M)
    for name, r, m in _maps(forward, regular):
        expected = _reference(forward, name, r)
        assert (m.nrows, m.ncols) == (expected.nrows, expected.ncols), (name, r)
        assert list(m.cols) == list(expected.cols), (name, r)
    # the other complex reads its maps top down and each map's columns last to first
    for name, r, m in reversed(_maps(backward, regular)):
        expected = _reference(backward, name, r)
        for j in reversed(range(m.ncols)):
            assert m.cols[j] == expected.cols[j], (name, r, j)


@pytest.mark.parametrize("name", FIXTURES)
def test_b_and_B_match_the_reference(name):
    mono, M = mono_and_m(name)
    _check_against_reference(mono, M)


def test_b_matches_the_reference_on_nonregular_coefficients():
    # M = K with x acting by zero, as in test_bar.py
    mono, _ = mono_and_m("sweedler")
    K = mono.base
    zero_x = ColMap(K.dim, K.dim)
    M = BimoduleData(mono, K.dim, [K.left_mult_map(K.basis_vector(t)) for t in range(K.dim)], zero_x,
                     [right_mult_map(K, K.basis_vector(t)) for t in range(K.dim)], zero_x)
    M.check()
    _check_against_reference(mono, M, regular=False)
    with pytest.raises(ValueError):
        BarComplex(mono, M).connes_B(1)


def test_face_lists_are_built_once_per_block_read(monkeypatch):
    # the vanishing check reads few columns of B_7 on taft:4; a source
    # block's faces are listed on its first read and kept for the others
    listed = []
    original = BarComplex._B_faces

    def counted(self, r, t, i0):
        listed.append((r, t, i0))
        return original(self, r, t, i0)

    monkeypatch.setattr(BarComplex, "_B_faces", counted)
    M = parse_spec(build_example("taft:4")).bimodule
    assert all(vanishing_check(M, 2, 3).values())
    B7 = bar_complex(M).connes_B(7)
    assert B7.cols.built < B7.ncols / 10, B7
    assert len(listed) == len(set(listed))
    assert 0 < len([key for key in listed if key[0] == 7]) <= B7.cols.built


@pytest.mark.parametrize("name", FIXTURES)
def test_bprime_matches_the_reference(name):
    mono, _ = mono_and_m(name)
    forward, backward = BarResolution(mono), BarResolution(mono)
    expected = {r: ref.bprime(forward, r) for r in range(1, TOP + 1)}
    for r in range(1, TOP + 1):
        m = forward.bprime(r)
        assert (m.nrows, m.ncols) == (expected[r].nrows, expected[r].ncols), r
        assert list(m.cols) == list(expected[r].cols), r
    # the other resolution reads its maps top down and each map's columns last to first
    for r in reversed(range(1, TOP + 1)):
        m = backward.bprime(r)
        for j in reversed(range(m.ncols)):
            assert m.cols[j] == expected[r].cols[j], (r, j)


@pytest.mark.parametrize("name", FIXTURES)
def test_alpha_fixes_the_coefficients_of_reduced_powers_of_x(name):
    # b and b' move each coefficient c_tp of a merged slot x^s (s <= 2n - 2)
    # to the front untwisted; p < 16 meets every class of alpha^p of the
    # fixtures whose alpha has finite order (at most 8)
    mono, _ = mono_and_m(name)
    for p in range(16):
        for s in range(2 * mono.n - 1):
            for tp, c in mono.x_power_reduced(s):
                assert mono.alpha_image(p, c) == c, (p, s, tp)


def test_merged_slots_keep_one_operator_per_power_and_target_class():
    # on taft:4 the merged slots x^2 and x^3 each meet the four twist classes
    # of a target block, with no further class of alpha^pre: 8 operators
    mono, M = mono_and_m("taft:4")
    bar = BarComplex(mono, M)
    for r in range(1, 6):
        list(bar.b(r).cols)
    kept = sorted((key, cls) for key, cls in kept_keys(bar, BarComplex._face) if key[0] == "kr")
    assert kept == [(("kr", s, s), cls) for s in (2, 3) for cls in range(4)]
