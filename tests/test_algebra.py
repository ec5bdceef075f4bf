import random
import types
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from orehom.algebra import (
    AlgebraError,
    BaseAlgebra,
    check_collapse,
    character_endomorphism,
    commutator_quotient,
    divide_by_f,
    eigen_split,
    group_algebra,
    k_commutator_subspace,
    kept,
    memo,
    regular_bimodule,
    twisted_commutator_subspace,
    validate_monogenic,
    verify_lambda_breve,
)
from orehom.bar import BarComplex
from orehom.complexes import homology_dims
from orehom.fields import make_field
from orehom.linalg import ColMap, EchelonSet, sparse_rank, sub_terms, subquotient
from orehom.small_complex import build_cs
from orehom.spec_io import EXAMPLE_NAMES, build_example, cyclic_group, dihedral_group, parse_spec

from conftest import RANK_ONE, get_spec, mono_and_m, parse_fresh, rank_one_doc, right_mult_map
from paper_checks import contains

Q = make_field("rationals")

# -- the test documents (tests/conftest.py) ------------------------------------

TABLE_FIXTURES = EXAMPLE_NAMES + ("taft:4", "dual-numbers", "c2-cubic")
ALL_FIXTURES = TABLE_FIXTURES + tuple(RANK_ONE)


def test_group_algebra_c2():
    K = group_algebra(["e", "g"], [["e", "g"], ["g", "e"]], Q)
    assert K.dim == 2
    g = K.basis_vector(1)
    assert K.product(g, g) == K.basis_vector(0)


def test_group_algebra_d6_associative():
    labels, table = dihedral_group(3)
    K = group_algebra(labels, table, Q)  # associativity checked over all triples
    assert K.dim == 6
    # hg = g^{-1} h
    h = K.basis_vector(labels.index("h"))
    g = K.basis_vector(labels.index("g"))
    g2 = K.basis_vector(labels.index("g2"))
    assert K.product(h, g) == K.product(g2, h)


def _mixed_vectors(mono):
    """Dense K-vectors with many nonzero entries."""
    field, dim = mono.field, mono.base.dim
    mixed = [field.from_fraction(i % 3 - 1) + field.root() ** i for i in range(dim)]
    return [mixed, [field.from_fraction(2) * c for c in reversed(mixed)]]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_mul_vec_matches_dense_structure_constants(name):
    # K.product against the triple loop over the structure constants
    mono, _ = mono_and_m(name)
    K, zero = mono.base, mono.field.zero
    vecs = [ref.dense(K.basis_vector(i), K.dim, zero) for i in range(K.dim)] + _mixed_vectors(mono)
    for u in vecs:
        for v in vecs:
            prod = K.product(ref.sparse(u), ref.sparse(v))
            assert prod == ref.sparse(ref.k_product(K, u, v))


def test_group_algebra_bad_rows_rejected():
    with pytest.raises(AlgebraError, match="repeats"):
        group_algebra(["e", "g"], [["e", "e"], ["g", "e"]], Q)
    with pytest.raises(AlgebraError, match="table has no two-sided identity element"):
        group_algebra(
            ["a", "b", "c"],
            [["a", "c", "b"], ["c", "b", "a"], ["b", "a", "c"]],
            Q,
        )


def test_character_c2():
    K = group_algebra(["e", "g"], [["e", "g"], ["g", "e"]], Q)
    alpha = character_endomorphism(K, {"e": 1, "g": -1})
    assert alpha.cols == [{0: 1}, {1: -1}]


def test_character_dihedral_reflections():
    labels, table = dihedral_group(3)
    K = group_algebra(labels, table, Q)
    chi = {lab: (-1 if lab.endswith("h") else 1) for lab in labels}
    alpha = character_endomorphism(K, chi)
    for i, lab in enumerate(labels):
        expect = Fr(-1) if lab.endswith("h") else Fr(1)
        assert alpha.cols[i] == {i: expect}


def test_character_not_multiplicative_rejected():
    K = group_algebra(["e", "g"], [["e", "g"], ["g", "e"]], Q)
    with pytest.raises(AlgebraError, match=r"character is not multiplicative on pair \('g', 'g'\)"):
        character_endomorphism(K, {"e": 1, "g": 2})


def test_character_values_are_keyed_by_label():
    K = group_algebra(["e", "g"], [["e", "g"], ["g", "e"]], Q)
    with pytest.raises(AlgebraError, match="character value missing for 'e'"):
        character_endomorphism(K, {0: 1, 1: -1})


def test_zero_character_does_not_fix_the_unit():
    # chi = 0 passes the pairwise test chi(gh) = chi(g)chi(h); the unit check
    # is what rejects it
    labels, table = dihedral_group(3)
    K = group_algebra(labels, table, Q)
    with pytest.raises(AlgebraError, match="endomorphism does not fix the unit"):
        character_endomorphism(K, {lab: 0 for lab in labels})


def sweedler_mono():
    return get_spec("sweedler").mono


def test_validate_monogenic_sweedler():
    mono = sweedler_mono()
    assert mono.n == 2
    assert mono.lambdas == [{}, {}]


def test_validate_monogenic_rejects_unfixed_coefficient():
    K = group_algebra(["e", "g"], [["e", "g"], ["g", "e"]], Q)
    alpha = character_endomorphism(K, {"e": 1, "g": -1})
    lam2 = {1: Q.from_fraction(-1)}  # f = x^2 - g, alpha(-g) = g != -g
    with pytest.raises(AlgebraError, match="alpha"):
        validate_monogenic(K, alpha, 2, [{}, lam2])


def test_validate_monogenic_rank1_fixture():
    mono = get_spec("rank1:c4").mono
    # f = x^2 - (g^2 - 1): lam_2 = 1 - g^2
    assert mono.f_coefficient(2) == {0: 1, 2: -1}


def test_validate_monogenic_needs_degree_two():
    K = group_algebra(["e"], [["e"]], Q)
    alpha = character_endomorphism(K, {"e": 1})
    with pytest.raises(AlgebraError, match="n >= 2"):
        validate_monogenic(K, alpha, 1, [{0: Q.one}])


def test_divide_by_f_truncated():
    mono = get_spec("trunc:3").mono  # f = x^3 over Q
    one = mono.base.unit
    assert divide_by_f(mono, 2) == ([], [(2, one)])
    assert divide_by_f(mono, 3) == ([(0, one)], [])
    assert divide_by_f(mono, 4) == ([(1, one)], [])


def test_divide_by_f_twisted_rank1():
    mono = get_spec("rank1:c4").mono
    # x^3 = x f + (g^2 - 1) x
    assert divide_by_f(mono, 3) == ([(1, mono.base.unit)], [(1, {0: Q.from_fraction(-1), 2: Q.one})])


def _parts_dense(mono, parts, length):
    """``length`` dense K-vectors holding the parts [(t, c_t)]."""
    out = [[mono.field.zero] * mono.base.dim for _ in range(length)]
    for t, c in parts:
        out[t] = ref.dense(c, mono.base.dim, mono.field.zero)
    return out


def test_divide_reconstruction_random():
    # quotient * f + remainder is x^e in B, for e drawn at random
    rng = random.Random(5)
    for name in ("sweedler", "taft:3", "rank1:c4", "c2-cubic"):
        mono, _ = mono_and_m(name)
        K, n, zero = mono.base, mono.n, mono.field.zero
        for _ in range(10):
            e = rng.randint(0, 3 * n)
            quot, rem = divide_by_f(mono, e)
            recon = _parts_dense(mono, rem, e + n + 1)
            for d, qv in enumerate(_parts_dense(mono, quot, e + 1)):
                for i in range(n + 1):
                    term = ref.k_product(K, qv, ref.alpha_power(mono, d, ref.f_coefficient(mono, i)))
                    recon[d + n - i] = [a + b for a, b in zip(recon[d + n - i], term)]
            assert recon == ref.x_power(mono, e) + [[zero] * K.dim for _ in range(n)]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_reduced_powers_and_quotients_of_x_match_long_division(name):
    mono, _ = mono_and_m(name)
    for e in range(3 * mono.n):
        quot, rem = ref.twisted_division(mono, ref.x_power(mono, e))
        assert mono.x_power_reduced(e) == ref.parts(rem), e
        if e < 2 * mono.n:
            assert mono.x_power_quotient(e) == ref.parts(quot), e
        else:
            with pytest.raises(ValueError, match="does not fit"):
                mono.x_power_quotient(e)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_k_times_x_power_matches_long_division(name):
    mono, _ = mono_and_m(name)
    K, zero = mono.base, mono.field.zero
    vecs = [ref.dense(K.basis_vector(i), K.dim, zero) for i in range(K.dim)] + _mixed_vectors(mono)
    for e in range(2 * mono.n + 1):
        for w in vecs:
            poly = [[zero] * K.dim for _ in range(e)] + [w]
            got = mono.k_times_x_power(ref.sparse(w), e)
            assert got == ref.a_terms(ref.twisted_division(mono, poly)[1]), e


def test_a_multiply_examples():
    sw = get_spec("sweedler").mono
    g = sw.base.basis_vector(1)  # at x^0, its flat coordinates are its K-coordinates
    x = sw.k_times_x_power(sw.base.unit, 1)
    gx = sw.multiply(g, x)
    assert sw.multiply(gx, gx) == {}
    tr = get_spec("trunc:3").mono
    x1 = tr.k_times_x_power(tr.base.unit, 1)
    x2 = tr.k_times_x_power(tr.base.unit, 2)
    assert tr.multiply(x1, x2) == {}
    r1 = get_spec("rank1:c4").mono
    xx = r1.k_times_x_power(r1.base.unit, 1)
    assert r1.multiply(xx, xx) == {0: Q.from_fraction(-1), 2: Q.one}


def test_a_multiply_associative_unital_exhaustive():
    for name in ("sweedler", "rank1:c4", "trunc:3", "c2-cubic"):
        mono, _ = mono_and_m(name)
        basis = [{i: mono.field.one} for i in range(mono.dim)]
        one = mono.k_times_x_power(mono.base.unit, 0)
        for a in basis:
            assert mono.multiply(one, a) == a and mono.multiply(a, one) == a
            for b in basis:
                ab = mono.multiply(a, b)
                for c in basis:
                    assert mono.multiply(ab, c) == mono.multiply(a, mono.multiply(b, c))


def test_twisted_commutators_rational_trivial():
    mono = get_spec("trunc:3").mono
    for j in (0, 1, 2):
        assert k_commutator_subspace(mono, j) == []


def test_twisted_commutators_sweedler():
    sw = get_spec("sweedler").mono
    spans = k_commutator_subspace(sw, 1)
    assert sparse_rank(spans) == 2  # all of K
    assert k_commutator_subspace(sw, 2) == []


def _holds(entries):
    return all(full for full, _ in entries.values())


def test_check_collapse_examples():
    assert _holds(check_collapse(get_spec("sweedler").mono, 6))
    assert not _holds(check_collapse(get_spec("trunc:3").mono, 6))
    rep = check_collapse(get_spec("dihedral:3").mono, 6)
    assert not _holds(rep)
    # the rotation part only reaches symmetric sums, so [K,K]_alpha has
    # codimension 1 in K
    assert rep[1] == (False, 5)


def test_verify_lambda_breve():
    sw = get_spec("sweedler").mono
    ok, _ = verify_lambda_breve(sw, sw.base.basis_vector(1))
    assert ok
    bad, reason = verify_lambda_breve(sw, sw.base.unit)
    assert not bad and "invertible" in reason
    t3 = get_spec("taft:3").mono
    ok, _ = verify_lambda_breve(t3, t3.base.basis_vector(1))
    assert ok


def test_lambda_breve_implies_collapse():
    for name in ("sweedler", "taft:3", "rank1:c4", "rank1nc:c2xc4"):
        parsed = parse_spec(build_example(name))
        ok, _ = verify_lambda_breve(parsed.mono, parsed.lambda_breve)
        assert ok
        assert _holds(check_collapse(parsed.mono, 3 * parsed.mono.n))


def test_eigen_split():
    sw = get_spec("sweedler")
    comps = eigen_split(sw.mono.base, sw.mono.alpha)
    assert comps[0][0] == Q.one and comps[0][1] == [0]
    assert comps[1][0] == Q.from_fraction(-1) and comps[1][1] == [1]
    tr = get_spec("trunc:3")
    comps = eigen_split(tr.mono.base, tr.mono.alpha)
    assert len(comps) == 1 and comps[0][1] == [0]


def test_eigen_split_rejects_non_diagonal():
    from orehom.algebra import check_endomorphism

    labels, table = cyclic_group(3)
    F3 = make_field("cyclotomic", 3)
    K = group_algebra(labels, table, F3)
    # the swap g <-> g^2 is an algebra map but not diagonal
    alpha = ColMap(3, 3, [{0: F3.one}, {2: F3.one}, {1: F3.one}])
    check_endomorphism(K, alpha)
    with pytest.raises(AlgebraError, match="generic path"):
        eigen_split(K, alpha)


def _alpha_order(mono):
    """The least p >= 1 with alpha^p = id, read off ``mono.twist``."""
    return next(p for p in range(1, 64) if mono.twist(p) == 0)


def test_commutator_alpha_period_compatibility():
    for name in ("sweedler", "taft:3", "rank1nc:c2xc4"):
        mono = get_spec(name).mono
        v = _alpha_order(mono)
        M = regular_bimodule(mono)
        for j in (0, 1, 2):
            a = twisted_commutator_subspace(M, j)
            b = twisted_commutator_subspace(M, j + v)
            assert sparse_rank(a) == sparse_rank(b)


def _division_product(mono, a, b):
    """a * b for elements of A given by their flat coordinates, by the dense
    twisted product reduced modulo f: the slow exact reference for the table."""
    return ref.a_terms(ref.a_product(mono, ref.a_dense(mono, a), ref.a_dense(mono, b)))


def _one_hot_commutators(M, j):
    """[M,K]_{alpha^j} spanning vectors for M = A, m_s alpha^j(lam_t) - lam_t m_s
    by twisted division products, with alpha^j composed afresh (the reference
    for ``twisted_commutator_subspace``)."""
    mono = M.mono
    K = mono.base
    field = mono.field
    power = ColMap.identity(K.dim)
    for _ in range(j):
        power = mono.alpha.compose(power)
    spans = []
    for s in range(M.dim):
        m = {s: field.one}
        for t in range(K.dim):
            # a K-element sits at x^0: its flat coordinates are its K-coordinates
            v = sub_terms(_division_product(mono, m, power.cols[t]), _division_product(mono, K.basis_vector(t), m))
            if v:
                spans.append(v)
    return spans


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_column_commutators_match_one_hot_reference(name):
    mono, M = get_spec(name).mono, get_spec(name).bimodule
    order = _alpha_order(mono)
    for j in range(2 * order + 1):
        assert mono.twist(j) == j % order
        assert twisted_commutator_subspace(M, j) == _one_hot_commutators(M, j)
        assert commutator_quotient(M, j) is commutator_quotient(M, j + order)


_MORE_RANK_ONE = {"rank-one(12,1,2,6,1)": (12, 1, 2, 6, 1), "rank-one(8,2,1,4,1)": (8, 2, 1, 4, 1)}


@pytest.mark.parametrize("name", ALL_FIXTURES + ("taft:5",) + tuple(_MORE_RANK_ONE))
def test_quotients_of_a_built_from_k_match_the_direct_elimination(name):
    # A/[A,K]_{alpha^j} built from the kept K/[K,K]_{alpha^(j+p)}, p < n, is
    # the subquotient of one elimination over A, coordinate for coordinate
    if name in _MORE_RANK_ONE:
        mono = parse_spec(rank_one_doc(*_MORE_RANK_ONE[name])).mono
    else:
        mono, _ = mono_and_m(name)
    M = regular_bimodule(mono)
    js = range(12) if name == "dual-numbers" else range(2 * _alpha_order(mono) + 2)
    for j in js:
        built = commutator_quotient(M, j)
        direct = subquotient(M.dim, twisted_commutator_subspace(M, mono.twist(j)))
        assert (built.free, built.proj.cols, built.quotient_dim) == (
            direct.free, direct.proj.cols, direct.quotient_dim)


def test_alpha_of_infinite_order_keeps_every_twist():
    parsed = parse_fresh("dual-numbers")
    mono, M = parsed.mono, parsed.bimodule
    assert [mono.twist(j) for j in range(12)] == list(range(12))
    for j in range(6):
        assert twisted_commutator_subspace(M, j) == _one_hot_commutators(M, j)
    assert len({id(commutator_quotient(M, j)) for j in range(6)}) == 6
    cs_dims = homology_dims(build_cs(M, 6), 5)
    assert cs_dims == homology_dims(BarComplex(mono, M).chain_complex(6), 5)


def test_lambda_n_compatibility():
    # lam*lam_n - alpha^n(lam)*lam_n lies in [K,K]_{alpha^{mn}} for m <= 3
    for name in ("sweedler", "taft:3", "rank1:c4", "rank1nc:c2xc4", "dihedral:3"):
        mono = get_spec(name).mono
        K = mono.base
        lam_n = mono.f_coefficient(mono.n)
        for m in range(4):
            ech = EchelonSet()
            for vv in k_commutator_subspace(mono, m * mono.n):
                ech.add(vv)
            for t in range(K.dim):
                lam = K.basis_vector(t)
                val = sub_terms(K.product(lam, lam_n), K.product(mono.alpha_image(mono.n, lam), lam_n))
                assert contains(ech, val)


def test_regular_bimodule_validates():
    mono = get_spec("rank1:c4").mono
    M = regular_bimodule(mono)
    M.check()  # associativity, unitality, commuting actions, f-relations


def test_regular_bimodule_is_kept_once_per_algebra():
    parsed = parse_spec(build_example("taft:3"))
    M = regular_bimodule(parsed.mono)
    assert M is parsed.bimodule and M.is_regular
    assert regular_bimodule(parse_fresh("dual-numbers").mono) is not M


def test_memo_keeps_functions_of_one_name_apart():
    # a value is kept under its function, not under the function's name
    calls = []

    def memoised(value):
        @memo
        def build(owner, arg):
            calls.append((value, arg))
            return value + arg
        return build

    first, second = memoised(10), memoised(20)
    assert first.__name__ == second.__name__
    owner = types.SimpleNamespace()
    assert [first(owner, 1), second(owner, 1), first(owner, 1), second(owner, 2)] == [11, 21, 11, 22]
    assert calls == [(10, 1), (20, 1), (20, 2)]
    assert kept(owner, ("key",), lambda: 5) == kept(owner, ("key",), lambda: 6) == 5


# -- the multiplication table and the sparse columns against the dense path ----

@pytest.mark.parametrize("name", EXAMPLE_NAMES + tuple(RANK_ONE) + ("dual-numbers", "c2-cubic"))
def test_multiplication_maps_are_the_dense_products(name):
    # each column is read off the sparse products and must equal the dense
    # product item for item, in the same (ascending) order
    mono, _ = mono_and_m(name)
    K, F = mono.base, mono.field
    spread = [F.from_fraction(Fr(j + 1, 2)) for j in range(K.dim)]
    us = [ref.dense(K.basis_vector(i), K.dim, F.zero) for i in range(K.dim)] + [
        ref.dense(K.unit, K.dim, F.zero), spread, [a - b for a, b in zip(spread, ref.alpha_power(mono, 1, spread))]]
    for u in us:
        left, right = K.left_mult_map(ref.sparse(u)), right_mult_map(K, ref.sparse(u))
        for j in range(K.dim):
            e = ref.dense(K.basis_vector(j), K.dim, F.zero)
            assert left.cols[j] == ref.sparse(ref.k_product(K, u, e))
            assert right.cols[j] == ref.sparse(ref.k_product(K, e, u))


def _draw_scalar(data, field):
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree))
    return field.scalar(coeffs)


def _draw_element(data, mono):
    """An element of A by its flat coordinates."""
    terms = {}
    for i in range(mono.dim):
        c = _draw_scalar(data, mono.field) if data.draw(st.booleans()) else mono.field.zero
        if c:
            terms[i] = c
    return terms


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_product_matches_twisted_division(data):
    mono, _ = mono_and_m(data.draw(st.sampled_from(TABLE_FIXTURES)))
    a, b = _draw_element(data, mono), _draw_element(data, mono)
    assert mono.multiply(a, b) == _division_product(mono, a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_k_right_and_x_actions_match_twisted_division(data):
    # a w for w in K, x a and a x, read off the table, against the twisted
    # products written out coefficient by coefficient
    mono, _ = mono_and_m(data.draw(st.sampled_from(TABLE_FIXTURES)))
    K, zero = mono.base, mono.field.zero
    a = _draw_element(data, mono)
    coeffs = ref.a_dense(mono, a)
    w = [_draw_scalar(data, mono.field) for _ in range(K.dim)]
    twisted = [ref.k_product(K, v, ref.alpha_power(mono, j, w)) for j, v in enumerate(coeffs)]
    assert mono.multiply(a, ref.sparse(w)) == ref.a_terms(twisted)
    x = mono.k_times_x_power(K.unit, 1)
    shifted = [[zero] * K.dim] + [ref.alpha_power(mono, 1, v) for v in coeffs]
    assert mono.multiply(x, a) == ref.a_terms(ref.twisted_division(mono, shifted)[1])
    assert mono.multiply(a, x) == ref.a_terms(ref.twisted_division(mono, [[zero] * K.dim] + coeffs)[1])


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_table_matches_twisted_division_on_basis_pairs(name):
    mono, _ = mono_and_m(name)
    one = mono.field.one
    table = mono.mul_table()
    for i in range(mono.dim):
        for j in range(mono.dim):
            assert table[i][j] == _division_product(mono, {i: one}, {j: one})


@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_sparse_alpha_columns_match_dense_powers(name):
    mono, _ = mono_and_m(name)
    K, F = mono.base, mono.field
    spread = [F.from_fraction(Fr(j + 1, 2)) for j in range(K.dim)]
    ident = ColMap.identity(K.dim)
    power = ident
    for p in range(2 * mono.n + 3):
        for kappa in range(K.dim):
            expected = ref.sparse(ref.alpha_power(mono, p, ref.dense(K.basis_vector(kappa), K.dim, F.zero)))
            assert mono.alpha_terms(p, kappa) == expected
            assert mono.alpha_image(p, K.basis_vector(kappa)) == expected
        expected = ref.sparse(ref.alpha_power(mono, p, spread))
        assert mono.alpha_image(p, ref.sparse(spread)) == expected
        assert (mono.twist(p) == 0) == (power == ident)
        power = mono.alpha.compose(power)


@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_sparse_action_columns_match_dense_matrices(name):
    # M = A: each action is a product in A, computed by twisted division
    mono, M = mono_and_m(name)
    K = mono.base
    field = mono.field
    rng = random.Random(7)
    a = ref.sparse([field.from_fraction(rng.randint(-2, 2)) for _ in range(mono.dim)])
    x = mono.k_times_x_power(K.unit, 1)
    for s in range(M.dim):
        one_hot = {s: field.one}
        for t in range(K.dim):
            lam = K.basis_vector(t)
            assert M.k_terms("left", lam, one_hot) == _division_product(mono, lam, one_hot)
            assert M.k_terms("right", lam, one_hot) == _division_product(mono, one_hot, lam)
        lv, rv = one_hot, one_hot
        for p in range(2 * mono.n + 1):
            assert M.x_terms("left", p, one_hot) == lv
            assert M.x_terms("right", p, one_hot) == rv
            lv, rv = _division_product(mono, x, lv), _division_product(mono, rv, x)
        assert M.a_terms("left", a, one_hot) == _division_product(mono, a, one_hot)
        assert M.a_terms("right", a, one_hot) == _division_product(mono, one_hot, a)


@pytest.mark.parametrize("name", TABLE_FIXTURES + tuple(RANK_ONE))
def test_regular_bimodule_matches_division_products(name):
    mono, _ = mono_and_m(name)
    M = regular_bimodule(mono)
    one = mono.field.one
    x = mono.k_times_x_power(mono.base.unit, 1)
    for j in range(mono.dim):
        e = {j: one}
        assert M.left_x.cols[j] == _division_product(mono, x, e)
        assert M.right_x.cols[j] == _division_product(mono, e, x)
        for t in range(mono.base.dim):
            lam = mono.base.basis_vector(t)
            assert M.left_k[t].cols[j] == _division_product(mono, lam, e)
            assert M.right_k[t].cols[j] == _division_product(mono, e, lam)


@pytest.mark.parametrize("name", TABLE_FIXTURES + tuple(RANK_ONE))
def test_regular_actions_equal_the_table_actions_item_for_item(name):
    mono, _ = mono_and_m(name)
    M = regular_bimodule(mono)
    table = mono.mul_table()
    x = mono.k_times_x_power(mono.base.unit, 1)
    one = mono.field.one
    for j in range(mono.dim):
        for t in range(mono.base.dim):
            assert M.left_k[t].cols[j] == table[t][j]
            assert M.right_k[t].cols[j] == table[j][t]
        assert M.left_x.cols[j] == mono.multiply(x, {j: one})
        assert M.right_x.cols[j] == mono.multiply({j: one}, x)


def test_group_table_associativity_names_the_dense_checks_triple():
    # a Latin square with two-sided identity e (a loop of order 5) in which
    # (a a) b = b but a (a b) = a c = d
    labels = ["e", "a", "b", "c", "d"]
    rows = [
        ["e", "a", "b", "c", "d"],
        ["a", "e", "c", "d", "b"],
        ["b", "d", "e", "a", "c"],
        ["c", "b", "d", "e", "a"],
        ["d", "c", "a", "b", "e"],
    ]
    with pytest.raises(AlgebraError, match="associativity fails on triple") as by_table:
        group_algebra(labels, rows, Q)
    index = {lab: i for i, lab in enumerate(labels)}
    sc = [[{index[lab]: Q.one} for lab in row] for row in rows]
    with pytest.raises(AlgebraError) as by_vectors:
        BaseAlgebra(Q, labels, sc, {0: Q.one})
    assert str(by_table.value) == str(by_vectors.value)
