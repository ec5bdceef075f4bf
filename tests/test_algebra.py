import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orehom.algebra import (
    AElement,
    AlgebraError,
    BaseAlgebra,
    check_collapse,
    character_endomorphism,
    commutator_quotient,
    divide_by_f,
    eigen_split,
    group_algebra,
    k_commutator_subspace,
    regular_bimodule,
    twisted_commutator_subspace,
    validate_monogenic,
    vec_add,
    vec_is_zero,
    verify_lambda_breve,
)
from orehom.bar import BarComplex
from orehom.complexes import homology_dims
from orehom.fields import make_field
from orehom.linalg import ColMap, EchelonSet, sparse, sparse_rank
from orehom.small_complex import build_cs
from orehom.spec_io import EXAMPLE_NAMES, build_example, cyclic_group, dihedral_group, parse_spec

from conftest import get_context

Q = make_field("rationals")


def test_group_algebra_c2():
    K = group_algebra(["e", "g"], [["e", "g"], ["g", "e"]], Q)
    assert K.dim == 2
    g = K.basis_vector(1)
    assert K.mul_vec(g, g) == K.basis_vector(0)


def test_group_algebra_d6_associative():
    labels, table = dihedral_group(3)
    K = group_algebra(labels, table, Q)  # associativity checked over all triples
    assert K.dim == 6
    # hg = g^{-1} h
    h = K.basis_vector(labels.index("h"))
    g = K.basis_vector(labels.index("g"))
    g2 = K.basis_vector(labels.index("g2"))
    assert K.mul_vec(h, g) == K.mul_vec(g2, h)


def _dense_mul_vec(K, u, v):
    """u * v by the triple loop over the dense structure constants."""
    out = [K.field.zero] * K.dim
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                for t, s in enumerate(K.structure_constants[i][j]):
                    out[t] = out[t] + a * b * s
    return out


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_mul_vec_matches_dense_structure_constants(name):
    K = get_context(name).mono.base
    field = K.field
    basis = [K.basis_vector(i) for i in range(K.dim)]
    mixed = [field.from_fraction(i % 3 - 1) + field.root() ** i for i in range(K.dim)]
    vecs = basis + [mixed, [field.from_fraction(2) * c for c in reversed(mixed)]]
    for u in vecs:
        for v in vecs:
            assert K.mul_vec(u, v) == _dense_mul_vec(K, u, v)


def test_group_algebra_bad_rows_rejected():
    with pytest.raises(AlgebraError, match="repeats"):
        group_algebra(["e", "g"], [["e", "e"], ["g", "e"]], Q)
    with pytest.raises(AlgebraError, match="identity"):
        group_algebra(
            ["a", "b", "c"],
            [["a", "c", "b"], ["c", "b", "a"], ["b", "a", "c"]],
            Q,
        )


def test_character_c2():
    K = group_algebra(["e", "g"], [["e", "g"], ["g", "e"]], Q)
    alpha = character_endomorphism(K, {"e": 1, "g": -1})
    assert alpha.map.cols == [{0: 1}, {1: -1}]


def test_character_dihedral_reflections():
    labels, table = dihedral_group(3)
    K = group_algebra(labels, table, Q)
    chi = {lab: (-1 if lab.endswith("h") else 1) for lab in labels}
    alpha = character_endomorphism(K, chi)
    for i, lab in enumerate(labels):
        expect = Fr(-1) if lab.endswith("h") else Fr(1)
        assert alpha.map.cols[i] == {i: expect}


def test_character_not_multiplicative_rejected():
    K = group_algebra(["e", "g"], [["e", "g"], ["g", "e"]], Q)
    with pytest.raises(AlgebraError, match="multiplicative"):
        character_endomorphism(K, {"e": 1, "g": 2})


def sweedler_mono():
    return get_context("sweedler").mono


def test_validate_monogenic_sweedler():
    mono = sweedler_mono()
    assert mono.n == 2
    assert all(vec_is_zero(v) for v in mono.lambdas)


def test_validate_monogenic_rejects_unfixed_coefficient():
    K = group_algebra(["e", "g"], [["e", "g"], ["g", "e"]], Q)
    alpha = character_endomorphism(K, {"e": 1, "g": -1})
    lam2 = [Q.zero, Q.from_fraction(-1)]  # f = x^2 - g, alpha(-g) = g != -g
    with pytest.raises(AlgebraError, match="alpha"):
        validate_monogenic(K, alpha, 2, [[Q.zero, Q.zero], lam2])


def test_validate_monogenic_rank1_fixture():
    mono = get_context("rank1:c4").mono
    # f = x^2 - (g^2 - 1): lam_2 = 1 - g^2
    lam2 = mono.f_coefficient(2)
    assert lam2[0] == 1 and lam2[2] == -1


def test_validate_monogenic_needs_degree_two():
    K = group_algebra(["e"], [["e"]], Q)
    alpha = character_endomorphism(K, {"e": 1})
    with pytest.raises(AlgebraError, match="n >= 2"):
        validate_monogenic(K, alpha, 1, [[Q.one]])


def test_divide_by_f_truncated():
    mono = get_context("trunc:3").mono  # f = x^3 over Q
    quot, rem = divide_by_f(mono, [[Q.zero], [Q.zero], [Q.one]])  # x^2
    assert not quot or all(vec_is_zero(v) for v in quot)
    assert rem == [[Q.zero], [Q.zero], [Q.one]]
    quot, rem = divide_by_f(mono, [[Q.zero]] * 4 + [[Q.one]][:0] + [[Q.one]])  # x^4
    assert [v for v in quot] == [[Q.zero], [Q.one]]
    assert all(vec_is_zero(v) for v in rem)


def test_divide_by_f_twisted_rank1():
    mono = get_context("rank1:c4").mono
    zero = [Q.zero] * 4
    one = list(mono.base.unit)
    quot, rem = divide_by_f(mono, [zero, zero, zero, one])  # x^3
    assert quot == [zero, one]
    # remainder (g^2 - 1) x
    g2_minus_1 = [Q.from_fraction(-1), Q.zero, Q.one, Q.zero]
    assert rem == [zero, g2_minus_1]


def test_divide_reconstruction_random():
    rng = random.Random(5)
    for name in ("sweedler", "taft:3", "rank1:c4"):
        mono = get_context(name).mono
        K = mono.base
        field = mono.field
        for _ in range(10):
            deg = rng.randint(0, 2 * mono.n)
            poly = [
                [field.from_fraction(rng.randint(-3, 3)) for _ in range(K.dim)]
                for _ in range(deg + 1)
            ]
            quot, rem = divide_by_f(mono, poly)
            # reconstruct quot*f + rem with the twisted product
            recon = [list(v) for v in rem] + [
                [field.zero] * K.dim for _ in range(len(poly) + mono.n)
            ]
            for e, qv in enumerate(quot):
                if vec_is_zero(qv):
                    continue
                for i in range(0, mono.n + 1):
                    lam = mono.f_coefficient(i)
                    term = K.mul_vec(qv, mono.alpha_apply(e, lam))
                    tgt = e + mono.n - i
                    recon[tgt] = [a + b for a, b in zip(recon[tgt], term)]
            for d in range(len(poly)):
                assert recon[d] == list(poly[d])
            for d in range(len(poly), len(recon)):
                assert vec_is_zero(recon[d])


def test_a_multiply_examples():
    sw = get_context("sweedler").mono
    g = sw.a_from_kvec(sw.base.basis_vector(1), 0)
    x = sw.a_from_kvec(sw.base.unit, 1)
    gx = g * x
    assert (gx * gx).is_zero()
    tr = get_context("trunc:3").mono
    x1 = tr.a_from_kvec(tr.base.unit, 1)
    x2 = tr.a_from_kvec(tr.base.unit, 2)
    assert (x1 * x2).is_zero()
    r1 = get_context("rank1:c4").mono
    xx = r1.a_from_kvec(r1.base.unit, 1)
    prod = xx * xx
    assert prod.coeffs[0] == [Q.from_fraction(-1), Q.zero, Q.one, Q.zero]
    assert vec_is_zero(prod.coeffs[1])


def test_a_multiply_associative_unital_exhaustive():
    for name in ("sweedler", "rank1:c4", "trunc:3"):
        mono = get_context(name).mono
        dim = mono.dim
        basis = []
        for i in range(dim):
            coords = [mono.field.zero] * dim
            coords[i] = mono.field.one
            basis.append(mono.a_from_coords(coords))
        one = mono.one_a()
        for a in basis:
            assert (one * a) == a and (a * one) == a
            for b in basis:
                ab = a * b
                for c in basis:
                    assert (ab * c) == (a * (b * c))


def test_twisted_commutators_rational_trivial():
    mono = get_context("trunc:3").mono
    M = regular_bimodule(mono)
    for j in (0, 1, 2):
        assert k_commutator_subspace(mono, j) == []


def test_twisted_commutators_sweedler():
    sw = get_context("sweedler").mono
    spans = k_commutator_subspace(sw, 1)
    assert sparse_rank(spans) == 2  # all of K
    assert k_commutator_subspace(sw, 2) == []


def test_check_collapse_examples():
    assert check_collapse(get_context("sweedler").mono, 6).holds
    assert not check_collapse(get_context("trunc:3").mono, 6).holds
    rep = check_collapse(get_context("dihedral:3").mono, 6)
    assert not rep.holds
    # the rotation part only reaches symmetric sums, so [K,K]_alpha has
    # codimension 1 in K
    assert rep.entries[1] == (False, 5)


def test_verify_lambda_breve():
    sw = get_context("sweedler").mono
    ok, _ = verify_lambda_breve(sw, sw.base.basis_vector(1))
    assert ok
    bad, reason = verify_lambda_breve(sw, sw.base.unit)
    assert not bad and "invertible" in reason
    t3 = get_context("taft:3").mono
    ok, _ = verify_lambda_breve(t3, t3.base.basis_vector(1))
    assert ok


def test_lambda_breve_implies_collapse():
    for name in ("sweedler", "taft:3", "rank1:c4", "rank1nc:c2xc4"):
        parsed = parse_spec(build_example(name))
        ok, _ = verify_lambda_breve(parsed.mono, parsed.lambda_breve)
        assert ok
        assert check_collapse(parsed.mono, 3 * parsed.mono.n).holds


def test_eigen_split():
    sw = get_context("sweedler")
    comps = eigen_split(sw.mono.base, sw.mono.alpha)
    assert comps[0][0] == Q.one and comps[0][1] == [0]
    assert comps[1][0] == Q.from_fraction(-1) and comps[1][1] == [1]
    tr = get_context("trunc:3")
    comps = eigen_split(tr.mono.base, tr.mono.alpha)
    assert len(comps) == 1 and comps[0][1] == [0]


def test_eigen_split_rejects_non_diagonal():
    from orehom.algebra import AlgebraEndomorphism

    labels, table = cyclic_group(3)
    F3 = make_field("cyclotomic", 3)
    K = group_algebra(labels, table, F3)
    # the swap g <-> g^2 is an algebra map but not diagonal
    alpha = AlgebraEndomorphism(K, ColMap(F3, 3, 3, [{0: F3.one}, {2: F3.one}, {1: F3.one}]))
    with pytest.raises(AlgebraError, match="generic path"):
        eigen_split(K, alpha)


def _alpha_order(mono):
    """The least p >= 1 with alpha^p = id, read off ``mono.twist``."""
    return next(p for p in range(1, 64) if mono.twist(p) == 0)


def test_commutator_alpha_period_compatibility():
    for name in ("sweedler", "taft:3", "rank1nc:c2xc4"):
        mono = get_context(name).mono
        v = _alpha_order(mono)
        M = regular_bimodule(mono)
        for j in (0, 1, 2):
            a = twisted_commutator_subspace(M, j)
            b = twisted_commutator_subspace(M, j + v)
            assert sparse_rank(a) == sparse_rank(b)


def _one_hot_commutators(M, j):
    """[M,K]_{alpha^j} spanning vectors for M = A, m_s alpha^j(lam_t) - lam_t m_s
    by twisted division products, with alpha^j composed afresh (the reference
    for ``twisted_commutator_subspace``)."""
    mono = M.mono
    K = mono.base
    field = mono.field
    power = ColMap.identity(field, K.dim)
    for _ in range(j):
        power = mono.alpha.map.compose(power)
    spans = []
    for s in range(M.dim):
        m = mono.a_from_terms({s: field.one})
        for t in range(K.dim):
            lam = mono.a_from_kvec(K.basis_vector(t))
            twisted = mono.a_from_kvec([power.cols[t].get(i, field.zero) for i in range(K.dim)])
            v = sparse(mono.a_coords(_division_product(m, twisted) - _division_product(lam, m)))
            if v:
                spans.append(v)
    return spans


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_column_commutators_match_one_hot_reference(name):
    mono, M = get_context(name).mono, get_context(name).M
    order = _alpha_order(mono)
    for j in range(2 * order + 1):
        assert mono.twist(j) == j % order
        assert twisted_commutator_subspace(M, j) == _one_hot_commutators(M, j)
        assert commutator_quotient(M, j) is commutator_quotient(M, j + order)


def _dual_numbers():
    """K = Q[e]/(e^2) with alpha(e) = 2e: no power of alpha is the identity."""
    doc = {
        "name": "dual-numbers",
        "field": {"kind": "rationals"},
        "base_algebra": {
            "type": "structure_constants",
            "labels": ["1", "e"],
            "constants": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
            "unit": ["1", "0"],
        },
        "endomorphism": {"type": "matrix", "matrix": [["1", "0"], ["0", "2"]]},
        "extension": {"n": 2, "lambdas": [["0", "0"], ["0", "0"]]},
    }
    return parse_spec(doc, max_degree=5)


def test_alpha_of_infinite_order_keeps_every_twist():
    parsed = _dual_numbers()
    mono, M = parsed.mono, parsed.bimodule
    assert [mono.twist(j) for j in range(12)] == list(range(12))
    for j in range(6):
        assert twisted_commutator_subspace(M, j) == _one_hot_commutators(M, j)
    assert len({id(commutator_quotient(M, j)) for j in range(6)}) == 6
    cs_dims = homology_dims(build_cs(mono, M, 6), 5)
    assert cs_dims == homology_dims(BarComplex(mono, M, 6).chain_complex(), 5)


def test_lambda_n_compatibility():
    # lam*lam_n - alpha^n(lam)*lam_n lies in [K,K]_{alpha^{mn}} for m <= 3
    for name in ("sweedler", "taft:3", "rank1:c4", "rank1nc:c2xc4", "dihedral:3"):
        mono = get_context(name).mono
        K = mono.base
        lam_n = mono.f_coefficient(mono.n)
        for m in range(4):
            ech = EchelonSet(mono.field)
            for vv in k_commutator_subspace(mono, m * mono.n):
                ech.add(vv)
            for t in range(K.dim):
                lam = K.basis_vector(t)
                val = [
                    a - b
                    for a, b in zip(
                        K.mul_vec(lam, lam_n),
                        K.mul_vec(mono.alpha_apply(mono.n, lam), lam_n),
                    )
                ]
                assert ech.contains(sparse(val))


def test_regular_bimodule_validates():
    mono = get_context("rank1:c4").mono
    M = regular_bimodule(mono)
    M._check()  # associativity, unitality, commuting actions, f-relations


# -- the multiplication table and the sparse columns against the dense path ----

_DUAL = []


def _table_context(name):
    """(mono, M) of a shipped fixture, of taft:4 (Q(zeta_4), n = 4) or of the
    dual numbers with alpha of infinite order."""
    if name == "dual-numbers":
        if not _DUAL:
            parsed = _dual_numbers()
            _DUAL.append((parsed.mono, parsed.bimodule))
        return _DUAL[0]
    ctx = get_context(name)
    return ctx.mono, ctx.M


TABLE_FIXTURES = EXAMPLE_NAMES + ("taft:4", "dual-numbers")


def _dense_alpha(mono, p, vec):
    """alpha^p of a dense K-vector by p applications of alpha's map."""
    out = sparse(vec)
    for _ in range(p):
        out = mono.alpha.map.apply(out)
    return [out.get(i, mono.field.zero) for i in range(mono.base.dim)]


def _division_product(a, b):
    """a * b by the twisted polynomial product reduced modulo f: the slow exact
    reference for the table."""
    mono = a.mono
    K = mono.base
    poly = [[mono.field.zero] * K.dim for _ in range(2 * mono.n - 1)]
    for i, u in enumerate(a.coeffs):
        for j, v in enumerate(b.coeffs):
            poly[i + j] = vec_add(poly[i + j], K.mul_vec(u, _dense_alpha(mono, i, v)))
    return AElement(mono, divide_by_f(mono, poly)[1])


def _draw_scalar(data, field):
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=field.degree, max_size=field.degree))
    return field.scalar(coeffs)


def _draw_element(data, mono):
    coords = [
        _draw_scalar(data, mono.field) if data.draw(st.booleans()) else mono.field.zero
        for _ in range(mono.dim)
    ]
    return mono.a_from_coords(coords)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_product_matches_twisted_division(data):
    mono, _ = _table_context(data.draw(st.sampled_from(TABLE_FIXTURES)))
    a, b = _draw_element(data, mono), _draw_element(data, mono)
    assert a * b == _division_product(a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_k_right_and_x_actions_match_twisted_division(data):
    mono, _ = _table_context(data.draw(st.sampled_from(TABLE_FIXTURES)))
    K = mono.base
    a = _draw_element(data, mono)
    kvec = [_draw_scalar(data, mono.field) for _ in range(K.dim)]
    twisted = [K.mul_vec(v, _dense_alpha(mono, j, kvec)) for j, v in enumerate(a.coeffs)]
    assert a.k_right(kvec) == AElement(mono, twisted)
    zero = [mono.field.zero] * K.dim
    shifted = [zero] + [_dense_alpha(mono, 1, v) for v in a.coeffs]
    assert a.x_left() == AElement(mono, divide_by_f(mono, shifted)[1])
    assert a.x_right() == AElement(mono, divide_by_f(mono, [zero] + a.coeffs)[1])


@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_table_matches_twisted_division_on_basis_pairs(name):
    mono, _ = _table_context(name)
    one = mono.field.one
    basis = [mono.a_from_terms({i: one}) for i in range(mono.dim)]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert mono.a_from_terms(mono.mul_table()[i][j]) == _division_product(a, b)


@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_sparse_alpha_columns_match_dense_powers(name):
    mono, _ = _table_context(name)
    K = mono.base
    ident = ColMap.identity(mono.field, K.dim)
    power = ident
    for p in range(2 * mono.n + 3):
        for kappa in range(K.dim):
            e = K.basis_vector(kappa)
            assert mono.alpha_apply(p, e) == _dense_alpha(mono, p, e)
        assert (mono.alpha_columns(p) is None) == (power == ident)
        power = mono.alpha.map.compose(power)


@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_sparse_action_columns_match_dense_matrices(name):
    # M = A: each action is a product in A, computed by twisted division
    mono, M = _table_context(name)
    K = mono.base
    field = mono.field
    rng = random.Random(7)
    a = mono.a_from_coords([field.from_fraction(rng.randint(-2, 2)) for _ in range(mono.dim)])
    x = mono.a_from_terms(dict(mono.x_items()))

    def terms(elem):
        return sparse(mono.a_coords(elem))

    for s in range(M.dim):
        one_hot = {s: field.one}
        m = mono.a_from_terms(one_hot)
        for t in range(K.dim):
            lam = K.basis_vector(t)
            assert M.k_terms("left", lam, one_hot) == terms(_division_product(mono.a_from_kvec(lam), m))
            assert M.k_terms("right", lam, one_hot) == terms(_division_product(m, mono.a_from_kvec(lam)))
        lv, rv = m, m
        for p in range(2 * mono.n + 1):
            assert M.x_terms("left", p, one_hot) == terms(lv)
            assert M.x_terms("right", p, one_hot) == terms(rv)
            lv, rv = _division_product(x, lv), _division_product(rv, x)
        assert M.a_terms("left", a, one_hot) == terms(_division_product(a, m))
        assert M.a_terms("right", a, one_hot) == terms(_division_product(m, a))


@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_regular_bimodule_matches_division_products(name):
    mono, _ = _table_context(name)
    M = regular_bimodule(mono)
    one = mono.field.one
    x = mono.a_from_terms(dict(mono.x_items()))
    for j in range(mono.dim):
        e = mono.a_from_terms({j: one})
        assert M.left_x.cols[j] == sparse(mono.a_coords(_division_product(x, e)))
        assert M.right_x.cols[j] == sparse(mono.a_coords(_division_product(e, x)))
        for t in range(mono.base.dim):
            lam = mono.a_from_kvec(mono.base.basis_vector(t))
            assert M.left_k[t].cols[j] == sparse(mono.a_coords(_division_product(lam, e)))
            assert M.right_k[t].cols[j] == sparse(mono.a_coords(_division_product(e, lam)))


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
    sc = [[[Q.one if index[lab] == k else Q.zero for k in range(5)] for lab in row] for row in rows]
    with pytest.raises(AlgebraError) as by_vectors:
        BaseAlgebra(Q, labels, sc, [Q.one] + [Q.zero] * 4)
    assert str(by_table.value) == str(by_vectors.value)
