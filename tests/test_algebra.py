import random
from fractions import Fraction as Fr

import pytest

from orehom.algebra import (
    AlgebraError,
    check_collapse,
    character_endomorphism,
    divide_by_f,
    eigen_split,
    group_algebra,
    k_commutator_subspace,
    regular_bimodule,
    twisted_commutator_subspace,
    validate_monogenic,
    vec_is_zero,
    verify_lambda_breve,
)
from orehom.fields import make_field
from orehom.linalg import Matrix, rank
from orehom.spec_io import build_example, cyclic_group, dihedral_group, parse_spec

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
    m = alpha.matrix
    assert m.entries[0][0] == 1 and m.entries[1][1] == -1
    assert not m.entries[0][1] and not m.entries[1][0]


def test_character_dihedral_reflections():
    labels, table = dihedral_group(3)
    K = group_algebra(labels, table, Q)
    chi = {lab: (-1 if lab.endswith("h") else 1) for lab in labels}
    alpha = character_endomorphism(K, chi)
    for i, lab in enumerate(labels):
        expect = Fr(-1) if lab.endswith("h") else Fr(1)
        assert alpha.matrix.entries[i][i] == expect


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
    lam2 = [Q.zero, Q.from_int(-1)]  # f = x^2 - g, alpha(-g) = g != -g
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
    g2_minus_1 = [Q.from_int(-1), Q.zero, Q.one, Q.zero]
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
                [field.from_int(rng.randint(-3, 3)) for _ in range(K.dim)]
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
    assert prod.coeffs[0] == [Q.from_int(-1), Q.zero, Q.one, Q.zero]
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
    assert rank(Matrix.from_rows(Q, spans)) == 2  # all of K
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
    assert comps[1][0] == Q.from_int(-1) and comps[1][1] == [1]
    tr = get_context("trunc:3")
    comps = eigen_split(tr.mono.base, tr.mono.alpha)
    assert len(comps) == 1 and comps[0][1] == [0]


def test_eigen_split_rejects_non_diagonal():
    from orehom.algebra import AlgebraEndomorphism

    labels, table = cyclic_group(3)
    F3 = make_field("cyclotomic", 3)
    K = group_algebra(labels, table, F3)
    # the cyclic shift g -> g^2 -> e is an algebra map but not diagonal
    m = Matrix.zeros(F3, 3, 3)
    m.entries[0][0] = F3.one
    m.entries[2][1] = F3.one
    m.entries[1][2] = F3.one
    alpha = AlgebraEndomorphism(K, m)
    with pytest.raises(AlgebraError, match="generic path"):
        eigen_split(K, alpha)


def test_commutator_alpha_period_compatibility():
    for name in ("sweedler", "taft:3", "rank1nc:c2xc4"):
        mono = get_context(name).mono
        # order of alpha as a matrix
        v = 1
        ident = Matrix.identity(mono.field, mono.base.dim)
        while mono.alpha_pow(v) != ident:
            v += 1
        M = regular_bimodule(mono)
        for j in (0, 1, 2):
            a = twisted_commutator_subspace(M, j)
            b = twisted_commutator_subspace(M, j + v)
            ra = rank(Matrix.from_rows(mono.field, a)) if a else 0
            rb = rank(Matrix.from_rows(mono.field, b)) if b else 0
            assert ra == rb


def test_lambda_n_compatibility():
    # lam*lam_n - alpha^n(lam)*lam_n lies in [K,K]_{alpha^{mn}} for m <= 3
    from orehom.linalg import EchelonSet

    for name in ("sweedler", "taft:3", "rank1:c4", "rank1nc:c2xc4", "dihedral:3"):
        mono = get_context(name).mono
        K = mono.base
        lam_n = mono.f_coefficient(mono.n)
        for m in range(4):
            ech = EchelonSet(mono.field, K.dim)
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
                assert not any(ech.reduce(val))


def test_regular_bimodule_validates():
    mono = get_context("rank1:c4").mono
    M = regular_bimodule(mono)
    M._check()  # associativity, unitality, commuting actions, f-relations
