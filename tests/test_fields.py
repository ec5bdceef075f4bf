from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orehom import fields
from orehom.fields import CycScalar, cyclotomic_polynomial, make_field, reciprocal
from orehom.spec_io import build_example, parse_spec


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_divmod(p, q):
    p = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(p) >= len(q) and any(p):
        while p and p[-1] == 0:
            p.pop()
        if len(p) < len(q):
            break
        c = p[-1] / q[-1]
        quot[len(p) - len(q)] = c
        for i, b in enumerate(q):
            p[len(p) - len(q) + i] -= c * b
    return quot, p


def test_phi_1_is_x_minus_1():
    assert cyclotomic_polynomial(1) == [Fraction(-1), Fraction(1)]


def test_phi_4_is_x2_plus_1():
    assert cyclotomic_polynomial(4) == [Fraction(1), Fraction(0), Fraction(1)]


def test_phi_6_by_independent_division():
    # divide x^6 - 1 by Phi_1*Phi_2*Phi_3 with a local polynomial division
    num = [Fraction(-1)] + [Fraction(0)] * 5 + [Fraction(1)]
    den = [Fraction(1)]
    for e in (1, 2, 3):
        den = poly_mul(den, cyclotomic_polynomial(e))
    quot, rem = poly_divmod(num, den)
    assert not any(rem)
    while quot and quot[-1] == 0:
        quot.pop()
    assert cyclotomic_polynomial(6) == quot
    assert quot == [Fraction(1), Fraction(-1), Fraction(1)]


def test_phi_d_is_computed_once_per_order_and_each_caller_gets_its_own_list():
    fields._phi_coefficients.cache_clear()
    parse_spec(build_example("taft:3"))  # encodes and decodes over Q(zeta_3)
    assert fields._phi_coefficients.cache_info().misses == 2  # Phi_3, and Phi_1 inside it
    mine = cyclotomic_polynomial(12)
    mine[0] = Fraction(7)
    mine.append(Fraction(5))
    assert cyclotomic_polynomial(12) == [Fraction(1), Fraction(0), Fraction(-1), Fraction(0), Fraction(1)]
    assert make_field("cyclotomic", 12).modulus == (1, 0, -1, 0, 1)


def test_make_field_degenerate_orders():
    f1 = make_field("cyclotomic", 1)
    assert f1.kind == "rationals" and len(f1.modulus) == 2
    assert f1.root() == 1
    f2 = make_field("cyclotomic", 2)
    assert f2.kind == "rationals"
    assert f2.root() == -1


def test_root_satisfies_minimal_polynomial():
    for d in (3, 4, 5, 6, 8, 12):
        F = make_field("cyclotomic", d)
        z = F.root()
        assert z ** d == F.one
        acc = F.zero
        for i, c in enumerate(F.modulus):
            acc = acc + F.from_fraction(c) * z ** i
        assert not acc
        for j in range(1, d):
            assert z ** j != F.one


scalar_coeffs = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=2, max_size=2
)


@settings(max_examples=60, deadline=None)
@given(a=scalar_coeffs, b=scalar_coeffs)
def test_field_division_roundtrip(a, b):
    F = make_field("cyclotomic", 4)
    x = F.scalar(a)
    y = F.scalar(b)
    if x:
        assert (x * y) * reciprocal(x) == y
        assert x * reciprocal(x) == F.one


@settings(max_examples=60, deadline=None)
@given(a=scalar_coeffs, b=scalar_coeffs, c=scalar_coeffs)
def test_field_ring_axioms(a, b, c):
    F = make_field("cyclotomic", 3)
    x, y, z = F.scalar(a), F.scalar(b), F.scalar(c)
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == F.zero


def test_scalar_coercion_and_repr():
    F = make_field("cyclotomic", 4)
    z = F.root()
    assert 2 * z - z - z == F.zero
    assert (1 + z) - z == F.one
    assert z * reciprocal(2) * 2 == z
    assert F.coefficients(F.scalar(["1/2", 3])) == [Fraction(1, 2), Fraction(3)]


def test_a_cyclotomic_scalar_divides_only_through_reciprocal():
    z = make_field("cyclotomic", 4).root()
    with pytest.raises(TypeError):
        z / 2
    with pytest.raises(TypeError):
        2 / z
    with pytest.raises(ValueError, match="reciprocal"):
        z ** -1
    assert z ** 0 == 1 and z ** 2 == -1


def test_bad_field_inputs():
    with pytest.raises(ValueError):
        make_field("cyclotomic", 0)
    with pytest.raises(ValueError):
        make_field("reals")


def _reduced_product(F, a, b):
    """a * b as coefficient lists: the plain polynomial product, divided by Phi_d."""
    _, rem = poly_divmod(poly_mul(a, b), list(F.modulus))
    return (rem + [Fraction(0)] * F.degree)[:F.degree]


@settings(max_examples=80, deadline=None)
@given(
    d=st.sampled_from([3, 4, 8]),
    q=st.fractions(min_value=-9, max_value=9, max_denominator=7),
    coeffs=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=4, max_size=4),
    rational_left=st.booleans(),
)
def test_product_with_a_rational_factor(d, q, coeffs, rational_left):
    F = make_field("cyclotomic", d)
    r = [q] + [Fraction(0)] * (F.degree - 1)
    c = coeffs[:F.degree]
    a, b = (r, c) if rational_left else (c, r)
    prod = F.scalar(a) * F.scalar(b)
    assert F.coefficients(prod) == _reduced_product(F, a, b)
    assert all(isinstance(x, Fraction) for x in F.coefficients(prod))


def test_rational_scalars_are_ints_when_integral():
    Q = make_field("rationals")
    assert type(Q.zero) is int and type(Q.one) is int
    assert type(Q.from_fraction(Fraction(6, 3))) is int
    assert type(Q.scalar(["4/2"])) is int
    assert Q.scalar(["1/2"]) == Fraction(1, 2)
    assert make_field("cyclotomic", 2).root() == -1
    assert Q.coefficients(3) == [Fraction(3)]


def assert_canonical(x):
    """A rational value is an int or a Fraction; a CycScalar is num / den in
    lowest terms with den > 0, ints throughout, and a nonzero coefficient
    past the first."""
    if type(x) is not CycScalar:
        assert type(x) in (int, Fraction)
        return
    assert type(x.den) is int and all(type(a) is int for a in x.num)
    assert len(x.num) == x.field.degree
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert any(x.num[1:])


def ref_add(a, b):
    return [u + v for u, v in zip(a, b)]


def ref_scale(q, a):
    return [q * u for u in a]


def ref_const(F, q):
    return [Fraction(q)] + [Fraction(0)] * (F.degree - 1)


def _div(u, v):
    """u / v for scalars, through ``reciprocal`` as in the package."""
    return u * reciprocal(v)


reference_coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
rational_operand = st.one_of(st.integers(-9, 9), reference_coeff)


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([3, 4, 5, 8]), data=st.data())
def test_cyclotomic_scalars_match_a_fraction_reference(d, data):
    """Every operation agrees with tuple-of-Fraction arithmetic modulo Phi_d
    and returns the canonical integer form."""
    F = make_field("cyclotomic", d)
    coeffs = st.lists(reference_coeff, min_size=F.degree, max_size=F.degree)
    a = data.draw(coeffs)
    b = data.draw(st.one_of(st.just(list(a)), coeffs))
    q = data.draw(rational_operand)
    x, y = F.scalar(a), F.scalar(b)
    neg_a = ref_scale(-1, a)
    cases = {
        "x": (x, a),
        "x + y": (x + y, ref_add(a, b)),
        "x - y": (x - y, ref_add(a, ref_scale(-1, b))),
        "x * y": (x * y, _reduced_product(F, a, b)),
        "-x": (-x, neg_a),
        "x + q": (x + q, ref_add(a, ref_const(F, q))),
        "q + x": (q + x, ref_add(a, ref_const(F, q))),
        "x - q": (x - q, ref_add(a, ref_const(F, -q))),
        "q - x": (q - x, ref_add(neg_a, ref_const(F, q))),
        "x * q": (x * q, ref_scale(q, a)),
        "q * x": (q * x, ref_scale(q, a)),
        "x ** 3": (x ** 3, _reduced_product(F, _reduced_product(F, a, a), a)),
    }
    if q:
        cases["x / q"] = (_div(x, q), ref_scale(1 / Fraction(q), a))
    for name, (got, want) in cases.items():
        assert_canonical(got)
        assert F.coefficients(got) == want, name
        assert all(isinstance(c, Fraction) for c in F.coefficients(got))
    one = ref_const(F, 1)
    if y:
        inv = reciprocal(y)
        assert_canonical(inv)
        assert _reduced_product(F, b, F.coefficients(inv)) == one
        quo = _div(x, y)
        assert_canonical(quo)
        assert _reduced_product(F, F.coefficients(quo), b) == a
        rquo = _div(q, y)
        assert_canonical(rquo)
        assert _reduced_product(F, F.coefficients(rquo), b) == ref_const(F, q)
    else:
        with pytest.raises(ZeroDivisionError):
            reciprocal(y)
    # equality is equality of coefficients, and equal scalars hash equally
    assert (x == y) == (a == b)
    assert (x != y) == (a != b)
    if x == y:
        assert hash(x) == hash(y)
    assert (x == q) == (a == ref_const(F, q))
    assert bool(x) == any(a)


@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_rational_values_of_a_cyclotomic_field_are_ints_and_fractions(d):
    F = make_field("cyclotomic", d)
    assert type(F.zero) is int and type(F.one) is int
    assert type(F.from_fraction(Fraction(6, 3))) is int
    assert type(F.scalar(["4/2"])) is int
    assert type(F.scalar(["1/2", 0])) is Fraction
    assert type(F.coerce(Fraction(3, 1))) is int
    assert type(F.root()) is CycScalar
    assert F.coefficients(2) == [Fraction(2)] + [Fraction(0)] * (F.degree - 1)


def test_irrational_operands_with_a_rational_result():
    F4, F3, F8 = (make_field("cyclotomic", d) for d in (4, 3, 8))
    z4, z3, z8 = F4.root(), F3.root(), F8.root()
    results = {
        "zeta_4 * zeta_4": (z4 * z4, -1),
        "zeta_3 + zeta_3^2": (z3 + z3 * z3, -1),
        "zeta_8^4": (z8 ** 4, -1),
        "zeta_8 * zeta_8^7": (z8 * z8 ** 7, 1),
        "(1 + zeta_4) + (2 - zeta_4)": ((1 + z4) + (2 - z4), 3),
        "(1/2 + zeta_4/3) - zeta_4/3": (F4.scalar(["1/2", "1/3"]) - F4.scalar([0, "1/3"]), Fraction(1, 2)),
        "2 zeta_4 / zeta_4": ((2 * z4) * reciprocal(z4), 2),
        "zeta_4 * 0": (z4 * 0, 0),
        "0 * zeta_4": (0 * z4, 0),
        "zeta_4 * Fraction(0)": (z4 * Fraction(0), 0),
    }
    for name, (got, want) in results.items():
        assert got == want, name
        assert type(got) is type(want), name


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([3, 4, 5, 8]), data=st.data())
def test_difference_with_itself_is_the_int_zero(d, data):
    F = make_field("cyclotomic", d)
    x = F.scalar(data.draw(st.lists(reference_coeff, min_size=F.degree, max_size=F.degree)))
    if type(x) is not CycScalar:
        x = x + F.root()
    assert type(x - x) is int and x - x == 0
    assert type(x + (-x)) is int and x + (-x) == 0


@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_a_unit_factor_returns_the_scalar_or_its_negation(d):
    F = make_field("cyclotomic", d)
    for z in (F.root(), F.scalar(["1/2", "-2/3"])):
        assert z * 1 is z and 1 * z is z
        assert z * -1 == -1 * z == -z
        assert F.coefficients(z * -1) == [-c for c in F.coefficients(z)]
        assert_canonical(z * -1)
        assert_canonical(-1 * z)
        assert z * 0 == 0 and type(z * 0) is int
        assert 0 * z == 0 and type(0 * z) is int


def test_dict_lookups_across_representations():
    F = make_field("cyclotomic", 4)
    z = F.root()
    table = {F.scalar(["2", "0"]): "two", F.scalar(["1/2"]): "half", z: "zeta"}
    assert table[2] == "two"
    assert table[Fraction(1, 2)] == "half"
    assert table[-2 * z * z] == "two"
    assert table[F.scalar([0, 1])] == "zeta"
    assert 3 not in table and z * z not in table


@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_cached_inverse_equals_a_fresh_one(d):
    F = make_field("cyclotomic", d)
    for coeffs in (["1/2", 3], [0, 1], ["-2", "1/3", "5"][:F.degree], [1, 1, 0, -1][:F.degree]):
        x = F.scalar(coeffs)
        inv = x.inverse()
        assert F.scalar(coeffs).inverse() is inv
        fresh = make_field("cyclotomic", d).scalar(coeffs).inverse()
        assert F.coefficients(inv) == fresh.field.coefficients(fresh)
        assert x * inv == 1 and type(x * inv) is int
        assert reciprocal(x) is inv


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
               "inverse", "__pow__")


@pytest.mark.parametrize("argv", [
    ["hh", "--spec", "taft:3", "--max-degree", "4", "--oracle", "--closed-form", "--basis"],
    ["hc", "--spec", "rank1nc:c2xc4", "--max-degree", "3", "--oracle", "--closed-form"],
    ["verify", "--spec", "taft:3", "--max-degree", "3"],
])
def test_no_rational_cyclotomic_scalar_survives_on_the_fixtures(monkeypatch, capsys, argv):
    from orehom.cli import main

    seen = []

    def checked(fn):
        def wrapper(*args):
            out = fn(*args)
            if type(out) is CycScalar:
                assert_canonical(out)
                seen.append(1)
            return out
        return wrapper

    for name in _ARITHMETIC:
        monkeypatch.setattr(CycScalar, name, checked(CycScalar.__dict__[name]))
    assert main(argv) == 0
    capsys.readouterr()
    assert seen
