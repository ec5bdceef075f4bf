"""Exact ground fields: the rationals and the cyclotomic fields Q(zeta_d).

A scalar whose value is rational is a Python ``int`` when it is integral
and a ``fractions.Fraction`` only when it is not, in every field, because
``int`` arithmetic runs in C while every ``Fraction`` operation is Python
code with a gcd.  Most entries of the matrices over Q(zeta_d) are 0, +-1
or small integers, so they never leave C.  Only an irrational scalar of
Q(zeta_d) is a ``CycScalar``: a residue polynomial in zeta_d modulo the
d-th cyclotomic polynomial Phi_d, stored as phi(d) = deg(Phi_d) integer
numerators over one positive denominator, in lowest terms, with a nonzero
coefficient past the first.  Every arithmetic result keeps this form
(``_scalar`` builds each one that could leave it), so each value has one
representation and equality, hashing and dict lookup agree across them.  No floating
point and no complex embeddings are used anywhere: every computation
downstream of this module is exact, and the roots of unity needed by
character twists are elements of these fields.

For d = 1, 2 the residue ring collapses to Q itself and scalars are plain
rationals.  Generic code never needs to know which representation it is
handling: all of them support ``+ - * ** ==`` and truthiness ("nonzero"),
which is all the linear algebra requires.  Division is the one exception,
because ``int / int`` is a float: code outside this module takes ``1 / x``
as ``reciprocal(x)``.  A ``CycScalar`` inverse is computed once per field
and value, and Phi_d once per order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, neg, sub


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_trim(out)


def _poly_sub(p, q):
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] -= b
    return _poly_trim(out)


def _poly_divmod(p, q):
    """Exact division in Q[x]; q must be nonzero."""
    p = list(p)
    dq = len(q) - 1
    lead = q[-1]
    quot = [Fraction(0)] * max(len(p) - dq, 0)
    while len(p) - 1 >= dq and _poly_trim(p):
        shift = len(p) - 1 - dq
        c = p[-1] / lead
        quot[shift] = c
        for i, b in enumerate(q):
            p[shift + i] -= c * b
        _poly_trim(p)
    return _poly_trim(quot), p


def cyclotomic_polynomial(d):
    """Coefficients (ascending) of Phi_d, by exact division of x^d - 1: a new
    list of the coefficients computed once per order."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return list(_phi_coefficients(d))


@cache
def _phi_coefficients(d):
    num = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for e in range(1, d):
        if d % e == 0:
            den = _poly_mul(den, _phi_coefficients(e))
    quot, rem = _poly_divmod(num, den)
    if rem:
        raise ValueError(f"Phi_{d}: division of x^{d}-1 left a remainder")
    return tuple(quot)


def _euler_phi(d):
    result = d
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _rational(q):
    """A Fraction as a rational scalar: its numerator when it is integral."""
    return q.numerator if q.denominator == 1 else q


def reciprocal(x):
    """1 / x for a nonzero scalar, exactly: a rational is an ``int`` whenever
    it is integral, and a cyclotomic scalar inverts itself."""
    kind = type(x)
    if kind is int:
        return x if x == 1 or x == -1 else Fraction(1, x)
    if kind is Fraction:
        n, d = x.numerator, x.denominator
        if n == 1 or n == -1:
            return n * d
        return Fraction(d, n)
    return x.inverse()


def is_unit(x):
    """x == 1 or x == -1, without lifting 1 into the field.  A ``CycScalar``
    is irrational, so it is never a unit of this kind."""
    kind = type(x)
    if kind is int:
        return x == 1 or x == -1
    if kind is Fraction:
        return x.denominator == 1 and abs(x.numerator) == 1
    return False


class Field:
    """Descriptor plus arithmetic context for Q or Q(zeta_d).

    Attributes:
        kind: "rationals" or "cyclotomic".
        order: d for cyclotomic fields (1 for the rationals).
        modulus: ascending integer coefficients of Phi_d (degree 1 polynomial for Q).
    """

    def __init__(self, kind, order, modulus):
        self.kind = kind
        self.order = order
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self.zero = 0
        self.one = 1
        if kind == "cyclotomic":
            self._reduction = self._power_reduction_table()
            self._tail = (0,) * (self.degree - 1)
            # CycScalar.inverse per (num, den): elimination inverts the
            # same few pivots over and over
            self._inverses = {}

    def _power_reduction_table(self):
        # x^(degree + t) mod Phi_d for t = 0 .. degree - 2, used by mul, as
        # its nonzero (index, integer coefficient) pairs: Phi_d is monic
        # with integer coefficients, so the table is integral.
        deg = self.degree
        cur = [-c for c in self.modulus[:deg]]  # x^deg = -(lower part)
        table = [cur]
        for _ in range(deg - 2):
            top = cur[deg - 1]
            cur = [0] + cur[: deg - 1]
            if top:
                for i in range(deg):
                    cur[i] += top * table[0][i]
            table.append(cur)
        return [[(i, c) for i, c in enumerate(row) if c] for row in table]

    # -- scalar constructors -------------------------------------------------

    def from_fraction(self, q):
        """The rational q as a scalar of any field: an ``int`` when integral."""
        return q if type(q) is int else _rational(Fraction(q))

    def _cyclotomic(self, coeffs):
        """The scalar with at most ``degree`` Fraction coefficients."""
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        return _scalar(self, tuple(num) + (0,) * (self.degree - len(num)), den)

    def scalar(self, coefficients):
        """Scalar from a coefficient list (length 1 for the rationals)."""
        coeffs = [Fraction(c) for c in coefficients]
        if self.kind == "rationals":
            if len(coeffs) != 1:
                raise ValueError("rational scalars have a single coefficient")
            return _rational(coeffs[0])
        if len(coeffs) > self.degree:
            raise ValueError(f"coefficient list longer than degree {self.degree}")
        return self._cyclotomic(coeffs)

    def root(self):
        """zeta_d: the distinguished primitive d-th root of unity."""
        if self.kind == "rationals":
            return 1 if self.order == 1 else -1
        return CycScalar(self, (0, 1) + self._tail[1:])

    def coerce(self, value):
        if isinstance(value, CycScalar):
            if value.field is not self:
                raise ValueError("scalar from a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_fraction(value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def coefficients(self, scalar):
        """Coefficient list of a scalar (inverse of ``scalar``): ``degree``
        Fractions, a rational padded with zeros."""
        scalar = self.coerce(scalar)
        if isinstance(scalar, CycScalar):
            return list(scalar.coeffs)
        return [Fraction(scalar)] + [Fraction(0)] * (self.degree - 1)

    def __repr__(self):
        if self.kind == "rationals":
            return "Field(Q)"
        return f"Field(Q(zeta_{self.order}))"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.order == other.order
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.order, self.modulus))


def _scalar(field, num, den=1):
    """The scalar sum_i num[i] * zeta^i / den (ints, den > 0) in canonical
    form: its rational value when no coefficient past the first is nonzero,
    else a CycScalar in lowest terms.  Every arithmetic result that may be
    rational or not in lowest terms is built here."""
    if num[1:] == field._tail:
        return num[0] if den == 1 else _rational(Fraction(num[0], den))
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([a // g for a in num])
            den //= g
    return CycScalar(field, num, den)


def _combine(field, op, a, da, b, db):
    """a / da op b / db for op ``add`` or ``sub`` on numerator tuples."""
    if da == db:
        return _scalar(field, tuple(map(op, a, b)), da)
    return _scalar(field, tuple(map(op, [x * db for x in a], [y * da for y in b])), da * db)


class CycScalar:
    """An irrational element of Q(zeta_d): sum_i num[i] * zeta_d^i / den.

    ``num`` is a tuple of phi(d) ints with a nonzero entry past the first
    and ``den`` a positive int with gcd(den, *num) == 1, so two scalars are
    equal exactly when their numerators and denominators are, and a
    CycScalar never equals a rational.  ``coeffs`` is the same scalar as a
    read-only tuple of Fractions.  A result that may be rational or not in
    lowest terms is built by ``_scalar``; negation, adding an int and
    ``root`` keep the form and build one directly, and a factor of 1 or -1
    gives the scalar itself or its negation.  ``_lift`` builds a
    rational one that lives only inside an operation.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den=1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    def _lift(self, other):
        """``other`` as a CycScalar of this field (a temporary one for an
        int or Fraction), or None."""
        if isinstance(other, CycScalar):
            return other if other.field is self.field or other.field == self.field else None
        if isinstance(other, (int, Fraction)):
            return CycScalar(self.field, (other.numerator,) + self.field._tail, other.denominator)
        return None

    def _scaled(self, c, d):
        """self * c / d for ints c and d > 0; a unit factor +-1 builds no
        numerator, since a scalar is never edited."""
        if not c:
            return 0
        if d == 1:
            if c == 1:
                return self
            if c == -1:
                return -self
        return _scalar(self.field, tuple([c * a for a in self.num]), self.den * d)

    def __add__(self, other):
        if type(other) is int:
            # the tail is untouched, so the result stays irrational and reduced
            num, den = self.num, self.den
            return CycScalar(self.field, (num[0] + other * den,) + num[1:], den)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _combine(self.field, add, self.num, self.den, o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            num, den = self.num, self.den
            return CycScalar(self.field, (num[0] - other * den,) + num[1:], den)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _combine(self.field, sub, self.num, self.den, o.num, o.den)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycScalar(self.field, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        if type(other) is int:
            return self._scaled(other, 1)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        field = self.field
        a, b = self.num, o.num
        # a rational factor (a lifted int or Fraction) only scales self
        if b[1:] == field._tail:
            return self._scaled(b[0], o.den)
        deg = field.degree
        prod = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = prod[:deg]
        for c, row in zip(prod[deg:], field._reduction):
            if c:
                for i, r in row:
                    out[i] += c * r
        return _scalar(field, tuple(out), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse, computed once per field and value."""
        inverses = self.field._inverses
        key = (self.num, self.den)
        inv = inverses.get(key)
        if inv is None:
            inv = inverses[key] = self._euclid_inverse()
        return inv

    def _euclid_inverse(self):
        # Invariant: r_i = s_i * num (mod Phi); Phi irreducible over Q,
        # so the gcd is a nonzero constant, and 1/self = den * s / r.
        field = self.field
        r0, r1 = [Fraction(c) for c in field.modulus], _poly_trim([Fraction(a) for a in self.num])
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if not r1:
            raise ValueError("modulus is not coprime to a nonzero residue")
        scale = self.den / r1[0]
        return field._cyclotomic([a * scale for a in s1])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * reciprocal(other)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return other * self.inverse()
        return NotImplemented

    def __pow__(self, exponent):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self):
        # irrational, so never zero (zero is the int 0); the method stays so
        # that perfbench/tracer.py can count zero tests
        return True

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return False
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        d = self.field.order
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z{d}")
            else:
                terms.append(f"{c}*z{d}^{i}")
        return " + ".join(terms)


def make_field(kind, d=1):
    """Build a field descriptor.

    ``make_field("rationals")`` is Q.  ``make_field("cyclotomic", d)`` is
    Q(zeta_d); for d = 1, 2 the cyclotomic polynomial has degree 1 and the
    result degenerates to Q (scalars are plain rationals).
    """
    if kind == "rationals":
        return Field("rationals", 1, (-1, 1))
    if kind != "cyclotomic":
        raise ValueError(f"unknown field kind {kind!r}")
    if d < 1:
        raise ValueError("cyclotomic order must be >= 1")
    modulus = cyclotomic_polynomial(d)
    if len(modulus) - 1 != _euler_phi(d):
        raise ValueError(f"Phi_{d} has degree {len(modulus) - 1}, not phi({d})")
    if modulus[-1] != 1 or any(c.denominator != 1 for c in modulus):
        raise ValueError(f"Phi_{d} is not monic with integer coefficients")
    modulus = tuple(c.numerator for c in modulus)
    return Field("rationals" if len(modulus) == 2 else "cyclotomic", d, modulus)
