"""Exact ground fields: the rationals and the cyclotomic fields Q(zeta_d).

A cyclotomic scalar is a residue polynomial in zeta_d modulo the d-th
cyclotomic polynomial Phi_d, stored as a tuple of Fractions of length
phi(d) = deg(Phi_d).  No floating point and no complex embeddings are used
anywhere: every computation downstream of this module is exact, and the
roots of unity needed by character twists are elements of these fields.

For d = 1, 2 the residue ring collapses to Q itself and scalars are plain
``fractions.Fraction`` objects.  Generic code never needs to know which
representation it is handling: both support ``+ - * / ** ==`` and
truthiness ("nonzero"), which is all the linear algebra requires.
"""

from __future__ import annotations

from fractions import Fraction


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
    """Coefficients (ascending) of Phi_d, by exact division of x^d - 1."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    num = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for e in range(1, d):
        if d % e == 0:
            den = _poly_mul(den, cyclotomic_polynomial(e))
    quot, rem = _poly_divmod(num, den)
    if rem:
        raise ValueError(f"Phi_{d}: division of x^{d}-1 left a remainder")
    return quot


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


class Field:
    """Descriptor plus arithmetic context for Q or Q(zeta_d).

    Attributes:
        kind: "rationals" or "cyclotomic".
        order: d for cyclotomic fields (1 for the rationals).
        modulus: ascending coefficients of Phi_d (degree 1 polynomial for Q).
    """

    def __init__(self, kind, order, modulus):
        self.kind = kind
        self.order = order
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        self.zero = Fraction(0) if kind == "rationals" else None
        self.one = Fraction(1) if kind == "rationals" else None
        if kind == "cyclotomic":
            self._reduction = self._power_reduction_table()
            self.zero = CycScalar(self, (Fraction(0),) * self.degree)
            one = [Fraction(0)] * self.degree
            one[0] = Fraction(1)
            self.one = CycScalar(self, tuple(one))

    def _power_reduction_table(self):
        # x^(degree + t) mod Phi_d for t = 0 .. degree - 2, used by mul.
        deg = self.degree
        table = []
        cur = [-c for c in self.modulus[:deg]]  # x^deg = -(lower part)
        table.append(tuple(cur))
        for _ in range(deg - 2):
            nxt = [Fraction(0)] + cur[: deg - 1]
            top = cur[deg - 1]
            if top:
                for i in range(deg):
                    nxt[i] += top * table[0][i]
            cur = nxt
            table.append(tuple(cur))
        return table

    # -- scalar constructors -------------------------------------------------

    def from_fraction(self, q):
        q = Fraction(q)
        if self.kind == "rationals":
            return q
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = q
        return CycScalar(self, tuple(coeffs))

    def from_int(self, m):
        return self.from_fraction(Fraction(m))

    def scalar(self, coefficients):
        """Scalar from a coefficient list (length 1 for the rationals)."""
        coeffs = [Fraction(c) for c in coefficients]
        if self.kind == "rationals":
            if len(coeffs) != 1:
                raise ValueError("rational scalars have a single coefficient")
            return coeffs[0]
        if len(coeffs) > self.degree:
            raise ValueError(f"coefficient list longer than degree {self.degree}")
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return CycScalar(self, tuple(coeffs))

    def root(self):
        """zeta_d: the distinguished primitive d-th root of unity."""
        if self.kind == "rationals":
            return Fraction(1) if self.order == 1 else Fraction(-1)
        coeffs = [Fraction(0)] * self.degree
        coeffs[1] = Fraction(1)
        return CycScalar(self, tuple(coeffs))

    def coerce(self, value):
        if isinstance(value, CycScalar):
            if value.field is not self:
                raise ValueError("scalar from a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_fraction(value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def coefficients(self, scalar):
        """Coefficient list of a scalar (inverse of ``scalar``)."""
        if self.kind == "rationals":
            return [Fraction(scalar)]
        return list(self.coerce(scalar).coeffs)

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


class CycScalar:
    """Element of Q(zeta_d): residue polynomial with Fraction coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _lift(self, other):
        if isinstance(other, CycScalar):
            return other if other.field is self.field or other.field == self.field else None
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CycScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CycScalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycScalar(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        # a rational factor (no coefficient past the first) only scales the other
        if not any(b[1:]):
            c = b[0]
            return CycScalar(self.field, tuple(c * x for x in a))
        if not any(a[1:]):
            c = a[0]
            return CycScalar(self.field, tuple(c * x for x in b))
        deg = self.field.degree
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
        out = prod[:deg]
        red = self.field._reduction
        for t in range(deg, 2 * deg - 1):
            c = prod[t]
            if c:
                row = red[t - deg]
                for i in range(deg):
                    if row[i]:
                        out[i] += c * row[i]
        return CycScalar(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        # Invariant: r_i = s_i * self (mod Phi); Phi irreducible over Q,
        # so the gcd is a nonzero constant.
        r0, r1 = list(self.field.modulus), _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if not r1:
            raise ValueError("modulus is not coprime to a nonzero residue")
        c = r1[0]
        inv = [a / c for a in s1]
        return CycScalar(self.field, tuple(inv + [Fraction(0)] * (self.field.degree - len(inv))))

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

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
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
        return " + ".join(terms) if terms else "0"


def make_field(kind, d=1):
    """Build a field descriptor.

    ``make_field("rationals")`` is Q.  ``make_field("cyclotomic", d)`` is
    Q(zeta_d); for d = 1, 2 the cyclotomic polynomial has degree 1 and the
    result degenerates to Q (scalars are plain Fractions).
    """
    if kind == "rationals":
        return Field("rationals", 1, (Fraction(-1), Fraction(1)))
    if kind != "cyclotomic":
        raise ValueError(f"unknown field kind {kind!r}")
    if d < 1:
        raise ValueError("cyclotomic order must be >= 1")
    modulus = cyclotomic_polynomial(d)
    if len(modulus) - 1 != _euler_phi(d):
        raise ValueError(f"Phi_{d} has degree {len(modulus) - 1}, not phi({d})")
    if modulus[-1] != 1 or any(c.denominator != 1 for c in modulus):
        raise ValueError(f"Phi_{d} is not monic with integer coefficients")
    if len(modulus) == 2:
        return Field("rationals", d, tuple(modulus))
    return Field("cyclotomic", d, tuple(modulus))
