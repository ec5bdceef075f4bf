"""The base algebra K, its endomorphism, and the extension A = K[x,a]/(f).

A is presented by the relations x*lam = alpha(lam)*x for lam in K together
with the monic polynomial f = x^n + lam_1 x^(n-1) + ... + lam_n, whose
coefficients must satisfy alpha(lam_i) = lam_i and lam_i*lam =
alpha^i(lam)*lam_i.  Elements of A are kept in the normal form
sum_j c_j x^j with c_j in K and j < n (the powers of x are a left K-basis).

Everything here is validated eagerly: group tables are checked for
associativity, characters for multiplicativity, extension data for the
coefficient conditions, so downstream homology code can assume the axioms.
"""

from __future__ import annotations

from .linalg import ColMap, add_term, sparse, sparse_rank, sub_terms, subquotient


class AlgebraError(ValueError):
    """Invalid algebraic input; the message names a witness."""


def _kvec(field, dim, items=()):
    v = [field.zero] * dim
    for i, c in items:
        v[i] = c
    return v


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]

def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]

def vec_scale(c, u):
    return [c * a for a in u]

def vec_is_zero(u):
    return all(not a for a in u)


class BaseAlgebra:
    """Finite-dimensional associative unital k-algebra via structure constants.

    ``structure_constants[i][j]`` is the coordinate vector of basis_i*basis_j;
    products read it as sparse ``(t, s)`` terms, built once, so a product of
    group elements touches one basis element.  ``group_table`` is set when
    the algebra is a group algebra (index Cayley table); several
    constructions (characters, quotient rewrites) need it.
    """

    def __init__(self, field, basis_labels, structure_constants, unit, group_table=None, check=True):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        self.structure_constants = structure_constants
        # (t, s) with s = None for s = 1, the only constant of a group algebra
        self._product_terms = [
            [[(t, None if c == 1 else c) for t, c in enumerate(vec) if c] for vec in row]
            for row in structure_constants
        ]
        self.unit = list(unit)
        self.group_table = group_table
        if check:
            self._check_unital()
            self._check_associative()

    def _check_unital(self):
        for i in range(self.dim):
            e = _kvec(self.field, self.dim, [(i, self.field.one)])
            if self.mul_vec(self.unit, e) != e or self.mul_vec(e, self.unit) != e:
                raise AlgebraError(f"unit fails on basis element {self.basis_labels[i]!r}")

    def _check_associative(self):
        dim = self.dim
        table = self.group_table
        if table is not None:
            # basis elements multiply to basis elements: compare indices
            for i in range(dim):
                for j in range(dim):
                    ij = table[i][j]
                    for t in range(dim):
                        if table[ij][t] != table[i][table[j][t]]:
                            self._associativity_fails(i, j, t)
            return
        for i in range(dim):
            ei = _kvec(self.field, dim, [(i, self.field.one)])
            for j in range(dim):
                ej = _kvec(self.field, dim, [(j, self.field.one)])
                ij = self.mul_vec(ei, ej)
                for t in range(dim):
                    et = _kvec(self.field, dim, [(t, self.field.one)])
                    left = self.mul_vec(ij, et)
                    right = self.mul_vec(ei, self.mul_vec(ej, et))
                    if left != right:
                        self._associativity_fails(i, j, t)

    def _associativity_fails(self, i, j, t):
        labels = self.basis_labels
        raise AlgebraError(f"associativity fails on triple ({labels[i]!r}, {labels[j]!r}, {labels[t]!r})")

    def mul_vec(self, u, v):
        out = [self.field.zero] * self.dim
        terms = self._product_terms
        v_terms = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if not a:
                continue
            row = terms[i]
            for j, b in v_terms:
                c = a * b
                for t, s in row[j]:
                    out[t] = out[t] + (c if s is None else c * s)
        return out

    def left_mult_map(self, u):
        """Left multiplication by u as a ColMap."""
        return ColMap(self.field, self.dim, self.dim,
                      [sparse(self.mul_vec(u, self.basis_vector(j))) for j in range(self.dim)])

    def right_mult_map(self, u):
        """Right multiplication by u as a ColMap."""
        return ColMap(self.field, self.dim, self.dim,
                      [sparse(self.mul_vec(self.basis_vector(j), u)) for j in range(self.dim)])

    def is_invertible(self, u):
        return sparse_rank(self.left_mult_map(u).cols) == self.dim

    def basis_vector(self, i):
        return _kvec(self.field, self.dim, [(i, self.field.one)])

    def __repr__(self):
        return f"BaseAlgebra(dim {self.dim} over {self.field})"


def group_algebra(labels, multiplication_table, field):
    """Group algebra k[G] from a Cayley table of labels.

    The table must be a Latin square with a two-sided identity; the
    resulting structure constants are re-verified for associativity (the
    check doubles as a check that the table really is a group).
    """
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise AlgebraError("duplicate labels in group table")
    dim = len(labels)
    if len(multiplication_table) != dim or any(len(r) != dim for r in multiplication_table):
        raise AlgebraError("table shape does not match labels")
    table = []
    for i, row in enumerate(multiplication_table):
        irow = []
        seen = set()
        for j, lab in enumerate(row):
            if lab not in index:
                raise AlgebraError(f"unknown label {lab!r} in row {labels[i]!r}")
            t = index[lab]
            if t in seen:
                raise AlgebraError(f"row of {labels[i]!r} repeats element {lab!r}")
            seen.add(t)
            irow.append(t)
        table.append(irow)
    for j in range(dim):
        if len({table[i][j] for i in range(dim)}) != dim:
            raise AlgebraError(f"column of {labels[j]!r} repeats an element")
    identity = None
    for e in range(dim):
        if all(table[e][j] == j and table[j][e] == j for j in range(dim)):
            identity = e
            break
    if identity is None:
        raise AlgebraError("table has no two-sided identity element")
    sc = [
        [_kvec(field, dim, [(table[i][j], field.one)]) for j in range(dim)]
        for i in range(dim)
    ]
    unit = _kvec(field, dim, [(identity, field.one)])
    return BaseAlgebra(field, labels, sc, unit, group_table=table)


class AlgebraEndomorphism:
    """Unital k-algebra endomorphism of K, given by its ColMap on the basis."""

    def __init__(self, base, map_, check=True):
        self.base = base
        self.map = map_
        if check:
            self._check()

    def _check(self):
        K = self.base
        unit = sparse(K.unit)
        if self.map.apply(unit) != unit:
            raise AlgebraError("endomorphism does not fix the unit")
        # alpha(e_i e_j) = alpha(e_i) alpha(e_j): alpha o L(e_i) = L(alpha(e_i)) o alpha on e_j
        for i in range(K.dim):
            after = self.map.compose(K.left_mult_map(K.basis_vector(i)))
            before = K.left_mult_map(_kvec(K.field, K.dim, self.map.cols[i].items())).compose(self.map)
            for j in range(K.dim):
                if after.cols[j] != before.cols[j]:
                    raise AlgebraError(
                        "endomorphism is not multiplicative on "
                        f"({K.basis_labels[i]!r}, {K.basis_labels[j]!r})"
                    )

    def diagonal(self):
        """The diagonal entries of the map."""
        return [col.get(i, self.base.field.zero) for i, col in enumerate(self.map.cols)]

    def is_diagonal(self):
        return all(set(col) <= {j} for j, col in enumerate(self.map.cols))


def character_endomorphism(K, chi):
    """Endomorphism g -> chi(g) g of a group algebra from character values.

    ``chi`` maps each basis label (or index) to a scalar; multiplicativity
    chi(gh) = chi(g)chi(h) is verified against the group table.
    """
    if K.group_table is None:
        raise AlgebraError("character twists need a group algebra")
    values = []
    for i, lab in enumerate(K.basis_labels):
        if lab in chi:
            values.append(K.field.coerce(chi[lab]))
        elif i in chi:
            values.append(K.field.coerce(chi[i]))
        else:
            raise AlgebraError(f"character value missing for {lab!r}")
    for i in range(K.dim):
        for j in range(K.dim):
            t = K.group_table[i][j]
            if values[t] != values[i] * values[j]:
                raise AlgebraError(
                    f"character is not multiplicative on pair ({K.basis_labels[i]!r}, {K.basis_labels[j]!r})"
                )
    m = ColMap(K.field, K.dim, K.dim)
    for i, v in enumerate(values):
        m.set_col(i, {i: v})
    endo = AlgebraEndomorphism(K, m, check=False)
    endo._check()
    return endo


class MonogenicData:
    """Validated data (K, alpha, n, lam_1..lam_n) defining A = K[x,alpha]/(f).

    Products in A read a multiplication table of the flat basis monomials
    e_(p,kappa) = kappa x^p (coordinate p*dim K + kappa), built on first use
    from the reduced powers x^e; ``divide_by_f`` runs once per power.
    """

    def __init__(self, base, alpha, n, lambdas):
        self.base = base
        self.alpha = alpha
        self.n = n
        self.lambdas = [list(v) for v in lambdas]
        self.dim = base.dim * n
        self._alpha_pows = [ColMap.identity(base.field, base.dim)]
        self._alpha_order = None
        self._k_commutators = {}  # twist class -> spanning vectors of [K,K]_{alpha^i}
        self._k_commutator_ranks = {}
        self._k_quotients = {}  # (twist class, component indices) -> K-sized SubquotientSpace
        self._power_cache = {}  # e -> (quotient list, remainder AElement) of x^e by f
        self._quotient_cache = {}  # e -> quotient of x^e by f as an AElement
        self._mul_table = None
        self._x_overflow = {}  # twist class -> see ``x_overflow``

    @property
    def field(self):
        return self.base.field

    def alpha_pow(self, p):
        """alpha^p as a ColMap; the climb stops at the order of alpha, after which
        p is reduced modulo it."""
        pows = self._alpha_pows
        while self._alpha_order is None and len(pows) <= p:
            m = self.alpha.map.compose(pows[-1])
            if m == pows[0]:
                self._alpha_order = len(pows)
            else:
                pows.append(m)
        return pows[p if self._alpha_order is None else p % self._alpha_order]

    def twist(self, j):
        """The least i with alpha^i = alpha^j: j modulo the order of alpha, or j when
        no power of alpha is the identity."""
        self.alpha_pow(j)
        return j if self._alpha_order is None else j % self._alpha_order

    def alpha_columns(self, p):
        """alpha^p as sparse columns ``{row: scalar}``, kept once per class of
        alpha^p; None when alpha^p is the identity (its class is that of alpha^0)."""
        i = self.twist(p)
        return None if i == 0 else self.alpha_pow(i).cols

    def alpha_apply(self, p, vec):
        """alpha^p of a dense K-vector, as a new list."""
        cols = self.alpha_columns(p)
        if cols is None:
            return list(vec)
        out = [self.field.zero] * self.base.dim
        for j, c in enumerate(vec):
            if c:
                for i, e in cols[j].items():
                    out[i] = out[i] + c * e
        return out

    def f_coefficient(self, i):
        """lam_i as a K-vector (lam_0 = 1)."""
        if i == 0:
            return list(self.base.unit)
        return list(self.lambdas[i - 1])

    # -- normal form arithmetic in A -----------------------------------------

    def zero_a(self):
        return AElement(self, [[self.field.zero] * self.base.dim for _ in range(self.n)])

    def one_a(self):
        coeffs = [[self.field.zero] * self.base.dim for _ in range(self.n)]
        coeffs[0] = list(self.base.unit)
        return AElement(self, coeffs)

    def a_from_kvec(self, kvec, power=0):
        coeffs = [[self.field.zero] * self.base.dim for _ in range(self.n)]
        coeffs[power] = list(kvec)
        return AElement(self, coeffs)

    def _divide_x_power(self, e):
        got = self._power_cache.get(e)
        if got is None:
            poly = [[self.field.zero] * self.base.dim for _ in range(e)] + [list(self.base.unit)]
            quot, rem = divide_by_f(self, poly)
            got = self._power_cache[e] = (quot, AElement(self, rem))
        return got

    def x_power_reduced(self, e):
        """x^e as an AElement (reduced modulo f); cached."""
        return self._divide_x_power(e)[1]

    def x_power_quotient(self, e):
        """The quotient of x^e by f as an AElement (degree e-n < n assumed); cached."""
        got = self._quotient_cache.get(e)
        if got is None:
            quot = self._divide_x_power(e)[0]
            if len(quot) > self.n:
                raise ValueError(f"quotient of x^{e} does not fit in normal form")
            pad = [[self.field.zero] * self.base.dim for _ in range(self.n - len(quot))]
            got = self._quotient_cache[e] = AElement(self, [list(v) for v in quot] + pad)
        return got

    def mul_table(self):
        """``table[i][j]``: the normal form of e_i * e_j as a ``{coordinate: scalar}``
        dict, for the flat basis monomials e_(p,kappa) = kappa x^p.

        e_(p,kappa) * e_(q,mu) = (kappa alpha^p(mu)) x^(p+q), and left
        multiplication by an element of K commutes with the reduction modulo
        f, so each entry is a K-multiple of the reduced power x^(p+q).
        """
        table = self._mul_table
        if table is None:
            K = self.base
            d = K.dim
            reduced = [self.x_power_reduced(e).coeffs for e in range(2 * self.n - 1)]
            table = []
            for p in range(self.n):
                twisted = [self.alpha_apply(p, K.basis_vector(mu)) for mu in range(d)]
                for kappa in range(d):
                    front = K.basis_vector(kappa)
                    heads = [K.mul_vec(front, a) for a in twisted]
                    row = []
                    for q in range(self.n):
                        for w in heads:
                            entry = {}
                            for t, rem in enumerate(reduced[p + q]):
                                if vec_is_zero(rem):
                                    continue
                                for k, c in enumerate(K.mul_vec(w, rem)):
                                    if c:
                                        entry[t * d + k] = c
                            row.append(entry)
                    table.append(row)
            self._mul_table = table
        return table

    def multiply(self, u, v):
        """The product of two elements of A given by their nonzero (coordinate,
        scalar) items, as a ``{coordinate: scalar}`` dict read off the table."""
        table = self.mul_table()
        out = {}
        for i, c in u:
            row = table[i]
            for j, e in v:
                ce = c * e
                for k, f in row[j].items():
                    add_term(out, k, ce * f)
        return out

    def x_items(self):
        """x = 1 x^1 as (coordinate, scalar) items."""
        d = self.base.dim
        return [(d + kappa, c) for kappa, c in enumerate(self.base.unit) if c]

    def x_overflow(self, s):
        """Right multiplication of the right factor x^(n-1) by x in A_{alpha^s} (x) A.

        With x^n = sum_t c_t x^t in A, the twist moves each c_t to the front:
        e_j (x) x^(n-1) goes to sum_t e_j alpha^s(c_t) (x) x^t.  Entry j holds
        these terms keyed by t*dim A + front coordinate; kept once per class
        of alpha^s.
        """
        i = self.twist(s)
        got = self._x_overflow.get(i)
        if got is None:
            top = self.x_power_reduced(self.n).coeffs
            pulled = [(t, [(mu, c) for mu, c in enumerate(self.alpha_apply(i, kv)) if c])
                      for t, kv in enumerate(top) if not vec_is_zero(kv)]
            got = self._x_overflow[i] = []
            for j in range(self.dim):
                terms = {}
                for t, items in pulled:
                    for k, c in self.multiply([(j, self.field.one)], items).items():
                        terms[t * self.dim + k] = c
                got.append(terms)
        return got

    def index(self, power, kappa):
        """Flat coordinate of the basis monomial basis_kappa * x^power."""
        return power * self.base.dim + kappa

    def a_coords(self, a):
        out = []
        for v in a.coeffs:
            out.extend(v)
        return out

    def a_from_coords(self, coords):
        d = self.base.dim
        return AElement(self, [list(coords[j * d:(j + 1) * d]) for j in range(self.n)])

    def a_from_terms(self, terms):
        """AElement of a ``{coordinate: scalar}`` dict."""
        return self.a_from_coords(_kvec(self.field, self.dim, terms.items()))


class AElement:
    """Element of A in normal form: list of n K-coordinate vectors."""

    __slots__ = ("mono", "coeffs")

    def __init__(self, mono, coeffs):
        self.mono = mono
        self.coeffs = coeffs

    def __add__(self, other):
        return AElement(self.mono, [vec_add(u, v) for u, v in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return AElement(self.mono, [vec_sub(u, v) for u, v in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return AElement(self.mono, [[-c for c in v] for v in self.coeffs])

    def scale(self, c):
        return AElement(self.mono, [vec_scale(c, v) for v in self.coeffs])

    def items(self):
        """The nonzero (flat coordinate, scalar) pairs of this element."""
        d = self.mono.base.dim
        return [(p * d + kappa, c) for p, v in enumerate(self.coeffs) for kappa, c in enumerate(v) if c]

    def __mul__(self, other):
        """Product in A, read off the multiplication table."""
        mono = self.mono
        return mono.a_from_terms(mono.multiply(self.items(), other.items()))

    def k_left(self, kvec):
        K = self.mono.base
        return AElement(self.mono, [K.mul_vec(kvec, v) for v in self.coeffs])

    def k_right(self, kvec):
        mono = self.mono
        # kvec sits at x^0, so its coordinates are its K-coordinates
        return mono.a_from_terms(mono.multiply(self.items(), [(mu, c) for mu, c in enumerate(kvec) if c]))

    def x_left(self):
        mono = self.mono
        return mono.a_from_terms(mono.multiply(mono.x_items(), self.items()))

    def x_right(self):
        mono = self.mono
        return mono.a_from_terms(mono.multiply(self.items(), mono.x_items()))

    def is_zero(self):
        return all(vec_is_zero(v) for v in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, AElement) and self.coeffs == other.coeffs

    def __repr__(self):
        mono = self.mono
        terms = []
        for j, v in enumerate(self.coeffs):
            for kappa, c in enumerate(v):
                if c:
                    lab = mono.base.basis_labels[kappa]
                    terms.append(f"({c})*{lab}" + ("" if j == 0 else f"*x^{j}"))
        return " + ".join(terms) if terms else "0"


def divide_by_f(mono, poly):
    """Twisted division P = quotient*f + remainder in B = K[x,alpha].

    ``poly`` lists K-coordinate vectors for x^0, x^1, ...; the quotient and
    remainder use the same convention (coefficients on the left).  Uses the
    relation x*lam = alpha(lam)*x, so (q x^e)(lam_i x^(n-i)) contributes
    q*alpha^e(lam_i) at degree e+n-i.
    """
    K = mono.base
    n = mono.n
    work = [list(v) for v in poly]
    while work and vec_is_zero(work[-1]):
        work.pop()
    deg = len(work) - 1
    if deg < n:
        rem = work + [[K.field.zero] * K.dim for _ in range(n - len(work))]
        return [], rem
    quot = [[K.field.zero] * K.dim for _ in range(deg - n + 1)]
    for d in range(deg, n - 1, -1):
        c = work[d]
        if vec_is_zero(c):
            continue
        e = d - n
        quot[e] = list(c)
        for i in range(0, n + 1):
            lam = mono.f_coefficient(i)
            term = K.mul_vec(c, mono.alpha_apply(e, lam))
            work[e + n - i] = vec_sub(work[e + n - i], term)
    rem = work[:n] + [[K.field.zero] * K.dim for _ in range(n - min(len(work), n))]
    return quot, rem


def validate_monogenic(K, alpha, n, lambdas):
    """Check the coefficient conditions and return MonogenicData.

    Raises AlgebraError listing every violated condition with a witness
    basis element.
    """
    if n < 2:
        raise AlgebraError(f"extension degree must satisfy n >= 2, got {n}")
    if len(lambdas) != n:
        raise AlgebraError(f"expected {n} coefficient vectors lam_1..lam_{n}, got {len(lambdas)}")
    violations = []
    data = MonogenicData(K, alpha, n, lambdas)
    for i, lam in enumerate(data.lambdas, start=1):
        if data.alpha_apply(1, lam) != lam:
            violations.append(f"alpha(lam_{i}) != lam_{i}")
        for t in range(K.dim):
            mu = K.basis_vector(t)
            lhs = K.mul_vec(lam, mu)
            rhs = K.mul_vec(data.alpha_apply(i, mu), lam)
            if lhs != rhs:
                violations.append(
                    f"lam_{i}*lam != alpha^{i}(lam)*lam_{i} for lam = {K.basis_labels[t]!r}"
                )
                break
    if violations:
        raise AlgebraError("; ".join(violations))
    return data


def a_multiply(a, b):
    return a * b


class BimoduleData:
    """A-bimodule via explicit action maps, each a ColMap on the basis of M.

    ``left_k[t]`` / ``right_k[t]`` act by the t-th K-basis element,
    ``left_x`` / ``right_x`` by x.  The right actions are anti-multiplicative
    as maps: m.(ab) = R(b) R(a) m.
    """

    def __init__(self, mono, dim, left_k, left_x, right_k, right_x, check=True):
        self.mono = mono
        self.dim = dim
        self.left_k = left_k
        self.left_x = left_x
        self.right_k = right_k
        self.right_x = right_x
        self._quotients = {}
        self._regular = None
        self._x_pows = {}
        if check:
            self._check()

    @property
    def is_regular(self):
        """Whether M is A with its two regular actions, as the cyclic operator needs."""
        if self._regular is None:
            R = regular_bimodule(self.mono)
            self._regular = self.dim == R.dim and (self.left_k, self.left_x, self.right_k, self.right_x) == (
                R.left_k, R.left_x, R.right_k, R.right_x)
        return self._regular

    def _check(self):
        mono = self.mono
        K = mono.base
        ident = ColMap.identity(mono.field, self.dim)
        if self.k_map("left", K.unit) != ident or self.k_map("right", K.unit) != ident:
            raise AlgebraError("bimodule actions are not unital")
        for s in range(K.dim):
            for t in range(K.dim):
                prod = K.mul_vec(K.basis_vector(s), K.basis_vector(t))
                if self.left_k[s].compose(self.left_k[t]) != self.k_map("left", prod):
                    raise AlgebraError("left K-action is not multiplicative")
                if self.right_k[t].compose(self.right_k[s]) != self.k_map("right", prod):
                    raise AlgebraError("right K-action is not anti-multiplicative")
        # left/right actions commute
        lgens = self.left_k + [self.left_x]
        rgens = self.right_k + [self.right_x]
        for lg in lgens:
            for rg in rgens:
                if lg.compose(rg) != rg.compose(lg):
                    raise AlgebraError("left and right actions do not commute")
        # Ore relation and the defining polynomial on both sides
        for t in range(K.dim):
            av = mono.alpha_apply(1, K.basis_vector(t))
            if self.left_x.compose(self.left_k[t]) != self.k_map("left", av).compose(self.left_x):
                raise AlgebraError("left action violates x*lam = alpha(lam)*x")
            if self.right_k[t].compose(self.right_x) != self.right_x.compose(self.k_map("right", av)):
                raise AlgebraError("right action violates x*lam = alpha(lam)*x")
        lf = _power(self.left_x, mono.n, ident)
        rf = _power(self.right_x, mono.n, ident)
        for i in range(1, mono.n + 1):
            lam = mono.f_coefficient(i)
            lf = lf.add(self.k_map("left", lam).compose(_power(self.left_x, mono.n - i, ident)))
            rf = rf.add(_power(self.right_x, mono.n - i, ident).compose(self.k_map("right", lam)))
        if not lf.is_zero() or not rf.is_zero():
            raise AlgebraError("actions do not annihilate the defining polynomial f")

    def k_map(self, side, kvec):
        """The ``side`` action of the K-vector ``kvec`` as a ColMap."""
        one = self.mono.field.one
        return ColMap(self.mono.field, self.dim, self.dim,
                      [self.k_terms(side, kvec, {j: one}) for j in range(self.dim)])

    def k_terms(self, side, kvec, terms):
        """The ``side`` ("left" or "right") action of the K-vector ``kvec`` on a
        ``{basis index: scalar}`` dict."""
        gens = self.left_k if side == "left" else self.right_k
        out = {}
        for t, c in enumerate(kvec):
            if c:
                _act(out, gens[t].cols, terms, c)
        return out

    def _x_powers(self, side):
        """L(x)^p or R(x)^p for p < n as ColMaps, built once."""
        pows = self._x_pows.get(side)
        if pows is None:
            x = self.left_x if side == "left" else self.right_x
            pows = self._x_pows[side] = [ColMap.identity(self.mono.field, self.dim)]
            for _ in range(1, self.mono.n):
                pows.append(x.compose(pows[-1]))
        return pows

    def x_terms(self, side, p, terms):
        """The ``side`` action of x^p on a ``{basis index: scalar}`` dict."""
        pows = self._x_powers(side)
        top = len(pows) - 1
        while p > top:
            terms = _act({}, pows[top].cols, terms)
            p -= top
        return _act({}, pows[p].cols, terms) if p else dict(terms)

    def a_terms(self, side, a, terms):
        """The ``side`` action of a = sum_j c_j x^j in A: on the left
        sum_j L(c_j) L(x)^j, on the right sum_j R(x)^j R(c_j)."""
        out = {}
        for j, kv in enumerate(a.coeffs):
            if vec_is_zero(kv):
                continue
            if side == "left":
                part = self.k_terms(side, kv, self.x_terms(side, j, terms))
            else:
                part = self.x_terms(side, j, self.k_terms(side, kv, terms))
            for i, c in part.items():
                add_term(out, i, c)
        return out


def _act(acc, cols, terms, scale=None):
    """Add the image of ``terms`` under the map with sparse columns ``cols``
    (times ``scale``) into ``acc``; returns ``acc``."""
    for j, c in terms.items():
        if scale is not None:
            c = scale * c
        for i, e in cols[j].items():
            add_term(acc, i, e * c)
    return acc


def _power(m, p, ident):
    out = ident
    for _ in range(p):
        out = m.compose(out)
    return out


def regular_bimodule(mono):
    """The default coefficients M = A with both regular actions, read off the
    multiplication table."""
    field = mono.field
    dim = mono.dim
    table = mono.mul_table()

    def action(columns):
        return ColMap(field, dim, dim, [dict(col) for col in columns])

    x = mono.x_items()
    # lam_t sits at x^0, so its coordinate is t
    left_k = [action(table[t][j] for j in range(dim)) for t in range(mono.base.dim)]
    right_k = [action(table[j][t] for j in range(dim)) for t in range(mono.base.dim)]
    left_x = action(mono.multiply(x, [(j, field.one)]) for j in range(dim))
    right_x = action(mono.multiply([(j, field.one)], x) for j in range(dim))
    M = BimoduleData(mono, dim, left_k, left_x, right_k, right_x, check=False)
    M._regular = True
    return M


def twisted_commutator_subspace(M, j):
    """Spanning term dicts of [M,K]_{alpha^j}: m*alpha^j(lam) - lam*m over the
    basis pairs (m_s, lam_t) in (s, t) order, read off as column s of
    R(alpha^j(lam_t)) - L(lam_t)."""
    mono = M.mono
    K = mono.base
    field = mono.field
    twisted = [mono.alpha_apply(j, K.basis_vector(t)) for t in range(K.dim)]
    spans = []
    for s in range(M.dim):
        for t in range(K.dim):
            v = sub_terms(M.k_terms("right", twisted[t], {s: field.one}), M.left_k[t].cols[s])
            if v:
                spans.append(v)
    return spans


def commutator_quotient(M, j):
    """SubquotientSpace M/[M,K]_{alpha^j}, computed once per class of alpha^j
    (``mono.twist``) and kept on M."""
    i = M.mono.twist(j)
    sq = M._quotients.get(i)
    if sq is None:
        sq = M._quotients[i] = subquotient(M.mono.field, M.dim, twisted_commutator_subspace(M, i))
    return sq


def k_commutator_subspace(mono, j):
    """Spanning term dicts of [K,K]_{alpha^j} inside K itself.

    Computed once per class of alpha^j and kept on ``mono``; the caller gets
    its own list, which it may extend.
    """
    i = mono.twist(j)
    spans = mono._k_commutators.get(i)
    if spans is None:
        K = mono.base
        spans = mono._k_commutators[i] = []
        for s in range(K.dim):
            ms = K.basis_vector(s)
            for t in range(K.dim):
                lam = K.basis_vector(t)
                v = sparse(vec_sub(K.mul_vec(ms, mono.alpha_apply(i, lam)), K.mul_vec(lam, ms)))
                if v:
                    spans.append(v)
    return list(spans)


class CollapseReport:
    """Outcome of the direct [K,K]_{alpha^j} = K test per residue class."""

    def __init__(self, n, entries):
        self.n = n
        self.entries = entries  # j -> (is_full, dim of [K,K]_{alpha^j})
        self.holds = all(full for full, _ in entries.values())

    def __repr__(self):
        return f"CollapseReport(holds={self.holds}, entries={self.entries})"


def check_collapse(mono, max_j):
    """Directly test [K,K]_{alpha^j} = K for 1 <= j <= max_j, j not = 0 mod n.

    This is the condition the collapsed small complex actually needs; it is
    weaker than the existence of a suitable central element and is computed
    rather than assumed.  The rank of [K,K]_{alpha^j} is computed once per
    class of alpha^j and kept on ``mono``.
    """
    K = mono.base
    ranks = mono._k_commutator_ranks
    entries = {}
    for j in range(1, max_j + 1):
        if j % mono.n == 0:
            continue
        i = mono.twist(j)
        r = ranks.get(i)
        if r is None:
            spans = k_commutator_subspace(mono, i)
            r = ranks[i] = sparse_rank(spans)
        entries[j] = (r == K.dim, r)
    return CollapseReport(mono.n, entries)


def verify_lambda_breve(mono, candidate):
    """Check the central-element hypothesis for the collapse.

    Conditions: candidate is central in K, fixed by alpha^n, and
    candidate - alpha^i(candidate) is invertible for 1 <= i < n
    (invertibility via nonsingularity of the left-multiplication matrix).
    Returns (ok, reason).
    """
    K = mono.base
    lam = list(candidate)
    for t in range(K.dim):
        mu = K.basis_vector(t)
        if K.mul_vec(lam, mu) != K.mul_vec(mu, lam):
            return False, f"not central: fails to commute with {K.basis_labels[t]!r}"
    if mono.alpha_apply(mono.n, lam) != lam:
        return False, f"not fixed by alpha^{mono.n}"
    for i in range(1, mono.n):
        diff = vec_sub(lam, mono.alpha_apply(i, lam))
        if not K.is_invertible(diff):
            return False, f"candidate - alpha^{i}(candidate) is not invertible"
    return True, "ok"


def group_identity(table):
    for e in range(len(table)):
        if all(table[e][j] == j and table[j][e] == j for j in range(len(table))):
            return e
    raise AlgebraError("table has no identity")


def subgroup_generated(table, generators):
    """Indices of the subgroup generated by the given element indices."""
    e = group_identity(table)
    elems = {e}
    frontier = [e]
    while frontier:
        a = frontier.pop()
        for g in generators:
            b = table[a][g]
            if b not in elems:
                elems.add(b)
                frontier.append(b)
    return sorted(elems)


def quotient_group_table(labels, table, subgroup):
    """Quotient G/H for a normal subgroup H given by indices.

    Returns (coset labels, coset table, index map g -> coset index).
    """
    sub = set(subgroup)
    n = len(table)
    # normality: g H g^{-1} = H, checked as gH = Hg setwise
    for g in range(n):
        left = {table[g][h] for h in sub}
        right = {table[h][g] for h in sub}
        if left != right:
            raise AlgebraError(f"subgroup is not normal (witness {labels[g]!r})")
    coset_of = [None] * n
    cosets = []
    for g in range(n):
        if coset_of[g] is not None:
            continue
        members = sorted(table[g][h] for h in sub)
        idx = len(cosets)
        cosets.append(members)
        for m in members:
            coset_of[m] = idx
    qlabels = [labels[c[0]] for c in cosets]
    qtable = [
        [coset_of[table[cosets[i][0]][cosets[j][0]]] for j in range(len(cosets))]
        for i in range(len(cosets))
    ]
    qlabel_table = [[qlabels[t] for t in row] for row in qtable]
    return qlabels, qlabel_table, coset_of


def eigen_split(K, alpha):
    """Eigencomponents of a basis-diagonal alpha: [(eigenvalue, basis indices)].

    The component of eigenvalue 1 is listed first.  Non-diagonal alpha is
    rejected; callers fall back to the generic (undecomposed) path.
    """
    if not alpha.is_diagonal():
        raise AlgebraError("decomposition unavailable, generic path required")
    values = alpha.diagonal()
    comps = []
    for i, w in enumerate(values):
        for val, idxs in comps:
            if val == w:
                idxs.append(i)
                break
        else:
            comps.append((w, [i]))
    one = K.field.one
    comps.sort(key=lambda c: (c[0] != one, min(c[1])))
    return comps
