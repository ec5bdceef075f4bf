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

from .linalg import Matrix, rank, subquotient


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

    ``structure_constants[i][j]`` is the coordinate vector of basis_i*basis_j.
    ``group_table`` is set when the algebra is a group algebra (index Cayley
    table); several constructions (characters, quotient rewrites) need it.
    """

    def __init__(self, field, basis_labels, structure_constants, unit, group_table=None, check=True):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        self.structure_constants = structure_constants
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
                        raise AlgebraError(
                            "associativity fails on triple "
                            f"({self.basis_labels[i]!r}, {self.basis_labels[j]!r}, {self.basis_labels[t]!r})"
                        )

    def mul_vec(self, u, v):
        out = [self.field.zero] * self.dim
        sc = self.structure_constants
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                c = a * b
                for t, s in enumerate(sc[i][j]):
                    if s:
                        out[t] = out[t] + c * s
        return out

    def left_mult_matrix(self, u):
        cols = []
        for j in range(self.dim):
            ej = _kvec(self.field, self.dim, [(j, self.field.one)])
            cols.append(self.mul_vec(u, ej))
        return Matrix.from_cols(self.field, cols)

    def right_mult_matrix(self, u):
        cols = []
        for j in range(self.dim):
            ej = _kvec(self.field, self.dim, [(j, self.field.one)])
            cols.append(self.mul_vec(ej, u))
        return Matrix.from_cols(self.field, cols)

    def is_invertible(self, u):
        return rank(self.left_mult_matrix(u)) == self.dim

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
    """Unital k-algebra endomorphism of K, given by its matrix on the basis."""

    def __init__(self, base, matrix, check=True):
        self.base = base
        self.matrix = matrix
        if check:
            self._check()

    def _check(self):
        K = self.base
        if self.matrix.apply(K.unit) != K.unit:
            raise AlgebraError("endomorphism does not fix the unit")
        for i in range(K.dim):
            ai = self.matrix.column(i)
            for j in range(K.dim):
                aj = self.matrix.column(j)
                prod = K.mul_vec(K.basis_vector(i), K.basis_vector(j))
                if self.matrix.apply(prod) != K.mul_vec(ai, aj):
                    raise AlgebraError(
                        "endomorphism is not multiplicative on "
                        f"({K.basis_labels[i]!r}, {K.basis_labels[j]!r})"
                    )

    def apply(self, vec):
        return self.matrix.apply(vec)

    def is_diagonal(self):
        m = self.matrix
        return all(not m.entries[i][j] for i in range(m.rows) for j in range(m.cols) if i != j)


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
    m = Matrix.zeros(K.field, K.dim, K.dim)
    for i in range(K.dim):
        m.entries[i][i] = values[i]
    endo = AlgebraEndomorphism(K, m, check=False)
    endo._check()
    return endo


class MonogenicData:
    """Validated data (K, alpha, n, lam_1..lam_n) defining A = K[x,alpha]/(f)."""

    def __init__(self, base, alpha, n, lambdas):
        self.base = base
        self.alpha = alpha
        self.n = n
        self.lambdas = [list(v) for v in lambdas]
        self.dim = base.dim * n
        self._alpha_pows = {0: Matrix.identity(base.field, base.dim), 1: alpha.matrix}
        self._power_cache = {}

    @property
    def field(self):
        return self.base.field

    def alpha_pow(self, p):
        m = self._alpha_pows.get(p)
        if m is None:
            m = self.alpha.matrix * self.alpha_pow(p - 1)
            self._alpha_pows[p] = m
        return m

    def alpha_apply(self, p, vec):
        return self.alpha_pow(p).apply(vec)

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

    def x_power_reduced(self, e):
        """x^e as an AElement (reduced modulo f); cached."""
        a = self._power_cache.get(e)
        if a is None:
            poly = [[self.field.zero] * self.base.dim for _ in range(e)] + [list(self.base.unit)]
            _, rem = divide_by_f(self, poly)
            a = AElement(self, rem)
            self._power_cache[e] = a
        return a

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

    def __mul__(self, other):
        """Product in A: twisted polynomial product reduced modulo f."""
        mono = self.mono
        K = mono.base
        deg = 2 * mono.n - 1
        poly = [[K.field.zero] * K.dim for _ in range(deg)]
        for i, u in enumerate(self.coeffs):
            if vec_is_zero(u):
                continue
            for j, v in enumerate(other.coeffs):
                if vec_is_zero(v):
                    continue
                term = K.mul_vec(u, mono.alpha_apply(i, v))
                poly[i + j] = vec_add(poly[i + j], term)
        _, rem = divide_by_f(mono, poly)
        return AElement(mono, rem)

    def k_left(self, kvec):
        K = self.mono.base
        return AElement(self.mono, [K.mul_vec(kvec, v) for v in self.coeffs])

    def k_right(self, kvec):
        K = self.mono.base
        return AElement(
            self.mono,
            [K.mul_vec(v, self.mono.alpha_apply(j, kvec)) for j, v in enumerate(self.coeffs)],
        )

    def x_left(self):
        mono = self.mono
        poly = [[mono.field.zero] * mono.base.dim]
        poly += [mono.alpha_apply(1, v) for v in self.coeffs]
        _, rem = divide_by_f(mono, poly)
        return AElement(mono, rem)

    def x_right(self):
        mono = self.mono
        poly = [[mono.field.zero] * mono.base.dim] + [list(v) for v in self.coeffs]
        _, rem = divide_by_f(mono, poly)
        return AElement(mono, rem)

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
        if alpha.apply(lam) != lam:
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
    """A-bimodule via explicit action matrices.

    ``left_k[t]`` / ``right_k[t]`` act by the t-th K-basis element,
    ``left_x`` / ``right_x`` by x.  The right actions are anti-multiplicative
    as matrices: m.(ab) = R(b) R(a) m.
    """

    def __init__(self, mono, dim, left_k, left_x, right_k, right_x, check=True):
        self.mono = mono
        self.dim = dim
        self.left_k = left_k
        self.left_x = left_x
        self.right_k = right_k
        self.right_x = right_x
        self._quotients = {}
        if check:
            self._check()

    def _check(self):
        mono = self.mono
        K = mono.base
        field = K.field
        ident = Matrix.identity(field, self.dim)
        lu = self._k_action_matrix(K.unit, self.left_k)
        ru = self._k_action_matrix(K.unit, self.right_k)
        if lu != ident or ru != ident:
            raise AlgebraError("bimodule actions are not unital")
        for s in range(K.dim):
            for t in range(K.dim):
                prod = K.mul_vec(K.basis_vector(s), K.basis_vector(t))
                if self.left_k[s] * self.left_k[t] != self._k_action_matrix(prod, self.left_k):
                    raise AlgebraError("left K-action is not multiplicative")
                if self.right_k[t] * self.right_k[s] != self._k_action_matrix(prod, self.right_k):
                    raise AlgebraError("right K-action is not anti-multiplicative")
        # left/right actions commute
        lgens = self.left_k + [self.left_x]
        rgens = self.right_k + [self.right_x]
        for lg in lgens:
            for rg in rgens:
                if lg * rg != rg * lg:
                    raise AlgebraError("left and right actions do not commute")
        # Ore relation and the defining polynomial on both sides
        for t in range(K.dim):
            av = mono.alpha_apply(1, K.basis_vector(t))
            if self.left_x * self.left_k[t] != self._k_action_matrix(av, self.left_k) * self.left_x:
                raise AlgebraError("left action violates x*lam = alpha(lam)*x")
            if self.right_k[t] * self.right_x != self.right_x * self._k_action_matrix(av, self.right_k):
                raise AlgebraError("right action violates x*lam = alpha(lam)*x")
        lf = _power(self.left_x, mono.n, ident)
        rf = _power(self.right_x, mono.n, ident)
        for i in range(1, mono.n + 1):
            lam = mono.f_coefficient(i)
            lf = lf + self._k_action_matrix(lam, self.left_k) * _power(self.left_x, mono.n - i, ident)
            rf = rf + _power(self.right_x, mono.n - i, ident) * self._k_action_matrix(lam, self.right_k)
        if not lf.is_zero() or not rf.is_zero():
            raise AlgebraError("actions do not annihilate the defining polynomial f")

    def _k_action_matrix(self, kvec, gens):
        out = Matrix.zeros(self.mono.field, self.dim, self.dim)
        for t, c in enumerate(kvec):
            if c:
                out = out + gens[t].scale(c)
        return out

    def left_k_vec(self, kvec, mvec):
        out = [self.mono.field.zero] * self.dim
        for t, c in enumerate(kvec):
            if c:
                col = self.left_k[t].apply(mvec)
                out = vec_add(out, vec_scale(c, col))
        return out

    def right_k_vec(self, kvec, mvec):
        out = [self.mono.field.zero] * self.dim
        for t, c in enumerate(kvec):
            if c:
                col = self.right_k[t].apply(mvec)
                out = vec_add(out, vec_scale(c, col))
        return out

    def left_x_pow(self, p, mvec):
        for _ in range(p):
            mvec = self.left_x.apply(mvec)
        return mvec

    def right_x_pow(self, p, mvec):
        for _ in range(p):
            mvec = self.right_x.apply(mvec)
        return mvec

    def left_a_vec(self, a, mvec):
        """Action of a in A on the left: a = sum_j c_j x^j acts by sum L(c_j) L(x)^j."""
        out = [self.mono.field.zero] * self.dim
        for j, kv in enumerate(a.coeffs):
            if vec_is_zero(kv):
                continue
            out = vec_add(out, self.left_k_vec(kv, self.left_x_pow(j, mvec)))
        return out

    def right_a_vec(self, a, mvec):
        """Right action by a = sum_j c_j x^j: m.(c_j x^j) = (m.c_j).x^j."""
        out = [self.mono.field.zero] * self.dim
        for j, kv in enumerate(a.coeffs):
            if vec_is_zero(kv):
                continue
            out = vec_add(out, self.right_x_pow(j, self.right_k_vec(kv, mvec)))
        return out


def _power(m, p, ident):
    out = ident
    for _ in range(p):
        out = m * out
    return out


def regular_bimodule(mono):
    """The default coefficients M = A with both regular actions."""
    K = mono.base
    field = K.field
    dim = mono.dim
    left_k, right_k = [], []
    basis = [mono.a_from_coords([field.zero] * i + [field.one] + [field.zero] * (dim - i - 1)) for i in range(dim)]
    for t in range(K.dim):
        kv = K.basis_vector(t)
        left_k.append(Matrix.from_cols(field, [mono.a_coords(b.k_left(kv)) for b in basis]))
        right_k.append(Matrix.from_cols(field, [mono.a_coords(b.k_right(kv)) for b in basis]))
    left_x = Matrix.from_cols(field, [mono.a_coords(b.x_left()) for b in basis])
    right_x = Matrix.from_cols(field, [mono.a_coords(b.x_right()) for b in basis])
    return BimoduleData(mono, dim, left_k, left_x, right_k, right_x, check=False)


def twisted_commutator_subspace(M, j):
    """Spanning vectors of [M,K]_{alpha^j}: m*alpha^j(lam) - lam*m."""
    mono = M.mono
    K = mono.base
    spans = []
    for s in range(M.dim):
        mvec = [mono.field.zero] * M.dim
        mvec[s] = mono.field.one
        for t in range(K.dim):
            lam = K.basis_vector(t)
            tw = mono.alpha_apply(j, lam)
            v = vec_sub(M.right_k_vec(tw, mvec), M.left_k_vec(lam, mvec))
            if not vec_is_zero(v):
                spans.append(v)
    return spans


def commutator_quotient(M, j):
    """SubquotientSpace M/[M,K]_{alpha^j}, computed once per twist and kept on M."""
    sq = M._quotients.get(j)
    if sq is None:
        sq = M._quotients[j] = subquotient(M.mono.field, M.dim, twisted_commutator_subspace(M, j))
    return sq


def k_commutator_subspace(mono, j):
    """Spanning vectors of [K,K]_{alpha^j} inside K itself."""
    K = mono.base
    spans = []
    for s in range(K.dim):
        ms = K.basis_vector(s)
        for t in range(K.dim):
            lam = K.basis_vector(t)
            v = vec_sub(K.mul_vec(ms, mono.alpha_apply(j, lam)), K.mul_vec(lam, ms))
            if not vec_is_zero(v):
                spans.append(v)
    return spans


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
    rather than assumed.
    """
    K = mono.base
    entries = {}
    for j in range(1, max_j + 1):
        if j % mono.n == 0:
            continue
        spans = k_commutator_subspace(mono, j)
        r = rank(Matrix.from_rows(K.field, spans)) if spans else 0
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
    values = [alpha.matrix.entries[i][i] for i in range(K.dim)]
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
