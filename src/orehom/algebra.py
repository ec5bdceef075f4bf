"""The base algebra K, its endomorphism, and the extension A = K[x,a]/(f).

A is presented by the relations x*lam = alpha(lam)*x for lam in K together
with the monic polynomial f = x^n + lam_1 x^(n-1) + ... + lam_n, whose
coefficients must satisfy alpha(lam_i) = lam_i and lam_i*lam =
alpha^i(lam)*lam_i.  Elements of A are kept in the normal form
sum_j c_j x^j with c_j in K and j < n (the powers of x are a left K-basis).

Every element of K and of A is a sparse vector as ``linalg`` states it: an
element of K is keyed by the basis of K, and an element of A by the flat
coordinate p*dim K + kappa of the monomial kappa x^p.  The structure of A is
read off sparse products in K and the reduced powers of x: the regular
bimodule and the twisted commutators [K,K]_{alpha^j} cost the structure
constants, and the dim(A) x dim(A) product table is built only when the bar
resolution reads it.

Input is checked where it is built from outside data: group tables for
associativity, characters pairwise for multiplicativity (which proves the
twist an endomorphism), extension data for the coefficient conditions, and,
when the spec decoder reads them, an endomorphism given as a matrix
(``check_endomorphism``) and explicit bimodule actions
(``BimoduleData.check``), so downstream homology code can assume the
axioms.  The twist alpha is its ``ColMap`` on the basis of K; the regular
bimodule is built from the validated algebra and is not checked again.

Every value computed once and read again is kept on the object it belongs
to, in one ``_kept`` store: ``memo`` keeps the value of a method (or of a
function whose first argument is the owner) per arguments, and ``kept``
keeps a value under a key that is computed before the build, such as a twist
class.  The reduced powers of x, the product table, the regular bimodule,
[K,K]_{alpha^j}, K/[K,K]_{alpha^j}, the component quotient dimensions of the
closed forms and the tuple table of each bar level are kept this way on the
algebra, M/[M,K]_{alpha^j} on the bimodule (for M = A assembled from the
K/[K,K]_{alpha^(j+p)}), and the maps and face operators of the bar complexes
on the complex; nothing writes another object's store but through these two
functions.
"""

from __future__ import annotations

from functools import wraps

from .linalg import ColMap, SubquotientSpace, add_term, add_terms, relation_holds, sparse_rank, sub_terms, subquotient


class AlgebraError(ValueError):
    """Invalid algebraic input; the message names a witness."""


def kept(owner, key, build):
    """The value kept on ``owner`` under ``key``, made by ``build()`` on the
    first call.  A key is, or starts with, the function that keeps the value."""
    try:
        return owner._kept[key]
    except AttributeError:
        owner._kept = {}
    except KeyError:
        pass
    got = owner._kept[key] = build()
    return got


def memo(build):
    """Decorator: ``build(owner, *args)`` runs once per owner and arguments,
    and later calls return the kept value.  The values of ``build`` sit in
    one dict kept on the owner under the function itself, so a hit is two
    dict lookups and builds no key."""

    @wraps(build)
    def get(owner, *args):
        try:
            return owner._kept[build][args]
        except (AttributeError, KeyError):
            table = kept(owner, build, dict)
        got = table[args] = build(owner, *args)
        return got

    return get


class BaseAlgebra:
    """Finite-dimensional associative unital k-algebra via structure constants.

    ``structure_constants[i][j]`` is basis_i*basis_j as a sparse dict;
    products read it as sparse ``(t, s)`` terms, built once, so a product of
    group elements touches one basis element.  ``group_table`` is set when
    the algebra is a group algebra (index Cayley table); several
    constructions (characters, quotient rewrites) need it.
    """

    def __init__(self, field, basis_labels, structure_constants, unit, group_table=None):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        self.structure_constants = structure_constants
        # (t, s) with s = None for s = 1, the only constant of a group algebra
        self._product_terms = [
            [[(t, None if c == 1 else c) for t, c in vec.items()] for vec in row]
            for row in structure_constants
        ]
        self.unit = unit
        self.group_table = group_table
        self._check_unital()
        self._check_associative()

    def _check_unital(self):
        for i in range(self.dim):
            e = self.basis_vector(i)
            if self.product(self.unit, e) != e or self.product(e, self.unit) != e:
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
        basis = [self.basis_vector(i) for i in range(dim)]
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                ij = self.product(ei, ej)
                for t, et in enumerate(basis):
                    if self.product(ij, et) != self.product(ei, self.product(ej, et)):
                        self._associativity_fails(i, j, t)

    def _associativity_fails(self, i, j, t):
        labels = self.basis_labels
        raise AlgebraError(f"associativity fails on triple ({labels[i]!r}, {labels[j]!r}, {labels[t]!r})")

    def product(self, u, v):
        """u * v for K-elements given as ``{index: scalar}`` dicts, read off the
        sparse structure constants."""
        terms = self._product_terms
        out = {}
        for i, a in u.items():
            row = terms[i]
            for j, b in v.items():
                c = a * b
                for t, s in row[j]:
                    add_term(out, t, c if s is None else c * s)
        return out

    def left_mult_map(self, u):
        """Left multiplication by the K-element u as a ColMap; column j is the
        sparse product u e_j."""
        return ColMap(self.dim, self.dim, [self.product(u, {j: 1}) for j in range(self.dim)])

    def is_invertible(self, u):
        return sparse_rank(self.left_mult_map(u).cols) == self.dim

    def basis_vector(self, i):
        return {i: 1}

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
    sc = [[{t: 1} for t in row] for row in table]
    return BaseAlgebra(field, labels, sc, {group_identity(table): 1}, group_table=table)


def _check_unit(K, alpha):
    if alpha.apply(K.unit) != K.unit:
        raise AlgebraError("endomorphism does not fix the unit")


def check_endomorphism(K, alpha):
    """Raise AlgebraError unless the ColMap ``alpha`` is a unital algebra
    endomorphism of K: it fixes the unit and alpha(e_i e_j) = alpha(e_i) alpha(e_j)."""
    _check_unit(K, alpha)
    for i in range(K.dim):
        for j in range(K.dim):
            if alpha.apply(K.product(K.basis_vector(i), K.basis_vector(j))) != K.product(
                    alpha.cols[i], alpha.cols[j]):
                raise AlgebraError(
                    "endomorphism is not multiplicative on "
                    f"({K.basis_labels[i]!r}, {K.basis_labels[j]!r})"
                )


def character_endomorphism(K, chi):
    """The ColMap of the endomorphism g -> chi(g) g of a group algebra from
    character values.

    ``chi`` maps each basis label to a scalar; multiplicativity
    chi(gh) = chi(g)chi(h) is verified against the group table, which proves
    the map multiplicative on the basis, so only the unit is left to check.
    """
    if K.group_table is None:
        raise AlgebraError("character twists need a group algebra")
    values = []
    for lab in K.basis_labels:
        if lab not in chi:
            raise AlgebraError(f"character value missing for {lab!r}")
        values.append(K.field.coerce(chi[lab]))
    for i in range(K.dim):
        for j in range(K.dim):
            t = K.group_table[i][j]
            if values[t] != values[i] * values[j]:
                raise AlgebraError(
                    f"character is not multiplicative on pair ({K.basis_labels[i]!r}, {K.basis_labels[j]!r})"
                )
    # a multiplicative character that passes the unit check takes unit values
    alpha = ColMap(K.dim, K.dim, [{i: v} for i, v in enumerate(values)])
    _check_unit(K, alpha)
    return alpha


class MonogenicData:
    """Validated data (K, alpha, n, lam_1..lam_n) defining A = K[x,alpha]/(f).

    The flat basis monomials are e_(p,kappa) = kappa x^p (coordinate
    p*dim K + kappa).  ``k_times_x_power`` gives the normal form of w x^e
    from sparse products in K and the reduced power x^e, and the regular
    bimodule reads it alone.  Products of two elements of A read a
    multiplication table, built from the same products only when the bar
    resolution first asks for it; ``divide_by_f`` runs once per power.
    Each of these is kept on the algebra (``memo``, ``kept``).
    """

    def __init__(self, base, alpha, n, lambdas):
        self.base = base
        self.alpha = alpha
        self.n = n
        self.lambdas = [dict(v) for v in lambdas]
        self.dim = base.dim * n
        self._alpha_pows = [ColMap.identity(base.dim)]
        self._alpha_order = None

    @property
    def field(self):
        return self.base.field

    def alpha_pow(self, p):
        """alpha^p as a ColMap; the climb stops at the order of alpha, after which
        p is reduced modulo it."""
        pows = self._alpha_pows
        while self._alpha_order is None and len(pows) <= p:
            m = self.alpha.compose(pows[-1])
            if m == pows[0]:
                self._alpha_order = len(pows)
            else:
                pows.append(m)
        return pows[p if self._alpha_order is None else p % self._alpha_order]

    def twist(self, j):
        """The least i with alpha^i = alpha^j: j modulo the order of alpha, or j when
        no power of alpha is the identity.  Once the order is known this is
        one modulo; before, the climb of ``alpha_pow`` looks for it."""
        if self._alpha_order is None:
            self.alpha_pow(j)
            if self._alpha_order is None:
                return j
        return j % self._alpha_order

    def alpha_terms(self, p, mu):
        """alpha^p of the basis element mu of K as a ``{index: scalar}`` dict:
        column mu of the kept ``alpha_pow(p)``, which the caller must not
        modify."""
        return self.alpha_pow(p).cols[mu]

    def alpha_image(self, p, w):
        """alpha^p of the K-element w, a new dict: a copy of w when alpha^p is
        the identity, else ``alpha_pow(p).apply(w)``."""
        i = self.twist(p)
        return dict(w) if i == 0 else self.alpha_pow(i).apply(w)

    def alpha_sum(self, w, powers):
        """sum of alpha^p(w) over p in ``powers``, as a K-element."""
        out = {}
        for p in powers:
            add_terms(out, self.alpha_image(p, w))
        return out

    def f_coefficient(self, i):
        """lam_i as a K-element (lam_0 = 1); the caller must not modify it."""
        return self.base.unit if i == 0 else self.lambdas[i - 1]

    # -- normal form arithmetic in A -----------------------------------------

    @memo
    def _division(self, e):
        return divide_by_f(self, e)

    def x_power_reduced(self, e):
        """x^e reduced modulo f as its nonzero parts [(t, c_t)], t ascending:
        x^e = sum_t c_t x^t in A; cached."""
        return self._division(e)[1]

    def x_power_quotient(self, e):
        """The quotient of x^e by f as nonzero parts [(t, q_t)] (degree e-n < n
        assumed); cached."""
        quot = self._division(e)[0]
        if quot and quot[-1][0] >= self.n:
            raise ValueError(f"quotient of x^{e} does not fit in normal form")
        return quot

    def flat(self, parts):
        """The element sum_t c_t x^t (t < n) of A, given by its nonzero parts
        [(t, c_t)], as a ``{coordinate: scalar}`` dict."""
        d = self.base.dim
        return {t * d + k: v for t, c in parts for k, v in c.items()}

    def x_power(self, e):
        """x^e reduced modulo f as a ``{coordinate: scalar}`` dict."""
        return self.flat(self.x_power_reduced(e))

    def k_times(self, w, parts):
        """The normal form of w * sum_t c_t x^t (t < n) for w in K and the parts
        [(t, c_t)], as a ``{coordinate: scalar}`` dict:
        left multiplication by K does not move the powers of x."""
        product = self.base.product
        return self.flat((t, product(w, c)) for t, c in parts)

    def k_times_x_power(self, w, e):
        """The normal form of w x^e, for w in K given as a ``{index: scalar}``
        dict, as a ``{coordinate: scalar}`` dict.

        Left multiplication by K commutes with the reduction modulo f, so with
        x^e = sum_t c_t x^t in A this is sum_t (w c_t) x^t.
        """
        if e < self.n:
            base = e * self.base.dim
            return {base + k: c for k, c in w.items()}
        return self.k_times(w, self.x_power_reduced(e))

    @memo
    def mul_table(self):
        """``table[i][j]``: the normal form of e_i * e_j as a ``{coordinate: scalar}``
        dict, for the flat basis monomials e_(p,kappa) = kappa x^p.

        e_(p,kappa) * e_(q,mu) = (kappa alpha^p(mu)) x^(p+q), a sparse product
        in K times a reduced power of x.
        """
        d = self.base.dim
        product = self.base.product
        table = []
        for p in range(self.n):
            twisted = [self.alpha_terms(p, mu) for mu in range(d)]
            for kappa in range(d):
                heads = [product({kappa: 1}, a) for a in twisted]
                table.append([self.k_times_x_power(w, p + q) for q in range(self.n) for w in heads])
        return table

    def multiply(self, u, v):
        """The product of two elements of A, read off the table."""
        table = self.mul_table()
        out = {}
        for i, c in u.items():
            row = table[i]
            for j, e in v.items():
                ce = c * e
                for k, f in row[j].items():
                    add_term(out, k, ce * f)
        return out

    def x_overflow(self, s):
        """Right multiplication of the right factor x^(n-1) by x in A_{alpha^s} (x) A.

        With x^n = sum_t c_t x^t in A, the twist moves each c_t to the front:
        e_j (x) x^(n-1) goes to sum_t e_j alpha^s(c_t) (x) x^t.  Entry j holds
        these terms keyed by t*dim A + front coordinate; kept once per class
        of alpha^s.
        """
        i = self.twist(s)

        def build():
            pulled = [(t, self.alpha_image(i, c)) for t, c in self.x_power_reduced(self.n)]
            out = []
            for j in range(self.dim):
                terms = {}
                for t, c in pulled:
                    # c sits at x^0, so its coordinates in A are its K-coordinates
                    for k, v in self.multiply({j: 1}, c).items():
                        terms[t * self.dim + k] = v
                out.append(terms)
            return out

        return kept(self, (MonogenicData.x_overflow, i), build)

    def index(self, power, kappa):
        """Flat coordinate of the basis monomial basis_kappa * x^power."""
        return power * self.base.dim + kappa


def divide_by_f(mono, e):
    """x^e = quotient*f + remainder in B = K[x,alpha], from the division of
    x^(e-1) (``mono`` keeps each one).

    Both are lists [(t, c_t)] of nonzero parts, t ascending, with the
    coefficients on the left.  With x^(e-1) = q f + r, x^e = (x q) f + x r, and
    x (c x^t) = alpha(c) x^(t+1); the part alpha(r_(n-1)) x^n of x r is
    alpha(r_(n-1)) f minus sum_i alpha(r_(n-1)) lam_i x^(n-i).
    """
    n = mono.n
    if e < n:
        return [], [(e, mono.base.unit)]
    quot, rem = mono._division(e - 1)
    shifted = {t + 1: mono.alpha_image(1, c) for t, c in rem}
    quot = [(t + 1, mono.alpha_image(1, c)) for t, c in quot]
    top = shifted.pop(n, None)
    if top:
        quot.insert(0, (0, top))
        for i, lam in enumerate(mono.lambdas, start=1):
            sub_terms(shifted.setdefault(n - i, {}), mono.base.product(top, lam))
    rem = [(t, shifted[t]) for t in sorted(shifted) if shifted[t]]
    return [(t, c) for t, c in quot if c], rem


def check_extension_degree(n):
    """Raise AlgebraError unless the degree n of f is at least 2."""
    if n < 2:
        raise AlgebraError(f"extension degree must satisfy n >= 2, got {n}")


def validate_monogenic(K, alpha, n, lambdas):
    """Check the coefficient conditions and return MonogenicData.

    Raises AlgebraError listing every violated condition with a witness
    basis element.
    """
    check_extension_degree(n)
    if len(lambdas) != n:
        raise AlgebraError(f"expected {n} coefficient vectors lam_1..lam_{n}, got {len(lambdas)}")
    violations = []
    data = MonogenicData(K, alpha, n, lambdas)
    for i, lam in enumerate(data.lambdas, start=1):
        if data.alpha_image(1, lam) != lam:
            violations.append(f"alpha(lam_{i}) != lam_{i}")
        for t in range(K.dim):
            if K.product(lam, K.basis_vector(t)) != K.product(data.alpha_terms(i, t), lam):
                violations.append(
                    f"lam_{i}*lam != alpha^{i}(lam)*lam_{i} for lam = {K.basis_labels[t]!r}"
                )
                break
    if violations:
        raise AlgebraError("; ".join(violations))
    return data


class BimoduleData:
    """A-bimodule via explicit action maps, each a ColMap on the basis of M.

    ``left_k[t]`` / ``right_k[t]`` act by the t-th K-basis element,
    ``left_x`` / ``right_x`` by x.  The right actions are anti-multiplicative
    as maps: m.(ab) = R(b) R(a) m.
    """

    def __init__(self, mono, dim, left_k, left_x, right_k, right_x):
        self.mono = mono
        self.dim = dim
        self.left_k = left_k
        self.left_x = left_x
        self.right_k = right_k
        self.right_x = right_x

    @property
    @memo
    def is_regular(self):
        """Whether M is A with its two regular actions, as the cyclic operator
        needs; free for the regular bimodule, which the algebra keeps."""
        R = regular_bimodule(self.mono)
        return self is R or self.dim == R.dim and (self.left_k, self.left_x, self.right_k, self.right_x) == (
            R.left_k, R.left_x, R.right_k, R.right_x)

    def check(self):
        """Raise AlgebraError naming the first bimodule axiom the actions break."""
        mono, K, n = self.mono, self.mono.base, self.mono.n
        lk, lx, rk, rx = self.left_k, self.left_x, self.right_k, self.right_x

        def holds(*terms):
            return relation_holds(self.dim, list(terms))

        def acts(gens, w, c=1, after=(), before=()):
            """c * after o (sum_t w_t gens[t]) o before, one chain per term of w."""
            return [(c * e, [*after, gens[t], *before]) for t, e in w.items()]

        if not holds(*acts(lk, K.unit), (-1, [])) or not holds(*acts(rk, K.unit), (-1, [])):
            raise AlgebraError("bimodule actions are not unital")
        for s in range(K.dim):
            for t in range(K.dim):
                prod = K.product(K.basis_vector(s), K.basis_vector(t))
                if not holds((1, [lk[s], lk[t]]), *acts(lk, prod, -1)):
                    raise AlgebraError("left K-action is not multiplicative")
                if not holds((1, [rk[t], rk[s]]), *acts(rk, prod, -1)):
                    raise AlgebraError("right K-action is not anti-multiplicative")
        # left/right actions commute
        for lg in lk + [lx]:
            for rg in rk + [rx]:
                if not holds((1, [lg, rg]), (-1, [rg, lg])):
                    raise AlgebraError("left and right actions do not commute")
        # Ore relation and the defining polynomial on both sides
        for t in range(K.dim):
            av = mono.alpha_terms(1, t)
            if not holds((1, [lx, lk[t]]), *acts(lk, av, -1, before=[lx])):
                raise AlgebraError("left action violates x*lam = alpha(lam)*x")
            if not holds((1, [rk[t], rx]), *acts(rk, av, -1, after=[rx])):
                raise AlgebraError("right action violates x*lam = alpha(lam)*x")
        # f = x^n + sum_i lam_i x^(n-i), through the kept powers x^p, p < n
        lp, rp = self._x_powers("left"), self._x_powers("right")
        lf, rf = [(1, [lx, lp[n - 1]])], [(1, [rp[n - 1], rx])]
        for i in range(1, n + 1):
            lf += acts(lk, mono.f_coefficient(i), before=[lp[n - i]])
            rf += acts(rk, mono.f_coefficient(i), after=[rp[n - i]])
        if not holds(*lf) or not holds(*rf):
            raise AlgebraError("actions do not annihilate the defining polynomial f")

    def k_terms(self, side, w, terms):
        """The ``side`` ("left" or "right") action of the K-element ``w`` on a
        ``{basis index: scalar}`` dict."""
        gens = self.left_k if side == "left" else self.right_k
        out = {}
        for t, c in w.items():
            for i, e in gens[t].apply(terms).items():
                add_term(out, i, c * e)
        return out

    @memo
    def _x_powers(self, side):
        """L(x)^p or R(x)^p for p < n as ColMaps, built once."""
        x = self.left_x if side == "left" else self.right_x
        pows = [ColMap.identity(self.dim)]
        for _ in range(1, self.mono.n):
            pows.append(x.compose(pows[-1]))
        return pows

    def x_terms(self, side, p, terms):
        """The ``side`` action of x^p on a ``{basis index: scalar}`` dict."""
        pows = self._x_powers(side)
        top = len(pows) - 1
        while p > top:
            terms = pows[top].apply(terms)
            p -= top
        return pows[p].apply(terms) if p else dict(terms)

    def a_terms(self, side, a, terms):
        """The ``side`` action of a = sum_j c_j x^j in A, given by its flat
        coordinates: on the left sum_j L(c_j) L(x)^j, on the right
        sum_j R(x)^j R(c_j)."""
        parts = {}
        for coord, c in a.items():
            j, kappa = divmod(coord, self.mono.base.dim)
            parts.setdefault(j, {})[kappa] = c
        out = {}
        for j, kv in parts.items():
            if side == "left":
                part = self.k_terms(side, kv, self.x_terms(side, j, terms))
            else:
                part = self.x_terms(side, j, self.k_terms(side, kv, terms))
            for i, c in part.items():
                add_term(out, i, c)
        return out


@memo
def regular_bimodule(mono):
    """The default coefficients M = A with both regular actions, from products
    in K and the normal form of x^n (no product table), columns built on
    first read: on kappa x^p, lam_t acts by (lam_t kappa) x^p on the left and
    by kappa alpha^p(lam_t) x^p on the right, and x by alpha(kappa) x^(p+1)
    on the left and by kappa x^(p+1) on the right.  Kept once per algebra."""
    d = mono.base.dim
    product = mono.base.product
    normal = mono.k_times_x_power

    def action(column):
        """The map whose column at kappa x^p is ``column(p, kappa)``."""
        return ColMap.lazy(mono.dim, mono.dim, lambda c: column(*divmod(c, d)))

    left_k = [action(lambda p, kappa, t=t: normal(product({t: 1}, {kappa: 1}), p)) for t in range(d)]
    right_k = [action(lambda p, kappa, t=t: normal(product({kappa: 1}, mono.alpha_terms(p, t)), p)) for t in range(d)]
    left_x = action(lambda p, kappa: normal(mono.alpha_terms(1, kappa), p + 1))
    right_x = action(lambda p, kappa: normal({kappa: 1}, p + 1))
    return BimoduleData(mono, mono.dim, left_k, left_x, right_k, right_x)


def twisted_commutator_subspace(M, j):
    """Spanning term dicts of [M,K]_{alpha^j}: m*alpha^j(lam) - lam*m over the
    basis pairs (m_s, lam_t) in (s, t) order, read off as column s of
    R(alpha^j(lam_t)) - L(lam_t)."""
    mono = M.mono
    K = mono.base
    twisted = [mono.alpha_terms(j, t) for t in range(K.dim)]
    spans = []
    for s in range(M.dim):
        for t in range(K.dim):
            v = sub_terms(M.k_terms("right", twisted[t], {s: 1}), M.left_k[t].cols[s])
            if v:
                spans.append(v)
    return spans


def commutator_quotient(M, j):
    """SubquotientSpace M/[M,K]_{alpha^j}, computed once per class of alpha^j
    (``mono.twist``) and kept on M.  A bimodule given by its own action maps
    is eliminated whole; for M = A, (kappa x^p) alpha^j(lam) - lam (kappa x^p)
    is (kappa alpha^(j+p)(lam) - lam kappa) x^p, so the span is block-diagonal
    and, RREF being unique, the quotient is the sum over p < n of the kept
    ``k_quotient`` of class j + p at x^p, each block's quotient coordinates
    shifted past those of the blocks before it."""
    mono = M.mono
    i = mono.twist(j)

    def build():
        if M is not regular_bimodule(mono):
            return subquotient(M.dim, twisted_commutator_subspace(M, i))
        free, proj_cols = [], []
        for p in range(mono.n):
            block, shift = k_quotient(mono, i + p), len(free)
            free += [p * mono.base.dim + f for f in block.free]
            proj_cols += [{shift + q: e for q, e in col.items()} for col in block.proj.cols]
        return SubquotientSpace(M.dim, free, proj_cols)

    return kept(M, (commutator_quotient, i), build)


def k_commutator_subspace(mono, j):
    """Spanning term dicts of [K,K]_{alpha^j} inside K itself.

    Computed once per class of alpha^j and kept on ``mono``; the caller
    must not modify the list.
    """
    i = mono.twist(j)

    def build():
        K = mono.base
        twisted = [mono.alpha_terms(i, t) for t in range(K.dim)]
        spans = []
        for s in range(K.dim):
            es = {s: 1}
            for t in range(K.dim):
                # e_s alpha^i(e_t) - e_t e_s
                v = sub_terms(K.product(es, twisted[t]), K.product({t: 1}, es))
                if v:
                    spans.append(v)
        return spans

    return kept(mono, (k_commutator_subspace, i), build)


def k_quotient(mono, j):
    """SubquotientSpace K/[K,K]_{alpha^j}, computed once per class of alpha^j
    and kept on ``mono``: the blocks of A/[A,K], the collapse verdict and the
    collapsed complexes read it."""
    i = mono.twist(j)
    return kept(mono, (k_quotient, i), lambda: subquotient(mono.base.dim, k_commutator_subspace(mono, i)))


def check_collapse(mono, max_j):
    """Directly test [K,K]_{alpha^j} = K for 1 <= j <= max_j, j not = 0 mod n.

    This is the condition the collapsed small complex actually needs; it is
    weaker than the existence of a suitable central element and is computed
    rather than assumed.  Returns ``{j: (is_full, rank of [K,K]_{alpha^j})}``,
    each rank dim K minus the dimension of the kept ``k_quotient``."""
    entries = {}
    for j in range(1, max_j + 1):
        if j % mono.n == 0:
            continue
        r = mono.base.dim - k_quotient(mono, j).quotient_dim
        entries[j] = (r == mono.base.dim, r)
    return entries


def verify_lambda_breve(mono, candidate):
    """Check the central-element hypothesis for the collapse.

    Conditions: candidate is central in K, fixed by alpha^n, and
    candidate - alpha^i(candidate) is invertible for 1 <= i < n
    (invertibility via nonsingularity of the left-multiplication matrix).
    Returns (ok, reason).
    """
    K = mono.base
    for t in range(K.dim):
        mu = K.basis_vector(t)
        if K.product(candidate, mu) != K.product(mu, candidate):
            return False, f"not central: fails to commute with {K.basis_labels[t]!r}"
    if mono.alpha_image(mono.n, candidate) != candidate:
        return False, f"not fixed by alpha^{mono.n}"
    for i in range(1, mono.n):
        diff = sub_terms(dict(candidate), mono.alpha_image(i, candidate))
        if not K.is_invertible(diff):
            return False, f"candidate - alpha^{i}(candidate) is not invertible"
    return True, "ok"


def group_identity(table):
    for e in range(len(table)):
        if all(table[e][j] == j and table[j][e] == j for j in range(len(table))):
            return e
    raise AlgebraError("table has no two-sided identity element")


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
    if not all(set(col) <= {j} for j, col in enumerate(alpha.cols)):
        raise AlgebraError("decomposition unavailable, generic path required")
    values = [col.get(j, 0) for j, col in enumerate(alpha.cols)]
    comps = []
    for i, w in enumerate(values):
        for val, idxs in comps:
            if val == w:
                idxs.append(i)
                break
        else:
            comps.append((w, [i]))
    comps.sort(key=lambda c: (c[0] != 1, min(c[1])))
    return comps
