"""The boundary b and the cyclic operator B of the normalized complex, b'
of the bar resolution and the maps phi, psi and omega induced on
coefficients, built one basis tensor at a time, kept apart from the
package: the slow references its projected face operators and its
generator values are tested against.  With them, what only the tests read
of the bar side: the flat indices of the bar complex and of the twisted
resolution, the degree of a bar-complex element, and the boundaries d' of
the twisted resolution.

A column of b or B applies every face to the one basis tensor as ambient
terms of the target level, through the bimodule actions of M, and then
projects the sum to quotient coordinates with ``BarSpace.project_terms``, as
``orehom.bar.BarComplex`` did before it kept projected face operators per
twist class.  A column of b' applies every face to e_j (x) x^{t_1} (x) .. (x)
x^q, and pulls each merged coefficient to the front through alpha^pre, as
``orehom.bar.BarResolution`` did before it extended b' from its values on
the free generators.  The reduced powers of x and the powers of alpha come
from the dense long division and matrix powers of ``dense_reference``.

A column of phi, psi or omega applies the formula of the map to the one
basis vector m of M, as ambient terms, and projects them, as
``orehom.bar.InducedComparison`` did before it read every induced map off
kept wrap faces.  phi_r [m] is sum lam m x^e (x) [mid] over the terms of
phi'_r(1 (x) 1).  psi_r of m (x) [t] is m P(t) for r even and
sum_l x^(t_r - l - 1) m P(t) x^l for r odd, P(t) the product of the
quotients of x^(t_1 + t_2), x^(t_3 + t_4), .. by f.  omega_(r+1) wraps each
term c e_j (x) [t] (x) x^q of omega'_(r+1)(1 (x) [t] (x) 1) around m as
c x^q m e_j.

Every column function returns a new dict holding no zero scalar, as
``ColMap.lazy`` asks: ``project_terms`` and ``add_term`` drop the zeros
they make.
"""

from functools import lru_cache
from itertools import product as iproduct

import dense_reference as dref
from orehom.linalg import ColMap, add_term
from orehom.small_complex import cs_space


def bar_flat(sp, t, m_idx):
    """The ambient index of m_idx in the block of tuple t of a ``BarSpace``."""
    return sp.tuple_index[t] * sp.block + m_idx


def bar_unflat(sp, idx):
    """(tuple, M index) of an ambient index of a ``BarSpace``."""
    ti, m_idx = divmod(idx, sp.block)
    return sp.tuples[ti], m_idx


def bar_element_degree(sp, terms):
    """Max degree over the monomial tensors of an ambient term dict of a
    ``BarSpace`` with M = A (the front exponent is read off the coefficient
    block)."""
    deg = float("-inf")
    for idx, c in terms.items():
        if c:
            t, m_idx = bar_unflat(sp, idx)
            deg = max(deg, m_idx // sp.mono.base.dim + sum(t))
    return deg


def res_flat(sp, kappa, p, q):
    """The flat index of mu_kappa x^p (x) x^q in a ``ResolutionSpace``."""
    return (q * sp.mono.n + p) * sp.mono.base.dim + kappa


def d_generator(barres, r):
    """Image of 1 (x) 1 under d'_r of the twisted resolution of the
    ``BarResolution`` ``barres``, as terms in the target space."""
    mono = barres.mono
    tgt = barres.res_space(r - 1)
    gen = {}
    if r % 2 == 1:
        # x (x) 1 - 1 (x) x
        for kappa, c in mono.base.unit.items():
            add_term(gen, res_flat(tgt, kappa, 1, 0), c)
            add_term(gen, res_flat(tgt, kappa, 0, 1), -c)
    else:
        # sum_i lam_{n-i} sum_l x^l (x) x^{i-l-1}
        for i in range(1, mono.n + 1):
            for ell in range(i):
                for kappa, c in mono.f_coefficient(mono.n - i).items():
                    add_term(gen, res_flat(tgt, kappa, ell, i - ell - 1), c)
    return gen


def d(barres, r):
    """d'_r: level r -> level r-1 of the twisted resolution, the bimodule
    extension of its generator value."""
    return barres.res_space(r).generated_map(lambda b: d_generator(barres, r), barres.res_space(r - 1))


def _add_at(acc, base, items, negative=False):
    for i, c in items:
        add_term(acc, base + i, -c if negative else c)


def _is_zero(vec):
    return not any(vec)


@lru_cache(maxsize=None)
def _reduced_power(mono, s):
    """x^s in A as n dense K-vectors, by long division."""
    return dref.twisted_division(mono, dref.x_power(mono, s))[1]


@lru_cache(maxsize=None)
def _merged_slot(mono, s, pre):
    """The nonzero terms c x^tpow (tpow >= 1) of x^s in A as pairs
    (tpow, alpha^pre(c)), alpha^pre(c) a sparse dict."""
    xred = _reduced_power(mono, s)
    return [(tpow, dref.sparse(dref.alpha_power(mono, pre, xred[tpow])))
            for tpow in range(1, mono.n) if not _is_zero(xred[tpow])]


def b_ambient_column(bar, r, idx):
    """b of the pure tensor m (x) x^{t_1} (x) ... at ambient index ``idx``
    as ambient terms at r-1."""
    M = bar.M
    tgt = bar.space(r - 1)
    t, m_idx = bar_unflat(bar.space(r), idx)
    m = {m_idx: bar.mono.field.one}
    acc = {}
    # face 0: multiply m by x^{i_1} on the right
    _add_at(acc, bar_flat(tgt, t[1:], 0), M.x_terms("right", t[0], m).items())
    # faces 1..r-1: merge adjacent Abar slots, coefficients land on m
    for j in range(0, r - 1):
        for tpow, kv in _merged_slot(bar.mono, t[j] + t[j + 1], sum(t[:j])):
            _add_at(acc, bar_flat(tgt, t[:j] + (tpow,) + t[j + 2:], 0),
                    M.k_terms("right", kv, m).items(), (j + 1) % 2 == 1)
    # face r: wrap x^{i_r} around to the left of m
    _add_at(acc, bar_flat(tgt, t[:-1], 0), M.x_terms("left", t[-1], m).items(), r % 2 == 1)
    return acc


def B_ambient_column(bar, r, idx):
    """Cyclic operator on a pure tensor; front K-parts die, x-parts cycle."""
    mono = bar.mono
    tgt = bar.space(r + 1)
    t, m_idx = bar_unflat(bar.space(r), idx)
    i0, kappa = divmod(m_idx, mono.base.dim)
    acc = {}
    if i0 == 0:
        return acc
    for i in range(0, r + 1):
        if i == 0:
            newt = (i0,) + t
            cols = None
        else:
            tail = t[i - 1:]
            newt = tail + (i0,) + t[:i - 1]
            cols = None if mono.twist(sum(tail)) == 0 else mono.alpha_pow(sum(tail)).cols
        pushed = {kappa: mono.field.one} if cols is None else cols[kappa]
        _add_at(acc, bar_flat(tgt, newt, 0), pushed.items(), (i * r) % 2 == 1)
    return acc


def _projected(src, tgt, ambient):
    return ColMap.lazy(tgt.quotient_dim, src.quotient_dim,
                       lambda qj: tgt.project_terms(ambient(src.free[qj])))


def b(bar, r):
    """b_r in quotient coordinates, each column projected from its ambient terms."""
    return _projected(bar.space(r), bar.space(r - 1), lambda idx: b_ambient_column(bar, r, idx))


def connes_B(bar, r):
    """B_r in quotient coordinates, each column projected from its ambient terms."""
    return _projected(bar.space(r), bar.space(r + 1), lambda idx: B_ambient_column(bar, r, idx))


def _face_terms(barres, kept, j, s, pre):
    """The front and middle-slot parts of e_j (x) x^s in A (x) Abar.

    pre None: e_j x^s, all of it in the front, as {front coordinate:
    scalar}.  Otherwise x^s = sum_tp c_tp x^tp in A splits into the middle
    slot x^tp (tp >= 1; the K-valued part vanishes in Abar) and c_tp, pulled
    to the front through alpha^pre: {tp: {front coordinate: scalar}}.  Kept
    in ``kept`` per (j, s, class of alpha^pre).
    """
    mono = barres.mono
    key = (j, s, None if pre is None else mono.twist(pre))
    got = kept.get(key)
    if got is None:
        front = {j: mono.field.one}
        if pre is None:
            got = mono.multiply(front, dref.a_terms(_reduced_power(mono, s)))
        else:
            # alpha^pre(c) sits at x^0, so its coordinates are its K-coordinates
            got = {tp: mono.multiply(front, c) for tp, c in _merged_slot(mono, s, pre)}
        kept[key] = got
    return got


def bprime_column(barres, kept, r, idx):
    """b' of e_j (x) x^{t_1} (x) .. (x) x^{t_r} (x) x^q at flat index ``idx``
    as terms at level r-1."""
    src = barres.space(r)
    tgt = barres.space(r - 1)
    ti, rest = divmod(idx, src.block)
    q, j = divmod(rest, barres.mono.dim)
    t = src.tuples[ti]
    col = {}
    # face 0: front times x^{i_1}
    _add_at(col, tgt.offset(t[1:], q), _face_terms(barres, kept, j, t[0], None).items())
    # middle faces
    for i in range(0, r - 1):
        for tp, terms in _face_terms(barres, kept, j, t[i] + t[i + 1], sum(t[:i])).items():
            _add_at(col, tgt.offset(t[:i] + (tp,) + t[i + 2:], q), terms.items(), (i + 1) % 2 == 1)
    # last face: right factor times x^{i_r}
    terms = {tgt.offset(t[:-1], q) + j: barres.mono.field.one}
    for _ in range(t[-1]):
        terms = tgt.right_mul_x(terms)
    _add_at(col, 0, terms.items(), r % 2 == 1)
    return col


def bprime(barres, r):
    """b'_r with every column built face by face from its basis tensor."""
    kept = {}
    return ColMap.lazy(barres.space(r - 1).dim, barres.space(r).dim,
                       lambda idx: bprime_column(barres, kept, r, idx))


def _phi_terms(mono, r):
    """The terms of the comparison map phi_r on a generator, as triples
    (lam, e, mid): lam x^e in the front slot and the exponents ``mid`` of
    the middle slots, from the expansion of f in every second slot."""
    n = mono.n
    m, odd = divmod(r, 2)
    # an i of 1 gives an empty l-range 1 <= l < i
    for ivec in iproduct(range(2, n + 1), repeat=m):
        lam = mono.base.unit
        for i in ivec:
            lam = mono.base.product(lam, mono.f_coefficient(n - i))
        if not lam:
            continue
        for ell in iproduct(*[range(1, i) for i in ivec]):
            mid = sum(((1, l) for l in reversed(ell)), ()) + (1,) * odd
            yield lam, sum(ivec) - sum(ell) - m, mid


def _psi_product(mono, t):
    """P(t), the product, left to right, of the quotients of x^(t_1 + t_2),
    x^(t_3 + t_4), .. by f, by dense long division and products in A."""
    zero = [mono.field.zero] * mono.base.dim
    prod = [dref.f_coefficient(mono, 0)] + [list(zero) for _ in range(mono.n - 1)]
    for i in range(0, len(t) - 1, 2):
        quot = dref.twisted_division(mono, dref.x_power(mono, t[i] + t[i + 1]))[0]
        prod = dref.a_product(mono, prod, quot + [list(zero) for _ in range(mono.n - len(quot))])
    return dref.a_terms(prod)


def phi_ambient_column(cmp_, r, m_idx):
    """phi_r of the pure class [m]; ambient bar terms."""
    bar = cmp_.bar
    mono, M = bar.mono, bar.M
    m_terms = {m_idx: mono.field.one}
    acc = {}
    for lam, e, mid in _phi_terms(mono, r):
        mv = M.k_terms("left", lam, M.a_terms("right", mono.x_power(e), m_terms))
        _add_at(acc, bar_flat(bar.space(r), mid, 0), mv.items())
    return acc


def psi_ambient_column(cmp_, r, idx):
    """psi_r of the pure tensor [m (x) x^{t_1} ..] at ambient index ``idx``
    as M-terms."""
    M = cmp_.bar.M
    t, m_idx = bar_unflat(cmp_.bar.space(r), idx)
    base = M.a_terms("right", _psi_product(cmp_.bar.mono, t), {m_idx: cmp_.bar.mono.field.one})
    if r % 2 == 0:
        return base
    out = {}
    i_last = t[-1]
    for ell in range(i_last):
        _add_at(out, 0, M.x_terms("left", i_last - ell - 1, M.x_terms("right", ell, base)).items())
    return out


def _wrap(mono, M, m_idx, j, q):
    """m (x)_{A^e} (e_j (x) .. (x) x^q) = x^q m e_j for m the basis vector
    m_idx, as M-terms."""
    i0, kappa = divmod(j, mono.base.dim)
    m = M.k_terms("right", mono.base.basis_vector(kappa), {m_idx: mono.field.one})
    return M.x_terms("left", q, M.x_terms("right", i0, m))


def omega_ambient_column(cmp_, r, idx):
    """omega_{r+1} of the pure tensor at ambient index ``idx`` via the
    resolution homotopy and the wrap-around m (x)_{A^e} -: terms at bar
    level r+1, from the generator value omega'_{r+1}(1 (x) x^t (x) 1)."""
    mono, M = cmp_.bar.mono, cmp_.bar.M
    t, m_idx = bar_unflat(cmp_.bar.space(r), idx)
    acc = {}
    for gidx, c in cmp_.barres.omega_generator(r + 1, t).items():
        ti, rest = divmod(gidx, mono.n * mono.dim)
        q, j = divmod(rest, mono.dim)
        # block ti of the resolution and of the bar complex: one tuple
        _add_at(acc, ti * M.dim, ((i, c * e) for i, e in _wrap(mono, M, m_idx, j, q).items()))
    return acc


def phi(cmp_, r):
    """phi_r: C^S_r -> bar level r, each column projected from its ambient terms."""
    return _projected(cs_space(cmp_.bar.M, r), cmp_.bar.space(r), lambda m_idx: phi_ambient_column(cmp_, r, m_idx))


def psi(cmp_, r):
    """psi_r: bar level r -> C^S_r, each column projected from its ambient terms."""
    return _projected(cmp_.bar.space(r), cs_space(cmp_.bar.M, r), lambda idx: psi_ambient_column(cmp_, r, idx))


def omega(cmp_, r):
    """omega_{r+1}: bar level r -> level r+1, each column projected from its ambient terms."""
    return _projected(cmp_.bar.space(r), cmp_.bar.space(r + 1), lambda idx: omega_ambient_column(cmp_, r, idx))
