"""The boundary b and the cyclic operator B of the normalized complex, and
b' of the bar resolution, built one basis tensor at a time, kept apart from
the package: the slow references its projected face operators and its
generator values are tested against.

A column of b or B applies every face to the one basis tensor as ambient
terms of the target level, through the bimodule actions of M, and then
projects the sum to quotient coordinates with ``BarSpace.project_terms``, as
``orehom.bar.BarComplex`` did before it kept projected face operators per
twist class.  A column of b' applies every face to e_j (x) x^{t_1} (x) .. (x)
x^q, and pulls each merged coefficient to the front through alpha^pre, as
``orehom.bar.BarResolution`` did before it extended b' from its values on
the free generators.  The reduced powers of x and the powers of alpha come
from the dense long division and matrix powers of ``dense_reference``.
"""

from functools import lru_cache

import dense_reference as dref
from orehom.linalg import ColMap, add_term


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
    tgt = bar.spaces[r - 1]
    t, m_idx = bar.spaces[r].unflat(idx)
    m = {m_idx: bar.mono.field.one}
    acc = {}
    # face 0: multiply m by x^{i_1} on the right
    _add_at(acc, tgt.flat(t[1:], 0), M.x_terms("right", t[0], m).items())
    # faces 1..r-1: merge adjacent Abar slots, coefficients land on m
    for j in range(0, r - 1):
        for tpow, kv in _merged_slot(bar.mono, t[j] + t[j + 1], sum(t[:j])):
            _add_at(acc, tgt.flat(t[:j] + (tpow,) + t[j + 2:], 0),
                    M.k_terms("right", kv, m).items(), (j + 1) % 2 == 1)
    # face r: wrap x^{i_r} around to the left of m
    _add_at(acc, tgt.flat(t[:-1], 0), M.x_terms("left", t[-1], m).items(), r % 2 == 1)
    return acc


def B_ambient_column(bar, r, idx):
    """Cyclic operator on a pure tensor; front K-parts die, x-parts cycle."""
    mono = bar.mono
    tgt = bar.spaces[r + 1]
    t, m_idx = bar.spaces[r].unflat(idx)
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
            cols = mono.alpha_columns(sum(tail))
        pushed = {kappa: mono.field.one} if cols is None else cols[kappa]
        _add_at(acc, tgt.flat(newt, 0), pushed.items(), (i * r) % 2 == 1)
    return acc


def _projected(src, tgt, ambient):
    return ColMap.lazy(tgt.field, tgt.quotient_dim, src.quotient_dim,
                       lambda qj: tgt.project_terms(ambient(src.free[qj])))


def b(bar, r):
    """b_r in quotient coordinates, each column projected from its ambient terms."""
    return _projected(bar.spaces[r], bar.spaces[r - 1], lambda idx: b_ambient_column(bar, r, idx))


def connes_B(bar, r):
    """B_r in quotient coordinates, each column projected from its ambient terms."""
    return _projected(bar.spaces[r], bar.spaces[r + 1], lambda idx: B_ambient_column(bar, r, idx))


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
    src = barres.spaces[r]
    tgt = barres.spaces[r - 1]
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
    return ColMap.lazy(barres.mono.field, barres.spaces[r - 1].dim, barres.spaces[r].dim,
                       lambda idx: bprime_column(barres, kept, r, idx))
