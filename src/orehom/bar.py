"""The canonical complexes for A = K[x,a]/(f): oracle and identity laboratory.

Three levels of complexes live here.

* ``ResolutionComplex``: the small bimodule resolution with spaces
  A (x) A twisted by powers of alpha, boundaries x(x)1 - 1(x)x and the
  derivative-like expansion of f.
* ``BarResolution``: the normalized relative bar resolution
  A (x) Abar^r (x) A with b', the comparison maps phi'/psi' into and out of
  the twisted resolution, and the recursive homotopy omega'.
* ``BarComplex``: the normalized chain complex M (x) Abar^r (x) with the
  Hochschild boundary b, the cyclic operator B (for M = A), and the maps
  phi/psi/omega induced on coefficients.  Its homology is the brute-force
  oracle every small-complex computation is checked against.

Tensors are kept in the normal form inherited from the left K-basis
{1, x, .., x^(n-1)}: coefficients are pushed to the leftmost factor through
the twist x^i * lam = alpha^i(lam) x^i, and K-valued entries of a middle
(Abar) slot vanish.  Elements are dicts mapping flat basis indices to
scalars; chain maps are column-sparse ColMaps.
"""

from __future__ import annotations

from itertools import product as iproduct

from .algebra import AElement, commutator_quotient, divide_by_f, vec_is_zero
# bound by name for perfbench/tracer.py, which wraps twisted_commutator_subspace
# in every module namespace that holds it (its tests read this binding)
from .algebra import twisted_commutator_subspace  # noqa: F401
from .complexes import ChainComplex
from .linalg import ColMap
from .small_complex import cs_twist


def _add_term(acc, key, coeff):
    if not coeff:
        return
    cur = acc.get(key)
    cur = coeff if cur is None else cur + coeff
    if cur:
        acc[key] = cur
    elif key in acc:
        del acc[key]


def _add_scaled(acc, terms, coeff):
    if not coeff:
        return
    for key, c in terms.items():
        _add_term(acc, key, coeff * c)


def _negated(terms):
    return {k: -v for k, v in terms.items()}


def middle_tuples(n, r):
    """All exponent tuples (i_1..i_r) with 1 <= i_j <= n-1, lexicographic."""
    return list(iproduct(range(1, n), repeat=r))


class MonomialTensor:
    """One monomial tensor lam x^{i_0} (x) x^{i_1} (x) ...; its degree is the
    exponent sum."""

    __slots__ = ("coefficient", "exponents")

    def __init__(self, coefficient, exponents):
        self.coefficient = coefficient
        self.exponents = tuple(exponents)

    @property
    def degree(self):
        return sum(self.exponents)

    def __repr__(self):
        return f"MonomialTensor({self.coefficient!r}, {self.exponents})"


NEG_INF = float("-inf")


def division_quotient_of_power(mono, s):
    """The quotient of x^s by f as an AElement (degree s-n < n assumed)."""
    field = mono.field
    K = mono.base
    if s < mono.n:
        return mono.zero_a()
    poly = [[field.zero] * K.dim for _ in range(s)] + [list(K.unit)]
    quot, _ = divide_by_f(mono, poly)
    if len(quot) > mono.n:
        raise ValueError(f"quotient of x^{s} does not fit in normal form")
    coeffs = [list(v) for v in quot]
    while len(coeffs) < mono.n:
        coeffs.append([field.zero] * K.dim)
    return AElement(mono, coeffs)


# ---------------------------------------------------------------------------
# Bar chain level: M (x) Abar^r (x)
# ---------------------------------------------------------------------------

def _block_quotient(M, s):
    """M/[M,K]_{alpha^s} as (free columns, per-column projection dicts)."""
    sq = commutator_quotient(M, s)
    rows = sq.projection.entries
    proj = [{qi: row[c] for qi, row in enumerate(rows) if row[c]} for c in range(M.dim)]
    return sq.free, proj


class BarSpace:
    """Based realization of M (x) Abar^r (x) as a sum of tuple blocks.

    Ambient basis: (tuple index, M basis index).  The block of a tuple t is
    divided only by its own twisted commutators [m, lam]_{alpha^s},
    s = sum(t) (the twist collected by pulling lam around the tail), so the
    quotient is computed once per distinct twist, on an M-sized block.  The
    spanning set is block-diagonal and RREF is unique, so the free columns,
    the projection and the order of quotient coordinates are those of one
    elimination over the whole ambient space: a quotient coordinate is the
    block offset plus the block-local free index.  The section is one-hot
    at the free columns, and no ambient-sized matrix is kept.
    """

    def __init__(self, mono, M, r):
        self.mono = mono
        self.M = M
        self.r = r
        self.tuples = middle_tuples(mono.n, r)
        self.tuple_index = {t: i for i, t in enumerate(self.tuples)}
        self.block = M.dim
        self.ambient_dim = len(self.tuples) * M.dim
        by_twist = {}
        self.block_proj = []    # per tuple: block column -> {block quotient index: entry}
        self.block_offset = []  # per tuple: its first quotient coordinate
        self.free_columns = []  # per quotient coordinate: its ambient column
        for ti, t in enumerate(self.tuples):
            s = sum(t)
            if s not in by_twist:
                by_twist[s] = _block_quotient(M, s)
            free, proj = by_twist[s]
            self.block_proj.append(proj)
            self.block_offset.append(len(self.free_columns))
            self.free_columns.extend(ti * M.dim + f for f in free)
        self.quotient_dim = len(self.free_columns)

    @property
    def space(self):
        """The quotient space, which is this object (``quotient_dim``, ``lift_vec``)."""
        return self

    def lift_vec(self, qvec):
        """Dense quotient vector -> dense ambient vector through the section."""
        if len(qvec) != self.quotient_dim:
            raise ValueError("vector length mismatch")
        out = [self.mono.field.zero] * self.ambient_dim
        for idx, c in zip(self.free_columns, qvec):
            out[idx] = c
        return out

    def flat(self, t, m_idx):
        return self.tuple_index[t] * self.block + m_idx

    def unflat(self, idx):
        ti, m_idx = divmod(idx, self.block)
        return self.tuples[ti], m_idx

    def project_terms(self, terms):
        """Ambient term dict -> quotient-coordinate term dict."""
        out = {}
        for idx, c in terms.items():
            ti, m_idx = divmod(idx, self.block)
            off = self.block_offset[ti]
            for qi, e in self.block_proj[ti][m_idx].items():
                _add_term(out, off + qi, e * c)
        return out

    def element_degree(self, terms):
        """Max degree over the monomial tensors of an ambient term dict.

        Needs M = A (the front exponent is read off the coefficient block).
        """
        deg = NEG_INF
        dimK = self.mono.base.dim
        for idx, c in terms.items():
            if not c:
                continue
            t, m_idx = self.unflat(idx)
            i0 = m_idx // dimK
            deg = max(deg, i0 + sum(t))
        return deg


class BarComplex:
    """The normalized relative chain complex of A with coefficients in M.

    ``grow`` extends it level by level in place; b_r and B_r read only
    levels up to r + 1, so cached maps stay valid.
    """

    def __init__(self, mono, M, max_r, is_regular=None):
        self.mono = mono
        self.M = M
        self.is_regular = (M.dim == mono.dim) if is_regular is None else is_regular
        self.spaces = []
        self._b = {}
        self._B = {}
        self.grow(max_r)

    @property
    def max_r(self):
        return len(self.spaces) - 1

    def grow(self, max_r):
        while len(self.spaces) <= max_r:
            self.spaces.append(BarSpace(self.mono, self.M, len(self.spaces)))

    def space(self, r):
        return self.spaces[r]

    def dim(self, r):
        return self.spaces[r].quotient_dim

    def _b_ambient_column(self, r, t, m_idx):
        """b of the pure tensor m (x) x^{t_1} (x) ... as ambient terms at r-1."""
        mono = self.mono
        M = self.M
        tgt = self.spaces[r - 1]
        field = mono.field
        mvec = [field.zero] * M.dim
        mvec[m_idx] = field.one
        acc = {}
        # face 0: multiply m by x^{i_1} on the right
        m1 = M.right_x_pow(t[0], mvec)
        rest = t[1:]
        for i, c in enumerate(m1):
            if c:
                _add_term(acc, tgt.flat(rest, i), c)
        # faces 1..r-1: merge adjacent Abar slots, coefficients land on m
        for j in range(0, r - 1):
            s = t[j] + t[j + 1]
            xred = mono.x_power_reduced(s)
            pre = sum(t[:j])
            negative = (j + 1) % 2 == 1
            for tpow in range(1, mono.n):
                kv = xred.coeffs[tpow]
                if vec_is_zero(kv):
                    continue
                pushed = mono.alpha_apply(pre, kv)
                newt = t[:j] + (tpow,) + t[j + 2:]
                mv = M.right_k_vec(pushed, mvec)
                for i, c in enumerate(mv):
                    if c:
                        _add_term(acc, tgt.flat(newt, i), -c if negative else c)
        # face r: wrap x^{i_r} around to the left of m
        negative = r % 2 == 1
        mw = M.left_x_pow(t[-1], mvec)
        lead = t[:-1]
        for i, c in enumerate(mw):
            if c:
                _add_term(acc, tgt.flat(lead, i), -c if negative else c)
        return acc

    def b(self, r):
        """Boundary b_r in quotient coordinates."""
        got = self._b.get(r)
        if got is not None:
            return got
        src = self.spaces[r]
        tgt = self.spaces[r - 1]
        out = ColMap(self.mono.field, tgt.quotient_dim, src.quotient_dim)
        for qj, idx in enumerate(src.free_columns):
            out.set_col(qj, tgt.project_terms(self._b_ambient_column(r, *src.unflat(idx))))
        self._b[r] = out
        return out

    def chain_complex(self, max_r=None):
        max_r = self.max_r if max_r is None else max_r
        return ChainComplex(
            self.mono.field,
            [self.space(r) for r in range(max_r + 1)],
            {r: self.b(r) for r in range(1, max_r + 1)},
        )

    def _B_ambient_column(self, r, t, m_idx):
        """Cyclic operator on a pure tensor; front K-parts die, x-parts cycle."""
        mono = self.mono
        if not self.is_regular:
            raise ValueError("the cyclic operator needs coefficients M = A")
        tgt = self.spaces[r + 1]
        i0, kappa = divmod(m_idx, mono.base.dim)
        acc = {}
        if i0 == 0:
            return acc
        kv = mono.base.basis_vector(kappa)
        for i in range(0, r + 1):
            negative = (i * r) % 2 == 1
            if i == 0:
                newt = (i0,) + t
                pushed = kv
            else:
                tail = t[i - 1:]
                newt = tail + (i0,) + t[:i - 1]
                pushed = mono.alpha_apply(sum(tail), kv)
            for kp, c in enumerate(pushed):
                if c:
                    idx = tgt.flat(newt, mono.index(0, kp))
                    _add_term(acc, idx, -c if negative else c)
        return acc

    def connes_B(self, r):
        got = self._B.get(r)
        if got is not None:
            return got
        src = self.spaces[r]
        tgt = self.spaces[r + 1]
        out = ColMap(self.mono.field, tgt.quotient_dim, src.quotient_dim)
        for qj, idx in enumerate(src.free_columns):
            out.set_col(qj, tgt.project_terms(self._B_ambient_column(r, *src.unflat(idx))))
        self._B[r] = out
        return out


# ---------------------------------------------------------------------------
# Resolution level: twisted bimodule spaces A (x) A
# ---------------------------------------------------------------------------

class ResolutionSpace:
    """A_{alpha^j} (x) A as a based k-space: basis mu_k x^p (x) x^q."""

    def __init__(self, mono, r):
        self.mono = mono
        self.r = r
        self.twist = cs_twist(mono.n, r)
        self.dimK = mono.base.dim
        self.n = mono.n
        self.dim = self.dimK * self.n * self.n

    def flat(self, kappa, p, q):
        return (q * self.n + p) * self.dimK + kappa

    def unflat(self, idx):
        rest, kappa = divmod(idx, self.dimK)
        q, p = divmod(rest, self.n)
        return kappa, p, q

    def left_mul_a(self, a, terms):
        """Multiply the left factor by a in A."""
        mono = self.mono
        out = {}
        for idx, c in terms.items():
            kappa, p, q = self.unflat(idx)
            front = a * mono.a_from_kvec(mono.base.basis_vector(kappa), p)
            for pp, kv in enumerate(front.coeffs):
                for kp, e in enumerate(kv):
                    if e:
                        _add_term(out, self.flat(kp, pp, q), c * e)
        return out

    def right_mul_x(self, terms):
        """Multiply the right factor by x; reductions pass through the twist."""
        mono = self.mono
        out = {}
        for idx, c in terms.items():
            kappa, p, q = self.unflat(idx)
            if q + 1 < self.n:
                _add_term(out, self.flat(kappa, p, q + 1), c)
                continue
            xred = mono.x_power_reduced(q + 1)
            front = mono.a_from_kvec(mono.base.basis_vector(kappa), p)
            for t in range(self.n):
                kv = xred.coeffs[t]
                if vec_is_zero(kv):
                    continue
                fa = front.k_right(mono.alpha_apply(self.twist, kv))
                for pp, fkv in enumerate(fa.coeffs):
                    for kp, e in enumerate(fkv):
                        if e:
                            _add_term(out, self.flat(kp, pp, t), c * e)
        return out

    def generated_map(self, gen_terms, target):
        """Extend target-valued generator terms to a bimodule-map ColMap.

        ``gen_terms`` is the image of 1 (x) 1 inside ``target``; the column
        for mu_k x^p (x) x^q is mu_k x^p . gen . x^q.
        """
        mono = self.mono
        out = ColMap(mono.field, target.dim, self.dim)
        cache = {}
        for idx in range(self.dim):
            kappa, p, q = self.unflat(idx)
            left = cache.get((kappa, p))
            if left is None:
                a = mono.a_from_kvec(mono.base.basis_vector(kappa), p)
                left = target.left_mul_a(a, gen_terms)
                cache[(kappa, p)] = left
            terms = left
            for _ in range(q):
                terms = target.right_mul_x(terms)
            out.set_col(idx, terms)
        return out


class ResolutionComplex:
    """The twisted two-periodic resolution with its boundaries d'."""

    def __init__(self, mono, max_r):
        self.mono = mono
        self.spaces = []
        self._d = {}
        self.grow(max_r)

    @property
    def max_r(self):
        return len(self.spaces) - 1

    def grow(self, max_r):
        while len(self.spaces) <= max_r:
            self.spaces.append(ResolutionSpace(self.mono, len(self.spaces)))

    def dim(self, r):
        return self.spaces[r].dim

    def d_generator(self, r):
        """Image of 1 (x) 1 under d'_r, as terms in the target space."""
        mono = self.mono
        tgt = self.spaces[r - 1]
        gen = {}
        if r % 2 == 1:
            # x (x) 1 - 1 (x) x
            for kappa, c in enumerate(mono.base.unit):
                if c:
                    _add_term(gen, tgt.flat(kappa, 1, 0), c)
                    _add_term(gen, tgt.flat(kappa, 0, 1), -c)
        else:
            # sum_i lam_{n-i} sum_l x^l (x) x^{i-l-1}
            for i in range(1, mono.n + 1):
                lam = mono.f_coefficient(mono.n - i)
                if vec_is_zero(lam):
                    continue
                for ell in range(i):
                    for kappa, c in enumerate(lam):
                        if c:
                            _add_term(gen, tgt.flat(kappa, ell, i - ell - 1), c)
        return gen

    def d(self, r):
        got = self._d.get(r)
        if got is not None:
            return got
        out = self.spaces[r].generated_map(self.d_generator(r), self.spaces[r - 1])
        self._d[r] = out
        return out


# ---------------------------------------------------------------------------
# Bar resolution level: A (x) Abar^r (x) A
# ---------------------------------------------------------------------------

class BarResSpace:
    """Based k-space A (x) Abar^r (x) A; keys (kappa, i0, mid tuple, q)."""

    def __init__(self, mono, r):
        self.mono = mono
        self.r = r
        self.n = mono.n
        self.dimK = mono.base.dim
        self.tuples = middle_tuples(mono.n, r)
        self.tuple_index = {t: i for i, t in enumerate(self.tuples)}
        self.block = self.dimK * self.n * self.n
        self.dim = len(self.tuples) * self.block

    def flat(self, kappa, i0, t, q):
        return self.tuple_index[t] * self.block + (q * self.n + i0) * self.dimK + kappa

    def unflat(self, idx):
        ti, rest = divmod(idx, self.block)
        qi0, kappa = divmod(rest, self.dimK)
        q, i0 = divmod(qi0, self.n)
        return kappa, i0, self.tuples[ti], q

    def left_mul_a(self, a, terms):
        mono = self.mono
        out = {}
        for idx, c in terms.items():
            kappa, i0, t, q = self.unflat(idx)
            front = a * mono.a_from_kvec(mono.base.basis_vector(kappa), i0)
            for pp, kv in enumerate(front.coeffs):
                for kp, e in enumerate(kv):
                    if e:
                        _add_term(out, self.flat(kp, pp, t, q), c * e)
        return out

    def right_mul_x(self, terms):
        mono = self.mono
        out = {}
        for idx, c in terms.items():
            kappa, i0, t, q = self.unflat(idx)
            if q + 1 < self.n:
                _add_term(out, self.flat(kappa, i0, t, q + 1), c)
                continue
            xred = mono.x_power_reduced(q + 1)
            shift = sum(t)
            front = mono.a_from_kvec(mono.base.basis_vector(kappa), i0)
            for tp in range(self.n):
                kv = xred.coeffs[tp]
                if vec_is_zero(kv):
                    continue
                fa = front.k_right(mono.alpha_apply(shift, kv))
                for pp, fkv in enumerate(fa.coeffs):
                    for kp, e in enumerate(fkv):
                        if e:
                            _add_term(out, self.flat(kp, pp, t, tp), c * e)
        return out

    def element_degree(self, terms):
        deg = NEG_INF
        for idx, c in terms.items():
            if not c:
                continue
            kappa, i0, t, q = self.unflat(idx)
            deg = max(deg, i0 + sum(t) + q)
        return deg


class BarResolution:
    """Normalized bar resolution with b', comparison maps and the homotopy.

    ``grow`` extends it, with its twisted resolution, level by level in
    place; b'_r, phi'_r, psi'_r and omega'_r read only levels up to r, so
    cached maps stay valid.
    """

    def __init__(self, mono, max_r):
        self.mono = mono
        self.spaces = []
        self.resolution = ResolutionComplex(mono, max_r)
        self._bprime = {}
        self._phi = {}
        self._psi = {}
        self._omega = {}
        self.grow(max_r)

    @property
    def max_r(self):
        return len(self.spaces) - 1

    def grow(self, max_r):
        self.resolution.grow(max_r)
        while len(self.spaces) <= max_r:
            self.spaces.append(BarResSpace(self.mono, len(self.spaces)))

    def dim(self, r):
        return self.spaces[r].dim

    # -- b' --------------------------------------------------------------------

    def _bprime_column(self, r, kappa, i0, t, q):
        mono = self.mono
        tgt = self.spaces[r - 1]
        field = mono.field
        col = {}
        # face 0: front times x^{i_1}
        front = mono.a_from_kvec(mono.base.basis_vector(kappa), i0) * mono.x_power_reduced(t[0])
        for pp, kv in enumerate(front.coeffs):
            for kp, e in enumerate(kv):
                if e:
                    _add_term(col, tgt.flat(kp, pp, t[1:], q), e)
        # middle faces
        for j in range(0, r - 1):
            s = t[j] + t[j + 1]
            xred = mono.x_power_reduced(s)
            pre = sum(t[:j])
            negative = (j + 1) % 2 == 1
            base_front = mono.a_from_kvec(mono.base.basis_vector(kappa), i0)
            for tp in range(1, mono.n):
                kv = xred.coeffs[tp]
                if vec_is_zero(kv):
                    continue
                fa = base_front.k_right(mono.alpha_apply(pre, kv))
                newt = t[:j] + (tp,) + t[j + 2:]
                for pp, fkv in enumerate(fa.coeffs):
                    for kp, e in enumerate(fkv):
                        if e:
                            _add_term(col, tgt.flat(kp, pp, newt, q), -e if negative else e)
        # last face: right factor times x^{i_r}
        negative = r % 2 == 1
        base = {tgt.flat(kappa, i0, t[:-1], q): field.one}
        for _ in range(t[-1]):
            base = tgt.right_mul_x(base)
        _add_scaled(col, base, -field.one if negative else field.one)
        return col

    def bprime(self, r):
        got = self._bprime.get(r)
        if got is not None:
            return got
        src = self.spaces[r]
        out = ColMap(self.mono.field, self.spaces[r - 1].dim, src.dim)
        for idx in range(src.dim):
            kappa, i0, t, q = src.unflat(idx)
            out.set_col(idx, self._bprime_column(r, kappa, i0, t, q))
        self._bprime[r] = out
        return out

    # -- comparison maps ----------------------------------------------------------

    def _phi_generator(self, r):
        """phi'_r(1 (x) 1) as a term dict at level r."""
        mono = self.mono
        sp = self.spaces[r]
        n = mono.n
        m, odd = divmod(r, 2)
        acc = {}
        if r == 0:
            for kappa, c in enumerate(mono.base.unit):
                if c:
                    acc[sp.flat(kappa, 0, (), 0)] = c
            return acc
        for ivec in iproduct(range(1, n + 1), repeat=m):
            if any(i == 1 for i in ivec):
                continue  # the inner l-range 1 <= l < i is empty
            lam = list(mono.base.unit)
            for i in ivec:
                lam = mono.base.mul_vec(lam, mono.f_coefficient(n - i))
            if vec_is_zero(lam):
                continue
            for ell in iproduct(*[range(1, i) for i in ivec]):
                e = sum(i - l for i, l in zip(ivec, ell)) - m
                front = mono.a_from_kvec(lam, 0) * mono.x_power_reduced(e)
                mid = ()
                for j in range(m - 1, -1, -1):
                    mid += (1, ell[j])
                if odd:
                    mid += (1,)
                for pp, kv in enumerate(front.coeffs):
                    for kp, c in enumerate(kv):
                        if c:
                            _add_term(acc, sp.flat(kp, pp, mid, 0), c)
        return acc

    def phi(self, r):
        """phi'_r: twisted resolution -> bar resolution."""
        got = self._phi.get(r)
        if got is not None:
            return got
        out = self.resolution.spaces[r].generated_map(self._phi_generator(r), self.spaces[r])
        self._phi[r] = out
        return out

    def _psi_tuple(self, r, t):
        """psi'_r(1 (x) x^{i_1} (x) .. (x) 1) as terms in the resolution space."""
        mono = self.mono
        rsp = self.resolution.spaces[r]
        m, odd = divmod(r, 2)
        prod = mono.one_a()
        for j in range(m):
            s = t[2 * j] + t[2 * j + 1]
            quot = division_quotient_of_power(mono, s)
            prod = prod * quot
            if prod.is_zero():
                return {}
        acc = {}
        if not odd:
            for pp, kv in enumerate(prod.coeffs):
                for kp, c in enumerate(kv):
                    if c:
                        _add_term(acc, rsp.flat(kp, pp, 0), c)
            return acc
        i_last = t[-1]
        for ell in range(i_last):
            left = prod * mono.x_power_reduced(ell)
            for pp, kv in enumerate(left.coeffs):
                for kp, c in enumerate(kv):
                    if c:
                        _add_term(acc, rsp.flat(kp, pp, i_last - ell - 1), c)
        return acc

    def psi(self, r):
        """psi'_r: bar resolution -> twisted resolution."""
        got = self._psi.get(r)
        if got is not None:
            return got
        mono = self.mono
        rsp = self.resolution.spaces[r]
        bsp = self.spaces[r]
        out = ColMap(mono.field, rsp.dim, bsp.dim)
        cache = {}
        for idx in range(bsp.dim):
            kappa, i0, t, q = bsp.unflat(idx)
            base = cache.get(t)
            if base is None:
                base = self._psi_tuple(r, t)
                cache[t] = base
            terms = rsp.left_mul_a(mono.a_from_kvec(mono.base.basis_vector(kappa), i0), base)
            for _ in range(q):
                terms = rsp.right_mul_x(terms)
            out.set_col(idx, terms)
        self._psi[r] = out
        return out

    # -- homotopy -------------------------------------------------------------------

    def omega_generator(self, r, t):
        """omega'_r(1 (x) x^{t_1} (x) .. (x) 1) as a term dict at level r."""
        mono = self.mono
        om = self.omega(r)
        src = self.spaces[r - 1]
        acc = {}
        for kappa, c in enumerate(mono.base.unit):
            if c:
                _add_scaled(acc, om.cols[src.flat(kappa, 0, t, 0)], c)
        return acc

    def _shift(self, r, terms):
        """(..) (x) 1: move the right A-factor into an Abar slot, append 1."""
        tgt = self.spaces[r + 1]
        src = self.spaces[r]
        out = {}
        for idx, c in terms.items():
            kappa, i0, t, q = src.unflat(idx)
            if q == 0:
                continue
            _add_term(out, tgt.flat(kappa, i0, t + (q,), 0), c)
        return out

    def omega(self, r):
        """omega'_r: level r-1 -> level r homotopy (omega'_1 = 0).

        Recursion on elements with 1 in the last slot, extended by right
        A-linearity; coefficients of the output never gain x-degree, which
        is the content of the degree bound this module verifies.
        """
        got = self._omega.get(r)
        if got is not None:
            return got
        mono = self.mono
        src = self.spaces[r - 1]
        tgt = self.spaces[r]
        out = ColMap(mono.field, tgt.dim, src.dim)
        if r == 1:
            self._omega[1] = out
            return out
        rr = r - 1  # build omega'_{rr+1} out of level-rr data
        # Relative comparison-theorem construction: on the bimodule
        # generators 1 (x) x^t (x) 1 set
        #     omega' = s . (phi'psi' - id - omega'_prev b')
        # with the signed right shift s(y) = (-1)^(deg+1) (y (x) 1), which
        # contracts b' above degree 0; then extend as a bimodule map.  The
        # bimodule extension is what makes the coefficient-level transfer
        # via m (x)_{A^e} - legitimate.
        phi_psi = self.phi(rr).compose(self.psi(rr))
        omega_prev = self.omega(rr)
        bprev = self.bprime(rr)
        negative = (rr + 1) % 2 == 1
        one = mono.field.one
        genvals = {}
        for t in src.tuples:
            gen = {}
            for kappa, c in enumerate(mono.base.unit):
                if c:
                    _add_term(gen, src.flat(kappa, 0, t, 0), c)
            D = {}
            for idx, c in gen.items():
                _add_scaled(D, phi_psi.cols[idx], c)
            _add_scaled(D, gen, -one)
            bg = {}
            for idx, c in gen.items():
                _add_scaled(bg, bprev.cols[idx], c)
            _add_scaled(D, omega_prev.apply(bg), -one)
            val = self._shift(rr, D)
            if negative:
                val = _negated(val)
            genvals[t] = val
        for idx in range(src.dim):
            kappa, i0, t, q = src.unflat(idx)
            col = tgt.left_mul_a(mono.a_from_kvec(mono.base.basis_vector(kappa), i0), genvals[t])
            for _ in range(q):
                col = tgt.right_mul_x(col)
            out.set_col(idx, col)
        self._omega[r] = out
        return out


# ---------------------------------------------------------------------------
# Maps induced on coefficients: the small complex against the bar complex
# ---------------------------------------------------------------------------

class InducedComparison:
    """phi/psi/omega between C^S(A,M) and the normalized chain complex.

    Reads the ``BarComplex`` ``bar``, the small complex ``cs`` and the
    ``BarResolution`` ``barres`` in place; ``Workspace.comparison`` grows
    all three.  All maps are returned in quotient coordinates, and cached
    maps stay valid as the inputs grow.
    """

    def __init__(self, mono, M, bar, cs, barres):
        self.mono = mono
        self.M = M
        self.bar = bar
        self.cs = cs
        self.barres = barres
        self._phi = {}
        self._psi = {}
        self._omega = {}

    def _phi_ambient(self, r, m_idx):
        """phi_r of the pure class [m]; ambient bar terms."""
        mono = self.mono
        M = self.M
        sp = self.bar.spaces[r]
        n = mono.n
        m, odd = divmod(r, 2)
        field = mono.field
        mvec = [field.zero] * M.dim
        mvec[m_idx] = field.one
        acc = {}
        for ivec in iproduct(range(1, n + 1), repeat=m):
            if any(i == 1 for i in ivec):
                continue
            lam = list(mono.base.unit)
            for i in ivec:
                lam = mono.base.mul_vec(lam, mono.f_coefficient(n - i))
            if vec_is_zero(lam):
                continue
            for ell in iproduct(*[range(1, i) for i in ivec]):
                e = sum(i - l for i, l in zip(ivec, ell)) - m
                xe = mono.x_power_reduced(e)
                mv = M.left_k_vec(lam, M.right_a_vec(xe, mvec))
                mid = ()
                for j in range(m - 1, -1, -1):
                    mid += (1, ell[j])
                if odd:
                    mid += (1,)
                for i, c in enumerate(mv):
                    if c:
                        _add_term(acc, sp.flat(mid, i), c)
        return acc

    def phi(self, r):
        got = self._phi.get(r)
        if got is not None:
            return got
        src = self.cs.spaces[r]
        tgt = self.bar.spaces[r]
        out = ColMap(self.mono.field, tgt.quotient_dim, src.quotient_dim)
        for qj, m_idx in enumerate(src.free):
            out.set_col(qj, tgt.project_terms(self._phi_ambient(r, m_idx)))
        self._phi[r] = out
        return out

    def _psi_ambient(self, r, t, m_idx):
        """psi_r of the pure tensor [m (x) x^{t_1} ..]; dense M-vector."""
        mono = self.mono
        M = self.M
        field = mono.field
        m, odd = divmod(r, 2)
        mvec = [field.zero] * M.dim
        mvec[m_idx] = field.one
        prod = mono.one_a()
        for j in range(m):
            prod = prod * division_quotient_of_power(mono, t[2 * j] + t[2 * j + 1])
            if prod.is_zero():
                return [field.zero] * M.dim
        base = M.right_a_vec(prod, mvec)
        if not odd:
            return base
        out = [field.zero] * M.dim
        i_last = t[-1]
        for ell in range(i_last):
            term = M.left_x_pow(i_last - ell - 1, M.right_x_pow(ell, base))
            out = [a + b for a, b in zip(out, term)]
        return out

    def psi(self, r):
        got = self._psi.get(r)
        if got is not None:
            return got
        src = self.bar.spaces[r]
        tgt = self.cs.spaces[r]
        out = ColMap(self.mono.field, tgt.quotient_dim, src.quotient_dim)
        for qj, idx in enumerate(src.free_columns):
            qcol = tgt.projection.apply(self._psi_ambient(r, *src.unflat(idx)))
            out.set_col(qj, {i: e for i, e in enumerate(qcol) if e})
        self._psi[r] = out
        return out

    def _omega_ambient(self, r, t, m_idx):
        """omega_{r+1} of a pure tensor via the resolution homotopy and the
        wrap-around m (x)_{A^e} -: terms at bar level r+1."""
        mono = self.mono
        M = self.M
        field = mono.field
        gen = self.barres.omega_generator(r + 1, t)
        sp_res = self.barres.spaces[r + 1]
        tgt = self.bar.spaces[r + 1]
        mvec = [field.zero] * M.dim
        mvec[m_idx] = field.one
        acc = {}
        for idx, c in gen.items():
            kappa, i0, mid, q = sp_res.unflat(idx)
            mv = M.left_x_pow(q, M.right_x_pow(i0, M.right_k_vec(mono.base.basis_vector(kappa), mvec)))
            for i, e in enumerate(mv):
                if e:
                    _add_term(acc, tgt.flat(mid, i), c * e)
        return acc

    def omega(self, r):
        """omega_{r+1}: bar level r -> bar level r+1 (key r)."""
        got = self._omega.get(r)
        if got is not None:
            return got
        src = self.bar.spaces[r]
        tgt = self.bar.spaces[r + 1]
        out = ColMap(self.mono.field, tgt.quotient_dim, src.quotient_dim)
        for qj, idx in enumerate(src.free_columns):
            out.set_col(qj, tgt.project_terms(self._omega_ambient(r, *src.unflat(idx))))
        self._omega[r] = out
        return out
