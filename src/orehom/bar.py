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
scalars.  Every map is a ``ColMap.lazy`` over one column function, kept per
level: a column is built the first time something reads it, so applying a
map to a vector builds only the columns in its support, and a whole-map
reader builds every column through the same function.  The bimodule maps
of the resolutions come from ``_TensorBlocks.generated_map``, one
generator value per middle block.
"""

from __future__ import annotations

from functools import wraps
from itertools import product as iproduct

from .algebra import commutator_quotient, vec_is_zero
# bound by name for perfbench/tracer.py, which wraps twisted_commutator_subspace
# in every module namespace that holds it (its tests read this binding)
from .algebra import twisted_commutator_subspace  # noqa: F401
from .complexes import ChainComplex
from .linalg import ColMap, SubquotientSpace, add_term, sub_terms
from .small_complex import cs_twist


def _add_at(acc, base, items, negative=False):
    """acc += items shifted by ``base`` (negated if asked), dropping zeros."""
    for i, c in items:
        add_term(acc, base + i, -c if negative else c)


def _memo(build):
    """Method decorator: ``build(self, *args)`` runs once per object and
    arguments; later calls return the kept value."""
    name = build.__name__

    @wraps(build)
    def get(self, *args):
        kept = self.__dict__.setdefault("_kept", {})
        got = kept.get((name, args))
        if got is None:
            got = kept[name, args] = build(self, *args)
        return got

    return get


def _quotient_map(src, tgt, ambient):
    """The lazy map of quotient spaces whose column qj projects
    ``ambient(src.free[qj])``, the image of that ambient basis vector."""
    return ColMap.lazy(tgt.field, tgt.quotient_dim, src.quotient_dim,
                       lambda qj: tgt.project_terms(ambient(src.free[qj])))


def _phi_terms(mono, r):
    """The terms of the comparison map phi_r on a generator, as triples
    (lam, e, mid): lam x^e in the front slot and the exponents ``mid`` of
    the middle slots, from the expansion of f in every second slot."""
    n = mono.n
    m, odd = divmod(r, 2)
    # an i of 1 gives an empty l-range 1 <= l < i
    for ivec in iproduct(range(2, n + 1), repeat=m):
        lam = list(mono.base.unit)
        for i in ivec:
            lam = mono.base.mul_vec(lam, mono.f_coefficient(n - i))
        if vec_is_zero(lam):
            continue
        for ell in iproduct(*[range(1, i) for i in ivec]):
            mid = sum(((1, l) for l in reversed(ell)), ()) + (1,) * odd
            yield lam, sum(ivec) - sum(ell) - m, mid


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


# ---------------------------------------------------------------------------
# Bar chain level: M (x) Abar^r (x)
# ---------------------------------------------------------------------------

class BarSpace:
    """Based realization of M (x) Abar^r (x) as a sum of tuple blocks.

    Ambient basis: (tuple index, M basis index).  The block of a tuple t is
    divided only by its own twisted commutators [m, lam]_{alpha^s},
    s = sum(t) (the twist collected by pulling lam around the tail), so the
    quotient is computed once per class of alpha^s (``mono.twist``), on an
    M-sized block, and shared with C^S through ``commutator_quotient``.  The
    spanning set is block-diagonal and RREF is unique, so the free columns,
    the projection and the order of quotient coordinates are those of one
    elimination over the whole ambient space: a quotient coordinate is the
    block offset plus the block-local free index.  Each block keeps the
    sparse projection columns of its quotient, and lifting puts quotient
    coordinates at the free columns, as for a ``SubquotientSpace``.
    """

    def __init__(self, mono, M, r):
        self.mono = mono
        self.field = mono.field
        self.M = M
        self.r = r
        self.tuples = middle_tuples(mono.n, r)
        self.tuple_index = {t: i for i, t in enumerate(self.tuples)}
        self.block = M.dim
        self.ambient_dim = len(self.tuples) * M.dim
        self.block_proj = []    # per tuple: block column -> {block quotient index: entry}
        self.block_offset = []  # per tuple: its first quotient coordinate
        self.free = []          # per quotient coordinate: its ambient column
        for ti, t in enumerate(self.tuples):
            sq = commutator_quotient(M, sum(t))
            self.block_proj.append(sq.proj_cols)
            self.block_offset.append(len(self.free))
            self.free.extend(ti * M.dim + f for f in sq.free)
        self.quotient_dim = len(self.free)

    @property
    def space(self):
        """The quotient space, which is this object (``quotient_dim``, ``lift_vec``)."""
        return self

    lift_vec = SubquotientSpace.lift_vec

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
                add_term(out, off + qi, e * c)
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
    levels up to r + 1, so kept maps stay valid.
    """

    def __init__(self, mono, M, max_r):
        self.mono = mono
        self.M = M
        self.spaces = []
        self._merged = {}  # (s, class of alpha^pre) -> see ``_merged_slot``
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

    def _merged_slot(self, s, pre):
        """The nonzero terms c_tpow x^tpow (tpow >= 1) of x^s in A as pairs
        (tpow, alpha^pre(c_tpow)): c_tpow is pulled onto the coefficient
        through x^pre.  Kept once per (s, class of alpha^pre)."""
        mono = self.mono
        key = (s, mono.twist(pre))
        got = self._merged.get(key)
        if got is None:
            xred = mono.x_power_reduced(s)
            got = self._merged[key] = [
                (tpow, mono.alpha_apply(pre, xred.coeffs[tpow]))
                for tpow in range(1, mono.n)
                if not vec_is_zero(xred.coeffs[tpow])
            ]
        return got

    def _b_ambient_column(self, r, idx):
        """b of the pure tensor m (x) x^{t_1} (x) ... at ambient index ``idx``
        as ambient terms at r-1."""
        M = self.M
        tgt = self.spaces[r - 1]
        t, m_idx = self.spaces[r].unflat(idx)
        m = {m_idx: self.mono.field.one}
        acc = {}
        # face 0: multiply m by x^{i_1} on the right
        _add_at(acc, tgt.flat(t[1:], 0), M.x_terms("right", t[0], m).items())
        # faces 1..r-1: merge adjacent Abar slots, coefficients land on m
        for j in range(0, r - 1):
            for tpow, kv in self._merged_slot(t[j] + t[j + 1], sum(t[:j])):
                _add_at(acc, tgt.flat(t[:j] + (tpow,) + t[j + 2:], 0),
                        M.k_terms("right", kv, m).items(), (j + 1) % 2 == 1)
        # face r: wrap x^{i_r} around to the left of m
        _add_at(acc, tgt.flat(t[:-1], 0), M.x_terms("left", t[-1], m).items(), r % 2 == 1)
        return acc

    @_memo
    def b(self, r):
        """Boundary b_r in quotient coordinates."""
        return _quotient_map(self.spaces[r], self.spaces[r - 1], lambda idx: self._b_ambient_column(r, idx))

    def chain_complex(self, max_r=None):
        max_r = self.max_r if max_r is None else max_r
        return ChainComplex(
            self.mono.field,
            [self.space(r) for r in range(max_r + 1)],
            {r: self.b(r) for r in range(1, max_r + 1)},
        )

    def _B_ambient_column(self, r, idx):
        """Cyclic operator on a pure tensor; front K-parts die, x-parts cycle."""
        mono = self.mono
        tgt = self.spaces[r + 1]
        t, m_idx = self.spaces[r].unflat(idx)
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

    @_memo
    def connes_B(self, r):
        if not self.M.is_regular:
            raise ValueError("the cyclic operator needs coefficients M = A")
        return _quotient_map(self.spaces[r], self.spaces[r + 1], lambda idx: self._B_ambient_column(r, idx))


# ---------------------------------------------------------------------------
# Resolution level: twisted bimodule spaces A (x) A
# ---------------------------------------------------------------------------

class _TensorBlocks:
    """Shared arithmetic of A_{alpha^s} (x) [middle] (x) A spaces.

    A flat index is ``block * n * dim A + q * dim A + j``: j is the flat
    coordinate of the left factor e_j = mu_k x^p, q the right factor x^q,
    and the block fixes the middle, whose x-degree s twists the right
    factor's coefficients on their way to the front.  Subclasses set
    ``mono``, ``dim`` and ``overflow`` (per block, ``mono.x_overflow(s)``).
    """

    def left_mul_monomial(self, j, terms):
        """Multiply the left factor by the basis monomial e_j of A."""
        dim_a = self.mono.dim
        row = self.mono.mul_table()[j]
        out = {}
        for idx, c in terms.items():
            front = idx % dim_a
            base = idx - front
            for k, e in row[front].items():
                add_term(out, base + k, c * e)
        return out

    def right_mul_x(self, terms):
        """Multiply the right factor by x; reductions pass through the twist."""
        dim_a = self.mono.dim
        block = self.mono.n * dim_a
        top = block - dim_a
        out = {}
        for idx, c in terms.items():
            b, rest = divmod(idx, block)
            if rest < top:
                add_term(out, idx + dim_a, c)
                continue
            base = b * block
            for k, e in self.overflow[b][rest - top].items():
                add_term(out, base + k, c * e)
        return out

    def generated_map(self, generator, target):
        """The bimodule map from this space to ``target`` whose value on the
        generator 1 (x) [middle of block b] (x) 1 is the term dict
        ``generator(b)``, read once per block.

        The column of e_j (x) [middle] (x) x^q is e_j . gen . x^q; for q > 0
        it is the column one index of dim A back, times x.
        """
        dim_a = self.mono.dim
        block = self.mono.n * dim_a
        gens = {}

        def column(idx):
            b, rest = divmod(idx, block)
            if rest >= dim_a:
                return target.right_mul_x(out.cols[idx - dim_a])
            gen = gens.get(b)
            if gen is None:
                gen = gens[b] = generator(b)
            return target.left_mul_monomial(rest, gen)

        out = ColMap.lazy(self.mono.field, target.dim, self.dim, column)
        return out


class ResolutionSpace(_TensorBlocks):
    """A_{alpha^j} (x) A as a based k-space: basis mu_k x^p (x) x^q."""

    def __init__(self, mono, r):
        self.mono = mono
        self.r = r
        self.twist = cs_twist(mono.n, r)
        self.dimK = mono.base.dim
        self.n = mono.n
        self.dim = self.dimK * self.n * self.n
        self.overflow = [mono.x_overflow(self.twist)]

    def flat(self, kappa, p, q):
        return (q * self.n + p) * self.dimK + kappa

    def unflat(self, idx):
        rest, kappa = divmod(idx, self.dimK)
        q, p = divmod(rest, self.n)
        return kappa, p, q


class ResolutionComplex:
    """The twisted two-periodic resolution with its boundaries d'."""

    def __init__(self, mono, max_r):
        self.mono = mono
        self.spaces = []
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
                    add_term(gen, tgt.flat(kappa, 1, 0), c)
                    add_term(gen, tgt.flat(kappa, 0, 1), -c)
        else:
            # sum_i lam_{n-i} sum_l x^l (x) x^{i-l-1}
            for i in range(1, mono.n + 1):
                lam = mono.f_coefficient(mono.n - i)
                if vec_is_zero(lam):
                    continue
                for ell in range(i):
                    for kappa, c in enumerate(lam):
                        if c:
                            add_term(gen, tgt.flat(kappa, ell, i - ell - 1), c)
        return gen

    @_memo
    def d(self, r):
        return self.spaces[r].generated_map(lambda b: self.d_generator(r), self.spaces[r - 1])


# ---------------------------------------------------------------------------
# Bar resolution level: A (x) Abar^r (x) A
# ---------------------------------------------------------------------------

class BarResSpace(_TensorBlocks):
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
        self.overflow = [mono.x_overflow(sum(t)) for t in self.tuples]

    def offset(self, t, q):
        """Flat index of e_0 (x) x^t (x) x^q; add the left factor's coordinate."""
        return self.tuple_index[t] * self.block + q * self.mono.dim

    def flat(self, kappa, i0, t, q):
        return self.offset(t, q) + self.mono.index(i0, kappa)

    def unflat(self, idx):
        ti, rest = divmod(idx, self.block)
        qi0, kappa = divmod(rest, self.dimK)
        q, i0 = divmod(qi0, self.n)
        return kappa, i0, self.tuples[ti], q

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
    kept maps stay valid.
    """

    def __init__(self, mono, max_r):
        self.mono = mono
        self.spaces = []
        self.resolution = ResolutionComplex(mono, max_r)
        self._faces = {}
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

    def _face_terms(self, j, s, pre):
        """The front and middle-slot parts of e_j (x) x^s in A (x) Abar.

        pre None: e_j x^s, all of it in the front, as {front coordinate:
        scalar}.  Otherwise x^s = sum_tp c_tp x^tp in A splits into the
        middle slot x^tp (tp >= 1; the K-valued part vanishes in Abar) and
        c_tp, pulled to the front through alpha^pre: {tp: {front coordinate:
        scalar}}.  Cached per (j, s, class of alpha^pre).
        """
        mono = self.mono
        key = (j, s, None if pre is None else mono.twist(pre))
        got = self._faces.get(key)
        if got is None:
            front = [(j, mono.field.one)]
            xred = mono.x_power_reduced(s)
            if pre is None:
                got = mono.multiply(front, xred.items())
            else:
                got = {}
                for tp in range(1, mono.n):
                    pushed = [(mu, c) for mu, c in enumerate(mono.alpha_apply(pre, xred.coeffs[tp])) if c]
                    if pushed:
                        got[tp] = mono.multiply(front, pushed)
            self._faces[key] = got
        return got

    def _bprime_column(self, r, idx):
        """b' of e_j (x) x^{t_1} (x) .. (x) x^q at flat index ``idx`` as terms
        at level r-1."""
        src = self.spaces[r]
        tgt = self.spaces[r - 1]
        ti, rest = divmod(idx, src.block)
        q, j = divmod(rest, self.mono.dim)
        t = src.tuples[ti]
        col = {}
        # face 0: front times x^{i_1}
        _add_at(col, tgt.offset(t[1:], q), self._face_terms(j, t[0], None).items())
        # middle faces
        for i in range(0, r - 1):
            for tp, terms in self._face_terms(j, t[i] + t[i + 1], sum(t[:i])).items():
                _add_at(col, tgt.offset(t[:i] + (tp,) + t[i + 2:], q), terms.items(), (i + 1) % 2 == 1)
        # last face: right factor times x^{i_r}
        terms = {tgt.offset(t[:-1], q) + j: self.mono.field.one}
        for _ in range(t[-1]):
            terms = tgt.right_mul_x(terms)
        _add_at(col, 0, terms.items(), r % 2 == 1)
        return col

    @_memo
    def bprime(self, r):
        return ColMap.lazy(self.mono.field, self.spaces[r - 1].dim, self.spaces[r].dim,
                           lambda idx: self._bprime_column(r, idx))

    # -- comparison maps ----------------------------------------------------------

    def _phi_generator(self, r):
        """phi'_r(1 (x) 1) as a term dict at level r."""
        mono = self.mono
        sp = self.spaces[r]
        acc = {}
        for lam, e, mid in _phi_terms(mono, r):
            _add_at(acc, sp.offset(mid, 0), (mono.a_from_kvec(lam, 0) * mono.x_power_reduced(e)).items())
        return acc

    @_memo
    def phi(self, r):
        """phi'_r: twisted resolution -> bar resolution."""
        return self.resolution.spaces[r].generated_map(lambda b: self._phi_generator(r), self.spaces[r])

    @_memo
    def _quotient_product(self, sums):
        """The product, left to right, of the quotients of x^s by f over s in ``sums``."""
        if not sums:
            return self.mono.one_a()
        return self._quotient_product(sums[:-1]) * self.mono.x_power_quotient(sums[-1])

    def psi_product(self, t):
        """The product of the quotients of x^(t_1 + t_2), x^(t_3 + t_4), .. by f:
        the coefficient psi' and psi give the middle tuple t."""
        return self._quotient_product(tuple(t[i] + t[i + 1] for i in range(0, len(t) - 1, 2)))

    def _psi_tuple(self, r, t):
        """psi'_r(1 (x) x^{i_1} (x) .. (x) 1) as terms in the resolution space."""
        mono = self.mono
        prod = self.psi_product(t)
        if r % 2 == 0:
            return dict(prod.items())
        acc = {}
        i_last = t[-1]
        for ell in range(i_last):
            # e_k (x) x^q sits at q * dim A + k
            _add_at(acc, (i_last - ell - 1) * mono.dim, (prod * mono.x_power_reduced(ell)).items())
        return acc

    @_memo
    def psi(self, r):
        """psi'_r: bar resolution -> twisted resolution."""
        bsp = self.spaces[r]
        return bsp.generated_map(lambda b: self._psi_tuple(r, bsp.tuples[b]), self.resolution.spaces[r])

    # -- homotopy -------------------------------------------------------------------

    def _shift(self, r, terms):
        """(..) (x) 1: move the right A-factor into an Abar slot, append 1."""
        tgt = self.spaces[r + 1]
        src = self.spaces[r]
        out = {}
        for idx, c in terms.items():
            kappa, i0, t, q = src.unflat(idx)
            if q == 0:
                continue
            add_term(out, tgt.flat(kappa, i0, t + (q,), 0), c)
        return out

    @_memo
    def omega_generator(self, r, t):
        """omega'_r(1 (x) x^{t_1} (x) .. (x) 1) as a term dict at level r.

        Relative comparison-theorem construction: on the bimodule generators
        1 (x) x^t (x) 1 of level r - 1 set
            omega'_r = s . (phi'psi' - id - omega'_{r-1} b')
        with the signed right shift s(y) = (-1)^r (y (x) 1), which contracts
        b' above degree 0 (omega'_1 = 0).  It reads omega'_{r-1} only on the
        support of b' of the generator.
        """
        if r == 1:
            return {}
        rr = r - 1
        src = self.spaces[rr]
        gen = {}
        for kappa, c in enumerate(self.mono.base.unit):
            if c:
                add_term(gen, src.flat(kappa, 0, t, 0), c)
        D = sub_terms(self.phi(rr).apply(self.psi(rr).apply(gen)), gen)
        sub_terms(D, self.omega(rr).apply(self.bprime(rr).apply(gen)))
        val = self._shift(rr, D)
        return {k: -v for k, v in val.items()} if r % 2 == 1 else val

    @_memo
    def omega(self, r):
        """omega'_r: level r-1 -> level r homotopy, the bimodule extension of
        its generator values.

        Coefficients of the output never gain x-degree, which is the content
        of the degree bound this module verifies; the bimodule extension is
        what makes the coefficient-level transfer via m (x)_{A^e} -
        legitimate.
        """
        src = self.spaces[r - 1]
        return src.generated_map(lambda b: self.omega_generator(r, src.tuples[b]), self.spaces[r])


# ---------------------------------------------------------------------------
# Maps induced on coefficients: the small complex against the bar complex
# ---------------------------------------------------------------------------

class InducedComparison:
    """phi/psi/omega between C^S(A,M) and the normalized chain complex.

    Reads the ``BarComplex`` ``bar``, the small complex ``cs`` and the
    ``BarResolution`` ``barres`` in place; ``Workspace.comparison`` grows
    all three.  All maps are returned in quotient coordinates, and kept
    maps stay valid as the inputs grow.
    """

    def __init__(self, mono, M, bar, cs, barres):
        self.mono = mono
        self.M = M
        self.bar = bar
        self.cs = cs
        self.barres = barres

    def _phi_ambient(self, r, m_idx):
        """phi_r of the pure class [m]; ambient bar terms."""
        mono = self.mono
        M = self.M
        sp = self.bar.spaces[r]
        m_terms = {m_idx: mono.field.one}
        acc = {}
        for lam, e, mid in _phi_terms(mono, r):
            mv = M.k_terms("left", lam, M.a_terms("right", mono.x_power_reduced(e), m_terms))
            _add_at(acc, sp.flat(mid, 0), mv.items())
        return acc

    @_memo
    def phi(self, r):
        return _quotient_map(self.cs.spaces[r], self.bar.spaces[r], lambda m_idx: self._phi_ambient(r, m_idx))

    def _psi_ambient(self, r, idx):
        """psi_r of the pure tensor [m (x) x^{t_1} ..] at ambient index
        ``idx`` as M-terms."""
        M = self.M
        t, m_idx = self.bar.spaces[r].unflat(idx)
        base = M.a_terms("right", self.barres.psi_product(t), {m_idx: self.mono.field.one})
        if r % 2 == 0:
            return base
        out = {}
        i_last = t[-1]
        for ell in range(i_last):
            _add_at(out, 0, M.x_terms("left", i_last - ell - 1, M.x_terms("right", ell, base)).items())
        return out

    @_memo
    def psi(self, r):
        return _quotient_map(self.bar.spaces[r], self.cs.spaces[r], lambda idx: self._psi_ambient(r, idx))

    @_memo
    def _wrap(self, m_idx, j, q):
        """m (x)_{A^e} (e_j (x) .. (x) x^q) = x^q m e_j for m the basis vector
        m_idx, as M-terms."""
        M = self.M
        i0, kappa = divmod(j, self.mono.base.dim)
        m = M.k_terms("right", self.mono.base.basis_vector(kappa), {m_idx: self.mono.field.one})
        return M.x_terms("left", q, M.x_terms("right", i0, m))

    def _omega_ambient(self, r, idx):
        """omega_{r+1} of the pure tensor at ambient index ``idx`` via the
        resolution homotopy and the wrap-around m (x)_{A^e} -: terms at bar
        level r+1, from the generator value omega'_{r+1}(1 (x) x^t (x) 1)."""
        dim_a = self.mono.dim
        tgt_block = self.M.dim
        t, m_idx = self.bar.spaces[r].unflat(idx)
        acc = {}
        for gidx, c in self.barres.omega_generator(r + 1, t).items():
            ti, rest = divmod(gidx, self.mono.n * dim_a)
            q, j = divmod(rest, dim_a)
            # the middle tuple of the resolution's block ti is that of the bar's block ti
            base = ti * tgt_block
            for i, e in self._wrap(m_idx, j, q).items():
                add_term(acc, base + i, c * e)
        return acc

    @_memo
    def omega(self, r):
        """omega_{r+1}: bar level r -> bar level r+1 (key r)."""
        return _quotient_map(self.bar.spaces[r], self.bar.spaces[r + 1], lambda idx: self._omega_ambient(r, idx))
