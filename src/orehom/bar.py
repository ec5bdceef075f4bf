"""The canonical complexes for A = K[x,a]/(f): oracle and identity laboratory.

Two complexes live here.

* ``BarResolution``: the normalized relative bar resolution
  A (x) Abar^r (x) A with b', the comparison maps phi'/psi' into and out of
  the spaces of the small bimodule resolution (A (x) A twisted by powers of
  alpha), and the recursive homotopy omega'.
* ``BarComplex``: the normalized chain complex M (x) Abar^r (x) with the
  Hochschild boundary b and the cyclic operator B (for M = A); with
  ``InducedComparison``, the maps phi/psi/omega induced on coefficients.
  Its homology is the brute-force oracle every small-complex computation
  is checked against.

Each level is a ``memo`` method of its owner (``BarComplex.space``,
``BarResolution.space`` and ``res_space``): a level is built the first time
a map or a reader asks for it, so no window is passed in and no level is
built that nothing reads.

Tensors are kept in the normal form inherited from the left K-basis
{1, x, .., x^(n-1)}: coefficients are pushed to the leftmost factor through
the twist x^i * lam = alpha^i(lam) x^i, and K-valued entries of a middle
(Abar) slot vanish.  Elements are dicts mapping flat basis indices to
scalars.  Every map is a ``ColMap.lazy`` over one column function, kept per
level: a column is built the first time something reads it, so applying a
map to a vector builds only the columns in its support, and a whole-map
reader builds every column through the same function.  Two builders make
them: ``_TensorBlocks.generated_map`` the bimodule maps b', phi', psi' and
omega', one generator value per middle block, and ``BarComplex._face_map``
the maps on coefficients b, B, phi, psi and omega, kept faces per block.

Each face is a fixed operator on M followed by the projection onto the
quotient of its target block, and both depend on small keys, not on the
tuple: the operator and the twist class of the target block.  The faces of
b and B act by x^p on the right or left, by a merged middle slot, or by
alpha^s on the front coefficient.  phi, psi and omega are M (x)_{A^e} - of
phi', psi' and omega': each term c e_j (x) x^t (x) x^q of a generator value
is a wrap face, m -> c x^q m e_j into the block of t (for psi, into C^S).
``BarComplex`` keeps every such projected operator once per key, and each
source block's list of faces (target offset, operator, coefficient) once
per map and block, so a column is a sum of kept columns times scalars.

Every kept value is kept the way ``algebra`` keeps its own: through ``memo``
a space and a map per level, each generator value of b', phi', psi' and
omega' (read by a resolution map and by the map it induces on coefficients)
and, once per algebra, each ``merged_slot`` (read by b' and b); through
``kept`` a face operator per (key, twist class); and the tuples of a level,
with the index of each, once per algebra, so that both complexes read one
table.  The complexes are kept the same way, on what they belong to:
``bar_complex`` and ``comparison`` on the bimodule M, ``bar_resolution``
on the algebra.
"""

from __future__ import annotations

from itertools import product as iproduct

from .algebra import commutator_quotient, kept, memo
# bound by name for perfbench/tracer.py, which wraps twisted_commutator_subspace
# in every module namespace that holds it (its tests read this binding)
from .algebra import twisted_commutator_subspace  # noqa: F401
from .complexes import ChainComplex
from .linalg import ColMap, SubquotientSpace, add_term, sub_terms
from .small_complex import cs_space, cs_twist


def _add_at(acc, base, items, negative=False):
    """acc += items shifted by ``base`` (negated if asked), dropping zeros."""
    for i, c in items:
        add_term(acc, base + i, -c if negative else c)


def middle_tuples(n, r):
    """All exponent tuples (i_1..i_r) with 1 <= i_j <= n-1, lexicographic."""
    return list(iproduct(range(1, n), repeat=r))


@memo
def level_tuples(mono, r):
    """The middle tuples of level r and the index of each, kept once per
    algebra and level: ``BarSpace`` and ``BarResSpace`` read one table, so a
    block index names the same tuple on both sides."""
    tuples = middle_tuples(mono.n, r)
    return tuples, {t: i for i, t in enumerate(tuples)}


def _per_sum(mono, r, value):
    """``{s: value(i)}`` over the sums s of the tuples of level r, i the class
    of alpha^s (``mono.twist``): one call of ``value`` per class present."""
    classes = {s: mono.twist(s) for s in range(r, r * (mono.n - 1) + 1)}
    values = {i: value(i) for i in dict.fromkeys(classes.values())}
    return {s: values[i] for s, i in classes.items()}


@memo
def merged_slot(mono, s):
    """A merged middle slot x^s = sum_tp c_tp x^tp of A as its parts (tp, c_tp)
    with tp >= 1.  The part with tp = 0 is K-valued and vanishes in Abar;
    c_tp goes to the front coefficient untwisted past the slots before it:
    it is a polynomial in the lam_i, which alpha fixes (``validate_monogenic``)."""
    return [(tp, c) for tp, c in mono.x_power_reduced(s) if tp]


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
    M-sized block, and shared with C^S through ``commutator_quotient`` (for
    M = A itself a sum of the K/[K,K]_{alpha^(s+p)} kept on the algebra).  The
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
        self.tuples, self.tuple_index = level_tuples(mono, r)
        self.block = M.dim
        self.ambient_dim = len(self.tuples) * M.dim
        self.block_proj = []    # per tuple: block column -> {block quotient index: entry}
        self.block_offset = []  # per tuple: its first quotient coordinate
        self.free = []          # per quotient coordinate: its ambient column
        quotients = _per_sum(mono, r, lambda i: commutator_quotient(M, i))
        for ti, t in enumerate(self.tuples):
            sq = quotients[sum(t)]
            self.block_proj.append(sq.proj_cols)
            self.block_offset.append(len(self.free))
            self.free.extend(ti * M.dim + f for f in sq.free)
        self.quotient_dim = len(self.free)

    @property
    def space(self):
        """The quotient space, which is this object (``quotient_dim``, ``lift_vec``)."""
        return self

    lift_vec = SubquotientSpace.lift_vec

    def offset(self, t):
        """The first quotient coordinate of the block of tuple t."""
        return self.block_offset[self.tuple_index[t]]

    def project_terms(self, terms):
        """Ambient term dict -> quotient-coordinate term dict."""
        out = {}
        for idx, c in terms.items():
            ti, m_idx = divmod(idx, self.block)
            off = self.block_offset[ti]
            for qi, e in self.block_proj[ti][m_idx].items():
                add_term(out, off + qi, e * c)
        return out


class BarComplex:
    """The normalized relative chain complex of A with coefficients in M,
    each level built on its first read."""

    def __init__(self, mono, M):
        self.mono = mono
        self.M = M

    @memo
    def space(self, r):
        return BarSpace(self.mono, self.M, r)

    def dim(self, r):
        return self.space(r).quotient_dim

    def _face(self, key, tsum, act, size=None):
        """The face operator ``act`` (basis index -> ambient terms of one
        block) projected into a target block twisted by alpha^tsum (a bar
        block whose tuple sums to tsum, or C^S of twist tsum): a list over
        k < size (default dim M) of P(act(k)) as (block-local quotient
        coordinate, entry) pairs.  Kept per (key, class of alpha^tsum)."""
        cls = self.mono.twist(tsum)

        def build():
            sq = commutator_quotient(self.M, cls)
            return [tuple(sq.project_terms(act(k)).items()) for k in range(size or self.M.dim)]

        return kept(self, (BarComplex._face, key, cls), build)

    def _face_map(self, src, nrows, faces_of, split):
        """The lazy map from ``src``, a level or C^S (one block), into
        ``nrows`` quotient coordinates whose column at ambient (block ti, m)
        sums the projected faces of its block: ``split(m)`` is (block key,
        local index k), ``faces_of(ti, key)`` lists (target block offset,
        projected operator, coefficient), built on the first read from that
        block, and each face adds its operator at k times its coefficient.
        Most faces of b and B have at most one entry at k, so one product
        per entry costs fewer steps than a test of the coefficient per face."""
        block, block_faces = self.M.dim, {}

        def column(qj):
            ti, m = divmod(src.free[qj], block)
            key, k = split(m)
            faces = block_faces.get((ti, key))
            if faces is None:
                faces = block_faces[ti, key] = faces_of(ti, key)
            acc = {}
            for off, op, c in faces:
                for i, e in op[k]:
                    add_term(acc, off + i, c * e)
            return acc

        return ColMap.lazy(self.mono.field, nrows, src.quotient_dim, column)

    def _b_faces(self, r, t):
        """The faces of b_r on m (x) x^{t_1} (x) ..., in the order 0..r."""
        M, mono, tgt, total = self.M, self.mono, self.space(r - 1), sum(t)
        one = mono.field.one
        # face 0: multiply m by x^{i_1} on the right
        faces = [(tgt.offset(t[1:]), self._face(("xr", t[0]), total - t[0],
                                                 lambda m: M.x_terms("right", t[0], {m: one})), 1)]
        # faces 1..r-1: merge adjacent Abar slots, coefficients land on m
        for j in range(r - 1):
            s = t[j] + t[j + 1]
            for tpow, kv in merged_slot(mono, s):
                op = self._face(("kr", s, tpow), total - s + tpow, lambda m: M.k_terms("right", kv, {m: one}))
                faces.append((tgt.offset(t[:j] + (tpow,) + t[j + 2:]), op, (-1) ** (j + 1)))
        # face r: wrap x^{i_r} around to the left of m
        op = self._face(("xl", t[-1]), total - t[-1], lambda m: M.x_terms("left", t[-1], {m: one}))
        faces.append((tgt.offset(t[:-1]), op, (-1) ** r))
        return faces

    @memo
    def b(self, r):
        """Boundary b_r in quotient coordinates."""
        src = self.space(r)
        return self._face_map(src, self.dim(r - 1), lambda ti, _: self._b_faces(r, src.tuples[ti]), lambda m: (None, m))

    @memo
    def chain_complex(self, max_r):
        return ChainComplex(
            self.mono.field,
            [self.space(r) for r in range(max_r + 1)],
            {r: self.b(r) for r in range(1, max_r + 1)},
        )

    def _B_faces(self, r, t, i0):
        """The faces of the cyclic operator on kappa x^{i0} (x) x^{t_1} ..:
        front K-parts die (i0 = 0); otherwise x^{i0} enters the tuple at each
        cyclic position and kappa is pulled through the tail it crosses."""
        if not i0:
            return []
        mono, tgt = self.mono, self.space(r + 1)
        faces = []
        for i in range(r + 1):
            tail, head = (t[i - 1:], t[:i - 1]) if i else ((), t)
            s = sum(tail)
            op = self._face(("a", mono.twist(s)), sum(t) + i0, lambda k: mono.alpha_terms(s, k), mono.base.dim)
            faces.append((tgt.offset(tail + (i0,) + head), op, (-1) ** (i * r)))
        return faces

    @memo
    def connes_B(self, r):
        if not self.M.is_regular:
            raise ValueError("the cyclic operator needs coefficients M = A")
        src = self.space(r)
        return self._face_map(src, self.dim(r + 1), lambda ti, i0: self._B_faces(r, src.tuples[ti], i0),
                              lambda m: divmod(m, self.mono.base.dim))


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
        ``generator(b)``, which the owner of ``generator`` keeps (``memo``).

        The column of e_j (x) [middle] (x) x^q is e_j . gen . x^q; for q > 0
        it is the column one index of dim A back, times x.
        """
        dim_a = self.mono.dim
        block = self.mono.n * dim_a

        def column(idx):
            b, rest = divmod(idx, block)
            if rest >= dim_a:
                return target.right_mul_x(out.cols[idx - dim_a])
            return target.left_mul_monomial(rest, generator(b))

        out = ColMap.lazy(self.mono.field, target.dim, self.dim, column)
        return out


class ResolutionSpace(_TensorBlocks):
    """A_{alpha^j} (x) A as a based k-space: basis mu_k x^p (x) x^q."""

    def __init__(self, mono, r):
        self.mono = mono
        self.twist = cs_twist(mono.n, r)
        self.dim = mono.dim * mono.n
        self.overflow = [mono.x_overflow(self.twist)]


# ---------------------------------------------------------------------------
# Bar resolution level: A (x) Abar^r (x) A
# ---------------------------------------------------------------------------

class BarResSpace(_TensorBlocks):
    """Based k-space A (x) Abar^r (x) A; keys (kappa, i0, mid tuple, q)."""

    def __init__(self, mono, r):
        self.mono = mono
        self.n = mono.n
        self.dimK = mono.base.dim
        self.tuples, self.tuple_index = level_tuples(mono, r)
        self.block = self.dimK * self.n * self.n
        self.dim = len(self.tuples) * self.block
        overflow = _per_sum(mono, r, mono.x_overflow)
        self.overflow = [overflow[sum(t)] for t in self.tuples]

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
        return max((i0 + sum(t) + q for _, i0, t, q in map(self.unflat, terms)), default=NEG_INF)


class BarResolution:
    """Normalized bar resolution with b', comparison maps and the homotopy;
    ``space(r)`` is its level r and ``res_space(r)`` the level r of the
    twisted two-periodic resolution that phi' and psi' compare it with, each
    built on its first read."""

    def __init__(self, mono):
        self.mono = mono

    @memo
    def space(self, r):
        return BarResSpace(self.mono, r)

    @memo
    def res_space(self, r):
        return ResolutionSpace(self.mono, r)

    def dim(self, r):
        return self.space(r).dim

    # -- b' --------------------------------------------------------------------

    @memo
    def _bprime_generator(self, r, t):
        """b'_r(1 (x) x^{t_1} (x) .. (x) x^{t_r} (x) 1) as a term dict at level r-1.

        Face 0 puts x^{t_1} in the front and the last face puts x^{t_r} in
        the right factor (t_r < n, so nothing overflows); the middle face i
        reads the merged slot x^{t_i + t_{i+1}} (``merged_slot``).
        """
        mono, tgt = self.mono, self.space(r - 1)
        unit = mono.base.unit
        gen = {}
        _add_at(gen, tgt.offset(t[1:], 0) + t[0] * mono.base.dim, unit.items())
        for i in range(r - 1):
            for tp, c in merged_slot(mono, t[i] + t[i + 1]):
                _add_at(gen, tgt.offset(t[:i] + (tp,) + t[i + 2:], 0), c.items(), i % 2 == 0)
        _add_at(gen, tgt.offset(t[:-1], t[-1]), unit.items(), r % 2 == 1)
        return gen

    @memo
    def bprime(self, r):
        """b'_r: level r -> level r-1, the bimodule extension of its generator values."""
        src = self.space(r)
        return src.generated_map(lambda b: self._bprime_generator(r, src.tuples[b]), self.space(r - 1))

    # -- comparison maps ----------------------------------------------------------

    @memo
    def phi_generator(self, r):
        """phi'_r(1 (x) 1) as a term dict at level r: terms lam x^e (x) [mid]
        from the expansion of f in every second middle slot."""
        mono, sp = self.mono, self.space(r)
        m, odd = divmod(r, 2)
        acc = {}
        # an i of 1 gives an empty l-range 1 <= l < i
        for ivec in iproduct(range(2, mono.n + 1), repeat=m):
            lam = mono.base.unit
            for i in ivec:
                lam = mono.base.product(lam, mono.f_coefficient(mono.n - i))
            if not lam:
                continue
            for ell in iproduct(*[range(1, i) for i in ivec]):
                mid = sum(((1, l) for l in reversed(ell)), ()) + (1,) * odd
                _add_at(acc, sp.offset(mid, 0), mono.k_times_x_power(lam, sum(ivec) - sum(ell) - m).items())
        return acc

    @memo
    def phi(self, r):
        """phi'_r: twisted resolution -> bar resolution."""
        return self.res_space(r).generated_map(lambda b: self.phi_generator(r), self.space(r))

    @memo
    def _quotient_product(self, sums):
        """The product, left to right, of the quotients of x^s by f over s in ``sums``."""
        mono = self.mono
        if not sums:
            return mono.x_power(0)
        return mono.multiply(self._quotient_product(sums[:-1]), mono.flat(mono.x_power_quotient(sums[-1])))

    @memo
    def psi_tuple(self, r, t):
        """psi'_r(1 (x) x^{i_1} (x) .. (x) 1) as terms in the resolution space,
        from the product of the quotients of x^(t_1 + t_2), x^(t_3 + t_4), ..
        by f."""
        mono = self.mono
        prod = self._quotient_product(tuple(t[i] + t[i + 1] for i in range(0, len(t) - 1, 2)))
        if r % 2 == 0:
            return dict(prod)
        acc = {}
        i_last = t[-1]
        for ell in range(i_last):
            # e_k (x) x^q sits at q * dim A + k
            _add_at(acc, (i_last - ell - 1) * mono.dim, mono.multiply(prod, mono.x_power(ell)).items())
        return acc

    @memo
    def psi(self, r):
        """psi'_r: bar resolution -> twisted resolution."""
        bsp = self.space(r)
        return bsp.generated_map(lambda b: self.psi_tuple(r, bsp.tuples[b]), self.res_space(r))

    # -- homotopy -------------------------------------------------------------------

    def _shift(self, r, terms):
        """(..) (x) 1: move the right A-factor into an Abar slot, append 1."""
        tgt, src = self.space(r + 1), self.space(r)
        out = {}
        for idx, c in terms.items():
            kappa, i0, t, q = src.unflat(idx)
            if q == 0:
                continue
            add_term(out, tgt.flat(kappa, i0, t + (q,), 0), c)
        return out

    @memo
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
        src = self.space(rr)
        gen = {}
        for kappa, c in self.mono.base.unit.items():
            add_term(gen, src.flat(kappa, 0, t, 0), c)
        D = sub_terms(self.phi(rr).apply(self.psi(rr).apply(gen)), gen)
        sub_terms(D, self.omega(rr).apply(self.bprime(rr).apply(gen)))
        val = self._shift(rr, D)
        return {k: -v for k, v in val.items()} if r % 2 == 1 else val

    @memo
    def omega(self, r):
        """omega'_r: level r-1 -> level r homotopy, the bimodule extension of
        its generator values.

        Coefficients of the output never gain x-degree, which is the content
        of the degree bound this module verifies; the bimodule extension is
        what makes the coefficient-level transfer via m (x)_{A^e} -
        legitimate.
        """
        src = self.space(r - 1)
        return src.generated_map(lambda b: self.omega_generator(r, src.tuples[b]), self.space(r))


# ---------------------------------------------------------------------------
# Maps induced on coefficients: the small complex against the bar complex
# ---------------------------------------------------------------------------

class InducedComparison:
    """phi/psi/omega between C^S(A,M) and the normalized chain complex:
    M (x)_{A^e} - of phi', psi' and omega' of the ``BarResolution``
    ``barres``, each a ``BarComplex._face_map`` of wrap faces.

    phi_r [m] is m (lam x^e) (x) [mid] over the terms of phi'_r(1 (x) 1),
    where the paper writes lam m x^e.  Both have one class: alpha fixes
    every lam_i (``validate_monogenic``), so lam x^e = x^e lam and
    lam (m x^e) - (m x^e) alpha^s(lam) is a twisted commutator of every block.

    The levels of ``bar`` are its own and a level of C^S is its
    ``cs_space``, so no small complex is built for them.  All maps are
    returned in quotient coordinates.
    """

    def __init__(self, bar, barres):
        self.bar = bar
        self.barres = barres

    def _induced(self, src, tgt, generator, twist=None):
        """The map of quotients src -> tgt whose faces on source block ti are
        the terms of ``generator(ti)``, the resolution map's value on that
        block's generator: c e_j (x) [middle of block b] (x) x^q acts on m as
        c x^q m e_j in block b of ``tgt`` (one tuple on both sides,
        ``level_tuples``) or, given the ``twist`` of a C^S target, in its one
        block.  The operator, projected, is kept on ``bar`` per (j, q, class
        of the target twist)."""
        bar, M, mono = self.bar, self.bar.M, self.bar.mono
        one, dim_a = mono.field.one, mono.dim

        def faces(ti, _):
            out = []
            for idx, c in generator(ti).items():
                b, rest = divmod(idx, mono.n * dim_a)
                q, j = divmod(rest, dim_a)
                i0, kappa = divmod(j, mono.base.dim)
                off, tw = (0, twist) if twist is not None else (tgt.block_offset[b], sum(tgt.tuples[b]))
                op = bar._face(("w", j, q), tw, lambda m: M.x_terms(
                    "left", q, M.x_terms("right", i0, M.k_terms("right", {kappa: one}, {m: one}))))
                out.append((off, op, c))
            return out

        return bar._face_map(src, tgt.quotient_dim, faces, lambda m: (None, m))

    @memo
    def phi(self, r):
        return self._induced(cs_space(self.bar.M, r), self.bar.space(r), lambda ti: self.barres.phi_generator(r))

    @memo
    def psi(self, r):
        src = self.bar.space(r)
        return self._induced(src, cs_space(self.bar.M, r), lambda ti: self.barres.psi_tuple(r, src.tuples[ti]),
                             cs_twist(self.bar.mono.n, r))

    @memo
    def omega(self, r):
        """omega_{r+1}: bar level r -> bar level r+1 (key r)."""
        src = self.bar.space(r)
        return self._induced(src, self.bar.space(r + 1), lambda ti: self.barres.omega_generator(r + 1, src.tuples[ti]))


@memo
def bar_complex(M):
    """The normalized complex with coefficients in M, kept on M."""
    return BarComplex(M.mono, M)


@memo
def bar_resolution(mono):
    """The bar resolution of A, kept on the algebra."""
    return BarResolution(mono)


@memo
def comparison(M):
    """phi/psi/omega between C^S(A, M) and ``bar_complex(M)``, kept on M."""
    return InducedComparison(bar_complex(M), bar_resolution(M.mono))
