"""The small complex C^S(A,M) and its explicit forms.

Degree r of the generic complex is M modulo twisted commutators at
alpha^{mn} (r = 2m) resp. alpha^{mn+1} (r = 2m+1), with boundaries

    d_{2m+1}[m] = [m x - x m]
    d_{2m}[m]   = sum_{i=1..n} sum_{l=0..i-1} [lam_{n-i} x^{i-l-1} m x^l].

When [K,K]_{alpha^j} = K for every j not divisible by n (the collapse
condition, tested directly by ``check_collapse``) the complex shrinks to
K-sized subquotients with boundaries

    d_{2m+1}([lam] x^{n-1}) = [(alpha(lam) - lam) lam_n]
    d_{2m+2}([lam])         = [sum_l alpha^l(lam)] x^{n-1},

and if alpha is additionally diagonal on the K-basis it splits into
eigencomponents with scalar boundaries.  The closed-form evaluators at the
bottom compute the displayed homology quotients directly by echelonizing
numerator and denominator spans; they are cross-checked against the
homology of the built complexes in the tests.
"""

from __future__ import annotations

from .algebra import (
    check_collapse,
    commutator_quotient,
    eigen_split,
    k_commutator_subspace,
    regular_bimodule,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from .complexes import ChainComplex, homology_dims
from .linalg import ColMap, EchelonSet, add_term, quotient_dim, sparse, sparse_rank, sub_terms, subquotient
# bound by name for perfbench/tracer.py, which wraps kernel_basis in every
# module namespace that holds it (its tests read this binding)
from .linalg import kernel_basis  # noqa: F401


class HypothesisError(ValueError):
    """A closed form or collapsed complex was requested without its hypothesis."""


def cs_twist(n, r):
    m, odd = divmod(r, 2)
    return m * n + (1 if odd else 0)


def _boundary_terms(mono, M, r, terms):
    """The boundary formula applied to an M-term dict at degree r."""
    if r % 2 == 1:
        return sub_terms(M.x_terms("right", 1, terms), M.x_terms("left", 1, terms))
    out = {}
    for i in range(1, mono.n + 1):
        lam = mono.f_coefficient(mono.n - i)
        if vec_is_zero(lam):
            continue
        for ell in range(i):
            for k, c in M.k_terms("left", lam, M.x_terms("left", i - ell - 1, M.x_terms("right", ell, terms))).items():
                add_term(out, k, c)
    return out


class SmallComplex(ChainComplex):
    """The generic small complex C^S(A, M); ``grow`` appends degrees in place.

    Its spaces are the quotients ``commutator_quotient`` keeps on M, one per
    class of alpha^j, so degrees whose twists agree modulo the order of
    alpha share one space object.
    """

    def __init__(self, mono, M, max_degree):
        super().__init__(mono.field, [commutator_quotient(M, 0)], {})
        self.mono = mono
        self.M = M
        self.grow(max_degree)

    def grow(self, max_degree):
        mono, M = self.mono, self.M
        while self.max_degree < max_degree:
            r = self.max_degree + 1
            src, tgt = commutator_quotient(M, cs_twist(mono.n, r)), self.spaces[r - 1]
            col_map = ColMap(mono.field, tgt.quotient_dim, src.quotient_dim)
            for qj, idx in enumerate(src.free):
                col_map.set_col(qj, tgt.project_terms(_boundary_terms(mono, M, r, {idx: mono.field.one})))
            self.append(src, col_map)


def build_cs(mono, M=None, max_degree=6):
    """The generic small complex; d.d = 0 asserted on every degree."""
    return SmallComplex(mono, M or regular_bimodule(mono), max_degree)


def collapse_required_js(n, max_degree):
    """Twists that must satisfy [K,K]_{alpha^j} = K for the collapsed form."""
    needed = set()
    for r in range(max_degree + 1):
        base = cs_twist(n, r)
        for i in range(n):
            j = base + i
            if j % n != 0:
                needed.add(j)
    return sorted(needed)


def ensure_collapse(mono, max_degree, report=None):
    needed = collapse_required_js(mono.n, max_degree)
    report = report or check_collapse(mono, max(needed))
    missing = [j for j in needed if j not in report.entries or not report.entries[j][0]]
    if missing:
        raise HypothesisError(
            f"collapse not verified: [K,K]_(alpha^j) != K for j in {missing}; "
            "use the generic build_cs path"
        )
    return report


def k_quotient(mono, j):
    """SubquotientSpace K/[K,K]_{alpha^j}, once per class of alpha^j."""
    return component_quotient(mono, j, range(mono.base.dim))


def build_cs_collapsed(mono, max_degree=6, collapse_report=None):
    """The K-sized collapsed complex; refuses when collapse is unverified.

    Odd-degree classes carry an implicit factor x^{n-1} (they sit inside
    A/[A,K] as [lam x^{n-1}]); even classes are [lam] with lam in K.
    """
    ensure_collapse(mono, max_degree, collapse_report)
    K = mono.base
    n = mono.n
    spaces = []
    for r in range(max_degree + 1):
        m, odd = divmod(r, 2)
        j = (m + 1) * n if odd else m * n
        spaces.append(k_quotient(mono, j))
    lam_n = mono.f_coefficient(n)
    boundaries = {}
    for r in range(1, max_degree + 1):
        src, tgt = spaces[r], spaces[r - 1]
        col_map = ColMap(mono.field, tgt.quotient_dim, src.quotient_dim)
        for qj, idx in enumerate(src.free):
            lam = K.basis_vector(idx)
            if r % 2 == 1:
                img = K.mul_vec(vec_sub(mono.alpha_apply(1, lam), lam), lam_n)
            else:
                img = [mono.field.zero] * K.dim
                for ell in range(n):
                    img = vec_add(img, mono.alpha_apply(ell, lam))
            col_map.set_col(qj, tgt.project_terms(sparse(img)))
        boundaries[r] = col_map
    return ChainComplex(mono.field, spaces, boundaries)


# -- eigencomponent decomposition ---------------------------------------------

def component_commutator_span(mono, j, idxs):
    """Spanning term dicts of [K,K]^w_{alpha^j} in component coordinates."""
    local = {i: ii for ii, i in enumerate(idxs)}
    return [{local[i]: c for i, c in v.items()}
            for v in k_commutator_subspace(mono, j) if v.keys() <= local.keys()]


def component_mult_rows(mono, idxs, kvec):
    """Term dicts of K^w * kvec in component coordinates."""
    K = mono.base
    rows = []
    for i in idxs:
        full = K.mul_vec(K.basis_vector(i), kvec)
        rows.append(sparse(full[t] for t in idxs))
    return rows


def component_quotient(mono, j, idxs):
    """K^w/[K,K]^w_{alpha^j} on the basis indices ``idxs``, computed once per
    class of alpha^j (``mono.twist``) and kept on ``mono``."""
    key = (mono.twist(j), tuple(idxs))
    sq = mono._k_quotients.get(key)
    if sq is None:
        spans = component_commutator_span(mono, key[0], key[1])
        sq = mono._k_quotients[key] = subquotient(mono.field, len(key[1]), spans)
    return sq


def decompose(mono, max_degree=6, collapse_report=None):
    """Per-eigenvalue collapsed complexes [(eigenvalue, basis idxs, complex)].

    Boundaries are the scalar forms: odd (w - 1)[lam lam_n], even
    (sum_{l<n} w^l)[lam] x^{n-1}.
    """
    ensure_collapse(mono, max_degree, collapse_report)
    comps = eigen_split(mono.base, mono.alpha)
    K = mono.base
    n = mono.n
    lam_n = mono.f_coefficient(n)
    out = []
    for w, idxs in comps:
        spaces = []
        for r in range(max_degree + 1):
            m, odd = divmod(r, 2)
            j = (m + 1) * n if odd else m * n
            spaces.append(component_quotient(mono, j, idxs))
        nmult = sum((w ** l for l in range(n)), mono.field.zero)
        boundaries = {}
        for r in range(1, max_degree + 1):
            src, tgt = spaces[r], spaces[r - 1]
            col_map = ColMap(mono.field, tgt.quotient_dim, src.quotient_dim)
            for qj, ii in enumerate(src.free):
                lam = K.basis_vector(idxs[ii])
                if r % 2 == 1:
                    img_full = K.mul_vec(lam, lam_n)
                    img_full = [(w - mono.field.one) * c for c in img_full]
                else:
                    img_full = [nmult * c for c in lam]
                col_map.set_col(qj, tgt.project_terms(sparse(img_full[i] for i in idxs)))
            boundaries[r] = col_map
        out.append((w, idxs, ChainComplex(mono.field, spaces, boundaries)))
    return out


# -- closed forms ----------------------------------------------------------------

def _well_formed(qdim):
    """A ``quotient_dim`` result, refused when the quotient is not well formed."""
    if qdim is None:
        raise HypothesisError("denominator span is not contained in the numerator span")
    return qdim


def _norm_map(mono, lam):
    out = [mono.field.zero] * mono.base.dim
    for ell in range(mono.n):
        out = vec_add(out, mono.alpha_apply(ell, lam))
    return sparse(out)


def _alpha_minus_id_lamn(mono, lam):
    K = mono.base
    return sparse(K.mul_vec(vec_sub(mono.alpha_apply(1, lam), lam), mono.f_coefficient(mono.n)))


def hh_dims_collapsed(mono, max_degree, collapse_report=None):
    """Homology dimensions from the collapsed-complex closed form."""
    ensure_collapse(mono, max_degree, collapse_report)
    K = mono.base
    field = mono.field
    n = mono.n
    basis = [K.basis_vector(t) for t in range(K.dim)]
    kk = lambda j: k_commutator_subspace(mono, j)
    dims = []
    for r in range(max_degree + 1):
        m, odd = divmod(r, 2)
        if r == 0:
            den = kk(0) + [_alpha_minus_id_lamn(mono, v) for v in basis]
            dims.append(K.dim - sparse_rank(den))
        elif odd:
            num = EchelonSet(field, kk(m * n)).preimage([_alpha_minus_id_lamn(mono, v) for v in basis])
            den = kk((m + 1) * n) + [_norm_map(mono, v) for v in basis]
            dims.append(_well_formed(quotient_dim(field, num, den)))
        else:
            num = EchelonSet(field, kk(m * n)).preimage([_norm_map(mono, v) for v in basis])
            den = kk(m * n) + [_alpha_minus_id_lamn(mono, v) for v in basis]
            dims.append(_well_formed(quotient_dim(field, num, den)))
    return dims


def hh_dims_eigen(mono, max_degree, collapse_report=None):
    """Per-eigenvalue closed form; returns (total dims, per-component dict)."""
    ensure_collapse(mono, max_degree, collapse_report)
    comps = eigen_split(mono.base, mono.alpha)
    field = mono.field
    n = mono.n
    one = field.one
    lam_n = mono.f_coefficient(n)
    totals = [0] * (max_degree + 1)
    percomp = []
    for w, idxs in comps:
        d = len(idxs)
        local_basis = [{i: one} for i in range(d)]
        kkw = lambda j: component_commutator_span(mono, j, idxs)
        lam_mult = component_mult_rows(mono, idxs, lam_n)
        dims = []
        is_one = w == one
        w_n_is_one = w ** n == one
        for r in range(max_degree + 1):
            m, odd = divmod(r, 2)
            if r == 0:
                span = kkw(0) if is_one else kkw(0) + lam_mult
                dims.append(d - sparse_rank(span))
            elif is_one or not w_n_is_one:
                dims.append(0)
            elif odd:
                num = EchelonSet(field, kkw(m * n)).preimage(lam_mult)
                dims.append(_well_formed(quotient_dim(field, num, kkw((m + 1) * n))))
            else:
                dims.append(_well_formed(quotient_dim(field, local_basis, kkw(m * n) + lam_mult)))
        percomp.append((w, dims))
        totals = [a + b for a, b in zip(totals, dims)]
    return totals, percomp


def hh_dims_alpha_identity(mono, max_degree):
    """Closed form for alpha = id, phrased inside A itself."""
    K = mono.base
    field = mono.field
    if mono.alpha_columns(1) is not None:
        raise HypothesisError("closed form requires alpha = id")
    n = mono.n
    M = regular_bimodule(mono)
    dimA = mono.dim
    # f' = n x^{n-1} + sum_{i=1}^{n-1} (n-i) lam_i x^{n-i-1}
    fprime = mono.zero_a()
    coeffs = fprime.coeffs
    coeffs[n - 1] = [field.from_int(n) * c for c in K.unit]
    for i in range(1, n):
        lam = mono.f_coefficient(i)
        coeffs[n - i - 1] = vec_add(coeffs[n - i - 1], [field.from_int(n - i) * c for c in lam])
    commutators = []
    for u in range(dimA):
        a = mono.a_from_terms({u: field.one})
        for v in range(dimA):
            w = sub_terms(M.a_terms("left", a, {v: field.one}), M.a_terms("right", a, {v: field.one}))
            if w:
                commutators.append(w)
    fprime_mult = [M.a_terms("left", fprime, {v: field.one}) for v in range(dimA)]
    comm = EchelonSet(field, commutators)
    dims = [dimA - comm.dim]
    colon = comm.preimage(fprime_mult)
    for r in range(1, max_degree + 1):
        if r % 2 == 1:
            dims.append(dimA - sparse_rank(commutators + fprime_mult))
        else:
            dims.append(_well_formed(quotient_dim(field, colon, commutators)))
    return dims


def hh_closed_form(mono, case, max_degree, collapse_report=None):
    """Dispatch on the verified hypothesis case.

    case: "collapsed" (central-element collapse), "eigen" (collapse plus
    diagonal alpha), or "alpha_identity".
    """
    if case == "collapsed":
        return hh_dims_collapsed(mono, max_degree, collapse_report)
    if case == "eigen":
        return hh_dims_eigen(mono, max_degree, collapse_report)[0]
    if case == "alpha_identity":
        return hh_dims_alpha_identity(mono, max_degree)
    raise HypothesisError(f"unknown closed-form case {case!r}")


def periodicity_check(mono, v, max_m, M=None):
    """HH dims repeat with period v in m once alpha^n has order v."""
    if mono.alpha_columns(mono.n * v) is not None:
        raise HypothesisError(f"alpha^(n*v) != id for v = {v}")
    for j in range(1, v):
        if mono.alpha_columns(mono.n * j) is None:
            raise HypothesisError(f"alpha^n has order dividing {j} < {v}")
    top = 2 * (max_m + v) + 2
    cs = build_cs(mono, M, top + 1)
    dims = homology_dims(cs, top)
    for m in range(max_m + 1):
        if dims[2 * m + 1] != dims[2 * (m + v) + 1]:
            return False
        if dims[2 * m + 2] != dims[2 * (m + v) + 2]:
            return False
    return True


def hh_rank_one(mono, case, max_degree, collapse_report=None):
    """Group-character specializations of the homology closed forms.

    case: "xi=0", "xi!=0, chi^n=id", or "xi!=0, chi^n!=id" (the last uses
    the xi=0 formulas, matching the quotient rewrite).  Components run over
    the n-th roots of unity among the eigenvalues; with lam_n supplied by
    the extension the two nonzero-xi displays use g1^n - 1 = -lam_n up to
    the xi unit, so lam_n itself is what enters the spans.
    """
    ensure_collapse(mono, max_degree, collapse_report)
    comps = eigen_split(mono.base, mono.alpha)
    K = mono.base
    field = mono.field
    n = mono.n
    one = field.one
    lam_n = mono.f_coefficient(n)
    if case not in ("xi=0", "xi!=0, chi^n=id", "xi!=0, chi^n!=id"):
        raise HypothesisError(f"unknown rank-one case {case!r}")
    if case == "xi!=0, chi^n!=id":
        case = "xi=0"
    k_mod_comm = K.dim - sparse_rank(k_commutator_subspace(mono, 0))
    dims = []
    for r in range(max_degree + 1):
        m, odd = divmod(r, 2)
        if r == 0:
            if case == "xi=0":
                dims.append(k_mod_comm)
            else:
                total = 0
                for w, idxs in comps:
                    span = component_commutator_span(mono, 0, idxs)
                    if w != one:
                        span = span + component_mult_rows(mono, idxs, lam_n)
                    total += len(idxs) - sparse_rank(span)
                dims.append(total)
            continue
        m_eff = m if odd else m - 1
        total = 0
        for w, idxs in comps:
            if w == one or w ** n != one:
                continue
            d = len(idxs)
            if case == "xi=0":
                den = component_commutator_span(mono, (m_eff + 1) * n, idxs)
                total += d - sparse_rank(den)
            elif odd:
                den = component_commutator_span(mono, 0, idxs)
                num = EchelonSet(field, den).preimage(component_mult_rows(mono, idxs, lam_n))
                total += _well_formed(quotient_dim(field, num, den))
            else:
                span = component_commutator_span(mono, 0, idxs)
                span = span + component_mult_rows(mono, idxs, lam_n)
                total += d - sparse_rank(span)
        dims.append(total)
    return dims
