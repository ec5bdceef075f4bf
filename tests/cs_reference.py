"""The small complex and the hh and hc closed forms built degree by degree,
kept apart from the package: the reference its period-shared builders are
tested against.

Every degree gets its own boundary map and every closed form evaluates every
degree, as ``orehom.small_complex`` did before it shared them per twist class.
The collapsed boundaries are computed densely, with ``dense_reference``; the
eigencomponent boundaries and D are the scalar formulas (w - 1), sum_l w^l and
(1 - w) sum_u w^{nu}; the generic D forms one product per (u, i), as the
package did before it summed the alpha powers over u; and the closed forms
rebuild every span in their own loop and eliminate it with the ``EchelonSet``
preimage and quotient helpers of ``paper_checks``, where the package keeps
each component quotient per class and projects into it.
"""

import dense_reference as dref
from orehom.algebra import commutator_quotient, eigen_split, k_commutator_subspace, k_quotient
from orehom.complexes import ChainComplex
from orehom.linalg import ColMap, EchelonSet, add_terms, sparse_rank, sub_terms
from orehom.small_complex import (
    HypothesisError,
    _alpha_minus_id_lamn,
    _boundary_terms,
    _norm_map,
    _well_formed,
    component_commutator_span,
    component_mult_rows,
    component_quotient,
    cs_twist,
    ensure_collapse,
)

from paper_checks import preimage, quotient_dim


def build_cs(mono, M, max_degree):
    """The generic C^S(A, M), one fresh boundary per degree."""
    spaces = [commutator_quotient(M, cs_twist(mono.n, r)) for r in range(max_degree + 1)]
    boundaries = {}
    for r in range(1, max_degree + 1):
        src, tgt = spaces[r], spaces[r - 1]
        cols = [tgt.project_terms(_boundary_terms(mono, M, r, {idx: mono.field.one})) for idx in src.free]
        boundaries[r] = ColMap(tgt.quotient_dim, src.quotient_dim, cols)
    return ChainComplex(spaces, boundaries)


def build_cs_collapsed(mono, max_degree):
    ensure_collapse(mono, max_degree)
    K = mono.base
    n = mono.n
    spaces = []
    for r in range(max_degree + 1):
        m, odd = divmod(r, 2)
        j = (m + 1) * n if odd else m * n
        spaces.append(k_quotient(mono, j))
    lam_n = dref.f_coefficient(mono, n)
    boundaries = {}
    for r in range(1, max_degree + 1):
        src, tgt = spaces[r], spaces[r - 1]
        cols = []
        for idx in src.free:
            lam = dref.dense(K.basis_vector(idx), K.dim, mono.field.zero)
            if r % 2 == 1:
                diff = [a - b for a, b in zip(dref.alpha_power(mono, 1, lam), lam)]
                img = dref.k_product(K, diff, lam_n)
            else:
                img = [mono.field.zero] * K.dim
                for ell in range(n):
                    img = [a + b for a, b in zip(img, dref.alpha_power(mono, ell, lam))]
            cols.append(tgt.project_terms(dref.sparse(img)))
        boundaries[r] = ColMap(tgt.quotient_dim, src.quotient_dim, cols)
    return ChainComplex(spaces, boundaries)


def decompose(mono, max_degree):
    ensure_collapse(mono, max_degree)
    K = mono.base
    n = mono.n
    lam_n = dref.f_coefficient(mono, n)
    out = []
    for w, idxs in eigen_split(mono.base, mono.alpha):
        spaces = []
        for r in range(max_degree + 1):
            m, odd = divmod(r, 2)
            j = (m + 1) * n if odd else m * n
            spaces.append(component_quotient(mono, j, idxs))
        nmult = sum((w ** l for l in range(n)), mono.field.zero)
        boundaries = {}
        for r in range(1, max_degree + 1):
            src, tgt = spaces[r], spaces[r - 1]
            cols = []
            for ii in src.free:
                lam = dref.dense(K.basis_vector(idxs[ii]), K.dim, mono.field.zero)
                if r % 2 == 1:
                    img_full = [(w - mono.field.one) * c for c in dref.k_product(K, lam, lam_n)]
                else:
                    img_full = [nmult * c for c in lam]
                cols.append(tgt.project_terms(dref.sparse([img_full[i] for i in idxs])))
            boundaries[r] = ColMap(tgt.quotient_dim, src.quotient_dim, cols)
        out.append((w, idxs, ChainComplex(spaces, boundaries)))
    return out


def hh_dims_collapsed(mono, max_degree):
    ensure_collapse(mono, max_degree)
    K = mono.base
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
            num = preimage(EchelonSet(kk(m * n)), [_alpha_minus_id_lamn(mono, v) for v in basis])
            den = kk((m + 1) * n) + [_norm_map(mono, v) for v in basis]
            dims.append(_well_formed(quotient_dim(num, den)))
        else:
            num = preimage(EchelonSet(kk(m * n)), [_norm_map(mono, v) for v in basis])
            den = kk(m * n) + [_alpha_minus_id_lamn(mono, v) for v in basis]
            dims.append(_well_formed(quotient_dim(num, den)))
    return dims


def hh_dims_eigen(mono, max_degree):
    ensure_collapse(mono, max_degree)
    field = mono.field
    n = mono.n
    one = field.one
    lam_n = mono.f_coefficient(n)
    totals = [0] * (max_degree + 1)
    for w, idxs in eigen_split(mono.base, mono.alpha):
        d = len(idxs)
        local_basis = [{i: one} for i in range(d)]
        kkw = lambda j: component_commutator_span(mono, j, idxs)
        lam_mult = component_mult_rows(mono, idxs, lam_n)
        dims = []
        for r in range(max_degree + 1):
            m, odd = divmod(r, 2)
            if r == 0:
                span = kkw(0) if w == one else kkw(0) + lam_mult
                dims.append(d - sparse_rank(span))
            elif w == one or w ** n != one:
                dims.append(0)
            elif odd:
                num = preimage(EchelonSet(kkw(m * n)), lam_mult)
                dims.append(_well_formed(quotient_dim(num, kkw((m + 1) * n))))
            else:
                dims.append(_well_formed(quotient_dim(local_basis, kkw(m * n) + lam_mult)))
        totals = [a + b for a, b in zip(totals, dims)]
    return totals


def hh_rank_one(mono, case, max_degree):
    ensure_collapse(mono, max_degree)
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
    dims = []
    for r in range(max_degree + 1):
        m, odd = divmod(r, 2)
        if r == 0:
            if case == "xi=0":
                dims.append(K.dim - sparse_rank(k_commutator_subspace(mono, 0)))
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
                total += d - sparse_rank(component_commutator_span(mono, (m_eff + 1) * n, idxs))
            elif odd:
                den = component_commutator_span(mono, 0, idxs)
                num = preimage(EchelonSet(den), component_mult_rows(mono, idxs, lam_n))
                total += _well_formed(quotient_dim(num, den))
            else:
                span = component_commutator_span(mono, 0, idxs) + component_mult_rows(mono, idxs, lam_n)
                total += d - sparse_rank(span)
        dims.append(total)
    return dims


def connes_D_component(mono, r, cs_spaces, w, idxs):
    """Per-eigencomponent D: the scalar (1 - w) sum_{u<=m} w^{nu} in odd
    degrees, zero in even degrees."""
    field = mono.field
    src = cs_spaces[r]
    tgt = cs_spaces[r + 1]
    out = ColMap(tgt.quotient_dim, src.quotient_dim)
    m, odd = divmod(r, 2)
    if not odd:
        return out
    scalar = (field.one - w) * sum((w ** (mono.n * u) for u in range(m + 1)), field.zero)
    if not scalar:
        return out
    return ColMap(tgt.quotient_dim, src.quotient_dim, [tgt.project_terms({idx: scalar}) for idx in src.free])


def connes_D(mono, r, cs_spaces):
    """The generic D_r as the package built it before it summed the alpha
    powers over u: one product in K and one quotient of a power of x per
    (u, i), u < m."""
    K = mono.base
    n = mono.n
    src = cs_spaces[r]
    tgt = cs_spaces[r + 1]
    m, odd = divmod(r, 2)
    cols = []
    for idx in src.free:
        total = {}
        j, kappa = divmod(idx, K.dim)
        lam = K.basis_vector(kappa)
        if odd:
            if j == n - 1:
                w = mono.alpha_sum(lam, range(0, (m + 1) * n, n))
                total = sub_terms(w, mono.alpha_image(1, w))
        else:
            if j >= 1:
                s = mono.alpha_sum(lam, range(m * n, m * n + j))
                total = {(j - 1) * K.dim + k: c for k, c in s.items()}
            for u in range(m):
                for i in range(1, n + 1):
                    lam_ni = mono.f_coefficient(n - i)
                    if not lam_ni or j + i - 1 < n:
                        continue
                    ssum = mono.alpha_sum(lam, range(n * u, n * u + i))
                    add_terms(total, mono.k_times(K.product(lam_ni, ssum), mono.x_power_quotient(j + i - 1)))
        cols.append(tgt.project_terms(dict(sorted(total.items()))))
    return ColMap(tgt.quotient_dim, src.quotient_dim, cols)


def _power_vec(mono, kvec, power):
    out = mono.base.unit
    for _ in range(power):
        out = mono.base.product(out, kvec)
    return out


def hc_closed_form(mono, max_degree):
    ensure_collapse(mono, max_degree)
    comps = eigen_split(mono.base, mono.alpha)
    field = mono.field
    n = mono.n
    one = field.one
    lam_n = mono.f_coefficient(n)
    proof = [0] * (max_degree + 1)
    displayed = [0] * (max_degree + 1)
    for w, idxs in comps:
        d = len(idxs)
        kkw = lambda j: component_commutator_span(mono, j, idxs)
        is_one = w == one
        w_n_is_one = w ** n == one
        dims_p = []
        dims_d = []
        for r in range(max_degree + 1):
            m, odd = divmod(r, 2)
            if not odd:
                span = kkw(0)
                if not is_one:
                    kvec = _power_vec(mono, lam_n, m + 1) if w_n_is_one else lam_n
                    span = span + component_mult_rows(mono, idxs, kvec)
                val = d - sparse_rank(span)
                dims_p.append(val)
                dims_d.append(val)
            else:
                if is_one or not w_n_is_one:
                    dims_p.append(0)
                    dims_d.append(0)
                    continue
                den = kkw((m + 1) * n)
                dims_p.append(_odd_numerator_dim(mono, idxs, _power_vec(mono, lam_n, m + 1), den))
                dims_d.append(_odd_numerator_dim(mono, idxs, _power_vec(mono, lam_n, m), den, strict=False))
        proof = [a + b for a, b in zip(proof, dims_p)]
        displayed = [
            None if (a is None or b is None) else a + b
            for a, b in zip(displayed, dims_d)
        ]
    return {
        "proof_reading": proof,
        "displayed_reading": displayed,
        "disagree_degrees": [r for r in range(max_degree + 1) if proof[r] != displayed[r]],
    }


def _odd_numerator_dim(mono, idxs, cond_vec, denominator, strict=True):
    comm = EchelonSet(component_commutator_span(mono, 0, idxs))
    num = preimage(comm, component_mult_rows(mono, idxs, cond_vec))
    qdim = quotient_dim(num, denominator)
    if qdim is None and strict:
        raise HypothesisError("denominator not inside the numerator space")
    return qdim


def hc_rank_one(mono, case, max_degree):
    ensure_collapse(mono, max_degree)
    comps = eigen_split(mono.base, mono.alpha)
    field = mono.field
    n = mono.n
    one = field.one
    lam_n = mono.f_coefficient(n)
    if case not in ("xi=0", "xi!=0, chi^n=id", "xi!=0, chi^n!=id"):
        raise HypothesisError(f"unknown rank-one case {case!r}")
    if case == "xi!=0, chi^n!=id":
        case = "xi=0"
    proof = [0] * (max_degree + 1)
    k_mod_comm = k_quotient(mono, 0).quotient_dim
    for r in range(max_degree + 1):
        m, odd = divmod(r, 2)
        if not odd:
            if case == "xi=0":
                proof[r] = k_mod_comm
            else:
                for w, idxs in comps:
                    span = component_commutator_span(mono, 0, idxs)
                    if w != one:
                        kvec = _power_vec(mono, lam_n, m + 1) if w ** n == one else lam_n
                        span = span + component_mult_rows(mono, idxs, kvec)
                    proof[r] += len(idxs) - sparse_rank(span)
        else:
            for w, idxs in comps:
                if w == one or w ** n != one:
                    continue
                if case == "xi=0":
                    den = component_commutator_span(mono, (m + 1) * n, idxs)
                    proof[r] += len(idxs) - sparse_rank(den)
                else:
                    den = component_commutator_span(mono, 0, idxs)
                    proof[r] += _odd_numerator_dim(mono, idxs, _power_vec(mono, lam_n, m + 1), den)
    return proof
