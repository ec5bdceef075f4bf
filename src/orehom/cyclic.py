"""Cyclic homology: the degree-raising operator D on C^S, mixed complexes,
the BC total complex and the cyclic closed forms.

D is transferred from the cyclic operator of the normalized complex through
the comparison maps (D = psi . B . phi); this module implements its closed
formulas directly and the transfer is cross-checked in the tests and in the
verification suite.  On the collapsed complex every even D vanishes and

    D_{2m+1}([lam] x^{n-1}) = [(id - alpha)(sum_{u<=m} alpha^{nu}(lam))].

``connes_D_collapsed`` reads this K formula on the K-basis indices of an
eigencomponent, where it equals the scalar (1 - w)(sum_{u<=m} w^{nu}).  The
cyclic closed forms read the component quotients of ``small_complex``, kept
per class.  The paper's statements on the S, i and B maps of HC are checked
in the tests (``tests/paper_checks.py``).

A mixed complex is a chain complex (X, b) and a dict B of degree +1 maps:
``check_mixed`` checks BB = bB + Bb = 0 where B is made, and ``bc_total``
returns the total complex of the first-quadrant double complex built from
(X, b, B) as a ChainComplex, with the plain-sum differential (no auxiliary
signs): the mixed identities make it square to zero, and its d.d = 0 is
checked as it is built.  Its column layout is ``tot_blocks``, which the
transfer retract of ``perturbation.py`` reads too.  ``hc_dims`` reads HC
off that total, for C^S, for each eigencomponent and for the normalized
complex alike.
"""

from __future__ import annotations

from .algebra import eigen_split, k_quotient
from .complexes import ChainComplex, ComplexError, homology_dims
from .linalg import ColMap, SubquotientSpace, add_terms, anticommutator_terms, relation_holds, sub_terms
# bound by name for perfbench/tracer.py, which wraps kernel_basis in every
# module namespace that holds it (its tests read this binding)
from .linalg import kernel_basis  # noqa: F401
from .small_complex import (
    HypothesisError,
    _well_formed,
    build_cs,
    component_cokernel_dim,
    component_colon_dim,
    component_terms,
    decompose,
    ensure_collapse,
    even_dim,
    is_root,
    power_vec,
    rank_one_xi_zero,
)


def check_mixed(complex_, B):
    """The mixed identities of (X, b, B) for the chain complex ``complex_``
    and B a dict of degree +1 maps: B.B = 0 and bB + Bb = 0, a degree
    missing from B reading as B = 0.  b.b = 0 was checked where the complex
    was built; a violation raises ``ComplexError`` (it would mean a formula
    bug, not a data problem).  Returns B.
    """
    b = complex_.boundaries
    for r in range(complex_.max_degree - 1):
        if r in B and r + 1 in B and not relation_holds(B[r].ncols, [(1, [B[r + 1], B[r]])]):
            raise ComplexError(f"B.B != 0 at degree {r}")
    for r in range(complex_.max_degree):
        terms = [(c, chain) for c, chain in anticommutator_terms(b.get, B.get, r)
                 if all(m is not None for m in chain)]
        if terms and not relation_holds(complex_.dim(r), terms):
            raise ComplexError(f"bB + Bb != 0 at degree {r}")
    return B


# -- the Connes operator on C^S ------------------------------------------------

def connes_D(mono, r, cs_spaces):
    """D_r on the generic small complex for M = A.

    Overlined sums are division quotients by f, read off the cached
    quotients of the powers of x (the quotient is left K-linear); classes
    [lam x^j] are the ambient monomial basis of A.
    """
    if not 0 <= r < len(cs_spaces) - 1:
        raise HypothesisError(f"degree {r} out of range for a window of {len(cs_spaces)} spaces")
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
            for i in range(1, n + 1):
                lam_ni = mono.f_coefficient(n - i)
                if not m or not lam_ni or j + i - 1 < n:
                    continue
                # the (u, i) terms are K-linear in sum_{l<i} alpha^(nu + l)(lam): sum over u < m, one product
                ssum = mono.alpha_sum(lam, [n * u + ell for u in range(m) for ell in range(i)])
                add_terms(total, mono.k_times(K.product(lam_ni, ssum), mono.x_power_quotient(j + i - 1)))
        cols.append(tgt.project_terms(total))
    return ColMap(tgt.quotient_dim, src.quotient_dim, cols)


def connes_D_collapsed(mono, r, cs_spaces, idxs):
    """D on the collapsed complex over the ascending K-basis indices ``idxs``
    (all of K, or one eigencomponent): zero in even degrees, the alpha-norm
    difference read in component coordinates in odd degrees.  On the
    eigenvalue w that is the scalar (1 - w) sum_{u<=m} w^{nu}."""
    src = cs_spaces[r]
    tgt = cs_spaces[r + 1]
    m, odd = divmod(r, 2)
    if not odd:
        return ColMap(tgt.quotient_dim, src.quotient_dim)
    cols = []
    for ii in src.free:
        w = mono.alpha_sum(mono.base.basis_vector(idxs[ii]), range(0, (m + 1) * mono.n, mono.n))
        cols.append(tgt.project_terms(component_terms(idxs, sub_terms(w, mono.alpha_image(1, w)))))
    return ColMap(tgt.quotient_dim, src.quotient_dim, cols)


def build_mixed(cs, M):
    """The checked D = {r: D_r} of the mixed complex (C^S, d, D) on the C^S
    ``cs`` of M = A, in its window; d.d = 0 was checked as C^S was built."""
    return check_mixed(cs, {r: connes_D(M.mono, r, cs.spaces) for r in range(cs.max_degree)})


def build_mixed_components(mono, max_degree):
    """Eigencomponent mixed complexes [(w, idxs, complex, D)], each D checked."""
    out = []
    for w, idxs, comp in decompose(mono, max_degree):
        D = {r: connes_D_collapsed(mono, r, comp.spaces, idxs) for r in range(max_degree)}
        out.append((w, idxs, comp, check_mixed(comp, D)))
    return out


def transfer_D(comparison, bar, r):
    """psi_{r+1} . B_r . phi_r computed through the normalized complex."""
    return comparison.psi(r + 1).compose(bar.connes_B(r).compose(comparison.phi(r)))


# -- BC total complex ------------------------------------------------------------

def tot_blocks(complex_, N):
    """The blocks (p, degree, offset, dim) of Tot_N = (+)_{p >= 0} X_{N-2p}
    of the BC total of the complex X = ``complex_``, column 0 first: the one
    column layout that ``bc_total`` and the transfer retract read."""
    blocks, off = [], 0
    for p in range(N // 2 + 1):
        d = complex_.dim(N - 2 * p)
        blocks.append((p, N - 2 * p, off, d))
        off += d
    return blocks


def bc_total(complex_, B, max_N):
    """Total complex of the quotient double complex of the mixed complex
    (X, b, B), X = ``complex_``, in total degrees 0..max_N.

    Tot_N = (+)_{p >= 0} X_{N-2p} laid out by ``tot_blocks``, the whole space
    with no elimination; the differential sends the column-p entry y to b(y)
    in column p and B(y) into column p-1, a degree missing from B counting
    as B = 0, and each boundary is built from its list of columns.
    """
    if max_N > complex_.max_degree:
        raise HypothesisError(f"total degree {max_N} exceeds the mixed complex window {complex_.max_degree}")
    b = complex_.boundaries
    blocks = [tot_blocks(complex_, N) for N in range(max_N + 1)]
    dims = [off + d for (_, _, off, d) in [blks[-1] for blks in blocks]]  # the last block ends Tot_N
    # the projection of the whole space Tot_N is the first dim Tot_N columns of one identity
    ident = [{i: 1} for i in range(max(dims))]
    spaces = [SubquotientSpace(d, list(range(d)), ident[:d]) for d in dims]
    boundaries = {}
    for N in range(1, max_N + 1):
        tgt = blocks[N - 1]
        # column 0 of Tot_N and Tot_{N-1} starts at row 0: b's columns, shared (never edited)
        cols = list(b[N].cols)
        for (p, deg, _, d) in blocks[N][1:]:
            Bm = B.get(deg)
            lo, hi = tgt[p - 1][2], tgt[p][2] if deg >= 1 else None  # offsets of columns p - 1 and p of Tot_{N-1}
            for jj in range(d):
                # b lands in column p and B in column p - 1: their rows never meet
                col = {hi + i: e for i, e in b[deg].cols[jj].items()} if deg >= 1 else {}
                if Bm is not None:
                    col.update((lo + i, e) for i, e in Bm.cols[jj].items())
                cols.append(col)
        boundaries[N] = ColMap(dims[N - 1], dims[N], cols)
    return ChainComplex(spaces, boundaries)


def hc_dims(complex_, B, max_N):
    """HC_0..HC_{max_N - 1} of the mixed complex (complex_, b, B), read off
    its BC total in total degrees 0..max_N."""
    return homology_dims(bc_total(complex_, B, max_N), max_N - 1)


def hc(M, max_degree):
    """Cyclic homology dimensions HC_0..HC_{max_degree-1} of A, from the C^S of M = A."""
    cs = build_cs(M, max_degree)
    return hc_dims(cs, build_mixed(cs, M), max_degree)


# -- closed forms -----------------------------------------------------------------

def hc_closed_form(mono, max_degree):
    """Per-eigencomponent closed-form HC dimensions, both exponent readings.

    Returns a dict with per-degree totals under the proof reading
    (numerator condition lam*lam_n^(m+1), refused when the colon quotient is
    not well formed), the displayed reading (exponent m, None when it is
    not), and the degrees where the two disagree.  Even degrees do not
    depend on the reading.
    """
    ensure_collapse(mono, max_degree)
    comps = eigen_split(mono.base, mono.alpha)
    lam_n = mono.f_coefficient(mono.n)
    proof = [0] * (max_degree + 1)
    displayed = [0] * (max_degree + 1)
    for w, idxs in comps:
        for r in range(max_degree + 1):
            m, odd = divmod(r, 2)
            if not odd:
                p = d = even_dim(mono, w, idxs, m)
            elif not is_root(mono, w):
                p = d = 0
            else:
                p = _well_formed(component_colon_dim(mono, idxs, 0, power_vec(mono, lam_n, m + 1), (m + 1) * mono.n))
                d = component_colon_dim(mono, idxs, 0, power_vec(mono, lam_n, m), (m + 1) * mono.n)
            proof[r] += p
            displayed[r] = None if displayed[r] is None or d is None else displayed[r] + d
    return {
        "proof_reading": proof,
        "displayed_reading": displayed,
        "disagree_degrees": [r for r in range(max_degree + 1) if proof[r] != displayed[r]],
    }


def hc_rank_one(mono, case, max_degree):
    """The group-character specializations of the cyclic closed forms.

    case: "xi=0" (also used after the chi^n != id rewrite) or
    "xi!=0, chi^n=id".  Returns the per-degree totals under the proof
    reading of ``hc_closed_form``, with components restricted to
    eigenvalues w with w^n = 1, plus the full K/[K,K] term in even degrees.
    """
    ensure_collapse(mono, max_degree)
    comps = eigen_split(mono.base, mono.alpha)
    xi_zero = rank_one_xi_zero(case)
    lam_n = mono.f_coefficient(mono.n)
    roots = [idxs for w, idxs in comps if is_root(mono, w)]
    k_mod_comm = k_quotient(mono, 0).quotient_dim
    proof = []
    for r in range(max_degree + 1):
        m, odd = divmod(r, 2)
        if not odd:
            proof.append(k_mod_comm if xi_zero else sum(even_dim(mono, w, idxs, m) for w, idxs in comps))
        elif xi_zero:
            proof.append(sum(component_cokernel_dim(mono, idxs, (m + 1) * mono.n) for idxs in roots))
        else:
            proof.append(sum(_well_formed(component_colon_dim(mono, idxs, 0, power_vec(mono, lam_n, m + 1), 0))
                             for idxs in roots))
    return proof
