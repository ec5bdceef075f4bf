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
eigencomponents.  One builder, ``collapsed_complex``, takes a set of K-basis
indices: all of K (the K-sized complex the tests build), or one
eigencomponent (``decompose``).  A component's boundaries are the
K formulas above read in component coordinates (``component_terms``), which
equal the displayed scalars (w - 1) and sum_{l<n} w^l.  The closed-form
evaluators at the bottom read each displayed homology quotient, a cokernel
or a colon quotient, off a kept quotient space (``k_quotient``,
``component_quotient``, A/[A, A]) by ``colon_dim``; the eigencomponent
values are kept per class on the algebra, and every closed form is
cross-checked against the homology of the built complexes in the tests.

The boundaries read r through its parity alone and each space is kept once
per class of alpha^j, so ``_periodic_boundaries`` builds one ColMap per key
(parity, source, target): with v the order of alpha^n, C^S repeats with
period 2v, and every window of C^S on one M (``build_cs``) reads the maps
kept on M.  The hh closed forms evaluate once per key (r == 0,
parity, classes of alpha^{mn} and alpha^{(m+1)n}).  Nothing is shared when
alpha has infinite order.  That the homology repeats with that period is the
paper's statement, checked in the tests (``tests/paper_checks.py``).
"""

from __future__ import annotations

from .algebra import (
    commutator_quotient,
    eigen_split,
    k_commutator_subspace,
    k_quotient,
    kept,
    regular_bimodule,
)
from .complexes import ChainComplex
from .linalg import ColMap, add_term, sub_terms, subquotient
# bound by name for perfbench/tracer.py, which wraps kernel_basis in every
# module namespace that holds it (its tests read this binding)
from .linalg import kernel_basis  # noqa: F401


class HypothesisError(ValueError):
    """A closed form or collapsed complex was requested without its hypothesis."""


def cs_twist(n, r):
    m, odd = divmod(r, 2)
    return m * n + (1 if odd else 0)


def cs_space(M, r):
    """C^S_r(A, M): the quotient M/[M,K]_{alpha^j}, j = cs_twist(n, r), that
    ``commutator_quotient`` keeps on M; C^S and the comparison maps read it."""
    return commutator_quotient(M, cs_twist(M.mono.n, r))


def _boundary_terms(mono, M, r, terms):
    """The boundary formula applied to an M-term dict at degree r."""
    if r % 2 == 1:
        return sub_terms(M.x_terms("right", 1, terms), M.x_terms("left", 1, terms))
    out = {}
    for i in range(1, mono.n + 1):
        lam = mono.f_coefficient(mono.n - i)
        if not lam:
            continue
        for ell in range(i):
            for k, c in M.k_terms("left", lam, M.x_terms("left", i - ell - 1, M.x_terms("right", ell, terms))).items():
                add_term(out, k, c)
    return out


def _periodic_boundaries(spaces, image, shared):
    """{r: d_r} for 1 <= r < len(spaces), one ColMap per key (parity of r,
    source space, target space), kept in ``shared``.  Column qj of d_r is
    ``image(r, idx)`` at the qj-th free index of the source, read at the
    first degree of each key: it must read r through its parity alone.
    """
    out = {}
    for r in range(1, len(spaces)):
        key = (r % 2, spaces[r], spaces[r - 1])
        if key not in shared:
            shared[key] = ColMap(spaces[r - 1].quotient_dim, spaces[r].quotient_dim,
                                 [spaces[r - 1].project_terms(image(r, idx)) for idx in spaces[r].free])
        out[r] = shared[key]
    return out


def build_cs(M, max_degree):
    """The generic small complex C^S(A, M) in degrees 0..max_degree, d.d = 0
    asserted on every degree.  Its spaces are the quotients kept on M
    (``cs_space``), and its boundaries the ColMaps that ``_periodic_boundaries``
    keeps on M once per key, so every window of one M reads the same maps."""
    mono, spaces = M.mono, [cs_space(M, r) for r in range(max_degree + 1)]
    image = lambda r, idx: _boundary_terms(mono, M, r, {idx: 1})
    return ChainComplex(spaces, _periodic_boundaries(spaces, image, kept(M, (build_cs, "boundaries"), dict)))


def collapse_required_js(n, max_degree):
    """Twists that must satisfy [K,K]_{alpha^j} = K for the collapsed form:
    degree r reads cs_twist(n, r) + [0, n), so every j below
    cs_twist(n, max_degree) + n that n does not divide."""
    return [j for j in range(cs_twist(n, max_degree) + n) if j % n]


def ensure_collapse(mono, max_degree):
    """Refuse unless [K,K]_{alpha^j} = K for every j the collapsed forms read
    up to ``max_degree``: K/[K,K]_{alpha^j}, kept on ``mono`` once per class
    (``k_quotient``), is zero."""
    needed = {j: mono.twist(j) for j in collapse_required_js(mono.n, max_degree)}
    full = {i: k_quotient(mono, i).quotient_dim == 0 for i in set(needed.values())}
    missing = [j for j, i in needed.items() if not full[i]]
    if missing:
        raise HypothesisError(
            f"collapse not verified: [K,K]_(alpha^j) != K for j in {missing}; "
            "use the generic build_cs path"
        )


def collapsed_complex(mono, max_degree, idxs):
    """The collapsed complex on the ascending K-basis indices ``idxs``: all of
    K, or one eigencomponent of a diagonal alpha.  Its boundary columns are
    the K formulas ``_alpha_minus_id_lamn`` and ``_norm_map`` read in
    component coordinates (``component_terms``); on the eigenvalue w they are
    the scalars w - 1 and sum_{l<n} w^l.  The caller verifies collapse.
    """
    spaces = [component_quotient(mono, (r + 1) // 2 * mono.n, idxs) for r in range(max_degree + 1)]
    def image(r, ii):
        lam = mono.base.basis_vector(idxs[ii])
        return component_terms(idxs, _alpha_minus_id_lamn(mono, lam) if r % 2 else _norm_map(mono, lam))

    return ChainComplex(spaces, _periodic_boundaries(spaces, image, {}))


# -- eigencomponent decomposition ---------------------------------------------

def component_terms(idxs, terms):
    """The K-term dict ``terms`` in the coordinates of the ascending basis
    indices ``idxs``; terms off ``idxs`` are dropped."""
    return {ii: terms[i] for ii, i in enumerate(idxs) if i in terms}


def component_commutator_span(mono, j, idxs):
    """Spanning term dicts of [K,K]^w_{alpha^j} in component coordinates."""
    inside = set(idxs)
    return [component_terms(idxs, v) for v in k_commutator_subspace(mono, j) if v.keys() <= inside]


def component_mult_rows(mono, idxs, kvec):
    """Term dicts of K^w * kvec in component coordinates."""
    K = mono.base
    return [component_terms(idxs, K.product(K.basis_vector(i), kvec)) for i in idxs]


def component_quotient(mono, j, idxs):
    """K^w/[K,K]^w_{alpha^j} on the basis indices ``idxs``, computed once per
    class of alpha^j (``mono.twist``) and kept on ``mono``; on all of K it is
    ``k_quotient``."""
    i, idxs = mono.twist(j), tuple(idxs)
    if idxs == tuple(range(mono.base.dim)):
        return k_quotient(mono, i)
    return kept(mono, (component_quotient, i, idxs),
                lambda: subquotient(len(idxs), component_commutator_span(mono, i, idxs)))


def decompose(mono, max_degree):
    """Per-eigenvalue collapsed complexes [(eigenvalue, basis idxs, complex)].

    Each is ``collapsed_complex`` on its component, whose boundaries equal
    the scalar forms: odd (w - 1)[lam lam_n], even (sum_{l<n} w^l)[lam] x^{n-1}.
    """
    ensure_collapse(mono, max_degree)
    return [(w, idxs, collapsed_complex(mono, max_degree, idxs)) for w, idxs in eigen_split(mono.base, mono.alpha)]


# -- closed forms ----------------------------------------------------------------

def _well_formed(qdim):
    """A ``colon_dim`` result, refused when the quotient is not well formed."""
    if qdim is None:
        raise HypothesisError("denominator span is not contained in the numerator span")
    return qdim


def _norm_map(mono, lam):
    return mono.alpha_sum(lam, range(mono.n))


def _alpha_minus_id_lamn(mono, lam):
    return mono.base.product(sub_terms(mono.alpha_image(1, lam), lam), mono.f_coefficient(mono.n))


def _per_key(mono, max_degree, dim_at):
    """[dim_at(r) for r <= max_degree], evaluated once per key (r == 0, parity,
    class of alpha^{mn}, class of alpha^{(m+1)n}), r = 2m + parity."""
    seen = {}
    dims = []
    for r in range(max_degree + 1):
        m, odd = divmod(r, 2)
        key = (r == 0, odd, mono.twist(m * mono.n), mono.twist((m + 1) * mono.n))
        if key not in seen:
            seen[key] = dim_at(r)
        dims.append(seen[key])
    return dims


def hh_dims_collapsed(mono, max_degree):
    """Homology dimensions from the collapsed-complex closed form, read off
    the kept quotients K/[K,K]_{alpha^j}."""
    ensure_collapse(mono, max_degree)
    K, n = mono.base, mono.n
    kk = lambda j: k_commutator_subspace(mono, j)
    # the images of the K-basis under both boundary formulas, read by every key
    odd_images = [_alpha_minus_id_lamn(mono, K.basis_vector(t)) for t in range(K.dim)]
    even_images = [_norm_map(mono, K.basis_vector(t)) for t in range(K.dim)]
    def dim_at(r):
        m, odd = divmod(r, 2)
        if r == 0:
            return k_quotient(mono, 0).colon_dim(odd_images)
        if odd:
            return _well_formed(k_quotient(mono, m * n).colon_dim(odd_images, kk((m + 1) * n) + even_images))
        return _well_formed(k_quotient(mono, m * n).colon_dim(even_images, kk(m * n) + odd_images))

    return _per_key(mono, max_degree, dim_at)


# The eigencomponent closed forms (``hh_dims_eigen``, ``hh_rank_one`` and
# those of cyclic.py) read the quotients below on a component K^w, given by
# its basis indices.

def is_root(mono, w):
    """Whether the eigenvalue w is an n-th root of unity other than 1: only
    these components carry homology above degree 0."""
    return w != 1 and w ** mono.n == 1


def power_vec(mono, kvec, power):
    """kvec^power in K."""
    out = mono.base.unit
    for _ in range(power):
        out = mono.base.product(out, kvec)
    return out


def component_cokernel_dim(mono, idxs, j, kvec=None):
    """dim K^w / ([K,K]^w_{alpha^j} + K^w kvec), read off the kept
    ``component_quotient``; without kvec, its dimension.  Kept on ``mono``
    per class of alpha^j, component and kvec."""
    quotient = component_quotient(mono, j, idxs)
    if kvec is None:
        return quotient.quotient_dim
    return kept(mono, (component_cokernel_dim, mono.twist(j), tuple(idxs), tuple(sorted(kvec.items()))),
                lambda: quotient.colon_dim(component_mult_rows(mono, idxs, kvec)))


def component_colon_dim(mono, idxs, j, kvec, j_den):
    """dim {lam in K^w : lam kvec in [K,K]^w_{alpha^j}} / [K,K]^w_{alpha^j_den}
    off the kept ``component_quotient``, or None when not well formed.  Kept
    on ``mono`` per class of alpha^j, component, kvec and class of alpha^j_den."""
    key = (component_colon_dim, mono.twist(j), tuple(idxs), tuple(sorted(kvec.items())), mono.twist(j_den))
    return kept(mono, key, lambda: component_quotient(mono, j, idxs).colon_dim(
        component_mult_rows(mono, idxs, kvec), component_commutator_span(mono, j_den, idxs)))


def even_dim(mono, w, idxs, m):
    """HC_{2m} of the component K^w, and HH_0 at m = 0: K^w/[K,K]^w for w = 1,
    else K^w modulo [K,K]^w + K^w lam_n^(m+1) (w^n = 1) or + K^w lam_n."""
    if w == 1:
        return component_cokernel_dim(mono, idxs, 0)
    lam_n = mono.f_coefficient(mono.n)
    return component_cokernel_dim(mono, idxs, 0, power_vec(mono, lam_n, m + 1) if is_root(mono, w) else lam_n)


def rank_one_xi_zero(case):
    """Whether the rank-one case reads the xi=0 formulas, as "xi=0" does and
    "xi!=0, chi^n!=id" does after the quotient rewrite f = x^n; refuses any
    other name than these and "xi!=0, chi^n=id"."""
    if case not in ("xi=0", "xi!=0, chi^n=id", "xi!=0, chi^n!=id"):
        raise HypothesisError(f"unknown rank-one case {case!r}")
    return case != "xi!=0, chi^n=id"


def hh_dims_eigen(mono, max_degree):
    """Per-eigenvalue closed form, summed over the components."""
    ensure_collapse(mono, max_degree)
    n = mono.n
    lam_n = mono.f_coefficient(n)
    totals = [0] * (max_degree + 1)
    for w, idxs in eigen_split(mono.base, mono.alpha):
        def dim_at(r):
            m, odd = divmod(r, 2)
            if r == 0:
                return even_dim(mono, w, idxs, 0)
            if not is_root(mono, w):
                return 0
            if odd:
                return _well_formed(component_colon_dim(mono, idxs, m * n, lam_n, (m + 1) * n))
            return component_cokernel_dim(mono, idxs, m * n, lam_n)

        totals = [a + b for a, b in zip(totals, _per_key(mono, max_degree, dim_at))]
    return totals


def hh_dims_alpha_identity(mono, max_degree):
    """Closed form for alpha = id, read off one quotient of A by [A, A]."""
    K = mono.base
    if mono.twist(1) != 0:
        raise HypothesisError("closed form requires alpha = id")
    n = mono.n
    M = regular_bimodule(mono)
    dimA = mono.dim
    # f' = n x^{n-1} + sum_{i=1}^{n-1} (n-i) lam_i x^{n-i-1}
    fprime = {}
    for i in range(n):
        for k, c in mono.f_coefficient(i).items():
            add_term(fprime, (n - i - 1) * K.dim + k, (n - i) * c)
    commutators = [sub_terms(M.a_terms("left", {u: 1}, {v: 1}), M.a_terms("right", {u: 1}, {v: 1}))
                   for u in range(dimA) for v in range(dimA)]
    fprime_mult = [M.a_terms("left", fprime, {v: 1}) for v in range(dimA)]
    comm = subquotient(dimA, commutators)
    def dim_at(r):
        if r == 0:
            return comm.quotient_dim
        if r % 2:
            return comm.colon_dim(fprime_mult)
        return _well_formed(comm.colon_dim(fprime_mult, commutators))

    return _per_key(mono, max_degree, dim_at)


def hh_closed_form(mono, case, max_degree):
    """Dispatch on the verified hypothesis case.

    case: "collapsed" (central-element collapse), "eigen" (collapse plus
    diagonal alpha), or "alpha_identity".
    """
    if case == "collapsed":
        return hh_dims_collapsed(mono, max_degree)
    if case == "eigen":
        return hh_dims_eigen(mono, max_degree)
    if case == "alpha_identity":
        return hh_dims_alpha_identity(mono, max_degree)
    raise HypothesisError(f"unknown closed-form case {case!r}")


def hh_rank_one(mono, case, max_degree):
    """Group-character specializations of the homology closed forms.

    case: "xi=0", "xi!=0, chi^n=id", or "xi!=0, chi^n!=id" (the last uses
    the xi=0 formulas, matching the quotient rewrite).  Components run over
    the n-th roots of unity among the eigenvalues; with lam_n supplied by
    the extension the two nonzero-xi displays use g1^n - 1 = -lam_n up to
    the xi unit, so lam_n itself is what enters the spans.
    """
    ensure_collapse(mono, max_degree)
    comps = eigen_split(mono.base, mono.alpha)
    xi_zero = rank_one_xi_zero(case)
    lam_n = mono.f_coefficient(mono.n)
    roots = [idxs for w, idxs in comps if is_root(mono, w)]
    def dim_at(r):
        if r == 0:
            if xi_zero:
                return k_quotient(mono, 0).quotient_dim
            return sum(even_dim(mono, w, idxs, 0) for w, idxs in comps)
        if xi_zero:
            return sum(component_cokernel_dim(mono, idxs, (r + 1) // 2 * mono.n) for idxs in roots)
        if r % 2:
            return sum(_well_formed(component_colon_dim(mono, idxs, 0, lam_n, 0)) for idxs in roots)
        return sum(component_cokernel_dim(mono, idxs, 0, lam_n) for idxs in roots)

    return _per_key(mono, max_degree, dim_at)
