"""Homological perturbation: deformation retracts, transfer, vanishing.

A deformation retract here is (Y, d_Y) <-- p -- (X, d_X) -- i --> with
p i = id and a homotopy h: X_* -> X_{*+1} satisfying

    i p - id = d h + h d,

special when additionally h h = p h = h i = 0.  A retract is its two
complexes, its three maps and the window of total degrees in which its
builder has every map defined; ``holds`` and ``is_special`` answer the two
questions, each identity checked as a relation (``linalg.relation_holds``)
and nothing kept.  Given a degree -1 perturbation delta with
(d + delta)^2 = 0 and delta*h locally nilpotent, the transferred data

    d1 = d_Y + p D i,  i1 = i + h D i,  p1 = p + p D h,  h1 = h + h D h,
    D  = sum_j (delta h)^j delta,

kept as sums of chains, is again a deformation retract onto (X, d + delta),
special if the input was.  ``perturb`` returns it as a retract of its own,
its window one below the input's because p1 and h1 read D one degree up,
and ``verify_perturbed`` runs the same two checks on it.
``perturb`` builds (X, d + delta) as a ``ChainComplex`` before the series
and (Y, d1) after it, so each checks its square as it is built: a delta
with (d + delta)^2 != 0 raises ``ComplexError`` naming the degree, and so
does a series that does not terminate.

The use this package makes of it: X is the BC total of (bar, b, 0), Y the
one of (C^S, d, 0), i/p/h the comparison maps placed block by block on the
columns (p, degree, offset, dim) of ``cyclic.tot_blocks``, the layout
``bc_total`` reads too, and delta the cyclic operator acting between columns.
C^S is the caller's own, and the bar complex of the same degree and the
comparison maps are those kept on M: ``verify`` totals the complexes it
has already built.
The transferred differential on Y then reproduces d + D with D the
degree-raising operator of the mixed complex, the off-by-more-than-one
column blocks vanishing identically.
"""

from __future__ import annotations

from .bar import bar_complex, comparison
from .complexes import ChainComplex, ComplexError
from .cyclic import bc_total, tot_blocks
from .linalg import ColMap, add_terms, anticommutator_terms, chain_sum, relation_holds


def homotopy_terms(d, h, i, p, r):
    """The relation d h + h d - i p + id = 0 in degree r, for maps given by
    degree (``d(r)``: X_r -> X_{r-1}); h_{-1} = 0 leaves out h d at r = 0."""
    return anticommutator_terms(d, h, r) + [(-1, [i(r), p(r)]), (1, [])]


class DeformationRetract:
    """(Y, X, i, p, h), checked on demand in total degrees <= max_degree,
    the window in which whoever builds the retract has every map defined."""

    def __init__(self, Y, X, incl, proj, h, max_degree):
        self.Y, self.X, self.incl, self.proj, self.h = Y, X, incl, proj, h
        self.max_degree = max_degree

    def holds(self):
        """p i = id, i and p chain maps, and i p - id = d h + h d."""
        top = self.max_degree
        X, Y, i, p, h = self.X, self.Y, self.incl, self.proj, self.h
        dX, dY = X.boundary, Y.boundary
        return (all(relation_holds(Y.dim(r), [(1, [p[r], i[r]]), (-1, [])]) for r in range(top + 1))
                and all(relation_holds(Y.dim(r), [(1, [dX(r), i[r]]), (-1, [i[r - 1], dY(r)])])
                        for r in range(1, top + 1))
                and all(relation_holds(X.dim(r), [(1, [dY(r), p[r]]), (-1, [p[r - 1], dX(r)])])
                        for r in range(1, top + 1))
                and all(relation_holds(X.dim(r), homotopy_terms(dX, h.get, i.get, p.get, r)) for r in range(top)))

    def is_special(self):
        """The side conditions h h = p h = h i = 0 below max_degree."""
        top = self.max_degree - 1
        X, Y, h = self.X, self.Y, self.h
        return (all(relation_holds(X.dim(r), [(1, [h[r + 1], h[r]])]) for r in range(top))
                and all(relation_holds(X.dim(r), [(1, [self.proj[r + 1], h[r]])]) for r in range(top + 1))
                and all(relation_holds(Y.dim(r), [(1, [h[r], self.incl[r]])]) for r in range(top + 1)))


def perturb(retract, delta):
    """Apply a degree -1 perturbation to a deformation retract.

    ``delta[r]``: X_r -> X_{r-1}.  The geometric series for
    (id - delta h)^{-1} must terminate on each degree within the degree
    window plus 2 steps.
    """
    X, Y, incl, proj, h = retract.X, retract.Y, retract.incl, retract.proj, retract.h
    field = Y.field
    top = retract.max_degree
    bound = top + 2
    dX = {r: chain_sum(field, X.dim(r), [(1, [X.boundary(r)]), (1, [delta[r]])]) for r in range(1, top + 1)}
    X1 = ChainComplex(field, X.spaces, dX)  # checks (d + delta)^2 = 0 before the series
    # Delta_r = sum_j (delta h)^j delta, one geometric series per column: a
    # column is nonzero after k steps exactly when the whole term is
    Delta = {}
    for r in range(1, top + 1):
        cols = []
        for j in range(X.dim(r)):
            term = delta[r].cols[j]
            acc = dict(term)
            steps = 0
            while term:
                steps += 1
                if steps > bound:
                    raise ComplexError(f"delta*h not nilpotent within {bound} steps at degree {r}")
                term = delta[r].apply(h[r - 1].apply(term))
                add_terms(acc, term)
            cols.append(acc)
        Delta[r] = ColMap(field, X.dim(r - 1), X.dim(r), cols)
    d1 = {r: chain_sum(field, Y.dim(r), [(1, [Y.boundary(r)]), (1, [proj[r - 1], Delta[r], incl[r]])]) for r in Delta}
    incl1 = {r: chain_sum(field, Y.dim(r), [(1, [incl[r]]), (1, [h[r - 1], Delta[r], incl[r]])]) for r in Delta}
    incl1[0] = incl[0]
    proj1 = {r: chain_sum(field, X.dim(r), [(1, [proj[r]]), (1, [proj[r], Delta[r + 1], h[r]])]) for r in range(top)}
    h1 = {r: chain_sum(field, X.dim(r), [(1, [h[r]]), (1, [h[r], Delta[r + 1], h[r]])]) for r in range(top)}
    # p1 and h1 read Delta one degree up, so the window drops by one
    return DeformationRetract(ChainComplex(field, Y.spaces, d1), X1, incl1, proj1, h1, top - 1)


def verify_perturbed(pert, special):
    """The retract identities of the output and, if its input was
    ``special``, its side conditions, in the degrees where its maps are
    defined."""
    return pert.holds() and (not special or pert.is_special())


# -- the cyclic transfer retract ---------------------------------------------------

def blockwise(maps, X, Y, max_N, degree_shift=0, column_shift=0):
    """Maps Tot_N of X -> Tot_{N+degree_shift} of Y, N <= max_N, keyed by N.

    The column-p entry y in X_deg goes to ``maps[deg](y)`` in column
    p - column_shift; a degree missing from ``maps`` maps to zero.
    """
    out = {}
    for N in range(max(0, -degree_shift), max_N + 1):
        tgt = tot_blocks(Y, N + degree_shift)
        tgt_off = {p: off for (p, deg, off, d) in tgt}
        cols = []
        for (p, deg, off, d) in tot_blocks(X, N):
            mp = maps.get(deg)
            if mp is None or p - column_shift not in tgt_off:
                cols += [{} for _ in range(d)]
                continue
            shift = tgt_off[p - column_shift]
            cols += [{shift + i: e for i, e in mp.cols[jj].items()} for jj in range(d)]
        out[N] = ColMap(X.field, sum(d for (p, deg, off, d) in tgt), len(cols), cols)
    return out


def build_cyclic_retract(cs, M, max_N):
    """The (Tot BC(C^S) <- Tot BC(bar)) special retract plus the cyclic delta.

    Takes the small complex ``cs`` of M = A, of degree at least ``max_N``,
    and the normalized complex of the same degree and the comparison maps
    kept on M, and returns (retract, delta) ready for ``perturb``, the two
    sides being the BC totals of the two complexes with no cyclic operator;
    needs M = A for the cyclic operator.
    """
    bar, cmp_ = bar_complex(M), comparison(M)
    X = bar.chain_complex(cs.max_degree)
    Xtot, Ytot = bc_total(X, {}, max_N), bc_total(cs, {}, max_N)
    incl = blockwise({r: cmp_.phi(r) for r in range(max_N + 1)}, cs, X, max_N)
    proj = blockwise({r: cmp_.psi(r) for r in range(max_N + 1)}, X, cs, max_N)
    h = blockwise({r: cmp_.omega(r) for r in range(max_N)}, X, X, max_N - 1, degree_shift=1)
    # delta = B between columns: column p entry X_deg -> column p-1 entry X_{deg+1}
    delta = blockwise({r: bar.connes_B(r) for r in range(max_N)}, X, X, max_N, degree_shift=-1, column_shift=1)
    return DeformationRetract(Ytot, Xtot, incl, proj, h, max_N), delta


def vanishing_check(M, j_max, r_max):
    """psi (B omega)^j B phi = 0 for 1 <= j <= j_max, r <= r_max.

    Each (j, r) is one relation on the normalized complex kept on M (= A),
    its chain read right to left from phi_r, so only the columns of the
    higher maps that the images of the phi columns reach are built, and no
    composed map is kept.  The report maps (j, r) to a boolean.
    """
    bar, cmp_ = bar_complex(M), comparison(M)
    report = {}
    for r in range(r_max + 1):
        chain = [bar.connes_B(r), cmp_.phi(r)]
        for j in range(1, j_max + 1):
            lev = r + 2 * j - 1
            chain = [bar.connes_B(lev + 1), cmp_.omega(lev)] + chain
            report[j, r] = relation_holds(chain[-1].ncols, [(1, [cmp_.psi(lev + 2)] + chain)])
    return report
