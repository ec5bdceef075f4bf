"""Homological perturbation: deformation retracts, transfer, vanishing.

A deformation retract here is (Y, d_Y) <-- p -- (X, d_X) -- i --> with
p i = id and a homotopy h: X_* -> X_{*+1} satisfying

    i p - id = d h + h d,

special when additionally h h = p h = h i = 0, each identity checked as a
relation (``linalg.relation_holds``).  Given a degree -1 perturbation delta
with (d + delta)^2 = 0 and delta*h locally nilpotent, the transferred data

    d1 = d_Y + p D i,  i1 = i + h D i,  p1 = p + p D h,  h1 = h + h D h,
    D  = sum_j (delta h)^j delta,

kept as sums of chains, is again a deformation retract onto (X, d + delta),
special if the input was; ``verify_perturbed`` runs the retract checks on it
in the degrees below the input's top, where every perturbed map is defined.

The use this package makes of it: X is the BC total of (bar, b, 0), Y the
one of (C^S, d, 0), i/p/h the comparison maps placed block by block on the
columns (p, degree, offset, dim) of ``tot_blocks``, and delta the cyclic
operator acting between columns.
C^S is the caller's own, and the bar complex of the same degree and the
comparison maps are those kept on M: ``verify`` totals the complexes it
has already built.
The transferred differential on Y then reproduces d + D with D the
degree-raising operator of the mixed complex, the off-by-more-than-one
column blocks vanishing identically.
"""

from __future__ import annotations

from .algebra import memo
from .bar import bar_complex, comparison
from .complexes import ChainComplex
from .cyclic import bc_total
from .linalg import ColMap, add_terms, anticommutator_terms, chain_sum, relation_holds


class PerturbationError(ValueError):
    pass


def homotopy_terms(d, h, i, p, r):
    """The relation d h + h d - i p + id = 0 in degree r, for maps given by
    degree (``d(r)``: X_r -> X_{r-1}); h_{-1} = 0 leaves out h d at r = 0."""
    return anticommutator_terms(d, h, r) + [(-1, [i(r), p(r)]), (1, [])]


class DeformationRetract:
    """(Y, X, i, p, h) with the retract identities verified on demand."""

    def __init__(self, Y, X, incl, proj, h):
        self.Y = Y
        self.X = X
        self.incl = incl
        self.proj = proj
        self.h = h
        self.max_degree = min(Y.max_degree, X.max_degree)

    def verify(self):
        """Retract identities in degrees <= max_degree; returns a report dict."""
        top = self.max_degree
        X, Y, i, p, h = self.X, self.Y, self.incl, self.proj, self.h
        dX, dY = X.boundary, Y.boundary
        return {
            "pi=id": all(relation_holds(Y.dim(r), [(1, [p[r], i[r]]), (-1, [])]) for r in range(top + 1)),
            "i chain": all(relation_holds(Y.dim(r), [(1, [dX(r), i[r]]), (-1, [i[r - 1], dY(r)])])
                           for r in range(1, top + 1)),
            "p chain": all(relation_holds(X.dim(r), [(1, [dY(r), p[r]]), (-1, [p[r - 1], dX(r)])])
                           for r in range(1, top + 1)),
            "homotopy": all(relation_holds(X.dim(r), homotopy_terms(dX, h.get, i.get, p.get, r)) for r in range(top)),
        }

    def special(self):
        """The side conditions h h = p h = h i = 0 below max_degree; a report dict."""
        top = self.max_degree - 1
        X, Y, h = self.X, self.Y, self.h
        return {
            "h h = 0": all(relation_holds(X.dim(r), [(1, [h[r + 1], h[r]])]) for r in range(top)),
            "p h = 0": all(relation_holds(X.dim(r), [(1, [self.proj[r + 1], h[r]])]) for r in range(top + 1)),
            "h i = 0": all(relation_holds(Y.dim(r), [(1, [h[r], self.incl[r]])]) for r in range(top + 1)),
        }

    @memo
    def is_special(self):
        """Whether ``special`` holds, kept for every reader."""
        return all(self.special().values())


class PerturbedRetract(DeformationRetract):
    """(Y, d_Y + pDi) <- (X, d + delta) with i1, p1 and h1; ``base`` is the
    retract it was transferred from and ``transferred`` the pDi part alone.
    p1 and h1 read Delta one degree up, so every map is defined below the
    top degree of ``base``, which is ``max_degree`` here."""

    def __init__(self, base, transferred, *retract):
        super().__init__(*retract)
        self.base, self.transferred = base, transferred
        self.max_degree = base.max_degree - 1


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
    for r in range(2, top + 1):
        if not relation_holds(X.dim(r), [(1, [dX[r - 1], dX[r]])]):
            raise PerturbationError(f"(d + delta)^2 != 0 at degree {r}")
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
                    raise PerturbationError(f"delta*h not nilpotent within {bound} steps at degree {r}")
                term = delta[r].apply(h[r - 1].apply(term))
                add_terms(acc, term)
            cols.append(acc)
        Delta[r] = ColMap(field, X.dim(r - 1), X.dim(r), cols)
    transferred = {r: chain_sum(field, Y.dim(r), [(1, [proj[r - 1], Delta[r], incl[r]])]) for r in Delta}
    d1 = {r: chain_sum(field, Y.dim(r), [(1, [Y.boundary(r)]), (1, [transferred[r]])]) for r in Delta}
    incl1 = {r: chain_sum(field, Y.dim(r), [(1, [incl[r]]), (1, [h[r - 1], Delta[r], incl[r]])]) for r in Delta}
    incl1[0] = incl[0]
    proj1 = {r: chain_sum(field, X.dim(r), [(1, [proj[r]]), (1, [proj[r], Delta[r + 1], h[r]])]) for r in range(top)}
    h1 = {r: chain_sum(field, X.dim(r), [(1, [h[r]]), (1, [h[r], Delta[r + 1], h[r]])]) for r in range(top)}
    for r in range(2, top + 1):
        if not relation_holds(Y.dim(r), [(1, [d1[r - 1], d1[r]])]):
            raise PerturbationError(f"perturbed differential does not square to zero at {r}")
    return PerturbedRetract(retract, transferred, ChainComplex(field, Y.spaces, d1, check=False),
                            ChainComplex(field, X.spaces, dX, check=False), incl1, proj1, h1)


# the retract checks under the names of the perturbed maps
_PERTURBED_NAMES = {"pi=id": "p1 i1 = id", "i chain": "i1 chain", "p chain": "p1 chain", "homotopy": "homotopy",
                    "h h = 0": "h1 h1 = 0", "p h = 0": "p1 h1 = 0", "h i = 0": "h1 i1 = 0"}


def verify_perturbed(pert):
    """The homotopy-equivalence (and, if the input was special, special)
    identities for the output, in the degrees where its maps are defined."""
    report = pert.verify()
    if pert.base.is_special():
        report.update(pert.special())
    return {_PERTURBED_NAMES[key]: ok for key, ok in report.items()}


# -- the cyclic transfer retract ---------------------------------------------------

def tot_blocks(complex_, N):
    """The blocks (p, degree, offset, dim) of Tot_N = (+)_{p >= 0} X_{N-2p}
    of the BC total of the complex X = ``complex_``, column 0 first."""
    blocks, off = [], 0
    for p in range(N // 2 + 1):
        d = complex_.dim(N - 2 * p)
        blocks.append((p, N - 2 * p, off, d))
        off += d
    return blocks


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
    return DeformationRetract(Ytot, Xtot, incl, proj, h), delta


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
