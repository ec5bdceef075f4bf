"""Homological perturbation: deformation retracts, transfer, vanishing.

A deformation retract here is (Y, d_Y) <-- p -- (X, d_X) -- i --> with
p i = id and a homotopy h: X_* -> X_{*+1} satisfying

    i p - id = d h + h d            (matrix identity, verified),

special when additionally h h = p h = h i = 0.  Given a degree -1
perturbation delta with (d + delta)^2 = 0 and delta*h locally nilpotent,
the transferred data

    d1 = d_Y + p D i,  i1 = i + h D i,  p1 = p + p D h,  h1 = h + h D h,
    D  = sum_j (delta h)^j delta,

is again a deformation retract onto (X, d + delta), special if the input
was; all of that is re-verified on construction.

The use this package makes of it: X is the total complex of the double
complex of (bar, b, 0), Y the one of (C^S, d, 0), i/p/h the blockwise
comparison maps, and delta the cyclic operator acting between columns.
The transferred differential on Y then reproduces d + D with D the
degree-raising operator of the mixed complex, the off-by-more-than-one
column blocks vanishing identically.
"""

from __future__ import annotations

from .complexes import ChainComplex
from .cyclic import BCTotal, MixedComplexData
from .linalg import ColMap


class PerturbationError(ValueError):
    pass


class DeformationRetract:
    """(Y, X, i, p, h) with the retract identities verified on demand."""

    def __init__(self, Y, X, incl, proj, h):
        self.Y = Y
        self.X = X
        self.incl = incl
        self.proj = proj
        self.h = h
        self.max_degree = min(Y.max_degree, X.max_degree)

    def verify(self, up_to=None):
        """Retract identities as matrix identities; returns a report dict."""
        top = self.max_degree if up_to is None else up_to
        field = self.Y.field
        report = {}
        report["pi=id"] = all(
            self.proj[r].compose(self.incl[r]) == ColMap.identity(field, self.Y.dim(r))
            for r in range(top + 1)
        )
        report["i chain"] = all(
            self.X.boundary(r).compose(self.incl[r]) == self.incl[r - 1].compose(self.Y.boundary(r))
            for r in range(1, top + 1)
        )
        report["p chain"] = all(
            self.Y.boundary(r).compose(self.proj[r]) == self.proj[r - 1].compose(self.X.boundary(r))
            for r in range(1, top + 1)
        )
        hom = True
        for r in range(0, top):
            lhs = self.X.boundary(r + 1).compose(self.h[r])
            if r >= 1:
                lhs = lhs.add(self.h[r - 1].compose(self.X.boundary(r)))
            rhs = self.incl[r].compose(self.proj[r]).sub(ColMap.identity(field, self.X.dim(r)))
            if lhs != rhs:
                hom = False
        report["homotopy"] = hom
        return report

    def is_special(self, up_to=None):
        top = (self.max_degree if up_to is None else up_to) - 1
        hh = all(self.h[r + 1].compose(self.h[r]).is_zero() for r in range(top))
        ph = all(self.proj[r + 1].compose(self.h[r]).is_zero() for r in range(top + 1))
        hi = all(self.h[r].compose(self.incl[r]).is_zero() for r in range(top + 1))
        return hh and ph and hi


class PerturbedRetract:
    def __init__(self, retract, delta, Y1, incl1, proj1, h1, transferred):
        self.base = retract
        self.delta = delta
        self.Y1 = Y1  # ChainComplex (Y, d_Y + pDi)
        self.incl1 = incl1
        self.proj1 = proj1
        self.h1 = h1
        self.transferred = transferred  # the pDi part alone


def perturb(retract, delta, nilpotency_bound=None):
    """Apply a degree -1 perturbation to a deformation retract.

    ``delta[r]``: X_r -> X_{r-1}.  The geometric series for
    (id - delta h)^{-1} must terminate within ``nilpotency_bound`` steps on
    each degree (default: the degree window).
    """
    X, Y = retract.X, retract.Y
    field = Y.field
    top = retract.max_degree
    bound = nilpotency_bound or (top + 2)
    # (d + delta)^2 = 0
    for r in range(2, top + 1):
        dd = X.boundary(r - 1).add(delta[r - 1]).compose(X.boundary(r).add(delta[r]))
        if not dd.is_zero():
            raise PerturbationError(f"(d + delta)^2 != 0 at degree {r}")
    # Delta_r = sum_j (delta h)^j delta
    Delta = {}
    for r in range(1, top + 1):
        term = delta[r]
        acc = term
        steps = 0
        while not term.is_zero():
            steps += 1
            if steps > bound:
                raise PerturbationError(f"delta*h not nilpotent within {bound} steps at degree {r}")
            term = delta[r].compose(retract.h[r - 1].compose(term)) if r - 1 >= 0 else term
            acc = acc.add(term)
        Delta[r] = acc
    d1 = {}
    incl1 = {}
    proj1 = {}
    h1 = {}
    transferred = {}
    for r in range(0, top + 1):
        if r >= 1:
            transferred[r] = retract.proj[r - 1].compose(Delta[r].compose(retract.incl[r]))
            d1[r] = Y.boundary(r).add(transferred[r])
            incl1[r] = retract.incl[r].add(retract.h[r - 1].compose(Delta[r].compose(retract.incl[r])))
        else:
            incl1[r] = retract.incl[r]
        if r < top:
            proj1[r] = retract.proj[r].add(retract.proj[r].compose(Delta[r + 1].compose(retract.h[r])))
            h1[r] = retract.h[r].add(retract.h[r].compose(Delta[r + 1].compose(retract.h[r])))
    Y1 = ChainComplex(field, Y.spaces, d1, check=False)
    for r in range(2, top + 1):
        if not d1[r - 1].compose(d1[r]).is_zero():
            raise PerturbationError(f"perturbed differential does not square to zero at {r}")
    return PerturbedRetract(retract, delta, Y1, incl1, proj1, h1, transferred)


def verify_perturbed(pert, up_to=None):
    """The homotopy-equivalence (and special) identities for the output."""
    retract = pert.base
    X, Y = retract.X, retract.Y
    field = Y.field
    top = (retract.max_degree if up_to is None else up_to)
    dX = {r: X.boundary(r).add(pert.delta[r]) for r in range(1, retract.max_degree + 1)}
    report = {}
    report["p1 i1 = id"] = all(
        pert.proj1[r].compose(pert.incl1[r]) == ColMap.identity(field, Y.dim(r))
        for r in range(top)
    )
    report["i1 chain"] = all(
        dX[r].compose(pert.incl1[r]) == pert.incl1[r - 1].compose(pert.Y1.boundary(r))
        for r in range(1, top)
    )
    report["p1 chain"] = all(
        pert.Y1.boundary(r).compose(pert.proj1[r]) == pert.proj1[r - 1].compose(dX[r])
        for r in range(1, top)
    )
    hom = True
    for r in range(0, top - 1):
        lhs = dX[r + 1].compose(pert.h1[r])
        if r >= 1:
            lhs = lhs.add(pert.h1[r - 1].compose(dX[r]))
        rhs = pert.incl1[r].compose(pert.proj1[r]).sub(ColMap.identity(field, X.dim(r)))
        if lhs != rhs:
            hom = False
    report["homotopy"] = hom
    if retract.is_special(up_to=top):
        report["h1 h1 = 0"] = all(
            pert.h1[r + 1].compose(pert.h1[r]).is_zero() for r in range(top - 2)
        )
        report["p1 h1 = 0"] = all(
            pert.proj1[r + 1].compose(pert.h1[r]).is_zero() for r in range(top - 1)
        )
        report["h1 i1 = 0"] = all(
            pert.h1[r].compose(pert.incl1[r]).is_zero() for r in range(top - 1)
        )
    return report


# -- the cyclic transfer retract ---------------------------------------------------

def _total(field, spaces, boundaries, max_N):
    """Tot BC(X, d, 0): the BC total complex with no cyclic operator."""
    return BCTotal(MixedComplexData(field, spaces[:max_N + 1], boundaries, {}, check=False), max_N)


def build_cyclic_retract(ws, max_N=5):
    """The (Tot BC(C^S) <- Tot BC(bar)) special retract plus the cyclic delta.

    Takes the complexes and comparison maps of the workspace ``ws`` (grown
    to ``max_N``) and returns (retract, delta, (Yside, Xside)) ready for
    ``perturb``, the sides being ``BCTotal``s; needs M = A for the cyclic
    operator.
    """
    field = ws.mono.field
    cs, bar, comparison = ws.cs(max_N), ws.bar(max_N), ws.comparison(max_N)
    Xside = _total(field, bar.spaces, {r: bar.b(r) for r in range(1, max_N + 1)}, max_N)
    Yside = _total(field, cs.spaces, cs.boundaries, max_N)
    incl = Yside.blockwise({r: comparison.phi(r) for r in range(max_N + 1)}, Xside, max_N)
    proj = Xside.blockwise({r: comparison.psi(r) for r in range(max_N + 1)}, Yside, max_N)
    h = Xside.blockwise({r: comparison.omega(r) for r in range(max_N)}, Xside, max_N - 1, degree_shift=1)
    # delta = B between columns: column p entry X_deg -> column p-1 entry X_{deg+1}
    B = {r: bar.connes_B(r) for r in range(max_N)}
    delta = Xside.blockwise(B, Xside, max_N, degree_shift=-1, column_shift=1)
    retract = DeformationRetract(Yside.complex, Xside.complex, incl, proj, h)
    return retract, delta, (Yside, Xside)


def transferred_block(pert, Yside, N, p_from, p_to):
    """Extract the (column p_to <- column p_from) block of the transferred map."""
    blocks_src = {p: (deg, off, d) for (p, deg, off, d) in Yside.blocks[N]}
    blocks_tgt = {p: (deg, off, d) for (p, deg, off, d) in Yside.blocks[N - 1]}
    deg_s, off_s, d_s = blocks_src[p_from]
    deg_t, off_t, d_t = blocks_tgt[p_to]
    out = ColMap(Yside.mixed.field, d_t, d_s)
    tr = pert.transferred[N]
    for jj in range(d_s):
        col = {}
        for i, e in tr.cols[off_s + jj].items():
            if off_t <= i < off_t + d_t:
                col[i - off_t] = e
        out.set_col(jj, col)
    return out


def vanishing_check(ws, j_max=2, r_max=3):
    """psi (B omega)^j B phi = 0 for 1 <= j <= j_max, r <= r_max.

    Column-by-column evaluation through the normalized complex of the
    workspace ``ws``; the report maps (j, r) to a boolean.  Needs bar and
    C^S data up to level r_max + 2 j_max + 1, to which the workspace grows
    (its cached maps are kept).
    """
    top = r_max + 2 * j_max + 1
    bar, comparison = ws.bar(top), ws.comparison(top)
    report = {}
    for r in range(0, r_max + 1):
        phi = comparison.phi(r)
        for j in range(1, j_max + 1):
            ok = True
            for qj in range(phi.ncols):
                v = bar.connes_B(r).apply(phi.cols[qj])
                lev = r + 1
                for _ in range(j):
                    v = comparison.omega(lev).apply(v)
                    v = bar.connes_B(lev + 1).apply(v)
                    lev += 2
                v = comparison.psi(lev).apply(v)
                if v:
                    ok = False
            report[(j, r)] = ok
    return report
