"""Chain complexes with subquotient spaces and exact homology.

A ChainComplex stores one SubquotientSpace per degree 0..max_degree and
column-sparse boundary maps d_r: C_r -> C_{r-1} in quotient coordinates.
``d . d = 0`` is checked at construction.  Homology dimensions come from
ranks alone, dim H_r = n_r - rank d_r - rank d_{r+1}, each rank taken once
by ``sparse_rank`` on the boundary's columns.  Only ``homology``, which
gives representatives, runs a kernel: its cycles are lifted to sparse ambient
term dicts by putting their quotient coordinates at the free columns of
the space, so they are reproducible.

One map object may sit at several degrees (C^S shares d_r with d_{r + 2v}),
so the d.d check tests each distinct (d_{r-1}, d_r) pair once, column by
column, ``homology_dims`` ranks each distinct d_r once, and ``homology``
eliminates once per distinct (space, d_r, d_{r+1}, top-degree flag) of the
complex.  A complex is built whole at one window and never grows; a
larger window is another complex that holds the same map objects.
"""

from __future__ import annotations

from .linalg import EchelonSet, kernel_basis, relation_holds, sparse_rank


class ComplexError(ValueError):
    pass


def composes_to_zero(seen, a, b):
    """a . b == 0, tested once per distinct (a, b) object pair kept in ``seen``."""
    key = (id(a), id(b))
    if key not in seen and relation_holds(b.ncols, [(1, [a, b])]):
        seen.add(key)
    return key in seen


class ChainComplex:
    """Nonnegatively graded complex; boundaries[r]: C_r -> C_{r-1}."""

    def __init__(self, field, spaces, boundaries, check=True):
        self.field = field
        self.spaces = list(spaces)
        self.boundaries = dict(boundaries)
        self._zero_pairs = set()  # ids of (d_{r-1}, d_r) pairs checked to compose to zero
        self._homology = {}  # ids of (space, d_r, d_{r+1}), top flag -> lifted cycles
        if check:
            for r in range(1, self.max_degree + 1):
                d = self.boundaries[r]
                if d.ncols != self.dim(r) or d.nrows != self.dim(r - 1):
                    raise ComplexError(f"boundary {r} has shape {d.nrows}x{d.ncols}")
                if r >= 2 and not composes_to_zero(self._zero_pairs, self.boundaries[r - 1], d):
                    raise ComplexError(f"d_{r - 1} . d_{r} != 0")

    @property
    def max_degree(self):
        return len(self.spaces) - 1

    def dim(self, r):
        return self.spaces[r].quotient_dim

    def boundary(self, r):
        return self.boundaries[r]


class HomologyReport:
    """Homology in one degree: dimension plus cycles as sparse ambient term dicts."""

    def __init__(self, degree, dimension, representatives, kernel_only=False):
        self.degree = degree
        self.dimension = dimension
        self.representatives = representatives
        self.kernel_only = kernel_only

    def __repr__(self):
        tag = ", kernel only" if self.kernel_only else ""
        return f"HomologyReport(degree {self.degree}, dim {self.dimension}{tag})"


def homology(complex_, r):
    """Homology of the complex at degree r.

    For r = max_degree only the kernel is available (no incoming boundary);
    the report is flagged ``kernel_only`` rather than silently truncated.
    """
    if r < 0 or r > complex_.max_degree:
        raise ComplexError(f"degree {r} out of range 0..{complex_.max_degree}")
    kernel_only = r == complex_.max_degree
    space, d_out = complex_.spaces[r], complex_.boundaries[r] if r else None
    d_in = None if kernel_only else complex_.boundaries[r + 1]
    key = (id(space), id(d_out), id(d_in), kernel_only)
    hit = complex_._homology.get(key)
    if hit is None:
        field = complex_.field
        ker = [{j: field.one} for j in range(space.quotient_dim)] if d_out is None else kernel_basis(field, d_out.cols)
        new = ker
        if d_in is not None:
            seen = EchelonSet(field, d_in.cols)
            bdim = seen.dim
            new = [v for v in ker if seen.add(v)]
            if len(new) != len(ker) - bdim:
                raise ComplexError(f"degree {r}: {len(new)} new classes, expected {len(ker)} - {bdim}")
        hit = complex_._homology[key] = [space.lift_vec(v) for v in new]
    return HomologyReport(r, len(hit), [dict(v) for v in hit], kernel_only=kernel_only)


def homology_dims(complex_, up_to=None):
    """Dimensions in degrees 0..up_to (default max_degree - 1).

    dim H_r = n_r - rank d_r - rank d_{r+1}, with d_0 = 0 and, at the top
    degree, no incoming boundary (the kernel dimension, as ``homology``
    reports it).  A negative value means the boundaries do not compose to
    zero and raises ``ComplexError`` naming the degree.
    """
    top = complex_.max_degree
    if up_to is None:
        up_to = top - 1
    if up_to > top:
        raise ComplexError(f"degree {up_to} out of range 0..{top}")
    rank_of = {}  # one sparse_rank per distinct boundary object
    for r in range(1, min(up_to + 1, top) + 1):
        if id(complex_.boundaries[r]) not in rank_of:
            rank_of[id(complex_.boundaries[r])] = sparse_rank(complex_.boundaries[r].cols)
    ranks = [rank_of[id(complex_.boundaries[r])] if 1 <= r <= top else 0 for r in range(up_to + 2)]
    dims = []
    for r in range(up_to + 1):
        h = complex_.dim(r) - ranks[r] - ranks[r + 1]
        if h < 0:
            raise ComplexError(
                f"degree {r}: dim {complex_.dim(r)} - rank d_{r} {ranks[r]} - rank d_{r + 1} {ranks[r + 1]} < 0"
            )
        dims.append(h)
    return dims
