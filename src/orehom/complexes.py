"""Chain complexes with subquotient spaces and exact homology.

A ChainComplex is its spaces and boundaries: one SubquotientSpace per
degree 0..max_degree and column-sparse boundary maps d_r: C_r -> C_{r-1}
in quotient coordinates.  Every complex checks the shape of each boundary
and ``d . d = 0`` as it is built; there is no unchecked complex.
Homology dimensions come from ranks alone, dim H_r = n_r - rank d_r -
rank d_{r+1}, each rank taken once by ``sparse_rank`` on the boundary's
columns.  Only ``homology``, which gives representatives, runs a kernel:
its cycles are lifted to sparse ambient term dicts by putting their
quotient coordinates at the free columns of the space, so they are
reproducible.

One map object may sit at several degrees (C^S shares d_r with d_{r + 2v}),
so the d.d check tests each distinct (d_{r-1}, d_r) pair once, column by
column, ``homology_dims`` ranks each distinct d_r once per call, and
``homology`` eliminates each distinct (space, d_r, d_{r+1}) once per call.
Nothing is kept on a complex: a complex is built whole at one window and
never grows; a larger window is another complex that holds the same map
objects.
"""

from __future__ import annotations

from .linalg import EchelonSet, kernel_basis, relation_holds, sparse_rank


class ComplexError(ValueError):
    pass


class ChainComplex:
    """Nonnegatively graded complex; boundaries[r]: C_r -> C_{r-1}."""

    def __init__(self, field, spaces, boundaries):
        self.field = field
        self.spaces = list(spaces)
        self.boundaries = dict(boundaries)
        zero_pairs = set()  # ids of (d_{r-1}, d_r) pairs checked to compose to zero
        for r in range(1, self.max_degree + 1):
            d = self.boundaries[r]
            if d.ncols != self.dim(r) or d.nrows != self.dim(r - 1):
                raise ComplexError(f"boundary {r} has shape {d.nrows}x{d.ncols}")
            pair = (id(self.boundaries.get(r - 1)), id(d))
            if r >= 2 and pair not in zero_pairs:
                if not relation_holds(d.ncols, [(1, [self.boundaries[r - 1], d])]):
                    raise ComplexError(f"d_{r - 1} . d_{r} != 0")
                zero_pairs.add(pair)

    @property
    def max_degree(self):
        return len(self.spaces) - 1

    def dim(self, r):
        return self.spaces[r].quotient_dim

    def boundary(self, r):
        return self.boundaries[r]


def homology(complex_, up_to):
    """Cycle representatives in degrees 0..up_to: one list per degree of
    sparse ambient term dicts whose classes are a basis of H_r.

    At the top degree there is no incoming boundary, so the list spans the
    kernel, the dimension ``homology_dims`` gives there.  ``up_to = -1``
    gives no degree.
    """
    top, field = complex_.max_degree, complex_.field
    if up_to > top:
        raise ComplexError(f"degree {up_to} out of range 0..{top}")
    lifted = {}  # one elimination per distinct (space, d_r, d_{r+1})
    out = []
    for r in range(up_to + 1):
        space = complex_.spaces[r]
        d_out = complex_.boundaries[r] if r else None
        d_in = complex_.boundaries[r + 1] if r < top else None
        key = (id(space), id(d_out), id(d_in))
        if key not in lifted:
            ker = [{j: field.one} for j in range(space.quotient_dim)] if d_out is None else kernel_basis(field, d_out.cols)
            new = ker
            if d_in is not None:
                seen = EchelonSet(field, d_in.cols)
                bdim = seen.dim
                new = [v for v in ker if seen.add(v)]
                if len(new) != len(ker) - bdim:
                    raise ComplexError(f"degree {r}: {len(new)} new classes, expected {len(ker)} - {bdim}")
            lifted[key] = [space.lift_vec(v) for v in new]
        out.append([dict(v) for v in lifted[key]])
    return out


def homology_dims(complex_, up_to):
    """Dimensions in degrees 0..up_to.

    dim H_r = n_r - rank d_r - rank d_{r+1}, with d_0 = 0 and, at the top
    degree, no incoming boundary (the kernel dimension, as ``homology``
    spans it).  A negative value means the boundaries do not compose to
    zero and raises ``ComplexError`` naming the degree.
    """
    top = complex_.max_degree
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
