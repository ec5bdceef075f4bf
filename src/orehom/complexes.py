"""Chain complexes with subquotient spaces and exact homology.

A ChainComplex stores one SubquotientSpace per degree 0..max_degree and
column-sparse boundary maps d_r: C_r -> C_{r-1} in quotient coordinates.
``d . d = 0`` is asserted at construction.  Homology is computed by exact
rank/kernel arithmetic; representatives are cycles lifted to ambient
coordinates through the section, so they are reproducible.
"""

from __future__ import annotations

from .linalg import EchelonSet, kernel_basis


class ComplexError(ValueError):
    pass


class ChainComplex:
    """Nonnegatively graded complex; boundaries[r]: C_r -> C_{r-1}.

    ``append`` adds the next degree in place and checks it as construction does.
    """

    def __init__(self, field, spaces, boundaries, check=True):
        self.field = field
        self.spaces = list(spaces)
        self.boundaries = dict(boundaries)
        if check:
            for r in range(1, self.max_degree + 1):
                self._check_degree(r)

    @property
    def max_degree(self):
        return len(self.spaces) - 1

    def _check_degree(self, r):
        d = self.boundaries[r]
        if d.ncols != self.dim(r) or d.nrows != self.dim(r - 1):
            raise ComplexError(f"boundary {r} has shape {d.nrows}x{d.ncols}")
        if r >= 2 and not self.boundaries[r - 1].compose(d).is_zero():
            raise ComplexError(f"d_{r - 1} . d_{r} != 0")

    def append(self, space, boundary):
        """Add degree max_degree + 1 with its boundary into the current top."""
        self.spaces.append(space)
        self.boundaries[self.max_degree] = boundary
        self._check_degree(self.max_degree)

    def dim(self, r):
        return self.spaces[r].quotient_dim

    def dims(self):
        return [self.dim(r) for r in range(self.max_degree + 1)]

    def boundary(self, r):
        return self.boundaries[r]


class HomologyReport:
    """Homology in one degree: dimension plus ambient-coordinate cycles."""

    def __init__(self, degree, dimension, representatives, kernel_only=False):
        self.degree = degree
        self.dimension = dimension
        self.representatives = representatives
        self.kernel_only = kernel_only

    def __repr__(self):
        tag = ", kernel only" if self.kernel_only else ""
        return f"HomologyReport(degree {self.degree}, dim {self.dimension}{tag})"


def homology(complex_, r, want_representatives=True):
    """Homology of the complex at degree r.

    For r = max_degree only the kernel is available (no incoming boundary);
    the report is flagged ``kernel_only`` rather than silently truncated.
    """
    if r < 0 or r > complex_.max_degree:
        raise ComplexError(f"degree {r} out of range 0..{complex_.max_degree}")
    field = complex_.field
    n_r = complex_.dim(r)
    if r == 0:
        ker = [
            [field.one if i == j else field.zero for i in range(n_r)]
            for j in range(n_r)
        ]
    else:
        ker = kernel_basis(complex_.boundaries[r].to_matrix())
    kernel_only = r == complex_.max_degree
    space = complex_.spaces[r]
    if kernel_only:
        reps = [space.lift_vec(v) for v in ker] if want_representatives else []
        return HomologyReport(r, len(ker), reps, kernel_only=True)
    seen = EchelonSet(field, n_r, complex_.boundaries[r + 1].dense_cols())
    bdim = seen.dim
    reps = []
    dim = 0
    for v in ker:
        if seen.add(v):
            dim += 1
            if want_representatives:
                reps.append(space.lift_vec(v))
    if dim != len(ker) - bdim:
        raise ComplexError(f"degree {r}: {dim} new classes, expected {len(ker)} - {bdim}")
    return HomologyReport(r, dim, reps)


def homology_dims(complex_, up_to=None):
    """Dimensions in degrees 0..up_to (default max_degree - 1)."""
    if up_to is None:
        up_to = complex_.max_degree - 1
    return [homology(complex_, r, want_representatives=False).dimension for r in range(up_to + 1)]
