"""Exact elimination, dense matrices, subquotient spaces, and sparse chain maps.

Every rank, kernel, span and quotient computation of the package goes
through ``rref``, ``kernel_basis`` and ``EchelonSet`` here.  Everything is
over a fixed exact field (Q or a cyclotomic field).  Matrices are dense
row-major lists and intended for desk-scale dimensions; the chain-map
assembly code uses the column-sparse ``ColMap`` representation instead and
only densifies for rank / homology computations.
"""

from __future__ import annotations

from fractions import Fraction


def pivot_score(x):
    """Orderable pivot-quality key: prefer integral, small entries."""
    if isinstance(x, Fraction):
        return (
            0 if x.denominator == 1 else 1,
            x.denominator.bit_length() + abs(x.numerator).bit_length(),
        )
    # cyclotomic residue: aggregate over coefficients
    integral = all(c.denominator == 1 for c in x.coeffs)
    size = sum(c.denominator.bit_length() + abs(c.numerator).bit_length() for c in x.coeffs)
    return (0 if integral else 1, size)


class Matrix:
    """Dense matrix over an exact field; entries in row-major order."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("inconsistent matrix shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, field, row_list):
        rows = len(row_list)
        cols = len(row_list[0]) if rows else 0
        return cls(field, rows, cols, [list(r) for r in row_list])

    @classmethod
    def from_cols(cls, field, col_list, nrows=None):
        if not col_list:
            return cls.zeros(field, nrows or 0, 0)
        nrows = len(col_list[0])
        return cls(field, nrows, len(col_list), [[c[i] for c in col_list] for i in range(nrows)])

    def column(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def row(self, i):
        return list(self.entries[i])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
            # dense product, skipping zero entries (both factors are often sparse)
            a_rows, b_rows = self.entries, other.entries
            n, k, m = self.rows, self.cols, other.cols
            out = [[self.field.zero] * m for _ in range(n)]
            for i in range(n):
                arow = a_rows[i]
                orow = out[i]
                for t in range(k):
                    ait = arow[t]
                    if not ait:
                        continue
                    brow = b_rows[t]
                    for j in range(m):
                        btj = brow[j]
                        if btj:
                            orow[j] = orow[j] + ait * btj
            return Matrix(self.field, n, m, out)
        return NotImplemented

    def apply(self, vec):
        """Matrix times a dense vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        z = self.field.zero
        out = []
        for row in self.entries:
            acc = z
            for a, v in zip(row, vec):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return out

    def scale(self, c):
        return Matrix(self.field, self.rows, self.cols, [[c * e for e in row] for row in self.entries])

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix(
            self.field, self.rows, self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + other.scale(-self.field.one)

    def __neg__(self):
        return self.scale(-self.field.one)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def is_zero(self):
        return all(not e for row in self.entries for e in row)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


def rref(m):
    """Reduced row echelon form; returns (echelon Matrix, pivot column list).

    Among the candidate pivots of a column the row whose entry has the
    smallest ``pivot_score`` is chosen (ties go to the lowest row index),
    which keeps denominators small and makes the reduction deterministic.
    """
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = -1
        best_key = None
        for i in range(r, nrows):
            e = rows[i][c]
            if e:
                key = pivot_score(e)
                if best < 0 or key < best_key:
                    best = i
                    best_key = key
        if best < 0:
            continue
        if best != r:
            rows[best], rows[r] = rows[r], rows[best]
        prow = rows[r]
        p = prow[c]
        if p != 1:
            inv = 1 / p
            for j in range(c, ncols):
                if prow[j]:
                    prow[j] = prow[j] * inv
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if not f:
                continue
            for j in range(c, ncols):
                pj = prow[j]
                if pj:
                    row[j] = row[j] - f * pj
        pivots.append(c)
        r += 1
    return Matrix(m.field, nrows, ncols, rows), pivots


def rank(m):
    return len(rref(m)[1])


def kernel_basis(m):
    """Basis of the null space of ``m`` (list of dense vectors)."""
    red, pivots = rref(m)
    rows, ncols, zero, one = red.entries, m.cols, m.field.zero, m.field.one
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, p in enumerate(pivots):
            e = rows[r][f]
            if e:
                v[p] = -e
        basis.append(v)
    return basis


def solve(m, b):
    """One solution of ``m x = b``, or None if inconsistent."""
    aug = Matrix(
        m.field, m.rows, m.cols + 1,
        [list(row) + [bv] for row, bv in zip(m.entries, b)],
    )
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [m.field.zero] * m.cols
    for r, p in enumerate(pivots):
        x[p] = red.entries[r][m.cols]
    return x


def densify(vec_dict, n, zero):
    """Dense length-n vector of a sparse ``{index: scalar}`` vector."""
    out = [zero] * n
    for i, e in vec_dict.items():
        out[i] = e
    return out


class EchelonSet:
    """Incrementally maintained reduced echelon basis of a growing span."""

    def __init__(self, field, ncols, vectors=()):
        self.field = field
        self.ncols = ncols
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.add(v)

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for j in range(len(v)):
                    if row[j]:
                        v[j] = v[j] - c * row[j]
        return v

    def add(self, vec):
        """Add ``vec`` to the span; returns True if it enlarged the span."""
        v = self.reduce(vec)
        p = next((j for j, c in enumerate(v) if c), None)
        if p is None:
            return False
        inv = 1 / v[p]
        v = [c * inv for c in v]
        for row in self.rows:
            c = row[p]
            if c:
                for j in range(len(v)):
                    if v[j]:
                        row[j] = row[j] - c * v[j]
        self.rows.append(v)
        self.pivots.append(p)
        return True

    def contains(self, vec):
        """Membership of ``vec`` in the span."""
        return not any(self.reduce(vec))

    def preimage(self, images):
        """Basis of {v : sum_t v[t] * images[t] lies in the span}."""
        return kernel_basis(Matrix.from_cols(self.field, [self.reduce(v) for v in images]))

    @property
    def dim(self):
        return len(self.rows)


def quotient_dim(field, dim, numerator, denominator):
    """dim span(numerator) / span(denominator) inside k^dim.

    Returns None when the denominator is not inside the numerator span, so
    that each caller can word its own refusal.
    """
    num = EchelonSet(field, dim, numerator)
    if not all(num.contains(v) for v in denominator):
        return None
    return num.dim - EchelonSet(field, dim, denominator).dim


class SubquotientSpace:
    """Quotient of a based k-space by a computed subspace.

    Carries the echelonized basis of the subspace, the projection to
    quotient coordinates and the section picking the complement of the
    pivot coordinates (``free``, ascending; quotient coordinate i is the
    class of ambient coordinate ``free[i]``), so that
    ``projection * section = id`` and homology representatives are
    reproducible.
    """

    __slots__ = ("field", "ambient_dim", "sub_basis", "quotient_dim", "projection", "section", "free")

    def __init__(self, field, ambient_dim, sub_basis, quotient_dim, projection, section, free):
        self.field = field
        self.ambient_dim = ambient_dim
        self.sub_basis = sub_basis
        self.quotient_dim = quotient_dim
        self.projection = projection
        self.section = section
        self.free = free

    def lift_vec(self, qvec):
        return self.section.apply(qvec)

    def __repr__(self):
        return f"Subquotient(dim {self.quotient_dim} = {self.ambient_dim} - rank {self.ambient_dim - self.quotient_dim})"


class FullSpace:
    """k^dim with nothing divided out; quotient coordinates are ambient ones."""

    __slots__ = ("ambient_dim", "quotient_dim")

    def __init__(self, dim):
        self.ambient_dim = self.quotient_dim = dim

    def lift_vec(self, qvec):
        return list(qvec)


def subquotient(field, ambient_dim, spanning_vectors):
    """Subquotient of k^ambient_dim by the span of the given vectors."""
    for v in spanning_vectors:
        if len(v) != ambient_dim:
            raise ValueError("spanning vector of wrong length")
    if spanning_vectors:
        m = Matrix.from_rows(field, spanning_vectors)
        red, pivots = rref(m)
        basis_rows = [red.entries[r] for r in range(len(pivots))]
    else:
        red, pivots, basis_rows = None, [], []
    pivot_set = set(pivots)
    free = [c for c in range(ambient_dim) if c not in pivot_set]
    qdim = len(free)
    z, o = field.zero, field.one
    # projection: class of e_c in quotient coordinates indexed by free cols
    proj = [[z] * ambient_dim for _ in range(qdim)]
    for qi, f in enumerate(free):
        proj[qi][f] = o
    for r, p in enumerate(pivots):
        row = basis_rows[r]
        for qi, f in enumerate(free):
            if row[f]:
                proj[qi][p] = -row[f]
    sec = [[z] * qdim for _ in range(ambient_dim)]
    for qi, f in enumerate(free):
        sec[f][qi] = o
    sub = Matrix.from_rows(field, basis_rows) if basis_rows else Matrix.zeros(field, 0, ambient_dim)
    return SubquotientSpace(
        field, ambient_dim, sub, qdim,
        Matrix(field, qdim, ambient_dim, proj),
        Matrix(field, ambient_dim, qdim, sec),
        free,
    )


class ColMap:
    """Column-sparse linear map between based spaces.

    ``cols[j]`` maps the j-th domain basis vector to a dict
    ``{row_index: scalar}``.  This is the working representation for chain
    maps and boundaries; densify only for rank / homology computations.
    """

    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(self, field, nrows, ncols, cols=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else [dict() for _ in range(ncols)]

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, [{i: field.one} for i in range(n)])

    @classmethod
    def from_matrix(cls, m):
        cols = []
        for j in range(m.cols):
            col = {}
            for i in range(m.rows):
                e = m.entries[i][j]
                if e:
                    col[i] = e
            cols.append(col)
        return cls(m.field, m.rows, m.cols, cols)

    def dense_cols(self):
        """The columns as dense vectors of length ``nrows``, one at a time."""
        return (densify(col, self.nrows, self.field.zero) for col in self.cols)

    def to_matrix(self):
        out = Matrix.zeros(self.field, self.nrows, self.ncols)
        for j, col in enumerate(self.cols):
            for i, e in col.items():
                out.entries[i][j] = e
        return out

    def set_col(self, j, vec_dict):
        self.cols[j] = {i: e for i, e in vec_dict.items() if e}

    def apply(self, vec_dict):
        out = {}
        for j, c in vec_dict.items():
            if not c:
                continue
            for i, e in self.cols[j].items():
                acc = out.get(i)
                acc = e * c if acc is None else acc + e * c
                if acc:
                    out[i] = acc
                elif i in out:
                    del out[i]
        return out

    def compose(self, other):
        """self o other (apply ``other`` first)."""
        if other.nrows != self.ncols:
            raise ValueError("shape mismatch in composition")
        out = ColMap(self.field, self.nrows, other.ncols)
        for j, col in enumerate(other.cols):
            out.cols[j] = self.apply(col)
        return out

    def add(self, other, sign=1):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in sum")
        out = ColMap(self.field, self.nrows, self.ncols)
        for j in range(self.ncols):
            col = dict(self.cols[j])
            for i, e in other.cols[j].items():
                term = e if sign == 1 else -e
                acc = col.get(i)
                acc = term if acc is None else acc + term
                if acc:
                    col[i] = acc
                elif i in col:
                    del col[i]
            out.cols[j] = col
        return out

    def sub(self, other):
        return self.add(other, sign=-1)

    def scale(self, c):
        out = ColMap(self.field, self.nrows, self.ncols)
        if c:
            for j in range(self.ncols):
                col = {}
                for i, e in self.cols[j].items():
                    v = c * e
                    if v:
                        col[i] = v
                out.cols[j] = col
        return out

    def is_zero(self):
        return all(not col for col in self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, ColMap)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.sub(other).is_zero()
        )

    def __repr__(self):
        nnz = sum(len(c) for c in self.cols)
        return f"ColMap({self.nrows}x{self.ncols}, nnz={nnz})"
