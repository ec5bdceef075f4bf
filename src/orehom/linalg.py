"""Exact elimination, subquotient spaces, and sparse linear maps.

Elimination has one job per routine.  Every rank, and so every homology
dimension, comes from ``sparse_rank``, which eliminates on sparse columns
block by block.  Every reduced echelon basis of a span comes from
``EchelonSet``, which grows one vector at a time: ``rref``, ``kernel_basis``,
``solve``, membership, preimages and ``subquotient`` all read it.  Everything
is over a fixed exact field (Q or a cyclotomic field).  Every linear map of
the package (boundaries, comparison maps, alpha, the bimodule actions) is a
column-sparse ``ColMap``, and a quotient space keeps its projection as sparse
columns too.  The dense row-major ``Matrix`` is only the input of
elimination: ``ColMap.to_matrix`` and ``Matrix.from_rows``/``from_cols``
build one for ``rref``.
"""

from __future__ import annotations

import heapq

from .fields import is_unit, reciprocal


class Matrix:
    """Dense matrix over an exact field, entries in row-major order: the input
    of ``rref`` and of the elimination built on it."""

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

    def apply(self, vec):
        """Matrix times a dense vector.  The package has no caller; the
        benchmark's tracer (``perfbench/tracer.py``) names this method."""
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

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


def rref(m):
    """Reduced row echelon form; returns (echelon Matrix, pivot column list).

    The nonzero rows are those of ``EchelonSet`` of the rows of ``m``, in
    pivot order, and zero rows pad the result to the shape of ``m``.  The
    reduced row echelon form of a row space is unique, so the result does not
    depend on how the elimination is carried out.
    """
    ech = EchelonSet(m.field, m.entries)
    order = sorted(range(ech.dim), key=ech.pivots.__getitem__)
    rows = [ech.rows[i] for i in order] + [[m.field.zero] * m.cols for _ in range(m.rows - ech.dim)]
    return Matrix(m.field, m.rows, m.cols, rows), [ech.pivots[i] for i in order]


def sparse_rank(columns):
    """Rank of the matrix whose columns are the sparse ``{row: scalar}`` dicts.

    The columns are split into the connected components of the row-column
    graph (a union-find over shared rows), and each block is eliminated on
    its own in Markowitz order: the shortest live column gives the pivot, in
    the sparsest of its rows with a +-1 entry if it has one, and the pivot
    row is then cleared out of the other columns of the block.  The rank is
    the number of pivots.  The input dicts are not modified.
    """
    cols = [col for col in columns if col]
    parent = {}

    def find(r):
        while True:
            p = parent.get(r, r)
            if p == r:
                return r
            g = parent.get(p, p)
            parent[r] = g
            r = g

    for col in cols:
        rows = iter(col)
        root = find(next(rows))
        for r in rows:
            other = find(r)
            if other != root:
                parent[other] = root
    blocks = {}
    for col in cols:
        blocks.setdefault(find(next(iter(col))), []).append(col)
    return sum(_block_rank(block) for block in blocks.values())


def _block_rank(block):
    cols = [dict(col) for col in block]
    where = {}  # row -> indices of the live columns holding it
    for j, col in enumerate(cols):
        for r in col:
            where.setdefault(r, set()).add(j)
    heap = [(len(col), j) for j, col in enumerate(cols)]
    heapq.heapify(heap)
    rank = 0
    while heap:
        n, j = heapq.heappop(heap)
        col = cols[j]
        if col is None or len(col) != n or not n:
            continue
        pr = min(col, key=lambda r: (not is_unit(col[r]), len(where[r])))
        cols[j] = None
        rank += 1
        for r in col:
            where[r].discard(j)
        p = col.pop(pr)
        if p != 1:
            inv = reciprocal(p)
            col = {r: v * inv for r, v in col.items()}
        for k in where.pop(pr):
            ck = cols[k]
            a = ck.pop(pr)
            for r, v in col.items():
                t = a * v
                cur = ck.get(r)
                if cur is None:
                    ck[r] = -t
                    where[r].add(k)
                else:
                    cur = cur - t
                    if cur:
                        ck[r] = cur
                    else:
                        del ck[r]
                        where[r].discard(k)
            heapq.heappush(heap, (len(ck), k))
    return rank


def rank(m):
    """Rank of a dense Matrix: ``sparse_rank`` of its columns."""
    rows = m.entries
    return sparse_rank({i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(m.cols))


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


def solve(field, columns, b):
    """One x with sum_j x[j] * columns[j] = b, or None if there is none."""
    n = len(columns)
    red, pivots = rref(Matrix.from_cols(field, list(columns) + [b]))
    if n in pivots:
        return None
    x = [field.zero] * n
    for r, p in enumerate(pivots):
        x[p] = red.entries[r][n]
    return x


def add_term(acc, key, coeff):
    """acc[key] += coeff in a sparse ``{key: scalar}`` vector, dropping zeros."""
    if not coeff:
        return
    cur = acc.get(key)
    cur = coeff if cur is None else cur + coeff
    if cur:
        acc[key] = cur
    elif key in acc:
        del acc[key]


def densify(vec_dict, n, zero):
    """Dense length-n vector of a sparse ``{index: scalar}`` vector."""
    out = [zero] * n
    for i, e in vec_dict.items():
        out[i] = e
    return out


def sparse(vec):
    """Sparse ``{index: scalar}`` vector of a dense one (the inverse of ``densify``)."""
    return {i: c for i, c in enumerate(vec) if c}


class EchelonSet:
    """Incrementally maintained reduced echelon basis of a growing span.

    Row i has a leading 1 at column ``pivots[i]`` and is the only row with a
    nonzero there.  Rows stay in the order they entered the span; ``rref``
    sorts them by pivot.
    """

    def __init__(self, field, vectors=()):
        self.field = field
        self.rows = []
        self.pivots = []
        for v in vectors:
            self.add(v)

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for j in range(p, len(v)):
                    if row[j]:
                        v[j] = v[j] - c * row[j]
        return v

    def add(self, vec):
        """Add ``vec`` to the span; returns True if it enlarged the span."""
        v = self.reduce(vec)
        p = next((j for j, c in enumerate(v) if c), None)
        if p is None:
            return False
        inv = reciprocal(v[p])
        v = [c * inv for c in v]
        for row in self.rows:
            c = row[p]
            if c:
                for j in range(p, len(v)):
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


def quotient_dim(field, numerator, denominator):
    """dim span(numerator) / span(denominator).

    Returns None when the denominator is not inside the numerator span, so
    that each caller can word its own refusal.
    """
    num = EchelonSet(field, numerator)
    if not all(num.contains(v) for v in denominator):
        return None
    return num.dim - sparse_rank(map(sparse, denominator))


class SubquotientSpace:
    """Quotient of k^ambient_dim by the span of computed vectors.

    Quotient coordinate i is the class of ambient coordinate ``free[i]``;
    ``free`` lists, ascending, the columns that are not pivots of the reduced
    echelon basis of the span.  ``proj_cols[c]`` is the class of e_c as a
    sparse ``{quotient coordinate: scalar}`` dict: ``{i: 1}`` for c = free[i],
    minus the free entries of the echelon row for a pivot column c.  Lifting
    puts quotient coordinates back at the free columns, so projecting a lift
    is the identity and homology representatives are reproducible.
    """

    __slots__ = ("field", "ambient_dim", "quotient_dim", "free", "proj_cols")

    def __init__(self, field, ambient_dim, free, proj_cols):
        self.field = field
        self.ambient_dim = ambient_dim
        self.quotient_dim = len(free)
        self.free = free
        self.proj_cols = proj_cols

    def lift_vec(self, qvec):
        """Dense quotient vector -> dense ambient vector, zero off the free columns."""
        if len(qvec) != self.quotient_dim:
            raise ValueError("vector length mismatch")
        out = [self.field.zero] * self.ambient_dim
        for idx, c in zip(self.free, qvec):
            out[idx] = c
        return out

    def project_terms(self, terms):
        """Ambient ``{coordinate: scalar}`` dict -> quotient-coordinate dict."""
        cols = self.proj_cols
        out = {}
        for c, v in terms.items():
            for qi, e in cols[c].items():
                add_term(out, qi, e * v)
        return out

    def __repr__(self):
        return f"Subquotient(dim {self.quotient_dim} = {self.ambient_dim} - rank {self.ambient_dim - self.quotient_dim})"


def subquotient(field, ambient_dim, spanning_vectors):
    """Subquotient of k^ambient_dim by the span of the given vectors."""
    for v in spanning_vectors:
        if len(v) != ambient_dim:
            raise ValueError("spanning vector of wrong length")
    ech = EchelonSet(field, spanning_vectors)
    pivot_set = set(ech.pivots)
    free = [c for c in range(ambient_dim) if c not in pivot_set]
    proj_cols = [None] * ambient_dim
    for qi, f in enumerate(free):
        proj_cols[f] = {qi: field.one}
    for row, p in zip(ech.rows, ech.pivots):
        proj_cols[p] = {qi: -row[f] for qi, f in enumerate(free) if row[f]}
    return SubquotientSpace(field, ambient_dim, free, proj_cols)


class ColMap:
    """Column-sparse linear map between based spaces.

    ``cols[j]`` maps the j-th domain basis vector to a dict
    ``{row_index: scalar}`` holding no zero scalar.  Densify only for
    elimination.
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
