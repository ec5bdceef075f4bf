"""Exact elimination, subquotient spaces, and sparse linear maps.

Every vector elimination reads is a sparse ``{index: scalar}`` dict holding
no zero scalar, and elimination has one job per routine.  Every rank, and so
every homology dimension, comes from ``sparse_rank``, which eliminates on
sparse columns block by block.  Every reduced echelon basis of a span comes
from ``EchelonSet``, which keeps its rows as sparse dicts and grows one
vector at a time: membership, preimages, ``kernel_basis``, ``solve``,
``quotient_dim`` and ``subquotient`` all read it.  Everything is over a fixed
exact field (Q or a cyclotomic field).  Every linear map of the package
(boundaries, comparison maps, alpha, the bimodule actions) is a
column-sparse ``ColMap``, which may build each column on first read from a
column function, and a quotient space keeps its projection as sparse
columns too.  The dense ``Matrix`` and ``rref`` are a thin wrapper over
``EchelonSet`` that the package does not call.
"""

from __future__ import annotations

import heapq

from .fields import is_unit, reciprocal


class Matrix:
    """Dense matrix over an exact field, entries in row-major order: the input
    of ``rref``.  The package has no caller; the benchmark's tracer
    (``perfbench/tracer.py``) names ``rref`` and ``Matrix.apply``."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("inconsistent matrix shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

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

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


def rref(m):
    """Reduced row echelon form; returns (echelon Matrix, pivot column list).

    The nonzero rows are those of ``EchelonSet`` of the rows of ``m``, in
    pivot order, and zero rows pad the result to the shape of ``m``.
    """
    ech = EchelonSet(m.field, map(sparse, m.entries))
    z = m.field.zero
    pivots = sorted(ech.row_at)
    rows = [[ech.row_at[p].get(j, z) for j in range(m.cols)] for p in pivots]
    rows += [[z] * m.cols for _ in range(m.rows - len(pivots))]
    return Matrix(m.field, m.rows, m.cols, rows), pivots


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


def _subtract(acc, c, vec):
    """acc -= c * vec on sparse vectors, dropping the zeros it makes."""
    for j, e in vec.items():
        t = c * e
        cur = acc.get(j)
        if cur is None:
            acc[j] = -t
        else:
            cur = cur - t
            if cur:
                acc[j] = cur
            else:
                del acc[j]


def _row_echelon(field, columns):
    """``EchelonSet`` of the rows of the matrix with these sparse columns."""
    rows = {}
    for j, col in enumerate(columns):
        for i, e in col.items():
            rows.setdefault(i, {})[j] = e
    return EchelonSet(field, (rows[i] for i in sorted(rows)))


def kernel_basis(field, columns):
    """Basis of the null space of the matrix with these sparse ``{row: scalar}``
    columns: one sparse vector per free column, in ascending order, with a 1
    there and minus the echelon entries at the pivots."""
    row_at = _row_echelon(field, columns).row_at
    basis = {f: {f: field.one} for f in range(len(columns)) if f not in row_at}
    for p, row in row_at.items():
        for f, e in row.items():
            if f != p:
                basis[f][p] = -e
    return list(basis.values())


def solve(field, columns, b):
    """One sparse x with sum_j x[j] * columns[j] = b, or None if there is none."""
    n = len(columns)
    row_at = _row_echelon(field, list(columns) + [b]).row_at
    if n in row_at:
        return None
    return {p: row[n] for p, row in row_at.items() if n in row}


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


def sub_terms(acc, terms):
    """acc -= terms in sparse vectors, dropping zeros; returns ``acc``."""
    for key, c in terms.items():
        add_term(acc, key, -c)
    return acc


def sparse(vec):
    """Sparse ``{index: scalar}`` vector of a dense one."""
    return {i: c for i, c in enumerate(vec) if c}


class EchelonSet:
    """Incrementally maintained reduced echelon basis of a growing span of
    sparse ``{column: scalar}`` vectors.

    ``row_at[p]`` is the sparse row whose leftmost nonzero is a 1 at column
    p, and no other row is nonzero at p: the rows of the reduced row echelon
    form of the span, which is unique.  Rows stay in the order they entered
    the span.
    """

    def __init__(self, field, vectors=()):
        self.field = field
        self.row_at = {}
        for v in vectors:
            self.add(v)

    def reduce(self, vec):
        """``vec`` minus the rows at its pivot entries: empty exactly when
        ``vec`` lies in the span.  The input is not modified."""
        out = {j: c for j, c in vec.items() if c}
        row_at = self.row_at
        # a row is zero at every other pivot, so these entries stay put
        for p in [p for p in out if p in row_at]:
            _subtract(out, out[p], row_at[p])
        return out

    def add(self, vec):
        """Add ``vec`` to the span; returns True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        c = v[p]
        if c != 1:
            inv = reciprocal(c)
            v = {j: e * inv for j, e in v.items()}
        for row in self.row_at.values():
            a = row.get(p)
            if a is not None:
                _subtract(row, a, v)
        self.row_at[p] = v
        return True

    def contains(self, vec):
        """Membership of ``vec`` in the span."""
        return not self.reduce(vec)

    def preimage(self, images):
        """Basis of {v : sum_t v[t] * images[t] lies in the span}, as sparse vectors."""
        return kernel_basis(self.field, [self.reduce(v) for v in images])

    @property
    def dim(self):
        return len(self.row_at)


def quotient_dim(field, numerator, denominator):
    """dim span(numerator) / span(denominator), both lists of sparse vectors.

    Returns None when the denominator is not inside the numerator span, so
    that each caller can word its own refusal.
    """
    num = EchelonSet(field, numerator)
    if not all(num.contains(v) for v in denominator):
        return None
    return num.dim - sparse_rank(denominator)


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
        """Sparse quotient vector -> sparse ambient vector on the free columns."""
        if qvec and (min(qvec) < 0 or max(qvec) >= self.quotient_dim):
            raise ValueError("quotient coordinate out of range")
        free = self.free
        return {free[i]: c for i, c in qvec.items()}

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
    """Subquotient of k^ambient_dim by the span of the given sparse vectors."""
    for v in spanning_vectors:
        if v and (min(v) < 0 or max(v) >= ambient_dim):
            raise ValueError(f"spanning vector has a coordinate outside 0..{ambient_dim - 1}")
    row_at = EchelonSet(field, spanning_vectors).row_at
    free = [c for c in range(ambient_dim) if c not in row_at]
    qindex = {f: qi for qi, f in enumerate(free)}
    proj_cols = [None] * ambient_dim
    for qi, f in enumerate(free):
        proj_cols[f] = {qi: field.one}
    for p, row in row_at.items():
        proj_cols[p] = {qindex[f]: -e for f, e in sorted(row.items()) if f != p}
    return SubquotientSpace(field, ambient_dim, free, proj_cols)


class _Columns:
    """The columns of a ``ColMap`` made from a column function: column j is
    ``column(j)`` without its zero scalars, built the first time it is read
    and kept.  Indexing, iteration and ``len`` read like a list of columns."""

    __slots__ = ("_built", "_column")

    def __init__(self, ncols, column):
        self._built = [None] * ncols
        self._column = column

    def __getitem__(self, j):
        col = self._built[j]
        if col is None:
            col = self._built[j] = {i: e for i, e in self._column(j).items() if e}
        return col

    def __len__(self):
        return len(self._built)

    def __iter__(self):
        return map(self.__getitem__, range(len(self._built)))

    @property
    def built(self):
        return sum(col is not None for col in self._built)


class ColMap:
    """Column-sparse linear map between based spaces.

    ``cols[j]`` maps the j-th domain basis vector to a dict
    ``{row_index: scalar}`` holding no zero scalar.  A map made by ``lazy``
    builds each column from its column function the first time it is read,
    so ``apply`` builds only the columns in the support of its argument, and
    a whole-map reader (``compose``, ``==``, elimination) builds every
    column through the same function.  Elimination reads the columns as they
    are.
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
    def lazy(cls, field, nrows, ncols, column):
        """The map whose column j is the term dict ``column(j)``, built on demand."""
        return cls(field, nrows, ncols, _Columns(ncols, column))

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
