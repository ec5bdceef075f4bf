"""Exact elimination, subquotient spaces, and sparse linear maps.

A vector, a column of a map, or an element of K or A is a sparse
``{index: scalar}`` dict that holds no zero scalar.  Its key order carries
nothing: no rank, reduced echelon basis, projection or report depends on it.
Elimination has one job per routine.  Every rank, and so every homology
dimension, comes from ``sparse_rank``, which eliminates on sparse columns
block by block, counts a block of one column or one row as rank 1 and
inverts no pivot that scales nothing.  Every reduced echelon basis of a span
comes from ``EchelonSet``, which keeps its rows as sparse
dicts and grows one vector at a time, for ``kernel_basis`` and
``subquotient``; every other quotient dimension is a ``colon_dim`` of a kept
``SubquotientSpace``, read off the projections into it.
Elimination needs only the scalars' arithmetic, ``0`` and ``1`` (every
field's zero and one are those ints), so no routine takes a field.  Every
linear map of the package (boundaries, comparison maps, alpha, the
bimodule actions, the projection onto a quotient space) is a column-sparse
``ColMap``, which may build each column on first read from a column function
and keep the dict it returns, and every map is applied by ``ColMap.apply``.
Every identity between maps is a relation tested one basis vector at a time
by ``relation_holds``, which keeps no composed map; ``chain_sum`` keeps such
a sum of chains as a lazy map.  The dense ``Matrix`` and ``rref`` are a thin
wrapper over ``EchelonSet`` that the package does not call.
"""

from __future__ import annotations

import heapq

from .fields import is_unit, reciprocal


class Matrix:
    """Dense matrix of exact scalars, entries in row-major order: the input
    of ``rref``.  The package has no caller; the benchmark's tracer
    (``perfbench/tracer.py``) names ``rref`` and ``Matrix.apply``."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("inconsistent matrix shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def apply(self, vec):
        """Matrix times a dense vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self.entries:
            acc = 0
            for a, v in zip(row, vec):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return out

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def rref(m):
    """Reduced row echelon form; returns (echelon Matrix, pivot column list).

    The nonzero rows are those of ``EchelonSet`` of the rows of ``m``, in
    pivot order, and zero rows pad the result to the shape of ``m``.
    """
    ech = EchelonSet(map(sparse, m.entries))
    pivots = sorted(ech.row_at)
    rows = [[ech.row_at[p].get(j, 0) for j in range(m.cols)] for p in pivots]
    rows += [[0] * m.cols for _ in range(m.rows - len(pivots))]
    return Matrix(m.rows, m.cols, rows), pivots


def sparse_rank(columns):
    """Rank of the matrix whose columns are the sparse ``{row: scalar}`` dicts.

    The columns are split into the connected components of the row-column
    graph (a union-find over shared rows).  A block of one column, or of one
    row (every column one entry), has rank 1 and is counted as it is.  Other
    blocks are eliminated in Markowitz order: the shortest live column gives
    the pivot, in the sparsest of its rows with a +-1 entry if it has one (a
    one-entry column has only its row).  A pivot row that no other live
    column holds is counted and left; otherwise each column holding it loses
    ``a / p`` times the pivot column, which is never rescaled, or only the
    pivot row if the pivot column has no other entry.  The rank is the
    number of pivots.  The input dicts are not modified.
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
    return sum(1 if len(block) == 1 or max(map(len, block)) == 1 else _block_rank(block) for block in blocks.values())


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
        pr = next(iter(col)) if n == 1 else min(col, key=lambda r: (not is_unit(col[r]), len(where[r])))
        cols[j] = None
        rank += 1
        for r in col:
            where[r].discard(j)
        targets = where.pop(pr)
        if not targets:
            continue
        p = col.pop(pr)
        inv = None if p == 1 or not col else reciprocal(p)  # a lone pivot entry needs no scaling
        for k in targets:
            ck = cols[k]
            a = ck.pop(pr) if inv is None else ck.pop(pr) * inv
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


def _row_echelon(columns):
    """``EchelonSet`` of the rows of the matrix with these sparse columns."""
    rows = {}
    for j, col in enumerate(columns):
        for i, e in col.items():
            rows.setdefault(i, {})[j] = e
    return EchelonSet(rows[i] for i in sorted(rows))


def kernel_basis(columns):
    """Basis of the null space of the matrix with these sparse ``{row: scalar}``
    columns: one sparse vector per free column, in ascending order, with a 1
    there and minus the echelon entries at the pivots."""
    row_at = _row_echelon(columns).row_at
    basis = {f: {f: 1} for f in range(len(columns)) if f not in row_at}
    for p, row in row_at.items():
        for f, e in row.items():
            if f != p:
                basis[f][p] = -e
    return list(basis.values())


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


def add_terms(acc, terms):
    """acc += terms in sparse vectors, dropping zeros; returns ``acc``."""
    for key, c in terms.items():
        add_term(acc, key, c)
    return acc


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
    the span.  It keeps no field: reducing needs only the scalars'
    arithmetic and ``reciprocal``.
    """

    def __init__(self, vectors=()):
        self.row_at = {}
        for v in vectors:
            self.add(v)

    def reduce(self, vec):
        """``vec`` minus the rows at its pivot entries: empty exactly when
        ``vec`` lies in the span.  The input is not modified."""
        out = dict(vec)
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

    @property
    def dim(self):
        return len(self.row_at)


class SubquotientSpace:
    """Quotient of k^ambient_dim by the span of computed vectors.

    Quotient coordinate i is the class of ambient coordinate ``free[i]``;
    ``free`` lists, ascending, the columns that are not pivots of the reduced
    echelon basis of the span.  The projection ``proj`` is a ``ColMap`` made
    from the given columns: ``proj.cols[c]`` is the class of e_c as a sparse
    ``{quotient coordinate: scalar}`` dict, ``{i: 1}`` for c = free[i] and
    minus the free entries of the echelon row for a pivot column c.  Lifting
    puts quotient coordinates back at the free columns, so projecting a lift
    is the identity and homology representatives are reproducible.  The
    space keeps no field.
    """

    __slots__ = ("ambient_dim", "quotient_dim", "free", "proj")

    def __init__(self, ambient_dim, free, proj_cols):
        self.ambient_dim = ambient_dim
        self.quotient_dim = len(free)
        self.free = free
        self.proj = ColMap(len(free), ambient_dim, proj_cols)

    def lift_vec(self, qvec):
        """Sparse quotient vector -> sparse ambient vector on the free columns."""
        if qvec and (min(qvec) < 0 or max(qvec) >= self.quotient_dim):
            raise ValueError("quotient coordinate out of range")
        free = self.free
        return {free[i]: c for i, c in qvec.items()}

    def project_terms(self, terms):
        """Ambient ``{coordinate: scalar}`` dict -> quotient-coordinate dict."""
        return self.proj.apply(terms)

    def colon_dim(self, images, denominator=None):
        """dim k^ambient_dim / (span + span(images)), ``images`` sparse ambient
        vectors; with a denominator (sparse vectors over the indices of
        ``images``), dim {lam : sum_t lam[t] images[t] in the span}, the kernel
        of the projected images, over span(denominator), or None when the
        denominator is not inside that kernel."""
        cols = [self.project_terms(v) for v in images]
        if denominator is None:
            return self.quotient_dim - sparse_rank(cols)
        on_classes = ColMap(self.quotient_dim, len(cols), cols)
        if any(on_classes.apply(lam) for lam in denominator):
            return None
        return len(cols) - sparse_rank(cols) - sparse_rank(denominator)

    def __repr__(self):
        return f"Subquotient(dim {self.quotient_dim} = {self.ambient_dim} - rank {self.ambient_dim - self.quotient_dim})"


def subquotient(ambient_dim, spanning_vectors):
    """Subquotient of k^ambient_dim by the span of the given sparse vectors."""
    for v in spanning_vectors:
        if v and (min(v) < 0 or max(v) >= ambient_dim):
            raise ValueError(f"spanning vector has a coordinate outside 0..{ambient_dim - 1}")
    row_at = EchelonSet(spanning_vectors).row_at
    free = [c for c in range(ambient_dim) if c not in row_at]
    qindex = {f: qi for qi, f in enumerate(free)}
    proj_cols = [None] * ambient_dim
    for qi, f in enumerate(free):
        proj_cols[f] = {qi: 1}
    for p, row in row_at.items():
        proj_cols[p] = {qindex[f]: -e for f, e in row.items() if f != p}
    return SubquotientSpace(ambient_dim, free, proj_cols)


class _Columns:
    """The columns of a ``ColMap`` made from a column function: column j is
    the dict ``column(j)`` returns, built the first time it is read and kept
    as it is in a dict of the built columns.  Indexing, iteration and ``len``
    read like a list of ``ncols`` columns."""

    __slots__ = ("ncols", "_built", "_column")

    def __init__(self, ncols, column):
        self.ncols = ncols
        self._built = {}
        self._column = column

    def __getitem__(self, j):
        col = self._built.get(j)
        if col is None:
            if not 0 <= j < self.ncols:
                raise IndexError(f"column {j} outside 0..{self.ncols - 1}")
            col = self._built[j] = self._column(j)
        return col

    def __len__(self):
        return self.ncols

    def __iter__(self):
        return map(self.__getitem__, range(self.ncols))

    @property
    def built(self):
        return len(self._built)


def _relation(ncols, terms):
    """(row count, column function) of the sum of chains; see ``relation_holds``."""
    steps = []
    widths = set()
    for c, chain in terms:
        width = ncols
        for m in reversed(chain):
            if m.ncols != width:
                raise ValueError("shape mismatch in composition")
            width = m.nrows
        widths.add(width)
        if c:
            steps.append((c, chain[-1].cols if chain else None, [m.apply for m in chain[-2::-1]]))
    if len(widths) > 1:
        raise ValueError("shape mismatch in sum")

    def column(j):
        acc = {}
        for c, last, rest in steps:
            if last is None:
                vec = {j: c}
            else:
                # the last map of the chain reads its column j; the rest apply to it
                vec = last[j]
                for apply in rest:
                    if not vec:
                        break
                    vec = apply(vec)
                if vec and c != 1:
                    vec = {i: -e for i, e in vec.items()} if c == -1 else {i: c * e for i, e in vec.items()}
            if not acc:
                acc = dict(vec)
                continue
            for i, e in vec.items():
                cur = acc.get(i)
                cur = e if cur is None else cur + e
                if cur:
                    acc[i] = cur
                else:
                    del acc[i]
        return acc

    return widths.pop(), column


def relation_holds(ncols, terms):
    """Whether ``sum_k c_k f_k1 o f_k2 o ... = 0`` on a domain of ``ncols``.

    ``terms`` lists ``(c_k, [f_k1, f_k2, ...])``, each chain applied right
    to left, the empty chain being the identity.  Each basis vector e_j is
    pushed through every chain by ``apply``, from column j of its last map;
    no composed map is kept, and the first nonzero column answers False.
    Maps that do not compose, or chains of different row counts, raise
    ``ValueError``.
    """
    _, column = _relation(ncols, terms)
    return not any(map(column, range(ncols)))


def anticommutator_terms(d, h, r):
    """The chains of d h + h d in degree r, for maps given by degree
    (``d(r)``: X_r -> X_{r-1}, ``h(r)``: X_r -> X_{r+1}); h_{-1} = 0 leaves
    out h d at r = 0."""
    terms = [(1, [d(r + 1), h(r)])]
    return terms + [(1, [h(r - 1), d(r)])] if r else terms


def chain_sum(ncols, terms):
    """The sum of chains of ``relation_holds`` kept as a lazy ``ColMap``."""
    nrows, column = _relation(ncols, terms)
    return ColMap.lazy(nrows, ncols, column)


class ColMap:
    """Column-sparse linear map between based spaces.

    ``cols[j]`` maps the j-th domain basis vector to a dict
    ``{row_index: scalar}`` holding no zero scalar, and no column is edited
    after it is built.  An eager map is made from its list of columns, given
    zero-free by its caller.  A map made by ``lazy`` keeps each column as its
    column function returns it, the first time it is read, so ``apply``
    builds only the columns in the support of its argument.
    Identities between maps, ``==`` among them, are relations read column by
    column (``relation_holds``); ``compose`` builds a whole product, for the
    maps that are kept (the powers of alpha and of x, and the transferred
    D).  Elimination reads the columns as they are.  A map keeps no field:
    ``identity`` writes the int ``1``.
    """

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows, ncols, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else [dict() for _ in range(ncols)]

    @classmethod
    def identity(cls, n):
        return cls(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def lazy(cls, nrows, ncols, column):
        """The map whose column j is the term dict ``column(j)``, built on
        demand and kept as it is: ``column`` returns a new dict holding no
        zero scalar, which nothing edits afterwards."""
        return cls(nrows, ncols, _Columns(ncols, column))

    def apply(self, vec_dict):
        out = {}
        for j, c in vec_dict.items():
            for i, e in self.cols[j].items():
                acc = out.get(i)
                acc = e * c if acc is None else acc + e * c
                if acc:
                    out[i] = acc
                elif i in out:
                    del out[i]
        return out

    def compose(self, other):
        """self o other (apply ``other`` first), kept as a whole map."""
        if other.nrows != self.ncols:
            raise ValueError("shape mismatch in composition")
        return ColMap(self.nrows, other.ncols, [self.apply(col) for col in other.cols])

    def __eq__(self, other):
        """Same shape, and the relation self - other = 0 holds."""
        return (
            isinstance(other, ColMap)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and relation_holds(self.ncols, [(1, [self]), (-1, [other])])
        )

    def __repr__(self):
        nnz = sum(len(c) for c in self.cols)
        return f"ColMap({self.nrows}x{self.ncols}, nnz={nnz})"
