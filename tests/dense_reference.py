"""A small dense Gauss–Jordan elimination, written apart from
``orehom.linalg``: the reference its sparse elimination is tested against.

Vectors are dense lists of field scalars; a matrix is a list of rows.
"""

from orehom.fields import reciprocal


def dense(vec, n, zero):
    """Dense length-n list of a sparse ``{index: scalar}`` vector."""
    out = [zero] * n
    for i, c in vec.items():
        out[i] = c
    return out


def transpose(columns, nrows):
    """Rows of the matrix with these dense columns."""
    return [[col[i] for col in columns] for i in range(nrows)]


def rref(field, rows, ncols):
    """(nonzero rows of the reduced row echelon form, their pivot columns):
    columns left to right, the first remaining row nonzero there as pivot."""
    work = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(work)) if work[i][c]), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        inv = reciprocal(work[r][c])
        pivot_row = work[r] = [e * inv for e in work[r]]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and f:
                work[i] = [a - f * b for a, b in zip(row, pivot_row)]
        pivots.append(c)
    return work[:len(pivots)], pivots


def kernel(field, rows, ncols):
    """Null space basis: one vector per free column, ascending."""
    red, pivots = rref(field, rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def solve(field, columns, b):
    """The x with sum_j x[j] * columns[j] = b that is zero at the free
    columns, or None."""
    n = len(columns)
    red, pivots = rref(field, transpose(list(columns) + [b], len(b)), n + 1)
    if n in pivots:
        return None
    x = [field.zero] * n
    for row, p in zip(red, pivots):
        x[p] = row[n]
    return x


def reduce(red, pivots, vec):
    """``vec`` minus its combination of the RREF rows at their pivots."""
    out = list(vec)
    for row, p in zip(red, pivots):
        c = vec[p]
        if c:
            out = [a - c * b for a, b in zip(out, row)]
    return out
