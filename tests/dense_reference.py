"""A small dense Gauss–Jordan elimination and dense arithmetic in K and in
A = K[x, alpha]/(f), written apart from ``orehom.linalg`` and
``orehom.algebra``: the references their sparse elimination and their
sparse products are tested against.

Vectors are dense lists of field scalars; a matrix is a list of rows.  An
element of K is a dense list of dim K scalars, read against the structure
constants of K; an element of A is a dense list of n such K-vectors, the
coefficients of x^0 .. x^(n-1).
"""

from orehom.fields import reciprocal


def dense(vec, n, zero):
    """Dense length-n list of a sparse ``{index: scalar}`` vector."""
    out = [zero] * n
    for i, c in vec.items():
        out[i] = c
    return out


def sparse(vec):
    """Sparse ``{index: scalar}`` dict of a dense vector, ascending, no zeros."""
    return {i: c for i, c in enumerate(vec) if c}


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


def mat_mul(a, b, ncols):
    """The product a b of dense matrices given as lists of rows, b having
    ``ncols`` columns (a has as many columns as b has rows)."""
    return [[sum((row[k] * b[k][j] for k in range(len(b))), 0) for j in range(ncols)] for row in a]


def reduce(red, pivots, vec):
    """``vec`` minus its combination of the RREF rows at their pivots."""
    out = list(vec)
    for row, p in zip(red, pivots):
        c = vec[p]
        if c:
            out = [a - c * b for a, b in zip(out, row)]
    return out


# -- K and A ---------------------------------------------------------------------

def k_product(K, u, v):
    """u * v for dense K-vectors by the triple loop over the structure
    constants of K."""
    out = [K.field.zero] * K.dim
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                for t, s in K.structure_constants[i][j].items():
                    out[t] = out[t] + a * b * s
    return out


def alpha_power(mono, p, vec):
    """alpha^p of a dense K-vector by p applications of the matrix of alpha."""
    cols = mono.alpha.cols
    for _ in range(p):
        out = [mono.field.zero] * mono.base.dim
        for j, c in enumerate(vec):
            if c:
                for i, e in cols[j].items():
                    out[i] = out[i] + e * c
        vec = out
    return list(vec)


def f_coefficient(mono, i):
    """lam_i of f as a dense K-vector, lam_0 = 1."""
    return dense(mono.base.unit if i == 0 else mono.lambdas[i - 1], mono.base.dim, mono.field.zero)


def x_power(mono, e):
    """x^e as a polynomial of B = K[x, alpha]: dense K-vectors for x^0 .. x^e."""
    zero = [mono.field.zero] * mono.base.dim
    return [list(zero) for _ in range(e)] + [f_coefficient(mono, 0)]


def twisted_division(mono, poly):
    """(quotient, remainder) of the polynomial ``poly`` (dense K-vectors for
    x^0, x^1, ..) by f in B by long division, with the coefficients on the
    left: (q x^e)(lam_i x^(n-i)) = q alpha^e(lam_i) x^(e+n-i).  The remainder
    has n entries, the quotient len(poly) - n (none if poly is shorter)."""
    K, n = mono.base, mono.n
    work = [list(v) for v in poly] + [[K.field.zero] * K.dim for _ in range(n - len(poly))]
    quot = [[K.field.zero] * K.dim for _ in range(len(work) - n)]
    for d in range(len(work) - 1, n - 1, -1):
        c = work[d]
        if not any(c):
            continue
        e = d - n
        quot[e] = list(c)
        for i in range(n + 1):
            term = k_product(K, c, alpha_power(mono, e, f_coefficient(mono, i)))
            work[e + n - i] = [a - b for a, b in zip(work[e + n - i], term)]
    return quot, work[:n]


def a_product(mono, a, b):
    """a * b in A by the twisted product of polynomials reduced modulo f."""
    K = mono.base
    poly = [[K.field.zero] * K.dim for _ in range(2 * mono.n - 1)]
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            term = k_product(K, u, alpha_power(mono, i, v))
            poly[i + j] = [p + q for p, q in zip(poly[i + j], term)]
    return twisted_division(mono, poly)[1]


def a_dense(mono, terms):
    """The dense K-vectors of an element of A given by its flat coordinates
    ``{p * dim K + kappa: scalar}``."""
    d = mono.base.dim
    flat = dense(terms, mono.dim, mono.field.zero)
    return [flat[p * d:(p + 1) * d] for p in range(mono.n)]


def a_terms(coeffs):
    """The flat sparse coordinates of an element of A given by its dense
    K-vectors."""
    d = len(coeffs[0])
    return {p * d + k: c for p, v in enumerate(coeffs) for k, c in enumerate(v) if c}


def parts(coeffs):
    """The nonzero parts [(t, {index: scalar})] of a list of dense K-vectors."""
    return [(t, sparse(v)) for t, v in enumerate(coeffs) if any(v)]
