import tracemalloc
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from orehom.fields import make_field
from orehom.linalg import (
    ColMap,
    EchelonSet,
    Matrix,
    chain_sum,
    kernel_basis,
    relation_holds,
    rref,
    sparse,
    sparse_rank,
    sub_terms,
    subquotient,
)
from paper_checks import contains, preimage, solve

Q = make_field("rationals")
F4 = make_field("cyclotomic", 4)


def identity(field, n):
    return Matrix(n, n, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])


def columns_of(rows, ncols):
    """Sparse columns of the matrix with these dense rows."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def test_rref_rank_one():
    m = Matrix(2, 2, [[Fr(1), Fr(2)], [Fr(2), Fr(4)]])
    red, pivots = rref(m)
    assert pivots == [0]
    assert red.entries[1] == [Q.zero, Q.zero]


def test_rref_identity_fixed():
    m = identity(Q, 3)
    red, pivots = rref(m)
    assert red.entries == m.entries and pivots == [0, 1, 2]


def test_rref_cyclotomic_dependent_rows():
    z = F4.root()
    m = Matrix(2, 2, [[z, F4.one], [F4.one, -z]])
    assert len(rref(m)[1]) == 1 == sparse_rank(columns_of(m.entries, 2))


def test_kernel_of_zero_and_identity():
    assert kernel_basis([{}, {}, {}]) == [{0: Q.one}, {1: Q.one}, {2: Q.one}]
    assert kernel_basis(ColMap.identity(4).cols) == []


def test_kernel_single_relation():
    m = ColMap(1, 3, [{0: Fr(1)}, {0: Fr(1)}, {}])
    kb = kernel_basis(m.cols)
    assert len(kb) == 2
    for v in kb:
        assert m.apply(v) == {}


def test_subquotient_examples():
    sq = subquotient(3, [{0: Fr(1), 1: Fr(1)}])
    assert sq.quotient_dim == 2
    full = subquotient(2, [{0: Fr(1)}, {1: Fr(1)}])
    assert full.quotient_dim == 0
    triv = subquotient(4, [])
    assert triv.quotient_dim == 4
    assert triv.proj.cols == [{i: Q.one} for i in range(4)]
    assert triv.lift_vec({0: Fr(1), 2: Fr(3)}) == {0: Fr(1), 2: Fr(3)}


def test_out_of_range_coordinates_are_refused():
    with pytest.raises(ValueError, match=r"outside 0\.\.2"):
        subquotient(3, [{0: Fr(1)}, {3: Fr(1)}])
    with pytest.raises(ValueError, match=r"outside 0\.\.2"):
        subquotient(3, [{-1: Fr(1)}])
    with pytest.raises(ValueError, match="spanning vector"):
        subquotient(0, [{0: Fr(1)}])
    sq = subquotient(3, [{0: Fr(1), 1: Fr(1)}])
    with pytest.raises(ValueError, match="quotient coordinate"):
        sq.lift_vec({2: Fr(1)})
    with pytest.raises(ValueError, match="quotient coordinate"):
        sq.lift_vec({-1: Fr(1)})


def assert_subquotient_invariants(field, sq, spans):
    """project . lift = id, the spanning vectors project to zero, and
    e_c - lift(project(e_c)) lies in their span for every ambient c."""
    span = EchelonSet(spans)
    assert sq.quotient_dim == sq.ambient_dim - span.dim
    for i in range(sq.quotient_dim):
        assert sq.project_terms(sq.lift_vec({i: field.one})) == {i: field.one}
    for v in spans:
        assert sq.project_terms(v) == {}
    for c in range(sq.ambient_dim):
        lifted = sq.lift_vec(sq.project_terms({c: field.one}))
        assert contains(span, sub_terms({c: field.one}, lifted))


def test_subquotient_invariants():
    spans = [{0: Fr(1), 1: Fr(1)}]
    assert_subquotient_invariants(Q, subquotient(3, spans), spans)


def test_solve_and_inconsistent():
    cols = [{0: Fr(1), 1: Fr(3)}, {0: Fr(2), 1: Fr(4)}]
    x = solve(cols, {0: Fr(5), 1: Fr(6)})
    assert ColMap(2, 2, cols).apply(x) == {0: Fr(5), 1: Fr(6)}
    assert solve([{0: Fr(1), 1: Fr(1)}], {0: Fr(1), 1: Fr(2)}) is None


entry = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_rank_nullity_rationals(rows, cols, data):
    entries = [
        [data.draw(entry) for _ in range(cols)] for _ in range(rows)
    ]
    columns = columns_of(entries, cols)
    assert sparse_rank(columns) + len(kernel_basis(columns)) == cols


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=3),
    cols=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_rank_nullity_cyclotomic(rows, cols, data):
    pair = st.tuples(entry, entry)
    entries = [
        [F4.scalar(list(data.draw(pair))) for _ in range(cols)] for _ in range(rows)
    ]
    m = ColMap(rows, cols, columns_of(entries, cols))
    assert sparse_rank(m.cols) + len(kernel_basis(m.cols)) == cols
    for v in kernel_basis(m.cols):
        assert m.apply(v) == {}


def test_colmap_roundtrip_and_compose():
    cm = ColMap(2, 2, [{0: Fr(1)}, {0: Fr(2), 1: Fr(1)}])
    assert cm.compose(ColMap.identity(2)) == cm
    assert cm.compose(cm).cols == [{0: Fr(1)}, {0: Fr(4), 1: Fr(1)}]


def test_echelon_set_membership():
    ech = EchelonSet()
    assert ech.add({0: Fr(1), 1: Fr(1)})
    assert not ech.add({0: Fr(2), 1: Fr(2)})
    assert ech.add({2: Fr(5)})
    assert not ech.add({})
    assert ech.dim == 2
    assert contains(ech, {0: Fr(3), 1: Fr(3), 2: Fr(1)})
    assert not contains(ech, {1: Fr(1)})
    assert ech.row_at == {0: {0: Fr(1), 1: Fr(1)}, 2: {2: Fr(1)}}


# few distinct values, so that random vectors are often dependent
sparse_entry = st.sampled_from([Fr(0), Fr(0), Fr(1), Fr(-1), Fr(1, 2)])
fields = pytest.mark.parametrize("field", [Q, F4], ids=["Q", "Q(zeta_4)"])


def draw_vectors(field, count, dim, data):
    """Dense vectors; ``sparse`` turns each into the term dict elimination reads."""
    if field is Q:
        draw = lambda: data.draw(sparse_entry)
    else:
        draw = lambda: F4.scalar([data.draw(sparse_entry), data.draw(sparse_entry)])
    return [[draw() for _ in range(dim)] for _ in range(count)]


def combine(field, coeffs, vectors, dim):
    out = [field.zero] * dim
    for c, v in zip(coeffs, vectors):
        out = [a + c * b for a, b in zip(out, v)]
    return out


def draw_matrix(field, data):
    """Rows of few distinct values, with zero rows and repeated rows mixed in;
    either dimension may be 0."""
    ncols = data.draw(st.integers(min_value=0, max_value=5))
    pool = draw_vectors(field, data.draw(st.integers(min_value=0, max_value=4)), ncols, data)
    pool.append([field.zero] * ncols)
    picks = data.draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=6))
    return Matrix(len(picks), ncols, [list(pool[i]) for i in picks])


@fields
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rref_is_the_reduced_row_echelon_form(field, data):
    m = draw_matrix(field, data)
    before = [list(row) for row in m.entries]
    red, pivots = rref(m)
    rows = red.entries
    assert m.entries == before
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for r, p in enumerate(pivots):
        assert rows[r][p] == field.one
        assert all(not rows[i][p] for i in range(m.rows) if i != r)
        assert not any(rows[r][:p])
    assert not any(any(row) for row in rows[len(pivots):])
    # an RREF row space holds v exactly when v is its combination with the
    # coefficients read at the pivots
    for v in m.entries:
        assert combine(field, [v[p] for p in pivots], rows, m.cols) == v
    assert len(pivots) == sparse_rank(map(sparse, m.entries))


@fields
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sparse_elimination_matches_the_dense_reference(field, data):
    """Zero, repeated and empty rows and columns: the echelon rows and pivots,
    kernels, preimages, solutions and subquotients of the sparse elimination
    equal those of the dense Gauss-Jordan reference."""
    m = draw_matrix(field, data)
    rows, ncols, zero = m.entries, m.cols, field.zero
    red, pivots = ref.rref(field, rows, ncols)
    ech = EchelonSet(map(sparse, rows))
    assert sorted(ech.row_at) == pivots
    assert [ref.dense(ech.row_at[p], ncols, zero) for p in pivots] == red
    columns = columns_of(rows, ncols)
    assert [ref.dense(v, ncols, zero) for v in kernel_basis(columns)] == ref.kernel(field, rows, ncols)
    # preimage under the span of the rows
    images = draw_vectors(field, data.draw(st.integers(min_value=0, max_value=3)), ncols, data)
    reduced = [ref.reduce(red, pivots, v) for v in images]
    expected = ref.kernel(field, ref.transpose(reduced, ncols), len(images))
    got = preimage(ech, [sparse(v) for v in images])
    assert [ref.dense(v, len(images), zero) for v in got] == expected
    # solve against the columns, for a reachable and a random right-hand side
    coeffs = draw_vectors(field, 1, ncols, data)[0]
    reachable = [sum((c * row[j] for j, c in enumerate(coeffs)), zero) for row in rows]
    for b in (reachable, draw_vectors(field, 1, len(rows), data)[0]):
        x = solve(columns, sparse(b))
        expected = ref.solve(field, [[row[j] for row in rows] for j in range(ncols)], b)
        assert (x if x is None else ref.dense(x, ncols, zero)) == expected
    # the quotient of k^ncols by the row span
    sq = subquotient(ncols, [sparse(row) for row in rows])
    free = [c for c in range(ncols) if c not in pivots]
    assert sq.free == free
    for row, p in zip(red, pivots):
        assert sq.proj.cols[p] == {qi: -row[f] for qi, f in enumerate(free) if row[f]}


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from([Q, F4]),
    ambient=st.integers(min_value=1, max_value=5),
    nspan=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_subquotient_projection_section_random(field, ambient, nspan, data):
    spans = [sparse(v) for v in draw_vectors(field, nspan, ambient, data)]
    assert_subquotient_invariants(field, subquotient(ambient, spans), spans)


@fields
@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4),
    nvec=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_echelon_set_bulk_build_and_contains(field, dim, nvec, data):
    dense_vecs = draw_vectors(field, nvec, dim, data)
    vecs = [sparse(v) for v in dense_vecs]
    one_by_one = EchelonSet()
    for v in vecs:
        one_by_one.add(v)
    bulk = EchelonSet(vecs)
    assert list(bulk.row_at.items()) == list(one_by_one.row_at.items())
    probes = draw_vectors(field, 2, dim, data)
    probes.append(combine(field, probes[0], dense_vecs, dim))
    for v in map(sparse, probes):
        assert contains(bulk, v) == (solve(vecs, v) is not None)


@fields
@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4),
    nimg=st.integers(min_value=0, max_value=4),
    nspan=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_preimage_is_the_pullback_of_the_span(field, dim, nimg, nspan, data):
    """``colon_dim`` of k^dim / span(span_vecs) against the dense reference:
    with no denominator, dim k^dim / (span + images); with one, the
    dimension of the pullback {lam : sum_t lam[t] images[t] in span} (the
    kernel of [images | span] cut to the image coordinates) over the span of
    the denominator, drawn inside the pullback and sometimes with one random
    vector, and None when the denominator leaves the pullback."""
    images = draw_vectors(field, nimg, dim, data)
    span_vecs = draw_vectors(field, nspan, dim, data)
    rank = lambda rows, ncols: len(ref.rref(field, rows, ncols)[1])
    sq = subquotient(dim, [sparse(v) for v in span_vecs])
    assert sq.colon_dim([sparse(v) for v in images]) == dim - rank(span_vecs + images, dim)
    kernel = ref.kernel(field, ref.transpose(images + span_vecs, dim), nimg + nspan)
    pullback = [v[:nimg] for v in kernel]
    coeffs = draw_vectors(field, data.draw(st.integers(min_value=0, max_value=2)), len(pullback), data)
    den = [combine(field, c, pullback, nimg) for c in coeffs]
    den += draw_vectors(field, data.draw(st.integers(min_value=0, max_value=1)), nimg, data)
    inside = rank(pullback + den, nimg) == rank(pullback, nimg)
    expected = rank(pullback, nimg) - rank(den, nimg) if inside else None
    assert sq.colon_dim([sparse(v) for v in images], [sparse(v) for v in den]) == expected


def test_colon_dim_examples():
    # k^3 modulo e_0, the images e_0 + e_1 and e_2 - e_1
    sq = subquotient(3, [{0: Fr(1)}])
    images = [{0: Fr(1), 1: Fr(1)}, {1: Fr(-1), 2: Fr(1)}]
    assert sq.colon_dim(images) == 0
    assert sq.colon_dim([{0: Fr(2)}]) == 2
    # the colon space of e_0 + e_1, e_0, 2 e_0 is {lam : lam[0] = 0}
    images = [{0: Fr(1), 1: Fr(1)}, {0: Fr(1)}, {0: Fr(2)}]
    assert sq.colon_dim(images, []) == 2
    assert sq.colon_dim(images, [{1: Fr(3)}]) == 1
    assert sq.colon_dim(images, [{1: Fr(2), 2: Fr(-1)}, {1: Fr(1)}]) == 0
    assert sq.colon_dim(images, [{0: Fr(1)}]) is None
    assert sq.colon_dim(images, [{1: Fr(1)}, {0: Fr(1), 2: Fr(1)}]) is None


@fields
@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6)),
        max_size=3,
    ),
    zero_blocks=st.lists(st.booleans(), min_size=3, max_size=3),
    empty_cols=st.integers(min_value=0, max_value=2),
    data=st.data(),
)
def test_sparse_rank_matches_rref(field, shapes, zero_blocks, empty_cols, data):
    # block-diagonal with some all-zero blocks and empty columns, then rows
    # and columns permuted
    nrows = sum(r for r, _ in shapes)
    cols = [{} for _ in range(empty_cols)]
    offset = 0
    for (r, c), zero in zip(shapes, zero_blocks):
        for v in draw_vectors(field, c, r, data):
            cols.append({} if zero else {offset + i: e for i, e in enumerate(v) if e})
        offset += r
    row_perm = data.draw(st.permutations(range(nrows)))
    cols = data.draw(st.permutations(cols))
    cols = [{row_perm[i]: e for i, e in col.items()} for col in cols]
    dense_cols = [ref.dense(col, nrows, field.zero) for col in cols]
    expected = len(ref.rref(field, ref.transpose(dense_cols, nrows), len(cols))[1])
    before = [dict(col) for col in cols]
    assert sparse_rank(cols) == expected
    assert cols == before


def pivot_values(field):
    """+-1 and non-units such as 2, 1/3 and 1 + zeta, as the field stores them."""
    values = [[1], [-1], [2], [Fr(1, 3)], [Fr(-3, 2)]]
    if field is F4:
        values += [[1, 1], [0, 1], [Fr(1, 3), -2]]
    return st.sampled_from([field.scalar(v) for v in values])


@fields
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_rank_fast_paths_match_the_dense_reference(field, data):
    """Columns of at most 3 entries over up to 10 rows: many one-column
    blocks, one-entry columns and rows held by one column only, with non-unit
    pivots, and scaled copies of drawn columns so that eliminations cancel."""
    nrows = data.draw(st.integers(min_value=1, max_value=10))
    entry = pivot_values(field)
    supports = st.sets(st.integers(min_value=0, max_value=nrows - 1), max_size=3)
    cols = [{r: data.draw(entry) for r in sorted(data.draw(supports))}
            for _ in range(data.draw(st.integers(min_value=0, max_value=8)))]
    if cols:
        for col in data.draw(st.lists(st.sampled_from(cols), max_size=3)):
            c = data.draw(entry)
            cols.append({r: c * e for r, e in col.items()})
    cols = data.draw(st.permutations(cols))
    dense_cols = [ref.dense(col, nrows, field.zero) for col in cols]
    expected = len(ref.rref(field, ref.transpose(dense_cols, nrows), len(cols))[1])
    before = [dict(col) for col in cols]
    assert sparse_rank(cols) == expected
    assert cols == before


def test_blocks_of_one_column_or_one_row_are_counted_without_elimination(monkeypatch):
    # blocks {0}, {1}, {2, 3} (one column), {7} (one row, two columns) and
    # {4, 5, 6} (two columns and three rows): only the last is eliminated
    from orehom import linalg

    sizes = []
    block_rank = linalg._block_rank

    def counted(block):
        sizes.append(len(block))
        return block_rank(block)

    monkeypatch.setattr(linalg, "_block_rank", counted)
    cols = [{0: 2}, {7: 3}, {1: Fr(1, 3)}, {2: 1, 3: 5}, {}, {4: 1, 5: 1}, {7: Fr(1, 2)}, {5: 2, 6: 2}]
    assert sparse_rank(cols) == 6
    assert sizes == [2]


@fields
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_relation_checker_matches_the_dense_sum_of_products(field, data):
    """Up to three chains of 0-3 maps between spaces of dimension 0-3, with
    coefficients +-1 and 1/2: ``relation_holds`` and ``chain_sum`` agree with
    the dense sum of products, and a last term cancelling that sum makes the
    relation hold."""
    dim = lambda: data.draw(st.integers(min_value=0, max_value=3))
    n, m = dim(), dim()
    total = [[field.zero] * n for _ in range(m)]
    terms = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        length = data.draw(st.integers(min_value=0 if m == n else 1, max_value=3))
        dims = [n] + [dim() for _ in range(length - 1)] + [m] if length else [n]
        chain = []
        product = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
        for k in range(length):
            rows = draw_vectors(field, dims[k + 1], dims[k], data)
            chain.insert(0, ColMap(dims[k + 1], dims[k], columns_of(rows, dims[k])))
            product = ref.mat_mul(rows, product, n)
        c = data.draw(st.sampled_from([1, -1, Fr(1, 2)]))
        terms.append((c, chain))
        total = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(total, product)]
    assert relation_holds(n, terms) == (not any(any(row) for row in total))
    summed = chain_sum(n, terms)
    assert (summed.nrows, summed.ncols) == (m, n)
    assert [ref.dense(col, m, field.zero) for col in summed.cols] == ref.transpose(total, n)
    assert relation_holds(n, terms + [(-1, [ColMap(m, n, columns_of(total, n))])])


def test_relation_checker_refuses_maps_that_do_not_compose():
    a, b = ColMap(2, 3), ColMap(3, 2)
    assert relation_holds(2, [(1, [a, b])]) and relation_holds(3, [(1, [b, a]), (-1, [b, a])])
    for ncols, terms in [
        (3, [(1, [a, a])]),  # a's rows are not a's domain
        (2, [(1, [a])]),  # the domain is not a's
        (3, [(1, [a]), (-1, [])]),  # 2 rows against the 3 of the identity
        (2, [(1, [a, b]), (1, [b])]),
    ]:
        with pytest.raises(ValueError, match="shape mismatch"):
            relation_holds(ncols, terms)
        with pytest.raises(ValueError, match="shape mismatch"):
            chain_sum(ncols, terms)
    # == compares shapes before reading columns
    assert ColMap(2, 3) != ColMap(2, 2)


def test_relation_checker_stops_at_the_first_nonzero_column():
    read = []

    def column(j):
        read.append(j)
        return {0: Fr(1)} if j in (2, 4) else {}

    m = ColMap.lazy(1, 6, column)
    assert not relation_holds(6, [(1, [m])])
    assert read == [0, 1, 2]
    assert relation_holds(6, [(1, [m]), (-1, [m])])


def test_a_lazy_map_keeps_only_the_columns_it_built():
    read, returned = [], []

    def column(j):
        read.append(j)
        returned.append({0: Fr(j + 1), 1: Fr(1)})
        return returned[-1]

    tracemalloc.start()
    try:
        m = ColMap.lazy(2, 10 ** 7, column)
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert allocated < 10 ** 4  # no storage per column
    assert (len(m.cols), m.cols.built, read) == (10 ** 7, 0, [])
    assert m.cols[123456] == {0: Fr(123457), 1: Fr(1)}
    # the column is kept as its function returned it, and read again as it is
    assert m.cols[123456] is returned[0]
    assert (m.cols.built, read) == (1, [123456])
    assert m.apply({5: Fr(2), 123456: Fr(1)}) == {0: Fr(12 + 123457), 1: Fr(3)}
    assert (m.cols.built, read) == (2, [123456, 5])
    for j in (-1, 10 ** 7):
        with pytest.raises(IndexError):
            m.cols[j]
    assert m.cols.built == 2
