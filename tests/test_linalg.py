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
    kernel_basis,
    rref,
    solve,
    sparse,
    sparse_rank,
    sub_terms,
    subquotient,
)

Q = make_field("rationals")
F4 = make_field("cyclotomic", 4)


def identity(field, n):
    return Matrix(field, n, n, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])


def columns_of(rows, ncols):
    """Sparse columns of the matrix with these dense rows."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def test_rref_rank_one():
    m = Matrix(Q, 2, 2, [[Fr(1), Fr(2)], [Fr(2), Fr(4)]])
    red, pivots = rref(m)
    assert pivots == [0]
    assert red.entries[1] == [Q.zero, Q.zero]


def test_rref_identity_fixed():
    m = identity(Q, 3)
    red, pivots = rref(m)
    assert red.entries == m.entries and pivots == [0, 1, 2]


def test_rref_cyclotomic_dependent_rows():
    z = F4.root()
    m = Matrix(F4, 2, 2, [[z, F4.one], [F4.one, -z]])
    assert len(rref(m)[1]) == 1 == sparse_rank(columns_of(m.entries, 2))


def test_kernel_of_zero_and_identity():
    assert kernel_basis(Q, [{}, {}, {}]) == [{0: Q.one}, {1: Q.one}, {2: Q.one}]
    assert kernel_basis(Q, ColMap.identity(Q, 4).cols) == []


def test_kernel_single_relation():
    m = ColMap(Q, 1, 3, [{0: Fr(1)}, {0: Fr(1)}, {}])
    kb = kernel_basis(Q, m.cols)
    assert len(kb) == 2
    for v in kb:
        assert m.apply(v) == {}


def test_subquotient_examples():
    sq = subquotient(Q, 3, [{0: Fr(1), 1: Fr(1)}])
    assert sq.quotient_dim == 2
    full = subquotient(Q, 2, [{0: Fr(1)}, {1: Fr(1)}])
    assert full.quotient_dim == 0
    triv = subquotient(Q, 4, [])
    assert triv.quotient_dim == 4
    assert triv.proj_cols == [{i: Q.one} for i in range(4)]
    assert triv.lift_vec({0: Fr(1), 2: Fr(3)}) == {0: Fr(1), 2: Fr(3)}


def test_out_of_range_coordinates_are_refused():
    with pytest.raises(ValueError, match=r"outside 0\.\.2"):
        subquotient(Q, 3, [{0: Fr(1)}, {3: Fr(1)}])
    with pytest.raises(ValueError, match=r"outside 0\.\.2"):
        subquotient(Q, 3, [{-1: Fr(1)}])
    with pytest.raises(ValueError, match="spanning vector"):
        subquotient(Q, 0, [{0: Fr(1)}])
    sq = subquotient(Q, 3, [{0: Fr(1), 1: Fr(1)}])
    with pytest.raises(ValueError, match="quotient coordinate"):
        sq.lift_vec({2: Fr(1)})
    with pytest.raises(ValueError, match="quotient coordinate"):
        sq.lift_vec({-1: Fr(1)})


def assert_subquotient_invariants(field, sq, spans):
    """project . lift = id, the spanning vectors project to zero, and
    e_c - lift(project(e_c)) lies in their span for every ambient c."""
    span = EchelonSet(field, spans)
    assert sq.quotient_dim == sq.ambient_dim - span.dim
    for i in range(sq.quotient_dim):
        assert sq.project_terms(sq.lift_vec({i: field.one})) == {i: field.one}
    for v in spans:
        assert sq.project_terms(v) == {}
    for c in range(sq.ambient_dim):
        lifted = sq.lift_vec(sq.project_terms({c: field.one}))
        assert span.contains(sub_terms({c: field.one}, lifted))


def test_subquotient_invariants():
    spans = [{0: Fr(1), 1: Fr(1)}]
    assert_subquotient_invariants(Q, subquotient(Q, 3, spans), spans)


def test_solve_and_inconsistent():
    cols = [{0: Fr(1), 1: Fr(3)}, {0: Fr(2), 1: Fr(4)}]
    x = solve(Q, cols, {0: Fr(5), 1: Fr(6)})
    assert ColMap(Q, 2, 2, cols).apply(x) == {0: Fr(5), 1: Fr(6)}
    assert solve(Q, [{0: Fr(1), 1: Fr(1)}], {0: Fr(1), 1: Fr(2)}) is None


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
    assert sparse_rank(columns) + len(kernel_basis(Q, columns)) == cols


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
    m = ColMap(F4, rows, cols, columns_of(entries, cols))
    assert sparse_rank(m.cols) + len(kernel_basis(F4, m.cols)) == cols
    for v in kernel_basis(F4, m.cols):
        assert m.apply(v) == {}


def test_colmap_roundtrip_and_compose():
    cm = ColMap(Q, 2, 2, [{0: Fr(1)}, {0: Fr(2), 1: Fr(1)}])
    assert cm.compose(ColMap.identity(Q, 2)) == cm
    assert cm.compose(cm).cols == [{0: Fr(1)}, {0: Fr(4), 1: Fr(1)}]


def test_echelon_set_membership():
    ech = EchelonSet(Q)
    assert ech.add({0: Fr(1), 1: Fr(1)})
    assert not ech.add({0: Fr(2), 1: Fr(2)})
    assert ech.add({2: Fr(5)})
    assert not ech.add({})
    assert ech.dim == 2
    assert ech.contains({0: Fr(3), 1: Fr(3), 2: Fr(1)})
    assert not ech.contains({1: Fr(1)})
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
    return Matrix(field, len(picks), ncols, [list(pool[i]) for i in picks])


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
    ech = EchelonSet(field, map(sparse, rows))
    assert sorted(ech.row_at) == pivots
    assert [ref.dense(ech.row_at[p], ncols, zero) for p in pivots] == red
    columns = columns_of(rows, ncols)
    assert [ref.dense(v, ncols, zero) for v in kernel_basis(field, columns)] == ref.kernel(field, rows, ncols)
    # preimage under the span of the rows
    images = draw_vectors(field, data.draw(st.integers(min_value=0, max_value=3)), ncols, data)
    reduced = [ref.reduce(red, pivots, v) for v in images]
    expected = ref.kernel(field, ref.transpose(reduced, ncols), len(images))
    got = ech.preimage(map(sparse, images))
    assert [ref.dense(v, len(images), zero) for v in got] == expected
    # solve against the columns, for a reachable and a random right-hand side
    coeffs = draw_vectors(field, 1, ncols, data)[0]
    reachable = [sum((c * row[j] for j, c in enumerate(coeffs)), zero) for row in rows]
    for b in (reachable, draw_vectors(field, 1, len(rows), data)[0]):
        x = solve(field, columns, sparse(b))
        expected = ref.solve(field, [[row[j] for row in rows] for j in range(ncols)], b)
        assert (x if x is None else ref.dense(x, ncols, zero)) == expected
    # the quotient of k^ncols by the row span
    sq = subquotient(field, ncols, [sparse(row) for row in rows])
    free = [c for c in range(ncols) if c not in pivots]
    assert sq.free == free
    for row, p in zip(red, pivots):
        assert sq.proj_cols[p] == {qi: -row[f] for qi, f in enumerate(free) if row[f]}


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from([Q, F4]),
    ambient=st.integers(min_value=1, max_value=5),
    nspan=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_subquotient_projection_section_random(field, ambient, nspan, data):
    spans = [sparse(v) for v in draw_vectors(field, nspan, ambient, data)]
    assert_subquotient_invariants(field, subquotient(field, ambient, spans), spans)


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
    one_by_one = EchelonSet(field)
    for v in vecs:
        one_by_one.add(v)
    bulk = EchelonSet(field, vecs)
    assert list(bulk.row_at.items()) == list(one_by_one.row_at.items())
    probes = draw_vectors(field, 2, dim, data)
    probes.append(combine(field, probes[0], dense_vecs, dim))
    for v in map(sparse, probes):
        assert bulk.contains(v) == (solve(field, vecs, v) is not None)


@fields
@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4),
    nimg=st.integers(min_value=1, max_value=4),
    nspan=st.integers(min_value=0, max_value=3),
    data=st.data(),
)
def test_preimage_is_the_pullback_of_the_span(field, dim, nimg, nspan, data):
    images = draw_vectors(field, nimg, dim, data)
    span_vecs = draw_vectors(field, nspan, dim, data)
    span = EchelonSet(field, map(sparse, span_vecs))
    pre = span.preimage([sparse(v) for v in images])
    # reference: kernel of [images | span], cut to the image coordinates
    kernel = ref.kernel(field, ref.transpose(images + span_vecs, dim), nimg + nspan)
    expected = [sparse(v[:nimg]) for v in kernel]
    pre_span = EchelonSet(field, pre)
    assert pre_span.dim == len(pre)
    assert pre_span.dim == EchelonSet(field, expected).dim
    assert all(pre_span.contains(v) for v in expected)
    for v in pre:
        assert span.contains(sparse(combine(field, ref.dense(v, nimg, field.zero), images, dim)))


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
