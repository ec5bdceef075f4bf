from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orehom.fields import make_field
from orehom.linalg import (
    ColMap,
    EchelonSet,
    Matrix,
    densify,
    kernel_basis,
    rank,
    rref,
    solve,
    sparse,
    sparse_rank,
    subquotient,
)

Q = make_field("rationals")
F4 = make_field("cyclotomic", 4)


def identity(field, n):
    return Matrix.from_rows(field, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])


def test_rref_rank_one():
    m = Matrix.from_rows(Q, [[Fr(1), Fr(2)], [Fr(2), Fr(4)]])
    red, pivots = rref(m)
    assert pivots == [0]
    assert red.entries[1] == [Q.zero, Q.zero]


def test_rref_identity_fixed():
    m = identity(Q, 3)
    red, pivots = rref(m)
    assert red.entries == m.entries and pivots == [0, 1, 2]


def test_rref_cyclotomic_dependent_rows():
    z = F4.root()
    m = Matrix.from_rows(F4, [[z, F4.one], [F4.one, -z]])
    assert rank(m) == 1


def test_kernel_of_zero_and_identity():
    assert len(kernel_basis(Matrix.zeros(Q, 2, 3))) == 3
    assert kernel_basis(identity(Q, 4)) == []


def test_kernel_single_relation():
    m = Matrix.from_rows(Q, [[Fr(1), Fr(1), Fr(0)]])
    kb = kernel_basis(m)
    assert len(kb) == 2
    for v in kb:
        assert all(not c for c in m.apply(v))


def test_subquotient_examples():
    sq = subquotient(Q, 3, [[Fr(1), Fr(1), Fr(0)]])
    assert sq.quotient_dim == 2
    full = subquotient(Q, 2, [[Fr(1), Fr(0)], [Fr(0), Fr(1)]])
    assert full.quotient_dim == 0
    triv = subquotient(Q, 4, [])
    assert triv.quotient_dim == 4
    assert triv.proj_cols == [{i: Q.one} for i in range(4)]
    assert triv.lift_vec([Fr(1), Fr(2), Fr(3), Fr(4)]) == [Fr(1), Fr(2), Fr(3), Fr(4)]


def assert_subquotient_invariants(field, sq, spans):
    """project . lift = id, the spanning vectors project to zero, and
    e_c - lift(project(e_c)) lies in their span for every ambient c."""
    span = EchelonSet(field, spans)
    assert sq.quotient_dim == sq.ambient_dim - span.dim
    for i in range(sq.quotient_dim):
        e_i = densify({i: field.one}, sq.quotient_dim, field.zero)
        assert sq.project_terms(sparse(sq.lift_vec(e_i))) == {i: field.one}
    for v in spans:
        assert sq.project_terms(sparse(v)) == {}
    for c in range(sq.ambient_dim):
        qvec = densify(sq.project_terms({c: field.one}), sq.quotient_dim, field.zero)
        e_c = densify({c: field.one}, sq.ambient_dim, field.zero)
        assert span.contains([a - b for a, b in zip(e_c, sq.lift_vec(qvec))])


def test_subquotient_invariants():
    spans = [[Fr(1), Fr(1), Fr(0)]]
    assert_subquotient_invariants(Q, subquotient(Q, 3, spans), spans)


def test_solve_and_inconsistent():
    x = solve(Q, [[Fr(1), Fr(3)], [Fr(2), Fr(4)]], [Fr(5), Fr(6)])
    assert Matrix.from_rows(Q, [[Fr(1), Fr(2)], [Fr(3), Fr(4)]]).apply(x) == [Fr(5), Fr(6)]
    assert solve(Q, [[Fr(1), Fr(1)]], [Fr(1), Fr(2)]) is None


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
    m = Matrix.from_rows(Q, entries)
    assert rank(m) + len(kernel_basis(m)) == cols


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
    m = Matrix.from_rows(F4, entries)
    assert rank(m) + len(kernel_basis(m)) == cols
    for v in kernel_basis(m):
        assert all(not c for c in m.apply(v))


def test_colmap_roundtrip_and_compose():
    cm = ColMap(Q, 2, 2, [{0: Fr(1)}, {0: Fr(2), 1: Fr(1)}])
    assert cm.to_matrix().entries == [[Fr(1), Fr(2)], [Fr(0), Fr(1)]]
    assert cm.compose(ColMap.identity(Q, 2)) == cm
    assert cm.compose(cm).to_matrix().entries == [[Fr(1), Fr(4)], [Fr(0), Fr(1)]]


def test_echelon_set_membership():
    ech = EchelonSet(Q)
    assert ech.add([Fr(1), Fr(1), Fr(0)])
    assert not ech.add([Fr(2), Fr(2), Fr(0)])
    assert ech.add([Fr(0), Fr(0), Fr(5)])
    assert ech.dim == 2
    assert ech.contains([Fr(3), Fr(3), Fr(1)])
    assert not ech.contains([Fr(0), Fr(1), Fr(0)])


# few distinct values, so that random vectors are often dependent
sparse_entry = st.sampled_from([Fr(0), Fr(0), Fr(1), Fr(-1), Fr(1, 2)])
fields = pytest.mark.parametrize("field", [Q, F4], ids=["Q", "Q(zeta_4)"])


def draw_vectors(field, count, dim, data):
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


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from([Q, F4]),
    ambient=st.integers(min_value=1, max_value=5),
    nspan=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_subquotient_projection_section_random(field, ambient, nspan, data):
    spans = draw_vectors(field, nspan, ambient, data)
    assert_subquotient_invariants(field, subquotient(field, ambient, spans), spans)


@fields
@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4),
    nvec=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_echelon_set_bulk_build_and_contains(field, dim, nvec, data):
    vecs = draw_vectors(field, nvec, dim, data)
    one_by_one = EchelonSet(field)
    for v in vecs:
        one_by_one.add(v)
    bulk = EchelonSet(field, vecs)
    assert (bulk.rows, bulk.pivots) == (one_by_one.rows, one_by_one.pivots)
    probes = draw_vectors(field, 2, dim, data)
    probes.append(combine(field, probes[0], vecs, dim))
    for v in probes:
        assert bulk.contains(v) == (solve(field, vecs, v) is not None)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=0, max_value=5),
    data=st.data(),
)
def test_echelon_set_of_colmap_columns(rows, cols, data):
    cm = ColMap(Q, rows, cols)
    for j in range(cols):
        cm.set_col(j, dict(enumerate(draw_vectors(Q, 1, rows, data)[0])))
    m = cm.to_matrix()
    dense = [[row[j] for row in m.entries] for j in range(cols)]
    assert [densify(col, rows, Q.zero) for col in cm.cols] == dense
    from_cols = EchelonSet(Q, cm.dense_cols())
    from_dense = EchelonSet(Q, dense)
    assert (from_cols.rows, from_cols.pivots) == (from_dense.rows, from_dense.pivots)


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
    span = EchelonSet(field, span_vecs)
    pre = span.preimage(images)
    # reference: kernel of [images | span], cut to the image coordinates
    ref = [v[:nimg] for v in kernel_basis(Matrix.from_cols(field, images + span_vecs, dim))]
    pre_span = EchelonSet(field, pre)
    assert pre_span.dim == len(pre)
    assert pre_span.dim == EchelonSet(field, ref).dim
    assert all(pre_span.contains(v) for v in ref)
    for v in pre:
        assert span.contains(combine(field, v, images, dim))


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
    m = Matrix.from_cols(field, [densify(col, nrows, field.zero) for col in cols], nrows)
    expected = len(rref(m)[1])
    before = [dict(col) for col in cols]
    assert sparse_rank(cols) == expected
    assert cols == before
    assert rank(m) == expected
