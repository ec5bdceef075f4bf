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
    subquotient,
)

Q = make_field("rationals")
F4 = make_field("cyclotomic", 4)


def test_rref_rank_one():
    m = Matrix.from_rows(Q, [[Fr(1), Fr(2)], [Fr(2), Fr(4)]])
    red, pivots = rref(m)
    assert pivots == [0]
    assert red.entries[1] == [Q.zero, Q.zero]


def test_rref_identity_fixed():
    m = Matrix.identity(Q, 3)
    red, pivots = rref(m)
    assert red == m and pivots == [0, 1, 2]


def test_rref_cyclotomic_dependent_rows():
    z = F4.root()
    m = Matrix.from_rows(F4, [[z, F4.one], [F4.one, -z]])
    assert rank(m) == 1


def test_kernel_of_zero_and_identity():
    assert len(kernel_basis(Matrix.zeros(Q, 2, 3))) == 3
    assert kernel_basis(Matrix.identity(Q, 4)) == []


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
    assert triv.projection == Matrix.identity(Q, 4)


def test_subquotient_invariants():
    sq = subquotient(Q, 3, [[Fr(1), Fr(1), Fr(0)]])
    assert sq.projection * sq.section == Matrix.identity(Q, sq.quotient_dim)
    assert all(not c for c in sq.projection.apply([Fr(1), Fr(1), Fr(0)]))
    assert sq.quotient_dim == sq.ambient_dim - sq.sub_basis.rows


def test_solve_and_inconsistent():
    m = Matrix.from_rows(Q, [[Fr(1), Fr(2)], [Fr(3), Fr(4)]])
    x = solve(m, [Fr(5), Fr(6)])
    assert m.apply(x) == [Fr(5), Fr(6)]
    assert solve(Matrix.from_rows(Q, [[Fr(1)], [Fr(1)]]), [Fr(1), Fr(2)]) is None


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


@settings(max_examples=30, deadline=None)
@given(
    ambient=st.integers(min_value=1, max_value=5),
    nspan=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_subquotient_projection_section_random(ambient, nspan, data):
    spans = [
        [data.draw(entry) for _ in range(ambient)] for _ in range(nspan)
    ]
    sq = subquotient(Q, ambient, spans)
    assert sq.projection * sq.section == Matrix.identity(Q, sq.quotient_dim)
    for v in spans:
        assert all(not c for c in sq.projection.apply(v))


def test_colmap_roundtrip_and_compose():
    m = Matrix.from_rows(Q, [[Fr(1), Fr(2)], [Fr(0), Fr(1)]])
    cm = ColMap.from_matrix(m)
    assert cm.to_matrix() == m
    assert cm.compose(ColMap.identity(Q, 2)) == cm
    sq = cm.compose(cm).to_matrix()
    assert sq == m * m


def test_echelon_set_membership():
    ech = EchelonSet(Q, 3)
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


@fields
@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4),
    nvec=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_echelon_set_bulk_build_and_contains(field, dim, nvec, data):
    vecs = draw_vectors(field, nvec, dim, data)
    one_by_one = EchelonSet(field, dim)
    for v in vecs:
        one_by_one.add(v)
    bulk = EchelonSet(field, dim, vecs)
    assert (bulk.rows, bulk.pivots) == (one_by_one.rows, one_by_one.pivots)
    probes = draw_vectors(field, 2, dim, data)
    probes.append(combine(field, probes[0], vecs, dim))
    basis_cols = Matrix.from_cols(field, vecs, dim)
    for v in probes:
        assert bulk.contains(v) == (solve(basis_cols, v) is not None)


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
    dense = [cm.to_matrix().column(j) for j in range(cols)]
    assert [densify(col, rows, Q.zero) for col in cm.cols] == dense
    from_cols = EchelonSet(Q, rows, cm.dense_cols())
    from_dense = EchelonSet(Q, rows, dense)
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
    span = EchelonSet(field, dim, span_vecs)
    pre = span.preimage(images)
    # reference: kernel of [images | span], cut to the image coordinates
    ref = [v[:nimg] for v in kernel_basis(Matrix.from_cols(field, images + span_vecs, dim))]
    pre_span = EchelonSet(field, nimg, pre)
    assert pre_span.dim == len(pre)
    assert pre_span.dim == EchelonSet(field, nimg, ref).dim
    assert all(pre_span.contains(v) for v in ref)
    for v in pre:
        assert span.contains(combine(field, v, images, dim))
