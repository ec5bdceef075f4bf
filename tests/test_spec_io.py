import json

import pytest

from orehom.algebra import AlgebraError, BimoduleData, regular_bimodule
from orehom.bar import BarComplex
from orehom.complexes import ComplexError, homology, homology_dims
from orehom.linalg import Matrix
from orehom.small_complex import build_cs
from orehom.spec_io import build_example, encode_kvec, parse_spec

from conftest import get_context


def _matrix_json(field, m):
    return [encode_kvec(field, m.row(i)) for i in range(m.rows)]


def test_explicit_bimodule_matrices_round_trip():
    ctx = get_context("sweedler")
    mono = ctx.mono
    M = regular_bimodule(mono)
    doc = build_example("sweedler")
    field = mono.field
    doc["bimodule"] = {
        "type": "matrices",
        "dim": M.dim,
        "left_k": [_matrix_json(field, m) for m in M.left_k],
        "left_x": _matrix_json(field, M.left_x),
        "right_k": [_matrix_json(field, m) for m in M.right_k],
        "right_x": _matrix_json(field, M.right_x),
    }
    json.dumps(doc)
    parsed = parse_spec(doc)
    dims = homology_dims(build_cs(parsed.mono, parsed.bimodule, 6), 4)
    assert dims == homology_dims(ctx.cs(6), 4)


def test_bimodule_validation_rejects_broken_action():
    ctx = get_context("sweedler")
    mono = ctx.mono
    M = regular_bimodule(mono)
    # doubling the action of g breaks L(g)L(g) = L(g^2) = id
    bad_left_k = [M.left_k[0], M.left_k[1].scale(mono.field.from_int(2))]
    with pytest.raises(AlgebraError):
        BimoduleData(mono, M.dim, bad_left_k, M.left_x, M.right_k, M.right_x)


def test_structure_constants_document():
    # Q x Q with componentwise product, alpha swaps...  alpha must fix the
    # unit and be multiplicative, so use the swap of the two idempotents
    doc = {
        "name": "split-quadratic",
        "field": {"kind": "rationals"},
        "base_algebra": {
            "type": "structure_constants",
            "labels": ["p", "q"],
            "constants": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
            "unit": ["1", "1"],
        },
        "endomorphism": {"type": "matrix", "matrix": [["0", "1"], ["1", "0"]]},
        "extension": {"n": 2, "lambdas": [["0", "0"], ["0", "0"]]},
    }
    parsed = parse_spec(doc)
    assert parsed.mono.base.dim == 2
    # [p, p]_alpha = p*alpha(p) - p*p = pq - p = -p: the twisted commutators
    # fill K, so the collapse holds
    assert parsed.summary["collapse"]["holds"] is True
    dims = homology_dims(build_cs(parsed.mono, parsed.bimodule, 5), 3)
    bar_dims = homology_dims(BarComplex(parsed.mono, parsed.bimodule, 5).chain_complex(), 3)
    assert dims == bar_dims


def test_homology_degree_out_of_range():
    cs = get_context("sweedler").cs(3)
    with pytest.raises(ComplexError, match="out of range"):
        homology(cs, cs.max_degree + 1)
    with pytest.raises(ComplexError):
        homology(cs, -1)


def test_parse_rejects_wrong_vector_length():
    doc = build_example("sweedler")
    doc["extension"]["lambdas"] = [["0"], ["0"]]
    with pytest.raises(AlgebraError, match="length"):
        parse_spec(doc)
