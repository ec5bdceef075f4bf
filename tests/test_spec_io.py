import json

import pytest

from orehom.algebra import AlgebraError, BimoduleData, regular_bimodule
from orehom.bar import BarComplex
from orehom.complexes import ComplexError, homology, homology_dims
from orehom.small_complex import build_cs
from orehom.spec_io import build_example, encode_kvec, parse_spec

from conftest import get_context


def _matrix_json(field, m):
    """The rows of a ColMap, as a spec document writes them."""
    return [encode_kvec(field, [col.get(i, field.zero) for col in m.cols]) for i in range(m.nrows)]


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


def _regular_action_rows(mono):
    """The regular actions of A on itself as dense row lists, read off the
    multiplication table: {"left_k": [..], "left_x": .., "right_k": [..], "right_x": ..}."""
    field, dim, table = mono.field, mono.dim, mono.mul_table()

    def rows(columns):
        out = [[field.zero] * dim for _ in range(dim)]
        for j, col in enumerate(columns):
            for i, e in col.items():
                out[i][j] = e
        return out

    x = mono.x_items()
    return {
        "left_k": [rows(table[t][j] for j in range(dim)) for t in range(mono.base.dim)],
        "left_x": rows(mono.multiply(x, [(j, field.one)]) for j in range(dim)),
        "right_k": [rows(table[j][t] for j in range(dim)) for t in range(mono.base.dim)],
        "right_x": rows(mono.multiply([(j, field.one)], x) for j in range(dim)),
    }


def _doubled(rows):
    return [[2 * e for e in row] for row in rows]


def _identity_rows(field, dim):
    return [[field.one if i == j else field.zero for j in range(dim)] for i in range(dim)]


def _break_unit(acts, doc, field):
    acts["left_k"][0] = _doubled(acts["left_k"][0])  # L(e) = 2 id


def _break_left_k(acts, doc, field):
    acts["left_k"][1] = _doubled(acts["left_k"][1])  # L(g) L(g) = 4 id != L(e)


def _break_right_k(acts, doc, field):
    acts["right_k"][1] = _doubled(acts["right_k"][1])


def _break_commuting(acts, doc, field):
    acts["right_x"] = acts["left_x"]  # L(g) L(x) = L(gx) != L(xg) = -L(gx)


def _break_left_ore(acts, doc, field):
    acts["left_x"] = _identity_rows(field, len(acts["left_x"]))  # 1 * g != alpha(g) * 1 = -g


def _break_right_ore(acts, doc, field):
    acts["right_x"] = _identity_rows(field, len(acts["right_x"]))


def _break_f(acts, doc, field):
    # the actions of sweedler (x^2 = 0) against f = x^2 + 1, whose coefficient
    # 1 is fixed by alpha and central, so only the annihilation of f fails
    doc["extension"]["lambdas"][1] = ["1", "0"]


def _break_endomorphism_unit(acts, doc, field):
    doc["endomorphism"] = {"type": "matrix", "matrix": [["0", "1"], ["1", "0"]]}  # e <-> g


BROKEN_AXIOMS = [
    (_break_unit, "bimodule actions are not unital"),
    (_break_left_k, "left K-action is not multiplicative"),
    (_break_right_k, "right K-action is not anti-multiplicative"),
    (_break_commuting, "left and right actions do not commute"),
    (_break_left_ore, "left action violates x*lam = alpha(lam)*x"),
    (_break_right_ore, "right action violates x*lam = alpha(lam)*x"),
    (_break_f, "actions do not annihilate the defining polynomial f"),
    (_break_endomorphism_unit, "endomorphism does not fix the unit"),
]


@pytest.mark.parametrize("breaker, message", BROKEN_AXIOMS,
                         ids=[breaker.__name__[len("_break_"):] for breaker, _ in BROKEN_AXIOMS])
def test_bimodule_and_endomorphism_checks_name_the_broken_axiom(breaker, message):
    # one axiom broken at a time on the regular bimodule of sweedler, given
    # as an explicit matrices document
    mono = get_context("sweedler").mono
    field = mono.field
    acts = _regular_action_rows(mono)
    doc = build_example("sweedler")
    breaker(acts, doc, field)
    doc["bimodule"] = {
        "type": "matrices",
        "dim": mono.dim,
        "left_k": [[encode_kvec(field, r) for r in m] for m in acts["left_k"]],
        "left_x": [encode_kvec(field, r) for r in acts["left_x"]],
        "right_k": [[encode_kvec(field, r) for r in m] for m in acts["right_k"]],
        "right_x": [encode_kvec(field, r) for r in acts["right_x"]],
    }
    with pytest.raises(AlgebraError) as exc:
        parse_spec(doc)
    assert str(exc.value) == message


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
