import copy
import functools
import importlib.util
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orehom import bar, cli
from orehom.algebra import BaseAlgebra, MonogenicData
from orehom.linalg import ColMap, EchelonSet, SubquotientSpace, add_terms
from orehom.cli import main
from orehom.spec_io import EXAMPLE_NAMES, build_example, decode_scalar, encode_scalar, parse_spec
from orehom.fields import make_field

from conftest import encode_kvec, kept_keys, rank_one_doc, right_mult_map
from test_spec_io import _break_left_k, _regular_action_rows, matrices_document


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_example_round_trip_all_names(capsys, tmp_path):
    for name in EXAMPLE_NAMES:
        path = tmp_path / f"{name.replace(':', '_')}.json"
        code, _ = run(capsys, "example", name, "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        parsed = parse_spec(doc)
        assert parsed.mono.n >= 2


def test_example_unknown_name(capsys):
    code = main(["example", "nosuch:99"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind, reason", [
    ("directory", "Is a directory"),
    ("missing-parent", "No such file or directory"),
])
def test_example_unwritable_out_path_rejected(capsys, tmp_path, kind, reason):
    out = tmp_path if kind == "directory" else tmp_path / "absent" / "spec.json"
    code = main(["example", "taft:3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: cannot write {out}: {reason}"]


def test_example_sweedler_equals_taft2(capsys):
    sw = build_example("sweedler")
    t2 = build_example("taft:2")
    sw.pop("name")
    t2.pop("name")
    assert sw == t2


def test_hh_oracle_flag(capsys):
    code, rep = run_json(capsys, "hh", "--spec", "sweedler", "--max-degree", "6", "--oracle")
    assert code == 0
    assert rep["modes"]["generic"] == [2, 1, 1, 1, 1, 1]
    assert rep["modes"]["oracle"] == [2, 1, 1, 1, 1, 1]
    assert all(c["agrees"] for c in rep["comparisons"])


def test_hh_closed_form_trunc(capsys):
    code, rep = run_json(capsys, "hh", "--spec", "trunc:3", "--max-degree", "6", "--closed-form")
    assert code == 0
    assert rep["modes"]["generic"] == [3, 2, 2, 2, 2, 2]
    assert rep["modes"]["closed_form_alpha_identity"] == rep["modes"]["generic"]


def test_hh_dihedral_reports_collapse_status(capsys):
    code, rep = run_json(capsys, "hh", "--spec", "dihedral:3", "--max-degree", "4")
    assert code == 0
    assert rep["hypotheses"]["collapse"]["holds"] is False
    assert rep["modes"]["generic"] == [4, 2, 2, 2]
    assert rep["audit"]["agrees"] is False
    assert rep["audit"]["displayed_table"] == [3, 1, 1, 1]


def test_hh_decompose_refused_without_collapse(capsys):
    code, rep = run_json(capsys, "hh", "--spec", "trunc:3", "--max-degree", "4", "--decompose")
    assert code == 0
    assert any("collapse" in r for r in rep["refusals"])


def test_hh_basis_flag(capsys):
    code, rep = run_json(capsys, "hh", "--spec", "sweedler", "--max-degree", "3", "--basis")
    assert code == 0
    assert len(rep["representatives"]) == 3
    assert len(rep["representatives"][0]) == 2


def _spec_with_regular_copies(tmp_path, copies, name="sweedler"):
    """A spec file of the example ``name`` whose M is the direct sum of
    ``copies`` copies of A with its regular actions, written out as explicit
    matrices."""
    mono = parse_spec(build_example(name)).mono
    field, dim = mono.field, mono.dim
    acts = _regular_action_rows(mono)

    def block_diagonal(rows):
        return [[field.zero] * (dim * b) + list(row) + [field.zero] * (dim * (copies - b - 1))
                for b in range(copies) for row in rows]

    def encoded(rows):
        return [encode_kvec(field, row) for row in block_diagonal(rows)]

    doc = build_example(name)
    doc["bimodule"] = {
        "type": "matrices",
        "dim": copies * dim,
        "left_k": [encoded(m) for m in acts["left_k"]],
        "left_x": encoded(acts["left_x"]),
        "right_k": [encoded(m) for m in acts["right_k"]],
        "right_x": encoded(acts["right_x"]),
    }
    path = tmp_path / f"{name.replace(':', '_')}_{copies}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_hh_basis_labels_the_coordinates_of_m(capsys, tmp_path):
    _, regular = run_json(capsys, "hh", "--spec", "sweedler", "--max-degree", "3", "--basis")
    # A written out as explicit matrices is still the regular bimodule: its
    # representatives read as elements of A
    code, same = run_json(capsys, "hh", "--spec", _spec_with_regular_copies(tmp_path, 1),
                          "--max-degree", "3", "--basis")
    assert code == 0
    assert same["representatives"] == regular["representatives"]
    # M = A + A has twice the coordinates of A, labelled m_0 .. m_7
    code, double = run_json(capsys, "hh", "--spec", _spec_with_regular_copies(tmp_path, 2),
                            "--max-degree", "3", "--basis")
    assert code == 0
    assert double["modes"]["generic"] == [2 * h for h in regular["modes"]["generic"]]
    assert [len(reps) for reps in double["representatives"]] == double["modes"]["generic"]
    labels = {f"m_{i}" for i in range(8)}
    assert all({term.rsplit("*", 1)[1] for term in rep.split(" + ")} <= labels
               for reps in double["representatives"] for rep in reps)
    assert any(double["representatives"])


def test_hc_basis_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hc", "--spec", "sweedler", "--basis"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --basis" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, md, dims",
    [("taft:4", 6, [4, 3, 3, 3, 3, 3]), ("trunc:5", 5, [5, 4, 4, 4, 4]), ("taft:5", 5, [5, 4, 4, 4, 4])],
)
def test_hh_oracle_beyond_the_shipped_sizes(capsys, spec, md, dims):
    code, rep = run_json(capsys, "hh", "--spec", spec, "--max-degree", str(md), "--oracle")
    assert code == 0
    assert rep["modes"] == {"generic": dims, "oracle": dims}
    assert [c["agrees"] for c in rep["comparisons"]] == [True]


def test_hc_oracle_and_closed_form(capsys):
    code, rep = run_json(
        capsys, "hc", "--spec", "rank1:c4", "--max-degree", "5", "--oracle", "--closed-form"
    )
    assert code == 0
    assert rep["modes"]["generic"] == [3, 1, 3, 1, 3]
    assert rep["modes"]["oracle"] == [3, 1, 3, 1]
    assert "exponent_note" in rep
    assert "diverges at degrees [1]" in rep["exponent_note"]
    assert all(c["agrees"] for c in rep["comparisons"])


@pytest.mark.parametrize("spec, comparisons", [("rank1nc:c2xc4", (4, 2)), ("taft:3", (3, 1))])
def test_long_windows_agree_in_every_comparison(capsys, spec, comparisons):
    # C^S repeats with period 2v, so a long window adds degrees, not maps
    for argv, count in zip((["hh", "--closed-form", "--decompose", "--basis", "--max-degree", "48"],
                            ["hc", "--closed-form", "--max-degree", "24"]), comparisons):
        code, rep = run_json(capsys, argv[0], "--spec", spec, *argv[1:])
        assert code == 0 and "refusals" not in rep
        assert [c["agrees"] for c in rep["comparisons"]] == [True] * count
        assert len(rep["modes"]["generic"]) == int(argv[-1])
    assert len(rep["modes"]["closed_form_proof_reading"]) == 24


def test_hc_taft3(capsys):
    code, rep = run_json(capsys, "hc", "--spec", "taft:3", "--max-degree", "3")
    assert code == 0
    assert rep["modes"]["generic"] == [3, 2, 3]


def test_hc_decompose(capsys):
    code, rep = run_json(capsys, "hc", "--spec", "sweedler", "--max-degree", "4", "--decompose")
    assert code == 0
    assert any(c["against"] == "component sum" and c["agrees"] for c in rep["comparisons"])


def test_verify_passes_on_fixtures(capsys):
    for name in ("sweedler", "trunc:3"):
        code, rep = run_json(capsys, "verify", "--spec", name, "--max-degree", "4")
        assert code == 0
        assert rep["all_passed"] is True
        names = [c["check"] for c in rep["checks"]]
        assert "psi'phi' = id" in names
        assert "psi (Bw)^j B phi = 0" in names


def test_verify_beyond_the_shipped_sizes(capsys):
    code, rep = run_json(capsys, "verify", "--spec", "taft:4", "--max-degree", "6")
    assert code == 0
    assert rep["all_passed"] is True
    window = {c["check"]: c["window"] for c in rep["checks"]}["psi (Bw)^j B phi = 0"]
    assert window == "j in {1,2}, r <= 3"


def test_validation_error_exit_code(capsys, tmp_path):
    doc = build_example("sweedler")
    doc["extension"]["n"] = 1
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = main(["hh", "--spec", str(p)])
    assert code == 1
    assert "n >= 2" in capsys.readouterr().err


def test_negative_max_degree_rejected(capsys):
    code = main(["hh", "--spec", "sweedler", "--max-degree", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --max-degree must be >= 0, got -1"]


def test_non_integer_example_parameter_rejected(capsys):
    code = main(["hh", "--spec", "taft:x"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == ["error: taft:n needs an integer n, got 'x'"]


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "error: spec must be a JSON object, got list"),
    ({"name": "x"}, "error: spec has no 'field'"),
    ({"field": {"kind": "rationals"}}, "error: spec has neither 'base_algebra' nor 'rank_one'"),
    ({"field": {"kind": "rationals"}, "base_algebra": {}}, "error: spec.base_algebra has no 'type'"),
    ({"field": {"kind": "reals"}, "base_algebra": {}}, "error: spec.field: unknown field kind 'reals'"),
    (dict(build_example("sweedler"), field={"kind": ["cyclotomic"]}),
     "error: spec.field: unknown field kind ['cyclotomic']"),
    (dict(build_example("sweedler"), field={"kind": "cyclotomic", "order": 0}),
     "error: spec.field: cyclotomic order must be >= 1"),
    (dict(build_example("sweedler"), field={"kind": "cyclotomic", "order": "x"}),
     "error: spec.field.order must be an integer, got 'x'"),
    (dict(build_example("sweedler"), extension={"n": "two", "lambdas": []}),
     "error: spec.extension.n must be an integer, got 'two'"),
    (dict(build_example("sweedler"), bimodule={"type": "matrices"}),
     "error: spec.bimodule has no 'dim'"),
    (dict(build_example("sweedler"), extension={"n": 2, "lambdas": [["a", "0"], ["0", "0"]]}),
     "error: spec.extension.lambdas[0][0]: cannot decode scalar 'a'"),
    (dict(build_example("sweedler"), extension={"n": 2, "lambdas": [["0", "0"], ["0"]]}),
     "error: spec.extension.lambdas[1]: coefficient vector of length 1, expected 2"),
    ({"field": {"kind": "rationals"},
      "base_algebra": {"type": "structure_constants", "labels": ["1", "e"],
                       "constants": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]], "unit": ["1"]}},
     "error: spec.base_algebra.unit: coefficient vector of length 1, expected 2"),
    # a Latin square whose every element squares to itself but none is an identity
    ({"field": {"kind": "rationals"},
      "base_algebra": {"type": "group", "labels": ["a", "b", "c"],
                       "table": [["a", "c", "b"], ["c", "b", "a"], ["b", "a", "c"]]}},
     "error: spec.base_algebra: table has no two-sided identity element"),
    (dict(build_example("sweedler"), extension={"n": 1, "lambdas": [["0", "0"]]}),
     "error: spec.extension: extension degree must satisfy n >= 2, got 1"),
    (dict(build_example("sweedler"), endomorphism={"type": "character", "values": {"e": "1", "g": "2"}}),
     "error: spec.endomorphism.values: character is not multiplicative on pair ('g', 'g')"),
    # a rank-one degree below 2 is refused for the degree, before g1 is read
    *[(dict(build_example("rank1:c4"), rank_one=dict(build_example("rank1:c4")["rank_one"], n=n)),
       f"error: spec.rank_one: extension degree must satisfy n >= 2, got {n}") for n in (1, 0, -1)],
], ids=["list", "no-field", "no-algebra", "no-algebra-type", "unknown-field-kind",
        "unhashable-field-kind", "order-zero", "non-integer-order", "non-integer-n", "bimodule-without-dim", "non-scalar-lambda",
        "short-lambda", "short-unit", "group-without-identity", "degree-one", "non-multiplicative-character",
        "rank-one-degree-one", "rank-one-degree-zero", "rank-one-degree-minus-one"])
def test_malformed_spec_document_rejected(capsys, tmp_path, doc, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = main(["hh", "--spec", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [message]


def test_a_broken_bimodule_axiom_is_one_error_line_naming_its_path(capsys, tmp_path):
    # explicit actions that break an axiom end the command with exit 1 and
    # one line naming the spec path, as any other malformed input
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(matrices_document(_break_left_k)))
    code = main(["hh", "--spec", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: spec.bimodule: left K-action is not multiplicative"]


@pytest.mark.parametrize("kind, reason", [
    ("directory", "Is a directory"),
    ("missing", "No such file or directory"),
    ("non-utf8", "not UTF-8 text (invalid start byte at byte 0)"),
    ("unreadable", "Permission denied"),
    ("not-json", "not JSON (Expecting value: line 1 column 7 (char 6))"),
])
def test_unreadable_spec_path_rejected(capsys, monkeypatch, tmp_path, kind, reason):
    p = tmp_path / "spec.json"
    if kind == "directory":
        p.mkdir()
    elif kind == "non-utf8":
        p.write_bytes(b"\xff\xfe")
    elif kind == "not-json":
        p.write_text('{"a": ')
    elif kind == "unreadable":
        # file modes do not bind a superuser, so the denial is simulated
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)
        p.write_text("{}")
        monkeypatch.setattr(cli, "open", denied, raising=False)
    code = main(["hh", "--spec", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: cannot read spec {p}: {reason}"]


def _nodes(obj, path=()):
    """Every (path, value) of a JSON document, the root included."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


_OTHER_TYPES = (None, True, 0, -1, 2.5, "x", [], {}, ["x"], {"x": "1"})


@st.composite
def mutated_documents(draw):
    """A shipped example with one node mutated: a key dropped, a value
    replaced by one of another type, or a list truncated."""
    doc = build_example(draw(st.sampled_from(EXAMPLE_NAMES)))
    path, value = draw(st.sampled_from(list(_nodes(doc))))
    ops = ["swap"]
    if isinstance(value, dict) and value:
        ops.append("drop")
    if isinstance(value, list) and value:
        ops.append("truncate")
    op = draw(st.sampled_from(ops))
    if op == "drop":
        gone = draw(st.sampled_from(sorted(value)))
        new = {k: v for k, v in value.items() if k != gone}
    elif op == "truncate":
        new = value[:draw(st.integers(0, len(value) - 1))]
    else:
        new = copy.deepcopy(draw(st.sampled_from([v for v in _OTHER_TYPES if type(v) is not type(value)])))
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_documents())
def test_mutated_spec_exits_without_traceback(capsys, tmp_path, doc):
    p = tmp_path / "mutated.json"
    p.write_text(json.dumps(doc))
    code = main(["hh", "--spec", str(p), "--max-degree", "2"])
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert code == 0 or err.startswith("error: ")


def test_reports_deterministic(capsys):
    _, out1 = run(capsys, "hh", "--spec", "sweedler", "--max-degree", "4", "--json")
    _, out2 = run(capsys, "hh", "--spec", "sweedler", "--max-degree", "4", "--json")
    assert out1 == out2


def test_human_rendering_contains_dims(capsys):
    code, out = run(capsys, "hh", "--spec", "sweedler", "--max-degree", "4")
    assert code == 0
    assert "generic: (2, 1, 1, 1)" in out


def test_rank_one_rewrite_logged(capsys):
    code, rep = run_json(capsys, "hh", "--spec", "rank1nc:c2xc4", "--max-degree", "4")
    assert code == 0
    assert rep["hypotheses"]["rank_one_case"] == "xi!=0, chi^n!=id"
    assert "rewrite" in rep["hypotheses"]
    assert rep["hypotheses"]["rewrite"]["kernel_subgroup"] == ["e"]


def test_scalar_codec_round_trip():
    F = make_field("cyclotomic", 4)
    s = F.scalar(["1/2", "-3"])
    assert decode_scalar(F, encode_scalar(F, s)) == s
    Q = make_field("rationals")
    q = Q.from_fraction("7/3")
    assert decode_scalar(Q, encode_scalar(Q, q)) == q


def test_quotient_rewrite_nontrivial_kernel():
    # a genuinely nontrivial quotient: C4 x C4 with chi(a) = i, chi(b) = -1,
    # g1 = b of order 4, so <g1^2> has two elements
    F = make_field("cyclotomic", 4)
    z = F.root()
    elems = [(j, l) for l in range(4) for j in range(4)]

    def lab(j, l):
        a = "" if j == 0 else f"a{j}"
        b = "" if l == 0 else f"b{l}"
        return (a + b) or "e"

    labels = [lab(j, l) for (j, l) in elems]
    index = {v: i for i, v in enumerate(elems)}
    table = [
        [labels[index[((j1 + j2) % 4, (l1 + l2) % 4)]] for (j2, l2) in elems]
        for (j1, l1) in elems
    ]
    chi = {lab(j, l): encode_scalar(F, (z ** j) * ((-F.one) ** l)) for (j, l) in elems}
    doc = {
        "name": "rank1nc:c4xc4",
        "field": {"kind": "cyclotomic", "order": 4},
        "rank_one": {"labels": labels, "table": table, "character": chi,
                      "g1": "b1", "n": 2, "xi": "1"},
    }
    parsed = parse_spec(doc)
    assert parsed.summary["rank_one_case"] == "xi!=0, chi^n!=id"
    assert sorted(parsed.summary["rewrite"]["kernel_subgroup"]) == ["b2", "e"]
    assert parsed.mono.base.dim == 8  # 16 / 2


def test_hc_dihedral_audit(capsys):
    code, rep = run_json(capsys, "hc", "--spec", "dihedral:4", "--max-degree", "4")
    assert code == 0
    assert rep["audit"]["displayed_table"] == [5, 2, 5, 2]
    assert rep["audit"]["computed"] == [6, 2, 6, 2]
    assert rep["audit"]["agrees"] is False


def test_hh_dihedral4_audit_even_reflection_count(capsys):
    code, rep = run_json(capsys, "hh", "--spec", "dihedral:4", "--max-degree", "4")
    assert code == 0
    assert rep["audit"]["displayed_table"] == [5, 2, 2, 2]


@pytest.mark.parametrize("command", ["hh", "hc"])
@pytest.mark.parametrize("example, audited", [
    ("trunc:4", False), ("taft:3", False), ("sweedler", False), ("rank1nc:c2xc4", False), ("dihedral:3", True),
])
def test_audit_is_chosen_by_the_structure_not_the_name(capsys, tmp_path, command, example, audited):
    # the audit reads the dihedral group and its sign character: another
    # algebra under a dihedral-looking name gets none, and a renamed dihedral
    # example gets the audit of the example
    doc = build_example(example)
    doc["name"] = "reflections" if audited else "dihedral:lookalike"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, command, "--spec", str(path), "--max-degree", "3")
    assert code == 0
    if audited:
        assert rep["audit"] == run_json(capsys, command, "--spec", example, "--max-degree", "3")[1]["audit"]
    else:
        assert "audit" not in rep


@pytest.mark.parametrize("extension", [
    {"n": 3, "lambdas": [["0"] * 6] * 3},  # f = x^3
    {"n": 2, "lambdas": [["0"] * 6, ["1"] + ["0"] * 5]},  # f = x^2 + e
])
def test_dihedral_group_with_another_polynomial_gets_no_audit(capsys, tmp_path, extension):
    # the displayed table is that of f = x^2: K and alpha of dihedral:3 with
    # another f keep their name and get no audit
    doc = dict(build_example("dihedral:3"), extension=extension)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "hh", "--spec", str(path), "--max-degree", "4", "--oracle")
    assert code == 0
    assert "audit" not in rep and [c["agrees"] for c in rep["comparisons"]] == [True]


def _count_quotient_builds(monkeypatch):
    """Record (owner, class) for every build of ``k_quotient`` and every call
    of ``twisted_commutator_subspace``: {"k_quotient": [..], "twisted": [..]}."""
    from orehom import algebra, bar

    seen = {"k_quotient": [], "twisted": []}
    original_kept, original_twisted = algebra.kept, algebra.twisted_commutator_subspace

    def counted_kept(owner, key, build):
        if isinstance(key, tuple) and key[0] is algebra.k_quotient:
            def counted_build():
                seen["k_quotient"].append((id(owner), key[1]))
                return build()

            return original_kept(owner, key, counted_build)
        return original_kept(owner, key, build)

    def counted_twisted(M, j):
        seen["twisted"].append((id(M), j))
        return original_twisted(M, j)

    monkeypatch.setattr(algebra, "kept", counted_kept)
    for module in (algebra, bar):
        monkeypatch.setattr(module, "twisted_commutator_subspace", counted_twisted)
    return seen


def test_verify_computes_each_twist_quotient_once(capsys, monkeypatch):
    seen = _count_quotient_builds(monkeypatch)
    code, _ = run(capsys, "verify", "--spec", "taft:3", "--max-degree", "6")
    assert code == 0
    # C^S and the bar levels up to 8 of taft:3 use the twists 0..16, which
    # fall into the 3 classes of alpha^j (alpha has order 3); M = A builds
    # each A/[A,K]_{alpha^j} from the kept K/[K,K]_{alpha^(j+p)}
    assert len(seen["k_quotient"]) == len(set(seen["k_quotient"])) == 3
    assert seen["twisted"] == []


@pytest.mark.parametrize("name", ["taft:3", "rank1nc:c2xc4"])
def test_hc_closed_forms_eliminate_each_component_quotient_once(capsys, monkeypatch, name):
    # the eigencomponent closed forms read the same cokernel and colon
    # quotients at many degrees: each distinct key (class of alpha^j,
    # component, kvec and class of alpha^j_den) is read off its kept
    # component quotient by one ``colon_dim``
    from orehom import small_complex
    from orehom.linalg import SubquotientSpace

    kept_fns = (small_complex.component_cokernel_dim, small_complex.component_colon_dim)
    lookups, eliminations = [], []
    original_kept = small_complex.kept
    original_colon_dim = SubquotientSpace.colon_dim

    def counted_kept(owner, key, build):
        if key[0] in kept_fns:
            lookups.append((id(owner), key))
        return original_kept(owner, key, build)

    def counted_colon_dim(space, *args):
        eliminations.append(id(space))
        return original_colon_dim(space, *args)

    monkeypatch.setattr(small_complex, "kept", counted_kept)
    monkeypatch.setattr(SubquotientSpace, "colon_dim", counted_colon_dim)
    code, _ = run(capsys, "hc", "--spec", name, "--max-degree", "12", "--closed-form", "--decompose")
    assert code == 0
    assert len(lookups) > len(set(lookups)) == len(eliminations) > 0


def test_verify_eliminates_an_explicit_bimodule_once_per_class(capsys, monkeypatch, tmp_path):
    spec = _spec_with_regular_copies(tmp_path, 1, "taft:3")
    seen = _count_quotient_builds(monkeypatch)
    code, _ = run(capsys, "verify", "--spec", spec, "--max-degree", "6")
    assert code == 0
    # M given by its own matrices is eliminated whole, once per class
    assert len(seen["twisted"]) == len(set(seen["twisted"])) == 3


@pytest.mark.parametrize("name", ["sweedler", "taft:3"])
def test_explicit_copy_of_a_gives_the_dimensions_of_a(capsys, tmp_path, name):
    # the quotients of M = A built from the K quotients and the quotients of
    # the same M eliminated whole give one set of dimensions
    spec = _spec_with_regular_copies(tmp_path, 1, name)
    for command in (("hh", "--oracle"), ("hc", "--oracle")):
        _, regular = run_json(capsys, *command, "--spec", name, "--max-degree", "4")
        code, explicit = run_json(capsys, *command, "--spec", spec, "--max-degree", "4")
        assert code == 0
        assert explicit["modes"] == regular["modes"]
        assert [c["agrees"] for c in explicit["comparisons"]] == [True] * len(explicit["comparisons"])


def test_verify_divides_by_f_at_most_once_per_table_entry(capsys, monkeypatch):
    from orehom import algebra

    mono = parse_spec(build_example("taft:3")).mono
    calls = []
    original = algebra.divide_by_f

    def counted(mono, e):
        calls.append(e)
        return original(mono, e)

    for name, module in list(sys.modules.items()):
        if name.startswith("orehom") and hasattr(module, "divide_by_f"):
            monkeypatch.setattr(module, "divide_by_f", counted)
    code, _ = run(capsys, "verify", "--spec", "taft:3", "--max-degree", "6")
    assert code == 0
    # each power of x is divided once, from the division of the power before
    # it; products in A read the table, whose entries need x^e for e < 2n - 1
    assert len(calls) == len(set(calls)) <= mono.dim ** 2 + 2 * mono.n


@pytest.mark.parametrize("argv", [["hh", "--closed-form", "--decompose"], ["hc", "--closed-form", "--decompose"]])
@pytest.mark.parametrize("name", ["rank1nc:c2xc4", "taft:3"])
def test_closed_forms_reuse_the_collapse_report_of_parse_spec(capsys, monkeypatch, name, argv):
    from orehom import algebra

    calls = []
    original = algebra.check_collapse

    def counted(mono, max_j):
        calls.append(max_j)
        return original(mono, max_j)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("orehom") and hasattr(module, "check_collapse"):
            monkeypatch.setattr(module, "check_collapse", counted)
    code, rep = run_json(capsys, *argv, "--spec", name, "--max-degree", "12")
    assert code == 0
    assert rep["comparisons"] and all(c["agrees"] for c in rep["comparisons"])
    assert len(calls) == 1


def _count_table_builds(monkeypatch):
    """A list that gets the algebra of each build of A's product table."""
    from orehom import algebra

    builds = []
    original = algebra.MonogenicData.mul_table

    @functools.wraps(original)
    def counted(mono):
        if not kept_keys(mono, original):
            builds.append(mono)
        return original(mono)

    monkeypatch.setattr(algebra.MonogenicData, "mul_table", counted)
    return builds


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_hh_and_hc_build_no_product_table(capsys, monkeypatch, name):
    # the regular bimodule and the spec checks cost the structure constants;
    # only the bar resolution of ``verify`` reads the dim(A)^2 table
    builds = _count_table_builds(monkeypatch)
    for argv in (["hh", "--closed-form", "--decompose", "--basis"], ["hc", "--closed-form", "--decompose"],
                 ["hh", "--oracle", "--max-degree", "4"], ["hc", "--oracle", "--max-degree", "4"]):
        code, _ = run(capsys, *argv, "--spec", name)
        assert code == 0, argv
        assert builds == [], argv


def test_parse_spec_of_a_large_rank_one_document_builds_no_table(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    mono = parse_spec(rank_one_doc(12, 1, 1, 12, 1)).mono
    assert mono.dim == 144
    assert builds == [] and not kept_keys(mono, type(mono).mul_table)


def _sweedler_with_k_coefficients(tmp_path, copies):
    """A spec file of sweedler whose M is K, or K + K (which has the dimension
    of A), with x acting as 0."""
    doc = build_example("sweedler")
    K = parse_spec(doc).mono.base
    F = K.field
    dim = copies * K.dim

    def blocks(m):
        rows = [[encode_scalar(F, F.zero)] * dim for _ in range(dim)]
        for c in range(copies):
            for j, col in enumerate(m.cols):
                for i, e in col.items():
                    rows[c * K.dim + i][c * K.dim + j] = encode_scalar(F, e)
        return rows

    zero = [["0"] * dim for _ in range(dim)]
    doc["bimodule"] = {
        "type": "matrices",
        "dim": dim,
        "left_k": [blocks(K.left_mult_map(K.basis_vector(t))) for t in range(K.dim)],
        "left_x": zero,
        "right_k": [blocks(right_mult_map(K, K.basis_vector(t))) for t in range(K.dim)],
        "right_x": zero,
    }
    p = tmp_path / "coefficients.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("copies", [1, 2], ids=["M=K", "M=K+K"])
def test_hc_oracle_reads_the_regular_bimodule(capsys, tmp_path, copies):
    # cyclic homology is that of A: with coefficients M = K or K + K (x acting
    # as 0; K + K has the dimension of A) in the spec, C^S and the oracle
    # still both read M = A, and the report says so
    code, rep = run_json(capsys, "hc", "--spec", _sweedler_with_k_coefficients(tmp_path, copies),
                         "--max-degree", "5", "--oracle")
    assert code == 0
    assert [c["agrees"] for c in rep["comparisons"]] == [True]
    assert rep["bimodule_note"] == "M is not the regular bimodule: HC is computed for A, with M = A"
    _, regular = run_json(capsys, "hc", "--spec", "sweedler", "--max-degree", "5", "--oracle")
    assert rep["modes"] == regular["modes"]
    assert "bimodule_note" not in regular


def test_hh_closed_forms_and_components_refuse_a_non_regular_bimodule(capsys, tmp_path):
    # the closed forms and eigencomponents of hh are those of M = A: on M = K
    # they are refused, and the oracle still agrees with C^S
    code, rep = run_json(capsys, "hh", "--spec", _sweedler_with_k_coefficients(tmp_path, 1), "--max-degree", "5",
                         "--closed-form", "--decompose", "--oracle")
    assert code == 0
    assert rep["refusals"] == ["--decompose needs the hypothesis M is the regular bimodule",
                               "--closed-form needs the hypothesis M is the regular bimodule"]
    assert rep["modes"] == {"generic": [2, 0, 2, 0, 2], "oracle": [2, 0, 2, 0, 2]}
    assert rep["comparisons"] == [{"against": "normalized-complex oracle", "agrees": True}]


def test_perfbench_tracer_finds_every_target():
    # the benchmark's per-layer metrics read 0 for a target the tracer cannot find
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_every_benchmark_command_prints_its_recorded_report(capsys, monkeypatch):
    # each command of perfbench/run.py's workloads exits 0 and prints, byte
    # for byte, the report whose sha256 perfbench/expected_reports.json records
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports its neighbours
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_module)
    expected = json.loads((bench / "expected_reports.json").read_text(encoding="utf-8"))
    commands = {run_module.command_key(argv): argv for argvs in run_module.WORKLOADS.values() for argv in argvs}
    assert len(commands) == 49
    differing = []
    for key, argv in commands.items():
        code = main(argv + ["--json"])
        if code != 0 or run_module.report_digest(capsys.readouterr().out) != expected[key]:
            differing.append(key)
    assert differing == []


def _reversed_result(build):
    return lambda *args: dict(reversed(build(*args).items()))


@pytest.mark.parametrize("spec", ["taft:3", "rank1nc:c2xc4", "dihedral:3", "rank1:c4"])
def test_reports_do_not_depend_on_the_key_order_of_elements(capsys, monkeypatch, spec):
    # an element of K or A, a projection, an image and a lazy column carry
    # nothing in their key order: built in reverse order, and read by the
    # echelon basis in reverse order, every report is the same
    commands = [["hh", "--spec", spec, "--max-degree", "5", "--basis", "--oracle", "--closed-form", "--decompose"],
                ["hc", "--spec", spec, "--max-degree", "5", "--oracle", "--closed-form", "--decompose"],
                ["verify", "--spec", spec, "--max-degree", "5"]]
    plain = [run(capsys, *argv) for argv in commands]
    for owner, name in ((BaseAlgebra, "product"), (MonogenicData, "multiply"), (MonogenicData, "alpha_image"),
                        (SubquotientSpace, "project_terms"), (ColMap, "apply")):
        monkeypatch.setattr(owner, name, _reversed_result(getattr(owner, name)))
    add = EchelonSet.add
    monkeypatch.setattr(EchelonSet, "add", lambda self, vec: add(self, dict(reversed(vec.items()))))
    lazy = ColMap.lazy.__func__
    monkeypatch.setattr(ColMap, "lazy", classmethod(
        lambda cls, field, nrows, ncols, column: lazy(cls, field, nrows, ncols, _reversed_result(column))))
    assert [run(capsys, *argv) for argv in commands] == plain
    assert [code for code, _ in plain] == [0, 0, 0]


@pytest.mark.parametrize("argv, refusal", [
    (("hh", "--max-degree", "0", "--oracle"), "--oracle: the oracle window 0..-1 has no degree"),
    (("hc", "--max-degree", "0", "--oracle"), "--oracle: the oracle window 0..-2 has no degree"),
    (("hc", "--max-degree", "1", "--oracle"), "--oracle: the oracle window 0..-1 has no degree"),
])
def test_oracle_over_an_empty_window_is_refused(capsys, argv, refusal):
    # no degree to compare: a refusal, not an agreement over nothing
    code, rep = run_json(capsys, argv[0], "--spec", "taft:3", *argv[1:])
    assert code == 0
    assert rep["refusals"] == [refusal]
    assert "oracle" not in rep["modes"]
    assert not any("oracle" in c["against"] for c in rep["comparisons"])


@pytest.mark.parametrize("spec, argv, against", [
    ("rank1:c4", ("hh", "--closed-form"), {"closed form (collapse)", "closed form (eigencomponents)",
                                          "rank-one closed form (xi!=0, chi^n=id)"}),
    ("trunc:2", ("hh", "--closed-form"), {"closed form (alpha = id)"}),
    ("taft:3", ("hh", "--decompose"), {"component sum"}),
    ("rank1:c4", ("hc", "--closed-form"), {"closed form (cycle-condition reading)",
                                          "rank-one closed form (xi!=0, chi^n=id)"}),
    ("taft:3", ("hc", "--decompose"), {"component sum"}),
])
def test_comparisons_over_an_empty_window_are_refused(capsys, spec, argv, against):
    # degree 1 makes each comparison; degree 0 has nothing to compare, so it
    # is refused, not reported as an agreement over empty lists
    cmd, flag = argv
    _, rep = run_json(capsys, cmd, "--spec", spec, "--max-degree", "1", flag)
    assert {c["against"] for c in rep["comparisons"]} == against
    assert all(c["agrees"] for c in rep["comparisons"])
    code, rep = run_json(capsys, cmd, "--spec", spec, "--max-degree", "0", flag)
    assert code == 0
    assert rep["refusals"] == [f"{flag}: the window 0..-1 has no degree"]
    assert rep["comparisons"] == [] and rep["modes"] == {"generic": []}


@pytest.mark.parametrize("cmd", ["hh", "hc", "verify"])
def test_memory_error_is_one_error_line_and_exit_1(capsys, monkeypatch, cmd):
    # the first complex each command builds runs out of memory
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "hc" if cmd == "hc" else "build_cs", exhausted)
    code = main([cmd, "--spec", "taft:3", "--max-degree", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {cmd} taft:3: out of memory"]


def test_memory_cap_ends_in_one_error_line():
    # a real cap: taft:6 ``verify --max-degree 6`` peaks near 540 MB, and the
    # child caps its own address space at 256 MB before it starts
    cap = 256 * 2 ** 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-m", "orehom.cli", "verify", "--spec", "taft:6", "--max-degree", "6"],
                         env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr.splitlines() == ["error: verify taft:6: out of memory"]


@pytest.mark.parametrize("md, left_out", [
    (1, {"d.d = 0 on the small complex", "b.b = 0 on the normalized complex", "B.B = 0", "bB + Bb = 0",
         "b'w' + w'b' = phi'psi' - id", "bw + wb = phi psi - id", "deg(w'(a)) <= deg(a)",
         "DD = 0 and dD + Dd = 0 on C^S", "D = psi B phi"}),
    (2, {"b'w' + w'b' = phi'psi' - id"}),
])
def test_verify_leaves_out_checks_with_no_degree_to_test(capsys, md, left_out):
    code, rep = run_json(capsys, "verify", "--spec", "taft:3", "--max-degree", str(md))
    _, full = run_json(capsys, "verify", "--spec", "taft:3", "--max-degree", "3")
    assert code == 0 and rep["all_passed"] is True
    names = [c["check"] for c in rep["checks"]]
    assert names == [c["check"] for c in full["checks"] if c["check"] not in left_out]


def _corrupt_last_column(m, extra):
    """The map m with the term dict ``extra`` added to its last column."""
    def column(j):
        col = dict(m.cols[j])
        return add_terms(col, extra) if j == m.ncols - 1 else col
    return ColMap.lazy(m.field, m.nrows, m.ncols, column)


def _checks(rep):
    return {c["check"]: c["passed"] for c in rep["checks"]}


def test_verify_fails_on_a_corrupted_last_column_of_omega_prime(capsys, monkeypatch):
    # the checker reads every column: a wrong last column of omega'(2) fails
    # b'w' + w'b' = phi'psi' - id
    original = bar.BarResolution.omega
    corrupted = {}

    def omega(self, r):
        if r != 2:
            return original(self, r)
        if id(self) not in corrupted:
            corrupted[id(self)] = _corrupt_last_column(original(self, r), {0: 1})
        return corrupted[id(self)]

    monkeypatch.setattr(bar.BarResolution, "omega", omega)
    code, rep = run_json(capsys, "verify", "--spec", "taft:3", "--max-degree", "6")
    assert code == 2
    assert _checks(rep)["b'w' + w'b' = phi'psi' - id"] is False
    assert rep["all_passed"] is False


def test_verify_fails_on_a_corrupted_perturbed_inclusion(capsys, monkeypatch):
    # i1_1 with its column 0 added to its last column: p1 i1 = id fails there
    original = cli.perturb

    def perturb(retract, delta):
        pert = original(retract, delta)
        pert.incl[1] = _corrupt_last_column(pert.incl[1], pert.incl[1].cols[0])
        return pert

    monkeypatch.setattr(cli, "perturb", perturb)
    code, rep = run_json(capsys, "verify", "--spec", "taft:3", "--max-degree", "6")
    assert code == 2
    checks = _checks(rep)
    assert checks["perturbed retract identities"] is False
    assert checks["transfer retract identities"] is True


def test_verify_stops_on_a_perturbation_that_breaks_the_square(capsys, monkeypatch):
    # a delta with (d + delta)^2 != 0 is refused as the perturbed complex is
    # built: one identity-failure line naming the degree, and exit 2
    original = cli.build_cyclic_retract

    def build_cyclic_retract(cs, M, max_N):
        retract, delta = original(cs, M, max_N)
        bad = {}
        for r, m in delta.items():
            cols = [{} for _ in range(m.ncols)]
            if m.nrows and m.ncols:
                cols[0] = {0: m.field.one}
            bad[r] = ColMap(m.field, m.nrows, m.ncols, cols)
        return retract, bad

    monkeypatch.setattr(cli, "build_cyclic_retract", build_cyclic_retract)
    code = main(["verify", "--spec", "sweedler", "--max-degree", "6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["identity failure: d_1 . d_2 != 0"]


def _reports(monkeypatch):
    """The report dicts that ``main`` renders, in insertion order."""
    seen = []
    monkeypatch.setattr(cli, "_render", lambda report, as_json: seen.append(report) or "")
    return seen


def _every_flag(cmd, spec, md):
    flags = ["--closed-form", "--decompose", "--oracle"] + (["--basis"] if cmd == "hh" else [])
    return [cmd, "--spec", spec, "--max-degree", str(md), *flags]


def _shape(report):
    """The keys after ``comparisons``, the modes and the comparisons' subjects, in order."""
    keys = list(report)
    return (keys[keys.index("comparisons") + 1:], list(report["modes"]),
            [c["against"] for c in report["comparisons"]], report.get("refusals", []))


@pytest.mark.parametrize("spec", ["dihedral:3", "trunc:3", "rank1:c4"])
@pytest.mark.parametrize("cmd, refusals", [
    ("hh", ["--decompose: the window 0..-1 has no degree", "--closed-form: the window 0..-1 has no degree",
            "--oracle: the oracle window 0..-1 has no degree"]),
    ("hc", ["--closed-form: the window 0..-1 has no degree", "--decompose: the window 0..-1 has no degree",
            "--oracle: the oracle window 0..-2 has no degree"]),
])
def test_every_flag_over_the_empty_window_is_refused_in_order(capsys, monkeypatch, spec, cmd, refusals):
    reports = _reports(monkeypatch)
    assert main(_every_flag(cmd, spec, 0)) == 0
    audit = ["audit"] if spec == "dihedral:3" else []
    sections = (["representatives"] if cmd == "hh" else []) + ["refusals"] + audit
    assert _shape(reports[0]) == (sections, ["generic"], [], refusals)


NO_FORM = "--closed-form: no closed form has its hypothesis verified"
RANK_ONE = "rank-one closed form (xi!=0, chi^n=id)"


@pytest.mark.parametrize("spec, cmd, md, shape", [
    ("dihedral:3", "hh", 1, (["representatives", "refusals", "audit"], ["generic", "oracle"],
                             ["normalized-complex oracle"],
                             ["--decompose needs verified collapse and diagonal alpha", NO_FORM])),
    ("trunc:3", "hh", 1, (["representatives", "refusals"], ["generic", "closed_form_alpha_identity", "oracle"],
                          ["closed form (alpha = id)", "normalized-complex oracle"],
                          ["--decompose needs verified collapse and diagonal alpha"])),
    ("rank1:c4", "hh", 1, (["representatives"], ["generic", "per_component", "closed_form_collapsed",
                                                 "closed_form_eigen", "closed_form_rank_one", "oracle"],
                           ["component sum", "closed form (collapse)", "closed form (eigencomponents)", RANK_ONE,
                            "normalized-complex oracle"], [])),
    ("dihedral:3", "hc", 1, (["refusals", "audit"], ["generic"], [],
                             ["--closed-form needs verified collapse and diagonal alpha",
                              "--decompose needs verified collapse and diagonal alpha",
                              "--oracle: the oracle window 0..-1 has no degree"])),
    ("trunc:3", "hc", 2, (["refusals"], ["generic", "oracle"], ["normalized-complex oracle (degrees 0..0)"],
                          ["--closed-form needs verified collapse and diagonal alpha",
                           "--decompose needs verified collapse and diagonal alpha"])),
    ("rank1:c4", "hc", 1, (["exponent_note", "refusals"],
                           ["generic", "closed_form_proof_reading", "closed_form_displayed_reading",
                            "closed_form_rank_one", "per_component"],
                           ["closed form (cycle-condition reading)", RANK_ONE, "component sum"],
                           ["--oracle: the oracle window 0..-1 has no degree"])),
    ("rank1:c4", "hc", 2, (["exponent_note"],
                           ["generic", "closed_form_proof_reading", "closed_form_displayed_reading",
                            "closed_form_rank_one", "per_component", "oracle"],
                           ["closed form (cycle-condition reading)", RANK_ONE, "component sum",
                            "normalized-complex oracle (degrees 0..0)"], [])),
])
def test_every_flag_gives_its_comparisons_and_refusals_in_order(capsys, monkeypatch, spec, cmd, md, shape):
    # text mode prints keys in insertion order, so the order is pinned too
    reports = _reports(monkeypatch)
    assert main(_every_flag(cmd, spec, md)) == 0
    assert _shape(reports[0]) == shape
    assert all(c["agrees"] for c in reports[0]["comparisons"])


@pytest.mark.parametrize("spec, failing, kept", [
    ("trunc:3", "alpha_identity", []),
    ("rank1:c4", "collapsed", []),
    ("rank1:c4", "eigen", ["closed_form_collapsed"]),
])
def test_a_closed_form_hypothesis_error_is_refused_twice(capsys, monkeypatch, spec, failing, kept):
    # the error's text, then the flag; the forms compared before it stay
    real = cli.hh_closed_form

    def closed_form(mono, kind, top):
        if kind == failing:
            raise cli.HypothesisError(f"{kind}: hypothesis fails")
        return real(mono, kind, top)

    monkeypatch.setattr(cli, "hh_closed_form", closed_form)
    reports = _reports(monkeypatch)
    assert main(["hh", "--spec", spec, "--max-degree", "3", "--closed-form"]) == 0
    report = reports[0]
    assert report["refusals"] == [f"{failing}: hypothesis fails", NO_FORM]
    assert list(report["modes"]) == ["generic", *kept]
    assert len(report["comparisons"]) == len(kept)
