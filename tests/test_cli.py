import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orehom.cli import main
from orehom.spec_io import EXAMPLE_NAMES, build_example, decode_scalar, encode_scalar, parse_spec
from orehom.fields import make_field


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
    (dict(build_example("sweedler"), field={"kind": "cyclotomic", "order": "x"}),
     "error: spec.field.order must be an integer, got 'x'"),
    (dict(build_example("sweedler"), extension={"n": "two", "lambdas": []}),
     "error: spec.extension.n must be an integer, got 'two'"),
    (dict(build_example("sweedler"), bimodule={"type": "matrices"}),
     "error: spec.bimodule has no 'dim'"),
    (dict(build_example("sweedler"), extension={"n": 2, "lambdas": [["a", "0"], ["0", "0"]]}),
     "error: spec.extension.lambdas[0][0]: cannot decode scalar 'a'"),
], ids=["list", "no-field", "no-algebra", "no-algebra-type", "unknown-field-kind",
        "non-integer-order", "non-integer-n", "bimodule-without-dim", "non-scalar-lambda"])
def test_malformed_spec_document_rejected(capsys, tmp_path, doc, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = main(["hh", "--spec", str(p)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [message]


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


def test_nonmultiplicative_character_rejected(capsys, tmp_path):
    doc = build_example("sweedler")
    doc["endomorphism"]["values"]["g"] = "2"
    p = tmp_path / "bad2.json"
    p.write_text(json.dumps(doc))
    code = main(["hh", "--spec", str(p)])
    assert code == 1


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


def test_verify_computes_each_twist_quotient_once(capsys, monkeypatch):
    from orehom import algebra, bar

    seen = []
    original = algebra.twisted_commutator_subspace

    def counted(M, j):
        seen.append((id(M), j))
        return original(M, j)

    for module in (algebra, bar):
        monkeypatch.setattr(module, "twisted_commutator_subspace", counted)
    code, _ = run(capsys, "verify", "--spec", "taft:3", "--max-degree", "6")
    assert code == 0
    # C^S and the bar levels up to 8 of taft:3 use the twists 0..16, which
    # fall into the 3 classes of alpha^j (alpha has order 3)
    assert len(seen) == len(set(seen)) == 3


def test_verify_divides_by_f_at_most_once_per_table_entry(capsys, monkeypatch):
    from orehom import algebra

    calls = []
    original = algebra.divide_by_f

    def counted(mono, poly):
        calls.append(len(poly))
        return original(mono, poly)

    for name, module in list(sys.modules.items()):
        if name.startswith("orehom") and hasattr(module, "divide_by_f"):
            monkeypatch.setattr(module, "divide_by_f", counted)
    code, _ = run(capsys, "verify", "--spec", "taft:3", "--max-degree", "6")
    assert code == 0
    # products in A read the multiplication table, whose dim(A)^2 entries
    # bound the twisted divisions, plus the reduced powers of x
    mono = parse_spec(build_example("taft:3")).mono
    assert len(calls) <= mono.dim ** 2 + 2 * mono.n


@pytest.mark.parametrize("copies", [1, 2], ids=["M=K", "M=K+K"])
def test_hc_oracle_reads_the_regular_bimodule(capsys, tmp_path, copies):
    # cyclic homology is that of A: with coefficients M = K or K + K (x acting
    # as 0; K + K has the dimension of A) in the spec, C^S and the oracle
    # still both read M = A
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
        "right_k": [blocks(K.right_mult_map(K.basis_vector(t))) for t in range(K.dim)],
        "right_x": zero,
    }
    p = tmp_path / "coefficients.json"
    p.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "hc", "--spec", str(p), "--max-degree", "5", "--oracle")
    assert code == 0
    assert [c["agrees"] for c in rep["comparisons"]] == [True]
    _, regular = run_json(capsys, "hc", "--spec", "sweedler", "--max-degree", "5", "--oracle")
    assert rep["modes"] == regular["modes"]


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
