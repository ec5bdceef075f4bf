"""Relabelling K's basis changes no dimension and no verdict."""

import json

import pytest

from orehom.cli import main
from orehom.spec_io import build_example

from conftest import rank_one_doc
from metamorphic import relabel

DOCS = {name: build_example(name) for name in ("taft:3", "dihedral:3", "rank1:c4", "rank1nc:c2xc4", "sweedler")}
DOCS["rank-one(8,2,1,4,1)"] = rank_one_doc(8, 2, 1, 4, 1)
COMMANDS = (("hh", "--oracle", "--closed-form", "--decompose"),
            ("hc", "--oracle", "--closed-form", "--decompose"),
            ("verify",))


def _outcome(capsys, tmp_path, argv, doc):
    """Exit code and the order-free content of the ``--json`` report: the
    modes (components as a multiset of dims) and comparisons of hh and hc,
    the (check, passed) list of verify."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([argv[0], "--spec", str(path), "--max-degree", "4", "--json", *argv[1:]])
    out = capsys.readouterr().out
    if not out:
        return code, None
    report = json.loads(out)
    if argv[0] == "verify":
        return code, [(c["check"], c["passed"]) for c in report["checks"]]
    modes = dict(report["modes"])
    if "per_component" in modes:
        modes["per_component"] = sorted(c["dims"] for c in modes["per_component"])
    return code, modes, report["comparisons"]


@pytest.mark.parametrize("name", DOCS)
def test_relabelling_k_changes_no_report(capsys, tmp_path, name):
    doc = DOCS[name]
    d = len((doc.get("rank_one") or doc["base_algebra"])["labels"])
    for argv in COMMANDS:
        expected = _outcome(capsys, tmp_path, argv, doc)
        for perm in (list(range(d))[::-1], list(range(1, d)) + [0]):
            assert _outcome(capsys, tmp_path, argv, relabel(doc, perm)) == expected, (argv, perm)
