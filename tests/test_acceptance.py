"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

All comparisons are exact (the arithmetic is exact); the only tolerance is
the identity-suite runtime budget.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import json
import time

from orehom.cli import main as cli_main
from orehom.complexes import homology_dims
from orehom.cyclic import (
    MixedComplexData,
    bc_total,
    connes_D,
    hc,
    hc_closed_form,
    hc_rank_one,
    sbi_check,
    transfer_D,
)
from orehom.small_complex import hh_closed_form, hh_rank_one, periodicity_check

from conftest import get_context

SHIPPED = ("trunc:3", "sweedler", "taft:3", "rank1:c4", "dihedral:3", "dihedral:4")


def _report(criterion, passed, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_identity_suite(capsys):
    worst = 0.0
    all_ok = True
    for name in SHIPPED:
        t0 = time.monotonic()
        code = cli_main(["verify", "--spec", name, "--max-degree", "6", "--json"])
        elapsed = time.monotonic() - t0
        out = capsys.readouterr().out
        rep = json.loads(out)
        ok = code == 0 and rep["all_passed"] and elapsed <= 120.0
        all_ok = all_ok and ok
        worst = max(worst, elapsed)
    with capsys.disabled():
        _report(1, all_ok, f"identity suite on {len(SHIPPED)} fixtures, worst {worst:.1f}s <= 120s")


def test_criterion_2_hh_oracle_equivalence():
    all_ok = True
    for name in SHIPPED:
        ctx = get_context(name)
        cs_dims = homology_dims(ctx.cs(7), 5)
        bar_dims = homology_dims(ctx.bar(7).chain_complex(7), 5)
        all_ok = all_ok and cs_dims == bar_dims
    _report(2, all_ok, "small-complex homology = normalized-complex homology, degrees 0..5")


def test_criterion_3_hc_oracle_equivalence():
    all_ok = True
    for name in SHIPPED:
        ctx = get_context(name)
        md = 6
        dims = hc(ctx.mono, md)
        bar = ctx.bar(md)
        barmixed = MixedComplexData(
            ctx.mono.field,
            [bar.space(r) for r in range(md)],
            {r: bar.b(r) for r in range(1, md)},
            {r: bar.connes_B(r) for r in range(md - 1)},
        )
        oracle = homology_dims(bc_total(barmixed, md - 1), md - 2)
        all_ok = all_ok and dims[:md - 1] == oracle
    _report(3, all_ok, "BC-total homology matches the normalized-side total, degrees 0..4")


def test_criterion_4_closed_form_regression():
    ok = True
    for n in (2, 3, 4):
        ctx = get_context(f"trunc:{n}")
        gen = homology_dims(ctx.cs(7), 5)
        cf = hh_closed_form(ctx.mono, "alpha_identity", 5)
        ok = ok and gen == [n] + [n - 1] * 5 == cf
    for n in (2, 3):
        ctx = get_context(f"taft:{n}")
        gen = homology_dims(ctx.cs(7), 5)
        cf = hh_rank_one(ctx.mono, "xi=0", 5)
        ok = ok and gen == [n] + [n - 1] * 5 == cf
        hc_gen = hc(ctx.mono, 7)[:6]
        r1 = hc_rank_one(ctx.mono, "xi=0", 5)
        expect_hc = [n if r % 2 == 0 else n - 1 for r in range(6)]
        ok = ok and hc_gen == expect_hc
        ok = ok and r1["proof_reading"] == expect_hc
    ctx = get_context("rank1:c4")
    gen_hh = homology_dims(ctx.cs(7), 3)
    gen_hc = hc(ctx.mono, 5)[:4]
    cf_hh = hh_closed_form(ctx.mono, "eigen", 3)
    cf_hc = hc_closed_form(ctx.mono, 3)
    ok = ok and gen_hh == [3, 1, 1, 1] == cf_hh
    ok = ok and gen_hc == [3, 1, 3, 1] == cf_hc["proof_reading"][:4]
    ok = ok and cf_hc["disagree_degrees"] == [1]  # the displayed exponent differs
    _report(4, ok, "trunc:2..4, taft:2..3, rank1:c4 closed forms = generic computation")


def test_criterion_5_connes_transfer():
    all_ok = True
    for name in SHIPPED:
        ctx = get_context(name)
        cs = ctx.cs(7)
        bar = ctx.bar(7)
        cmp_ = ctx.comparison(7)
        for r in range(6):
            direct = connes_D(ctx.mono, r, cs.spaces, "generic")
            if direct != transfer_D(cmp_, bar, r):
                all_ok = False
    _report(5, all_ok, "closed-formula D equals psi.B.phi, degrees 0..5")


def test_criterion_6_sbi_formulas():
    must_pass = ("a", "b", "c", "e", "1")
    ok = True
    details = []
    for name in ("taft:2", "taft:3"):
        rep = sbi_check(get_context(name).mono, max_m=2)
        for item in must_pass:
            if item in rep["by_item"] and not rep["by_item"][item]:
                ok = False
        details.append(
            name + " " + " ".join(f"{k}:{'P' if v else 'F'}" for k, v in sorted(rep["by_item"].items()))
        )
    _report(6, ok, "; ".join(details))


def test_criterion_7_dihedral_audit(capsys):
    ok = True
    for name in ("dihedral:3", "dihedral:4"):
        for cmd in ("hh", "hc"):
            code = cli_main([cmd, "--spec", name, "--max-degree", "6", "--oracle", "--json"])
            rep = json.loads(capsys.readouterr().out)
            ok = ok and code == 0
            ok = ok and rep["hypotheses"]["collapse"]["holds"] is False
            ok = ok and "audit" in rep and "displayed_table" in rep["audit"]
            ok = ok and any(
                c["against"].startswith("normalized-complex") and c["agrees"]
                for c in rep["comparisons"]
            )
    with capsys.disabled():
        _report(7, ok, "collapse status, generic dims, displayed-table comparisons emitted; oracle agrees")


def test_criterion_8_periodicity():
    ok = True
    max_m = 2
    for name, v in (
        ("trunc:3", 1), ("sweedler", 1), ("taft:3", 1), ("rank1:c4", 1),
        ("dihedral:3", 1), ("dihedral:4", 1), ("rank1nc:c2xc4", 2),
    ):
        ctx = get_context(name)
        if not periodicity_check(ctx.mono, v, max_m):
            ok = False
        top = 2 * (max_m + v) + 2
        hc_dims = hc(ctx.mono, top + 1)
        for m in range(max_m + 1):
            if hc_dims[2 * m + 1] != hc_dims[2 * (m + v) + 1]:
                ok = False
            if hc_dims[2 * m + 2] != hc_dims[2 * (m + v) + 2]:
                ok = False
    _report(8, ok, "HH and HC dims repeat with the order of alpha^n, m <= 2")
