"""Command line interface: hh | hc | verify | example.

One table, ``_COMMANDS``, gives each command its handler, positionals and
long options, parsed by ``getopt.gnu_getopt``: ``--name value`` and
``--name=value``, any unique prefix (``--max 3``), options before or after
the positionals; ``-h``/``--help`` prints help built from the table and
exits 0.  No parser is built at import.

``hh`` and ``hc`` share one report path: ``_report`` makes the head,
``_asked`` gates each flag on its degree window, ``_compare`` is the one
writer of ``comparisons`` and ``_refuse`` of ``refusals``, and ``_finish``
adds a dihedral example's audit and prints.

Exit codes: 0 success, 1 bad spec (validation failure, a negative
``--max-degree``) or out of memory, 2 usage error (a ``usage:`` line and an
``orehom: error: ...`` line naming the argument on stderr) or
identity-suite failure.  Reports are deterministic; ``--json`` switches the
output to a single machine-readable object.  Spec files are UTF-8 JSON with
exact scalars only (see spec_io for the schema).
"""

from __future__ import annotations

import getopt
import json
import os
import sys
import types

from .algebra import AlgebraError, regular_bimodule
from .bar import bar_complex, bar_resolution, comparison
from .complexes import ComplexError, homology, homology_dims
from .cyclic import (
    build_mixed,
    build_mixed_components,
    check_mixed,
    hc,
    hc_closed_form,
    hc_dims,
    hc_rank_one,
)
from .linalg import anticommutator_terms, relation_holds, sparse_rank, sub_terms
from .perturbation import (
    build_cyclic_retract,
    homotopy_terms,
    perturb,
    vanishing_check,
    verify_perturbed,
)
from .small_complex import (
    HypothesisError,
    build_cs,
    decompose,
    hh_closed_form,
    hh_rank_one,
)
from .spec_io import EXAMPLE_NAMES, build_example, dihedral_group, parse_spec


def _read_spec(path):
    """The JSON document of a spec file.  A path that cannot be read as UTF-8
    JSON text (missing, a directory, unreadable, other bytes, not JSON) is a
    bad spec, and the error names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise AlgebraError(f"cannot read spec {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise AlgebraError(f"cannot read spec {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise AlgebraError(f"cannot read spec {path}: not JSON ({exc})") from exc


def _load_spec(path, max_degree):
    if path in EXAMPLE_NAMES or ":" in path and not path.endswith(".json"):
        try:
            doc = build_example(path)
        except AlgebraError:
            if not os.path.exists(path):
                raise
            doc = _read_spec(path)
    else:
        doc = _read_spec(path)
    return parse_spec(doc, max_degree=max_degree)


def _render(report, as_json):
    if as_json:
        return json.dumps(report, indent=2, sort_keys=True, default=str)
    lines = [f"== {report.get('command')} : {report.get('fixture')} =="]

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in obj:
                v = obj[k]
                if isinstance(v, (dict, list)) and v and not _is_flat_list(v):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {_fmt(v)}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                    lines.append("")
                else:
                    lines.append(f"{pad}- {_fmt(v)}")

    body = {k: v for k, v in report.items() if k not in ("command", "fixture")}
    walk(body)
    return "\n".join(line for line in lines if line is not None)


def _is_flat_list(v):
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _fmt(v):
    if isinstance(v, list):
        return "(" + ", ".join(str(x) for x in v) + ")"
    return str(v)


def _element_string(mono, M, terms):
    """An element of M, given by its coordinates, as a sum of (c)*label: the
    label of flat coordinate j*dim K + kappa is kappa*x^j when M is A with its
    regular actions, and that of coordinate i is m_i otherwise."""
    parts = []
    for coord in sorted(terms):
        if M.is_regular:
            j, kappa = divmod(coord, mono.base.dim)
            label = mono.base.basis_labels[kappa] + ("" if j == 0 else f"*x^{j}")
        else:
            label = f"m_{coord}"
        parts.append(f"({terms[coord]})*{label}")
    return " + ".join(parts) if parts else "0"


def _report(command, parsed, md, dims):
    """The head of an ``hh`` or ``hc`` report: the C^S dimensions of degrees
    0..md-1 as its ``generic`` mode, with no comparison yet."""
    return {"command": command, "fixture": parsed.name, "max_degree": md, "degrees": list(range(md)),
            "hypotheses": parsed.summary, "modes": {"generic": dims}, "comparisons": []}


def _refuse(report, reason):
    """Record why a flag asked for gave no comparison."""
    report.setdefault("refusals", []).append(reason)


def _compare(report, mode, against, value, agrees):
    """Show ``value`` as the mode ``mode`` and record whether ``against``
    agrees with the C^S dimensions."""
    report["modes"][mode] = value
    report["comparisons"].append({"against": against, "agrees": agrees})


def _asked(report, asked, flag, top, window="the window"):
    """Whether ``flag`` runs: it was ``asked`` and its window of degrees
    0..top has a degree.  An empty window is refused, not compared."""
    if asked and top < 0:
        _refuse(report, f"{flag}: {window} 0..{top} has no degree")
    return asked and top >= 0


def _regular(report, parsed, flag):
    """Whether M is A with its regular actions, the hypothesis of the hh
    closed forms and eigencomponents that ``flag`` reads, which are those
    of A; ``flag`` is refused if not."""
    if not parsed.bimodule.is_regular:
        _refuse(report, f"{flag} needs the hypothesis M is the regular bimodule")
    return parsed.bimodule.is_regular


def _diagonal_collapse(report, parsed, flag):
    """Whether collapse is verified and alpha is diagonal, the hypothesis of
    the eigencomponent forms that ``flag`` reads; ``flag`` is refused if not."""
    holds = parsed.summary["collapse"]["holds"] and parsed.summary["diagonalizable"]
    if not holds:
        _refuse(report, f"{flag} needs verified collapse and diagonal alpha")
    return holds


def _add_components(report, parsed, dims, components):
    """Report the dims of each eigencomponent, ``components()`` as
    (eigenvalue, dims) pairs, and compare their sum with ``dims``."""
    if _diagonal_collapse(report, parsed, "--decompose"):
        comps = components()
        total = [sum(col) for col in zip(*(d for _, d in comps))]
        _compare(report, "per_component", "component sum",
                 [{"eigenvalue": str(w), "dims": d} for w, d in comps], total == dims)


def _hh_closed_forms(report, parsed, dims, top):
    """Compare ``dims`` with each closed form whose hypothesis is verified:
    alpha = id, or collapse, then with alpha diagonal the eigencomponent
    form and the rank-one form of its case.  A ``HypothesisError`` is
    refused with its text, and then, as when no form applies,
    ``--closed-form`` is refused; the forms compared before it stay."""
    mono, summary = parsed.mono, parsed.summary
    try:
        if mono.alpha_columns(1) is None:
            cf = hh_closed_form(mono, "alpha_identity", top)
            _compare(report, "closed_form_alpha_identity", "closed form (alpha = id)", cf, cf == dims)
            return
        if summary["collapse"]["holds"]:
            cf = hh_closed_form(mono, "collapsed", top)
            _compare(report, "closed_form_collapsed", "closed form (collapse)", cf, cf == dims)
            if summary["diagonalizable"]:
                cf = hh_closed_form(mono, "eigen", top)
                _compare(report, "closed_form_eigen", "closed form (eigencomponents)", cf, cf == dims)
                case = summary.get("rank_one_case")
                if case:
                    cf = hh_rank_one(mono, case, top)
                    _compare(report, "closed_form_rank_one", f"rank-one closed form ({case})", cf, cf == dims)
            return
    except HypothesisError as exc:
        _refuse(report, str(exc))
    _refuse(report, "--closed-form: no closed form has its hypothesis verified")


def _is_dihedral_example(mono):
    """Whether A is a ``dihedral`` example, whatever the document's name: K
    and alpha are the group algebra and sign character the audit reads, and
    f = x^2, the polynomial of its displayed table."""
    K, one = mono.base, mono.field.one
    if mono.n != 2 or any(mono.lambdas) or K.group_table is None:
        return False
    labels, table = dihedral_group(max(K.dim // 2, 3))
    return (K.basis_labels == labels and [[labels[t] for t in row] for row in K.group_table] == table
            and list(mono.alpha.cols) == [{i: -one if lab[-1] == "h" else one} for i, lab in enumerate(labels)])


def _dihedral_displayed_parts(mono):
    """Exact dimensions of the two displayed reflection-group quotients.

    Rotation part: k[<g>] modulo the span of g^j - g^(u-j); reflection
    part: k[<g>]h modulo k[<g>](g^2 - 1)h.  Both subtract the rank of the
    displayed span inside the group algebra.
    """
    K = mono.base
    u = K.dim // 2
    g = K.basis_vector(1)  # labels[1] of ``dihedral_group(u)`` is g
    # powers of g in rotation coordinates
    pow_vecs = [K.unit]
    for _ in range(1, u):
        pow_vecs.append(K.product(pow_vecs[-1], g))
    rot_dim = u - sparse_rank(sub_terms(dict(pow_vecs[j]), pow_vecs[(u - j) % u]) for j in range(1, u))
    g2_minus_1 = sub_terms(K.product(g, g), K.unit)
    refl_dim = u - sparse_rank(K.product(v, g2_minus_1) for v in pow_vecs)
    return rot_dim, refl_dim


def _finish(report, mono, dims, as_json, cyclic=False):
    """Print the report.  A dihedral example's report ends in an audit of
    ``dims`` against the displayed reflection-group table of HH, or of HC if
    ``cyclic``."""
    if _is_dihedral_example(mono):
        rot, refl = _dihedral_displayed_parts(mono)
        if cyclic:
            table = [(rot + refl) if r % 2 == 0 else refl for r in range(len(dims))]
        else:
            table = [rot + refl] + [refl] * (len(dims) - 1)
        report["audit"] = {
            "collapse_holds": False,
            "displayed_table": table,
            "computed": dims,
            "agrees": dims == table,
            "note": "acceptance is oracle equivalence, not agreement with the displayed table",
        }
    print(_render(report, as_json))
    return 0


def cmd_hh(args):
    parsed = _load_spec(args.spec, args.max_degree)
    mono = parsed.mono
    md = args.max_degree
    cs = build_cs(parsed.bimodule, md)
    dims = homology_dims(cs, md - 1)
    report = _report("hh", parsed, md, dims)
    if args.basis:
        report["representatives"] = [[_element_string(mono, parsed.bimodule, v) for v in reps]
                                     for reps in homology(cs, md - 1)]
    if _asked(report, args.decompose, "--decompose", md - 1) and _regular(report, parsed, "--decompose"):
        _add_components(report, parsed, dims, lambda: [(w, homology_dims(comp, md - 1))
                                                       for w, _, comp in decompose(mono, md)])
    if _asked(report, args.closed_form, "--closed-form", md - 1) and _regular(report, parsed, "--closed-form"):
        _hh_closed_forms(report, parsed, dims, md - 1)
    if _asked(report, args.oracle, "--oracle", md - 1, "the oracle window"):
        bar_dims = homology_dims(bar_complex(parsed.bimodule).chain_complex(md), md - 1)
        _compare(report, "oracle", "normalized-complex oracle", bar_dims, bar_dims == dims)
    return _finish(report, mono, dims, args.json)


def cmd_hc(args):
    parsed = _load_spec(args.spec, args.max_degree)
    mono = parsed.mono
    md = args.max_degree
    # cyclic homology is that of A: C^S and the oracle share one M = A
    M = parsed.bimodule if parsed.bimodule.is_regular else regular_bimodule(mono)
    dims = hc(M, md)
    report = _report("hc", parsed, md, dims)
    if M is not parsed.bimodule:
        report["bimodule_note"] = "M is not the regular bimodule: HC is computed for A, with M = A"
    if (_asked(report, args.closed_form, "--closed-form", md - 1)
            and _diagonal_collapse(report, parsed, "--closed-form")):
        cf = hc_closed_form(mono, md - 1)
        _compare(report, "closed_form_proof_reading", "closed form (cycle-condition reading)",
                 cf["proof_reading"], cf["proof_reading"] == dims)
        report["modes"]["closed_form_displayed_reading"] = cf["displayed_reading"]
        report["exponent_note"] = (
            "odd-degree numerator uses lam*lam_n^(m+1) (the cycle condition); "
            f"the displayed exponent m diverges at degrees {cf['disagree_degrees']}"
            if cf["disagree_degrees"]
            else "both exponent readings agree on this fixture"
        )
        case = parsed.summary.get("rank_one_case")
        if case:
            r1 = hc_rank_one(mono, case, md - 1)
            _compare(report, "closed_form_rank_one", f"rank-one closed form ({case})", r1, r1 == dims)
    if _asked(report, args.decompose, "--decompose", md - 1):
        _add_components(report, parsed, dims, lambda: [(w, hc_dims(comp, D, md))
                                                       for w, _, comp, D in build_mixed_components(mono, md)])
    if _asked(report, args.oracle, "--oracle", md - 2, "the oracle window"):
        bar = bar_complex(M)
        cx = bar.chain_complex(md - 1)
        oracle = hc_dims(cx, check_mixed(cx, {r: bar.connes_B(r) for r in range(md - 1)}), md - 1)
        _compare(report, "oracle", f"normalized-complex oracle (degrees 0..{md - 2})", oracle, oracle == dims[:md - 1])
    return _finish(report, mono, dims, args.json, cyclic=True)


def cmd_verify(args):
    parsed = _load_spec(args.spec, args.max_degree)
    mono = parsed.mono
    M = parsed.bimodule
    md = args.max_degree
    checks = []

    def record(name, passed, window=""):
        checks.append({"check": name, "passed": bool(passed), "window": window})

    def check(name, degrees, window, holds):
        if degrees:  # a check with no degree to test is left out
            record(name, all(holds(r) for r in degrees), window)

    cs = build_cs(M, md)
    bar = bar_complex(M)
    bar.chain_complex(md)
    # d.d, b.b and the mixed identities are tested in degrees 2..md as each
    # complex is built: a failure raises ComplexError
    if md >= 2:
        record("d.d = 0 on the small complex", True, f"degrees <= {md}")
        record("b.b = 0 on the normalized complex", True, f"degrees <= {md}")
    b, B = bar.b, bar.connes_B
    if M.is_regular:
        check("B.B = 0", range(md - 1), f"degrees <= {md - 1}",
              lambda r: relation_holds(bar.dim(r), [(1, [B(r + 1), B(r)])]))
        check("bB + Bb = 0", range(md - 1), f"degrees <= {md - 1}",
              lambda r: relation_holds(bar.dim(r), anticommutator_terms(b, B, r)))
    barres = bar_resolution(mono)
    check("psi'phi' = id", range(md + 1), f"degrees <= {md}",
          lambda r: relation_holds(barres.res_space(r).dim, [(1, [barres.psi(r), barres.phi(r)]), (-1, [])]))
    cmp_ = comparison(M)
    check("psi phi = id", range(md), f"degrees < {md}",
          lambda r: relation_holds(cs.dim(r), [(1, [cmp_.psi(r), cmp_.phi(r)]), (-1, [])]))
    om = barres.omega  # omega'(r + 1) leaves level r
    check("b'w' + w'b' = phi'psi' - id", range(1, md - 1), f"degrees < {md - 1}",
          lambda r: relation_holds(barres.dim(r), homotopy_terms(
              barres.bprime, lambda s: om(s + 1), barres.phi, barres.psi, r)))
    check("bw + wb = phi psi - id", range(md - 1), f"degrees < {md - 1}",
          lambda r: relation_holds(bar.dim(r), homotopy_terms(b, cmp_.omega, cmp_.phi, cmp_.psi, r)))
    # degree bound: every basis tensor of each level up to min(4, md - 1)
    if M.is_regular:
        one = mono.field.one

        def degree_bounded(r):
            omega, sp, spt = om(r + 1), barres.space(r), barres.space(r + 1)
            return all(spt.element_degree(omega.cols[idx]) <= sp.element_degree({idx: one})
                       for idx in range(sp.dim))

        deg_top = min(4, md - 1)
        check("deg(w'(a)) <= deg(a)", range(1, deg_top + 1), f"levels <= {deg_top}, exhaustive", degree_bounded)
        j_max, r_max = 2, 3
        van = vanishing_check(M, j_max, r_max)
        window = ",".join(str(j) for j in range(1, j_max + 1))
        record("psi (Bw)^j B phi = 0", all(van.values()), f"j in {{{window}}}, r <= {r_max}")
        D = build_mixed(cs, M)
        if md >= 2:
            record("DD = 0 and dD + Dd = 0 on C^S", True, f"degrees <= {md}")
        check("D = psi B phi", range(md - 1), f"degrees < {md - 1}",
              lambda r: relation_holds(cs.dim(r), [(1, [D[r]]), (-1, [cmp_.psi(r + 1), B(r), cmp_.phi(r)])]))
        maxN = min(md, 5)
        retract, delta = build_cyclic_retract(cs, M, maxN)
        record("transfer retract identities", retract.holds(), f"total degrees <= {maxN}")
        if maxN:
            special = retract.is_special()
            record("transfer retract is special", special, f"total degrees <= {maxN}")
            record("perturbed retract identities", verify_perturbed(perturb(retract, delta), special),
                   f"total degrees <= {maxN}")
    report = {
        "command": "verify",
        "fixture": parsed.name,
        "max_degree": md,
        "hypotheses": parsed.summary,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    print(_render(report, args.json))
    return 0 if report["all_passed"] else 2


def cmd_example(args):
    doc = build_example(args.name)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        print(text)
    return 0


_COMMON = (
    ("spec=", "spec file path or example name (required)"),
    ("max-degree=", "degrees 0 .. MAX_DEGREE - 1 (default 6)"),
    ("json", "print one JSON object"),
)
_COMPARE = (
    ("decompose", "per-eigenvalue breakdown"),
    ("closed-form", "compare with the closed forms whose hypotheses hold"),
    ("oracle", "compare with the normalized-complex oracle"),
)

# name -> (handler, summary, positionals as (name, help), long options as
# (getopt spelling, help)); "spec=" takes a value, "json" is a flag
_COMMANDS = {
    "hh": (cmd_hh, "Hochschild homology dimensions", (),
           _COMMON + _COMPARE + (("basis", "homology representatives"),)),
    "hc": (cmd_hc, "cyclic homology dimensions", (), _COMMON + _COMPARE),
    "verify": (cmd_verify, "run the identity suites", (), _COMMON),
    "example": (cmd_example, "emit a named example spec",
                (("name", f"one of {', '.join(EXAMPLE_NAMES)} (families accept other parameters)"),),
                (("out=", "write the spec to this file, not to stdout"),)),
}
# integer options and their defaults; other value options default to None,
# flags to False
_INTS = {"max_degree": 6}
_REQUIRED = ("spec",)


def _attr(option):
    return option.rstrip("=").replace("-", "_")


def _spelled(option):
    """``--spec SPEC`` for a value option, ``--json`` for a flag."""
    name = option.rstrip("=")
    return f"--{name} {_attr(option).upper()}" if option.endswith("=") else f"--{name}"


def _usage(cmd):
    if cmd is None:
        return f"usage: orehom [-h] {{{','.join(_COMMANDS)}}} ...\n"
    _, _, positionals, options = _COMMANDS[cmd]
    words = ["usage: orehom", cmd, "[-h]"]
    for option, _ in options:
        word = _spelled(option)
        words.append(word if _attr(option) in _REQUIRED else f"[{word}]")
    words += [name for name, _ in positionals]
    return " ".join(words) + "\n"


def _help(cmd):
    if cmd is None:
        rows = [(name, entry[1]) for name, entry in _COMMANDS.items()]
        head = "Exact Hochschild and cyclic homology of monogenic Ore quotients\n\ncommands:\n"
    else:
        _, summary, positionals, options = _COMMANDS[cmd]
        rows = [*positionals, ("-h, --help", "show this help and exit")]
        rows += [(_spelled(option), text) for option, text in options]
        head = f"{summary}\n\n"
    width = max(len(name) for name, _ in rows) + 2
    return _usage(cmd) + "\n" + head + "".join(f"  {name:<{width}}{text}\n" for name, text in rows)


def _usage_error(cmd, message):
    sys.stderr.write(f"{_usage(cmd)}orehom: error: {message}\n")
    raise SystemExit(2)


def _getopt(cmd, argv, shortopts, longopts, posix=False):
    """getopt's parse of argv; its error becomes a usage error that names the
    argument as argparse did."""
    try:
        return (getopt.getopt if posix else getopt.gnu_getopt)(argv, shortopts, longopts)
    except getopt.GetoptError as exc:
        opt = exc.opt
        if opt + "=" in longopts:
            _usage_error(cmd, f"argument --{opt}: expected one argument")
        if any(o.startswith(opt) for o in longopts):
            _usage_error(cmd, exc.msg)
        token = next((a for a in argv if a.partition("=")[0] == "--" + opt), "-" + opt)
        _usage_error(cmd, f"unrecognized arguments: {token}")


def parse_args(argv):
    """The command line as a namespace: ``cmd``, ``func`` and one attribute per
    option of the command.  ``-h`` prints help and a usage error exits 2."""
    opts, rest = _getopt(None, argv, "h", ["help"], posix=True)
    if opts:
        sys.stdout.write(_help(None))
        raise SystemExit(0)
    if not rest:
        _usage_error(None, "the following arguments are required: cmd")
    cmd = rest[0]
    if cmd not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(None, f"argument cmd: invalid choice: {cmd!r} (choose from {choices})")
    func, _, positionals, options = _COMMANDS[cmd]
    longopts = ["help"] + [option for option, _ in options]
    opts, rest = _getopt(cmd, rest[1:], "h", longopts)
    args = types.SimpleNamespace(cmd=cmd, func=func)
    for option, _ in options:
        name = _attr(option)
        setattr(args, name, _INTS.get(name) if option.endswith("=") else False)
    for opt, value in opts:
        if opt in ("-h", "--help"):
            sys.stdout.write(_help(cmd))
            raise SystemExit(0)
        name = _attr(opt[2:])
        if name in _INTS:
            try:
                value = int(value)
            except ValueError:
                _usage_error(cmd, f"argument {opt}: invalid int value: {value!r}")
        setattr(args, name, value if opt[2:] + "=" in longopts else True)
    # a required option still None; commands without it have no attribute
    missing = [f"--{name}" for name in _REQUIRED if getattr(args, name, "") is None]
    missing += [name for name, _ in positionals[len(rest):]]
    if missing:
        _usage_error(cmd, f"the following arguments are required: {', '.join(missing)}")
    if len(rest) > len(positionals):
        _usage_error(cmd, f"unrecognized arguments: {' '.join(rest[len(positionals):])}")
    for (name, _), value in zip(positionals, rest):
        setattr(args, name, value)
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if getattr(args, "max_degree", 0) < 0:
        print(f"error: --max-degree must be >= 0, got {args.max_degree}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ComplexError as exc:
        # a complex axiom or transfer identity failed while building
        print(f"identity failure: {exc}", file=sys.stderr)
        return 2
    except (AlgebraError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the window asked for does not fit: one line, no traceback
        pass
    # printed after the handler is left, so that its traceback, and the
    # complexes its frames hold, are freed first
    spec = getattr(args, "spec", None) or args.name
    print(f"error: {args.cmd} {spec}: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
