"""Algebra spec documents: JSON schema, example registry, parsing.

A spec document is a JSON object with exact scalars only (strings "p/q"
for rationals, coefficient arrays of such strings for cyclotomic fields).
Two flavours are accepted:

explicit form::

    {
      "name": "...",
      "field": {"kind": "rationals"} | {"kind": "cyclotomic", "order": d},
      "base_algebra": {"type": "group", "labels": [...], "table": [[label]]}
                    | {"type": "structure_constants", "labels": [...],
                       "constants": [[[scalar]]], "unit": [scalar]},
      "endomorphism": {"type": "character", "values": {label: scalar}}
                    | {"type": "matrix", "matrix": [[scalar]]},
      "extension": {"n": n, "lambdas": [[scalar]*dimK]*n},
      "lambda_breve": [scalar]*dimK,        # optional
      "bimodule": {"type": "regular"}       # optional, or explicit matrices
    }

rank-one form (group algebra with a character twist and f = x^n - xi*(g1^n - 1))::

    {
      "name": "...",
      "field": {...},
      "rank_one": {"labels": [...], "table": [[label]],
                   "character": {label: scalar}, "g1": label,
                   "n": n, "xi": scalar}
    }

Parsing a rank-one document performs the case split on xi and chi^n; when
xi != 0 and chi^n != id the input is rewritten over the quotient group
k[G/<g1^n>] with f = x^n, and the construction is recorded in the parse
summary.  The named examples double as the shipped test fixtures.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    AlgebraError,
    AlgebraEndomorphism,
    BaseAlgebra,
    BimoduleData,
    character_endomorphism,
    check_collapse,
    eigen_split,
    group_algebra,
    quotient_group_table,
    regular_bimodule,
    subgroup_generated,
    validate_monogenic,
    verify_lambda_breve,
)
from .fields import make_field
from .linalg import Matrix


# -- scalar / vector codecs ---------------------------------------------------

def encode_scalar(field, s):
    if field.kind == "rationals":
        return str(Fraction(s))
    return [str(c) for c in field.coefficients(s)]


def decode_scalar(field, obj):
    if isinstance(obj, (str, int)):
        return field.from_fraction(Fraction(obj))
    if isinstance(obj, list):
        return field.scalar([Fraction(c) for c in obj])
    raise AlgebraError(f"cannot decode scalar {obj!r}")


def encode_kvec(field, vec):
    return [encode_scalar(field, c) for c in vec]


def decode_kvec(field, obj, dim):
    if len(obj) != dim:
        raise AlgebraError(f"coefficient vector of length {len(obj)}, expected {dim}")
    return [decode_scalar(field, c) for c in obj]


# -- group table builders -----------------------------------------------------

def cyclic_group(m, gen="g"):
    labels = ["e"] + [gen if j == 1 else f"{gen}{j}" for j in range(1, m)]
    table = [[labels[(i + j) % m] for j in range(m)] for i in range(m)]
    return labels, table


def dihedral_group(u):
    """D_{2u} = <g, h | g^u = h^2 = 1, hg = g^{-1}h>; elements g^j h^l."""
    def lab(j, l):
        if l == 0:
            return "e" if j == 0 else ("g" if j == 1 else f"g{j}")
        return "h" if j == 0 else (f"gh" if j == 1 else f"g{j}h")

    elems = [(j, l) for l in (0, 1) for j in range(u)]
    labels = [lab(j, l) for (j, l) in elems]
    index = {v: i for i, v in enumerate(elems)}

    def mul(a, b):
        (j1, l1), (j2, l2) = a, b
        # (g^j1 h^l1)(g^j2 h^l2): move h^l1 past g^j2
        j = (j1 + (j2 if l1 == 0 else -j2)) % u
        return (j, (l1 + l2) % 2)

    table = [[labels[index[mul(a, b)]] for b in elems] for a in elems]
    return labels, table


def product_c4_c2():
    """C_4 x C_2 with a of order 4 and b of order 2; elements a^j b^l."""
    def lab(j, l):
        if j == 0 and l == 0:
            return "e"
        a = "" if j == 0 else ("a" if j == 1 else f"a{j}")
        return a + ("b" if l else "")

    elems = [(j, l) for l in (0, 1) for j in range(4)]
    labels = [lab(j, l) for (j, l) in elems]
    index = {v: i for i, v in enumerate(elems)}
    table = [
        [labels[index[((j1 + j2) % 4, (l1 + l2) % 2)]] for (j2, l2) in elems]
        for (j1, l1) in elems
    ]
    return labels, table


# -- example registry ---------------------------------------------------------

EXAMPLE_NAMES = (
    "trunc:2", "trunc:3", "trunc:4", "sweedler", "taft:2", "taft:3",
    "rank1:c4", "rank1nc:c2xc4", "dihedral:3", "dihedral:4",
)


def _example_parameter(kind, var, arg, least):
    """The integer parameter of the example ``kind:arg``, at least ``least``."""
    try:
        value = int(arg)
    except ValueError:
        raise AlgebraError(f"{kind}:{var} needs an integer {var}, got {arg!r}") from None
    if value < least:
        raise AlgebraError(f"{kind}:{var} needs {var} >= {least}")
    return value


def build_example(name):
    """Spec document for a named example; see EXAMPLE_NAMES for the fixed list
    (the parametrized families accept other parameters too)."""
    kind, _, arg = name.partition(":")
    if kind == "trunc":
        n = _example_parameter(kind, "n", arg, 2)
        return {
            "name": name,
            "field": {"kind": "rationals"},
            "base_algebra": {"type": "group", "labels": ["e"], "table": [["e"]]},
            "endomorphism": {"type": "character", "values": {"e": "1"}},
            "extension": {"n": n, "lambdas": [["0"] for _ in range(n)]},
        }
    if kind == "sweedler":
        doc = build_example("taft:2")
        doc["name"] = "sweedler"
        return doc
    if kind == "taft":
        n = _example_parameter(kind, "n", arg, 2)
        labels, table = cyclic_group(n)
        # character chi(g^j) = zeta_n^j, written in coefficients
        F = make_field("cyclotomic", n)
        z = F.root()
        values = {lab: encode_scalar(F, z ** j) for j, lab in enumerate(labels)}
        zero = encode_scalar(F, F.zero)
        one = encode_scalar(F, F.one)
        return {
            "name": name,
            "field": {"kind": "cyclotomic", "order": n},
            "base_algebra": {"type": "group", "labels": labels, "table": table},
            "endomorphism": {"type": "character", "values": values},
            "extension": {"n": n, "lambdas": [[zero] * n for _ in range(n)]},
            "lambda_breve": [zero, one] + [zero] * (n - 2),
        }
    if kind == "rank1":
        if arg != "c4":
            raise AlgebraError(f"unknown rank1 parameter {arg!r}")
        labels, table = cyclic_group(4)
        return {
            "name": name,
            "field": {"kind": "rationals"},
            "rank_one": {
                "labels": labels,
                "table": table,
                "character": {"e": "1", "g": "-1", "g2": "1", "g3": "-1"},
                "g1": "g",
                "n": 2,
                "xi": "1",
            },
        }
    if kind == "rank1nc":
        if arg != "c2xc4":
            raise AlgebraError(f"unknown rank1nc parameter {arg!r}")
        labels, table = product_c4_c2()
        F = make_field("cyclotomic", 4)
        z = F.root()
        chi = {}
        for lab in labels:
            j = 0 if "a" not in lab else (1 if lab in ("a", "ab") else int(lab[1]))
            l = 1 if lab.endswith("b") else 0
            chi[lab] = encode_scalar(F, (z ** j) * ((-F.one) ** l))
        return {
            "name": name,
            "field": {"kind": "cyclotomic", "order": 4},
            "rank_one": {
                "labels": labels,
                "table": table,
                "character": chi,
                "g1": "b",
                "n": 2,
                "xi": "1",
            },
        }
    if kind == "dihedral":
        u = _example_parameter(kind, "u", arg, 3)
        labels, table = dihedral_group(u)
        values = {lab: ("-1" if lab.endswith("h") else "1") for lab in labels}
        return {
            "name": name,
            "field": {"kind": "rationals"},
            "base_algebra": {"type": "group", "labels": labels, "table": table},
            "endomorphism": {"type": "character", "values": values},
            "extension": {"n": 2, "lambdas": [["0"] * 2 * u, ["0"] * 2 * u]},
        }
    raise AlgebraError(f"unknown example {name!r}")


# -- parsing ------------------------------------------------------------------

class ParsedSpec:
    """Validated objects plus the hypothesis-check summary."""

    def __init__(self, name, mono, bimodule, lambda_breve, summary):
        self.name = name
        self.mono = mono
        self.bimodule = bimodule
        self.lambda_breve = lambda_breve
        self.summary = summary


def _decode_base_algebra(field, obj):
    if obj["type"] == "group":
        return group_algebra(obj["labels"], obj["table"], field)
    if obj["type"] == "structure_constants":
        labels = obj["labels"]
        dim = len(labels)
        sc = [
            [decode_kvec(field, obj["constants"][i][j], dim) for j in range(dim)]
            for i in range(dim)
        ]
        unit = decode_kvec(field, obj["unit"], dim)
        return BaseAlgebra(field, labels, sc, unit)
    raise AlgebraError(f"unknown base_algebra type {obj['type']!r}")


def _decode_endomorphism(field, K, obj):
    if obj["type"] == "character":
        chi = {lab: decode_scalar(field, v) for lab, v in obj["values"].items()}
        return character_endomorphism(K, chi)
    if obj["type"] == "matrix":
        rows = [decode_kvec(field, r, K.dim) for r in obj["matrix"]]
        return AlgebraEndomorphism(K, Matrix.from_rows(field, rows))
    raise AlgebraError(f"unknown endomorphism type {obj['type']!r}")


def _decode_bimodule(mono, obj):
    if obj is None or obj.get("type", "regular") == "regular":
        return regular_bimodule(mono)
    if obj["type"] == "matrices":
        field = mono.field
        dim = obj["dim"]
        dec = lambda m: Matrix.from_rows(field, [decode_kvec(field, r, dim) for r in m])
        return BimoduleData(
            mono, dim,
            [dec(m) for m in obj["left_k"]], dec(obj["left_x"]),
            [dec(m) for m in obj["right_k"]], dec(obj["right_x"]),
        )
    raise AlgebraError(f"unknown bimodule type {obj['type']!r}")


def _rank_one_case(field, values_by_index, n, xi):
    chi_n_id = all(v ** n == field.one for v in values_by_index)
    if not xi:
        return "xi=0"
    return "xi!=0, chi^n=id" if chi_n_id else "xi!=0, chi^n!=id"


def parse_spec(doc, max_degree=6):
    """Validate a spec document; returns ParsedSpec with all checks run."""
    name = doc.get("name", "unnamed")
    fobj = doc["field"]
    field = make_field(fobj["kind"], fobj.get("order", 1))
    summary = {"name": name, "field": repr(field)}

    if "rank_one" in doc:
        r1 = doc["rank_one"]
        labels, table = r1["labels"], r1["table"]
        K = group_algebra(labels, table, field)
        chi = {lab: decode_scalar(field, v) for lab, v in r1["character"].items()}
        n = int(r1["n"])
        xi = decode_scalar(field, r1["xi"])
        g1 = r1["g1"]
        if g1 not in K.basis_labels:
            raise AlgebraError(f"g1 label {g1!r} not in the group")
        g1_idx = K.basis_labels.index(g1)
        gt = K.group_table
        for j in range(K.dim):
            if gt[g1_idx][j] != gt[j][g1_idx]:
                raise AlgebraError(f"g1 = {g1!r} is not central (witness {labels[j]!r})")
        alpha = character_endomorphism(K, chi)
        values = [alpha.matrix.entries[i][i] for i in range(K.dim)]
        w = values[g1_idx]
        for j in range(1, n):
            if w ** j == field.one:
                raise AlgebraError(f"chi(g1) is not a primitive {n}-th root of 1")
        if w ** n != field.one:
            raise AlgebraError(f"chi(g1) is not an {n}-th root of 1")
        case = _rank_one_case(field, values, n, xi)
        summary["rank_one_case"] = case
        if case == "xi!=0, chi^n!=id":
            # replace G by G/<g1^n> and f by x^n; the ideal (x^n - xi(g1^n-1))
            # equals (x^n, g1^n - 1) when some chi^n(g) != 1
            g1n = g1_idx
            for _ in range(n - 1):
                g1n = gt[g1n][g1_idx]
            sub = subgroup_generated(gt, [g1n])
            qlabels, qtable, coset_of = quotient_group_table(labels, gt, sub)
            summary["rewrite"] = {
                "kernel_subgroup": [labels[i] for i in sub],
                "quotient_labels": qlabels,
            }
            K = group_algebra(qlabels, qtable, field)
            qchi = {}
            for i, lab in enumerate(labels):
                qchi.setdefault(qlabels[coset_of[i]], chi[lab])
                if qchi[qlabels[coset_of[i]]] != chi[lab]:
                    raise AlgebraError("character does not descend to the quotient group")
            alpha = character_endomorphism(K, qchi)
            lambdas = [[field.zero] * K.dim for _ in range(n)]
        else:
            # f = x^n - xi*(g1^n - 1)
            g1n_vec = K.basis_vector(g1_idx)
            for _ in range(n - 1):
                g1n_vec = K.mul_vec(g1n_vec, K.basis_vector(g1_idx))
            lam_n = [xi * (u - g) for u, g in zip(K.unit, g1n_vec)]
            lambdas = [[field.zero] * K.dim for _ in range(n - 1)] + [lam_n]
        lambda_breve = K.basis_vector(K.basis_labels.index(g1)) if g1 in K.basis_labels else None
        bim_obj = doc.get("bimodule")
    else:
        K = _decode_base_algebra(field, doc["base_algebra"])
        alpha = _decode_endomorphism(field, K, doc["endomorphism"])
        ext = doc["extension"]
        n = int(ext["n"])
        lambdas = [decode_kvec(field, v, K.dim) for v in ext["lambdas"]]
        lambda_breve = (
            decode_kvec(field, doc["lambda_breve"], K.dim) if "lambda_breve" in doc else None
        )
        bim_obj = doc.get("bimodule")

    mono = validate_monogenic(K, alpha, n, lambdas)
    bimodule = _decode_bimodule(mono, bim_obj)

    max_j = n * (max_degree // 2 + 2) + n
    collapse = check_collapse(mono, max_j)
    summary["collapse"] = {
        "holds": collapse.holds,
        "max_j": max_j,
        "failing": sorted(j for j, (full, _) in collapse.entries.items() if not full),
    }
    if lambda_breve is not None:
        ok, reason = verify_lambda_breve(mono, lambda_breve)
        summary["lambda_breve"] = {"accepted": ok, "reason": reason}
    try:
        comps = eigen_split(K, alpha)
        summary["diagonalizable"] = True
        summary["eigenvalues"] = [encode_scalar(field, w) for w, _ in comps]
    except AlgebraError:
        summary["diagonalizable"] = False
    return ParsedSpec(name, mono, bimodule, lambda_breve, summary)
