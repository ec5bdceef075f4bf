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
    BaseAlgebra,
    BimoduleData,
    character_endomorphism,
    check_collapse,
    check_endomorphism,
    check_extension_degree,
    eigen_split,
    group_algebra,
    quotient_group_table,
    regular_bimodule,
    subgroup_generated,
    validate_monogenic,
    verify_lambda_breve,
)
from .fields import make_field
from .linalg import ColMap, sparse, sub_terms


# -- scalar / vector codecs ---------------------------------------------------

def encode_scalar(field, s):
    if field.kind == "rationals":
        return str(Fraction(s))
    return [str(c) for c in field.coefficients(s)]


def decode_scalar(field, obj, path="scalar"):
    """An exact scalar of ``field``, or AlgebraError naming ``path``."""
    try:
        if isinstance(obj, (str, int)) and not isinstance(obj, bool):
            return field.from_fraction(Fraction(obj))
        if isinstance(obj, list) and all(isinstance(c, (str, int)) for c in obj):
            return field.scalar([Fraction(c) for c in obj])
    except (ValueError, ZeroDivisionError):
        pass
    raise AlgebraError(f"{path}: cannot decode scalar {obj!r}")


def decode_kvec(field, obj, dim, path="vector"):
    """A dense list of ``dim`` scalars as a sparse ``{index: scalar}`` dict."""
    if not isinstance(obj, list):
        raise AlgebraError(f"{path} must be a list of {dim} scalars, got {type(obj).__name__}")
    if len(obj) != dim:
        raise AlgebraError(f"{path}: coefficient vector of length {len(obj)}, expected {dim}")
    return sparse([decode_scalar(field, c, f"{path}[{i}]") for i, c in enumerate(obj)])


def _decode_map(field, obj, dim, path):
    """The ColMap of a dim x dim matrix given as its list of rows."""
    if not isinstance(obj, list) or len(obj) != dim:
        raise AlgebraError(f"{path} must be a list of {dim} rows")
    rows = [decode_kvec(field, r, dim, f"{path}[{i}]") for i, r in enumerate(obj)]
    return ColMap(field, dim, dim, [{i: row[j] for i, row in enumerate(rows) if j in row} for j in range(dim)])


# -- group table builders -----------------------------------------------------

def cyclic_group(m):
    labels = ["e"] + ["g" if j == 1 else f"g{j}" for j in range(1, m)]
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
    path = "spec.base_algebra"
    kind = _key(obj, "type", path)
    if kind == "group":
        return _checked(path, group_algebra, _labels(obj, path), _table(obj, path), field)
    if kind == "structure_constants":
        labels = _labels(obj, path)
        constants = _key(obj, "constants", path, list)
        dim = len(labels)
        if len(constants) != dim or not all(isinstance(row, list) and len(row) == dim for row in constants):
            raise AlgebraError(f"{path}.constants must be a {dim} x {dim} array of vectors")
        sc = [
            [decode_kvec(field, constants[i][j], dim, f"{path}.constants[{i}][{j}]") for j in range(dim)]
            for i in range(dim)
        ]
        unit = decode_kvec(field, _key(obj, "unit", path), dim, f"{path}.unit")
        return _checked(path, BaseAlgebra, field, labels, sc, unit)
    raise AlgebraError(f"unknown base_algebra type {kind!r}")


def _decode_character(field, obj, key, path):
    values = _key(obj, key, path, dict)
    return {lab: decode_scalar(field, v, f"{path}.{key}.{lab}") for lab, v in values.items()}


def _decode_endomorphism(field, K, obj):
    path = "spec.endomorphism"
    kind = _key(obj, "type", path)
    if kind == "character":
        return _checked(f"{path}.values", character_endomorphism, K, _decode_character(field, obj, "values", path))
    if kind == "matrix":
        alpha = _decode_map(field, _key(obj, "matrix", path), K.dim, f"{path}.matrix")
        _checked(f"{path}.matrix", check_endomorphism, K, alpha)
        return alpha
    raise AlgebraError(f"unknown endomorphism type {kind!r}")


def _decode_bimodule(mono, obj):
    path = "spec.bimodule"
    kind = "regular" if obj is None else _object(obj, path).get("type", "regular")
    if kind == "regular":
        return regular_bimodule(mono)
    if kind == "matrices":
        field = mono.field
        dim = _int_key(obj, "dim", path)
        if dim < 1:
            raise AlgebraError(f"{path}.dim must be >= 1, got {dim}")

        def matrices(key):
            ms = _key(obj, key, path, list)
            if len(ms) != mono.base.dim:
                raise AlgebraError(f"{path}.{key} needs {mono.base.dim} matrices, one per K-basis element")
            return [_decode_map(field, m, dim, f"{path}.{key}[{t}]") for t, m in enumerate(ms)]

        M = BimoduleData(
            mono, dim,
            matrices("left_k"), _decode_map(field, _key(obj, "left_x", path), dim, f"{path}.left_x"),
            matrices("right_k"), _decode_map(field, _key(obj, "right_x", path), dim, f"{path}.right_x"),
        )
        _checked(path, M.check)
        return M
    raise AlgebraError(f"unknown bimodule type {kind!r}")


def _checked(path, validate, *args):
    """The value of ``validate(*args)``; the AlgebraError it raises names the spec path."""
    try:
        return validate(*args)
    except AlgebraError as exc:
        raise AlgebraError(f"{path}: {exc}") from None


def _rank_one_case(field, values_by_index, n, xi):
    chi_n_id = all(v ** n == field.one for v in values_by_index)
    if not xi:
        return "xi=0"
    return "xi!=0, chi^n=id" if chi_n_id else "xi!=0, chi^n!=id"


def _object(obj, path):
    if not isinstance(obj, dict):
        raise AlgebraError(f"{path} must be a JSON object, got {type(obj).__name__}")
    return obj


_JSON_TYPE_NAMES = {dict: "JSON object", list: "list"}


def _key(obj, key, path, kind=None):
    """``obj[key]``, or AlgebraError naming what is missing or mistyped at ``path``."""
    if key not in _object(obj, path):
        raise AlgebraError(f"{path} has no {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise AlgebraError(f"{path}.{key} must be a {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def _int_key(obj, key, path):
    """``obj[key]`` as an integer (a JSON number or a decimal string)."""
    value = _key(obj, key, path)
    try:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    except ValueError:
        pass
    raise AlgebraError(f"{path}.{key} must be an integer, got {value!r}")


def _labels(obj, path):
    labels = _key(obj, "labels", path, list)
    if not all(isinstance(lab, str) for lab in labels):
        raise AlgebraError(f"{path}.labels must be a list of strings")
    return labels


def _table(obj, path):
    table = _key(obj, "table", path, list)
    if not all(isinstance(row, list) and all(isinstance(lab, str) for lab in row) for row in table):
        raise AlgebraError(f"{path}.table must be a list of rows of labels")
    return table


def parse_spec(doc, max_degree=6):
    """Validate a spec document; returns ParsedSpec with all checks run."""
    fobj = _key(doc, "field", "spec")
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise AlgebraError(f"spec.name must be a string, got {type(name).__name__}")
    kind = _key(fobj, "kind", "spec.field")
    order = _int_key(fobj, "order", "spec.field") if "order" in fobj else 1
    try:
        field = make_field(kind, order)
    except ValueError as exc:
        raise AlgebraError(f"spec.field: {exc}") from None
    summary = {"name": name, "field": repr(field)}

    if "rank_one" in doc:
        r1, path = doc["rank_one"], "spec.rank_one"
        labels, table = _labels(r1, path), _table(r1, path)
        K = _checked(path, group_algebra, labels, table, field)
        chi = _decode_character(field, r1, "character", path)
        n = _int_key(r1, "n", path)
        _checked(path, check_extension_degree, n)
        xi = decode_scalar(field, _key(r1, "xi", path), f"{path}.xi")
        g1 = _key(r1, "g1", path)
        if g1 not in K.basis_labels:
            raise AlgebraError(f"{path}.g1: g1 label {g1!r} not in the group")
        g1_idx = K.basis_labels.index(g1)
        gt = K.group_table
        for j in range(K.dim):
            if gt[g1_idx][j] != gt[j][g1_idx]:
                raise AlgebraError(f"{path}.g1: g1 = {g1!r} is not central (witness {labels[j]!r})")
        alpha = _checked(f"{path}.character", character_endomorphism, K, chi)
        values = [alpha.cols[i][i] for i in range(K.dim)]
        w = values[g1_idx]
        for j in range(1, n):
            if w ** j == field.one:
                raise AlgebraError(f"{path}.g1: chi(g1) is not a primitive {n}-th root of 1")
        if w ** n != field.one:
            raise AlgebraError(f"{path}.g1: chi(g1) is not an {n}-th root of 1")
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
            lambdas = [{} for _ in range(n)]
        else:
            # f = x^n - xi*(g1^n - 1)
            g1n_vec = K.basis_vector(g1_idx)
            for _ in range(n - 1):
                g1n_vec = K.product(g1n_vec, K.basis_vector(g1_idx))
            lam_n = {k: xi * c for k, c in sub_terms(dict(K.unit), g1n_vec).items()} if xi else {}
            lambdas = [{} for _ in range(n - 1)] + [lam_n]
        lambda_breve = K.basis_vector(K.basis_labels.index(g1)) if g1 in K.basis_labels else None
        bim_obj = doc.get("bimodule")
    elif "base_algebra" not in doc:
        raise AlgebraError("spec has neither 'base_algebra' nor 'rank_one'")
    else:
        K = _decode_base_algebra(field, doc["base_algebra"])
        alpha = _decode_endomorphism(field, K, _key(doc, "endomorphism", "spec"))
        path = "spec.extension"
        ext = _key(doc, "extension", "spec")
        n = _int_key(ext, "n", path)
        lambdas = [
            decode_kvec(field, v, K.dim, f"{path}.lambdas[{i}]")
            for i, v in enumerate(_key(ext, "lambdas", path, list))
        ]
        lambda_breve = (
            decode_kvec(field, doc["lambda_breve"], K.dim, "spec.lambda_breve")
            if "lambda_breve" in doc else None
        )
        bim_obj = doc.get("bimodule")

    mono = _checked(path, validate_monogenic, K, alpha, n, lambdas)
    bimodule = _decode_bimodule(mono, bim_obj)

    max_j = n * (max_degree // 2 + 2) + n
    collapse = check_collapse(mono, max_j)
    summary["collapse"] = {
        "holds": all(full for full, _ in collapse.values()),
        "max_j": max_j,
        "failing": sorted(j for j, (full, _) in collapse.items() if not full),
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
