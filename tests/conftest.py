"""One parsed spec per test document, shared by the whole session.

A test document is a shipped example, taft:N, or one of the documents
below: the dual numbers (alpha of infinite order), the C_2 cubic and the
``RANK_ONE`` documents.  ``get_spec`` parses each once, and ``parse_fresh``
parses it anew, with nothing kept on it.

Tests reach the complexes of a fixture through the functions the command
line calls, which keep them on the bimodule M or on the algebra:
``build_cs`` reads the spaces and boundaries of C^S kept on M (the
boundaries once per key), and ``bar_complex``, ``bar_resolution`` and
``comparison`` keep the bar side, each level built on its first read.  So the tests of one fixture
share every map they read.

Every ``@given`` test draws its examples from a fixed seed and replays no
example database (the ``deterministic`` profile below), so two runs of one
tree test the same inputs.
"""

import inspect

from hypothesis import settings

from orehom.fields import make_field
from orehom.linalg import ColMap
from orehom.spec_io import build_example, cyclic_group, encode_scalar, parse_spec

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

_PARSED = {}

# xi = 0, and xi != 0 with chi^n != id (rewritten over G/<g1^n> with f = x^n)
RANK_ONE = {"rank-one(6,1,2,3,0)": (6, 1, 2, 3, 0), "rank-one(8,1,2,4,1)": (8, 1, 2, 4, 1)}


def _dual_numbers_doc():
    """K = Q[e]/(e^2) with alpha(e) = 2e: no power of alpha is the identity."""
    return {
        "name": "dual-numbers",
        "field": {"kind": "rationals"},
        "base_algebra": {
            "type": "structure_constants",
            "labels": ["1", "e"],
            "constants": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
            "unit": ["1", "0"],
        },
        "endomorphism": {"type": "matrix", "matrix": [["1", "0"], ["0", "2"]]},
        "extension": {"n": 2, "lambdas": [["0", "0"], ["0", "0"]]},
    }


def _c2_cubic_doc():
    """K = Q[C_2] with alpha(g) = -g, n = 3 and f = x^3 + x: x^3 = -x and
    x^4 = -x^2 in A, so a merged middle slot x^s with s >= n has a coefficient
    c_tp at tp >= 1 that comes from reducing x^s, and c_tp is not 1."""
    return {
        "name": "c2-cubic",
        "field": {"kind": "rationals"},
        "base_algebra": {"type": "group", "labels": ["e", "g"], "table": [["e", "g"], ["g", "e"]]},
        "endomorphism": {"type": "character", "values": {"e": "1", "g": "-1"}},
        "extension": {"n": 3, "lambdas": [["0", "0"], ["1", "0"], ["0", "0"]]},
    }


# the structure-constant documents, parsed with max_degree=5
DOCUMENTS = {"dual-numbers": _dual_numbers_doc, "c2-cubic": _c2_cubic_doc}


def parse_fresh(name):
    """The test document ``name`` parsed anew."""
    if name in DOCUMENTS:
        return parse_spec(DOCUMENTS[name](), max_degree=5)
    return parse_spec(rank_one_doc(*RANK_ONE[name]) if name in RANK_ONE else build_example(name))


def get_spec(name):
    """The parsed spec of the test document ``name``, parsed once per session."""
    parsed = _PARSED.get(name)
    if parsed is None:
        parsed = _PARSED[name] = parse_fresh(name)
    return parsed


def mono_and_m(name):
    """(mono, M) of the test document ``name``, read off ``get_spec``."""
    parsed = get_spec(name)
    return parsed.mono, parsed.bimodule


def encode_kvec(field, vec):
    """A dense list of scalars as a spec document writes it."""
    return [encode_scalar(field, c) for c in vec]


def right_mult_map(K, u):
    """Right multiplication by the K-element u as a ColMap; column j is the
    sparse product e_j u."""
    one = K.field.one
    return ColMap(K.dim, K.dim, [K.product({j: one}, u) for j in range(K.dim)])


def is_zero(m):
    """Whether every column of the map m is zero."""
    return not any(m.cols)


def kept_keys(owner, fn):
    """The arguments under which ``fn`` keeps values on ``owner``: the
    ``args`` of each value of a ``memo``, and the key after ``fn`` of each
    value of a ``kept``.  A wrapped ``fn`` is unwrapped first."""
    fn = inspect.unwrap(fn)
    store = vars(owner).get("_kept", {})
    return list(store.get(fn, ())) + [key[1:] for key in store if isinstance(key, tuple) and key[0] is fn]


SHIPPED = ("trunc:3", "sweedler", "taft:3", "rank1:c4", "dihedral:3", "dihedral:4")
COLLAPSING = ("sweedler", "taft:3", "rank1:c4", "rank1nc:c2xc4")


def rank_one_doc(N, k, p, n, xi):
    """The rank-one document of G = C_N = <g> over Q(zeta_N), with
    chi(g) = zeta_N^k, g1 = g^p, f = x^n - xi (g1^n - 1)."""
    labels, table = cyclic_group(N)
    F = make_field("cyclotomic", N)
    z = F.root()
    return {
        "name": f"rank-one({N},{k},{p},{n},{xi})",
        "field": {"kind": "cyclotomic", "order": N},
        "rank_one": {
            "labels": labels,
            "table": table,
            "character": {lab: encode_scalar(F, z ** (k * j)) for j, lab in enumerate(labels)},
            "g1": labels[p],
            "n": n,
            "xi": str(xi),
        },
    }
