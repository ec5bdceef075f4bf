"""One parsed spec per shipped fixture, shared by the whole session.

Tests reach the complexes of a fixture through the functions the command
line calls, which keep them on the bimodule M or on the algebra:
``build_cs`` reads the spaces and boundaries of C^S kept on M (the
boundaries once per key), and ``bar_complex``, ``bar_resolution`` and
``comparison`` keep the bar side, each level built on its first read.  So the tests of one fixture
share every map they read.
"""

import inspect

from orehom.fields import make_field
from orehom.linalg import ColMap
from orehom.spec_io import build_example, cyclic_group, encode_scalar, parse_spec

_PARSED = {}


def get_spec(name):
    """The parsed spec of the example ``name``, parsed once per session."""
    parsed = _PARSED.get(name)
    if parsed is None:
        parsed = _PARSED[name] = parse_spec(build_example(name))
    return parsed


def encode_kvec(field, vec):
    """A dense list of scalars as a spec document writes it."""
    return [encode_scalar(field, c) for c in vec]


def right_mult_map(K, u):
    """Right multiplication by the K-element u as a ColMap; column j is the
    sparse product e_j u."""
    one = K.field.one
    return ColMap(K.field, K.dim, K.dim, [K.product({j: one}, u) for j in range(K.dim)])


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
