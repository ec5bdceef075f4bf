"""One ``Workspace`` per shipped fixture, shared by the whole session.

Each workspace grows to the largest window a test asks for, so the suite
builds each level of each complex once.
"""

from orehom.fields import make_field
from orehom.spec_io import build_example, cyclic_group, encode_scalar, parse_spec
from orehom.workspace import Workspace

_WORKSPACES = {}


def get_context(name):
    ws = _WORKSPACES.get(name)
    if ws is None:
        parsed = parse_spec(build_example(name))
        ws = _WORKSPACES[name] = Workspace(parsed.mono, parsed.bimodule)
    return ws


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
