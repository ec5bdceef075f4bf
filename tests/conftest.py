"""One ``Workspace`` per shipped fixture, shared by the whole session.

Each workspace grows to the largest window a test asks for, so the suite
builds each level of each complex once.
"""

from orehom.spec_io import build_example, parse_spec
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
