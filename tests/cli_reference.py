"""The argparse front end that ``orehom.cli`` used to build on every call,
kept apart from the package: the reference its table-driven ``getopt``
parse is tested against.  It hands the ``cmd_*`` handlers of
``orehom.cli`` to ``set_defaults`` exactly as the old ``main`` did.
"""

import argparse

from orehom.cli import cmd_example, cmd_hc, cmd_hh, cmd_verify
from orehom.spec_io import EXAMPLE_NAMES


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orehom",
        description="Exact Hochschild and cyclic homology of monogenic Ore quotients",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="spec file path or example name")
        p.add_argument("--max-degree", type=int, default=6, dest="max_degree")
        p.add_argument("--json", action="store_true")

    p_hh = sub.add_parser("hh", help="Hochschild homology dimensions")
    common(p_hh)
    p_hh.add_argument("--decompose", action="store_true")
    p_hh.add_argument("--closed-form", action="store_true", dest="closed_form")
    p_hh.add_argument("--oracle", action="store_true")
    p_hh.add_argument("--basis", action="store_true")
    p_hh.set_defaults(func=cmd_hh)

    p_hc = sub.add_parser("hc", help="cyclic homology dimensions")
    common(p_hc)
    p_hc.add_argument("--decompose", action="store_true")
    p_hc.add_argument("--closed-form", action="store_true", dest="closed_form")
    p_hc.add_argument("--oracle", action="store_true")
    p_hc.set_defaults(func=cmd_hc)

    p_v = sub.add_parser("verify", help="run the identity suites")
    common(p_v)
    p_v.set_defaults(func=cmd_verify)

    p_e = sub.add_parser("example", help="emit a named example spec")
    p_e.add_argument("name", help=f"one of {', '.join(EXAMPLE_NAMES)} (families accept other parameters)")
    p_e.add_argument("--out", default=None)
    p_e.set_defaults(func=cmd_example)
    return parser


def parse_args(argv):
    """The argparse namespace of ``argv`` as a dict; a usage error exits 2."""
    return vars(build_parser().parse_args(argv))
