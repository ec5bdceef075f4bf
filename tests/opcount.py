"""Count the Python opcodes one pass of a benchmark workload executes.

    python3 tests/opcount.py [--tree DIR] WORKLOAD...

The command lines of each workload are read from ``DIR/perfbench/run.py``
(``WORKLOADS``), and ``orehom`` is imported from ``DIR/src``; DIR defaults
to the checkout holding this script.  Each command runs in this process as
``orehom.cli.main(argv + ["--json"])``, as the benchmark's worker runs it,
with its output discarded.  A workload runs one warm pass, then one pass
under ``sys.settrace`` with opcode events on, and prints ``workload count``:
the opcodes executed in that pass, in every Python frame.  The cyclic
garbage collector is off during the counted pass, so no finalizer of
earlier work runs inside it and adds to the count.  Unlike a time,
the count does not move with the host's load, so two trees can be compared
one run each.
"""

import argparse
import contextlib
import gc
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def workloads(tree):
    """``WORKLOADS`` of the tree's ``perfbench/run.py``: name -> list of argv."""
    sys.path.insert(0, str(tree / "perfbench"))  # run.py imports its neighbours
    spec = importlib.util.spec_from_file_location("perfbench_run", tree / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


def _pass(main, argvs):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            main(argv + ["--json"])


def count_opcodes(argvs):
    """Opcodes executed by one pass over ``argvs``, after one warm pass."""
    from orehom.cli import main

    _pass(main, argvs)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    gc.collect()
    gc.disable()
    sys.settrace(call)
    try:
        _pass(main, argvs)
    finally:
        sys.settrace(None)
        gc.enable()
    return count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("workload", nargs="+")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    table = workloads(tree)
    sys.path.insert(0, str(tree / "src"))
    for name in args.workload:
        print(name, count_opcodes(table[name]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
