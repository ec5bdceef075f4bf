"""Record the expected report digest of every benchmark command.

Run from the root of a checkout whose reports are known to be right:

    python3 perfbench/expected.py

Each command runs once in a worker (as in run.py).  A digest is written to
``perfbench/expected_reports.json`` only after the command exits 0, every
``comparisons[*].agrees`` in its report is true and, for ``verify``,
``all_passed`` is true; otherwise the script names the command and writes
nothing.
"""

import json
import os
import sys

import run


def main():
    root = os.getcwd()
    digests, bad = {}, []
    for commands in run.WORKLOADS.values():
        for argv in commands:
            key = run.command_key(argv)
            if key in digests:
                continue
            result = run.run_worker(root, argv, run.COMMAND_TIMEOUT_S)
            failure = run.check_report(argv, result)
            print(f"{key}: {failure or 'ok'} ({result.get('wall_s', 0):.2f} s)", flush=True)
            if failure:
                bad.append(key)
            else:
                digests[key] = run.report_digest(result["report"])
    if bad:
        print(f"not written: {len(bad)} command(s) failed", file=sys.stderr)
        return 1
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
