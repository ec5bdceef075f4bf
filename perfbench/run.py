"""End-to-end benchmark of the orehom CLI: ``hh``, ``hc`` and ``verify``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small --seed 1 --seconds 30 --trace 0

Each command of the workload runs in a fresh worker process (worker.py), one
at a time.  The worker imports ``orehom.cli`` from ``src/`` and calls
``orehom.cli.main(argv + ["--json"])``; its report must exit 0, agree with
every comparison it makes, and match the digest recorded in
``expected_reports.json``.  A pass runs every command once, in an order
drawn from ``--seed``.  A run makes one whole pass, then starts commands of
further passes until ``--seconds`` is up; each metric takes the per-command
median over the passes.  Times are divided by the host's slowdown that each
worker measures with calibrate.py, so they read in nominal-host seconds.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` one untraced and one traced pass run, and it reports the
per-layer metrics of tracer.py (as measured, not scaled) plus
``trace.overhead_frac``.  Spans go to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

import calibrate
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_reports.json")
OUT_DIR = os.path.join(HERE, "out")

MEM_LIMIT = 1 << 30          # bytes of address space per worker
COMMAND_TIMEOUT_S = 120.0    # wall-clock limit per worker
RUN_DEADLINE_S = 165.0       # no command starts after this point of a run

FIXTURES = (
    "trunc:2", "trunc:3", "trunc:4", "sweedler", "taft:2", "taft:3",
    "rank1:c4", "rank1nc:c2xc4", "dihedral:3", "dihedral:4",
)


def _argv(cmd, fixture, degree, *flags):
    return [cmd, "--spec", fixture, "--max-degree", str(degree), *flags]


WORKLOADS = {
    "small": [c for f in FIXTURES for c in (
        _argv("hh", f, 12, "--closed-form", "--decompose", "--basis"),
        _argv("hc", f, 12, "--closed-form", "--decompose"))],
    # degree 5, not 6: at 6 one pass takes 25-37 s on a 2-vCPU host, which
    # leaves no room for repeated passes within the run budget
    "oracle": [_argv(cmd, f, 5, "--oracle") for f in FIXTURES for cmd in ("hh", "hc")],
    "verify": [_argv("verify", f, 6) for f in FIXTURES if f != "trunc:4"],
}

# verify --spec trunc:4 exhausts memory in vanishing_check (a dense
# projection over a 26244-wide BarSpace at level 8) at every degree window.
# It runs once per untraced verify run, after the timed passes, so the
# defect stays visible; the smallest window fails soonest.
KNOWN_DEFECT_PROBE = _argv("verify", "trunc:4", 2)

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "slowest_cmd_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


def command_key(argv):
    return " ".join(argv)


def report_digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_report(argv, result):
    """None if the command exited 0 with a report that agrees with itself;
    otherwise the reason it failed.  The digest is not looked at here."""
    if result.get("error"):
        return result["error"]
    if result.get("rc") != 0:
        return f"exit code {result.get('rc')}"
    try:
        report = json.loads(result["report"])
    except ValueError:
        return "report is not JSON"
    problems = [f"comparison disagrees: {c.get('against')}"
                for c in report.get("comparisons", []) if c.get("agrees") is not True]
    if argv[0] == "verify" and report.get("all_passed") is not True:
        problems.append("verify: all_passed is not true")
    return "; ".join(problems) or None


def judge(argv, result, expected):
    """None if the command passed the gate; otherwise the reason it failed."""
    failure = check_report(argv, result)
    if failure:
        return failure
    want = expected.get(command_key(argv))
    if want is None:
        return "no expected digest"
    if report_digest(result["report"]) != want:
        return "report differs from the expected report"
    return None


def run_worker(root, argv, timeout, trace_path=None, command_id=0, mem_limit=MEM_LIMIT):
    """Run one command in a fresh worker; never raises for a failed command.

    Returns a dict with ``setup_s``, ``wall_s``, ``cpu_s``, ``rc``, ``error``,
    ``report``, ``maxrss_kb`` and, when traced, ``metrics``.
    """
    config = {"argv": argv, "src": os.path.join(root, "src"), "mem_limit": mem_limit,
              "trace_path": trace_path, "command_id": command_id}
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(config)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, cwd=root,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timeout after {timeout:.0f} s", "wall_s": time.monotonic() - started}
    lines = out.decode("utf-8", "replace").strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"worker ended without a result (status {proc.returncode})",
                "wall_s": time.monotonic() - started}
    result["setup_s"] = result.pop("ready_at") - started
    return result


def run_pass(root, commands, order, expected, deadline, trace_path=None, start_by=None):
    """Run the commands in ``order``, starting none after ``start_by`` and
    killing any still running at ``deadline``; returns {index: (result, failure)}."""
    outcomes = {}
    for i in order:
        now = time.monotonic()
        remaining = deadline - now
        if remaining <= 0 or (start_by is not None and now >= start_by):
            break
        result = run_worker(root, commands[i], min(COMMAND_TIMEOUT_S, remaining), trace_path, i)
        outcomes[i] = (result, judge(commands[i], result, expected))
    return outcomes


def end_to_end(passes, scale=True):
    """End-to-end metrics from the passes: per-command medians, then sum/max.

    Times are in nominal-host seconds: each command's measured seconds
    divided by the host's slowdown that its worker's calibration units
    measured (calibrate.py).  With ``scale=False`` they are as measured.
    """
    per_cmd = {}
    for outcomes in passes:
        for i, (result, _) in outcomes.items():
            per_cmd.setdefault(i, []).append(result)

    def medians(key):
        samples = ([r[key] / (calibrate.slowdown(r["calibration_s"]) if scale else 1.0)
                    for r in results if key in r and r.get("calibration_s")]
                   for results in per_cmd.values())
        return [statistics.median(v) for v in samples if v]

    wall = medians("wall_s")
    rss = [r["maxrss_kb"] for results in per_cmd.values() for r in results if "maxrss_kb" in r]
    return {
        "wall_s": sum(wall),
        "cpu_s": sum(medians("cpu_s")),
        "slowest_cmd_s": max(wall, default=0.0),
        "setup_s": sum(medians("setup_s")),
        "peak_rss_mb": max(rss, default=0) / 1024.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "orehom", "cli.py")):
        print("perfbench: src/orehom/cli.py not found; run from the root of an orehom checkout",
              file=sys.stderr)
        return 2
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    commands = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    def order():
        idx = list(range(len(commands)))
        rng.shuffle(idx)
        return idx

    # fill the bytecode and file caches before anything is timed
    run_worker(root, _argv("hh", "trunc:2", 2), COMMAND_TIMEOUT_S)
    measuring = time.monotonic()

    trace_path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        open(trace_path, "w").close()
        passes = [run_pass(root, commands, order(), expected, deadline)]
        passes.append(run_pass(root, commands, order(), expected, deadline, trace_path))
    else:
        # the first pass runs every command; later ones start commands until
        # --seconds is up, so the last of them is usually partial
        start_by = measuring + args.seconds
        passes = [run_pass(root, commands, order(), expected, deadline)]
        while time.monotonic() < start_by:
            passes.append(run_pass(root, commands, order(), expected, deadline, start_by=start_by))

    attempted = sum(len(p) for p in passes)
    failures = [(commands[i], why) for p in passes for i, (_, why) in sorted(p.items()) if why]
    for cmd, why in failures:
        print(f"FAILED {command_key(cmd)}: {why}")
    complete = all(len(p) == len(commands) for p in (passes if args.trace else passes[:1]))
    if not complete:
        print(f"run deadline of {RUN_DEADLINE_S:.0f} s reached before every command ran")

    if args.workload == "verify" and not args.trace:
        probe = run_worker(root, KNOWN_DEFECT_PROBE, min(COMMAND_TIMEOUT_S, max(1.0, deadline - time.monotonic())))
        why = judge(KNOWN_DEFECT_PROBE, probe, expected)
        state = f"still fails ({why})" if why else "now passes; add trunc:4 to the verify workload"
        print(f"known defect: {command_key(KNOWN_DEFECT_PROBE)} {state} after {probe.get('wall_s', 0):.1f} s")

    if args.trace:
        untraced, traced = passes
        missing = sorted({m for r, _ in traced.values() for m in r.get("missing_targets", [])})
        if missing:
            print(f"tracer targets not found (their metrics read 0): {', '.join(missing)}")
        metrics = tracer.fold([r.get("metrics", {}) for r, _ in traced.values()])
        # as measured: a traced worker times no units during its command, so
        # its slowdown would not be comparable with an untraced one's
        common = set(untraced) & set(traced)
        base = sum(untraced[i][0].get("wall_s", 0.0) for i in common)
        metrics["trace.overhead_frac"] = (
            sum(traced[i][0].get("wall_s", 0.0) for i in common) / base - 1.0 if base else 0.0)
        units = dict(tracer.METRIC_UNITS, **{"trace.overhead_frac": "ratio"})
    else:
        metrics = end_to_end(passes)
        units = END_TO_END_UNITS
        measured = end_to_end(passes, scale=False)
        print(f"as measured: wall_s={measured['wall_s']:.3f} setup_s={measured['setup_s']:.3f}")

    print(f"perfbench workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"commands={len(commands)} elapsed_s={time.monotonic() - started:.1f}")
    print(json.dumps({
        "correct": not failures and complete,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
