"""Run one orehom CLI command in this process and print one JSON result line.

Usage (run.py starts it; one worker per command):

    python3 perfbench/worker.py '<json config>'

The config holds ``argv`` (the CLI arguments without ``--json``), ``src``
(the directory holding the ``orehom`` package), ``mem_limit`` (bytes of
address space), and, for a traced run, ``trace_path`` and ``command_id``.
The worker limits its own address space, imports ``orehom.cli`` and then
calls ``orehom.cli.main(argv + ["--json"])`` with stdout captured, so
interpreter start-up and imports stay out of the command's time.  Around
and during the command it times calibration units (calibrate.py) and takes
the ones timed during it out of the command's times.  The result line
carries the timings, the units' times, the exit code and the report text;
judging the report and scaling the times are left to run.py.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import calibrate    # found next to this script

CALIBRATION_UNITS = 6         # calibration units timed before and after the command
CALIBRATION_INTERVAL_S = 0.15  # and one unit this often while it runs (untraced only)


def main(config):
    limit = config["mem_limit"]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, config["src"])
    import orehom.cli

    ready_at = time.monotonic()
    calibration = calibrate.Calibration()
    calibration.sample(CALIBRATION_UNITS)
    tracer = None
    if config.get("trace_path"):
        from tracer import ROOT, Tracer    # found next to this script

        tracer = Tracer(config["command_id"])
        tracer.install()
    call = orehom.cli.main if tracer is None else tracer.span(ROOT, orehom.cli.main)

    out = io.StringIO()
    error = None
    rc = None
    # the tracer's spans would count the units, so a traced command runs
    # without them
    sampling = (contextlib.nullcontext() if tracer is not None
                else calibration.during(CALIBRATION_INTERVAL_S))
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with sampling, contextlib.redirect_stdout(out):
            rc = call(config["argv"] + ["--json"])
    except MemoryError:
        error = "MemoryError"
    except SystemExit as exc:          # argparse rejected the arguments
        rc = exc.code
    except Exception as exc:           # reported as a failed command
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    wall = time.perf_counter() - t0 - calibration.block_wall_s
    cpu = time.process_time() - cpu0 - calibration.block_cpu_s
    calibration.sample(CALIBRATION_UNITS)
    result = {
        "ready_at": ready_at,
        "wall_s": wall,
        "cpu_s": cpu,
        "rc": rc,
        "error": error,
        "report": out.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calibration_s": calibration.units,
    }
    if tracer is not None:
        tracer.uninstall()
        result["metrics"] = tracer.metrics()
        result["missing_targets"] = tracer.missing
        with open(config["trace_path"], "a", encoding="utf-8") as fh:
            tracer.write_spans(fh)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
