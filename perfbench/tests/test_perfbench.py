"""Tests of the benchmark itself: the report gate, the limit-to-failure path,
the rebinding tracer, and BENCHMARK.json against the metrics the code prints.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

CHEAP = run._argv("hh", "taft:3", 5, "--oracle")   # cyclotomic, about 1.5 s


@pytest.fixture(scope="module")
def expected():
    with open(run.EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def cheap_result():
    return run.run_worker(ROOT, CHEAP, 60)


# -- digest gate ---------------------------------------------------------------

def test_every_workload_command_has_an_expected_digest(expected):
    keys = {run.command_key(c) for cmds in run.WORKLOADS.values() for c in cmds}
    assert keys == set(expected)


def test_gate_passes_the_expected_report(cheap_result, expected):
    assert run.judge(CHEAP, cheap_result, expected) is None


def test_gate_fails_a_report_that_differs_by_one_byte(cheap_result, expected):
    drifted = dict(cheap_result, report=cheap_result["report"].replace('"hh"', '"hh" '))
    assert run.judge(CHEAP, drifted, expected) == "report differs from the expected report"


def test_gate_fails_a_disagreeing_comparison(cheap_result, expected):
    report = json.loads(cheap_result["report"])
    report["comparisons"][0]["agrees"] = False
    bad = dict(cheap_result, report=json.dumps(report))
    assert run.judge(CHEAP, bad, expected).startswith("comparison disagrees")


def test_gate_fails_verify_without_all_passed():
    argv = run._argv("verify", "taft:2", 6)
    result = {"rc": 0, "error": None, "report": json.dumps({"all_passed": False, "checks": []})}
    assert run.judge(argv, result, {}) == "verify: all_passed is not true"


def test_gate_fails_nonzero_exit_and_unknown_command(cheap_result, expected):
    assert run.judge(CHEAP, dict(cheap_result, rc=2), expected) == "exit code 2"
    assert run.judge(CHEAP, cheap_result, {}) == "no expected digest"


# -- limits turn into failed commands -----------------------------------------

def test_memory_limit_is_a_failed_command(expected):
    result = run.run_worker(ROOT, run.KNOWN_DEFECT_PROBE, 60, mem_limit=256 << 20)
    assert result["error"] == "MemoryError"
    assert run.judge(run.KNOWN_DEFECT_PROBE, result, expected) == "MemoryError"


def test_timeout_kills_the_worker_and_is_a_failed_command(expected):
    argv = run._argv("hh", "trunc:4", 6, "--oracle")
    result = run.run_worker(ROOT, argv, 1.0)
    assert result["error"].startswith("timeout")
    assert run.judge(argv, result, expected).startswith("timeout")


def test_end_to_end_takes_per_command_medians():
    nominal = [calibrate.NOMINAL_S] * 3

    def outcome(wall, setup, rss):
        return ({"wall_s": wall, "cpu_s": wall, "setup_s": setup, "maxrss_kb": rss,
                 "calibration_s": nominal}, None)

    passes = [{0: outcome(1.0, 0.1, 1024), 1: outcome(5.0, 0.2, 2048)},
              {0: outcome(3.0, 0.3, 1024), 1: outcome(7.0, 0.2, 4096)}]
    m = run.end_to_end(passes)
    assert m["wall_s"] == pytest.approx(2.0 + 6.0)
    assert m["slowest_cmd_s"] == pytest.approx(6.0)
    assert m["setup_s"] == pytest.approx(0.2 + 0.2)
    assert m["peak_rss_mb"] == pytest.approx(4.0)


def test_end_to_end_divides_each_command_by_its_workers_slowdown():
    def outcome(wall, unit_s):
        return ({"wall_s": wall, "cpu_s": wall, "setup_s": 0.1, "maxrss_kb": 1024,
                 "calibration_s": [unit_s, unit_s]}, None)

    slow, fast = 2 * calibrate.NOMINAL_S, calibrate.NOMINAL_S / 2
    passes = [{0: outcome(4.0, slow), 1: outcome(1.0, fast)}]
    m = run.end_to_end(passes)
    assert m["wall_s"] == pytest.approx(4.0 / 2 + 1.0 * 2)
    assert m["setup_s"] == pytest.approx(0.1 / 2 + 0.1 * 2)
    assert run.end_to_end(passes, scale=False)["wall_s"] == pytest.approx(5.0)


# -- calibration -----------------------------------------------------------------

def test_slowdown_is_the_mean_unit_time_over_the_nominal():
    n = calibrate.NOMINAL_S
    assert calibrate.slowdown([n, n, 4 * n]) == pytest.approx(2.0)


def test_units_are_timed_while_the_block_runs_and_stop_after():
    import signal
    import time

    calibration = calibrate.Calibration()
    calibration.sample(2)
    with calibration.during(0.02):
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    in_block = calibration.units[2:]
    assert len(in_block) >= 3
    assert calibration.block_wall_s == pytest.approx(sum(in_block))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_walk_reads_the_whole_buffer():
    memory = calibrate.Calibration().memory
    mask = len(memory) - 1
    i, touched = 0, set()
    for k in range(calibrate.WALK_STEPS):
        i = (i * 31 + memory[i] * 65599 + k) & mask
        touched.add(i >> 20)
    assert len(memory) == calibrate.WALK_BYTES and touched == set(range(len(memory) >> 20))
    assert calibrate.walk(memory) == i


def test_sampled_worker_passes_the_gate_and_samples_during_the_command(expected):
    result = run.run_worker(ROOT, CHEAP, 60)
    assert run.judge(CHEAP, result, expected) is None
    # units before, during (the command takes well over 0.1 s) and after
    assert len(result["calibration_s"]) > 2 * worker.CALIBRATION_UNITS


# -- tracer --------------------------------------------------------------------

@pytest.fixture
def installed():
    import orehom.cli  # noqa: F401  (binds every module the tracer patches)

    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_wrapper_rebinds_every_namespace_holding_the_function(installed):
    from orehom import bar, complexes, cyclic, linalg, small_complex, algebra

    original = linalg.kernel_basis.__wrapped__
    for module in (linalg, complexes, cyclic, small_complex):
        assert module.kernel_basis.__wrapped__ is original
    assert bar.twisted_commutator_subspace is algebra.twisted_commutator_subspace
    assert hasattr(bar.twisted_commutator_subspace, "__wrapped__")


def test_install_skips_a_target_the_package_no_longer_has(monkeypatch):
    import orehom.cli  # noqa: F401

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("orehom.linalg", "NoSuchClass.method", "linalg.gone", None),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["orehom.linalg.NoSuchClass.method"]


def test_uninstall_restores_the_originals():
    import orehom.cli  # noqa: F401
    from orehom import complexes, fields, linalg

    before = (linalg.kernel_basis, complexes.kernel_basis, fields.CycScalar.__dict__["__bool__"],
              linalg.ColMap.__dict__["__eq__"])
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    after = (linalg.kernel_basis, complexes.kernel_basis, fields.CycScalar.__dict__["__bool__"],
             linalg.ColMap.__dict__["__eq__"])
    assert before == after


def _cli_json(argv, t=None):
    import orehom.cli

    out = io.StringIO()
    call = orehom.cli.main if t is None else t.span(tracer.ROOT, orehom.cli.main)
    with contextlib.redirect_stdout(out):
        assert call(argv + ["--json"]) == 0
    return out.getvalue()


def test_traced_report_is_byte_identical_and_calls_are_seen_through_imports():
    import orehom.cli  # noqa: F401

    plain = _cli_json(CHEAP)
    t = tracer.Tracer()
    t.install()
    try:
        traced = _cli_json(CHEAP, t)
    finally:
        t.uninstall()
    assert traced == plain
    names = {s[2]: s for s in t.spans}
    # complexes.homology calls kernel_basis through its own import of the name
    kb = [s for s in t.spans if s[2] == "linalg.kernel_basis"]
    assert kb and any(t.spans[s[1]][2] == "complexes.homology" for s in kb)
    assert names[tracer.ROOT][1] is None
    m = t.metrics()
    assert m["bar.BarComplex.init.calls"] == 1
    assert m["cli.command.total_s"] > 0


def test_traced_counts_repeat_exactly():
    a = run.run_worker(ROOT, CHEAP, 60, trace_path=os.devnull)
    b = run.run_worker(ROOT, CHEAP, 60, trace_path=os.devnull)
    counts = [k for k, u in tracer.METRIC_UNITS.items() if u == "count"]
    assert {k: a["metrics"][k] for k in counts} == {k: b["metrics"][k] for k in counts}
    assert a["metrics"]["fields.CycScalar.zero_tests"] > 0
    assert a["report"] == b["report"]


def test_self_time_and_outermost_total():
    spans = [
        [0, None, "a", 0.0, 10.0, None],
        [1, 0, "b", 1.0, 4.0, None],
        [2, 1, "b", 2.0, 3.0, None],   # recursive call: not added to b.total
    ]
    tracer.METRIC_UNITS.update({"a.self_s": "s", "b.self_s": "s", "b.total_s": "s", "b.calls": "count"})
    try:
        m = tracer.command_metrics(spans, {})
    finally:
        for k in ("a.self_s", "b.self_s", "b.total_s", "b.calls"):
            del tracer.METRIC_UNITS[k]
    assert m["a.self_s"] == pytest.approx(7.0)
    assert m["b.self_s"] == pytest.approx(3.0)
    assert m["b.total_s"] == pytest.approx(3.0)
    assert m["b.calls"] == 2


# -- BENCHMARK.json and the result format --------------------------------------

def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = dict(tracer.METRIC_UNITS, **{"trace.overhead_frac": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
