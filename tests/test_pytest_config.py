"""The test configuration reports every test: ``pyproject.toml`` lets a
failing example reach the report, and ``conftest.py`` makes every run draw
the same examples."""

import subprocess
import sys
from pathlib import Path

from hypothesis import settings

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # hypothesis imports more modules to report a failing example; a
    # deprecation warning among those imports must not end the run
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_hypothesis_draws_the_same_examples_every_run():
    # the profile conftest.py loads derives each test's examples from the
    # test itself and reads no saved database: two runs test the same inputs
    assert settings.default.derandomize
    assert settings.default.database is None
