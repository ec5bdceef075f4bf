"""The command line parse of ``orehom.cli`` against the argparse parser it
replaced (``cli_reference.py``): the same attributes on every accepted
argv, the same usage errors on the rejected ones, help from the command
table, and no argparse or locale import on the way to a report."""

import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cli_reference
from orehom import cli

ROOT = Path(__file__).resolve().parents[1]


def _perfbench_argvs(monkeypatch):
    """Every command line of the benchmark's workloads, as the worker passes it."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    argvs = [argv for workload in run.WORKLOADS.values() for argv in workload]
    return [argv + ["--json"] for argv in argvs + [run.KNOWN_DEFECT_PROBE]]


def _readme_argvs():
    """The ``orehom ...`` lines of the README's code blocks, without ``orehom``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^orehom (.*)$", text, flags=re.M)
    return [shlex.split(line, comments=True) for line in lines]


FLAG_ARGVS = [
    [cmd, "--spec", "taft:2", *extra]
    for cmd in ("hh", "hc", "verify")
    for extra in ([], ["--max-degree", "3"], ["--json"], ["--decompose"], ["--closed-form"],
                  ["--oracle"], ["--basis"])
    if not (extra and extra[0] in ("--decompose", "--closed-form", "--oracle") and cmd == "verify")
    and not (extra == ["--basis"] and cmd != "hh")
]

FORM_ARGVS = [
    ["hh", "--spec=taft:3", "--max-degree=4"],
    ["hh", "--max", "3", "--spec", "sweedler"],
    ["hc", "--clo", "--dec", "--spec", "rank1:c4", "--j"],
    ["hh", "--oracle", "--spec", "trunc:3", "--basis"],
    ["hh", "--spec", "trunc:3", "--oracle", "--basis", "--max-degree", "2"],
    ["verify", "--json", "--spec", "taft:3"],
    ["hh", "--spec", "sweedler", "--max-degree", "4", "--max-degree", "5"],
    ["hh", "--spec", "sweedler", "--max-degree", "-1"],
    ["example", "taft:3", "--out", "p.json"],
    ["example", "--out", "p.json", "taft:3"],
    ["example", "--out=p.json", "sweedler"],
    ["example", "dihedral:4"],
]


def test_readme_and_benchmark_lines_are_present(monkeypatch):
    # a regex or import that found nothing would make the comparison vacuous
    assert len(_readme_argvs()) >= 4
    assert len(_perfbench_argvs(monkeypatch)) >= 40


@pytest.mark.parametrize("argv", FLAG_ARGVS + FORM_ARGVS, ids=" ".join)
def test_parse_matches_argparse(argv):
    assert vars(cli.parse_args(argv)) == cli_reference.parse_args(argv)


def test_benchmark_and_readme_lines_parse_as_argparse_did(monkeypatch):
    for argv in _perfbench_argvs(monkeypatch) + _readme_argvs():
        assert vars(cli.parse_args(argv)) == cli_reference.parse_args(argv), argv


def _usage_error(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: orehom")
    return captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    [],
    ["nosuch"],
    ["hh"],
    ["hh", "--json"],
    ["hh", "--spec"],
    ["hh", "--max-degree"],
    ["verify", "--spec", "taft:2", "--max-degree"],
    ["hh", "--spec", "taft:2", "--max-degree", "x"],
    ["hh", "--spec", "taft:2", "--max-degree", "2.5"],
    ["hh", "--spec", "taft:2", "extra"],
    ["verify", "extra", "--spec", "taft:2"],
    ["hc", "--spec", "taft:2", "--basis"],
    ["verify", "--spec", "taft:2", "--oracle"],
    ["hh", "--spec", "taft:2", "-x"],
    ["--json", "hh", "--spec", "taft:2"],
    ["example"],
    ["example", "--out", "p.json"],
    ["example", "taft:2", "sweedler"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_usage_errors_match_argparse(capsys, argv):
    got = _usage_error(capsys, cli.parse_args, argv)
    want = _usage_error(capsys, cli_reference.parse_args, argv)
    assert got.startswith("orehom: error: ")
    assert got.split(": error: ", 1)[1] == want.split(": error: ", 1)[1]


def test_main_exits_2_on_a_usage_error_before_any_work(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hh", "--spec", "taft:2", "--max-degree", "three"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "orehom: error: argument --max-degree: invalid int value: 'three'"


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["hh", "--help"], ["hc", "-h"],
                                  ["verify", "--spec", "taft:2", "--help"], ["example", "--help"]],
                         ids=" ".join)
def test_help_names_every_option_of_the_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.err == ""
    assert captured.out.startswith("usage: orehom")
    if argv[0].startswith("-"):
        names = list(cli._COMMANDS)
    else:
        _, _, positionals, options = cli._COMMANDS[argv[0]]
        names = [f"--{option.rstrip('=')}" for option, _ in options] + [name for name, _ in positionals]
    assert names and all(name in captured.out for name in names)


def test_no_argparse_or_locale_on_the_way_to_a_report():
    # building an argparse parser imports argparse and, through its first
    # gettext call, locale: together 2.8-4.5 ms of every command
    code = (
        "import sys\n"
        "import orehom.cli\n"
        "print(sorted({'argparse', 'locale', 'optparse'} & set(sys.modules)))\n"
        "orehom.cli.main(['hh', '--spec', 'taft:2', '--max-degree', '3', '--json'])\n"
        "print(sorted({'argparse', 'locale', 'optparse'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out[0] == "[]"
    assert out[-1] == "[]"
