"""Byte-exact CLI goldens: exit code, stdout and stderr for fixed argvs.

`tests/golden/cli.json` maps each argv, joined by spaces, to
`[exit code, stdout, stderr]`.  Any change to a report's bytes fails
here.  After an intended output change, rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.  Argparse's own messages are left out: their
wording and wrapping belong to the Python version, not to diapason.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diapason.cli import EXIT_USAGE, main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
SRC = Path(__file__).resolve().parents[1] / "src"

FORMATS = ("plain", "json", "csv", "markdown")
EXACT_SPECS = (
    "T", "T5", "PYTHAGOREAN", "NATURAL", "SN1", "SN2", "FINALES",
    "HEXACHORD_NATURAL", "pythagorean:steps=11",
)
PER_FORMAT = (
    *(f"{command} {spec}" for spec in EXACT_SPECS
      for command in ("scale", "table", "compare", "intervals")),
    "scale equal:N=1",
    "scale equal:N=12",
    "scale equal:N=53",
    "closure T",
    "closure NATURAL",
    "closure T --kinds A,H",
    "closure T --max-generations 1",
    "closure T --primes 2,3,5,7 --kinds A,G",
    "table NATURAL --kind H --primes 2,3",
    "compare PYTHAGOREAN --N 31",
)
ERRORS = (
    "closure equal:N=12",
    "table equal:N=12",
    "compare equal:N=12",
    "intervals equal:N=12",
    "scale pythagorean:steps=100",
    "scale DORIAN",
    "scale equal:N=0",
    "scale pythagorean:steps=x",
    "closure T --primes 2,4",
    "closure T --primes 3,5",
    "closure T --kinds A,Q",
    "closure T --kinds ,",
    "closure pythagorean:steps=40 --primes 2,3 --kinds H",
    "table pythagorean:steps=40 --kind H --primes 2,3",
)
ARGVS = (*(f"{line} --format {fmt}" for fmt in FORMATS for line in PER_FORMAT), *ERRORS)


def run(argv: str) -> list:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv.split(" "))
    return [code, stdout.getvalue(), stderr.getvalue()]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_argv(golden):
    assert list(golden) == list(ARGVS)


@pytest.mark.parametrize("argv", ARGVS)
def test_cli_output_matches_golden(golden, argv):
    assert run(argv) == golden[argv]


# main() shares one parser across calls: no call may leave state behind
# that changes a later call's bytes.

def test_good_call_after_failed_parse(golden):
    assert run("closure T --max-generations x")[0] == EXIT_USAGE
    argv = "closure T --format plain"
    assert run(argv) == golden[argv]


def test_every_argv_in_reverse_order_in_one_process(golden):
    mismatched = [argv for argv in reversed(ARGVS) if run(argv) != golden[argv]]
    assert mismatched == []


def test_python_dash_m_runs_the_cli(golden):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "diapason", "closure", "T"],
        capture_output=True, text=True, env=env, check=False,
    )
    code, stdout, _ = golden["closure T --format plain"]
    assert (done.returncode, done.stdout) == (code, stdout)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({argv: run(argv) for argv in ARGVS}, indent=1) + "\n", encoding="utf-8")
