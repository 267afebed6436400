"""Mutation check: each mutant below must make the tests named for it fail.

Run from anywhere, with pytest and hypothesis installed:

    python3 tests/mutants.py

A mutant is one or more exact text replacements in `src/`; each old
text must occur exactly once in its file.  The script copies `src/`,
`tests/`, `diapbench/` (the oracle tests load `diapbench/oracle.py`) and
`pyproject.toml` (whose pytest settings put `src` first on the path)
into a temporary directory.  There it runs every named test on the
unmutated copy, where they must pass, then each mutant's tests on that
mutant, where pytest must exit non-zero.  It prints one line per mutant
and exits 0 when every mutant is killed, 1 when some survive, and 2
when the unmutated copy fails or a replacement does not apply.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "diapbench", "pyproject.toml")
EXACT = "src/diapason/exact.py"
GENERATOR = "src/diapason/generator.py"

# `edits` holds (path, old text, new text) triples; `tests` the pytest ids.
Mutant = namedtuple("Mutant", "name edits tests")

MUTANTS = (
    Mutant(
        "_from_parts does not reduce",
        [(EXACT, "g = math.gcd(num, den)\n    num //= g\n    den //= g\n    if num > MAGNITUDE_LIMIT",
          "g = 1\n    num //= g\n    den //= g\n    if num > MAGNITUDE_LIMIT")],
        ["tests/test_exact.py::TestConstruction::test_reduces_to_lowest_terms",
         "tests/test_exact.py::TestOverflow::test_operators_build_what_the_constructor_builds"],
    ),
    Mutant(
        "the magnitude guard rejects a numerator of exactly 2^128",
        [(EXACT, "if num > MAGNITUDE_LIMIT or", "if num >= MAGNITUDE_LIMIT or")],
        ["tests/test_exact.py::TestOverflow::test_limit_is_inclusive"],
    ),
    Mutant(
        "Ratio(...) does not check signs",
        [(EXACT, "        if num <= 0 or den <= 0:\n"
                 "            raise ValueError(f\"ratio parts must be strictly positive, got {num}/{den}\")\n",
          "")],
        ["tests/test_exact.py::TestConstruction::test_rejects_zero_and_negative"],
    ),
    Mutant(
        "the certifier does not check that the trace accounts for the fixpoint",
        [(GENERATOR, "(not unwitnessed and birth.keys() == final)", "(not unwitnessed)")],
        ["tests/test_generator.py::TestConfluence::test_an_unreachable_tone_fails"],
    ),
    Mutant(
        "the certifier takes a witness born in the same generation",
        [(GENERATOR, "birth.get(a, born) < born and birth.get(b, born) < born",
          "birth.get(a, born) <= born and birth.get(b, born) <= born")],
        ["tests/test_generator.py::TestConfluence::test_a_wrong_generation_split_fails"],
    ),
    Mutant(
        "_smooth_modulus stops one prime power short",
        [(EXACT, "while power * p < bound:", "while power * p * p < bound:")],
        ["tests/test_oracle.py::TestSmoothness::test_the_modulus_of_each_width"],
    ),
    Mutant(
        "_Probes.add bounds both windows with bisect_left",
        [(GENERATOR, "from bisect import bisect_right", "from bisect import bisect_left, bisect_right"),
         (GENERATOR, "bisect_right(bounds, (2 * den << 256) // num), bisect_right(bounds, order)",
          "bisect_left(bounds, (2 * den << 256) // num), bisect_left(bounds, order)")],
        ["tests/test_generator.py::TestProbeWindows::test_windows_hold_exactly_the_steps_inside_the_octave",
         "tests/test_generator.py::TestProbeWindows::test_ladder_probe_counts"],
    ),
)


def _pytest(copy: Path, tests: list[str]) -> int:
    """pytest's exit code for `tests`, run quietly inside `copy`."""
    # No bytecode: a mutant and its original may share a size and an
    # mtime second, and a cached .pyc of one would then serve the other.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _apply(copy: Path, mutant: Mutant) -> dict[Path, str]:
    """Write the mutant into `copy`; return the original text of each file it touched."""
    originals: dict[Path, str] = {}
    for path, old, new in mutant.edits:
        target = copy / path
        current = target.read_text(encoding="utf-8")
        originals.setdefault(target, current)
        if current.count(old) != 1:
            raise LookupError(f"{mutant.name}: {old!r} occurs {current.count(old)} times in {path}")
        target.write_text(current.replace(old, new), encoding="utf-8")
    return originals


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="diapason-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "results")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=skip)
            else:
                shutil.copy2(source, copy / name)
        named = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if _pytest(copy, named) != 0:
            print("the named tests fail on the unmutated sources", file=sys.stderr)
            return 2
        survivors = []
        for mutant in MUTANTS:
            start = time.perf_counter()
            try:
                originals = _apply(copy, mutant)
            except LookupError as error:
                print(error, file=sys.stderr)
                return 2
            try:
                killed = _pytest(copy, mutant.tests) != 0
            finally:
                for target, text in originals.items():
                    target.write_text(text, encoding="utf-8")
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  {mutant.name}")
            if not killed:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
