"""The three workloads: their inputs, built from a seed, and their operations.

A round is one fixed pass over a workload's operations, so every timing
sample has the same make-up.  The seed shuffles the order of operations
within a round and picks the certifier's `rng_seed`s; the program
receives only the inputs built here.  This module imports nothing but
`diapason` and the stdlib, because building the inputs is part of the
timed set-up.
"""

from __future__ import annotations

import contextlib
import io
import random
from typing import Callable, NamedTuple

from diapason import (
    GeneratorConfig,
    MeanKind,
    Restriction,
    canonical,
    closure_order_independence,
    mean_closure,
    pythagorean_by_diapente,
)
from diapason import cli

# (name, seed scale, primes, kinds).  From the paper's two closures up
# through harmonic and geometric means and the 7- and 11-limits.
LADDER = (
    ("T-5-A", "T", (2, 3, 5), "A"),
    ("NATURAL-5-A", "NATURAL", (2, 3, 5), "A"),
    ("T-5-AH", "T", (2, 3, 5), "AH"),
    ("T-5-AGH", "T", (2, 3, 5), "AGH"),
    ("T-7-A", "T", (2, 3, 5, 7), "A"),
    ("NATURAL-7-AG", "NATURAL", (2, 3, 5, 7), "AG"),
    ("T5-7-AH", "T5", (2, 3, 5, 7), "AH"),
    ("T-11-A", "T", (2, 3, 5, 7, 11), "A"),
    # Fails every time: mean_harmonic forms a*b before dividing, and that
    # product exceeds the 128-bit guard although every true mean fits.
    ("pyth40-3-H", "pythagorean:steps=40", (2, 3), "H"),
)
OVERFLOWING = "pyth40-3-H"

# (name, seed scale, primes, kinds, trials)
CERTIFY = (
    ("NATURAL-5-A", "NATURAL", (2, 3, 5), "A", 200),
    ("T-5-AH", "T", (2, 3, 5), "AH", 10),
    ("T-7-A", "T", (2, 3, 5, 7), "A", 20),
)

REPORT_SCALES = ("NATURAL", "PYTHAGOREAN", "SN2", "pythagorean:steps=11", "equal:N=53")
REPORT_CLOSURES = ("T", "NATURAL")
FORMATS = ("plain", "json", "csv", "markdown")


class Op(NamedTuple):
    """One operation of a round: a closure, a certification or a CLI call."""

    name: str
    spec: str
    primes: tuple[int, ...]
    kinds: str
    scale: object = None
    config: GeneratorConfig | None = None
    trials: int = 0
    rng_seed: int = 0
    argv: tuple[str, ...] = ()


class Failure(NamedTuple):
    """An operation that raised; comparable across rounds."""

    error: str
    message: str


def resolve(spec: str):
    if spec.startswith("pythagorean:steps="):
        return pythagorean_by_diapente(int(spec.partition("=")[2]))
    return canonical(spec)


def _config(primes, kinds) -> GeneratorConfig:
    return GeneratorConfig(kinds=frozenset(MeanKind(k) for k in kinds), restriction=Restriction(primes))


def build_ladder(seed: int) -> list[Op]:
    ops = [Op(name, spec, primes, kinds, resolve(spec), _config(primes, kinds)) for name, spec, primes, kinds in LADDER]
    random.Random(seed).shuffle(ops)
    return ops


def build_certify(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        Op(name, spec, primes, kinds, resolve(spec), _config(primes, kinds), trials, rng.randrange(2**32))
        for name, spec, primes, kinds, trials in CERTIFY
    ]
    rng.shuffle(ops)
    return ops


def report_argvs() -> list[tuple[str, ...]]:
    """All five commands in all four formats; the temperament only has `scale`."""
    argvs = []
    for fmt in FORMATS:
        for spec in REPORT_SCALES:
            commands = ("scale",) if spec.startswith("equal:") else ("scale", "table", "compare", "intervals")
            argvs.extend((command, spec, "--format", fmt) for command in commands)
        argvs.extend(("closure", spec, "--format", fmt) for spec in REPORT_CLOSURES)
    return argvs


def build_report(seed: int) -> list[Op]:
    ops = [Op(argv[0], argv[1], (2, 3, 5), "A", argv=argv) for argv in report_argvs()]
    random.Random(seed).shuffle(ops)
    return ops


def _attempt(call: Callable[[], object]) -> object:
    # The benchmark must keep running whatever the program raises; the
    # check phase decides whether a failure was the expected one.
    try:
        return call()
    except Exception as exc:
        return Failure(type(exc).__name__, str(exc))


def closure_op(op: Op, span) -> object:
    with span("generator.mean_closure." + op.name):
        return _attempt(lambda: mean_closure(op.scale, op.config))


def certify_op(op: Op, span) -> object:
    with span("generator.certify." + op.name):
        return _attempt(lambda: closure_order_independence(op.scale, op.config, op.trials, op.rng_seed))


def report_op(op: Op, span) -> tuple[object, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with span("cli.main." + op.name), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = _attempt(lambda: cli.main(list(op.argv)))
    return code, stdout.getvalue(), stderr.getvalue()


class Workload(NamedTuple):
    build: Callable[[int], list[Op]]
    run_op: Callable[[Op, object], object]
    ref_units: int  # reference units timed per round, spread between its operations


WORKLOADS = {
    "closure-ladder": Workload(build_ladder, closure_op, 100),
    "certify-confluence": Workload(build_certify, certify_op, 45),
    "report-matrix": Workload(build_report, report_op, 5),
}


def run_round(workload: Workload, ops: list[Op], span) -> list[object]:
    return [workload.run_op(op, span) for op in ops]
