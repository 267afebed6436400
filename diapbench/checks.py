"""Checks of every workload's outputs against independent computations.

Closures are checked by the `Fraction` oracle's trace checker, the
certifier by the oracle's fixpoint, and CLI reports by recomputing what
each report states (means and their class, cent deviations, step
census, closure traces) and by reading the same tones back out of the
plain, csv and markdown renderings.  Nothing is compared with a stored
copy of earlier output.  Each check returns a list of problems.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter
from fractions import Fraction

from diapason import mean_closure

import oracle
from workloads import OVERFLOWING, Failure


def check_ladder(ops, outputs) -> tuple[list[str], int]:
    """Problems, and the number of operations that failed as expected."""
    problems, failed = [], 0
    for op, out in zip(ops, outputs):
        if op.name == OVERFLOWING and isinstance(out, Failure) and out.error == "RatioOverflowError":
            failed += 1
            # The oracle shows the failure is the program's: exact means
            # reach a fixpoint at the seed, with no generation at all.
            if oracle.closure(oracle.scale(op.spec), op.primes, op.kinds)["generations"]:
                problems.append(f"{op.name}: oracle finds generations; the expected failure is not the known fault")
            continue
        problems += _check_closure(op, out)
    return problems, failed


def _check_closure(op, trace) -> list[str]:
    if isinstance(trace, Failure):
        return [f"{op.name}: {trace.error}: {trace.message}"]
    data = trace.to_json_dict()
    problems = [f"{op.name}: {p}" for p in oracle.check_trace(data, op.primes, op.kinds)]
    if [Fraction(t) for t in data["seed"]] != list(oracle.scale(op.spec)):
        problems.append(f"{op.name}: seed differs from the paper's {op.spec}")
    paper = {("T", (2, 3, 5), "A"): "SN1", ("NATURAL", (2, 3, 5), "A"): "SN2"}.get((op.spec, op.primes, op.kinds))
    if paper and [Fraction(t) for t in data["final"]] != list(oracle.SCALES[paper]):
        problems.append(f"{op.name}: final is not the paper's {paper}")
    return problems


def check_certify(ops, outputs) -> list[str]:
    problems = []
    for op, out in zip(ops, outputs):
        if out is not True:
            problems.append(f"{op.name}: certifier returned {out!r}")
        # The certifier compares against the batch closure; that must be the oracle's fixpoint.
        problems += _check_closure(op, mean_closure(op.scale, op.config))
    return problems


# -- report-matrix ------------------------------------------------------


def check_report(ops, outputs) -> list[str]:
    """Every JSON report against an independent computation, and every
    other format against its JSON twin."""
    problems = []
    results = {op.argv: out for op, out in zip(ops, outputs)}
    for argv, (code, stdout, stderr) in results.items():
        if code != 0 or stderr:
            problems.append(f"{' '.join(argv)}: exit {code!r}, stderr {stderr!r}")
    if problems:
        return problems
    for argv, (_, stdout, _) in results.items():
        command, spec, _, fmt = argv
        if fmt != "json":
            continue
        payload = json.loads(stdout)
        problems += [f"{command} {spec} json: {p}" for p in _check_json(command, spec, payload)]
        expected = _rows_from_json(command, spec, payload)
        for other in ("plain", "csv", "markdown"):
            text = results[(command, spec, "--format", other)][1]
            try:
                rows = _ROW_PARSERS[other](command, spec, text)
            except (ValueError, IndexError, KeyError, AttributeError, StopIteration) as exc:
                problems.append(f"{command} {spec} {other}: unreadable ({exc})")
                continue
            if rows != expected:
                problems.append(f"{command} {spec} {other}: carries other tones than the json")
    return problems


def _check_json(command, spec, payload) -> list[str]:
    if command == "scale" and spec.startswith("equal:N="):
        n = int(spec.partition("=")[2])
        want = [2 ** (k / n) for k in range(n + 1)]
        ok = len(payload["degrees"]) == n + 1 and all(
            math.isclose(got, w, rel_tol=1e-12) for got, w in zip(payload["degrees"], want)
        )
        return [] if ok else ["degrees are not 2^(k/N)"]
    if command == "closure":
        problems = oracle.check_trace(payload, (2, 3, 5), "A")
        paper = {"T": "SN1", "NATURAL": "SN2"}[spec]
        if [Fraction(t) for t in payload["final"]] != list(oracle.SCALES[paper]):
            problems.append(f"final is not the paper's {paper}")
        return problems
    tones = oracle.scale(spec)
    if command == "scale":
        return [] if [Fraction(t) for t in payload["tones"]] == list(tones) else ["tones differ from the scale"]
    if command == "table":
        members = set(tones)
        want = []
        for i, a in enumerate(tones):
            for b in tones[i + 1 :]:
                m = (a + b) / 2
                klass = "InScale" if m in members else "InLimit" if oracle.smooth(m, (2, 3, 5)) else "Outside"
                want.append((a, b, m, klass))
        got = [(Fraction(c["row"]), Fraction(c["col"]), Fraction(c["mean"]), c["class"]) for c in payload["cells"]]
        return [] if got == want else ["cells differ from the Fraction means and their classes"]
    if command == "compare":
        n = payload["divisions"]
        problems = []
        if [Fraction(r["tone"]) for r in payload["tones"]] != list(tones):
            problems.append("tones differ from the scale")
        for row in payload["tones"]:
            c = 1200 * math.log2(Fraction(row["tone"]))
            degree = min(range(1, n + 2), key=lambda k: (abs(c - 1200 * (k - 1) / n), k))
            deviation = c - 1200 * (degree - 1) / n
            if row["degree"] != degree or abs(row["deviation_cents"] - deviation) > 1e-6:
                problems.append(f"{row['tone']}: degree {row['degree']} {row['deviation_cents']}, want {degree} {deviation:.6f}")
        return problems
    if command == "intervals":
        steps = Counter(b / a for a, b in zip(tones, tones[1:]))
        got = [(Fraction(c["ratio"]), c["count"]) for c in payload["intervals"]]
        problems = [] if got == sorted(steps.items()) else ["census differs from the step quotients"]
        if sum(count for _, count in got) != len(tones) - 1:
            problems.append("census counts do not sum to the number of steps")
        return problems
    return [f"unknown command {command}"]


# Every rendering is reduced to the same rows: the tones it carries, as strings.


def _rows_from_json(command, spec, payload) -> list[tuple]:
    if command == "scale":
        if "degrees" in payload:
            return [(f"{v:.10f}",) for v in payload["degrees"]]
        return [(t,) for t in payload["tones"]]
    if command == "table":
        return [(c["row"], c["col"], c["mean"], c["class"]) for c in payload["cells"]]
    if command == "compare":
        return [(r["tone"], str(r["degree"])) for r in payload["tones"]]
    if command == "intervals":
        return [(c["ratio"], str(c["count"])) for c in payload["intervals"]]
    rows = [
        (str(g), w["tone"], w["a"], w["b"], w["kind"])
        for g, generation in enumerate(payload["generations"], start=1)
        for w in generation["witnesses"]
    ]
    return rows + [("final",) + tuple(payload["final"])]


def _rows_from_csv(command, spec, text) -> list[tuple]:
    table = list(csv.reader(io.StringIO(text)))[1:]
    if command == "scale":
        return [(row[1],) if spec.startswith("equal:") else (row[0],) for row in table]
    if command == "compare":
        return [(row[0], row[1]) for row in table]
    if command == "intervals":
        return [(row[0], row[2]) for row in table]
    if command == "closure":
        # The csv has no final line; its final is the seed plus the witnessed tones.
        seed = [f"{t.numerator}/{t.denominator}" for t in oracle.scale(spec)]
        final = sorted(seed + [row[1] for row in table], key=Fraction)
        return [tuple(row) for row in table] + [("final",) + tuple(final)]
    return [tuple(row) for row in table]


_WITNESS = re.compile(r"(\S+) = ([AGH])\((\S+), (\S+)\)")
_MARKS = {"**": "InScale", "*": "InLimit", "": "Outside"}


def _markdown_table(text) -> list[list[str]]:
    lines = [line for line in text.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def _rows_from_markdown(command, spec, text) -> list[tuple]:
    table = _markdown_table(text)
    if command == "scale":
        return [(row[1],) if spec.startswith("equal:") else (row[0],) for row in table]
    if command == "table":
        header = [line for line in text.splitlines() if line.startswith("|")][0]
        cols = [cell.strip() for cell in header.strip("|").split("|")][1:]
        rows = []
        for i, row in enumerate(table):
            for j, cell in enumerate(row[1:]):
                if j >= i:
                    mean = cell.rstrip("*")
                    rows.append((row[0], cols[j], mean, _MARKS[cell[len(mean):]]))
        return rows
    if command == "compare":
        return [(row[0], row[1]) for row in table]
    if command == "intervals":
        return [(row[0], row[2]) for row in table]
    rows = []
    for gen, tone, witness in table:
        kind, a, b = _WITNESS.fullmatch(f"{tone} = {witness}").group(2, 3, 4)
        rows.append((gen, tone, a, b, kind))
    final = text.rstrip("\n").rpartition("final: ")[2].split()
    return rows + [("final",) + tuple(final)]


def _rows_from_plain(command, spec, text) -> list[tuple]:
    lines = text.splitlines()
    if command == "scale":
        count = int(lines[0].split(": ")[1].split()[0])
        column = 1 if spec.startswith("equal:") else 0
        return [(line.split()[column],) for line in lines[1 : 1 + count]]
    if command == "table":
        pattern = re.compile(r"(\S+) x (\S+) -> (\S+) \[(\w+)\]")
        return [pattern.fullmatch(line).groups() for line in lines]
    if command == "compare":
        return [(line.split()[0], line.split()[3]) for line in lines]
    if command == "intervals":
        return [(line.split()[0], line.split()[1].lstrip("x")) for line in lines]
    rows = []
    for line in lines:
        if line.startswith("gen "):
            gen, _, witnesses = line[4:].partition(": ")
            rows += [(gen, tone, a, b, kind) for tone, kind, a, b in _WITNESS.findall(witnesses)]
    final = next(line for line in lines if line.startswith("final ")).partition(": ")[2].split()
    return rows + [("final",) + tuple(final)]


_ROW_PARSERS = {"csv": _rows_from_csv, "markdown": _rows_from_markdown, "plain": _rows_from_plain}
