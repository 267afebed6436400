"""Command-line front end: scales, closures, mean tables, reports.

Every command writes a deterministic report to stdout — same arguments,
same bytes — in one of four formats (plain, json, csv, markdown): each
command builds one Report, and `_render` alone knows the formats.
Diagnostics go to stderr.  Exit codes: 0 success (closure: fixpoint
reached), 2 usage error, 3 closure stopped by the generation cap,
4 exact-arithmetic overflow.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence

from .analysis import INTERVAL_NAMES, TableClass, compare_to_equal, interval_census, mean_table
from .exact import Ratio, RatioOverflowError, Restriction
from .generator import GeneratorConfig, Witness, mean_closure
from .means import MeanKind
from .scales import (
    CANONICAL_NAMES, EqualTemperament, Scale, canonical, cents, equal_temperament,
    pythagorean_by_diapente, step_intervals,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP_HIT = 3
EXIT_OVERFLOW = 4

FORMATS = ("plain", "json", "csv", "markdown")

# Classification markers used in markdown tables: a tone already in the
# scale gets **, a tone merely inside the prime limit gets *.
_MARKERS = {TableClass.IN_SCALE: "**", TableClass.IN_LIMIT: "*", TableClass.OUTSIDE: ""}


def _parenthesized(label: str) -> str:
    return label if label.startswith("(") else f"({label})"


class UsageError(ValueError):
    pass


def _parse_primes(text: str) -> Restriction:
    try:
        primes = [int(part) for part in text.split(",") if part.strip()]
        return Restriction(primes)
    except ValueError as exc:
        raise UsageError(f"bad --primes {text!r}: {exc}") from None


def _parse_kinds(text: str) -> frozenset[MeanKind]:
    parts = [part.strip().upper() for part in text.split(",")]
    try:
        kinds = frozenset(MeanKind(part) for part in parts if part)
    except ValueError:
        raise UsageError(f"bad --kinds {text!r}: know A, G, H") from None
    if not kinds:
        raise UsageError("at least one mean kind is required")
    return kinds


def _resolve_scale(spec: str) -> Scale | EqualTemperament:
    """A canonical name, "pythagorean:steps=K", or "equal:N=K"."""
    if spec in CANONICAL_NAMES:
        return canonical(spec)
    head, _, tail = spec.partition(":")
    if head == "pythagorean":
        return pythagorean_by_diapente(_spec_int(tail, "steps", minimum=0))
    if head == "equal":
        return equal_temperament(_spec_int(tail, "N", minimum=1))
    raise UsageError(
        f"unknown scale {spec!r}; use one of {', '.join(CANONICAL_NAMES)}, "
        "pythagorean:steps=K, or equal:N=K"
    )


def _spec_int(tail: str, key: str, minimum: int) -> int:
    name, _, raw = tail.partition("=")
    if name != key:
        raise UsageError(f"expected {key}=<integer>, got {tail!r}")
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"expected {key}=<integer>, got {tail!r}") from None
    if value < minimum:
        raise UsageError(f"{key} must be >= {minimum}")
    return value


_REPORT_FIELDS = "payload csv_header csv_rows md_heading md_header md_rows plain md_tail exit_code"


class Report(namedtuple("Report", _REPORT_FIELDS, defaults=("", EXIT_OK))):
    """One command's result, ready for every format, and its `exit_code`.

    The callables `payload`, `csv_rows`, `md_rows` and `plain` build one
    format's body each, so only the format that was asked for pays for
    its rows.  `md_tail` is one line after the Markdown table.
    """

    __slots__ = ()


def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.payload(), indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(report.csv_header)
        writer.writerows(report.csv_rows())
        return buffer.getvalue()
    if fmt == "markdown":
        rows = [report.md_header, ["---"] * len(report.md_header), *report.md_rows()]
        lines = [f"### {report.md_heading}", "", *("| " + " | ".join(row) + " |" for row in rows)]
        if report.md_tail:
            lines += ["", report.md_tail]
        return "\n".join(lines) + "\n"
    return "\n".join(report.plain()) + "\n"


def _exact_scale(spec: str, subject: str) -> Scale:
    scale = _resolve_scale(spec)
    if isinstance(scale, EqualTemperament):
        raise UsageError(f"{subject} an exact scale, not a temperament")
    return scale


def _scale_report(scale: Scale) -> Report:
    def steps() -> list[Ratio]:
        return step_intervals(scale) if len(scale.tones) >= 2 else []

    def md_rows() -> list[list[str]]:
        # The top tone has no step up.
        labelled = [(str(step), INTERVAL_NAMES.get(step) or "") for step in steps()] + [("", "")]
        return [[str(t), f"{cents(t):.3f}", *step] for t, step in zip(scale.tones, labelled)]

    def plain() -> Iterator[str]:
        width = max(len(str(t)) for t in scale.tones)
        yield f"scale {scale.name}: {len(scale.tones)} tones"
        yield from (f"  {str(t).ljust(width)}  {cents(t):9.3f}" for t in scale.tones)
        intervals = steps()
        if intervals:
            yield "steps:"
            for step in intervals:
                label = INTERVAL_NAMES.get(step)
                yield f"  {step}" + (f"  {_parenthesized(label)}" if label else "")

    return Report(
        payload=scale.to_json_dict,
        csv_header=["tone", "num", "den", "cents"],
        csv_rows=lambda: [[t, t.num, t.den, f"{cents(t):.3f}"] for t in scale.tones],
        md_heading=scale.name,
        md_header=["tone", "cents", "step up", "step name"],
        md_rows=md_rows,
        plain=plain,
    )


def _temperament_report(et: EqualTemperament) -> Report:
    name = f"equal:N={et.divisions}"

    def rows() -> list[list[str]]:
        return [[str(k), f"{v:.10f}", f"{cents(v):.3f}"] for k, v in enumerate(et.degrees, start=1)]

    return Report(
        payload=lambda: {"name": name, "divisions": et.divisions, "degrees": list(et.degrees)},
        csv_header=["degree", "value", "cents"],
        csv_rows=rows,
        md_heading=name,
        md_header=["degree", "value", "cents"],
        md_rows=rows,
        plain=lambda: [f"scale {name}: {len(et.degrees)} degrees"]
        + [f"  {k:3d}  {v:.10f}  {cents(v):9.3f}" for k, v in enumerate(et.degrees, start=1)],
    )


def _cmd_scale(args: argparse.Namespace) -> Report:
    target = _resolve_scale(args.name)
    if isinstance(target, EqualTemperament):
        return _temperament_report(target)
    return _scale_report(target)


def _witness(w: Witness) -> str:
    return f"{w.kind.value}({w.a}, {w.b})"


def _cmd_closure(args: argparse.Namespace) -> Report:
    seed = _exact_scale(args.seed, "closure needs")
    config = GeneratorConfig(
        kinds=_parse_kinds(args.kinds),
        restriction=_parse_primes(args.primes),
        max_generations=args.max_generations,
    )
    trace = mean_closure(seed, config)
    fixpoint = "yes" if trace.fixpoint_reached else "no"
    final = " ".join(str(t) for t in trace.final.tones)

    def witnesses() -> list[tuple[int, Witness]]:
        return [(gen, w) for gen, g in enumerate(trace.generations, start=1) for w in g.witnesses]

    def plain() -> Iterator[str]:
        kinds = ",".join(sorted(k.value for k in config.kinds))
        yield f"closure of {seed.name} under primes {config.restriction}, kinds {kinds}"
        yield "seed:  " + " ".join(str(t) for t in seed.tones)
        for gen, generation in enumerate(trace.generations, start=1):
            witnessed = (f"{w.tone} = {_witness(w)}" for w in generation.witnesses)
            yield f"gen {gen}: " + "  ".join(witnessed)
        yield f"fixpoint: {fixpoint}"
        yield f"final ({len(trace.final.tones)} tones): {final}"

    return Report(
        payload=trace.to_json_dict,
        csv_header=["generation", "tone", "a", "b", "kind"],
        csv_rows=lambda: [[gen, w.tone, w.a, w.b, w.kind.value] for gen, w in witnesses()],
        md_heading=f"closure of {seed.name} (primes {config.restriction})",
        md_header=["generation", "added", "witness"],
        md_rows=lambda: [[str(gen), str(w.tone), _witness(w)] for gen, w in witnesses()],
        plain=plain,
        md_tail=f"fixpoint: {fixpoint}; final: {final}",
        exit_code=EXIT_OK if trace.fixpoint_reached else EXIT_CAP_HIT,
    )


def _cmd_table(args: argparse.Namespace) -> Report:
    scale = _exact_scale(args.name, "mean tables need")
    kind = MeanKind(args.kind)
    cells = mean_table(scale, _parse_primes(args.primes), kind)
    tones = scale.tones

    def grid() -> list[list[str]]:
        # Upper triangle: a cell exists only for a < b.
        marked = {(c.row, c.col): f"{c.mean}{_MARKERS[c.klass]}" for c in cells}
        return [[str(a), *(marked.get((a, b), "") for b in tones[1:])] for a in tones[:-1]]

    return Report(
        payload=lambda: {
            "scale": scale.name,
            "kind": kind.value,
            "cells": [{"row": str(c.row), "col": str(c.col), "mean": str(c.mean),
                       "class": c.klass.value} for c in cells],
        },
        csv_header=["row", "col", "mean", "class"],
        csv_rows=lambda: [[c.row, c.col, c.mean, c.klass.value] for c in cells],
        md_heading=f"pairwise {kind.value}-means of {scale.name}",
        md_header=["", *(str(t) for t in tones[1:])],
        md_rows=grid,
        plain=lambda: [f"{c.row} x {c.col} -> {c.mean} [{c.klass.value}]" for c in cells],
        md_tail="`**` in scale, `*` in prime limit, bare: outside.",
    )


def _cmd_compare(args: argparse.Namespace) -> Report:
    scale = _exact_scale(args.name, "compare needs")
    rows = compare_to_equal(scale, args.N)

    def table() -> list[list[str]]:
        return [[str(r.tone), str(r.degree), f"{r.deviation_cents:+.3f}"] for r in rows]

    return Report(
        payload=lambda: {
            "scale": scale.name,
            "divisions": args.N,
            "tones": [{"tone": str(r.tone), "degree": r.degree,
                       "deviation_cents": round(r.deviation_cents, 6)} for r in rows],
        },
        csv_header=["tone", "degree", "deviation_cents"],
        csv_rows=table,
        md_heading=f"{scale.name} against equal:N={args.N}",
        md_header=["tone", "degree", "deviation (cents)"],
        md_rows=table,
        plain=lambda: [f"{r.tone} ~ degree {r.degree}  {r.deviation_cents:+.3f} cents"
                       for r in rows],
    )


def _cmd_intervals(args: argparse.Namespace) -> Report:
    scale = _exact_scale(args.name, "interval census needs")
    census = interval_census(scale)

    def table() -> list[list[str]]:
        return [[str(c.ratio), c.label or "", str(c.count)] for c in census]

    return Report(
        payload=lambda: {
            "scale": scale.name,
            "intervals": [{"ratio": str(c.ratio), "label": c.label, "count": c.count}
                          for c in census],
        },
        csv_header=["ratio", "label", "count"],
        csv_rows=table,
        md_heading=f"step intervals of {scale.name}",
        md_header=["ratio", "label", "count"],
        md_rows=table,
        plain=lambda: [
            f"{c.ratio} x{c.count}" + (f"  {_parenthesized(c.label)}" if c.label else "")
            for c in census
        ],
    )


# Built on the first main() call, not at import, and shared by every
# later call in the process: nothing changes the tree once it is built,
# and building it costs more than most reports.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diapason",
        description="Exact pitch systems: scales, mean closures, tables, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scale = sub.add_parser("scale", help="print a scale with cents and steps")
    p_scale.add_argument("name", help="canonical name, pythagorean:steps=K, equal:N=K")
    p_scale.set_defaults(handler=_cmd_scale)

    p_closure = sub.add_parser("closure", help="saturate a scale with pairwise means")
    p_closure.add_argument("seed", help="canonical name or pythagorean:steps=K")
    p_closure.add_argument("--primes", default="2,3,5", help="allowed primes (default 2,3,5)")
    p_closure.add_argument("--kinds", default="A", help="mean kinds from A,G,H (default A)")
    p_closure.add_argument("--max-generations", type=int, default=64)
    p_closure.set_defaults(handler=_cmd_closure)

    p_table = sub.add_parser("table", help="pairwise mean table with classification")
    p_table.add_argument("name")
    p_table.add_argument("--primes", default="2,3,5")
    p_table.add_argument("--kind", choices=["A", "H"], default="A")
    p_table.set_defaults(handler=_cmd_table)

    p_compare = sub.add_parser("compare", help="cent deviations from equal temperament")
    p_compare.add_argument("name")
    p_compare.add_argument("--N", type=int, default=12, help="equal divisions (default 12)")
    p_compare.set_defaults(handler=_cmd_compare)

    p_intervals = sub.add_parser("intervals", help="census of step intervals")
    p_intervals.add_argument("name")
    p_intervals.set_defaults(handler=_cmd_intervals)

    for command in sub.choices.values():
        command.add_argument("--format", choices=FORMATS, default="plain")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        report = args.handler(args)
        sys.stdout.write(_render(report, args.format))
        return report.exit_code
    except RatioOverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except ValueError as exc:  # UsageError, or a library check on the arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
