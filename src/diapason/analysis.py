"""Mean tables, interval bookkeeping, and equal-temperament comparisons.

The mean table classifies every pairwise mean of a scale three ways:
already a scale tone, new but inside the prime limit, or outside the
limit altogether.  The rest of the module is exact interval arithmetic
— commas, the diapente/diapason recipe of a 5-limit ratio, hexachord
transposition — plus cent-level reporting against equal temperament.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .exact import FIVE_LIMIT, Ratio, Restriction, _Record, exponents, is_smooth
from .means import MeanKind, mean_of_kind
from .scales import Scale, cents, reduce_to_diapason, step_intervals

__all__ = [
    "DiapenteRecipe",
    "EqualComparison",
    "INTERVAL_NAMES",
    "IntervalCount",
    "TableCell",
    "TableClass",
    "Transposition",
    "compare_to_equal",
    "comma_between",
    "factor_identity",
    "hexachord_diapente_check",
    "interval_census",
    "mean_table",
]

_DIAPENTE = Ratio(3, 2)


class TableClass(enum.Enum):
    IN_SCALE = "InScale"
    IN_LIMIT = "InLimit"
    OUTSIDE = "Outside"


class TableCell(namedtuple("TableCell", "row col mean klass")):
    """The `mean` of the tones `row` < `col`, and its TableClass `klass`."""

    __slots__ = ()


def mean_table(
    scale: Scale,
    restriction: Restriction,
    kind: MeanKind = MeanKind.ARITHMETIC,
) -> list[TableCell]:
    """Upper-triangle table of pairwise means, classified against the scale.

    Cells come back in row-major order over the scale's tone ordering.
    Arithmetic is the default; harmonic is accepted for the dual table.
    The geometric mean is almost never rational, so it gets no table.
    A RatioOverflowError from `mean_of_kind` names the pair and kind.
    """
    if kind is MeanKind.GEOMETRIC:
        raise ValueError("geometric means are irrational almost everywhere; no table")
    if len(scale.tones) < 2:
        raise ValueError("need at least two tones to tabulate means")
    cells = []
    for i, row in enumerate(scale.tones):
        for col in scale.tones[i + 1 :]:
            mean = mean_of_kind(row, col, kind)
            assert mean is not None
            if mean in scale:
                klass = TableClass.IN_SCALE
            elif is_smooth(mean, restriction):
                klass = TableClass.IN_LIMIT
            else:
                klass = TableClass.OUTSIDE
            cells.append(TableCell(row, col, mean, klass))
    return cells


def comma_between(a: Ratio, b: Ratio) -> Ratio:
    """The exact gap between two pitches: larger over smaller."""
    return a / b if a >= b else b / a


class DiapenteRecipe(_Record):
    """A 5-limit ratio `value` rewritten as 5^fives * (3/2)^fifths * 2^octaves.

    The exponents determine the value exactly; `describe` renders the
    same walk anchored at the octave-reduced power of five, the way the
    gap 135/128 is traditionally told: from 5/4, three diapente up, two
    diapason down.
    """

    __slots__ = _fields = ("value", "fives", "fifths", "octaves")

    def recompose(self) -> Ratio:
        return Ratio(5) ** self.fives * _DIAPENTE**self.fifths * Ratio(2) ** self.octaves

    def describe(self) -> str:
        anchor = reduce_to_diapason(Ratio(5) ** self.fives)
        # The anchor is 2^s * 5^fives: its s octaves leave the explicit
        # 2^octaves term, so the total product stays intact.
        octaves = self.octaves - exponents(anchor, FIVE_LIMIT)[0]
        parts = [str(anchor)]
        if self.fifths:
            parts.append(f"{abs(self.fifths)} diapente {'up' if self.fifths > 0 else 'down'}")
        if octaves:
            parts.append(f"{abs(octaves)} diapason {'up' if octaves > 0 else 'down'}")
        walk = ", ".join(parts[1:]) if len(parts) > 1 else "stay put"
        return f"{self.value} = from {anchor}: {walk}"


def factor_identity(r: Ratio) -> DiapenteRecipe:
    """Express a 5-limit ratio through diapente and diapason moves.

    With r = 2^m 3^n 5^p, the rewrite is 5^p (3/2)^n 2^(m+n): each
    factor 3 is traded for a diapente plus an octave.
    """
    vector = exponents(r, FIVE_LIMIT)
    if vector is None:
        raise ValueError(f"{r} is not 5-limit")
    twos, threes, fives = vector
    return DiapenteRecipe(r, fives, threes, twos + threes)


class Transposition(namedtuple("Transposition", "tone image in_scale")):
    """A `tone`, its `image` a diapente up (folded), and whether that is `in_scale`."""

    __slots__ = ()


def hexachord_diapente_check(
    scale: Scale, ambient: Scale | None = None
) -> list[Transposition]:
    """Shift every tone up a diapente (folded) and report membership.

    Membership is tested in `ambient` when given, else in the scale
    itself.  The natural hexachord against the natural scale has exactly
    one escapee: 9/8, whose image is the Pythagorean sixth 27/16.
    """
    universe = ambient if ambient is not None else scale
    result = []
    for tone in scale.tones:
        image = reduce_to_diapason(tone * _DIAPENTE)
        result.append(Transposition(tone, image, image in universe))
    return result


class EqualComparison(namedtuple("EqualComparison", "tone degree deviation_cents")):
    """A `tone`, its nearest equal-tempered `degree`, and its signed `deviation_cents`."""

    __slots__ = ()


def compare_to_equal(scale: Scale, N: int) -> list[EqualComparison]:
    """Nearest equal-tempered degree for each tone, with signed cent offset.

    Degrees are 1-based over N divisions (degree N+1 is the diapason);
    ties go to the lower degree.  Only the degrees next to
    tone_cents // step can be nearest, so the cost does not grow with N.
    """
    if N < 1:
        raise ValueError("need at least one division")
    step = 1200.0 / N
    result = []
    for tone in scale.tones:
        tone_cents = cents(tone)
        below = int(tone_cents // step)  # rounding may shift it by one
        degree = min(
            {min(max(k, 1), N + 1) for k in range(below, below + 4)},
            key=lambda k: (abs(tone_cents - step * (k - 1)), k),
        )
        deviation = tone_cents - cents(2.0 ** ((degree - 1) / N))
        result.append(EqualComparison(tone, degree, deviation))
    return result


def _names() -> dict[Ratio, str]:
    entries = [
        (9, 8, "tono maggiore (epogdoon)"),
        (10, 9, "tono minore"),
        (16, 15, "semitono maggiore"),
        (25, 24, "semitono minore"),
        (256, 243, "limma"),
        (81, 80, "comma"),
        (135, 128, "(unnamed gap)"),
        (2, 1, "diapason"),
        (3, 2, "diapente"),
        (4, 3, "diatessaron"),
        (6, 5, "terza minore (Senario)"),
        (5, 3, "sesta maggiore (Senario)"),
        (8, 5, "sesta minore (Senario)"),
    ]
    return {Ratio(n, d): label for n, d, label in entries}


INTERVAL_NAMES = _names()


class IntervalCount(namedtuple("IntervalCount", "ratio label count")):
    """A step `ratio`, its `label` (None when unnamed), and its `count` in the scale."""

    __slots__ = ()


def interval_census(scale: Scale) -> list[IntervalCount]:
    """Tally the scale's step intervals, smallest ratio first, with labels."""
    counts: dict[Ratio, int] = {}
    for step in step_intervals(scale):
        counts[step] = counts.get(step, 0) + 1
    return [
        IntervalCount(ratio, INTERVAL_NAMES.get(ratio), counts[ratio])
        for ratio in sorted(counts)
    ]
