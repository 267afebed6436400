"""Scales on the normalized diapason, cyclic generation, equal temperament.

A pitch class is a Ratio folded into the closed octave [1, 2]; a Scale
is a strictly increasing tuple of them.  The canonical constants cover
the Pythagorean and natural systems, the two mean-closure results, and
the modal reference sets (finales tetrachord, natural hexachord).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

from .exact import ONE, TWO, Ratio, parse_ratio

__all__ = [
    "CANONICAL_NAMES",
    "EqualTemperament",
    "Scale",
    "SpiralTone",
    "canonical",
    "cents",
    "equal_temperament",
    "fifths_spiral",
    "pythagorean_by_diapente",
    "reduce_to_diapason",
    "scale_from_json_dict",
    "step_intervals",
]

_DIAPENTE = Ratio(3, 2)


def reduce_to_diapason(r: Ratio) -> Ratio:
    """Fold r into [1, 2) by octave shifts; exactly 2 stays 2.

    The closing tone of a scale is a legitimate pitch in its own right,
    so the one value sitting on the upper boundary is preserved rather
    than halved down to the unison.
    """
    if r == TWO:
        return r
    while r >= TWO:
        r = r / TWO
    while r < ONE:
        r = r * TWO
    return r


@dataclass(frozen=True)
class Scale:
    """Named, strictly increasing tones within the closed diapason [1, 2].

    Any Ratio in [1, 2] is a tone; the constructor enforces the bound.
    """

    name: str
    tones: tuple[Ratio, ...]

    def __init__(self, name: str, tones: Iterable[Ratio]) -> None:
        tones = tuple(tones)
        for tone in tones:
            if not (ONE <= tone <= TWO):
                raise ValueError(f"tone {tone} outside the diapason [1, 2]")
        for left, right in zip(tones, tones[1:]):
            if not left < right:
                raise ValueError(f"tones must strictly increase: {left} !< {right}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "tones", tones)
        # Membership is asked once per cell of a mean table; a tuple scan
        # there made the table cubic in the scale size.
        object.__setattr__(self, "_members", frozenset(tones))

    def __len__(self) -> int:
        return len(self.tones)

    def __iter__(self):
        return iter(self.tones)

    def __contains__(self, tone: object) -> bool:
        return tone in self._members

    def is_anchored(self) -> bool:
        """Starts on the unison."""
        return bool(self.tones) and self.tones[0] == ONE

    def is_closed(self) -> bool:
        """Ends on the diapason."""
        return bool(self.tones) and self.tones[-1] == TWO

    def to_json_dict(self) -> dict:
        return {"name": self.name, "tones": [str(t) for t in self.tones]}


def scale_from_json_dict(data: dict) -> Scale:
    """Inverse of Scale.to_json_dict."""
    return Scale(data["name"], [parse_ratio(t) for t in data["tones"]])


def _scale(name: str, pairs: list[tuple[int, int]]) -> Scale:
    return Scale(name, [Ratio(n, d) for n, d in pairs])


_CANONICAL = {
    # The four tavoletta consonances: unison, diatessaron, diapente, diapason.
    "T": _scale("T", [(1, 1), (4, 3), (3, 2), (2, 1)]),
    # Consonances after dividing the string into up to five parts.
    "T5": _scale("T5", [(1, 1), (5, 4), (4, 3), (3, 2), (5, 3), (2, 1)]),
    # Seven-tone cycle-of-diapente scale.
    "PYTHAGOREAN": _scale(
        "PYTHAGOREAN",
        [(1, 1), (9, 8), (81, 64), (4, 3), (3, 2), (27, 16), (243, 128), (2, 1)],
    ),
    # Seven-tone natural (just) scale.
    "NATURAL": _scale(
        "NATURAL",
        [(1, 1), (9, 8), (5, 4), (4, 3), (3, 2), (5, 3), (15, 8), (2, 1)],
    ),
    # Mean closure of T under the 5-limit (arithmetic means).
    "SN1": _scale(
        "SN1",
        [(1, 1), (9, 8), (5, 4), (81, 64), (4, 3), (45, 32), (3, 2), (25, 16), (5, 3), (2, 1)],
    ),
    # Mean closure of NATURAL under the 5-limit (arithmetic means).
    "SN2": _scale(
        "SN2",
        [
            (1, 1), (9, 8), (5, 4), (81, 64), (4, 3), (45, 32),
            (3, 2), (25, 16), (5, 3), (27, 16), (15, 8), (2, 1),
        ],
    ),
    # The four modal reference tones (RE, MI, FA, SOL in Pythagorean intonation).
    "FINALES": _scale("FINALES", [(9, 8), (81, 64), (4, 3), (3, 2)]),
    # The Guidonian six-tone system in natural intonation.
    "HEXACHORD_NATURAL": _scale(
        "HEXACHORD_NATURAL",
        [(1, 1), (9, 8), (5, 4), (4, 3), (3, 2), (5, 3)],
    ),
}

CANONICAL_NAMES = tuple(_CANONICAL)


def canonical(name: str) -> Scale:
    """Look up a built-in scale constant by its stable identifier."""
    try:
        return _CANONICAL[name]
    except KeyError:
        known = ", ".join(CANONICAL_NAMES)
        raise ValueError(f"unknown scale {name!r} (known: {known})") from None


def pythagorean_by_diapente(steps: int) -> Scale:
    """Grow the tavoletta T by a cycle of diapente.

    Each step multiplies the newest tone by 3/2 and folds the product
    back into the diapason, starting from the diapente itself:
    9/8, 27/16, 81/64, 243/128, ...  Four steps reproduce the
    seven-tone Pythagorean scale.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    tones = set(canonical("T").tones)
    cursor = _DIAPENTE
    for _ in range(steps):
        cursor = reduce_to_diapason(cursor * _DIAPENTE)
        tones.add(cursor)
    return Scale(f"pythagorean:steps={steps}", sorted(tones))


class SpiralTone(NamedTuple):
    """One stop on the spiral of fifths: signed step count and folded tone."""

    step: int
    tone: Ratio


def fifths_spiral(up: int, down: int) -> list[SpiralTone]:
    """Walk the diapente cycle both ways from the unison, folding each stop.

    Step +k holds (3/2)^k reduced to the diapason, step -k holds
    (2/3)^k reduced; step 0 is the unison.  Twelve steps either way
    land a Pythagorean comma away from where they started.
    """
    if up < 0 or down < 0:
        raise ValueError("spiral extents must be nonnegative")
    spiral = [
        SpiralTone(k, reduce_to_diapason(_DIAPENTE**k)) for k in range(-down, up + 1)
    ]
    return spiral


@dataclass(frozen=True)
class EqualTemperament:
    """N equal divisions of the diapason; degrees run 1..N+1, so
    degrees[0] == 1.0 and degrees[N] == 2.0."""

    divisions: int
    degrees: tuple[float, ...]


def equal_temperament(N: int) -> EqualTemperament:
    """Degree k (1-based) sits at 2^((k-1)/N)."""
    if N < 1:
        raise ValueError("need at least one division")
    return EqualTemperament(N, tuple(2.0 ** ((k - 1) / N) for k in range(1, N + 2)))


def cents(interval: Union[Ratio, float, int]) -> float:
    """Logarithmic interval size: 1200 * log2(interval)."""
    value = float(interval)
    if value <= 0:
        raise ValueError("intervals are positive")
    return 1200.0 * math.log2(value)


def step_intervals(scale: Scale) -> list[Ratio]:
    """Exact quotients between consecutive tones; their product spans the scale."""
    if len(scale.tones) < 2:
        raise ValueError("need at least two tones to have a step")
    return [hi / lo for lo, hi in zip(scale.tones, scale.tones[1:])]
