"""The three proportional means.

Arithmetic and harmonic means of positive rationals are rational and
computed exactly.  The geometric mean usually is not: it comes back as
None then, and every predicate that involves it works on squares so no
floating point sneaks into an exactness decision.  The string-length/
frequency duality is the identity 1/H(a, b) = A(1/a, 1/b).
`mean_of_kind` alone names a mean that overflows: its kind and its pair.
"""

from __future__ import annotations

import enum

from .exact import TWO, Ratio, RatioOverflowError, _from_parts, _sqrt_of_parts

__all__ = [
    "MeanKind",
    "is_proportion",
    "mean_arithmetic",
    "mean_geometric",
    "mean_harmonic",
    "mean_of_kind",
]


class MeanKind(enum.Enum):
    ARITHMETIC = "A"
    GEOMETRIC = "G"
    HARMONIC = "H"


def mean_arithmetic(a: Ratio, b: Ratio) -> Ratio:
    """(a + b) / 2, exact."""
    return _from_parts(a.num * b.den + b.num * a.den, 2 * a.den * b.den)


def mean_harmonic(a: Ratio, b: Ratio) -> Ratio:
    """2ab / (a + b), exact."""
    return a * b * TWO / (a + b)


def mean_geometric(a: Ratio, b: Ratio) -> Ratio | None:
    """sqrt(a*b) when a*b is a perfect rational square, else None.

    The product stays in plain integers: it may exceed the 128-bit
    guard, but the root's parts are no larger than those of a and b.
    """
    return _sqrt_of_parts(a.num * b.num, a.den * b.den)


def mean_of_kind(a: Ratio, b: Ratio, kind: MeanKind) -> Ratio | None:
    """The exact mean of the given kind, or None (geometric, irrational case).

    A RatioOverflowError is raised again with ", at the <kind> mean of
    <a> and <b>" appended; the closure kernel and the mean table call
    this to name their overflows.
    """
    try:
        if kind is MeanKind.ARITHMETIC:
            return mean_arithmetic(a, b)
        if kind is MeanKind.HARMONIC:
            return mean_harmonic(a, b)
        if kind is MeanKind.GEOMETRIC:
            return mean_geometric(a, b)
    except RatioOverflowError as error:
        context = f"at the {kind.name.lower()} mean of {a} and {b}"
        raise RatioOverflowError(f"{error}, {context}") from error
    raise TypeError(f"not a MeanKind: {kind!r}")


def is_proportion(a: Ratio, m: Ratio, b: Ratio, kind: MeanKind) -> bool:
    """Does m sit between a and b in the given proportion, exactly?

    Arithmetic: m - a = b - m.  Harmonic: (m - a)/(b - m) = a/b.
    Geometric: a:m = m:b.  Each amounts to m being the mean of that
    kind; the geometric mean takes its root of the plain-integer
    product, so irrational roots never match and a product beyond the
    128-bit guard does not overflow.
    """
    expected = mean_of_kind(a, b, kind)
    return expected is not None and m == expected
