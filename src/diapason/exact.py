"""Exact rational arithmetic for pitch ratios.

Everything downstream (scales, means, closures) is built on `Ratio`:
an immutable, always-reduced fraction of strictly positive integers.
Every object of the domain is a ratio between sounds, so a Ratio
combines only with other Ratios.  Alongside it live prime limits
(`Restriction`), the exponent vector of a ratio over a limit,
smoothness tests against a limit, and exact rational square roots.
A tone in a prime limit is a walk along its primes: 45/32 over
{2, 3, 5} is the vector (-5, 2, 1).

The smoothness test divides instead of factoring: n factors over the
primes S exactly when n divides rad(S)^bit_length(n), rad(S) being the
product of S, because no prime exponent of n reaches n's bit length
(the criterion of batch smoothness detection; Bernstein, "How to find
smooth parts of integers", 2004).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = [
    "MAGNITUDE_LIMIT",
    "ONE",
    "TWO",
    "Ratio",
    "RatioOverflowError",
    "Restriction",
    "THREE_LIMIT",
    "FIVE_LIMIT",
    "exact_sqrt",
    "exponents",
    "is_smooth",
    "parse_ratio",
]

# Numerators/denominators may not exceed 128 bits in magnitude.  The
# worked closures stay tiny (denominators <= 768), but exploratory
# configurations can snowball; a hard ceiling turns that into a clean
# error instead of an ever-slower computation.
MAGNITUDE_LIMIT = 2**128


class RatioOverflowError(ArithmeticError):
    """A ratio operation produced a part larger than MAGNITUDE_LIMIT."""


_PARSE_PATTERN = re.compile(r"\A(\d+)(?:\s*[/:]\s*(\d+))?\Z")


class Ratio:
    """Canonical positive fraction: gcd(num, den) = 1, both parts >= 1.

    Supports *, /, + and total ordering between Ratios, and integer **.
    A Ratio combines only with other Ratios: an int, float or Fraction
    operand raises TypeError, and Ratio(2) != 2.  It hashes by its
    parts, which are always reduced, so equal Ratios hash equal.
    Subtraction is deliberately absent — the domain has no zero or
    negative pitches, and nothing here needs it.
    """

    __slots__ = ("num", "den")

    num: int
    den: int

    def __init__(self, num: int, den: int = 1) -> None:
        if not isinstance(num, int) or not isinstance(den, int):
            raise TypeError(f"integer parts required, got {num!r}/{den!r}")
        if num <= 0 or den <= 0:
            raise ValueError(f"ratio parts must be strictly positive, got {num}/{den}")
        g = math.gcd(num, den)
        num //= g
        den //= g
        if num > MAGNITUDE_LIMIT or den > MAGNITUDE_LIMIT:
            raise RatioOverflowError(f"ratio part exceeds {MAGNITUDE_LIMIT.bit_length() - 1} bits")
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Ratio is immutable")

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: Ratio) -> Ratio:
        if not isinstance(other, Ratio):
            return NotImplemented
        return Ratio(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: Ratio) -> Ratio:
        if not isinstance(other, Ratio):
            return NotImplemented
        return Ratio(self.num * other.den, self.den * other.num)

    def __add__(self, other: Ratio) -> Ratio:
        if not isinstance(other, Ratio):
            return NotImplemented
        return Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    def __pow__(self, exponent: int) -> Ratio:
        if not isinstance(exponent, int):
            raise TypeError("only integer exponents keep a Ratio exact")
        # Reject guaranteed overflows before materializing a huge integer:
        # a part with b bits is >= 2^(b-1), so its |exponent|-th power
        # already exceeds the limit when (b-1)*|exponent| does.
        bits = max(self.num.bit_length(), self.den.bit_length())
        if (bits - 1) * abs(exponent) > MAGNITUDE_LIMIT.bit_length():
            raise RatioOverflowError("power exceeds the magnitude limit")
        if exponent >= 0:
            return Ratio(self.num**exponent, self.den**exponent)
        return Ratio(self.den**-exponent, self.num**-exponent)

    def reciprocal(self) -> Ratio:
        return Ratio(self.den, self.num)

    # -- comparisons --------------------------------------------------
    # Between two Ratios Python evaluates a > b as b < a and a >= b as
    # b <= a, so > and >= need no methods of their own.

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ratio):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other: Ratio) -> bool:
        if not isinstance(other, Ratio):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def __le__(self, other: Ratio) -> bool:
        if not isinstance(other, Ratio):
            return NotImplemented
        return self.num * other.den <= other.num * self.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- conversions --------------------------------------------------

    def __float__(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Ratio({self.num}, {self.den})"


# The slots' own setters write past the immutable __setattr__, at less
# cost per construction than object.__setattr__ and its name lookup.
_set_num = Ratio.num.__set__
_set_den = Ratio.den.__set__

ONE = Ratio(1)
TWO = Ratio(2)


def parse_ratio(text: str) -> Ratio:
    """Parse "num/den", "num:den" or a bare integer string."""
    match = _PARSE_PATTERN.match(text.strip())
    if match is None:
        raise ValueError(f"not a ratio: {text!r}")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) else 1
    return Ratio(num, den)


@dataclass(frozen=True)
class Restriction:
    """Prime limit: only ratios built from these primes are admitted.

    The two working limits are THREE_LIMIT ({2, 3}, the Pythagorean
    world) and FIVE_LIMIT ({2, 3, 5}, the natural world); anything
    larger can be built by passing more primes.
    """

    primes: frozenset[int]

    def __init__(self, primes) -> None:
        primes = frozenset(primes)
        if not primes:
            raise ValueError("a restriction needs at least one prime")
        if 2 not in primes:
            raise ValueError("the diapason prime 2 must be allowed")
        for p in primes:
            if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", primes)
        # Not a field: equality, hashing and repr still see only `primes`.
        object.__setattr__(self, "_radical", math.prod(primes))

    def __str__(self) -> str:
        return ",".join(str(p) for p in sorted(self.primes))


THREE_LIMIT = Restriction({2, 3})
FIVE_LIMIT = Restriction({2, 3, 5})


def exponents(r: Ratio, restriction: Restriction) -> tuple[int, ...] | None:
    """The exponent of each allowed prime in r, smallest prime first.

    Denominator primes count negative, so 45/32 over FIVE_LIMIT is
    (-5, 2, 1).  None when r does not factor over those primes.
    """
    num, den = r.num, r.den
    vector = []
    for prime in sorted(restriction.primes):
        exp = 0
        while num % prime == 0:
            num //= prime
            exp += 1
        while den % prime == 0:  # num and den are coprime: one loop is idle
            den //= prime
            exp -= 1
        vector.append(exp)
    if num != 1 or den != 1:
        return None
    return tuple(vector)


def is_smooth(r: Ratio, restriction: Restriction) -> bool:
    """True iff numerator and denominator factor entirely over the allowed primes.

    A part n is smooth exactly when it divides rad^k for k = n.bit_length(),
    rad being the product of the allowed primes.  That k is large enough:
    a prime p with p^e dividing n has 2^e <= p^e <= n < 2^k, so e < k and
    p^e divides p^k.  So one modular power per part decides it (n = 1
    gives rad^1 mod 1 = 0, smooth), with no trial division.
    """
    rad = restriction._radical
    num, den = r.num, r.den
    return pow(rad, num.bit_length(), num) == 0 and pow(rad, den.bit_length(), den) == 0


def exact_sqrt(r: Ratio) -> Ratio | None:
    """The Ratio s with s*s == r, or None when no rational root exists.

    9/8 has none: the whole tone cannot be split into two equal
    rational intervals (Zarlino's indivisibility).
    """
    return _sqrt_of_parts(r.num, r.den)


def _sqrt_of_parts(num: int, den: int) -> Ratio | None:
    """The rational root of num/den for positive integers, or None.

    The parts may exceed the magnitude limit; only the root must fit it.
    """
    g = math.gcd(num, den)
    num //= g
    den //= g
    sn = math.isqrt(num)
    sd = math.isqrt(den)
    if sn * sn == num and sd * sd == den:
        return Ratio(sn, sd)
    return None
