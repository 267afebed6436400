"""Exact rational arithmetic for pitch ratios.

Everything downstream (scales, means, closures) is built on `Ratio`:
an immutable, always-reduced fraction of strictly positive integers.
Alongside it live prime limits (`Restriction`), the exponent vector of
a ratio over a limit, smoothness tests against a limit, and exact
rational square roots.  A tone in a prime limit is a walk along its
primes: 45/32 over {2, 3, 5} is the vector (-5, 2, 1).

The smoothness test divides instead of factoring: n factors over the
primes S exactly when n divides rad(S)^bit_length(n), rad(S) being the
product of S, because no prime exponent of n reaches n's bit length
(the criterion of batch smoothness detection; Bernstein, "How to find
smooth parts of integers", 2004).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Union

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


_HASH_MODULUS = sys.hash_info.modulus

_PARSE_PATTERN = re.compile(r"\A(\d+)(?:\s*[/:]\s*(\d+))?\Z")


class Ratio:
    """Canonical positive fraction: gcd(num, den) = 1, both parts >= 1.

    Supports *, /, +, integer **, total ordering and hashing consistent
    with the rational value.  Subtraction is deliberately absent — the
    domain has no zero or negative pitches, and nothing here needs it.
    """

    # _hash is filled on the first hash() call: closure passes hash the
    # same tones many times, and the modular inverse a fresh hash needs
    # costs far more than reading the slot.
    __slots__ = ("num", "den", "_hash")

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
        _set_hash(self, None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Ratio is immutable")

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: Union["Ratio", int]) -> "Ratio":
        other = _coerce(other)
        return Ratio(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Ratio", int]) -> "Ratio":
        other = _coerce(other)
        return Ratio(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: Union["Ratio", int]) -> "Ratio":
        return _coerce(other) / self

    def __add__(self, other: Union["Ratio", int]) -> "Ratio":
        other = _coerce(other)
        return Ratio(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __pow__(self, exponent: int) -> "Ratio":
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

    def reciprocal(self) -> "Ratio":
        return Ratio(self.den, self.num)

    # -- comparisons --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ratio):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        return NotImplemented

    def __lt__(self, other: Union["Ratio", int]) -> bool:
        other = _coerce(other)
        return self.num * other.den < other.num * self.den

    def __le__(self, other: Union["Ratio", int]) -> bool:
        other = _coerce(other)
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other: Union["Ratio", int]) -> bool:
        other = _coerce(other)
        return self.num * other.den > other.num * self.den

    def __ge__(self, other: Union["Ratio", int]) -> bool:
        other = _coerce(other)
        return self.num * other.den >= other.num * self.den

    def __hash__(self) -> int:
        # CPython's numeric hash for a positive rational, as Fraction
        # computes it, so 2/1 and 2 (and Fraction(2, 1)) collide correctly.
        h = self._hash
        if h is None:
            try:
                h = hash(hash(self.num) * pow(self.den, -1, _HASH_MODULUS))
            except ValueError:  # den is a multiple of the modulus: no inverse
                h = sys.hash_info.inf
            _set_hash(self, h)
        return h

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
_set_hash = Ratio._hash.__set__

ONE = Ratio(1)
TWO = Ratio(2)


def _coerce(value: Union[Ratio, int]) -> Ratio:
    if isinstance(value, Ratio):
        return value
    if isinstance(value, int):
        return Ratio(value)
    raise TypeError(f"cannot mix Ratio with {type(value).__name__}")


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
