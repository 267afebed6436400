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
smooth parts of integers", 2004).  Code that tests many parts below one
bound 2^width instead builds one modulus, `_smooth_modulus`, that every
smooth part below it divides.
"""

from __future__ import annotations

import math
import re

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


_OVERFLOW_MESSAGE = f"ratio part exceeds {MAGNITUDE_LIMIT.bit_length() - 1} bits"


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
            raise RatioOverflowError(_OVERFLOW_MESSAGE)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError("Ratio is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return Ratio, (self.num, self.den)

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: Ratio) -> Ratio:
        if not isinstance(other, Ratio):
            return NotImplemented
        return _from_parts(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: Ratio) -> Ratio:
        if not isinstance(other, Ratio):
            return NotImplemented
        return _from_parts(self.num * other.den, self.den * other.num)

    def __add__(self, other: Ratio) -> Ratio:
        if not isinstance(other, Ratio):
            return NotImplemented
        return _from_parts(self.num * other.den + other.num * self.den, self.den * other.den)

    def __pow__(self, exponent: int) -> Ratio:
        if not isinstance(exponent, int):
            raise TypeError("only integer exponents keep a Ratio exact")
        # Reject guaranteed overflows before materializing a huge integer:
        # a part with b bits is >= 2^(b-1), so its |exponent|-th power
        # already exceeds the limit when (b-1)*|exponent| does.
        bits = max(self.num.bit_length(), self.den.bit_length())
        if (bits - 1) * abs(exponent) > MAGNITUDE_LIMIT.bit_length():
            raise RatioOverflowError(_OVERFLOW_MESSAGE)
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
# cost per construction than object.__setattr__ and its name lookup;
# _from_parts fills an instance made by object.__new__, without __init__.
_set_num = Ratio.num.__set__
_set_den = Ratio.den.__set__
_new_ratio = object.__new__


def _from_parts(num: int, den: int) -> Ratio:
    """Ratio(num, den) for positive int parts, which *, / and + of two
    Ratios always give: it reduces and guards the magnitude as __init__
    does, and skips __init__'s type and sign checks."""
    g = math.gcd(num, den)
    num //= g
    den //= g
    if num > MAGNITUDE_LIMIT or den > MAGNITUDE_LIMIT:
        raise RatioOverflowError(_OVERFLOW_MESSAGE)
    ratio = _new_ratio(Ratio)
    _set_num(ratio, num)
    _set_den(ratio, den)
    return ratio


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


class _Record:
    """An immutable value whose `_fields` alone make its ==, hash, repr and pickle."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


# Miller-Rabin with the first 13 primes as bases decides primality
# exactly below this bound (Sorenson & Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for integers below _PRIME_BOUND."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    odd, halvings = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        halvings += 1
    for base in _PRIME_BASES:
        x = pow(base, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(halvings - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # base witnesses that n is composite
    return True


class Restriction(_Record):
    """Prime limit: only ratios built from these `primes` are admitted.

    The two working limits are THREE_LIMIT ({2, 3}, the Pythagorean
    world) and FIVE_LIMIT ({2, 3, 5}, the natural world); anything
    larger can be built by passing more primes, each below 3.3 * 10^24.
    """

    __slots__ = ("primes", "_radical")
    _fields = ("primes",)

    def __init__(self, primes) -> None:
        primes = frozenset(primes)
        if not primes:
            raise ValueError("a restriction needs at least one prime")
        if 2 not in primes:
            raise ValueError("the diapason prime 2 must be allowed")
        for p in primes:
            if not isinstance(p, int):
                raise TypeError(f"primes are integers, got {p!r}")
            if p >= _PRIME_BOUND:
                raise ValueError(f"{p} is not below {_PRIME_BOUND}, the primality test's bound")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "_radical", math.prod(primes))  # not a field

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


def _smooth_modulus(primes, width: int) -> int:
    """M, the product over `primes` of the largest power p^e < 2^width
    (p itself when p >= 2^width): for 1 <= n < 2^width, n factors over
    the primes exactly when M % n == 0.

    Proof: each prime power p^e dividing such an n has p^e <= n < 2^width,
    so it divides M exactly when p is one of the primes.
    """
    bound = 1 << width
    modulus = 1
    for p in primes:
        power = p
        while power * p < bound:
            power *= p
        modulus *= power
    return modulus


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
