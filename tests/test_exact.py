"""Tests for the exact rational layer: Ratio, parsing, exponent vectors, roots."""

import fractions
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import diapason
from diapason.exact import (
    FIVE_LIMIT,
    MAGNITUDE_LIMIT,
    ONE,
    THREE_LIMIT,
    TWO,
    Ratio,
    RatioOverflowError,
    Restriction,
    exact_sqrt,
    exponents,
    is_smooth,
    parse_ratio,
)


# a strategy for well-behaved positive rationals (kept small so products
# and powers in property tests stay far from MAGNITUDE_LIMIT)
ratios = st.builds(Ratio, st.integers(1, 10**6), st.integers(1, 10**6))


class TestConstruction:
    def test_reduces_to_lowest_terms(self):
        assert Ratio(6, 4) == Ratio(3, 2)
        assert Ratio(6, 4).num == 3
        assert Ratio(6, 4).den == 2

    def test_integer_form(self):
        r = Ratio(7)
        assert r.num == 7 and r.den == 1

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            Ratio(0, 5)
        with pytest.raises(ValueError):
            Ratio(3, 0)
        with pytest.raises(ValueError):
            Ratio(-3, 2)
        with pytest.raises(ValueError):
            Ratio(3, -2)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Ratio(1.5)  # type: ignore[arg-type]

    def test_immutable(self):
        r = Ratio(3, 2)
        with pytest.raises(AttributeError):
            r.num = 4  # type: ignore[misc]


class TestParsing:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("3/2", Ratio(3, 2)),
            ("3:2", Ratio(3, 2)),
            ("3 / 2", Ratio(3, 2)),
            ("  7  ", Ratio(7)),
            ("243/128", Ratio(243, 128)),
        ],
    )
    def test_accepts(self, text, expect):
        assert parse_ratio(text) == expect

    @pytest.mark.parametrize("text", ["0/5", "3/0", "-3/2", "3.5", "", "a/b", "1/2/3"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_ratio(text)


class TestArithmetic:
    def test_basic_ops(self):
        assert Ratio(3, 2) * Ratio(4, 3) == TWO
        assert Ratio(3, 2) / Ratio(9, 8) == Ratio(4, 3)
        assert Ratio(1, 2) + Ratio(1, 3) == Ratio(5, 6)
        assert Ratio(3, 2) * 2 == Ratio(3)

    def test_pow(self):
        assert Ratio(3, 2) ** 2 == Ratio(9, 4)
        assert Ratio(3, 2) ** 0 == ONE
        assert Ratio(3, 2) ** -2 == Ratio(4, 9)

    def test_reciprocal(self):
        assert Ratio(3, 2).reciprocal() == Ratio(2, 3)
        assert ONE.reciprocal() == ONE

    def test_no_subtraction(self):
        # the domain is strictly positive; subtraction is deliberately absent
        with pytest.raises(TypeError):
            Ratio(3, 2) - ONE  # type: ignore[operator]

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Ratio(3, 2) * 1.5  # type: ignore[operator]
        with pytest.raises(TypeError):
            Ratio(3, 2) + 0.5  # type: ignore[operator]

    def test_comparisons(self):
        assert Ratio(4, 3) < Ratio(3, 2) < TWO
        assert Ratio(2) == 2
        assert Ratio(3, 2) != 1
        assert Ratio(3, 2) <= Ratio(3, 2)

    def test_sorting(self):
        tones = [TWO, ONE, Ratio(3, 2), Ratio(4, 3)]
        assert sorted(tones) == [ONE, Ratio(4, 3), Ratio(3, 2), TWO]


class TestOverflow:
    def test_limit_is_inclusive(self):
        assert Ratio(MAGNITUDE_LIMIT).num == 2**128

    def test_construction_overflow(self):
        with pytest.raises(RatioOverflowError):
            Ratio(MAGNITUDE_LIMIT + 1)

    def test_multiplication_overflow(self):
        big = Ratio(MAGNITUDE_LIMIT)
        with pytest.raises(RatioOverflowError):
            big * big

    def test_pow_overflow(self):
        with pytest.raises(RatioOverflowError):
            Ratio(2) ** 129
        # the same guard fires early for exponents that would be huge
        with pytest.raises(RatioOverflowError):
            Ratio(3, 2) ** 100000

    def test_overflow_is_arithmetic_error(self):
        assert issubclass(RatioOverflowError, ArithmeticError)


class TestProtocol:
    def test_str_always_slash(self):
        assert str(ONE) == "1/1"
        assert str(TWO) == "2/1"
        assert str(Ratio(3, 2)) == "3/2"

    def test_repr_roundtrip(self):
        r = Ratio(45, 32)
        assert eval(repr(r)) == r

    def test_hash_matches_fraction(self):
        assert hash(Ratio(3, 2)) == hash(fractions.Fraction(3, 2))
        assert hash(Ratio(2)) == hash(fractions.Fraction(2))

    @given(st.integers(1, MAGNITUDE_LIMIT), st.integers(1, MAGNITUDE_LIMIT))
    def test_hash_matches_fraction_up_to_the_guard(self, num, den):
        assert hash(Ratio(num, den)) == hash(fractions.Fraction(num, den))

    @pytest.mark.parametrize("den", [sys.hash_info.modulus, 3 * sys.hash_info.modulus])
    def test_hash_when_den_has_no_inverse(self, den):
        # den = 0 mod the hash modulus: Fraction hashes to hash_info.inf
        for num in (1, 2, sys.hash_info.modulus + 1):
            assert hash(Ratio(num, den)) == hash(fractions.Fraction(num, den)) == sys.hash_info.inf

    def test_cached_hash_is_stable_and_immutable(self):
        r = Ratio(243, 128)
        first = hash(r)
        assert hash(r) == first == hash(fractions.Fraction(243, 128))
        assert hash(r) == hash(Ratio(486, 256))
        assert {r: 1}[Ratio(243, 128)] == 1
        for name in ("num", "den", "_hash"):
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
        assert hash(r) == first

    def test_float(self):
        assert float(Ratio(3, 2)) == 1.5
        assert abs(float(Ratio(81, 64)) - 1.265625) < 1e-15


class TestRestriction:
    def test_str_form(self):
        assert str(FIVE_LIMIT) == "2,3,5"
        assert str(THREE_LIMIT) == "2,3"

    def test_must_contain_two(self):
        with pytest.raises(ValueError):
            Restriction(frozenset({3, 5}))

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            Restriction(frozenset({2, 4}))
        with pytest.raises(ValueError):
            Restriction(frozenset({2, 9}))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Restriction(frozenset())

    def test_larger_limit(self):
        r = Restriction(frozenset({2, 3, 5, 7}))
        assert is_smooth(Ratio(7, 6), r)

    def test_stored_radical_is_no_field(self):
        # The product of the primes rides along for is_smooth, but equality,
        # hashing and repr see only the primes.
        r = Restriction({2, 3})
        assert r == THREE_LIMIT
        assert hash(r) == hash(THREE_LIMIT)
        assert repr(r) == "Restriction(primes=frozenset({2, 3}))"
        assert r != FIVE_LIMIT


class TestFactorization:
    def test_five_limit_exponents(self):
        assert exponents(Ratio(45, 32), FIVE_LIMIT) == (-5, 2, 1)

    def test_outside_prime_leaves_no_vector(self):
        assert exponents(Ratio(7, 6), FIVE_LIMIT) is None
        assert exponents(Ratio(7, 6), Restriction({2, 3, 5, 7})) == (-1, -1, 0, 1)

    @given(st.lists(st.integers(-8, 8), min_size=4, max_size=4))
    def test_recompose_roundtrip(self, drawn):
        primes = (2, 3, 5, 7)
        r = math.prod((Ratio(p) ** e for p, e in zip(primes, drawn)), start=ONE)
        vector = exponents(r, Restriction(primes))
        assert vector == tuple(drawn)
        assert math.prod((Ratio(p) ** e for p, e in zip(primes, vector)), start=ONE) == r

    def test_smoothness(self):
        assert is_smooth(Ratio(45, 32), FIVE_LIMIT)
        assert not is_smooth(Ratio(45, 32), THREE_LIMIT)
        assert is_smooth(Ratio(243, 128), THREE_LIMIT)
        assert not is_smooth(Ratio(7, 4), FIVE_LIMIT)
        assert is_smooth(ONE, THREE_LIMIT)


class TestExactSqrt:
    def test_perfect_squares(self):
        assert exact_sqrt(Ratio(9, 4)) == Ratio(3, 2)
        assert exact_sqrt(Ratio(4)) == TWO
        assert exact_sqrt(ONE) == ONE

    def test_the_tone_has_no_half(self):
        # 9/8 cannot be split into two equal rational parts
        assert exact_sqrt(Ratio(9, 8)) is None
        assert exact_sqrt(TWO) is None

    @given(ratios)
    def test_square_then_root(self, r):
        assert exact_sqrt(r * r) == r

    @given(ratios)
    def test_root_squares_back(self, r):
        got = exact_sqrt(r)
        if got is not None:
            assert got * got == r
        else:
            # verify there really is no rational root
            assert math.isqrt(r.num) ** 2 != r.num or math.isqrt(r.den) ** 2 != r.den


def test_import_leaves_fractions_and_decimal_unloaded():
    # Ratio hashes without a Fraction, so neither module (nor what they
    # import) is paid for by `import diapason.cli`.
    src = str(Path(diapason.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import diapason.cli; "
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout == "[]\n"
