"""Tests for the exact rational layer: Ratio, parsing, exponent vectors, roots."""

import fractions
import math
import operator
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
# small parts make equal values (2/4 and 1/2) common in a drawn pair
tones = ratios | st.builds(Ratio, st.integers(1, 12), st.integers(1, 12))


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
        # a Ratio combines only with Ratios
        with pytest.raises(TypeError):
            Ratio(3, 2) * 2  # type: ignore[operator]
        with pytest.raises(TypeError):
            2 * Ratio(3, 2)  # type: ignore[operator]
        with pytest.raises(TypeError):
            2 / Ratio(3, 2)  # type: ignore[operator]
        with pytest.raises(TypeError):
            1 + Ratio(3, 2)  # type: ignore[operator]

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
        assert TWO > Ratio(3, 2) >= Ratio(3, 2)
        assert Ratio(3, 2) <= Ratio(3, 2)
        assert Ratio(2) != 2
        assert Ratio(2) != fractions.Fraction(2)
        assert Ratio(3, 2) != 1.5
        with pytest.raises(TypeError):
            Ratio(1) < 2  # type: ignore[operator]

    @pytest.mark.parametrize("other", [2, 2.0, fractions.Fraction(2)])
    @pytest.mark.parametrize(
        "op", [operator.mul, operator.truediv, operator.add, operator.lt, operator.le, operator.gt, operator.ge]
    )
    def test_other_numbers_rejected(self, op, other):
        with pytest.raises(TypeError):
            op(Ratio(1), other)
        with pytest.raises(TypeError):
            op(other, Ratio(1))

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

    def test_hash_is_stable_and_immutable(self):
        r = Ratio(243, 128)
        first = hash(r)
        assert hash(r) == first
        assert hash(r) == hash(Ratio(486, 256))
        assert {r: 1}[Ratio(243, 128)] == 1
        for name in ("num", "den"):
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
        assert hash(r) == first

    @given(st.lists(tones, min_size=2, max_size=8))
    def test_order_and_hash_agree_with_fraction(self, drawn):
        # > and >= have no methods of their own: Python reflects them onto < and <=.
        def frac(r):
            return fractions.Fraction(r.num, r.den)

        for a in drawn:
            for b in drawn:
                for op in (operator.eq, operator.lt, operator.le, operator.gt, operator.ge):
                    assert op(a, b) == op(frac(a), frac(b))
                if a == b:
                    assert hash(a) == hash(b)
        assert [frac(r) for r in sorted(drawn)] == sorted(map(frac, drawn))

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


def _loaded_by_cli_import(names):
    """Which of `names` a fresh `python -I -S` has loaded after `import diapason.cli`.

    -S keeps site hooks out of the count: a `.pth` file of an installed
    package may import `tempfile`, and with it `random`.
    """
    src = str(Path(diapason.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import diapason.cli; "
        f"print(sorted({set(names)!r} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True,
                          timeout=60, check=True)
    return done.stdout


def test_import_leaves_fractions_and_decimal_unloaded():
    # Ratio hashes without a Fraction, so neither module (nor what they
    # import) is paid for by `import diapason.cli`.
    assert _loaded_by_cli_import({"fractions", "decimal"}) == "[]\n"


def test_import_leaves_random_unloaded():
    # the certifier covers every insertion order at once and draws none
    assert _loaded_by_cli_import({"random"}) == "[]\n"
