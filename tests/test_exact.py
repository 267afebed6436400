"""Tests for the exact rational layer: Ratio, parsing, exponent vectors, roots."""

import copy
import fractions
import math
import operator
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import diapason
from diapason import cli
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
# parts up to MAGNITUDE_LIMIT, often multiples of 2^64 or 3^40, so that
# a product or sum of two passes the limit before its reduction and
# often fits after it
_wide_parts = st.integers(1, MAGNITUDE_LIMIT) | st.builds(
    operator.mul, st.sampled_from([2**64, 3**40]), st.integers(1, 2**64)
)
wide_ratios = st.builds(Ratio, _wide_parts, _wide_parts)


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
        with pytest.raises(AttributeError):
            del r.den
        assert r == Ratio(3, 2)


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
        with pytest.raises(RatioOverflowError) as raised:
            Ratio(2) ** 129
        assert str(raised.value) == "ratio part exceeds 128 bits"
        # the same guard fires early for exponents that would be huge,
        # in the same words
        with pytest.raises(RatioOverflowError) as raised:
            Ratio(3, 2) ** 100000
        assert str(raised.value) == "ratio part exceeds 128 bits"

    def test_overflow_is_arithmetic_error(self):
        assert issubclass(RatioOverflowError, ArithmeticError)

    # each operator's unreduced parts, as Ratio(n, d) would receive them
    _PARTS = {
        operator.mul: lambda a, b: (a.num * b.num, a.den * b.den),
        operator.truediv: lambda a, b: (a.num * b.den, a.den * b.num),
        operator.add: lambda a, b: (a.num * b.den + b.num * a.den, a.den * b.den),
    }

    @settings(max_examples=300)
    @given(wide_ratios, wide_ratios, st.sampled_from(list(_PARTS)))
    # 3·2^128 / 3(2^127 - 1) before reduction, 2^128 / (2^127 - 1) after
    @example(Ratio(2**127, 3), Ratio(6, 2**127 - 1), operator.mul)
    # 5·2^128 / 18 before reduction, 5·2^127 / 9 after
    @example(Ratio(2**128, 3), Ratio(6, 5), operator.truediv)
    # 2^129 / 2^256 before reduction, 1 / 2^127 after
    @example(Ratio(1, 2**128), Ratio(1, 2**128), operator.add)
    @example(Ratio(MAGNITUDE_LIMIT), TWO, operator.mul)
    def test_operators_build_what_the_constructor_builds(self, a, b, op):
        # both ways of building agree with the reduced Fraction, and both
        # overflow exactly when one of its parts exceeds 2^128
        num, den = self._PARTS[op](a, b)
        expected = fractions.Fraction(num, den)
        builds = (lambda: op(a, b), lambda: Ratio(num, den))
        if max(expected.numerator, expected.denominator) > MAGNITUDE_LIMIT:
            for build in builds:
                with pytest.raises(RatioOverflowError) as raised:
                    build()
                assert str(raised.value) == "ratio part exceeds 128 bits"
        else:
            for build in builds:
                result = build()
                assert type(result) is Ratio
                assert (result.num, result.den) == (expected.numerator, expected.denominator)


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
        object.__setattr__(r, "_radical", 1)  # past the immutable __setattr__
        assert r == THREE_LIMIT and hash(r) == hash(THREE_LIMIT)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Restriction({2, 3.0})

    def test_large_primes_are_accepted_at_once(self):
        # Trial division up to the square root took about a second for
        # the first and would take minutes for the Mersenne prime 2^61 - 1.
        start = time.perf_counter()
        for p in (100000000000031, 2**61 - 1, 3317044064679887385961813):
            assert Restriction({2, p}).primes == {2, p}
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "pseudoprime",
        [
            3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
            3825123056546413051,  # ... to every base up to 31; 37 exposes it
            318665857834031151167461,  # ... to every base up to 37; 41 exposes it
        ],
    )
    def test_rejects_strong_pseudoprimes(self, pseudoprime):
        with pytest.raises(ValueError, match=f"{pseudoprime} is not prime"):
            Restriction({2, pseudoprime})

    def test_rejects_primes_from_the_test_bound_on(self):
        # Below 3317044064679887385961981 the first 13 prime bases decide
        # primality exactly; at it and above they need not.
        for p in (3317044064679887385961981, 2**89 - 1):
            with pytest.raises(ValueError, match="3317044064679887385961981"):
                Restriction({2, p})

    @given(st.integers(-5, 10**6 - 1))
    def test_agrees_with_trial_division(self, n):
        trial = n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
        try:
            Restriction({2, n})
        except ValueError:
            assert not trial
        else:
            assert trial


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


def test_import_leaves_dataclasses_inspect_and_typing_unloaded():
    # The records are plain __slots__ classes and the tuples come from
    # collections: dataclasses would load inspect (with ast and tokenize).
    assert _loaded_by_cli_import({"dataclasses", "inspect", "typing"}) == "[]\n"


# One value of each immutable class, with the repr a frozen dataclass
# (or a NamedTuple) gave it: the records keep those reprs byte for byte.
_T = "Scale(name='T', tones=(Ratio(1, 1), Ratio(4, 3), Ratio(3, 2), Ratio(2, 1)))"
_WITNESS = "Witness(tone=Ratio(5, 4), a=Ratio(1, 1), b=Ratio(3, 2), kind=<MeanKind.ARITHMETIC: 'A'>)"
_GENERATION = f"Generation(added=(Ratio(5, 4),), witnesses=({_WITNESS},))"
_CAPPED = diapason.mean_closure(diapason.canonical("T"), diapason.GeneratorConfig(max_generations=1))
VALUES = {
    "Ratio(3, 2)": Ratio(3, 2),
    "Restriction(primes=frozenset({2, 3, 5}))": FIVE_LIMIT,
    "GeneratorConfig(kinds=frozenset({<MeanKind.HARMONIC: 'H'>}), "
    "restriction=Restriction(primes=frozenset({2, 3})), max_generations=3)":
        diapason.GeneratorConfig(frozenset({diapason.MeanKind.HARMONIC}), THREE_LIMIT, 3),
    _T: diapason.canonical("T"),
    "EqualTemperament(divisions=2, degrees=(1.0, 1.4142135623730951, 2.0))": diapason.equal_temperament(2),
    "DiapenteRecipe(value=Ratio(135, 128), fives=1, fifths=3, octaves=-4)":
        diapason.factor_identity(Ratio(135, 128)),
    f"ClosureTrace(seed={_T}, generations=(Generation(added=(Ratio(5, 4), Ratio(5, 3)), "
    "witnesses=(Witness(tone=Ratio(5, 4), a=Ratio(1, 1), b=Ratio(3, 2), kind=<MeanKind.ARITHMETIC: 'A'>), "
    "Witness(tone=Ratio(5, 3), a=Ratio(4, 3), b=Ratio(2, 1), kind=<MeanKind.ARITHMETIC: 'A'>))),), "
    "fixpoint_reached=False, final=Scale(name='T-closure', tones=(Ratio(1, 1), Ratio(5, 4), Ratio(4, 3), "
    "Ratio(3, 2), Ratio(5, 3), Ratio(2, 1))))": _CAPPED,
    _WITNESS: _CAPPED.generations[0].witnesses[0],
    _GENERATION: diapason.Generation((Ratio(5, 4),), (_CAPPED.generations[0].witnesses[0],)),
}
RECORDS = [v for v in VALUES.values() if not isinstance(v, (Ratio, tuple))]


class TestRecords:
    @pytest.mark.parametrize("text", VALUES)
    def test_repr_is_pinned(self, text):
        assert repr(VALUES[text]) == text

    @pytest.mark.parametrize("value", VALUES.values(), ids=lambda v: type(v).__name__)
    @pytest.mark.parametrize(
        "round_trip",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips_are_equal_and_hash_equal(self, value, round_trip):
        back = round_trip(value)
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == repr(value)

    def test_round_trips_rebuild_what_is_no_field(self):
        r, scale = pickle.loads(pickle.dumps((FIVE_LIMIT, diapason.canonical("T"))))
        assert r._radical == 30 and is_smooth(Ratio(5, 3), r)
        assert Ratio(4, 3) in copy.deepcopy(scale) and Ratio(5, 4) not in copy.copy(scale)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda v: type(v).__name__)
    def test_assignment_and_deletion_raise(self, record):
        for name in (*record._fields, "_extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in record._fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("record", RECORDS, ids=lambda v: type(v).__name__)
    def test_equal_only_within_a_class(self, record):
        assert record == type(record)(*record._values())
        assert record.__eq__(Ratio(3, 2)) is NotImplemented
        assert all(record != other for other in RECORDS if other is not record)

    def test_same_values_in_another_class_are_unequal(self):
        # as with dataclasses, equal field values do not make records of two classes equal
        assert diapason.ClosureTrace(1, 2, 3, 4) != diapason.DiapenteRecipe(1, 2, 3, 4)
        assert diapason.ClosureTrace(1, 2, 3, 4) == diapason.ClosureTrace(1, 2, 3, 4)

    def test_generic_init_takes_every_field(self):
        with pytest.raises(TypeError, match="takes 2 fields"):
            diapason.EqualTemperament(2)

    @pytest.mark.parametrize(
        "cls",
        [diapason.SpiralTone, diapason.Witness, diapason.Generation, diapason.TableCell,
         diapason.Transposition, diapason.EqualComparison, diapason.IntervalCount, cli.Report],
    )
    def test_tuples_have_no_dict(self, cls):
        assert not hasattr(cls(*range(len(cls._fields))), "__dict__")
